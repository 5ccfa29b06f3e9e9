"""Retry, fallback and quarantine policy for faulted batch items.

The recovery ladder (applied per batch item, in order):

1. **Retry** — a transient fault (:class:`~repro.errors.FaultInjectedError`)
   re-runs the item on its core group, up to
   :attr:`RetryPolicy.max_retries` times.  Every attempt restages the
   operands from the host arrays, so a successful retry is *bit-exact*:
   nothing a failed attempt half-wrote survives into the next one.
   Backoff is deterministic and accounted in **modeled** seconds
   (geometric: ``backoff_seconds * backoff_factor ** (retry - 1)``) —
   the simulation never sleeps.
2. **Fallback engine** — when retries exhaust and the scheduler has a
   ``fallback_engine`` (a :class:`~repro.core.session.Session` batch
   falls back from ``vectorized`` to ``device``), the item runs once
   more on that engine.  A ``MemoryError`` skips this rung: staging
   that does not fit the CG fails the same way on every engine.
3. **Quarantine** — a whole-CG fault (site ``"cg"``) marks the core
   group unhealthy for the rest of the run; its queued items respill to
   the least-loaded healthy CG.  Load-balance statistics then count
   healthy CGs only.
4. **Structured failure** — an item past the ladder reports a
   :class:`FaultReport` with ``recovered=False`` and a per-item
   :class:`~repro.multi.scheduler.ItemError`; its output slot is
   ``None``.  A wrong answer is never returned silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError, FaultInjectedError
from repro.utils.stats import StatsProtocol

__all__ = ["DEFAULT_RETRY_POLICY", "FaultReport", "RecoveryStats", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic geometric backoff.

    ``max_retries=0`` disables retrying (faults fail fast into the
    fallback/report path).  ``retry_faults_only`` (the default)
    restricts retries to injected transient faults — deterministic
    failures (shape errors, NaN check failures) would fail identically
    again, so retrying them only burns modeled time; set it ``False``
    to retry any exception, as a real runtime facing genuinely
    transient causes would.
    """

    max_retries: int = 2
    #: modeled seconds charged before the first retry.
    backoff_seconds: float = 1e-6
    #: geometric growth factor per subsequent retry.
    backoff_factor: float = 2.0
    retry_faults_only: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0:
            raise ConfigError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    @property
    def enabled(self) -> bool:
        return self.max_retries > 0

    def should_retry(self, exc: BaseException, retries_done: int) -> bool:
        """Whether one more retry is due after ``exc``."""
        if retries_done >= self.max_retries:
            return False
        if self.retry_faults_only and not isinstance(exc, FaultInjectedError):
            return False
        return True

    def backoff_for(self, retry: int) -> float:
        """Modeled backoff before the ``retry``-th retry (1-based)."""
        if retry < 1:
            raise ConfigError(f"retry index is 1-based, got {retry}")
        return self.backoff_seconds * self.backoff_factor ** (retry - 1)

    def total_backoff(self, retries: int) -> float:
        """Summed modeled backoff of ``retries`` consecutive retries."""
        return sum(self.backoff_for(i) for i in range(1, retries + 1))


#: the session default: two bit-exact retries, then degrade.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class FaultReport:
    """What the resilience layer did about one disturbed batch item.

    Produced only for items that saw at least one fault, retry,
    fallback or quarantine — a clean run carries no reports.  The
    report is the observable contract of the recovery ladder: either
    ``recovered`` is ``True`` and the item's output is correct, or the
    item's :class:`~repro.multi.scheduler.ItemError` carries
    ``error_kind``/``error_message`` and its output slot is ``None``.
    """

    #: batch index of the item.
    index: int
    #: site of the first fault this item saw (``None`` for non-fault errors).
    site: str | None
    #: execution attempts (1 + retries + fallback attempt, if any).
    attempts: int
    #: retries consumed on the primary engine.
    retries: int
    #: modeled seconds charged as retry backoff.
    backoff_seconds: float
    #: engine the item degraded to, when the primary exhausted retries.
    fallback_engine: str | None
    #: CGs this item's dispatch quarantined (whole-CG faults).
    quarantined_cgs: tuple[int, ...]
    #: core group that produced the final outcome.
    core_group: int
    #: whether the item finally produced a verified output.
    recovered: bool
    error_kind: str | None = None
    error_message: str | None = None

    @property
    def ok(self) -> bool:
        return self.recovered


@dataclass
class RecoveryStats(StatsProtocol):
    """Scheduler-side resilience counters (the ``resil.*`` namespace).

    Combined with :class:`~repro.resil.faults.InjectionStats` by
    :meth:`~repro.multi.scheduler.CGScheduler.resil_stats`, so one
    snapshot answers: how many faults were injected, how many items
    recovered, at what modeled backoff cost, and how much of the pool
    is quarantined.
    """

    #: fault-disturbed items that finally produced a correct output.
    recovered: int = 0
    #: items that ran out of ladder (structured per-item errors).
    exhausted: int = 0
    retries: int = 0
    fallbacks: int = 0
    quarantines: int = 0
    #: items re-homed from a quarantined CG to a healthy one.
    respilled: int = 0
    backoff_seconds: float = 0.0
    #: faults observed by the scheduler, keyed by site.
    faults_seen: dict = field(default_factory=dict)

    def record_fault(self, site: str) -> None:
        self.faults_seen[site] = self.faults_seen.get(site, 0) + 1

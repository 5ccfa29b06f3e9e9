"""Multi-CG batch scheduling: a device pool over the chip's core groups.

The paper optimizes DGEMM on one core group; the SW26010 has four, each
with its own memory controller and DRAM slice, and a *batched* GEMM
stream (LU trailing updates, convolution layers, served inference
traffic) is exactly the workload that can occupy all of them at once —
the items are independent, so no inter-CG communication is needed at
all.  :class:`CGScheduler` is the runtime layer that turns the
single-CG kernel into a chip-level throughput engine:

- **shape-aware binning** — items of the same (padded) shape are routed
  to the same CG, so that CG's
  :class:`~repro.core.context.ExecutionContext` keeps serving them from
  its LRU staging-plan cache (in-place restage, one host copy per
  operand, zero fresh allocations);
- **least-modeled-load dispatch** — a shape's first appearance lands on
  the CG with the least accumulated modeled time (via
  :class:`~repro.perf.estimator.Estimator`), and a bin spills to the
  least-loaded CG when staying would worsen the makespan by more than
  the item's own cost, re-homing the bin so the cache warms up there;
- **per-item failure isolation** — an item that raises is recorded as
  an :class:`ItemError` and its CG's context stays usable; the other
  items and CGs are unaffected;
- **resilience** — with a :class:`~repro.resil.FaultInjector` and a
  :class:`~repro.resil.RetryPolicy` wired in, a transiently faulted
  item retries from freshly restaged operands (bit-exact recovery,
  deterministic backoff charged in modeled seconds), degrades once to
  the ``fallback_engine`` when retries exhaust, and a whole-CG fault
  (site ``"cg"``) quarantines the group and respills its queue to the
  least-loaded healthy CG; every disturbed item carries a
  :class:`~repro.resil.FaultReport` in ``result.fault_reports``;
- **aggregated accounting** — :class:`ScheduleResult` reports per-CG
  traffic deltas, the modeled makespan vs. the serial single-CG time,
  and the load-balance efficiency over the *healthy* CGs.

Every CG is driven through its own long-lived ``ExecutionContext``,
entered for the duration of one :meth:`CGScheduler.run` — so after a
pool run (raise or no raise) every CG's ``MainMemory.used_bytes`` is
back at its pre-run baseline, the same memory-budget invariant the
single-CG path guarantees.

Parallel dispatch
-----------------

``run(items, parallel=True)`` executes each CG's item queue on its own
worker thread from a pool the scheduler owns.  The heavy work per item
— the fused engine's panel ``np.matmul`` calls and the staging copies —
releases the GIL, so a 4-CG batch genuinely overlaps on a multi-core
host while the Python coordination glue stays thin.  Thread correctness
rests on a sharding discipline rather than a big lock:

- ``counts`` / ``failures`` / ``run_seconds`` and each CG's
  ``ExecutionContext`` are **sharded per CG**: only the worker that
  owns a core group mutates its slots, so per-CG accounting needs no
  lock and span-metered context deltas stay exact;
- the cross-CG structures — the quarantine set, respill target
  selection over the shared load vector, the ``unplaced`` tally — are
  guarded by one **accounting lock**; :class:`~repro.resil.RecoveryStats`
  mutations take a **resilience lock**; the shared
  :class:`~repro.resil.FaultInjector` and the modeled-seconds cache
  carry their own locks;
- a quarantined CG's worker turns into a *respiller*: items left on its
  queue are re-homed (under the accounting lock) to the least-loaded
  healthy CG's queue and executed by that CG's own worker, so the
  single-writer discipline survives failover.

Serial mode remains the default and is bit-identical to previous
releases — the ladder stepper runs the exact same operation sequence,
just driven by an inline loop instead of worker queues.
"""

from __future__ import annotations

import collections
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError, FaultInjectedError, QuarantineError
from repro.api import GemmRequest
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.api import dgemm
from repro.core.batch import validate_items
from repro.core.context import ContextStats, ExecutionContext
from repro.core.engine import check_engine
from repro.core.engine.plans import PlanCache
from repro.core.params import BlockingParams
from repro.core.variants import get_variant
from repro.multi.processor import SW26010Processor
from repro.obs.registry import MetricsRegistry, context_meter
from repro.obs.tracer import ensure_tracer
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.estimator import Estimator
from repro.resil.faults import FaultInjector
from repro.resil.policy import FaultReport, RecoveryStats, RetryPolicy
from repro.tuning.table import TuningTable

__all__ = [
    "CGScheduler",
    "CGTraffic",
    "ItemError",
    "POLICIES",
    "SchedulePlan",
    "ScheduleResult",
]

#: dispatch policies accepted by ``CGScheduler(policy=...)``:
#: ``"binned"`` is the shape-affine least-loaded dispatch described in
#: the module docstring; ``"round_robin"`` ignores shape affinity and
#: modeled load entirely (items go to ``idx % pool``) — it exists as
#: the ablation baseline that quantifies what binning buys.
POLICIES = ("binned", "round_robin")


@dataclass(frozen=True)
class SchedulePlan:
    """Where every item goes, and what the model says it will cost.

    Produced by :meth:`CGScheduler.plan` (or :meth:`plan_shapes`, which
    needs only ``(m, n, k)`` tuples — paper-scale planning allocates no
    matrices).  ``cg_seconds`` are modeled times, so the makespan and
    efficiency figures are predictions of the co-scheduled run, not
    wall-clock measurements of the Python simulation.
    """

    #: CG index per item, in item order.
    assignments: tuple[int, ...]
    #: modeled seconds per item (at its padded shape).
    item_seconds: tuple[float, ...]
    #: accumulated modeled seconds per CG.
    cg_seconds: tuple[float, ...]
    #: (padded shape, blocking params) -> CG currently homing that bin.
    shape_bins: dict = field(hash=False, compare=False, default_factory=dict)

    @property
    def n_core_groups(self) -> int:
        return len(self.cg_seconds)

    @property
    def serial_seconds(self) -> float:
        """Modeled time of the same batch serialized on one CG."""
        return sum(self.item_seconds)

    @property
    def makespan_seconds(self) -> float:
        """Modeled completion time: the most-loaded CG's total."""
        return max(self.cg_seconds) if self.cg_seconds else 0.0

    @property
    def modeled_speedup(self) -> float:
        """``serial / makespan`` — what the pool buys over one CG."""
        makespan = self.makespan_seconds
        return self.serial_seconds / makespan if makespan else 1.0

    @property
    def load_balance_efficiency(self) -> float:
        """``serial / (n_cgs * makespan)`` — 1.0 is a perfect split."""
        return self.modeled_speedup / self.n_core_groups


@dataclass(frozen=True)
class ItemError:
    """One failed batch item, attributed to its CG (failure isolation)."""

    index: int
    core_group: int
    kind: str
    message: str


@dataclass(frozen=True)
class CGTraffic:
    """One CG's share of a pool run."""

    core_group: int
    items: int
    failures: int
    #: modeled seconds of the work run here (every attempt dispatched
    #: to this CG, plus retry backoff charged against it).
    modeled_seconds: float
    #: staging/DMA/regcomm deltas of this CG's context over the run.
    stats: ContextStats


@dataclass(frozen=True)
class ScheduleResult:
    """Aggregate of a pool run: outputs, failures, per-CG traffic, plan.

    ``traffic`` is the :class:`ContextStats` sum over every CG's
    context delta (one ``plus`` fold, no ad-hoc per-field arithmetic);
    the ``dma_bytes``/``dma_transactions``/``regcomm_bytes`` properties
    mirror :class:`repro.core.batch.BatchResult`, so callers that
    consume a serial batch result can consume a scheduled one
    unchanged.  ``flops`` counts successfully executed items only.

    Timing properties are computed from the *runtime* per-CG seconds in
    ``per_cg`` (which include retry backoff and respilled work), not
    the plan's predictions — the two coincide exactly on a fault-free
    run.  ``load_balance_efficiency`` divides by the healthy CG count:
    a pool that lost a CG to quarantine is not penalized for the work
    the dead CG could not have done.

    ``unplaced`` lists the items no CG could accept (every group
    quarantined before they dispatched).  They appear in ``errors``
    with a :class:`~repro.errors.QuarantineError`, but are *not*
    charged to any CG's ``items``/``failures`` — an item that never
    executed anywhere must not skew :class:`CGTraffic` or the
    load-balance figures of the group that happened to be its last
    planned home.
    """

    #: per-item results in input order; ``None`` where the item failed.
    outputs: tuple
    errors: tuple[ItemError, ...]
    per_cg: tuple[CGTraffic, ...]
    plan: SchedulePlan
    #: summed staging/DMA/regcomm deltas across the pool's contexts.
    traffic: ContextStats
    flops: int
    padded_flops: int = 0
    #: one report per fault-disturbed item (empty on a clean run).
    fault_reports: tuple[FaultReport, ...] = ()
    #: CGs quarantined by whole-CG faults during this run.
    quarantined: tuple[int, ...] = ()
    #: items (by index) that no healthy CG could accept — counted here,
    #: never in any CG's traffic.
    unplaced: tuple[int, ...] = ()
    #: per-item staging/DMA/regcomm deltas, in input order (every
    #: attempt the item made, on whichever CGs it touched).  Exact, not
    #: approximate: each CG's context is mutated only by the worker
    #: running an item's attempt, so attempt-scoped snapshots partition
    #: the CG's delta — summing ``item_traffic`` reproduces ``traffic``
    #: bit-exactly.  Empty tuple on results from older call sites.
    item_traffic: tuple[ContextStats, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def dma_bytes(self) -> int:
        return self.traffic.dma_bytes

    @property
    def dma_transactions(self) -> int:
        return self.traffic.dma_transactions

    @property
    def regcomm_bytes(self) -> int:
        return self.traffic.regcomm_bytes

    @property
    def n_core_groups(self) -> int:
        return len(self.per_cg)

    @property
    def healthy_core_groups(self) -> int:
        """CGs still accepting work at the end of the run."""
        return self.n_core_groups - len(self.quarantined)

    @property
    def recovered(self) -> tuple[FaultReport, ...]:
        """The fault reports whose items still produced a correct output."""
        return tuple(r for r in self.fault_reports if r.recovered)

    @property
    def makespan_seconds(self) -> float:
        """Runtime makespan: the most-loaded CG's accumulated seconds."""
        if not self.per_cg:
            return self.plan.makespan_seconds
        return max(t.modeled_seconds for t in self.per_cg)

    @property
    def serial_seconds(self) -> float:
        return self.plan.serial_seconds

    @property
    def modeled_speedup(self) -> float:
        makespan = self.makespan_seconds
        return self.serial_seconds / makespan if makespan else 1.0

    @property
    def load_balance_efficiency(self) -> float:
        """``speedup / healthy CGs`` — 1.0 is a perfect healthy split."""
        healthy = self.healthy_core_groups
        return self.modeled_speedup / healthy if healthy else 0.0

    @property
    def padding_overhead(self) -> float:
        """``padded_flops / flops`` — 1.0 means no padding waste."""
        return self.padded_flops / self.flops if self.flops else 1.0

    def __len__(self) -> int:
        return len(self.outputs)


class _ItemTask:
    """One batch item's mutable trip through the recovery ladder.

    Owning the ladder state (retries burned, faults seen, current home)
    lets an item cross threads on respill without losing its history:
    the quarantined CG's worker re-enqueues the *task*, and the healthy
    CG's worker resumes exactly where the ladder left off.
    """

    __slots__ = (
        "idx", "item", "seconds", "home", "engine", "params",
        "retries", "attempts", "backoff", "first_site", "q_here",
        "fallback_used", "traffic",
    )

    def __init__(
        self, idx: int, item: GemmRequest, home: int, seconds: float,
        engine: str, params: BlockingParams,
    ) -> None:
        self.idx = idx
        self.item = item
        self.seconds = seconds
        self.home = home
        self.engine = engine
        #: this item's blocking parameters (a per-item ``blocking=``
        #: override, a tuned-table pick, or the scheduler default).
        self.params = params
        self.retries = 0
        self.attempts = 0
        self.backoff = 0.0
        self.first_site: str | None = None
        self.q_here: list[int] = []
        self.fallback_used: str | None = None
        #: this item's accumulated context delta across every attempt.
        self.traffic = ContextStats.zero()

    def report(self, recovered: bool, exc: BaseException | None = None) -> FaultReport:
        return FaultReport(
            index=self.idx,
            site=self.first_site,
            attempts=self.attempts,
            retries=self.retries,
            backoff_seconds=self.backoff,
            fallback_engine=self.fallback_used,
            quarantined_cgs=tuple(self.q_here),
            core_group=self.home,
            recovered=recovered,
            error_kind=type(exc).__name__ if exc is not None else None,
            error_message=str(exc) if exc is not None else None,
        )

    @property
    def disturbed(self) -> bool:
        return bool(
            self.first_site or self.retries or self.fallback_used or self.q_here
        )


#: outcome kinds returned by ``CGScheduler._run_item``.
_OK, _ERROR, _UNPLACED, _RESPILL = "ok", "error", "unplaced", "respill"


class CGScheduler:
    """Dispatch a stream of :class:`~repro.api.GemmRequest`s across a CG pool.

    One scheduler owns an :class:`SW26010Processor` (built here unless
    passed in), a per-CG :class:`ExecutionContext`, and — once a
    parallel run has been requested — a thread pool with one worker per
    core group.  ``run`` plans the batch, executes every item on its
    assigned CG (inline, or on the CG's worker thread with
    ``parallel=True``), and returns a :class:`ScheduleResult`;
    ``plan``/``plan_shapes`` expose the dispatch decision and modeled
    timing without executing anything.

    ``n_core_groups`` may restrict the pool to a prefix of the chip's
    CGs (the 1-CG pool is the serial baseline the scaling experiment
    compares against).  The scheduler is not reentrant: overlapping
    ``run`` calls would race on the per-CG contexts, so a second
    in-flight call raises :class:`~repro.errors.ConfigError` loudly
    instead of corrupting state.

    Resilience is opt-in: pass ``injector=`` (wired through every CG's
    devices here), ``retry_policy=`` to retry transiently faulted items
    with deterministic modeled backoff, and ``fallback_engine=`` to
    re-run an item once on a different engine after retries exhaust.
    Whole-CG faults (site ``"cg"``, fired at dispatch) quarantine the
    group for the rest of the run and respill its queue to the
    least-loaded healthy CG.  Cumulative counters live in
    :meth:`resil_stats`; per-item outcomes in
    :attr:`ScheduleResult.fault_reports`.

    Call :meth:`close` (or use the scheduler as a context manager) to
    release the worker pool; a scheduler that never ran in parallel
    holds no threads.
    """

    def __init__(
        self,
        processor: SW26010Processor | None = None,
        *,
        n_core_groups: int | None = None,
        variant: str = "SCHED",
        engine: str = "device",
        params: BlockingParams | None = None,
        spec: SW26010Spec = DEFAULT_SPEC,
        calibration: Calibration = DEFAULT_CALIBRATION,
        pad: bool = True,
        check: bool = False,
        tracer=None,
        injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        fallback_engine: str | None = None,
        plan_cache: PlanCache | None = None,
        policy: str = "binned",
        tuned: TuningTable | str | None = None,
    ) -> None:
        self.processor = processor or SW26010Processor(spec)
        self.tracer = ensure_tracer(tracer)
        limit = self.processor.N_CORE_GROUPS
        pool = limit if n_core_groups is None else int(n_core_groups)
        if not 1 <= pool <= limit:
            raise ConfigError(
                f"n_core_groups must be in [1, {limit}], got {pool}"
            )
        self.n_core_groups = pool
        self.variant = str(variant).upper()
        self.engine = check_engine(engine)
        self.policy = str(policy).lower()
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown dispatch policy {policy!r} "
                f"(expected one of {', '.join(POLICIES)})"
            )
        # the tuned table only overrides *defaulted* blocking: a caller
        # who passed explicit params said what they want, and gets it.
        self._explicit_params = params is not None
        self.tuned = (
            TuningTable.load(tuned) if isinstance(tuned, str) else tuned
        )
        self._calibration = calibration
        self.params = params or get_variant(self.variant).default_params()
        self.pad = pad
        self.check = check
        self.injector = injector
        if injector is not None:
            self.processor.attach_injector(injector)
        self.retry_policy = retry_policy
        self.fallback_engine = (
            check_engine(fallback_engine) if fallback_engine else None
        )
        self.resil = RecoveryStats()
        #: compiled index plans, one cache for the whole pool: plans are
        #: immutable after build, so every CG worker thread reads the
        #: same plan object for a repeated shape — one build per
        #: signature per scheduler, budgeted by the pool's LDM bytes.
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(
            spec=self.processor.spec, n_core_groups=pool
        )
        self._estimator = Estimator(self.processor.spec, calibration)
        self._contexts = [
            ExecutionContext(self.processor.cg(g)) for g in range(pool)
        ]
        #: (padded shape, params) -> modeled seconds (estimates are pure
        #: functions of shape and blocking, so one batch full of repeats
        #: costs one estimate).
        self._seconds_cache: dict[tuple, float] = {}
        # -- thread coordination (see module docstring) ----------------
        #: non-reentrancy guard: held for the duration of one run().
        self._run_guard = threading.Lock()
        #: guards cross-CG accounting: quarantine set, respill target
        #: selection over the load vector, the unplaced tally.
        self._account_lock = threading.Lock()
        #: guards every RecoveryStats mutation.
        self._resil_lock = threading.Lock()
        #: guards the modeled-seconds estimate cache.
        self._cache_lock = threading.Lock()
        #: serializes close() against itself (idempotency under
        #: concurrent calls) and the _workers handle swap.
        self._close_lock = threading.Lock()
        #: lazily created pool of one worker per CG (parallel runs only).
        self._workers: ThreadPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the worker pool, if one was ever created.

        Idempotent, and safe to call concurrently — with another
        ``close()`` or with an in-flight :meth:`run`: it first waits
        out any run holding the non-reentrancy guard (so the pool is
        never yanked from under live workers), then atomically takes
        ownership of the pool handle, so exactly one caller performs
        the shutdown.  A later :meth:`run` simply builds a fresh pool.
        """
        with self._run_guard:
            with self._close_lock:
                workers, self._workers = self._workers, None
        if workers is not None:
            workers.shutdown(wait=True)
        # drain compiled plans with the pool: a closed scheduler holds
        # no index-table bytes (the memory-invariant checker verifies).
        self.plan_cache.clear()

    def __enter__(self) -> "CGScheduler":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def _worker_pool(self) -> ThreadPoolExecutor:
        # only called while a run holds the non-reentrancy guard, so it
        # cannot race close() (which waits on the same guard).
        with self._close_lock:
            if self._workers is None:
                self._workers = ThreadPoolExecutor(
                    max_workers=self.n_core_groups,
                    thread_name_prefix="cg-worker",
                )
            return self._workers

    # -- planning ------------------------------------------------------

    def modeled_item_seconds(
        self, m: int, n: int, k: int, params: BlockingParams | None = None
    ) -> float:
        """Modeled single-CG seconds for one item (at its padded shape).

        ``params`` defaults to the scheduler's blocking; per-item
        overrides and tuned-table picks pass their own so the model
        prices the blocking that will actually run.
        """
        params = params or self.params
        key = (params.pad_shape(m, n, k), params)
        with self._cache_lock:
            seconds = self._seconds_cache.get(key)
        if seconds is None:
            seconds = self._estimator.estimate(
                self.variant, *key[0], params=params
            ).seconds
            with self._cache_lock:
                self._seconds_cache[key] = seconds
        return seconds

    def resolve_blocking(
        self,
        shapes: Sequence[tuple[int, int, int]],
        blocking: BlockingParams | Sequence[BlockingParams | None] | None = None,
        engine: str | None = None,
    ) -> list[BlockingParams]:
        """Effective per-item blocking, validated (errors name the item).

        Resolution order per item: an explicit ``blocking=`` override
        wins; otherwise a configured tuned table is consulted — unless
        the scheduler itself was built with explicit ``params=`` —
        with the estimator picking for bins the table misses; otherwise
        the scheduler's default parameters apply.  Every resolved
        choice is checked against the LDM budget and the variant's
        buffering regime up front, so a bad override fails before any
        item executes, naming its index in ``dgemm_batch`` style.
        """
        count = len(shapes)
        if blocking is None:
            overrides: list[BlockingParams | None] = [None] * count
        elif isinstance(blocking, BlockingParams):
            overrides = [blocking] * count
        else:
            overrides = list(blocking)
            if len(overrides) != count:
                raise ConfigError(
                    f"blocking= carries {len(overrides)} overrides for "
                    f"{count} items"
                )
        spec = self.processor.spec
        traits = get_variant(self.variant).traits
        engine = (engine or self.engine).lower()
        consult = self.tuned is not None and not self._explicit_params
        resolved: list[BlockingParams] = []
        for idx, (override, (m, n, k)) in enumerate(zip(overrides, shapes)):
            params = override
            if params is not None and not isinstance(params, BlockingParams):
                raise ConfigError(
                    f"batch item {idx}: blocking override must be "
                    f"BlockingParams, got {type(params).__name__}"
                )
            if params is None and consult:
                params = self.tuned.resolve(
                    self.variant, engine, m, n, k,
                    spec=spec, calibration=self._calibration,
                ).params
            if params is None:
                params = self.params
            try:
                params.validate(spec)
            except Exception as exc:
                raise ConfigError(f"batch item {idx}: {exc}") from None
            # the RAW path ignores blocking entirely; for the shared
            # variants a wrong buffering regime would only surface as an
            # engine error mid-batch — catch it here, with the index.
            if traits.shared and bool(params.double_buffered) != bool(
                traits.double_buffered
            ):
                regime = (
                    "double" if traits.double_buffered else "single"
                )
                raise ConfigError(
                    f"batch item {idx}: blocking for variant "
                    f"{self.variant} must be {regime}-buffered"
                )
            resolved.append(params)
        return resolved

    def plan(
        self,
        items: Sequence[GemmRequest] | Iterable[GemmRequest],
        *,
        blocking: BlockingParams | Sequence[BlockingParams | None] | None = None,
    ) -> SchedulePlan:
        """Validate ``items`` and plan their dispatch (no execution)."""
        items = list(items)
        if not items:
            raise ConfigError("empty batch")
        shapes = validate_items(items)
        return self.plan_shapes(
            shapes, params_list=self.resolve_blocking(shapes, blocking)
        )

    def plan_shapes(
        self,
        shapes: Sequence[tuple[int, int, int]],
        params_list: Sequence[BlockingParams] | None = None,
        policy: str | None = None,
    ) -> SchedulePlan:
        """Plan a batch given only its (m, n, k) shapes.

        Dispatch rule under the default ``"binned"`` policy, per item in
        stream order: a shape already binned goes to its bin's CG —
        unless that CG is ahead of the least-loaded one by more than
        this item's own modeled cost, in which case the bin spills (and
        re-homes) to the least-loaded CG.  A new shape always starts on
        the least-loaded CG.  Affinity keeps the staging-plan cache
        hot; the spill bound keeps a single dominant shape from
        serializing the whole pool.  The ``"round_robin"`` policy
        ignores affinity and load (item ``i`` goes to CG ``i % pool``)
        — the ablation baseline for what binning buys.

        ``params_list`` supplies per-item blocking (defaults to the
        scheduler's own); bins are keyed on (padded shape, params), so
        two items padding identically under *different* blocking do not
        share staging-plan affinity they cannot actually exploit.
        """
        policy = self.policy if policy is None else str(policy).lower()
        if policy not in POLICIES:
            raise ConfigError(
                f"unknown dispatch policy {policy!r} "
                f"(expected one of {', '.join(POLICIES)})"
            )
        loads = [0.0] * self.n_core_groups
        bins: dict[tuple, int] = {}
        assignments: list[int] = []
        item_seconds: list[float] = []
        for idx, (m, n, k) in enumerate(shapes):
            params = params_list[idx] if params_list is not None else self.params
            key = (params.pad_shape(m, n, k), params)
            seconds = self.modeled_item_seconds(m, n, k, params=params)
            if policy == "round_robin":
                home = idx % self.n_core_groups
                bins[key] = home
            else:
                lightest = min(
                    range(self.n_core_groups), key=loads.__getitem__
                )
                home = bins.get(key)
                if home is None or loads[home] - loads[lightest] > seconds:
                    home = lightest
                    bins[key] = home
            loads[home] += seconds
            assignments.append(home)
            item_seconds.append(seconds)
        return SchedulePlan(
            assignments=tuple(assignments),
            item_seconds=tuple(item_seconds),
            cg_seconds=tuple(loads),
            shape_bins=bins,
        )

    # -- execution -----------------------------------------------------

    def run(
        self,
        items: Sequence[GemmRequest] | Iterable[GemmRequest],
        *,
        isolate_failures: bool = True,
        parallel: bool = False,
        engine: str | None = None,
        check: bool | None = None,
        retry_policy: RetryPolicy | None = None,
        blocking: BlockingParams | Sequence[BlockingParams | None] | None = None,
    ) -> ScheduleResult:
        """Execute a batch across the pool.

        With ``isolate_failures`` (the default), an item that fails —
        after the resilience ladder, when one is configured — is
        recorded in ``result.errors``: its slot in ``outputs`` is
        ``None``, its CG's context stays usable, and the rest of the
        batch proceeds.  With ``isolate_failures=False`` the first
        unrecoverable failure propagates (the serial ``dgemm_batch``
        contract).

        With ``parallel=True`` every CG's item queue runs on its own
        worker thread from the scheduler's pool; outputs, modeled
        accounting and span-counter reconciliation are identical to
        serial mode (see the module docstring for the threading model).
        Serial mode (the default) executes items inline in input order.

        Either way, every CG's staged handles are freed when the run
        exits, so each ``MainMemory.used_bytes`` returns to its pre-run
        baseline — failed attempts and retries included.

        ``engine=``/``check=``/``retry_policy=`` override the
        scheduler's configuration *for this run only* — the hook
        :class:`~repro.api.SubmitOptions` maps onto, so a serving batch
        can carry its own engine choice and retry budget without
        rebuilding the pool.

        ``blocking=`` supplies per-item :class:`BlockingParams`: a
        single instance applies to every item; a sequence (``None``
        entries fall back to tuned/default resolution) must match the
        batch length.  Overrides are validated up front with errors
        naming the item index; an unknown ``engine=`` name raises
        :class:`~repro.errors.ConfigError` before any item runs.
        """
        items = list(items)
        if not items:
            raise ConfigError("empty batch")
        engine = check_engine(engine) if engine else self.engine
        if not self._run_guard.acquire(blocking=False):
            raise ConfigError(
                "CGScheduler.run is not reentrant: another run is already "
                "in flight on this scheduler's contexts — overlapping runs "
                "need separate CGScheduler instances"
            )
        try:
            return self._run(
                items, isolate_failures, parallel,
                engine=engine,
                check=self.check if check is None else bool(check),
                policy=retry_policy if retry_policy is not None
                else self.retry_policy,
                blocking=blocking,
            )
        finally:
            self._run_guard.release()

    def _run(
        self, items: list, isolate_failures: bool, parallel: bool,
        *, engine: str, check: bool, policy: RetryPolicy | None,
        blocking=None,
    ) -> ScheduleResult:
        shapes = validate_items(items)
        params_list = self.resolve_blocking(shapes, blocking, engine)
        plan = self.plan_shapes(shapes, params_list=params_list)
        outputs: list = [None] * len(items)
        errors: list[ItemError] = []
        reports: list[FaultReport] = []
        unplaced: list[int] = []
        counts = [0] * self.n_core_groups
        failures = [0] * self.n_core_groups
        run_seconds = [0.0] * self.n_core_groups
        quarantined: set[int] = set()
        flops = [0, 0]  # logical, padded
        results_lock = threading.Lock()
        tracer = self.tracer
        # the calling thread's innermost span (session.batch) adopts the
        # worker threads' dispatch subtrees, so the trace stays one tree.
        parent = tracer.current()
        item_traffic: list[ContextStats] = [
            ContextStats.zero() for _ in items
        ]
        tasks = [
            _ItemTask(idx, item, plan.assignments[idx],
                      plan.item_seconds[idx], engine, params_list[idx])
            for idx, item in enumerate(items)
        ]

        def finish(task: _ItemTask, outcome: tuple) -> None:
            """Record one terminal outcome (thread-safe)."""
            kind = outcome[0]
            with results_lock:
                # attributed even on failure: a failed attempt moved
                # real bytes, and bit-exact reconciliation (sum of
                # item_traffic == traffic) must account for them.
                item_traffic[task.idx] = task.traffic
                if kind == _OK:
                    _, out, report = outcome
                    outputs[task.idx] = out
                    if report is not None:
                        reports.append(report)
                    m, n, k = shapes[task.idx]
                    flops[0] += 2 * m * n * k
                    pm, pn, pk = (
                        task.params.pad_shape(m, n, k)
                        if self.pad else (m, n, k)
                    )
                    flops[1] += 2 * pm * pn * pk
                elif kind == _ERROR:
                    _, report, error = outcome
                    if report is not None:
                        reports.append(report)
                    errors.append(error)
                else:  # _UNPLACED
                    _, report, error = outcome
                    unplaced.append(task.idx)
                    reports.append(report)
                    errors.append(error)

        with contextlib.ExitStack() as stack:
            for ctx in self._contexts:
                stack.enter_context(ctx)
            starts = [ctx.stats() for ctx in self._contexts]
            args = (quarantined, run_seconds, counts, failures,
                    isolate_failures, tracer, parent, check, policy)
            if parallel and self.n_core_groups > 1 and len(items) > 1:
                self._execute_parallel(tasks, finish, args)
            else:
                for task in tasks:
                    while True:
                        outcome = self._run_item(task, *args)
                        if outcome[0] != _RESPILL:
                            break
                    finish(task, outcome)
            deltas = [
                ctx.stats().since(start)
                for ctx, start in zip(self._contexts, starts)
            ]
        per_cg = tuple(
            CGTraffic(
                core_group=g,
                items=counts[g],
                failures=failures[g],
                modeled_seconds=run_seconds[g],
                stats=deltas[g],
            )
            for g in range(self.n_core_groups)
        )
        total = ContextStats.zero()
        for delta in deltas:
            total = total.plus(delta)
        errors.sort(key=lambda e: e.index)
        reports.sort(key=lambda r: r.index)
        return ScheduleResult(
            outputs=tuple(outputs),
            errors=tuple(errors),
            per_cg=per_cg,
            plan=plan,
            traffic=total,
            flops=flops[0],
            padded_flops=flops[1],
            fault_reports=tuple(reports),
            quarantined=tuple(sorted(quarantined)),
            unplaced=tuple(sorted(unplaced)),
            item_traffic=tuple(item_traffic),
        )

    def _execute_parallel(self, tasks, finish, args) -> None:
        """Drive per-CG worker threads over per-CG item queues.

        Termination: ``pending`` counts items not yet terminal; it only
        reaches zero when nothing can be respilled anymore, at which
        point every waiting worker wakes up, finds its queue empty, and
        returns.  A worker whose CG was quarantined keeps draining its
        queue — each pop respills to a healthy CG's queue — so no item
        is ever stranded.  An exception escaping the ladder (the
        ``isolate_failures=False`` contract) aborts the run: it is
        captured, every worker drains out, and the first one re-raises
        on the calling thread.
        """
        pool = self.n_core_groups
        cond = threading.Condition()
        queues = [collections.deque() for _ in range(pool)]
        for task in tasks:
            queues[task.home].append(task)
        pending = [len(tasks)]
        aborts: list[BaseException] = []

        def worker(g: int) -> None:
            while True:
                with cond:
                    while not queues[g] and pending[0] > 0 and not aborts:
                        cond.wait()
                    if aborts or not queues[g]:
                        return
                    task = queues[g].popleft()
                try:
                    outcome = self._run_item(task, *args)
                except BaseException as exc:
                    with cond:
                        aborts.append(exc)
                        cond.notify_all()
                    return
                if outcome[0] == _RESPILL:
                    with cond:
                        queues[task.home].append(task)
                        cond.notify_all()
                    continue
                finish(task, outcome)
                with cond:
                    pending[0] -= 1
                    if pending[0] == 0:
                        cond.notify_all()

        futures = [self._worker_pool().submit(worker, g) for g in range(pool)]
        for future in futures:
            future.result()  # surfaces worker-plumbing bugs loudly
        if aborts:
            raise aborts[0]

    def _respill(
        self, idx: int, src: int, quarantined: set, run_seconds: list, tracer,
        parent,
    ) -> int | None:
        """Re-home item ``idx`` from a quarantined CG, or ``None`` if
        no healthy CG remains.  Target selection runs under the
        accounting lock so concurrent respills see a consistent load
        vector."""
        with self._account_lock:
            healthy = [
                g for g in range(self.n_core_groups) if g not in quarantined
            ]
            if not healthy:
                return None
            dst = min(healthy, key=run_seconds.__getitem__)
        with self._resil_lock:
            self.resil.respilled += 1
        # pinned to the source CG's track: each track then has a single
        # writer thread, keeping parallel traces strictly nested per track.
        with tracer.span(
            "resil.respill", cat="resil", parent=parent, track=src + 1,
            item=idx, src=src, dst=dst,
        ):
            pass
        return dst

    def _run_item(
        self,
        task: _ItemTask,
        quarantined: set,
        run_seconds: list,
        counts: list,
        failures: list,
        isolate_failures: bool,
        tracer,
        parent,
        check: bool,
        policy: RetryPolicy | None,
    ) -> tuple:
        """Advance one item through the recovery ladder on its home CG.

        Returns a terminal outcome tuple — ``("ok", output, report)``,
        ``("error", report, item_error)``, ``("unplaced", report,
        item_error)`` — or ``("respill",)`` after re-homing ``task`` to
        a healthy CG (``task.home`` already updated); the caller decides
        whether to continue inline (serial) or re-enqueue the task on
        the new home's worker (parallel).  Retries and engine fallback
        stay on the current home inside this call.

        Accounting discipline: ``counts``/``failures``/``run_seconds``
        slots are only ever touched for ``task.home`` — the calling
        worker owns that CG — while cross-CG state goes through the
        scheduler's locks.  ``parent`` is the calling thread's batch
        span, adopted by spans opened on worker threads.
        ``check``/``policy`` are this run's effective values (the
        scheduler's own, unless :meth:`run` was given overrides).
        """
        injector = self.injector

        while True:
            home = task.home
            if home in quarantined:
                new_home = self._respill(
                    task.idx, home, quarantined, run_seconds, tracer, parent
                )
                if new_home is None:
                    exc = QuarantineError(
                        f"item {task.idx}: all {self.n_core_groups} core "
                        "groups quarantined"
                    )
                    with self._resil_lock:
                        self.resil.exhausted += 1
                    if not isolate_failures:
                        raise exc
                    return _UNPLACED, task.report(False, exc), ItemError(
                        task.idx, home, type(exc).__name__, str(exc)
                    )
                task.home = new_home
                return (_RESPILL,)
            if injector is not None:
                try:
                    injector.fire("cg", cg=home)
                except FaultInjectedError as exc:
                    if task.first_site is None:
                        task.first_site = exc.site
                    with self._resil_lock:
                        self.resil.record_fault(exc.site)
                        self.resil.quarantines += 1
                    with self._account_lock:
                        quarantined.add(home)
                    task.q_here.append(home)
                    with tracer.span(
                        "resil.quarantine", cat="resil", parent=parent,
                        track=home + 1,
                        item=task.idx, cg=home,
                    ):
                        pass
                    continue
            task.attempts += 1
            run_seconds[home] += task.seconds
            # attempt-scoped traffic attribution: this worker is the
            # context's only writer, so the before/after delta is
            # exactly what this attempt moved — charged to the item on
            # both the success and the failure path.
            attempt_start = self._contexts[home].stats()
            try:
                # the dispatch span pins its subtree to track
                # ``home + 1`` (track 0 is the host), so each CG
                # renders as its own row in the Chrome trace.
                with tracer.span(
                    "cg_dispatch", cat="dispatch",
                    meter=context_meter(self._contexts[home]),
                    track=home + 1, parent=parent,
                    item=task.idx, cg=home,
                    modeled_seconds=task.seconds, engine=task.engine,
                ):
                    out = dgemm(
                        task.item.a, task.item.b, task.item.c,
                        alpha=task.item.alpha, beta=task.item.beta,
                        transa=task.item.transa, transb=task.item.transb,
                        variant=self.variant, engine=task.engine,
                        params=task.params,
                        context=self._contexts[home], pad=self.pad,
                        check=check, tracer=tracer,
                        plan_cache=self.plan_cache,
                    )
            except Exception as exc:
                task.traffic = task.traffic.plus(
                    self._contexts[home].stats().since(attempt_start)
                )
                # an aborted attempt can die mid-protocol; wipe the
                # CG's transient device state (CPE LDM/registers,
                # undelivered broadcasts) so neither a retry nor the
                # next item inherits the wreckage.
                self._contexts[home].core_group.reset_transient_state()
                if isinstance(exc, FaultInjectedError):
                    if task.first_site is None:
                        task.first_site = exc.site
                    with self._resil_lock:
                        self.resil.record_fault(exc.site)
                    with tracer.span(
                        "resil.fault", cat="resil", parent=parent,
                        track=home + 1,
                        item=task.idx, cg=home, site=exc.site,
                    ):
                        pass
                if policy is not None and policy.should_retry(exc, task.retries):
                    task.retries += 1
                    pause = policy.backoff_for(task.retries)
                    task.backoff += pause
                    run_seconds[home] += pause
                    with self._resil_lock:
                        self.resil.retries += 1
                        self.resil.backoff_seconds += pause
                    with tracer.span(
                        "resil.retry", cat="resil", parent=parent,
                        track=home + 1,
                        item=task.idx, cg=home,
                        retry=task.retries, backoff_seconds=pause,
                    ):
                        pass
                    continue
                if (
                    self.fallback_engine is not None
                    and task.fallback_used is None
                    and task.engine != self.fallback_engine
                ):
                    task.fallback_used = self.fallback_engine
                    task.engine = self.fallback_engine
                    with self._resil_lock:
                        self.resil.fallbacks += 1
                    with tracer.span(
                        "resil.fallback", cat="resil", parent=parent,
                        track=home + 1,
                        item=task.idx, cg=home, engine=task.engine,
                    ):
                        pass
                    continue
                # ladder exhausted (or no ladder configured)
                counts[home] += 1
                failures[home] += 1
                if task.disturbed:
                    with self._resil_lock:
                        self.resil.exhausted += 1
                if not isolate_failures:
                    raise
                return _ERROR, (
                    task.report(False, exc) if task.disturbed else None
                ), ItemError(task.idx, home, type(exc).__name__, str(exc))
            task.traffic = task.traffic.plus(
                self._contexts[home].stats().since(attempt_start)
            )
            counts[home] += 1
            if not task.disturbed:
                return _OK, out, None
            with self._resil_lock:
                self.resil.recovered += 1
            return _OK, out, task.report(True)

    def metrics_registry(self) -> MetricsRegistry:
        """The scheduler's counters as one sampler-ready registry.

        Namespaces: every pool CG's device counters (``cg0.dma.*``,
        ``cg0.regcomm.*``, ``cg0.memory.*``, ...), the NoC's
        (``noc.*``), the pool-wide plan cache (``plan.cache.*``) and
        the recovery ladder (``resil.*``).  Attach a
        :class:`~repro.obs.series.MetricsSampler` to stream them as
        time series; every source read here is either a plain counter
        read under the GIL or an internally lock-held snapshot, so
        sampling is safe while a parallel run mutates the counters.
        """
        registry = MetricsRegistry.for_processor(self.processor)
        registry.register(
            "plan.cache", lambda: self.plan_cache.stats().as_dict()
        )
        registry.register("resil", self.resil_stats)
        return registry

    def resil_stats(self) -> dict:
        """Cumulative resilience counters (the ``resil.*`` namespace).

        Merges the scheduler's :class:`~repro.resil.RecoveryStats` with
        the attached injector's
        :class:`~repro.resil.InjectionStats` (under ``"injection"``),
        ready for :meth:`repro.obs.MetricsRegistry.register` as a dict
        source.

        Both reads are lock-held snapshots, so metering resilience
        counters while a parallel run mutates them is safe.
        """
        with self._resil_lock:
            data = self.resil.as_dict()
        if self.injector is not None:
            data["injection"] = self.injector.stats_snapshot()
        return data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CGScheduler({self.variant}, engine={self.engine}, "
            f"pool={self.n_core_groups} CGs, pad={self.pad})"
        )

"""The one-true entry point: a session that owns device, context, pool.

The layers below are deliberately explicit — ``dgemm`` takes a
``core_group``/``context``, ``CGScheduler`` wants a pool — and that
explicitness is the right *low-level* surface.  But a caller who just
wants the paper's DGEMM served fast should not have to thread devices
and contexts by hand.
:class:`Session` is that caller's API:

    with Session(n_core_groups=4) as s:
        y = s.dgemm(a, b)                # scalar call, staging kept warm
        r = s.batch(items)               # dispatched across the CG pool
        print(s.stats())                 # cumulative session accounting

One session owns one :class:`~repro.multi.processor.SW26010Processor`,
a long-lived scalar :class:`~repro.core.context.ExecutionContext` on
CG 0 (so repeated same-shape ``dgemm`` calls hit the staging-plan
cache), and a :class:`~repro.multi.scheduler.CGScheduler` over the
requested pool for batches.  Closing the session (context-manager exit
or :meth:`close`) frees every staged handle, returning each CG's
``MainMemory.used_bytes`` to its pre-session baseline.

Sessions accumulate accounting *across* calls: :meth:`stats` reports
calls, items, failures, flops and the summed per-context traffic since
the session opened.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.api import DEFAULT_SUBMIT_OPTIONS, SubmitOptions, as_gemm_request
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.api import dgemm as _dgemm
from repro.core.context import ContextStats, ExecutionContext
from repro.core.engine import DEFAULT_ENGINE, check_engine
from repro.core.params import BlockingParams
from repro.core.variants import get_variant
from repro.multi.processor import SW26010Processor
from repro.multi.scheduler import CGScheduler, ScheduleResult
from repro.obs.tracer import ensure_tracer
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.utils.stats import StatsProtocol

__all__ = ["Session", "SessionStats"]


@dataclass(frozen=True)
class SessionStats(StatsProtocol):
    """Cumulative accounting for one session.

    Carries the uniform :class:`~repro.utils.stats.StatsProtocol`
    surface (``as_dict``/``delta``/``plus``/``zero``), with the nested
    ``traffic`` record combined recursively — two sessions' stats sum
    with one ``plus``, and a before/after pair diffs with one ``delta``.
    """

    #: scalar ``session.dgemm`` calls.
    calls: int
    #: ``session.batch`` invocations.
    batches: int
    #: batch items executed (successes + failures).
    items: int
    #: batch items that raised (isolated or not) and scalar calls
    #: that raised.
    failures: int
    #: logical flops of successful work, ``2*m*n*k`` per multiply.
    flops: int
    #: flops the device executed after padding.
    padded_flops: int
    #: summed staging/DMA/regcomm traffic across every context used.
    traffic: ContextStats


class Session:
    """A stateful facade over device, context and scheduler.

    Parameters mirror :func:`repro.core.api.dgemm` where they overlap;
    ``pad`` defaults to True (a session exists to serve arbitrary
    shapes) and ``n_core_groups`` sizes the batch-dispatch pool (scalar
    calls always run on CG 0).  Usable as a context manager or via an
    explicit :meth:`close`; a closed session raises on use.

    ``tracer=`` (a :class:`repro.obs.SpanTracer`) turns on phase-level
    telemetry: ``session.batch`` → ``cg_dispatch`` → ``dgemm`` →
    ``stage_*``/``strip_mult``/``store_C`` spans with counter deltas,
    exportable as a Chrome trace via :mod:`repro.obs.export`.  The
    default ``None`` is the no-op tracer (<=2% overhead budget on the
    untraced path).

    A failed batch item is isolated as an
    :class:`~repro.multi.scheduler.ItemError`; a failed scalar
    :meth:`dgemm` call raises to the caller.  Both count in
    :meth:`stats`, with the traffic they moved before failing.
    """

    def __init__(
        self,
        *,
        variant: str = "SCHED",
        engine: str | None = None,
        params: BlockingParams | None = None,
        spec: SW26010Spec = DEFAULT_SPEC,
        processor: SW26010Processor | None = None,
        n_core_groups: int | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        pad: bool = True,
        check: bool = False,
        tracer=None,
    ) -> None:
        self.tracer = ensure_tracer(tracer)
        self.variant = str(variant).upper()
        #: the engine scalar calls and batch dispatch both run.
        self.engine = check_engine(engine or DEFAULT_ENGINE)
        #: the default blocking: the serving tier's coalescing key.
        #: GEMMs resolve theirs per shape (see dgemm).
        self.params = params or get_variant(self.variant).default_params()
        self.pad = pad
        self.check = check
        self.processor = processor or SW26010Processor(spec)
        self.scheduler = CGScheduler(
            self.processor,
            n_core_groups=n_core_groups,
            variant=self.variant,
            engine=self.engine,
            params=params,
            calibration=calibration,
            pad=pad,
            check=check,
            tracer=self.tracer,
        )
        #: the scheduler's pool-wide plan cache, shared by scalar calls
        #: too — one compiled plan serves both entry points.
        self.plan_cache = self.scheduler.plan_cache
        self._ctx = ExecutionContext(self.processor.cg(0))
        self._ctx_open = False
        self._closed = False
        #: serializes close() against itself — double-close from two
        #: threads (server shutdown racing a with-block exit) must tear
        #: down exactly once; scheduler.close() additionally waits out
        #: any in-flight batch on the scheduler's own run guard.
        self._close_lock = threading.Lock()
        #: guards the cumulative accounting fold (concurrent dgemm()
        #: and batch() callers each fold their own deltas).
        self._stats_lock = threading.Lock()
        self._calls = 0
        self._batches = 0
        self._items = 0
        self._failures = 0
        self._flops = 0
        self._padded_flops = 0
        self._traffic = ContextStats.zero()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Session":
        self._require_open()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Free every staged handle this session holds.

        Idempotent, and safe to call concurrently — with another
        ``close()`` or with an in-flight :meth:`batch`: the first
        caller wins the close lock and marks the session closed;
        :meth:`CGScheduler.close
        <repro.multi.scheduler.CGScheduler.close>` then waits for any
        in-flight run to drain before releasing the worker pool, so
        live workers never lose their contexts mid-item.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        # scheduler first: its close() blocks on the run guard, so an
        # in-flight batch finishes before any teardown proceeds (and it
        # drains the shared plan cache on the way out).
        self.scheduler.close()
        if self._ctx_open:
            self._ctx.__exit__(None, None, None)
            self._ctx_open = False
        else:
            self._ctx.close()

    @property
    def n_core_groups(self) -> int:
        """Size of the batch-dispatch pool."""
        return self.scheduler.n_core_groups

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigError("this Session is closed")

    def _scalar_context(self) -> ExecutionContext:
        # entered lazily and kept open for the session's lifetime, so
        # repeated same-shape calls restage in place instead of
        # reallocating; close() frees everything.
        if not self._ctx_open:
            self._ctx.__enter__()
            self._ctx_open = True
        return self._ctx

    # -- entry points --------------------------------------------------

    def dgemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: str = "N",
        transb: str = "N",
        engine: str | None = None,
        pad: bool | None = None,
        check: bool | None = None,
    ) -> np.ndarray:
        """One multiply on CG 0, staging kept warm across calls.

        ``engine=`` overrides the session's engine for this call.

        Blocking resolves exactly as for a batch item (see
        :meth:`CGScheduler.resolve_blocking
        <repro.multi.scheduler.CGScheduler.resolve_blocking>`): the
        ``params=`` the session was built with, else the blocking the
        estimator rates fastest on this call's padded shape (the
        variant's paper blocking on the paper's shapes).
        """
        self._require_open()
        m, n, k = as_gemm_request(
            a, b, c, alpha=alpha, beta=beta, transa=transa, transb=transb
        ).validate()
        (params,) = self.scheduler.resolve_blocking([(m, n, k)])
        pad = self.pad if pad is None else pad
        ctx = self._scalar_context()
        before = ctx.stats()
        try:
            out = _dgemm(
                a, b, c,
                alpha=alpha, beta=beta, transa=transa, transb=transb,
                variant=self.variant,
                engine=engine or self.engine,
                params=params, context=ctx,
                pad=pad,
                check=self.check if check is None else check,
                tracer=self.tracer,
                plan_cache=self.plan_cache,
            )
        except Exception:
            # the traffic a failed call moved is still the session's
            with self._stats_lock:
                self._traffic = self._traffic.plus(ctx.stats().since(before))
                self._failures += 1
            raise
        pm, pn, pk = params.pad_shape(m, n, k) if pad else (m, n, k)
        with self._stats_lock:
            self._traffic = self._traffic.plus(ctx.stats().since(before))
            self._calls += 1
            self._flops += 2 * m * n * k
            self._padded_flops += 2 * pm * pn * pk
        return out

    def batch(
        self,
        items,
        *,
        isolate_failures: bool = True,
        parallel: bool = False,
        options: SubmitOptions | None = None,
        blocking: (
            BlockingParams | list[BlockingParams | None] | None
        ) = None,
    ) -> ScheduleResult:
        """Dispatch a batch across the session's CG pool.

        Returns the scheduler's
        :class:`~repro.multi.scheduler.ScheduleResult`.  By default
        item failures are isolated — inspect ``result.errors``; pass
        ``isolate_failures=False`` to raise the first failure, as a
        loop of ``dgemm`` calls would.  Either way :meth:`stats` counts
        the failure and the traffic of every item that ran.

        ``parallel=True`` runs each CG's queue on its own worker thread,
        pinned to its own CPU of the calling thread's mask (see
        :meth:`CGScheduler.run <repro.multi.scheduler.CGScheduler.run>`;
        a pinned worker cannot leave a CPU another process is using);
        outputs and accounting are bit-identical to the default serial
        dispatch.

        ``options=`` (a :class:`~repro.api.SubmitOptions`) applies
        per-batch execution overrides: engine and result checking.  The
        serving tier coalesces same-option requests so every dispatched
        batch has one uniform ``options``.

        ``blocking=`` passes per-item :class:`BlockingParams` overrides
        down the dispatch path: one instance for the whole batch, or a
        sequence matching the batch length.  An item without one runs
        the session's ``params=`` if it was built with them, else the
        estimator's pick for its shape; ``result.blocking_sources``
        says which.  Bad overrides fail up front with errors naming the
        item index.
        """
        self._require_open()
        items = list(items)
        opts = options or DEFAULT_SUBMIT_OPTIONS
        with self._stats_lock:
            batch_no = self._batches
            self._batches += 1
        try:
            with self.tracer.span(
                "session.batch", cat="session", items=len(items),
                batch=batch_no,
            ):
                result = self.scheduler.run(
                    items,
                    isolate_failures=isolate_failures,
                    parallel=parallel,
                    engine=opts.engine,
                    check=opts.check,
                    blocking=blocking,
                )
        except Exception as exc:
            # an aborted run still moved traffic (validation errors
            # raise before anything runs and carry no result)
            partial = getattr(exc, "schedule_result", None)
            if partial is not None:
                self._fold(partial)
            raise
        self._fold(result)
        return result

    def _fold(self, result: ScheduleResult) -> None:
        with self._stats_lock:
            self._items += sum(cg.items for cg in result.per_cg)
            self._failures += len(result.errors)
            self._flops += result.flops
            self._padded_flops += result.padded_flops
            self._traffic = self._traffic.plus(result.traffic)

    def resil_stats(self) -> dict:
        """Always ``{"retries": 0, "fallbacks": 0}``: nothing retries.

        Kept only because the external benchmark harness
        (``perfbench/``) still reads these two keys; it goes once that
        harness stops reading them.
        """
        return {"retries": 0, "fallbacks": 0}

    def metrics_registry(self):
        """This session's counters as one sampler-ready registry.

        The scheduler's registry (per-CG device counters, NoC, plan
        cache) plus the cumulative session accounting
        under ``session.*`` (``session.traffic.dma_bytes``, ...).
        Attach a :class:`~repro.obs.series.MetricsSampler` to stream
        the whole address space as time series; because
        :meth:`stats` reads are lock-held and registry snapshots
        telescope, summing sampler-window deltas of the
        ``session.traffic.*`` counters over a run reconciles
        bit-exactly with :meth:`stats` ``.traffic``.
        """
        registry = self.scheduler.metrics_registry()
        registry.register("session", lambda: self.stats().as_dict())
        return registry

    def stats(self) -> SessionStats:
        """Cumulative accounting since the session opened."""
        # the scalar context may have moved since the last snapshot
        # (it is long-lived, unlike the scheduler's per-run scopes);
        # fold nothing here — dgemm() folds its own deltas eagerly.
        with self._stats_lock:
            return SessionStats(
                calls=self._calls,
                batches=self._batches,
                items=self._items,
                failures=self._failures,
                flops=self._flops,
                padded_flops=self._padded_flops,
                traffic=self._traffic.snapshot(),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"Session({self.variant}, pool={self.n_core_groups} CGs, "
            f"{state}, calls={self._calls}, batches={self._batches})"
        )

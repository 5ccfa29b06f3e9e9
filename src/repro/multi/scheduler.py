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
  an :class:`ItemError`, its CG's transient device state is reset and
  its context stays usable; the other items and CGs are unaffected;
- **aggregated accounting** — :class:`ScheduleResult` reports per-CG
  traffic deltas, the modeled makespan vs. the serial single-CG time,
  and the load-balance efficiency.

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
rests on a sharding discipline rather than a lock: each CG's queue is
fixed at plan time and walked only by that CG's worker, so every
``ExecutionContext`` has a single writer (span-metered context deltas
stay exact), and every item's output, error and traffic land in that
item's own result slot.

Serial mode remains the default and runs the same per-item step, just
driven by an inline loop in input order instead of worker queues, so
its outputs and accounting are bit-identical to a parallel run's.
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence


from repro.errors import ConfigError, UnsupportedShapeError
from repro.api import GemmRequest
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.api import dgemm
from repro.core.context import ContextStats, ExecutionContext
from repro.core.engine import DEFAULT_ENGINE, check_engine
from repro.core.engine.plans import PlanCache
from repro.core.params import BlockingParams
from repro.core.variants import get_variant
from repro.multi.processor import SW26010Processor
from repro.obs.registry import MetricsRegistry, context_meter
from repro.obs.tracer import ensure_tracer
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.estimator import Estimator

__all__ = [
    "CGScheduler",
    "CGTraffic",
    "ItemError",
    "SchedulePlan",
    "ScheduleResult",
    "validate_items",
]


def validate_items(
    items: Sequence[GemmRequest],
) -> list[tuple[int, int, int]]:
    """Validate every item up front; return the effective (m, n, k) shapes.

    The returned shapes account for ``transa``/``transb``.  Any
    mis-shaped item raises :class:`UnsupportedShapeError` (or
    :class:`ConfigError` for a non-item) naming the item's index, so a
    bad batch fails before a single operand is staged.  Validation
    itself lives on :meth:`repro.api.GemmRequest.validate`; this
    wrapper only contributes the index prefix.
    """
    shapes: list[tuple[int, int, int]] = []
    for idx, item in enumerate(items):
        if not isinstance(item, GemmRequest):
            raise ConfigError(
                f"batch item {idx} is {type(item).__name__}, expected "
                "GemmRequest"
            )
        try:
            shapes.append(item.validate())
        except UnsupportedShapeError as exc:
            raise UnsupportedShapeError(f"batch item {idx}: {exc}") from None
    return shapes


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
    #: modeled seconds of the work dispatched to this CG.
    modeled_seconds: float
    #: staging/DMA/regcomm deltas of this CG's context over the run.
    stats: ContextStats


@dataclass(frozen=True)
class ScheduleResult:
    """Aggregate of a pool run: outputs, failures, per-CG traffic, plan.

    ``traffic`` is the :class:`ContextStats` sum over every CG's
    context delta (one ``plus`` fold, no ad-hoc per-field arithmetic);
    ``dma_bytes``/``dma_transactions``/``regcomm_bytes`` read it.
    ``flops`` counts the logical ``2*m*n*k`` of successfully executed
    items only, ``padded_flops`` the work of their padded block grid.
    Timing properties are the plan's: every item runs exactly once, on
    the CG the plan gave it.
    """

    #: per-item results in input order; ``None`` where the item failed.
    outputs: tuple
    errors: tuple[ItemError, ...]
    per_cg: tuple[CGTraffic, ...]
    plan: SchedulePlan
    #: summed staging/DMA/regcomm deltas across the pool's contexts.
    traffic: ContextStats
    flops: int
    padded_flops: int
    #: per-item staging/DMA/regcomm deltas, in input order (failed
    #: items included).  Exact, not approximate: each CG's context is
    #: mutated only by the worker running an item there, so
    #: item-scoped snapshots partition the CG's delta — summing
    #: ``item_traffic`` reproduces ``traffic`` bit-exactly.
    item_traffic: tuple[ContextStats, ...]

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
    def makespan_seconds(self) -> float:
        """Modeled makespan: the most-loaded CG's total."""
        return self.plan.makespan_seconds

    @property
    def serial_seconds(self) -> float:
        return self.plan.serial_seconds

    @property
    def modeled_speedup(self) -> float:
        return self.plan.modeled_speedup

    @property
    def load_balance_efficiency(self) -> float:
        """``speedup / n_cgs`` — 1.0 is a perfect split."""
        return self.plan.load_balance_efficiency

    @property
    def padding_overhead(self) -> float:
        """``padded_flops / flops`` — 1.0 means no padding waste."""
        return self.padded_flops / self.flops if self.flops else 1.0

    def __len__(self) -> int:
        return len(self.outputs)


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
        engine: str = DEFAULT_ENGINE,
        params: BlockingParams | None = None,
        spec: SW26010Spec = DEFAULT_SPEC,
        calibration: Calibration = DEFAULT_CALIBRATION,
        pad: bool = True,
        check: bool = False,
        tracer=None,
        plan_cache: PlanCache | None = None,
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
        self.params = params or get_variant(self.variant).default_params()
        self.pad = pad
        self.check = check
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
        overrides pass their own so the model prices the blocking that
        will actually run.  A zero-size item costs 0 s: ``dgemm``
        returns before staging it.
        """
        if 0 in (m, n, k):
            return 0.0
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
    ) -> list[BlockingParams]:
        """Effective per-item blocking, validated (errors name the item).

        Resolution order per item: an explicit ``blocking=`` override
        wins; otherwise the scheduler's ``params`` apply (the variant's
        paper blocking unless the caller passed its own).  Every resolved
        choice is checked against the LDM budget and the variant's
        buffering regime up front, so a bad override fails before any
        item executes, naming its index as :func:`validate_items` does.
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
        resolved: list[BlockingParams] = []
        for idx, override in enumerate(overrides):
            if override is not None and not isinstance(override, BlockingParams):
                raise ConfigError(
                    f"batch item {idx}: blocking override must be "
                    f"BlockingParams, got {type(override).__name__}"
                )
            params = override or self.params
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
    ) -> SchedulePlan:
        """Plan a batch given only its (m, n, k) shapes.

        Dispatch rule, per item in stream order: a shape already binned
        goes to its bin's CG — unless that CG is ahead of the
        least-loaded one by more than this item's own modeled cost, in
        which case the bin spills (and re-homes) to the least-loaded
        CG.  A new shape always starts on the least-loaded CG.
        Affinity keeps the staging-plan cache hot; the spill bound
        keeps a single dominant shape from serializing the whole pool.

        ``params_list`` supplies per-item blocking (defaults to the
        scheduler's own); bins are keyed on (padded shape, params), so
        two items padding identically under *different* blocking do not
        share staging-plan affinity they cannot actually exploit.
        """
        loads = [0.0] * self.n_core_groups
        bins: dict[tuple, int] = {}
        assignments: list[int] = []
        item_seconds: list[float] = []
        for idx, (m, n, k) in enumerate(shapes):
            params = params_list[idx] if params_list is not None else self.params
            key = (params.pad_shape(m, n, k), params)
            seconds = self.modeled_item_seconds(m, n, k, params=params)
            lightest = min(range(self.n_core_groups), key=loads.__getitem__)
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
        blocking: BlockingParams | Sequence[BlockingParams | None] | None = None,
    ) -> ScheduleResult:
        """Execute a batch across the pool.

        With ``isolate_failures`` (the default), an item that fails is
        recorded in ``result.errors``: its slot in ``outputs`` is
        ``None``, its CG's transient device state is reset and its
        context stays usable, and the rest of the batch proceeds.  With
        ``isolate_failures=False`` the first failure propagates.

        Every item is validated before anything is staged
        (:func:`validate_items`): a malformed item raises, naming its
        index, whatever ``isolate_failures`` says.

        With ``parallel=True`` every CG's item queue runs on its own
        worker thread from the scheduler's pool; outputs, modeled
        accounting and span-counter reconciliation are identical to
        serial mode (see the module docstring for the threading model).
        Serial mode (the default) executes items inline in input order:
        with ``n_core_groups=1`` and ``isolate_failures=False`` that is
        a loop of :func:`~repro.core.api.dgemm` calls on one staging
        context, each raising as ``dgemm`` would.

        Either way, every CG's staged handles are freed when the run
        exits, so each ``MainMemory.used_bytes`` returns to its pre-run
        baseline — failed items included.

        ``engine=``/``check=`` override the scheduler's configuration
        *for this run only* — the hook :class:`~repro.api.SubmitOptions`
        maps onto, so a serving batch can carry its own engine choice
        without rebuilding the pool.

        ``blocking=`` supplies per-item :class:`BlockingParams`: a
        single instance applies to every item; a sequence (``None``
        entries fall back to the scheduler's ``params``) must match the
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
                blocking=blocking,
            )
        finally:
            self._run_guard.release()

    def _run(
        self, items: list, isolate_failures: bool, parallel: bool,
        *, engine: str, check: bool, blocking=None,
    ) -> ScheduleResult:
        shapes = validate_items(items)
        params_list = self.resolve_blocking(shapes, blocking)
        plan = self.plan_shapes(shapes, params_list=params_list)
        # one slot per item, each written only by the worker running it
        outputs: list = [None] * len(items)
        errors: list[ItemError | None] = [None] * len(items)
        item_traffic: list[ContextStats] = [ContextStats.zero()] * len(items)
        tracer = self.tracer
        # the calling thread's innermost span (session.batch) adopts the
        # worker threads' dispatch subtrees, so the trace stays one tree.
        parent = tracer.current()

        def run_item(idx: int) -> None:
            item, home = items[idx], plan.assignments[idx]
            ctx = self._contexts[home]
            # item-scoped traffic attribution: the running worker is the
            # context's only writer, so the before/after delta is
            # exactly what this item moved, on success or failure.
            start = ctx.stats()
            try:
                # the dispatch span pins its subtree to track
                # ``home + 1`` (track 0 is the host), so each CG
                # renders as its own row in the Chrome trace.
                with tracer.span(
                    "cg_dispatch", cat="dispatch",
                    meter=context_meter(ctx),
                    track=home + 1, parent=parent,
                    item=idx, cg=home,
                    modeled_seconds=plan.item_seconds[idx], engine=engine,
                ):
                    outputs[idx] = dgemm(
                        item.a, item.b, item.c,
                        alpha=item.alpha, beta=item.beta,
                        transa=item.transa, transb=item.transb,
                        variant=self.variant, engine=engine,
                        params=params_list[idx],
                        context=ctx, pad=self.pad,
                        check=check, tracer=tracer,
                        plan_cache=self.plan_cache,
                    )
            except Exception as exc:
                # a failed item can die mid-protocol; wipe the CG's
                # transient device state (CPE LDM/registers, undelivered
                # broadcasts) so the next item does not inherit it.
                ctx.core_group.reset_transient_state()
                if not isolate_failures:
                    raise
                errors[idx] = ItemError(idx, home, type(exc).__name__, str(exc))
            item_traffic[idx] = ctx.stats().since(start)

        with contextlib.ExitStack() as stack:
            for ctx in self._contexts:
                stack.enter_context(ctx)
            starts = [ctx.stats() for ctx in self._contexts]
            if parallel and self.n_core_groups > 1 and len(items) > 1:
                queues: list[list[int]] = [[] for _ in self._contexts]
                for idx, home in enumerate(plan.assignments):
                    queues[home].append(idx)
                self._run_queues(queues, run_item)
            else:
                for idx in range(len(items)):
                    run_item(idx)
            deltas = [
                ctx.stats().since(start)
                for ctx, start in zip(self._contexts, starts)
            ]
        failed = [err for err in errors if err is not None]
        per_cg = tuple(
            CGTraffic(
                core_group=g,
                items=plan.assignments.count(g),
                failures=sum(err.core_group == g for err in failed),
                modeled_seconds=plan.cg_seconds[g],
                stats=deltas[g],
            )
            for g in range(self.n_core_groups)
        )
        total = ContextStats.zero()
        for delta in deltas:
            total = total.plus(delta)
        flops = padded_flops = 0
        for idx, (m, n, k) in enumerate(shapes):
            if errors[idx] is None:
                pm, pn, pk = (
                    params_list[idx].pad_shape(m, n, k)
                    if self.pad else (m, n, k)
                )
                flops += 2 * m * n * k
                padded_flops += 2 * pm * pn * pk
        return ScheduleResult(
            outputs=tuple(outputs),
            errors=tuple(failed),
            per_cg=per_cg,
            plan=plan,
            traffic=total,
            flops=flops,
            padded_flops=padded_flops,
            item_traffic=tuple(item_traffic),
        )

    def _run_queues(self, queues: list[list[int]], run_item) -> None:
        """Walk each CG's fixed item queue on that CG's worker thread.

        An exception escaping ``run_item`` (the
        ``isolate_failures=False`` contract) aborts the run: every
        worker stops before its next item, and the first failure
        re-raises on the calling thread.
        """
        aborts: list[BaseException] = []

        def worker(queue: list[int]) -> None:
            for idx in queue:
                if aborts:
                    return
                try:
                    run_item(idx)
                except BaseException as exc:
                    aborts.append(exc)
                    return

        pool = self._worker_pool()
        futures = [pool.submit(worker, queue) for queue in queues if queue]
        for future in futures:
            future.result()  # surfaces worker-plumbing bugs loudly
        if aborts:
            raise aborts[0]

    def metrics_registry(self) -> MetricsRegistry:
        """The scheduler's counters as one sampler-ready registry.

        Namespaces: every pool CG's device counters (``cg0.dma.*``,
        ``cg0.regcomm.*``, ``cg0.memory.*``, ...), the NoC's
        (``noc.*``) and the pool-wide plan cache (``plan.cache.*``).
        Attach a :class:`~repro.obs.series.MetricsSampler` to stream
        them as time series; every source read here is either a plain counter
        read under the GIL or an internally lock-held snapshot, so
        sampling is safe while a parallel run mutates the counters.
        """
        registry = MetricsRegistry.for_processor(self.processor)
        registry.register(
            "plan.cache", lambda: self.plan_cache.stats().as_dict()
        )
        return registry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CGScheduler({self.variant}, engine={self.engine}, "
            f"pool={self.n_core_groups} CGs, pad={self.pad})"
        )

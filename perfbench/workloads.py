"""The three seeded workloads behind ``perfbench/run.py``.

Each workload drives the program only through a public entry point —
``Session.dgemm``, ``Session.batch`` or ``ReproServer.submit`` — on
``Session(n_core_groups=2)``, runs a fixed number of ops made from the
seed, checks every output, and returns an :class:`Outcome`: the
end-to-end metrics of an untraced run, or the per-layer metrics of a
traced one.  ``perfbench/workloads.json`` records why each workload
exists and which layers it stresses and bypasses.

Time is reported as a *tax*, a ratio in which drift in host speed
cancels.  In the closed loops it is program wall time over the time
single-threaded numpy takes for the same result on the same inputs,
timed just before and just after the program call.  In the open loop
it is a request's latency over the coalescing window plus the numpy
time of its shape: every serving-path cost stays in the numerator.
Set-up time is scaled to a reference host speed by a numpy product
timed on each side of every cold start.
"""

from __future__ import annotations

import asyncio
import functools
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ledger
from repro.api import GemmRequest, apply_trans, as_request, format_bin
from repro.core.session import Session
from repro.obs.export import write_chrome_trace
from repro.obs.tracer import SpanTracer
from repro.serve.config import ServeConfig
from repro.serve.server import ReproServer

#: the pool size every workload runs on (one CG per host core).
N_CORE_GROUPS = 2
#: seconds the host-speed reference — one single-threaded numpy product
#: of two 768x768 matrices — takes on the 2-core reference host (median
#: of 60 products in each of three fresh processes: 12.5-13.4 ms).
#: ``setup_s`` is each cold start scaled by this over the reference
#: timed on each side of it: set-up seconds at the reference host's
#: speed, so that host-speed drift between processes largely cancels.
REFERENCE_PRODUCT_S = 0.013
#: output tolerance of the closed loops (the ``BENCH_engine.json`` one).
RTOL, ATOL = 1e-12, 1e-9
#: relative tolerance of the Freivalds check on served responses: a
#: correct product errs by at most ``k * eps * |A| |B| |x|`` (about 1e-13
#: relative at k=768), so 1e-11 leaves room for rounding and nothing else.
FREIVALDS_RTOL = 1e-11


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    #: metric name -> (value, unit).
    metrics: dict[str, tuple[float, str]]
    #: facts printed next to the result: op and sample counts, backlog.
    record: dict[str, Any] = field(default_factory=dict)


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _window_pct(values, times, q: float, window: float) -> float:
    """Median over ``window``-second slices of each slice's ``q``-th percentile.

    A burst of host noise spoils the slices it touches, not the figure.
    """
    slices: dict[int, list] = {}
    for value, t in zip(values, times):
        slices.setdefault(int(t // window), []).append(value)
    return _median([_pct(s, q) for s in slices.values()])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _median_time(fn: Callable[[], Any], reps: int) -> float:
    return _median([_timed(fn)[1] for _ in range(reps)])


@functools.cache
def _reference_operand() -> np.ndarray:
    return np.random.default_rng(0).standard_normal((768, 768))


def _reference_seconds() -> float:
    a = _reference_operand()
    return _timed(lambda: a @ a)[1]


def _at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by the reference product timed ``before`` and ``after``."""
    return seconds * REFERENCE_PRODUCT_S / ((before + after) / 2)


def _normalize(requests, params) -> None:
    """The request funnel every entry point runs: coerce, validate, bin."""
    for request in requests:
        request = as_request(request)
        request.validate()
        format_bin(request.shape_bin(params))


def _resolve(session: Session, shapes) -> None:
    """Blocking resolution and dispatch planning, as a batch does them."""
    scheduler = session.scheduler
    scheduler.plan_shapes(shapes, params_list=scheduler.resolve_blocking(shapes))


# -- closed loops -------------------------------------------------------


@dataclass
class _Op:
    wall: float
    floor: float
    ok: bool
    modeled: float = 0.0


class ScalarSquare:
    """HPL trailing update ``C <- C - A @ B`` at 768^3 through ``Session.dgemm``."""

    name = "scalar-square"
    size = 768

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        shape = (self.size, self.size)
        self.a, self.b, self.c = (
            np.asfortranarray(self.rng.standard_normal(shape)) for _ in range(3)
        )
        self.flops = 2 * self.size ** 3

    def refresh(self, i: int) -> None:
        # one fresh column per operand is enough to change the content.
        j = i % self.size
        for matrix in (self.a, self.b, self.c):
            matrix[:, j] = self.rng.standard_normal(self.size)

    def call(self, session: Session) -> np.ndarray:
        return session.dgemm(self.a, self.b, self.c, alpha=-1.0, beta=1.0)

    def floor(self) -> np.ndarray:
        return self.c - self.a @ self.b

    def check(self, out, ref) -> bool:
        return out.shape == ref.shape and bool(np.allclose(out, ref, rtol=RTOL, atol=ATOL))

    def requests(self) -> list[GemmRequest]:
        return [GemmRequest(self.a, self.b, self.c, alpha=-1.0, beta=1.0)]

    #: scalar calls bypass the scheduler: no batch to resolve and plan.
    batch_shapes: tuple[tuple[int, int, int], ...] = ()

    def modeled_seconds(self, session: Session, out) -> float:
        n = self.size
        return session.scheduler.modeled_item_seconds(n, n, n)


class BatchSharedA:
    """One fixed weight ``A`` (768x768) times 8 ``B`` (768x256) per batch."""

    name = "batch-shared-a"
    k = 768
    n = 256
    items = 8

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.a = np.asfortranarray(self.rng.standard_normal((self.k, self.k)))
        self.bs = [
            np.asfortranarray(self.rng.standard_normal((self.k, self.n)))
            for _ in range(self.items)
        ]
        self.flops = self.items * 2 * self.k * self.k * self.n

    def refresh(self, i: int) -> None:
        j = i % self.n
        for b in self.bs:
            b[:, j] = self.rng.standard_normal(self.k)

    def call(self, session: Session):
        return session.batch(self.requests(), parallel=True)

    def floor(self) -> list[np.ndarray]:
        return [self.a @ b for b in self.bs]

    def check(self, result, refs) -> bool:
        return not result.errors and all(
            out is not None and out.shape == ref.shape
            and bool(np.allclose(out, ref, rtol=RTOL, atol=ATOL))
            for out, ref in zip(result.outputs, refs)
        )

    def requests(self) -> list[GemmRequest]:
        return [GemmRequest(self.a, b) for b in self.bs]

    batch_shapes = ((k, n, k),) * items

    def modeled_seconds(self, session: Session, result) -> float:
        return result.makespan_seconds


def _run_op(program: Callable[[], Any], floor: Callable[[], Any], check) -> tuple[_Op, Any]:
    """Time the program between two floors; the op's floor is their mean.

    Running the floor both first and last makes the pair symmetric, so
    host speed drifting during the op moves numerator and denominator
    alike.
    """

    def attempt():
        try:
            return program()
        except Exception as exc:  # a failing op is counted, the run goes on
            return exc

    _, before = _timed(floor)
    out, wall = _timed(attempt)
    ref, after = _timed(floor)
    ok = not isinstance(out, Exception) and check(out, ref)
    return _Op(wall=wall, floor=(before + after) / 2, ok=ok), out


def _cold_start(load) -> tuple[float, float, bool]:
    """Seconds from a fresh ``Session`` to its first result, the same at
    reference host speed, and whether the result was right."""
    before = _reference_seconds()
    start = time.perf_counter()
    session = Session(n_core_groups=N_CORE_GROUPS)
    try:
        out = load.call(session)
        seconds = time.perf_counter() - start
        ok = load.check(out, load.floor())
    finally:
        session.close()
    return seconds, _at_reference_speed(seconds, before, _reference_seconds()), ok


def run_closed(
    load, *, n_ops: int, cold_starts: int, tax_limit: float,
    trace: bool, trace_path: Path | None = None,
) -> Outcome:
    """Run a closed-loop workload: one caller, next op after the last returns.

    The cold starts behind ``setup_s`` are spread evenly over the run,
    so their median samples the same host conditions as the ops.
    """
    if trace:
        return _closed_traced(load, n_ops, trace_path)
    setup, failed = [], 0

    def cold_start() -> None:
        nonlocal failed
        wall, scaled, ok = _cold_start(load)
        setup.append((wall, scaled))
        failed += not ok

    every = max(1, n_ops // max(1, cold_starts))
    with Session(n_core_groups=N_CORE_GROUPS) as session:
        failed += not load.check(load.call(session), load.floor())
        ops = []
        for i in range(n_ops):
            if i % every == 0 and len(setup) < cold_starts:
                cold_start()
            load.refresh(i)
            op, out = _run_op(lambda: load.call(session), load.floor, load.check)
            if op.ok:
                op.modeled = load.modeled_seconds(session, out)
            ops.append(op)
    while len(setup) < cold_starts:
        cold_start()
    attempted = 1 + cold_starts + len(ops)
    failed += sum(not op.ok for op in ops)
    taxes = [op.wall / op.floor for op in ops]
    walls_ms = [1e3 * op.wall for op in ops]
    modeled = sum(op.modeled for op in ops if op.ok)
    good = sum(op.ok and tax <= tax_limit for op, tax in zip(ops, taxes))
    flops = load.flops * sum(op.ok for op in ops)
    wall_setup, ref_setup = zip(*setup)
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": (_median(ref_setup), "s"),
            "tax_p50": (_pct(taxes, 50), "x"),
            "tax_p90": (_pct(taxes, 90), "x"),
            "goodput_ratio": (good / len(ops), "ratio"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "modeled_gflops": (flops / modeled / 1e9 if modeled else 0.0, "Gflop/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
        record={
            "ops": len(ops),
            "p90_samples": len(ops),
            "cold_starts": cold_starts,
            "setup_wall_s": _median(wall_setup),
            "latency_p50_ms": _pct(walls_ms, 50),
            "latency_p90_ms": _pct(walls_ms, 90),
            "floor_p50_ms": 1e3 * _median([op.floor for op in ops]),
        },
    )


def _closed_traced(load, n_ops: int, trace_path: Path | None) -> Outcome:
    """Ops alternate between an untraced and a traced session.

    The untraced ops give the host figures and the baseline of the
    tracing overhead; the traced ops give the spans.
    """
    tracer = SpanTracer()
    plain = Session(n_core_groups=N_CORE_GROUPS)
    traced = Session(n_core_groups=N_CORE_GROUPS, tracer=tracer)
    failed = 0
    try:
        for session in (plain, traced):
            failed += not load.check(load.call(session), load.floor())
        mark = len(tracer.spans)
        stats0, plans0, resil0 = traced.stats(), traced.plan_cache.stats(), traced.resil_stats()
        registry = traced.metrics_registry()

        def traced_call():
            with tracer.span("bench.session", cat="bench"):
                return load.call(traced)

        plain_ops, traced_ops = [], []
        for i in range(n_ops):
            load.refresh(i)
            on_trace = i % 2 == 1
            program = traced_call if on_trace else (lambda: load.call(plain))
            op, out = _run_op(program, load.floor, load.check)
            if op.ok:
                op.modeled = load.modeled_seconds(traced, out)
            (traced_ops if on_trace else plain_ops).append(op)
            with tracer.span("bench.normalize", cat="bench"):
                _normalize(load.requests(), traced.params)
            if load.batch_shapes:
                with tracer.span("bench.resolve", cat="bench"):
                    _resolve(traced, load.batch_shapes)
            with tracer.span("bench.snapshot", cat="bench"):
                registry.snapshot()
        stats = traced.stats().delta(stats0)
        plans = traced.plan_cache.stats().delta(plans0)
        resil = traced.resil_stats()
    finally:
        traced.close()
        plain.close()
    spans = tracer.spans[mark:]
    if trace_path is not None:
        write_chrome_trace(spans, trace_path, label=load.name)
    ops = plain_ops + traced_ops
    failed += sum(not op.ok for op in ops)
    n_traced = max(1, len(traced_ops))
    layers = ledger.layer_seconds(spans)
    metrics = _span_metrics(spans, layers, n_traced)
    metrics.update(_count_metrics(stats, plans, resil, resil0, n_traced))
    traced_floor = sum(op.floor for op in traced_ops)
    metrics.update({
        "api.normalize_us": (1e6 * _span_median(spans, "bench.normalize"), "us"),
        "api.hash_ms": (0.0, "ms"),
        "sched.resolve_ms": (1e3 * _span_median(spans, "bench.resolve"), "ms"),
        "sched.overlap": (_overlap(spans), "ratio"),
        "engine.kernel_tax": (
            layers.get("engine.kernel_ms", 0.0) / traced_floor if traced_floor else 0.0, "x",
        ),
        "perf.modeled_ms": (1e3 * _median([op.modeled for op in ops if op.ok]), "ms"),
        "obs.snapshot_ms": (1e3 * _span_median(spans, "bench.snapshot"), "ms"),
        "obs.trace_overhead": (
            _median([op.wall for op in traced_ops]) / _median([op.wall for op in plain_ops]), "x",
        ),
        "host.floor_ms": (1e3 * _median([op.floor for op in plain_ops]), "ms"),
        "host.wall_ms": (1e3 * _median([op.wall for op in plain_ops]), "ms"),
        "residue_ratio": (ledger.residue_ratio(spans), "ratio"),
    })
    metrics.update(_serve_zeros())
    return Outcome(
        attempted=len(ops) + 2,
        failed=failed,
        metrics=metrics,
        record={"ops": len(ops), "traced_ops": len(traced_ops), "spans": len(spans)},
    )


# -- shared per-layer helpers -------------------------------------------


def _span_median(spans, name: str) -> float:
    """Median duration of the spans called ``name`` (0 when there are none)."""
    return _median([s.end - s.start for s in spans if s.name == name])


def _overlap(spans) -> float:
    """Summed ``cg_dispatch`` time over summed ``session.batch`` time."""
    batch = sum(s.end - s.start for s in spans if s.name == "session.batch")
    dispatch = sum(s.end - s.start for s in spans if s.name == "cg_dispatch")
    return dispatch / batch if batch else 0.0


def _span_metrics(spans, layers: dict[str, float], per: int) -> dict[str, tuple[float, str]]:
    """Self-time metrics per op, plus the modeled load balance."""
    keys = (
        "session.self_ms", "sched.self_ms", "context.stage_a_ms",
        "context.stage_b_ms", "context.stage_c_ms", "context.store_c_ms",
        "engine.kernel_ms", "engine.dgemm_self_ms",
    )
    out = {key: (1e3 * layers.get(key, 0.0) / per, "ms") for key in keys}
    out["sched.load_balance"] = (ledger.load_balance(spans, N_CORE_GROUPS), "ratio")
    return out


def _count_metrics(stats, plans, resil, resil0, per: int) -> dict[str, tuple[float, str]]:
    """Exact counters: staging, plan cache, traffic per op, resilience."""
    traffic = stats.traffic
    lookups = plans.hits + plans.misses
    return {
        "context.allocations": (float(traffic.allocations), "count"),
        "context.plan_hits": (float(traffic.plan_hits), "count"),
        "context.pad_ratio": (stats.padded_flops / stats.flops if stats.flops else 0.0, "ratio"),
        "engine.plan_builds": (float(plans.builds), "count"),
        "engine.plan_hit_ratio": (plans.hits / lookups if lookups else 0.0, "ratio"),
        "arch.dma_bytes": (traffic.dma_bytes / per, "bytes"),
        "arch.dma_transactions": (traffic.dma_transactions / per, "count"),
        "arch.regcomm_bytes": (traffic.regcomm_bytes / per, "bytes"),
        "resil.retries": (float(resil["retries"] - resil0["retries"]), "count"),
        "resil.fallbacks": (float(resil["fallbacks"] - resil0["fallbacks"]), "count"),
    }


def _serve_zeros() -> dict[str, tuple[float, str]]:
    """Serving-tier metrics of a workload that bypasses the serving tier."""
    return {
        "serve.queue_ms": (0.0, "ms"),
        "serve.service_ms": (0.0, "ms"),
        "serve.batch_size": (0.0, "count"),
        "serve.cache_hit_ratio": (0.0, "ratio"),
        "serve.rejected": (0.0, "count"),
        "serve.loop_lag_ms": (0.0, "ms"),
        "serve.backlog": (0.0, "count"),
    }


# -- open loop ------------------------------------------------------------

#: the request menu: (m, n, k, transa, transb, beta).  Every request is
#: at most one SCHED CG block of work (2*128*256*768 flops); padding
#: spreads the menu over four padded shapes — (128|256, 256|512, 768) —
#: whose A/B/C staging keys (8) exceed a CG context's 6-entry cache.
MENU = (
    (128, 256, 768, "N", "N", 0.0),
    (128, 256, 768, "T", "N", 1.0),
    (96, 200, 640, "N", "N", 1.0),
    (256, 128, 384, "N", "T", 0.0),
    (200, 256, 480, "N", "N", 1.0),
    (64, 384, 512, "T", "T", 0.0),
    (128, 448, 384, "N", "N", 1.0),
    (160, 320, 256, "N", "N", 0.0),
)

#: a repeat copies a request that arrived this many seconds earlier:
#: late enough that the original has been answered and cached, early
#: enough that the 128-entry operand cache still holds it.
REPEAT_WINDOW = (0.5, 1.5)
#: operand streams of :meth:`ServeOpen.probe`: scheduled requests and
#: set-up requests.
SCHEDULED, SETUP = range(2)
#: the default coalescing window: the part of serve-open's tax base that
#: no host speeds up, to which each shape's numpy floor is added.
WINDOW_SECONDS = ServeConfig().window_seconds
#: serve-open's percentiles are taken per slice of this many seconds of
#: the schedule (at least 10 requests beyond each slice's p90 at the
#: rate in workloads.json), then the median over slices is reported.
SLICE_SECONDS = 5.0


class ServeOpen:
    """Poisson arrivals of small GEMMs, a quarter of them exact repeats.

    The schedule is precomputed from the seed: ``n`` arrival times
    drawn uniformly over ``duration`` seconds and sorted (a Poisson
    process conditioned on its count), a repeat flag per request, and a
    menu entry per fresh request.  Operands are regenerated from
    ``(seed, request)`` when the request is sent — a repeat regenerates
    its source's operands bit for bit — so the generator holds no more
    than the requests in flight.
    """

    name = "serve-open"

    def __init__(self, seed: int, n: int, duration: float, repeat_share: float) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.arrivals = np.sort(rng.uniform(0.0, duration, n))
        self.source = list(range(n))
        first = np.searchsorted(self.arrivals, self.arrivals - REPEAT_WINDOW[1])
        last = np.searchsorted(self.arrivals, self.arrivals - REPEAT_WINDOW[0], side="right")
        for i in range(n):
            pool = [j for j in range(first[i], last[i]) if self.source[j] == j]
            if pool and rng.random() < repeat_share:
                self.source[i] = pool[int(rng.integers(len(pool)))]
        fresh = [i for i in range(n) if self.source[i] == i]
        order = rng.permutation(len(fresh))
        self.entry = [0] * n
        for rank, i in enumerate(fresh):
            self.entry[i] = int(order[rank] % len(MENU))
        for i in range(n):
            self.entry[i] = self.entry[self.source[i]]
        base = np.random.default_rng([seed, 2])
        self.bases = []
        for m, nn, k, ta, tb, beta in MENU:
            a = base.standard_normal((k, m) if ta == "T" else (m, k))
            b = base.standard_normal((nn, k) if tb == "T" else (k, nn))
            c = base.standard_normal((m, nn)) if beta else None
            self.bases.append((a, b, c))

    def __len__(self) -> int:
        return len(self.arrivals)

    def is_repeat(self, i: int) -> bool:
        return self.source[i] != i

    def request(self, i: int) -> tuple[GemmRequest, np.ndarray]:
        """Scheduled request ``i`` and its check vector."""
        return self.probe(self.entry[i], SCHEDULED, self.source[i])

    def probe(self, entry: int, stream: int, key: int) -> tuple[GemmRequest, np.ndarray]:
        """A request of menu ``entry`` whose contents are fixed by ``(stream, key)``."""
        rng = np.random.default_rng([self.seed, 3, stream, key])
        _, _, _, ta, tb, beta = MENU[entry]
        operands = []
        for base in self.bases[entry]:
            if base is None:
                operands.append(None)
                continue
            matrix = np.array(base, order="F")
            matrix[:, key % matrix.shape[1]] = rng.standard_normal(matrix.shape[0])
            operands.append(matrix)
        a, b, c = operands
        request = GemmRequest(a, b, c, alpha=1.0, beta=beta, transa=ta, transb=tb)
        return request, rng.standard_normal(MENU[entry][1])

    def shape(self, i: int) -> tuple[int, int, int]:
        m, n, k = MENU[self.entry[i]][:3]
        return m, n, k


def freivalds_ok(request: GemmRequest, value, x: np.ndarray) -> bool:
    """Check ``value`` against the request with one random vector.

    ``value @ x`` must match ``alpha*op(A)@(op(B)@x) + beta*C@x`` within
    a norm bound; a single wrong element shows up as its error times
    ``x[j]``, far above the rounding of a correct result.
    """
    a = apply_trans("transa", request.transa, request.a)
    b = apply_trans("transb", request.transb, request.b)
    if value is None or value.shape != (a.shape[0], b.shape[1]):
        return False
    expect = request.alpha * (a @ (b @ x))
    scale = abs(request.alpha) * np.linalg.norm(a) * np.linalg.norm(b)
    if request.beta:
        expect += request.beta * (request.c @ x)
        scale += abs(request.beta) * np.linalg.norm(request.c)
    bound = FREIVALDS_RTOL * scale * np.linalg.norm(x)
    return bool(np.all(np.abs(value @ x - expect) <= bound))


def _floor(request: GemmRequest) -> np.ndarray:
    a = apply_trans("transa", request.transa, request.a)
    b = apply_trans("transb", request.transb, request.b)
    out = request.alpha * (a @ b)
    if request.beta:
        out += request.beta * request.c
    return out


@dataclass
class _Served:
    latency: float
    ok: bool
    lag: float
    cache_hit: bool
    queue: float
    service: float
    total: float


async def _one(server: ReproServer, request: GemmRequest, x, due: float, lag: float) -> _Served:
    result = await server.submit(request)
    latency = time.perf_counter() - due
    ok = result.ok and freivalds_ok(request, result.value, x)
    return _Served(
        latency=latency, ok=ok, lag=lag, cache_hit=result.cache_hit,
        queue=result.queue_seconds, service=result.service_seconds,
        total=result.total_seconds,
    )


async def _warm_server(load: ServeOpen, tracer=None) -> tuple[Session, ReproServer, bool]:
    """A started server whose session has answered every menu shape once."""
    session = Session(n_core_groups=N_CORE_GROUPS, tracer=tracer)
    server = ReproServer(session=session)
    await server.start()
    pairs = [load.probe(e, SETUP, e) for e in range(len(MENU))]
    results = await asyncio.gather(*(server.submit(r) for r, _ in pairs))
    ok = all(res.ok and freivalds_ok(r, res.value, x) for (r, x), res in zip(pairs, results))
    return session, server, ok


async def _close(session: Session, server: ReproServer) -> None:
    await server.stop()
    session.close()


async def _schedule(server: ReproServer, load: ServeOpen, indices: range) -> tuple[list[_Served], list[int]]:
    """Send ``indices`` on their schedule from one task; await every answer.

    Each request is built before its due time and timed from that due
    time, so a late generator shows up as latency and as ``lag``.
    Returns the answers in order and, per request, how many earlier
    requests were still unanswered when it was sent: the last of these
    is the backlog at schedule end, and their trend over the schedule
    shows whether the backlog grows.
    """
    t0 = time.perf_counter() + 0.05 - float(load.arrivals[indices[0]])
    tasks = []
    inflight = []
    pending = 0

    def answered(_task) -> None:
        nonlocal pending
        pending -= 1

    for i in indices:
        request, x = load.request(i)
        due = t0 + float(load.arrivals[i])
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lag = time.perf_counter() - due
        inflight.append(pending)
        task = asyncio.create_task(_one(server, request, x, due, lag))
        pending += 1
        task.add_done_callback(answered)
        tasks.append(task)
    return list(await asyncio.gather(*tasks)), inflight


def _inflight_trend(inflight: list[int], times) -> tuple[float, float]:
    """Mean in-flight count over the first and the last schedule slice."""
    first = [n for n, t in zip(inflight, times) if t < times[0] + SLICE_SECONDS]
    last = [n for n, t in zip(inflight, times) if t > times[-1] - SLICE_SECONDS]
    return float(np.mean(first)), float(np.mean(last))


def _floors(load: ServeOpen, reps: int = 9) -> list[float]:
    """Numpy seconds per menu entry, timed on that entry's setup request."""
    out = []
    for entry in range(len(MENU)):
        request, _ = load.probe(entry, SETUP, entry)
        out.append(_median_time(lambda: _floor(request), reps))
    return out


def _modeled(session: Session, shapes) -> tuple[float, float]:
    """Logical flops and summed single-CG modeled seconds of ``shapes``."""
    flops = seconds = 0.0
    for m, n, k in shapes:
        flops += 2.0 * m * n * k
        seconds += session.scheduler.modeled_item_seconds(m, n, k)
    return flops, seconds


async def _serve_untraced(load: ServeOpen, cold_starts: int, limit_s: float) -> Outcome:
    """Cold starts, then the open-loop schedule on one warm server.

    serve-open's tax is a request's latency over the coalescing window
    plus the numpy floor of its shape: hashing, admission, queueing,
    dispatch and the program's compute all stay in the numerator.
    """
    setup, failed = [], 0
    for _ in range(cold_starts):
        before = _reference_seconds()
        start = time.perf_counter()
        session, server, ok = await _warm_server(load)
        seconds = time.perf_counter() - start
        failed += not ok
        await _close(session, server)
        setup.append((seconds, _at_reference_speed(seconds, before, _reference_seconds())))
    floors = _floors(load)
    session, server, ok = await _warm_server(load)
    failed += not ok
    try:
        serve0 = server.stats()
        served, inflight = await _schedule(server, load, range(len(load)))
        serve = server.stats()
        flops, seconds = _modeled(
            session, [load.shape(i) for i in range(len(load)) if not load.is_repeat(i)]
        )
    finally:
        await _close(session, server)
    attempted = len(served) + (cold_starts + 1) * len(MENU)
    failed += sum(not s.ok for s in served)
    lat_ms = [1e3 * s.latency for s in served]
    taxes = [
        s.latency / (WINDOW_SECONDS + floors[load.entry[i]]) for i, s in enumerate(served)
    ]
    good = sum(s.ok and s.latency <= limit_s for s in served)
    times = load.arrivals
    wall_setup, ref_setup = zip(*setup)
    first, last = _inflight_trend(inflight, times)
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": (_median(ref_setup), "s"),
            "tax_p50": (_window_pct(taxes, times, 50, SLICE_SECONDS), "x"),
            "tax_p90": (_window_pct(taxes, times, 90, SLICE_SECONDS), "x"),
            "goodput_ratio": (good / len(served), "ratio"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "modeled_gflops": (flops / seconds / 1e9 if seconds else 0.0, "Gflop/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
        record={
            "requests": len(served),
            "p90_samples_per_slice": min(
                Counter(int(t // SLICE_SECONDS) for t in times).values()
            ),
            "repeats": sum(load.is_repeat(i) for i in range(len(load))),
            "cache_hits": sum(s.cache_hit for s in served),
            "batch_size": (serve["batched_requests"] - serve0["batched_requests"])
            / max(1, serve["batches"] - serve0["batches"]),
            "backlog_at_schedule_end": inflight[-1],
            "inflight_first_slice": first,
            "inflight_last_slice": last,
            "loop_lag_p90_ms": _pct([1e3 * s.lag for s in served], 90),
            "cold_starts": cold_starts,
            "setup_wall_s": _median(wall_setup),
            "latency_p50_ms": _window_pct(lat_ms, times, 50, SLICE_SECONDS),
            "latency_p90_ms": _window_pct(lat_ms, times, 90, SLICE_SECONDS),
        },
    )


async def _serve_traced(load: ServeOpen, trace_path: Path | None) -> Outcome:
    """First half of the schedule untraced, second half traced.

    The untraced half sizes the tracing overhead; every per-layer
    figure comes from the traced half, per offered request.
    """
    half = len(load) // 2
    session, server, ok = await _warm_server(load)
    failed = not ok
    try:
        plain, _ = await _schedule(server, load, range(0, half))
    finally:
        await _close(session, server)
    tracer = SpanTracer()
    session, server, ok = await _warm_server(load, tracer)
    failed += not ok
    indices = range(half, len(load))
    try:
        mark = len(tracer.spans)
        stats0, plans0, resil0 = session.stats(), session.plan_cache.stats(), session.resil_stats()
        serve0 = server.stats()
        served, inflight = await _schedule(server, load, indices)
        stats = session.stats().delta(stats0)
        plans = session.plan_cache.stats().delta(plans0)
        resil = session.resil_stats()
        serve = server.stats()
        registry = server.metrics_registry()
        for _ in range(32):
            with tracer.span("bench.snapshot", cat="bench"):
                registry.snapshot()
        computed = [i for i, s in zip(indices, served) if not s.cache_hit]
        _, modeled_s = _modeled(session, [load.shape(i) for i in computed])
        # the request path's own calls, replayed off the event loop on
        # regenerated copies of the first requests that were computed.
        for i in computed[:64]:
            request, _ = load.request(i)
            with tracer.span("bench.normalize", cat="bench"):
                _normalize([request], session.params)
            with tracer.span("bench.hash", cat="bench"):
                request.content_hash()
            with tracer.span("bench.resolve", cat="bench"):
                _resolve(session, [load.shape(i)])
    finally:
        await _close(session, server)
    spans = tracer.spans[mark:]
    if trace_path is not None:
        write_chrome_trace(spans, trace_path, label=load.name)
    floors = _floors(load)
    per = max(1, len(served))
    failed += sum(not s.ok for s in plain) + sum(not s.ok for s in served)
    layers = ledger.layer_seconds(spans)
    metrics = _span_metrics(spans, layers, per)
    metrics.update(_count_metrics(stats, plans, resil, resil0, per))
    misses = [s for s in served if not s.cache_hit]
    floor_s = [floors[load.entry[i]] for i in indices]
    computed_floor = sum(floors[load.entry[i]] for i in computed)
    claimed = sum(s.lag + (s.total if s.cache_hit else s.queue + s.service) for s in served)
    batches = serve["batches"] - serve0["batches"]
    metrics.update({
        "api.normalize_us": (1e6 * _span_median(spans, "bench.normalize"), "us"),
        "api.hash_ms": (1e3 * _span_median(spans, "bench.hash"), "ms"),
        "serve.queue_ms": (1e3 * _median([s.queue for s in misses]), "ms"),
        "serve.service_ms": (1e3 * _median([s.service for s in misses]), "ms"),
        "serve.batch_size": (
            (serve["batched_requests"] - serve0["batched_requests"]) / batches if batches else 0.0,
            "count",
        ),
        "serve.cache_hit_ratio": ((serve["cache_hits"] - serve0["cache_hits"]) / per, "ratio"),
        "serve.rejected": (float(serve["rejected"] - serve0["rejected"]), "count"),
        "serve.loop_lag_ms": (_pct([1e3 * s.lag for s in served], 90), "ms"),
        "serve.backlog": (float(inflight[-1]), "count"),
        "sched.resolve_ms": (1e3 * _span_median(spans, "bench.resolve"), "ms"),
        "sched.overlap": (_overlap(spans), "ratio"),
        "engine.kernel_tax": (
            layers.get("engine.kernel_ms", 0.0) / computed_floor if computed_floor else 0.0, "x",
        ),
        "perf.modeled_ms": (1e3 * modeled_s / per, "ms"),
        "obs.snapshot_ms": (1e3 * _span_median(spans, "bench.snapshot"), "ms"),
        "obs.trace_overhead": (
            _median([s.service for s in misses])
            / _median([s.service for s in plain if not s.cache_hit]), "x",
        ),
        "host.floor_ms": (1e3 * _median(floor_s), "ms"),
        "host.wall_ms": (1e3 * _median([s.latency for s in served]), "ms"),
        "residue_ratio": (1.0 - claimed / sum(s.latency for s in served), "ratio"),
    })
    return Outcome(
        attempted=len(plain) + len(served) + 2 * len(MENU),
        failed=failed,
        metrics=metrics,
        record={"requests": len(served), "untraced_requests": len(plain), "spans": len(spans)},
    )


def run_serve(
    load: ServeOpen, *, cold_starts: int, latency_limit_ms: float,
    trace: bool, trace_path: Path | None = None,
) -> Outcome:
    """Run the open-loop serving workload on a fresh event loop."""
    if trace:
        return asyncio.run(_serve_traced(load, trace_path))
    return asyncio.run(_serve_untraced(load, cold_starts, latency_limit_ms / 1e3))

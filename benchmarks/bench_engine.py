"""Device vs vectorized execution engine: wall-clock and traffic.

Not a paper artifact — this measures the *library*: what
``engine="vectorized"`` buys over the per-CPE device model on the
functional GEMM hot path, per variant.  Every timed configuration is
also *verified*: the vectorized result must match the device result to
the library comparison tolerance (``rtol=1e-12 / atol=1e-9``, the same
bar ``dgemm(check=True)`` applies) and the DMA / register-communication
statistics must match exactly, otherwise the run fails.

The stepwise engine is covered too: warm plan-compiled stepwise runs
are measured against the device engine (bitwise equality at the smoke's
16-deep tiles, the engine contract of :mod:`repro.core.engine` at the
768^3 paper size, exact stats and one plan build either way), gated at
``STEPWISE_PLAN_SPEEDUP_FLOOR`` at 768^3 in full mode, and the smoke
run additionally asserts the plan-cache counters (one build per
signature, hits across repeated parallel ``Session`` batches, drain on
close).

Timings cover ``engine.run`` on pre-staged operands — the execution
engine itself, excluding the engine-independent host staging copies.
The two engines of a record are timed in interleaved pairs, each
engine on its own CG with its operands staged once, so host drift
lands on both sides of a pair instead of between two blocks of reps.
A pair is one device run and one warm fast run: an untimed fast run
goes first.  A fast run right after the device engine's mostly
refills caches, so its time follows the host's memory traffic more
than the engine; on a 2-core host such cold ratios spread 0.68-0.99x
of the smoke baseline over 50 runs, warm ones 0.95-1.47x over 100.
Every repetition's wall-clock is kept; records report the best-of-reps
headline number, a min/p50/p95/mean summary per engine and the
per-pair speedups, so the trajectory file captures run-to-run jitter,
not just the fastest sample.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py --json BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke   # CI gate
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke \
        --baseline BENCH_engine.json --max-regression 0.25

The smoke run pins host BLAS to one thread before numpy loads, as
``bench_scheduler`` and ``bench_telemetry`` do (and
``benchmarks/conftest.py`` under pytest): on a 2-core host a second
BLAS thread contends with the timed engine and spreads its ratios.
Full mode keeps the host's default threading.

The ``--baseline`` flag turns the smoke run into a performance
*regression* gate: the median per-pair speedup of each smoke case is
compared against the ``smoke`` section of the committed trajectory
file, and the run fails if any case lost more than
``--max-regression`` (a fraction; 0.25 means "a quarter of the
baseline speedup").  A baseline without a ``smoke`` section
downgrades the gate to a warning so the first run on a fresh baseline
never hard-fails; ``--write-baseline`` refreshes the section in
place.

The committed ``smoke.speedup_p50`` floors follow one rule: per case,
the median of the gated figure over 20 ``--smoke`` runs of the same
code on the gating host (each run's figure is what
``--write-baseline PATH`` writes).  Re-derive them by that rule
whenever a change moves either engine's speed on purpose; a single
run's figure is not a floor.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

if __name__ == "__main__" and "--smoke" in sys.argv:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np

from repro.api import GemmRequest
from repro.arch.core_group import CoreGroup
from repro.core.context import ExecutionContext
from repro.core.engine import PlanCache, StepwiseEngine, get_engine
from repro.core.params import BlockingParams
from repro.core.reference import contract_bound, reference_dgemm
from repro.core.session import Session
from repro.core.variants import get_variant

#: paper-sized shapes per variant (multiples of the CG block factors).
PAPER_SHAPES = {
    "RAW": (768, 768, 768),
    "PE": (512, 768, 768),
    "ROW": (512, 768, 768),
    "DB": (1024, 1024, 768),
    "SCHED": (1024, 1024, 768),
}
#: the 768^3 paper size the stepwise-plan acceptance bar is quoted at.
PLAN_SHAPE = (768, 768, 768)
SMOKE_PARAMS = BlockingParams.small(double_buffered=True)
#: the acceptance bar: vectorized must beat device by this factor on
#: the paper-sized SCHED variant.
SCHED_SPEEDUP_FLOOR = 10.0
#: the acceptance bar: warm-plan stepwise must beat the device engine
#: by this factor at 768^3.
STEPWISE_PLAN_SPEEDUP_FLOOR = 2.0
#: interleaved device/fast pairs per smoke case; the gate reads their
#: median ratio.
SMOKE_PAIRS = 15


def _stats_snapshot(cg: CoreGroup) -> dict:
    d, r = cg.dma.stats, cg.regcomm.stats
    return {
        "dma_gets": d.gets,
        "dma_puts": d.puts,
        "dma_bytes_get": d.bytes_get,
        "dma_bytes_put": d.bytes_put,
        "dma_transactions": d.transactions,
        "dma_by_mode": dict(sorted(d.by_mode.items())),
        "regcomm_row_broadcasts": r.row_broadcasts,
        "regcomm_col_broadcasts": r.col_broadcasts,
        "regcomm_row_items": r.row_items,
        "regcomm_col_items": r.col_items,
        "regcomm_bytes": r.bytes_moved,
        "regcomm_receives": r.receives,
    }


def _timing_summary(samples: list[float]) -> dict:
    """min/p50/p95/mean over the per-rep wall-clock samples."""
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "reps": len(samples),
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "mean": float(arr.mean()),
    }


def _operands(shape: tuple[int, int, int]):
    """The seeded A, B, C every timed engine run multiplies."""
    m, n, k = shape
    rng = np.random.default_rng(7)
    return (rng.standard_normal((m, k)), rng.standard_normal((k, n)),
            rng.standard_normal((m, n)))


class _Staged:
    """One engine on its own CG, with the seeded operands staged once.

    Each call runs the engine once and returns its wall-clock seconds.
    The first run works on the freshly staged C and provides the
    verified result and statistics; later runs only time (they
    accumulate into C, which does not affect wall-clock).  ``engine``
    may be a registry name or an engine instance; ``plan_cache`` is
    handed to plan-aware engines.  The staging context lives as long
    as ``stack``.
    """

    def __init__(
        self,
        stack: contextlib.ExitStack,
        variant: str,
        engine,
        shape: tuple[int, int, int],
        params: BlockingParams | None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.impl = get_variant(variant)
        self.params = params or self.impl.default_params()
        self.engine = get_engine(engine)
        self.plan_cache = plan_cache
        m, n, k = shape
        a, b, c = _operands(shape)
        self.cg = CoreGroup()
        ctx = stack.enter_context(
            ExecutionContext.scoped(None, self.cg, self.cg.spec))
        stack.enter_context(ctx.executing())
        self.handles = (ctx.stage("A", a, rows=m, cols=k),
                        ctx.stage("B", b, rows=k, cols=n),
                        ctx.stage("C", c, rows=m, cols=n))
        self.result: np.ndarray | None = None
        self.stats: dict | None = None

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.engine.run(self.impl, self.cg, *self.handles, alpha=1.0,
                        beta=1.0, params=self.params,
                        plan_cache=self.plan_cache)
        seconds = time.perf_counter() - t0
        if self.result is None:
            self.result = np.array(self.cg.memory.array(self.handles[2]),
                                   order="F", copy=True)
            self.stats = _stats_snapshot(self.cg)
        return seconds


def _time_pairs(
    device: _Staged, fast: _Staged, pairs: int
) -> tuple[list[float], list[float]]:
    """Time ``pairs`` (device, warm fast) pairs back to back.

    Each pair runs the device engine, then the fast engine twice and
    keeps the second, warm run; the first is untimed.
    """
    device_s: list[float] = []
    fast_s: list[float] = []
    for _ in range(pairs):
        device_s.append(device())
        fast()
        fast_s.append(fast())
    return device_s, fast_s


def bench_variant(
    variant: str,
    shape: tuple[int, int, int],
    params: BlockingParams | None = None,
    pairs: int = 3,
) -> tuple[dict, list[str]]:
    """Measure and verify one variant; return (record, failures).

    Device and vectorized run in ``pairs`` interleaved pairs.  The
    headline ``*_seconds``/``speedup`` numbers use the best-of-reps
    sample; the ``*_timing`` summaries expose the full distribution,
    and ``pair_speedups`` the device/vectorized ratio of each pair.
    """
    m, n, k = shape
    with contextlib.ExitStack() as stack:
        device = _Staged(stack, variant, "device", shape, params)
        vectorized = _Staged(stack, variant, "vectorized", shape, params)
        dev_samples, vec_samples = _time_pairs(device, vectorized, pairs)
    dev_out, dev_stats = device.result, device.stats
    vec_out, vec_stats = vectorized.result, vectorized.stats
    dev_s = min(dev_samples)
    vec_s = min(vec_samples)

    failures: list[str] = []
    if not np.allclose(vec_out, dev_out, rtol=1e-12, atol=1e-9):
        worst = float(np.max(np.abs(vec_out - dev_out)))
        failures.append(
            f"{variant}: vectorized result deviates from device "
            f"(max abs err {worst:.3e})"
        )
    if vec_stats != dev_stats:
        diff = {key for key in dev_stats if dev_stats[key] != vec_stats[key]}
        failures.append(
            f"{variant}: traffic statistics differ on {sorted(diff)}"
        )

    dma_bytes = dev_stats["dma_bytes_get"] + dev_stats["dma_bytes_put"]
    record = {
        "shape": {"m": m, "n": n, "k": k},
        "flops": 2 * m * n * k,
        "device_seconds": dev_s,
        "vectorized_seconds": vec_s,
        "device_timing": _timing_summary(dev_samples),
        "vectorized_timing": _timing_summary(vec_samples),
        "speedup": dev_s / vec_s,
        "pair_speedups": [d / v for d, v in zip(dev_samples, vec_samples)],
        "device_gflops": 2 * m * n * k / dev_s / 1e9,
        "vectorized_gflops": 2 * m * n * k / vec_s / 1e9,
        "dma_gb_moved": dma_bytes / 1e9,
        "regcomm_gb_moved": dev_stats["regcomm_bytes"] / 1e9,
        "stats_match": vec_stats == dev_stats,
        "traffic": dev_stats,
    }
    return record, failures


def bench_stepwise_plan(
    shape: tuple[int, int, int],
    params: BlockingParams | None = None,
    variant: str = "SCHED",
    reps: int = 5,
) -> tuple[dict, list[str]]:
    """Device vs plan-compiled stepwise; return (record, failures).

    The planned path compiles its owner tables and copy recipes once
    into the shared :class:`PlanCache`.  Its first run is the cold
    (plan-building) sample; then device and warm planned runs are timed
    in ``reps`` interleaved pairs.  Both engines must meet the engine
    contract against ``reference_dgemm`` (and agree *bitwise* at the
    16-deep tiles of ``SMOKE_PARAMS``) with identical traffic
    statistics, and the cache counters must show exactly one build with
    a hit on every later run.
    """
    cache = PlanCache()
    with contextlib.ExitStack() as stack:
        device = _Staged(stack, variant, "device", shape, params)
        planned = _Staged(stack, variant, StepwiseEngine(), shape, params,
                          plan_cache=cache)
        cold_s = planned()
        dev_samples, warm_samples = _time_pairs(device, planned, reps)
    dev_out, dev_stats = device.result, device.stats
    plan_out, plan_stats = planned.result, planned.stats

    failures: list[str] = []
    a, b, c = _operands(shape)
    expected = reference_dgemm(1.0, a, b, 1.0, c)
    bound = contract_bound(1.0, a, b, 1.0, c)
    within = {
        name: bool((np.abs(out - expected) <= bound).all())
        for name, out in (("device", dev_out), ("stepwise", plan_out))
    }
    for name, ok in within.items():
        if not ok:
            failures.append(
                f"{variant}: {name} result is outside the engine contract"
            )
    bitwise_equal = bool(np.array_equal(plan_out, dev_out))
    # the engine contract promises bit-identity at 16-deep tiles only
    tiles_16_deep = params is not None and params.p_k == SMOKE_PARAMS.p_k
    if tiles_16_deep and not bitwise_equal:
        worst = float(np.max(np.abs(plan_out - dev_out)))
        failures.append(
            f"{variant}: planned stepwise result is not bit-identical to "
            f"the device engine (max abs err {worst:.3e})"
        )
    if plan_stats != dev_stats:
        diff = {k for k in dev_stats if dev_stats[k] != plan_stats[k]}
        failures.append(
            f"{variant}: planned stepwise traffic statistics differ on "
            f"{sorted(diff)}"
        )
    counters = cache.stats()
    if counters.builds != 1 or counters.hits != 2 * reps:
        failures.append(
            f"{variant}: plan cache counters off — expected 1 build / "
            f"{2 * reps} hits, got {counters.builds} / {counters.hits}"
        )

    m, n, k = shape
    dev_s = min(dev_samples)
    warm_s = min(warm_samples)
    record = {
        "shape": {"m": m, "n": n, "k": k},
        "variant": variant,
        "flops": 2 * m * n * k,
        "device_seconds": dev_s,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "device_timing": _timing_summary(dev_samples),
        "warm_timing": _timing_summary(warm_samples),
        "speedup": dev_s / warm_s,
        "pair_speedups": [d / w for d, w in zip(dev_samples, warm_samples)],
        "warm_gflops": 2 * m * n * k / warm_s / 1e9,
        "plan_cache": {
            "builds": counters.builds,
            "hits": counters.hits,
            "bytes": counters.bytes,
        },
        "results_bitwise_equal": bitwise_equal,
        "within_contract": all(within.values()),
        "stats_match": plan_stats == dev_stats,
    }
    record["speedup_p50"] = _p50_speedup(record)
    return record, failures


def full(json_path: str) -> int:
    """Measure every variant at paper size and write the trajectory file."""
    records: dict[str, dict] = {}
    failures: list[str] = []
    for variant, shape in PAPER_SHAPES.items():
        record, errs = bench_variant(variant, shape, pairs=5)
        records[variant] = record
        failures.extend(errs)
        vec_t = record["vectorized_timing"]
        print(
            f"{variant:6s} {shape}: device {record['device_seconds']:.3f}s, "
            f"vectorized {record['vectorized_seconds']:.3f}s "
            f"(p50 {vec_t['p50']:.3f}s, p95 {vec_t['p95']:.3f}s) "
            f"-> {record['speedup']:.1f}x, "
            f"DMA {record['dma_gb_moved']:.3f} GB, "
            f"regcomm {record['regcomm_gb_moved']:.3f} GB"
        )

    sched = records["SCHED"]["speedup"]
    if sched < SCHED_SPEEDUP_FLOOR:
        failures.append(
            f"SCHED speedup {sched:.1f}x is below the "
            f"{SCHED_SPEEDUP_FLOOR:.0f}x acceptance floor"
        )

    plan_record, plan_errs = bench_stepwise_plan(PLAN_SHAPE, reps=5)
    failures.extend(plan_errs)
    print(
        f"stepwise_plan {PLAN_SHAPE}: device "
        f"{plan_record['device_seconds']:.3f}s, cold "
        f"{plan_record['cold_seconds']:.3f}s, warm "
        f"{plan_record['warm_seconds']:.3f}s "
        f"-> p50 {plan_record['speedup_p50']:.1f}x"
    )
    plan_speedup = plan_record["speedup_p50"]
    if plan_speedup < STEPWISE_PLAN_SPEEDUP_FLOOR:
        failures.append(
            f"warm-plan stepwise p50 speedup {plan_speedup:.1f}x at "
            f"{PLAN_SHAPE} is below the "
            f"{STEPWISE_PLAN_SPEEDUP_FLOOR:.0f}x acceptance floor"
        )

    smoke_records, smoke_errs = measure_smoke()
    failures.extend(smoke_errs)
    payload = {
        "benchmark": "bench_engine",
        "description": "device vs vectorized execution engine, per variant",
        "tolerance": {"rtol": 1e-12, "atol": 1e-9},
        "variants": records,
        "sched_speedup": sched,
        "stepwise_plan": plan_record,
        "stepwise_plan_speedup_p50": plan_speedup,
        "smoke": smoke_section(smoke_records),
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {json_path} (SCHED speedup {sched:.1f}x)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def smoke_cases() -> list[tuple[str, tuple[int, int, int], BlockingParams]]:
    """The two CI smoke configurations (single- and double-buffered)."""
    single = BlockingParams.small(double_buffered=False)
    return [
        ("PE", (2 * single.b_m, 2 * single.b_n, 2 * single.b_k), single),
        ("SCHED", (2 * SMOKE_PARAMS.b_m, 2 * SMOKE_PARAMS.b_n,
                   2 * SMOKE_PARAMS.b_k), SMOKE_PARAMS),
    ]


def _smoke_plan_counters() -> list[str]:
    """Verify plan-cache behavior end to end through ``Session``.

    Two repeated ``batch(parallel=True)`` waves over a single shape must
    compile exactly one plan, hit it on every other item (across the CG
    worker threads), and ``close()`` must drain the cache to zero bytes.
    """
    m, n, k = (SMOKE_PARAMS.b_m, SMOKE_PARAMS.b_n, SMOKE_PARAMS.b_k)
    rng = np.random.default_rng(11)
    items = [
        GemmRequest(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
        for _ in range(4)
    ]
    failures: list[str] = []
    session = Session(params=SMOKE_PARAMS, engine="stepwise", n_core_groups=2)
    try:
        session.batch(items, parallel=True)
        first = session.plan_cache.stats()
        session.batch(items, parallel=True)
        second = session.plan_cache.stats()
    finally:
        session.close()
    drained = session.plan_cache.stats()
    if first.builds != 1 or first.hits != len(items) - 1:
        failures.append(
            f"plan counters: first parallel batch expected 1 build / "
            f"{len(items) - 1} hits, got {first.builds} / {first.hits}"
        )
    if second.builds != 1 or second.hits != 2 * len(items) - 1:
        failures.append(
            f"plan counters: second parallel batch expected the plan to be "
            f"hit, not rebuilt (1 build / {2 * len(items) - 1} hits), got "
            f"{second.builds} / {second.hits}"
        )
    if drained.plans != 0 or drained.bytes != 0:
        failures.append(
            f"plan counters: Session.close() left {drained.plans} plans / "
            f"{drained.bytes} bytes in the cache"
        )
    return failures


def measure_smoke() -> tuple[dict[str, dict], list[str]]:
    """Run the smoke cases; return (records by case, failures)."""
    failures: list[str] = []
    records: dict[str, dict] = {}
    for variant, shape, params in smoke_cases():
        record, errs = bench_variant(variant, shape, params,
                                     pairs=SMOKE_PAIRS)
        failures.extend(errs)
        records[variant] = record
        if record["speedup"] <= 1.0:
            failures.append(
                f"{variant}: vectorized engine is slower than device "
                f"({record['vectorized_seconds']:.4f}s vs "
                f"{record['device_seconds']:.4f}s)"
            )
    plan_shape = (2 * SMOKE_PARAMS.b_m, 2 * SMOKE_PARAMS.b_n,
                  2 * SMOKE_PARAMS.b_k)
    plan_record, plan_errs = bench_stepwise_plan(
        plan_shape, SMOKE_PARAMS, reps=SMOKE_PAIRS)
    failures.extend(plan_errs)
    records["STEPWISE"] = plan_record
    if plan_record["speedup"] <= 1.0:
        failures.append(
            f"STEPWISE: warm planned stepwise is slower than the device "
            f"engine ({plan_record['warm_seconds']:.4f}s vs "
            f"{plan_record['device_seconds']:.4f}s)"
        )
    failures.extend(_smoke_plan_counters())
    return records, failures


def _p50_speedup(record: dict) -> float:
    """The gated speedup of a record: the median of its per-pair ratios.

    Engine records pair device with vectorized runs; stepwise records
    pair device with warm planned stepwise runs.
    """
    return float(np.median(record["pair_speedups"]))


def smoke_section(records: dict[str, dict]) -> dict:
    """The ``smoke`` block of the trajectory file: p50 speedups.

    The gate compares the median of the per-pair speedups rather than
    a best-of-reps or p50-over-p50 ratio: a median is far less
    sensitive to a single lucky (or preempted) repetition on shared CI
    runners, and a pair's two runs see the same host.
    """
    return {
        "speedup_p50": {v: _p50_speedup(r) for v, r in records.items()},
        "shapes": {v: r["shape"] for v, r in records.items()},
    }


def check_regression(
    records: dict[str, dict], baseline_path: str, max_regression: float
) -> list[str]:
    """Compare smoke p50 speedups against the committed baseline.

    Returns gate failures.  A baseline file without a ``smoke`` section
    (or a section missing a variant) only warns: the gate must not
    hard-fail the first run after the baseline format changes.
    """
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"WARN: baseline {baseline_path} unreadable ({exc}); "
              "skipping regression gate", file=sys.stderr)
        return []
    base_speedups = baseline.get("smoke", {}).get("speedup_p50")
    if not base_speedups:
        print(f"WARN: baseline {baseline_path} has no smoke section; "
              "skipping regression gate (run --smoke --write-baseline)",
              file=sys.stderr)
        return []
    failures: list[str] = []
    for variant, record in records.items():
        base = base_speedups.get(variant)
        if base is None:
            print(f"WARN: baseline has no smoke entry for {variant}; "
                  "skipping it", file=sys.stderr)
            continue
        now = _p50_speedup(record)
        floor = base * (1.0 - max_regression)
        verdict = "ok" if now >= floor else "REGRESSION"
        print(
            f"{variant:6s} p50 speedup {now:.2f}x vs baseline {base:.2f}x "
            f"(floor {floor:.2f}x at -{max_regression:.0%}): {verdict}"
        )
        if now < floor:
            failures.append(
                f"{variant}: p50 speedup regressed to {now:.2f}x, below "
                f"the {floor:.2f}x floor ({base:.2f}x baseline minus "
                f"{max_regression:.0%} allowance)"
            )
    return failures


def write_smoke_baseline(records: dict[str, dict], json_path: str) -> None:
    """Refresh the ``smoke`` section of the trajectory file in place.

    The full-mode payload (paper-sized per-variant records) is kept as
    is when the file already exists; only the smoke block is replaced.
    """
    try:
        with open(json_path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        payload = {"benchmark": "bench_engine"}
    payload["smoke"] = smoke_section(records)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote smoke baseline section to {json_path}")


def smoke(
    baseline: str | None = None,
    max_regression: float = 0.25,
    write_baseline: str | None = None,
) -> int:
    """Fast engine regression check for CI (no benchmark harness).

    Verifies result/statistics equivalence on small blocks for a
    single- and a double-buffered variant and fails if the vectorized
    engine is not faster than the device engine.  With ``baseline``
    set, additionally gates the p50 speedup of each case against the
    committed trajectory file (see :func:`check_regression`).
    """
    records, failures = measure_smoke()
    speedups = {v: r["speedup"] for v, r in records.items()}
    if baseline is not None:
        failures.extend(check_regression(records, baseline, max_regression))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        summary = ", ".join(f"{v} {s:.1f}x" for v, s in speedups.items())
        print(f"engine smoke OK: results and stats match; {summary}")
        if write_baseline is not None:
            write_smoke_baseline(records, write_baseline)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the fast CI regression check and exit",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="BENCH_engine.json",
        help="trajectory file to write in full mode (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="smoke mode: gate p50 speedups against this trajectory file",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25, metavar="FRAC",
        help="smoke gate: allowed fractional p50-speedup loss vs the "
             "baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--write-baseline", nargs="?", const="BENCH_engine.json",
        metavar="PATH",
        help="smoke mode: refresh the smoke section of PATH (default "
             "BENCH_engine.json) after a passing run",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be in [0, 1)")
    if args.smoke:
        return smoke(args.baseline, args.max_regression, args.write_baseline)
    if args.baseline or args.write_baseline:
        parser.error("--baseline/--write-baseline require --smoke")
    return full(args.json)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

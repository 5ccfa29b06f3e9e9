"""Self-tests of the benchmark: determinism, the union rule, the metric contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The workload runs here are a few ops long; they check that a seed fixes
every count and modeled figure, not how fast anything is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

import run

run.import_program()

import ledger  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((run.HERE / "workloads.json").read_text())["workloads"]
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

#: per-layer counters that must repeat exactly for a seed on every workload.
EXACT = (
    "arch.dma_bytes", "arch.dma_transactions", "arch.regcomm_bytes",
    "perf.modeled_ms", "engine.plan_builds", "resil.retries",
    "resil.fallbacks", "serve.rejected", "serve.cache_hit_ratio",
)
#: staging counters: exact on the closed loops; on serve-open they follow
#: how the coalescing window happened to group requests.
STAGING = ("context.allocations", "context.plan_hits", "context.pad_ratio")


@dataclass(frozen=True)
class _Span:
    name: str
    start: float
    end: float
    index: int
    parent: int | None


def _run(name: str, seed: int, trace: bool) -> wl.Outcome:
    cfg = CONFIG[name]
    if name == "serve-open":
        load = wl.ServeOpen(seed, 60, 1.5, cfg["repeat_share"])
        return wl.run_serve(
            load, cold_starts=1, latency_limit_ms=cfg["latency_limit_ms"], trace=trace,
        )
    load = (wl.ScalarSquare if name == "scalar-square" else wl.BatchSharedA)(seed)
    return wl.run_closed(
        load, n_ops=4, cold_starts=1, tax_limit=cfg["tax_limit"], trace=trace,
    )


@lru_cache(maxsize=None)
def _pair(name: str, trace: bool) -> tuple[wl.Outcome, wl.Outcome]:
    return _run(name, 5, trace), _run(name, 5, trace)


def test_union_rule_with_overlapping_children():
    # two CG workers overlap inside one batch; a third child pokes out
    # of the parent and is clipped to it.
    spans = [
        _Span("session.batch", 0.0, 10.0, 0, None),
        _Span("cg_dispatch", 1.0, 6.0, 1, 0),
        _Span("cg_dispatch", 3.0, 8.0, 2, 0),
        _Span("cg_dispatch", 9.0, 12.0, 3, 0),
    ]
    selfs = ledger.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert selfs[1] == pytest.approx(5.0)
    # subtracting the plain sum would have gone negative
    assert 10.0 - (5.0 + 5.0 + 3.0) < 0 <= selfs[0]


def test_union_length_merges_nested_and_touching_intervals():
    assert ledger.union_length([(0, 2), (1, 3), (3, 4), (0.5, 1), (6, 5)]) == 4
    assert ledger.union_length([]) == 0


def test_residue_is_the_uncovered_share_of_each_root():
    spans = [
        _Span("bench.session", 0.0, 10.0, 0, None),
        _Span("dgemm", 1.0, 5.0, 1, 0),
        _Span("stage_A", 1.0, 2.0, 2, 1),
        _Span("cg_dispatch", 4.0, 9.0, 3, 0),
        _Span("bench.session", 20.0, 30.0, 4, None),
        _Span("dgemm", 20.0, 30.0, 5, 4),
    ]
    # root 1: [1, 9] covered of 10; root 2: all of 10
    assert ledger.residue_ratio(spans) == pytest.approx(1.0 - 18.0 / 20.0)
    layers = ledger.layer_seconds(spans)
    assert layers["engine.dgemm_self_ms"] == pytest.approx(3.0 + 10.0)
    assert layers["session.self_ms"] == pytest.approx(2.0 + 0.0)


def test_schedule_and_contents_repeat_for_a_seed():
    a, b = wl.ServeOpen(3, 200, 5.0, 0.25), wl.ServeOpen(3, 200, 5.0, 0.25)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert a.source == b.source and a.entry == b.entry
    repeats = [i for i in range(len(a)) if a.is_repeat(i)]
    assert 0.1 * len(a) < len(repeats) < 0.3 * len(a)
    hashes = {}
    for i in range(len(a)):
        digest = a.request(i)[0].content_hash()
        assert digest == b.request(i)[0].content_hash()
        hashes.setdefault(digest, set()).add(a.source[i])
        if a.is_repeat(i):
            gap = a.arrivals[i] - a.arrivals[a.source[i]]
            assert wl.REPEAT_WINDOW[0] <= gap <= wl.REPEAT_WINDOW[1]
    # only deliberate repeats share contents
    assert all(len(sources) == 1 for sources in hashes.values())
    assert len(hashes) == len(a) - len(repeats)


def test_freivalds_flags_a_single_wrong_element():
    load = wl.ServeOpen(1, 8, 1.0, 0.0)
    for i in range(len(load)):
        request, x = load.request(i)
        good = wl._floor(request)
        assert wl.freivalds_ok(request, good, x)
        bad = good.copy()
        bad[-1, int(np.argmax(np.abs(x)))] += 1e-4
        assert not wl.freivalds_ok(request, bad, x)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_runs_print_every_end_to_end_metric_and_repeat(name):
    first, second = _pair(name, False)
    assert set(first.metrics) == END_TO_END
    assert first.failed == 0 and first.attempted == second.attempted
    for key in ("ok_ratio", "modeled_gflops"):
        assert first.metrics[key] == second.metrics[key]
    assert all(value > 0 for value, _ in first.metrics.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_runs_print_every_layer_and_counts_repeat(name):
    first, second = _pair(name, True)
    assert set(first.metrics) == PER_LAYER
    assert first.failed == 0 and first.attempted == second.attempted
    exact = EXACT if name == "serve-open" else EXACT + STAGING
    for key in exact:
        assert first.metrics[key] == second.metrics[key], key
    assert first.metrics["arch.dma_bytes"][0] > 0

"""Staging cost of batched DGEMM under the plan cache.

Not a paper artifact — this measures the *library*: what the scoped
``ExecutionContext`` buys on a same-shape batch. A warm context restages
every operand in place (zero fresh allocations in the model; these
Fortran-ordered operands are bound, not copied), where per-call
contexts re-allocate all three slots every item. The printed counter table is the evidence; the timing shows the
allocation churn is also measurable wall-clock.
"""

import numpy as np
import pytest

from repro.arch.core_group import CoreGroup
from repro.api import GemmRequest
from repro.core.context import ExecutionContext
from repro.core.params import BlockingParams
from repro.multi.processor import SW26010Processor
from repro.multi.scheduler import CGScheduler
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)
ITEMS = 8


def make_items() -> list[GemmRequest]:
    return [
        GemmRequest(*gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=s))
        for s in range(ITEMS)
    ]


def test_batch_staging_warm_context(benchmark, show):
    items = make_items()

    def run():
        cg = CoreGroup()
        with ExecutionContext(cg) as ctx:
            for item in items:
                ctx.stage("A", item.a)
                ctx.stage("B", item.b)
                ctx.stage("C", item.c)
        return cg.memory.stats

    stats = benchmark(run)
    show(
        f"warm context, {ITEMS} same-shape items: "
        f"{stats.allocations} allocations, "
        f"{stats.in_place_stores} in-place restores "
        f"(one allocation per operand slot)"
    )
    assert stats.allocations == 3
    assert stats.in_place_stores == 3 * (ITEMS - 1)


def test_batch_staging_counters_via_scheduler(show):
    """The same reuse holds through the public batch entry point."""
    proc = SW26010Processor()
    with CGScheduler(proc, n_core_groups=1, params=PARAMS) as scheduler:
        scheduler.run(make_items())
    stats = proc.cg(0).memory.stats
    show(
        f"1-CG CGScheduler, {ITEMS} same-shape items: "
        f"{stats.allocations} allocations, "
        f"{stats.in_place_stores} in-place restores"
    )
    assert stats.allocations == 3
    assert stats.in_place_stores == 3 * (ITEMS - 1)


def test_batch_staging_cold_contexts(benchmark, show):
    """Baseline: a fresh context per item, as separate dgemm calls get."""
    items = make_items()

    def run():
        cg = CoreGroup()
        for item in items:
            with ExecutionContext(cg) as ctx:
                ctx.stage("A", item.a)
                ctx.stage("B", item.b)
                ctx.stage("C", item.c)
        return cg.memory.stats

    stats = benchmark(run)
    show(
        f"cold contexts, {ITEMS} same-shape items: "
        f"{stats.allocations} allocations, "
        f"{stats.in_place_stores} in-place restores"
    )
    assert stats.allocations == 3 * ITEMS
    assert stats.in_place_stores == 0


def test_single_copy_staging(benchmark):
    """Staging a C-order operand costs exactly one host copy."""
    cg = CoreGroup()
    a = np.ascontiguousarray(np.arange(128.0 * 128).reshape(128, 128))

    def run():
        with ExecutionContext(cg) as ctx:
            ctx.stage("A", a)
        return cg.memory.stats.allocations

    benchmark(run)
    per_call = cg.memory.stats.allocations / cg.memory.stats.stores
    assert per_call == 1.0

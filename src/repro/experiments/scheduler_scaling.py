"""E10 (extension) — batch-scheduler scaling across 1..4 core groups.

:mod:`repro.experiments.multi_cg_scaling` splits *one* big GEMM across
the chip; this experiment models the other route to full-chip
utilization: a *stream of independent GEMMs* (LU trailing updates,
convolution layers, served inference traffic) dispatched by
:class:`~repro.multi.scheduler.CGScheduler`.  Items need no inter-CG
communication at all, so the question is purely how well longest-first,
least-modeled-load dispatch balances a mixed-shape batch.

Planning uses :meth:`CGScheduler.plan_shapes`, which needs only the
``(m, n, k)`` tuples — so the sweep runs at paper scale without
allocating a single matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import BlockingParams
from repro.multi.scheduler import CGScheduler, SchedulePlan
from repro.utils.format import Table

__all__ = ["SchedulerScalingResult", "paper_mixed_shapes", "run", "render"]

#: pool sizes swept (the 1-CG pool is the serial baseline).
POOLS = (1, 2, 3, 4)

#: recurring paper-scale shapes, weighted like a served mixed workload:
#: square compute-bound items, skinny panel-like items, and a few
#: non-multiples that exercise the padding path.
_SHAPE_MIX = (
    ((2048, 2048, 2048), 6),
    ((4096, 1024, 3072), 4),
    ((1024, 4096, 2048), 4),
    ((8192, 512, 1024), 2),
    ((3000, 1500, 2500), 4),   # not block-multiples: pads up
    ((512, 512, 8192), 4),
)


def paper_mixed_shapes(repeats: int = 1) -> tuple[tuple[int, int, int], ...]:
    """The experiment's mixed-shape stream (interleaved, deterministic)."""
    stream: list[tuple[int, int, int]] = []
    for _ in range(repeats):
        remaining = [[shape, count] for shape, count in _SHAPE_MIX]
        while any(count for _, count in remaining):
            for entry in remaining:
                if entry[1]:
                    stream.append(entry[0])
                    entry[1] -= 1
    return tuple(stream)


@dataclass(frozen=True)
class SchedulerScalingResult:
    shapes: tuple[tuple[int, int, int], ...]
    pools: tuple[int, ...]
    plans: tuple[SchedulePlan, ...]

    def plan_for(self, pool: int) -> SchedulePlan:
        for p, plan in zip(self.pools, self.plans):
            if p == pool:
                return plan
        raise KeyError(pool)

    @property
    def speedup_at_4(self) -> float:
        return self.plan_for(4).modeled_speedup


def run(
    repeats: int = 1,
    pools: tuple[int, ...] = POOLS,
    params: BlockingParams | None = None,
) -> SchedulerScalingResult:
    shapes = paper_mixed_shapes(repeats)
    params = params or BlockingParams.paper_double()
    plans = tuple(
        CGScheduler(n_core_groups=pool, params=params).plan_shapes(shapes)
        for pool in pools
    )
    return SchedulerScalingResult(shapes=shapes, pools=tuple(pools), plans=plans)


def render(result: SchedulerScalingResult | None = None) -> Table:
    result = result or run()
    table = Table(
        ["CG pool", "makespan (ms)", "speedup", "load balance",
         "busiest CG (ms)", "idlest CG (ms)"],
        title=f"E10 — CGScheduler scaling on a {len(result.shapes)}-item "
              "mixed-shape batch (modeled; extension)",
    )
    for pool, plan in zip(result.pools, result.plans):
        table.add_row([
            pool,
            f"{plan.makespan_seconds * 1e3:.2f}",
            f"{plan.modeled_speedup:.2f}x",
            f"{100 * plan.load_balance_efficiency:.1f}%",
            f"{max(plan.cg_seconds) * 1e3:.2f}",
            f"{min(plan.cg_seconds) * 1e3:.2f}",
        ])
    return table

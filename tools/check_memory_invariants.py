#!/usr/bin/env python
"""Smoke-check the staging lifecycle invariants on a shared CoreGroup.

Run as ``PYTHONPATH=src python tools/check_memory_invariants.py``.
Exercises dgemm and a one-CG CGScheduler batch against one device and
verifies the guarantees the ExecutionContext refactor made contractual:

1. used_bytes returns exactly to its pre-call value,
2. no staging handles survive a call, including a batch whose item
   fails staging partway through,
3. a same-shape batch allocates each operand slot once and restages
   the rest in place,
4. the multi-CG pool (CGScheduler / dgemm_multi_cg / Session) returns
   **every** core group's used_bytes to its pre-run baseline — with and
   without a failing item in the batch,
5. the execution-plan cache keeps its resident bytes within the
   LDM-derived budget while in use (evicting LRU signatures when a
   tiny budget forces it) and drains to zero plans / zero bytes on
   ``Session.close()`` / ``CGScheduler.close()``,
6. padding lives in the model: a padded odd-shape dgemm on a fresh
   CoreGroup peaks at the logical footprint on the fused
   ``vectorized`` engine and at the padded footprint on ``device`` and
   ``stepwise``, whose per-CPE tiles read the zeros; a padded
   ``dgemm_multi_cg`` peaks at the logical footprint on every CG.

The single-CG checks run under **all three execution engines** (device,
vectorized and stepwise): the lifecycle guarantees must hold
identically whichever engine executes the multiply, even though the
staged footprint differs by engine.

Exits non-zero with a diagnostic on the first violation, so CI can run
it alongside the unit suite as a fast end-to-end guard.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from repro.arch.config import DEFAULT_SPEC
from repro.arch.core_group import CoreGroup
from repro.api import GemmRequest
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.multi.dgemm4 import dgemm_multi_cg
from repro.multi.processor import SW26010Processor
from repro.multi.scheduler import CGScheduler
from repro.workloads.matrices import gemm_operands, mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)
#: 16 MiB per CG holds every small-blocking workload here but not
#: :data:`UNSTAGEABLE`.
SMALL_SPEC = replace(DEFAULT_SPEC, main_memory_bytes=16 * 2**20)
#: its 32 MiB B outgrows a SMALL_SPEC CG, so staging refuses the item
#: after its A is staged (a broadcast view keeps the host copy out).
UNSTAGEABLE = GemmRequest(np.ones((PARAMS.b_m, PARAMS.b_k)),
                          np.broadcast_to(1.0, (PARAMS.b_k, 32768)))

_failures: list[str] = []


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures.append(message)


def main() -> int:
    single = SW26010Processor(SMALL_SPEC)
    cg = single.cg(0)
    cg.memory.store("user.resident", np.ones((16, 16)))
    baseline = cg.memory.used_bytes
    resident = sorted(h.name for h in cg.memory.handles())

    for engine in ("device", "vectorized", "stepwise"):
        print(f"single dgemm on a shared CoreGroup [{engine} engine]:")
        a, b, c = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=0)
        out = dgemm(a, b, c, beta=1.0, params=PARAMS, core_group=cg,
                    engine=engine)
        check(np.allclose(out, a @ b + c, rtol=1e-11, atol=1e-8),
              "result matches numpy")
        check(cg.memory.used_bytes == baseline, "used_bytes back to baseline")
        check(sorted(h.name for h in cg.memory.handles()) == resident,
              "handle set unchanged")

        print(f"odd-shape padded dgemm [{engine} engine]:")
        a2, b2, _ = gemm_operands(100, 30, 50, seed=1)
        dgemm(a2, b2, params=PARAMS, core_group=cg, pad=True, engine=engine)
        check(cg.memory.used_bytes == baseline, "used_bytes back to baseline")
        fresh = CoreGroup()
        dgemm(a2, b2, params=PARAMS, core_group=fresh, pad=True,
              engine=engine)
        if engine == "vectorized":
            extents, what = (100, 30, 50), "logical"
        else:
            extents, what = PARAMS.pad_shape(100, 30, 50), "padded"
        m, n, k = extents
        want = 8 * (m * k + k * n + m * n)
        check(fresh.memory.peak_bytes == want,
              f"staging peaks at the {what} footprint "
              f"(got {fresh.memory.peak_bytes} B, want {want} B)")

        print(f"same-shape batch reuses staging allocations [{engine} engine]:")
        items = [
            GemmRequest(*gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k,
                                     seed=s)[:2])
            for s in range(4)
        ]
        allocs_before = cg.memory.stats.allocations
        with CGScheduler(single, n_core_groups=1, params=PARAMS,
                         engine=engine) as scheduler:
            scheduler.run(items, isolate_failures=False)
        new_allocs = cg.memory.stats.allocations - allocs_before
        check(new_allocs == 3,
              f"one allocation per operand slot (got {new_allocs}, want 3)")
        check(cg.memory.used_bytes == baseline, "used_bytes back to baseline")
        check(sorted(h.name for h in cg.memory.handles()) == resident,
              "handle set unchanged")

        print(f"staging failure mid-batch still frees its staging "
              f"[{engine} engine]:")
        stores_before = cg.memory.stats.stores
        try:
            with CGScheduler(single, n_core_groups=1, params=PARAMS,
                             engine=engine) as scheduler:
                scheduler.run([items[0], UNSTAGEABLE, items[1]],
                              isolate_failures=False)
        except MemoryError:
            pass
        else:
            check(False, "unstageable batch item raised MemoryError")
        check(cg.memory.stats.stores - stores_before == 5,
              "the failure came from staging: item 0's A, B and C, then "
              "item 1's A and its refused B")
        check(cg.memory.used_bytes == baseline,
              "used_bytes back to baseline after raise")
        check(sorted(h.name for h in cg.memory.handles()) == resident,
              "handle set unchanged after raise")

    print("multi-CG pool run restores every CG's baseline:")
    proc = SW26010Processor()
    proc.cg(2).memory.store("user.resident", np.ones((16, 16)))
    baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
    scheduler = CGScheduler(proc, params=PARAMS)
    result = scheduler.run(mixed_batch(8, params=PARAMS, seed=0))
    check(result.ok, "pool run completed without item errors")
    check([proc.cg(g).memory.used_bytes for g in range(4)] == baselines,
          "all four CG byte budgets back to baseline")

    print("pool run with a failing item still restores baselines:")
    small = SW26010Processor(SMALL_SPEC)
    small.cg(2).memory.store("user.resident", np.ones((16, 16)))
    small_baselines = [small.cg(g).memory.used_bytes for g in range(4)]
    bad_items = mixed_batch(6, params=PARAMS, seed=1)
    bad_items[3] = UNSTAGEABLE
    result = CGScheduler(small, params=PARAMS).run(bad_items)
    check(len(result.errors) == 1 and result.errors[0].index == 3
          and result.errors[0].kind == "MemoryError",
          "failure isolated to the offending item")
    check([small.cg(g).memory.used_bytes for g in range(4)]
          == small_baselines,
          "all four CG byte budgets back to baseline after item failure")

    print("dgemm_multi_cg broadcast operands are freed:")
    a4, b4, _ = gemm_operands(2 * PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k,
                              seed=2)
    dgemm_multi_cg(a4, b4, params=PARAMS, processor=proc)
    check([proc.cg(g).memory.used_bytes for g in range(4)] == baselines,
          "all four CG byte budgets back to baseline")

    print("padded dgemm_multi_cg stages logical extents on every CG:")
    m, n, k = 160, 320, 257
    a5, b5, _ = gemm_operands(m, n, k, seed=3)
    fresh = SW26010Processor()
    dgemm_multi_cg(a5, b5, processor=fresh, pad=True)
    # broadcast A + staged A + this CG's B and C panels
    want = 8 * (2 * m * k + k * (n // 4) + m * (n // 4))
    peaks = [fresh.cg(g).memory.peak_bytes for g in range(4)]
    check(peaks == [want] * 4,
          f"every CG peaks at the logical footprint "
          f"(got {peaks} B, want {want} B)")

    print("closing a Session frees its warm staging:")
    session = Session(processor=proc, params=PARAMS)
    session.dgemm(a, b)
    session.batch(mixed_batch(4, params=PARAMS, seed=3))
    session.close()
    check([proc.cg(g).memory.used_bytes for g in range(4)] == baselines,
          "all four CG byte budgets back to baseline after close()")

    print("plan cache stays within its LDM budget and drains on close():")
    plan_session = Session(processor=proc, params=PARAMS, engine="stepwise")
    plan_session.batch(mixed_batch(6, params=PARAMS, seed=5), parallel=True)
    stats = plan_session.plan_cache.stats()
    check(stats.builds >= 1, "stepwise batch compiled at least one plan")
    check(stats.bytes <= plan_session.plan_cache.max_bytes,
          f"resident plan bytes within the LDM budget "
          f"({stats.bytes} <= {plan_session.plan_cache.max_bytes})")
    plan_session.close()
    drained = plan_session.plan_cache.stats()
    check(drained.plans == 0 and drained.bytes == 0,
          "Session.close() drained the plan cache to zero plans / bytes")
    check([proc.cg(g).memory.used_bytes for g in range(4)] == baselines,
          "all four CG byte budgets back to baseline after stepwise close()")

    print("a starved plan-cache budget evicts instead of accumulating:")
    from repro.core.engine import PlanCache

    tiny = PlanCache(max_bytes=1)
    starved = CGScheduler(proc, params=PARAMS, engine="stepwise",
                          plan_cache=tiny)
    starved.run(mixed_batch(6, params=PARAMS, seed=6))
    stats = tiny.stats()
    check(stats.plans == 1,
          f"1-byte budget keeps a single resident plan (got {stats.plans})")
    check(stats.evictions >= 1,
          f"over-budget inserts evicted LRU plans (got {stats.evictions})")
    starved.close()
    drained = tiny.stats()
    check(drained.plans == 0 and drained.bytes == 0,
          "CGScheduler.close() drained the starved cache too")

    if _failures:
        print(f"\n{len(_failures)} invariant violation(s)")
        return 1
    print("\nall memory invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Smoke-check the staging lifecycle invariants on a shared CoreGroup.

Run as ``PYTHONPATH=src python tools/check_memory_invariants.py``.
Exercises dgemm and dgemm_batch against one device and verifies the
guarantees the ExecutionContext refactor made contractual:

1. used_bytes returns exactly to its pre-call value,
2. no staging handles survive a call (including a failing one),
3. a same-shape batch allocates each operand slot once and restages
   the rest in place,
4. the multi-CG pool (CGScheduler / dgemm_multi_cg / Session) returns
   **every** core group's used_bytes to its pre-run baseline — with and
   without a failing item in the batch,
5. fault-injected runs (retries, engine fallback, CG quarantine,
   exhausted items) leak nothing either: every failed or re-run
   attempt restages from the host arrays and frees on exit, so the
   byte budgets return to baseline however the recovery ladder ends.

6. the execution-plan cache keeps its resident bytes within the
   LDM-derived budget while in use (evicting LRU signatures when a
   tiny budget forces it) and drains to zero plans / zero bytes on
   ``Session.close()`` / ``CGScheduler.close()``.

The single-CG checks run under **all three execution engines** (device,
vectorized and stepwise): staging is engine-independent, so the
lifecycle guarantees must hold identically whichever engine executes
the multiply.

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
from repro.core.batch import dgemm_batch
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.multi.dgemm4 import dgemm_multi_cg
from repro.multi.processor import SW26010Processor
from repro.multi.scheduler import CGScheduler
from repro.workloads.matrices import gemm_operands, mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)

_failures: list[str] = []


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures.append(message)


def main() -> int:
    cg = CoreGroup()
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

        print(f"same-shape batch reuses staging allocations [{engine} engine]:")
        items = [
            GemmRequest(*gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k,
                                     seed=s)[:2])
            for s in range(4)
        ]
        allocs_before = cg.memory.stats.allocations
        dgemm_batch(items, params=PARAMS, core_group=cg, engine=engine)
        new_allocs = cg.memory.stats.allocations - allocs_before
        check(new_allocs == 3,
              f"one allocation per operand slot (got {new_allocs}, want 3)")
        check(cg.memory.used_bytes == baseline, "used_bytes back to baseline")
        check(sorted(h.name for h in cg.memory.handles()) == resident,
              "handle set unchanged")

        print(f"failing call still frees its staging [{engine} engine]:")
        try:
            dgemm_batch([items[0], ("not", "an item")],  # type: ignore[list-item]
                        params=PARAMS, core_group=cg, engine=engine)
        except Exception:
            pass
        else:
            check(False, "malformed batch item raised")
        check(cg.memory.used_bytes == baseline,
              "used_bytes back to baseline after raise")

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
    # 16 MiB per CG holds the mixed batch but not item 3's 32 MiB B, so
    # staging refuses that item after its A is staged (a broadcast view
    # keeps the host copy out of it).
    small = SW26010Processor(replace(DEFAULT_SPEC, main_memory_bytes=16 * 2**20))
    small.cg(2).memory.store("user.resident", np.ones((16, 16)))
    small_baselines = [small.cg(g).memory.used_bytes for g in range(4)]
    bad_items = mixed_batch(6, params=PARAMS, seed=1)
    bad_items[3] = GemmRequest(np.ones((PARAMS.b_m, PARAMS.b_k)),
                               np.broadcast_to(1.0, (PARAMS.b_k, 32768)))
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

    print("fault-injected pool runs restore every CG's baseline:")
    from repro.resil import FaultInjector, FaultSpec, RetryPolicy

    chaos_items = mixed_batch(6, params=PARAMS, seed=4)
    injector = FaultInjector(
        [FaultSpec("dma.get", nth=2), FaultSpec("memory.store", nth=5),
         FaultSpec("cg", nth=1, cg=1)]
    )
    with Session(processor=proc, params=PARAMS, injector=injector) as s:
        result = s.batch(chaos_items)
    check(result.ok and len(result.recovered) >= 1,
          "faulted items recovered through the retry/quarantine ladder")
    check([proc.cg(g).memory.used_bytes for g in range(4)] == baselines,
          "all four CG byte budgets back to baseline after recovery")

    injector = FaultInjector([FaultSpec("compute", probability=1.0)])
    with Session(processor=proc, params=PARAMS, injector=injector,
                 retry_policy=RetryPolicy(max_retries=1),
                 fallback_engine=None) as s:
        result = s.batch(chaos_items)
    check(len(result.errors) == len(chaos_items),
          "persistent fault exhausts every item's ladder")
    check([proc.cg(g).memory.used_bytes for g in range(4)] == baselines,
          "all four CG byte budgets back to baseline after exhaustion")

    if _failures:
        print(f"\n{len(_failures)} invariant violation(s)")
        return 1
    print("\nall memory invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Unit tests for the execution-plan layer (plans.py).

The cache contracts under test: one build per signature no matter how
many threads race, LRU eviction bounded by the LDM-derived byte budget,
counters that reconcile (``builds == misses``), and drain-on-close
through ``Session``/``CGScheduler``.
"""

import threading

import numpy as np
import pytest

from repro.api import GemmRequest
from repro.arch.config import DEFAULT_SPEC
from repro.core.engine.plans import (
    IndexPlan,
    PlanCache,
    default_plan_cache,
)
from repro.core.params import GRID, BlockingParams
from repro.core.session import Session
from repro.core.sharing import Scheme, step_owner_indices, step_owner_slots
from repro.core.variants import get_variant
from repro.errors import ConfigError
from repro.multi.scheduler import CGScheduler
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)
SCHED = get_variant("SCHED")


def _shape(mult=1):
    return (mult * PARAMS.b_m, mult * PARAMS.b_n, mult * PARAMS.b_k)


class TestOwnerSlots:
    @pytest.mark.parametrize("scheme", [Scheme.PE, Scheme.ROW])
    def test_expand_reproduces_full_tables(self, scheme):
        slots = step_owner_slots(scheme)
        full_a, full_b = step_owner_indices(scheme)
        exp_a, exp_b = slots.expand()
        assert np.array_equal(exp_a, full_a)
        assert np.array_equal(exp_b, full_b)

    def test_slots_are_immutable(self):
        slots = step_owner_slots(Scheme.PE)
        with pytest.raises(ValueError):
            slots.a_slots[0, 0] = 7


class TestIndexPlan:
    def test_build_freezes_tables_and_sizes(self):
        cache = PlanCache()
        plan = cache.get_or_build(SCHED, PARAMS, *_shape())
        assert isinstance(plan, IndexPlan)
        for table in (plan.owner_a, plan.owner_b, plan.m_origins,
                      plan.n_origins, plan.k_origins):
            assert not table.flags.writeable
            assert table.dtype == np.int32
        assert plan.owner_a.shape == (GRID, GRID * GRID)
        assert plan.nbytes > 0
        assert plan.a4_shape == (GRID, GRID, PARAMS.p_m, PARAMS.p_k)
        assert plan.c4_shape == (GRID, GRID, PARAMS.p_m, PARAMS.p_n)

    @pytest.mark.parametrize("variant", ["PE", "ROW", "DB", "SCHED"])
    def test_step_views_match_gather_tables(self, variant):
        """A step's broadcast views multiply exactly the tile pairs the
        full gather tables name — per step, per mesh position."""
        impl = get_variant(variant)
        p = BlockingParams.small(
            double_buffered=impl.traits.double_buffered)
        cache = PlanCache()
        plan = cache.get_or_build(impl, p, p.b_m, p.b_n, p.b_k)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((GRID * GRID, p.p_m, p.p_k))
        b = rng.standard_normal((GRID * GRID, p.p_k, p.p_n))
        a4 = a.reshape(plan.a4_shape)
        b4 = b.reshape(plan.b4_shape)
        idx_a, idx_b = step_owner_indices(impl.scheme)
        for step in range(GRID):
            av, bv = plan.step_views(a4, b4, step)
            prod = np.matmul(av, bv).reshape(GRID * GRID, p.p_m, p.p_n)
            expected = np.matmul(a[idx_a[step]], b[idx_b[step]])
            assert np.array_equal(prod, expected)


class TestPlanCache:
    def test_one_build_then_hits(self):
        cache = PlanCache()
        first = cache.get_or_build(SCHED, PARAMS, *_shape())
        second = cache.get_or_build(SCHED, PARAMS, *_shape())
        assert first is second
        stats = cache.stats()
        assert stats.builds == 1 == stats.misses
        assert stats.hits == 1
        assert stats.plans == 1
        assert stats.bytes == first.nbytes

    def test_distinct_signatures_build_separately(self):
        cache = PlanCache()
        small = cache.get_or_build(SCHED, PARAMS, *_shape())
        big = cache.get_or_build(SCHED, PARAMS, *_shape(2))
        assert small is not big
        assert cache.stats().builds == 2
        pe = get_variant("PE")
        cache.get_or_build(
            pe, BlockingParams.small(double_buffered=False), *_shape())
        assert cache.stats().builds == 3

    def test_default_budget_models_ldm_pressure(self):
        assert PlanCache().max_bytes == DEFAULT_SPEC.ldm_doubles * 8
        assert (PlanCache(n_core_groups=4).max_bytes
                == 4 * DEFAULT_SPEC.ldm_doubles * 8)

    def test_eviction_at_one_byte_budget(self):
        """A 1-byte budget keeps exactly the most recent plan: every
        new signature evicts the previous one, and the single resident
        plan may exceed the budget (it must still execute)."""
        cache = PlanCache(max_bytes=1)
        first = cache.get_or_build(SCHED, PARAMS, *_shape())
        assert cache.stats().plans == 1       # oversized but resident
        assert cache.stats().bytes == first.nbytes > cache.max_bytes
        second = cache.get_or_build(SCHED, PARAMS, *_shape(2))
        stats = cache.stats()
        assert stats.plans == 1
        assert stats.evictions == 1
        assert stats.bytes == second.nbytes
        # the evicted signature rebuilds on next use
        cache.get_or_build(SCHED, PARAMS, *_shape())
        assert cache.stats().builds == 3

    def test_eviction_is_lru(self):
        cache = PlanCache()
        a = cache.get_or_build(SCHED, PARAMS, *_shape())
        b = cache.get_or_build(SCHED, PARAMS, *_shape(2))
        # touch `a` so `b` is the cold entry, then shrink the budget to
        # force one eviction on the next insert (with slack for the new
        # plan's slightly larger origin tables).
        cache.get_or_build(SCHED, PARAMS, *_shape())
        cache.max_bytes = a.nbytes + b.nbytes + 128
        cache.get_or_build(SCHED, PARAMS, *_shape(3))
        assert cache.stats().evictions == 1
        cache.get_or_build(SCHED, PARAMS, *_shape())      # `a` survived
        cache.get_or_build(SCHED, PARAMS, *_shape(2))     # `b` rebuilt
        stats = cache.stats()
        assert stats.builds == 4

    def test_clear_drains_without_counting_evictions(self):
        cache = PlanCache()
        cache.get_or_build(SCHED, PARAMS, *_shape())
        cache.clear()
        stats = cache.stats()
        assert stats.plans == 0 and stats.bytes == 0
        assert stats.evictions == 0
        assert len(cache) == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigError):
            PlanCache(n_core_groups=0)
        with pytest.raises(ConfigError):
            PlanCache(max_bytes=0)

    def test_four_workers_one_build(self):
        """Four threads racing on one signature produce exactly one
        build and share the identical plan object."""
        cache = PlanCache(n_core_groups=4)
        barrier = threading.Barrier(4)
        plans = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            plan = cache.get_or_build(SCHED, PARAMS, *_shape())
            with lock:
                plans.append(plan)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(plans) == 4
        assert all(p is plans[0] for p in plans)
        stats = cache.stats()
        assert stats.builds == 1
        assert stats.hits == 3

    def test_default_cache_is_process_wide(self):
        assert default_plan_cache() is default_plan_cache()


class TestBatchRegression:
    def test_one_build_per_signature_across_a_batch(self):
        """The bug the plan cache fixes: the stepwise engine used to
        re-derive its owner tables on every call even when one batch
        repeats a single shape.  Now a repeated-shape batch compiles
        exactly one plan and hits it for every other item."""
        m, n, k = _shape()
        items = [
            GemmRequest(*gemm_operands(m, n, k, seed=s)[:2]) for s in range(4)
        ]
        cache = PlanCache()
        result = CGScheduler(n_core_groups=1, engine="stepwise",
                             params=PARAMS, plan_cache=cache).run(items)
        assert len(result.outputs) == 4
        stats = cache.stats()
        assert stats.builds == 1 == stats.misses
        assert stats.hits == 3


class TestSessionIntegration:
    def test_parallel_batches_hit_shared_cache_and_close_drains(self):
        """Repeated ``Session.batch(parallel=True)`` waves build each
        plan once and hit it thereafter — across all CG worker threads
        — and ``Session.close`` drains the cache to zero bytes."""
        m, n, k = _shape()
        items = [
            GemmRequest(*gemm_operands(m, n, k, seed=s)[:2]) for s in range(6)
        ]
        session = Session(params=PARAMS, engine="stepwise", n_core_groups=2)
        try:
            session.batch(items, parallel=True)
            after_first = session.plan_cache.stats()
            assert after_first.builds == 1
            assert after_first.hits == len(items) - 1
            session.batch(items, parallel=True)
            after_second = session.plan_cache.stats()
            assert after_second.builds == 1       # warm across batches
            assert after_second.hits == 2 * len(items) - 1
            assert after_second.bytes <= session.plan_cache.max_bytes
        finally:
            session.close()
        drained = session.plan_cache.stats()
        assert drained.plans == 0 and drained.bytes == 0

    def test_scalar_calls_share_the_session_cache(self):
        m, n, k = _shape()
        a, b, _ = gemm_operands(m, n, k, seed=0)
        with Session(params=PARAMS, engine="stepwise",
                     n_core_groups=1) as session:
            session.dgemm(a, b)
            session.dgemm(a, b)
            stats = session.plan_cache.stats()
            assert stats.builds == 1
            assert stats.hits == 1

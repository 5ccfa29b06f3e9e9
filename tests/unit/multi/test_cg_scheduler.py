"""Unit tests for the multi-CG batch scheduler (CGScheduler)."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.api import GemmRequest
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.errors import ConfigError
from repro.multi import CGScheduler, SW26010Processor
from repro.obs import SpanTracer
from repro.workloads.matrices import gemm_operands, mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)

_PLAN_DIMS = st.sampled_from([16, 64, 100, 128, 256, 300])


@pytest.fixture(scope="module")
def planners():
    """One planning-only scheduler per pool size, so hypothesis
    examples share their modeled-seconds caches."""
    return {pool: CGScheduler(n_core_groups=pool, params=PARAMS)
            for pool in range(1, 5)}


def same_shape_items(n, m=None, cols=None, k=None, seed=0):
    m = m or PARAMS.b_m
    cols = cols or PARAMS.b_n
    k = k or PARAMS.b_k
    return [
        GemmRequest(*gemm_operands(m, cols, k, seed=seed + s)[:2])
        for s in range(n)
    ]


class TestConstruction:
    def test_builds_processor_when_missing(self):
        scheduler = CGScheduler(params=PARAMS)
        assert scheduler.n_core_groups == 4
        assert scheduler.processor.N_CORE_GROUPS == 4

    def test_pool_size_validated(self):
        with pytest.raises(ConfigError):
            CGScheduler(n_core_groups=0, params=PARAMS)
        with pytest.raises(ConfigError):
            CGScheduler(n_core_groups=5, params=PARAMS)

    def test_empty_batch_rejected(self):
        scheduler = CGScheduler(params=PARAMS)
        with pytest.raises(ConfigError):
            scheduler.run([])
        with pytest.raises(ConfigError):
            scheduler.plan([])

    def test_unknown_engine_names_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            CGScheduler(params=PARAMS, engine="bogus")
        scheduler = CGScheduler(n_core_groups=2, params=PARAMS)
        with pytest.raises(ConfigError, match="unknown engine"):
            scheduler.run(same_shape_items(2), engine="bogus")


class TestPlanning:
    def test_same_shape_items_bin_but_do_not_starve(self):
        """A uniform batch splits exactly evenly across the pool."""
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        plan = scheduler.plan_shapes([(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)] * 8)
        assert plan.assignments == (0, 1, 2, 3, 0, 1, 2, 3)
        assert max(plan.cg_seconds) == min(plan.cg_seconds)

    @pytest.mark.parametrize("pool", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [1, 5, 8, 11])
    def test_equal_items_differ_by_at_most_one_per_cg(self, pool, count):
        scheduler = CGScheduler(n_core_groups=pool, params=PARAMS)
        plan = scheduler.plan_shapes(
            [(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)] * count
        )
        per_cg = [plan.assignments.count(g) for g in range(pool)]
        assert sum(per_cg) == count
        assert max(per_cg) - min(per_cg) <= 1

    def test_shared_a_batch_splits_four_and_four(self):
        """Eight equal 768x256x768 items: four per CG on a 2-CG pool."""
        plan = CGScheduler(n_core_groups=2).plan_shapes([(768, 256, 768)] * 8)
        assert [plan.assignments.count(g) for g in range(2)] == [4, 4]
        assert plan.load_balance_efficiency == 1.0

    def test_distinct_shapes_spread_least_loaded(self):
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        shapes = [
            (PARAMS.b_m, PARAMS.b_n, PARAMS.b_k),
            (2 * PARAMS.b_m, PARAMS.b_n, PARAMS.b_k),
            (PARAMS.b_m, 2 * PARAMS.b_n, PARAMS.b_k),
            (PARAMS.b_m, PARAMS.b_n, 2 * PARAMS.b_k),
        ]
        plan = scheduler.plan_shapes(shapes)
        # four distinct shapes on an idle pool: one CG each
        assert sorted(plan.assignments) == [0, 1, 2, 3]

    def test_longest_item_is_placed_first(self):
        """A long item at the end of the stream still gets a CG alone."""
        scheduler = CGScheduler(n_core_groups=2, params=PARAMS)
        small = (PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)
        large = (PARAMS.b_m, PARAMS.b_n, 4 * PARAMS.b_k)
        plan = scheduler.plan_shapes([small] * 3 + [large])
        assert plan.assignments == (1, 1, 1, 0)
        assert plan.makespan_seconds == plan.item_seconds[-1]

    def test_each_cg_runs_its_items_in_input_order(self):
        """Placement is longest-first; each CG's queue stays in order."""
        tracer = SpanTracer()
        scheduler = CGScheduler(n_core_groups=2, params=PARAMS,
                                tracer=tracer)
        items = mixed_batch(8, params=PARAMS, seed=3)
        result = scheduler.run(items, parallel=True)
        assert result.ok
        spans = sorted(tracer.by_name("cg_dispatch"), key=lambda s: s.start)
        for g in range(2):
            ran = [s.attrs["item"] for s in spans if s.attrs["cg"] == g]
            assert ran == [i for i, home in enumerate(result.plan.assignments)
                           if home == g]

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(_PLAN_DIMS, _PLAN_DIMS, _PLAN_DIMS),
            min_size=1, max_size=12,
        ),
        pool=st.integers(1, 4),
    )
    def test_makespan_within_graham_bound(self, planners, shapes, pool):
        """List scheduling's bound: serial/n + (1 - 1/n) * longest item."""
        plan = planners[pool].plan_shapes(shapes)
        bound = (plan.serial_seconds / pool
                 + (1 - 1 / pool) * max(plan.item_seconds))
        assert plan.makespan_seconds <= bound * (1 + 1e-12)

    def test_makespan_never_exceeds_serial(self):
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        items = mixed_batch(16, params=PARAMS, seed=0)
        plan = scheduler.plan(items)
        assert plan.makespan_seconds <= plan.serial_seconds
        assert plan.modeled_speedup >= 1.0
        assert 0.0 < plan.load_balance_efficiency <= 1.0

    def test_single_cg_pool_is_the_serial_baseline(self):
        scheduler = CGScheduler(n_core_groups=1, params=PARAMS)
        plan = scheduler.plan(mixed_batch(6, params=PARAMS, seed=0))
        assert plan.makespan_seconds == pytest.approx(plan.serial_seconds)
        assert plan.modeled_speedup == pytest.approx(1.0)

    def test_plan_shapes_allocates_nothing(self):
        """Paper-scale planning runs on bare shape tuples."""
        scheduler = CGScheduler(n_core_groups=4,
                                params=BlockingParams.paper_double())
        plan = scheduler.plan_shapes(
            [(16384, 16384, 16384), (8192, 4096, 12288)] * 4
        )
        assert len(plan.assignments) == 8
        assert plan.serial_seconds > 0

    def test_estimates_cached_per_padded_shape(self):
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        scheduler.plan_shapes([(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)] * 50)
        assert len(scheduler._seconds_cache) == 1


class TestExecution:
    def test_matches_serial_dgemm_loop_bitwise(self):
        items = mixed_batch(16, params=PARAMS, seed=0)
        serial = [
            dgemm(i.a, i.b, i.c, alpha=i.alpha, beta=i.beta,
                  transa=i.transa, transb=i.transb, params=PARAMS, pad=True)
            for i in items
        ]
        result = CGScheduler(n_core_groups=4, params=PARAMS).run(items)
        assert result.ok
        assert all(
            np.array_equal(x, y) for x, y in zip(serial, result.outputs)
        )
        assert result.makespan_seconds <= result.serial_seconds

    def test_all_cg_budgets_restored(self):
        proc = SW26010Processor()
        proc.cg(3).memory.store("user.resident", np.ones((8, 8)))
        baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
        CGScheduler(proc, params=PARAMS).run(
            mixed_batch(8, params=PARAMS, seed=1)
        )
        assert [proc.cg(g).memory.used_bytes for g in range(4)] == baselines

    def test_traffic_attributed_per_cg(self):
        result = CGScheduler(n_core_groups=4, params=PARAMS).run(
            mixed_batch(8, params=PARAMS, seed=2)
        )
        active = [t for t in result.per_cg if t.items]
        assert len(active) >= 2
        for t in active:
            assert t.stats.dma_bytes > 0
            assert t.stats.staged == 3 * t.items
        assert result.dma_bytes == sum(t.stats.dma_bytes for t in result.per_cg)
        assert sum(t.items for t in result.per_cg) == len(result)

    def test_binned_items_hit_the_staging_plan_cache(self):
        """Same-shape items that share a CG restage in place."""
        result = CGScheduler(n_core_groups=4, params=PARAMS).run(
            same_shape_items(8)
        )
        hits = sum(t.stats.plan_hits for t in result.per_cg)
        allocs = sum(t.stats.allocations for t in result.per_cg)
        # 8 items x 3 slots staged; at most one allocation per slot per CG
        assert hits + allocs == 3 * 8
        assert allocs <= 3 * 4

    def test_failure_isolated_to_item(self, small_memory_spec, unstageable):
        proc = SW26010Processor(small_memory_spec)
        baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
        items = same_shape_items(6)
        items[2] = unstageable
        scheduler = CGScheduler(proc, params=PARAMS)
        result = scheduler.run(items)
        assert len(result.errors) == 1
        error = result.errors[0]
        assert error.index == 2
        assert error.kind == "MemoryError"
        assert result.outputs[2] is None
        assert all(
            result.outputs[i] is not None for i in range(6) if i != 2
        )
        assert result.per_cg[error.core_group].failures == 1
        # the CG's context stays usable and budgets are intact
        assert CGScheduler(proc, params=PARAMS).run(same_shape_items(2)).ok
        assert [proc.cg(g).memory.used_bytes for g in range(4)] == baselines

    def test_isolate_failures_false_raises(self, small_memory_spec,
                                           unstageable):
        items = same_shape_items(3)
        items[1] = unstageable
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS,
                                spec=small_memory_spec)
        with pytest.raises(MemoryError):
            scheduler.run(items, isolate_failures=False)

    def test_flops_count_successes_only(self, small_memory_spec, unstageable):
        items = same_shape_items(4)
        items[0] = unstageable
        result = CGScheduler(n_core_groups=4, params=PARAMS,
                             spec=small_memory_spec).run(items)
        m, n, k = PARAMS.b_m, PARAMS.b_n, PARAMS.b_k
        assert result.flops == 3 * 2 * m * n * k

    def test_trans_items_supported(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((PARAMS.b_k, PARAMS.b_m))   # to transpose
        b = rng.standard_normal((PARAMS.b_n, PARAMS.b_k))
        items = [GemmRequest(a, b, transa="T", transb="T")]
        result = CGScheduler(n_core_groups=2, params=PARAMS).run(items)
        assert result.ok
        assert np.allclose(result.outputs[0], a.T @ b.T, rtol=1e-11, atol=1e-8)

    def test_scheduler_reusable_across_runs(self):
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        first = scheduler.run(same_shape_items(3))
        second = scheduler.run(same_shape_items(3, seed=7))
        assert first.ok and second.ok


class TestMidKernelFailure:
    """An item that dies inside the kernel must not poison its CG.

    On ``device`` every register-network broadcast goes through
    :class:`~repro.arch.regcomm.RegisterComm`.  Failing one mid-step
    leaves that step's earlier broadcasts undelivered, so unless the
    scheduler resets the CG's transient state after the failure, the
    next item on that CG receives stale tiles.
    """

    @pytest.mark.parametrize("parallel", [False, True])
    def test_next_item_on_the_cg_is_bitwise_clean(self, monkeypatch,
                                                  parallel):
        items = same_shape_items(4, seed=40)
        clean = CGScheduler(n_core_groups=2, params=PARAMS,
                            engine="device").run(items)
        assert clean.ok

        scheduler = CGScheduler(n_core_groups=2, params=PARAMS,
                                engine="device")
        comm = scheduler.processor.cg(0).regcomm
        broadcast = comm.row_broadcast
        calls = 0

        def failing_third_call(src, data):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise RuntimeError("row network down")
            broadcast(src, data)

        monkeypatch.setattr(comm, "row_broadcast", failing_third_call)
        result = scheduler.run(items, parallel=parallel)

        # item 0 dies in its first sharing step on CG 0, and longest-
        # first dispatch deals the equal items round-robin, so a later
        # item runs on CG 0 after the failure
        homes = result.plan.assignments
        assert homes[0] == 0 and 0 in homes[1:]
        assert [(e.index, e.core_group, e.kind) for e in result.errors] == [
            (0, 0, "RuntimeError")
        ]
        for idx in range(1, len(items)):
            assert np.array_equal(result.outputs[idx], clean.outputs[idx]), idx


class TestCleanRunCompatibility:
    def test_no_faults_matches_plan_accounting(self):
        result = CGScheduler(params=PARAMS).run(
            mixed_batch(6, params=PARAMS, seed=0)
        )
        assert result.ok
        assert result.makespan_seconds == result.plan.makespan_seconds
        assert result.modeled_speedup == result.plan.modeled_speedup
        assert (result.load_balance_efficiency
                == result.plan.load_balance_efficiency)
        for traffic, planned in zip(result.per_cg, result.plan.cg_seconds):
            assert traffic.modeled_seconds == planned

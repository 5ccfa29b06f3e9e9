"""Unit tests for the scoped staging ExecutionContext."""

import numpy as np
import pytest

from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.context import ContextStats, ExecutionContext
from repro.core.engine import get_engine
from repro.core.params import BlockingParams
from repro.errors import ConfigError
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)


class TestLifecycle:
    def test_handles_freed_on_exit(self, cg):
        with ExecutionContext(cg) as ctx:
            ctx.stage("A", np.ones((32, 16)))
            ctx.stage("B", np.ones((16, 8)))
            assert len(cg.memory.handles()) == 2
        assert cg.memory.handles() == []
        assert cg.memory.used_bytes == 0

    def test_handles_freed_when_body_raises(self, cg):
        baseline = cg.memory.used_bytes
        with pytest.raises(RuntimeError):
            with ExecutionContext(cg) as ctx:
                ctx.stage("A", np.ones((32, 16)))
                raise RuntimeError("variant exploded")
        assert cg.memory.used_bytes == baseline
        assert cg.memory.handles() == []

    def test_close_is_idempotent(self, cg):
        ctx = ExecutionContext(cg)
        with ctx:
            ctx.stage("A", np.ones((16, 16)))
        ctx.close()
        ctx.close()
        assert cg.memory.used_bytes == 0

    def test_stage_outside_open_context_rejected(self, cg):
        ctx = ExecutionContext(cg)
        with pytest.raises(ConfigError):
            ctx.stage("A", np.ones((16, 16)))  # never entered
        with ctx:
            ctx.stage("A", np.ones((16, 16)))
        with pytest.raises(ConfigError):
            ctx.stage("A", np.ones((16, 16)))  # closed: would leak
        assert cg.memory.used_bytes == 0

    def test_context_reusable_after_close(self, cg):
        ctx = ExecutionContext(cg)
        for fill in (1.0, 2.0):
            with ctx:
                h = ctx.stage("A", np.full((8, 8), fill))
                assert cg.memory.array(h)[0, 0] == fill
            assert cg.memory.used_bytes == 0

    def test_not_reentrant(self, cg):
        with ExecutionContext(cg) as ctx:
            with pytest.raises(ConfigError):
                ctx.__enter__()

    def test_externally_freed_handle_tolerated(self, cg):
        with ExecutionContext(cg) as ctx:
            h = ctx.stage("A", np.ones((16, 16)))
            cg.memory.free(h.name)
        assert cg.memory.used_bytes == 0


class TestUniqueNames:
    def test_two_contexts_never_clobber(self, cg):
        with ExecutionContext(cg) as ctx1, ExecutionContext(cg) as ctx2:
            h1 = ctx1.stage("A", np.full((8, 8), 1.0))
            h2 = ctx2.stage("A", np.full((8, 8), 2.0))
            assert h1.name != h2.name
            assert cg.memory.array(h1)[0, 0] == 1.0
            assert cg.memory.array(h2)[0, 0] == 2.0

    def test_genuine_name_conflict_raises(self, cg):
        cg.memory.store("mine.A[8x8]", np.zeros((8, 8)))
        with ExecutionContext(cg, namespace="mine") as ctx:
            with pytest.raises(ConfigError):
                ctx.stage("A", np.ones((8, 8)))

    def test_executing_guard_rejects_interleaved_calls(self, cg):
        a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)
        with ExecutionContext(cg) as ctx:
            with ctx.executing():
                with pytest.raises(ConfigError):
                    dgemm(a, b, params=PARAMS, context=ctx)

    def test_context_core_group_mismatch_raises(self):
        ctx = ExecutionContext(CoreGroup())
        other = CoreGroup()
        a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)
        with pytest.raises(ConfigError):
            dgemm(a, b, params=PARAMS, context=ctx, core_group=other)


class TestPlanCache:
    def test_same_shape_restage_reuses_allocation(self, cg):
        with ExecutionContext(cg) as ctx:
            h1 = ctx.stage("A", np.full((16, 16), 1.0))
            backing = cg.memory.array(h1)
            allocs = cg.memory.stats.allocations
            h2 = ctx.stage("A", np.full((16, 16), 2.0))
            assert h2.name == h1.name
            assert cg.memory.stats.allocations == allocs  # no realloc
            assert cg.memory.array(h2) is backing  # same buffer, rewritten
            assert backing[0, 0] == 2.0
            assert ctx.stats().plan_hits == 1

    def test_distinct_shapes_get_distinct_plans(self, cg):
        with ExecutionContext(cg) as ctx:
            h1 = ctx.stage("A", np.ones((16, 16)))
            h2 = ctx.stage("A", np.ones((32, 16)))
            assert h1.name != h2.name
            assert len(cg.memory.handles()) == 2

    def test_eviction_frees_cold_plans(self, cg):
        with ExecutionContext(cg, cache_capacity=2) as ctx:
            for rows in (16, 32, 48):
                ctx.stage("A", np.ones((rows, 8)))
            assert len(cg.memory.handles()) == 2  # 16-row plan evicted
        assert cg.memory.used_bytes == 0

    def test_padded_stage_zero_fills_border(self, cg):
        with ExecutionContext(cg) as ctx:
            h = ctx.stage("A", np.ones((3, 3)), rows=8, cols=8)
            arr = cg.memory.array(h)
            assert arr.shape == (8, 8)
            assert np.all(arr[:3, :3] == 1.0)
            assert np.all(arr[3:, :] == 0.0) and np.all(arr[:3, 3:] == 0.0)
            # restage smaller content into the same padded plan: border
            # must be re-zeroed in place
            ctx.stage("A", np.full((2, 2), 5.0), rows=8, cols=8)
            assert arr[0, 0] == 5.0 and np.all(arr[2:, :] == 0.0)

    def test_stage_zeros_makes_no_host_copy(self, cg):
        with ExecutionContext(cg) as ctx:
            h = ctx.stage_zeros("C", 16, 8)
            assert np.all(cg.memory.array(h) == 0.0)

    def test_bad_cache_capacity_rejected(self, cg):
        with pytest.raises(ConfigError):
            ExecutionContext(cg, cache_capacity=0)


class TestAccounting:
    def test_stat_deltas_start_at_zero(self, cg):
        with ExecutionContext(cg) as ctx:
            assert ctx.stats() == ContextStats(0, 0, 0, 0, 0, 0)

    def test_deltas_exclude_prior_traffic(self):
        cg = CoreGroup()
        a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)
        dgemm(a, b, params=PARAMS, core_group=cg)  # pre-existing traffic
        before = cg.dma.stats.bytes_total
        assert before > 0
        with ExecutionContext(cg) as ctx:
            dgemm(a, b, params=PARAMS, context=ctx)
            assert ctx.dma_bytes == cg.dma.stats.bytes_total - before
            assert ctx.dma_transactions > 0
            assert ctx.regcomm_bytes > 0

    def test_stats_since_subtracts(self, cg):
        with ExecutionContext(cg) as ctx:
            ctx.stage("A", np.ones((16, 16)))
            snap = ctx.stats()
            ctx.stage("A", np.ones((16, 16)))
            delta = ctx.stats().since(snap)
            assert delta.staged == 1 and delta.plan_hits == 1
            assert delta.allocations == 0

    def test_baseline_bytes_records_entry_level(self, cg):
        cg.memory.store("resident", np.ones((16, 16)))
        with ExecutionContext(cg) as ctx:
            assert ctx.baseline_bytes == 16 * 16 * 8
            ctx.stage("A", np.ones((8, 8)))
        assert cg.memory.used_bytes == 16 * 16 * 8


def _spying(engine: str):
    """An instance of ``engine`` that keeps the arrays it last ran on."""

    class Spy(type(get_engine(engine))):
        def run(self, impl, cg, a, b, c, *args, **kwargs):
            self.seen = {name: cg.memory.array(h)
                         for name, h in zip("abc", (a, b, c))}
            return super().run(impl, cg, a, b, c, *args, **kwargs)

    return Spy()


class TestZeroCopyStaging:
    """Fortran-ordered float64 inputs at their staged shape are bound as
    read-only views; everything else is copied once."""

    def test_qualifying_operand_is_bound_read_only(self, cg):
        a = np.asfortranarray(np.ones((16, 8)))
        with ExecutionContext(cg) as ctx:
            resident = cg.memory.array(ctx.stage("A", a))
            assert np.shares_memory(resident, a)
            assert not resident.flags.writeable
            with pytest.raises(ValueError):
                resident[0, 0] = 2.0
        assert a.flags.writeable and np.all(a == 1.0)
        assert cg.memory.used_bytes == 0

    @pytest.mark.parametrize("make", [
        lambda: np.ones((16, 8)),
        lambda: np.asfortranarray(np.ones((16, 8), dtype=np.int64)),
        lambda: np.broadcast_to(1.0, (16, 8)),
        lambda: np.asfortranarray(np.ones((8, 16))).T,
    ], ids=["c-order", "integer", "broadcast", "transposed-into-c-order"])
    def test_other_operands_are_copied(self, cg, make):
        a = make()
        with ExecutionContext(cg) as ctx:
            resident = cg.memory.array(ctx.stage("A", a))
            assert not np.shares_memory(resident, a)
            assert resident.flags.f_contiguous and resident.dtype == np.float64
            assert np.array_equal(resident, a)

    def test_padded_operand_is_copied(self, cg):
        a = np.asfortranarray(np.ones((16, 8)))
        with ExecutionContext(cg) as ctx:
            resident = cg.memory.array(ctx.stage("A", a, rows=32, cols=8))
            assert not np.shares_memory(resident, a)
            assert resident.sum() == a.sum()

    def test_counters_read_as_for_copies(self, cg):
        f_order = [np.asfortranarray(np.full((16, 8), x)) for x in (1.0, 2.0)]
        copy_cg = CoreGroup()
        with ExecutionContext(cg) as bound, ExecutionContext(copy_cg) as copied:
            for a in f_order:
                bound.stage("A", a)
                copied.stage("A", np.ascontiguousarray(a))
            assert bound.stats() == copied.stats()
            assert cg.memory.stats == copy_cg.memory.stats
            assert cg.memory.peak_bytes == copy_cg.memory.peak_bytes

    def test_bind_stages_the_array_itself_writeable(self, cg):
        out = np.zeros((16, 8), order="F")
        with ExecutionContext(cg) as ctx:
            h = ctx.bind("C", out)
            assert cg.memory.array(h) is out
            assert ctx.stats().allocations == 1

    @pytest.mark.parametrize("engine", ["vectorized", "device"])
    def test_engine_reads_the_callers_operands_in_place(self, cg, engine):
        spy = _spying(engine)
        a, b, c = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=4)
        out = dgemm(a, b, c, beta=1.0, params=PARAMS, core_group=cg,
                    engine=spy)
        for name, operand in (("a", a), ("b", b)):
            assert np.shares_memory(spy.seen[name], operand), name
            assert not spy.seen[name].flags.writeable, name
        assert not np.shares_memory(spy.seen["c"], c)
        assert spy.seen["c"] is out  # the result is the staged C
        np.testing.assert_allclose(out, a @ b + c, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("engine", ["vectorized", "device"])
    def test_transposed_and_padded_operands_are_copied(self, cg, engine):
        spy = _spying(engine)
        # Fortran-ordered and transposed: C-ordered once transposed
        at, b, _ = gemm_operands(PARAMS.b_k, PARAMS.b_n, PARAMS.b_m, seed=5)
        dgemm(at, b, transa="T", params=PARAMS, core_group=cg, engine=spy)
        assert not np.shares_memory(spy.seen["a"], at)
        assert np.shares_memory(spy.seen["b"], b)
        # an odd shape: device pads A and B on the host, vectorized not
        a, b, _ = gemm_operands(PARAMS.b_m - 3, PARAMS.b_n, PARAMS.b_k - 5,
                                seed=6)
        dgemm(a, b, params=PARAMS, core_group=cg, engine=spy, pad=True)
        bound = engine == "vectorized"
        assert np.shares_memory(spy.seen["a"], a) == bound
        assert np.shares_memory(spy.seen["b"], b) == bound

    def test_result_survives_a_padded_call_staging_its_shape(self, cg):
        """An exact-shape result is bound as C; a later padded call
        staging the same C shape allocates fresh memory instead of
        writing into it."""
        a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=7)
        a2, b2, c2 = gemm_operands(PARAMS.b_m - 3, PARAMS.b_n - 2,
                                   PARAMS.b_k, seed=8)
        operands = [x.copy() for x in (a, b, a2, b2, c2)]
        with ExecutionContext(cg) as ctx:
            first = dgemm(a, b, params=PARAMS, context=ctx, engine="device")
            kept = first.copy()
            second = dgemm(a2, b2, c2, beta=1.0, params=PARAMS, context=ctx,
                           engine="device", pad=True)
            assert ctx.stats().plan_hits == 3  # the same A, B and C keys
        assert np.array_equal(first, kept)
        for before, after in zip(operands, (a, b, a2, b2, c2)):
            assert np.array_equal(before, after)
        np.testing.assert_allclose(second, a2 @ b2 + c2, rtol=1e-12,
                                   atol=1e-9)

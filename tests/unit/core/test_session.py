"""Unit tests for the Session facade (the documented entry point)."""

import numpy as np
import pytest

import asyncio

from repro import GemmRequest, Session, SubmitOptions
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.errors import ConfigError
from repro.multi import SW26010Processor
from repro.obs import SpanTracer
from repro.serve import ReproServer
from repro.workloads.matrices import gemm_operands, mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)


class TestLifecycle:
    def test_context_manager_frees_everything(self):
        proc = SW26010Processor()
        baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
        with Session(processor=proc, params=PARAMS) as s:
            a, b, _ = gemm_operands(100, 60, 70, seed=0)
            s.dgemm(a, b)
            s.batch(mixed_batch(4, params=PARAMS, seed=0))
        assert [proc.cg(g).memory.used_bytes for g in range(4)] == baselines

    def test_close_idempotent_and_closed_session_raises(self):
        s = Session(params=PARAMS)
        s.close()
        s.close()
        with pytest.raises(ConfigError):
            s.dgemm(np.eye(8), np.eye(8))
        with pytest.raises(ConfigError):
            s.batch(mixed_batch(2, params=PARAMS))
        with pytest.raises(ConfigError):
            with s:
                pass

    def test_pool_size_plumbed(self):
        with Session(params=PARAMS, n_core_groups=2) as s:
            assert s.n_core_groups == 2
            assert s.batch(mixed_batch(4, params=PARAMS)).n_core_groups == 2


class TestDgemm:
    def test_matches_reference_and_pads_by_default(self):
        with Session(params=PARAMS) as s:
            a, b, c = gemm_operands(100, 60, 70, seed=1)
            out = s.dgemm(a, b, c, alpha=2.0, beta=-1.0)
            assert np.allclose(out, 2.0 * a @ b - c, rtol=1e-11, atol=1e-8)

    def test_trans_flags(self):
        with Session(params=PARAMS) as s:
            rng = np.random.default_rng(2)
            a = rng.standard_normal((64, 96))
            b = rng.standard_normal((48, 64))
            out = s.dgemm(a, b, transa="T", transb="T")
            assert np.allclose(out, a.T @ b.T, rtol=1e-11, atol=1e-8)

    def test_staging_stays_warm_across_calls(self):
        """Repeated same-shape calls hit the staging-plan cache."""
        with Session(params=PARAMS) as s:
            a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=3)
            s.dgemm(a, b)
            first = s.stats().traffic
            s.dgemm(a, b)
            second = s.stats().traffic
            assert second.plan_hits - first.plan_hits == 3
            assert second.allocations == first.allocations

    def test_per_call_check_override(self, monkeypatch):
        # a checker that rejects every result shows when the check runs
        monkeypatch.setattr("repro.core.api.contract_violation",
                            lambda *args: "rejected")
        with Session(params=PARAMS, check=False) as s:
            a = np.ones((PARAMS.b_m, PARAMS.b_k))
            b = np.ones((PARAMS.b_k, PARAMS.b_n))
            s.dgemm(a, b)            # unchecked: the checker never runs
            with pytest.raises(AssertionError, match="rejected"):
                s.dgemm(a, b, check=True)


class TestBatch:
    def test_batch_dispatches_and_isolates_by_default(
        self, small_memory_spec, unstageable
    ):
        with Session(params=PARAMS, spec=small_memory_spec) as s:
            items = mixed_batch(6, params=PARAMS, seed=4)
            items[1] = unstageable
            result = s.batch(items)
            assert len(result.errors) == 1
            assert result.errors[0].index == 1
            assert result.errors[0].kind == "MemoryError"

    def test_batch_can_propagate_failures(self, small_memory_spec,
                                          unstageable):
        with Session(params=PARAMS, spec=small_memory_spec) as s:
            items = mixed_batch(3, params=PARAMS, seed=5)
            items[0] = unstageable
            with pytest.raises(MemoryError):
                s.batch(items, isolate_failures=False)

    def test_operands_that_fit_logically_are_served(self,
                                                    fits_only_logically):
        # padding is booked by the model, not staged, so the batch fits
        spec, request = fits_only_logically
        with Session(spec=spec) as s:
            result = s.batch([request])
            assert result.errors == ()
            np.testing.assert_allclose(result.outputs[0],
                                       request.a @ request.b, atol=1e-9)


class TestUnknownEngine:
    """Unknown engine names fail where they are given, before any item
    runs."""

    def test_batch_raises_before_any_item_runs(self):
        with Session(params=PARAMS) as s:
            with pytest.raises(ConfigError, match="unknown engine"):
                s.batch(mixed_batch(2, params=PARAMS, seed=9),
                        options=SubmitOptions(engine="bogus"))
            assert s.stats().items == 0

    def test_session_engine_checked_at_construction(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            Session(params=PARAMS, engine="bogus")


class TestStats:
    def test_accumulates_across_calls_and_batches(self):
        with Session(params=PARAMS) as s:
            a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=6)
            s.dgemm(a, b)
            s.batch(mixed_batch(4, params=PARAMS, seed=6))
            s.batch(mixed_batch(2, params=PARAMS, seed=7))
            stats = s.stats()
            assert stats.calls == 1
            assert stats.batches == 2
            assert stats.items == 6
            assert stats.failures == 0
            assert stats.flops > 0
            assert stats.padded_flops >= stats.flops
            assert stats.traffic.dma_bytes > 0
            assert stats.traffic.staged == 3 * 7

    def test_flops_account_trans_shapes(self):
        with Session(params=PARAMS) as s:
            rng = np.random.default_rng(8)
            m, n, k = 32, 48, 80
            s.dgemm(rng.standard_normal((k, m)),
                    rng.standard_normal((k, n)), transa="T")
            assert s.stats().flops == 2 * m * n * k


def _assert_spans_reconcile(tracer, stats):
    """Summed ``dgemm`` span deltas equal the session's traffic."""
    deltas = tracer.counter_totals("dgemm")
    for field, total in stats.traffic.as_dict().items():
        assert deltas.get(f"ctx.{field}", 0) == total, field


class TestFailureAccounting:
    """A raising call still folds the traffic it moved into stats()."""

    @pytest.mark.parametrize("parallel", [False, True])
    def test_raising_batch_counts_its_traffic_and_failure(
        self, small_memory_spec, unstageable, parallel
    ):
        tracer = SpanTracer()
        items = mixed_batch(4, params=PARAMS, seed=5)
        items[2] = unstageable
        with Session(params=PARAMS, n_core_groups=2, spec=small_memory_spec,
                     tracer=tracer) as s:
            with pytest.raises(MemoryError) as info:
                s.batch(items, isolate_failures=False, parallel=parallel)
            stats = s.stats()
        partial = info.value.schedule_result
        assert [e.index for e in partial.errors] == [2]
        assert stats.batches == 1 and stats.failures == 1
        ran = {i for i, out in enumerate(partial.outputs) if out is not None}
        ran.add(2)
        assert stats.items == len(ran) == sum(cg.items for cg in partial.per_cg)
        # serially every item up to the failing one ran; in parallel only
        # the failing item's own CG queue is known to have reached it
        homes = partial.plan.assignments
        assert {i for i in range(3)
                if not parallel or homes[i] == homes[2]} <= ran
        assert stats.traffic == partial.traffic
        # item 2 staged A before B overflowed; only a finished item DMAs
        assert stats.traffic.staged > 0
        assert (stats.traffic.dma_bytes > 0) == (len(ran) > 1)
        _assert_spans_reconcile(tracer, stats)

    def test_raising_scalar_call_counts_its_traffic_and_failure(
        self, small_memory_spec, unstageable, monkeypatch
    ):
        tracer = SpanTracer()
        with Session(params=PARAMS, spec=small_memory_spec,
                     tracer=tracer) as s:
            # refused while staging B: A was staged
            with pytest.raises(MemoryError):
                s.dgemm(unstageable.a, unstageable.b)
            assert s.stats().traffic.staged == 1
            # refused by the result check: the kernel ran
            monkeypatch.setattr("repro.core.api.contract_violation",
                                lambda *args: "rejected")
            a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)
            with pytest.raises(AssertionError, match="rejected"):
                s.dgemm(a, b, check=True)
            stats = s.stats()
        assert stats.calls == 0 and stats.failures == 2
        assert stats.traffic.dma_bytes > 0
        _assert_spans_reconcile(tracer, stats)


def _operands(seed):
    a, b, c = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=seed)
    return a, b, c, [x.copy(order="K") for x in (a, b, c)]


def _assert_unchanged(operands, copies):
    for name, now, before in zip("abc", operands, copies):
        assert now.tobytes() == before.tobytes(), name
        assert now.flags.writeable, name


class TestZeroCopyContract:
    """Inputs are read in place but never written; results are never
    overwritten by a later call on the same context."""

    def test_session_dgemm_leaves_operands_unchanged(self):
        a, b, c, copies = _operands(11)
        with Session(params=PARAMS) as s:
            s.dgemm(a, b, c, alpha=-1.0, beta=1.0)
            s.dgemm(a, b, c, beta=0.0)
        _assert_unchanged((a, b, c), copies)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_session_batch_leaves_operands_unchanged(self, parallel):
        operands = [_operands(seed) for seed in range(12, 16)]
        items = [GemmRequest(a, b, c, alpha=2.0, beta=-1.0)
                 for a, b, c, _ in operands]
        with Session(params=PARAMS, n_core_groups=2) as s:
            result = s.batch(items, parallel=parallel)
        assert result.ok
        for a, b, c, copies in operands:
            _assert_unchanged((a, b, c), copies)

    def test_server_round_trip_leaves_operands_unchanged(self):
        a, b, c, copies = _operands(16)

        async def scenario():
            async with ReproServer(params=PARAMS, n_core_groups=2) as server:
                return await server.submit(GemmRequest(a, b, c, beta=1.0))

        result = asyncio.run(scenario())
        assert result.ok
        np.testing.assert_allclose(result.value, a @ b + c, atol=1e-9)
        _assert_unchanged((a, b, c), copies)

    def test_result_survives_the_next_same_shape_call(self):
        a, b, c, _ = _operands(17)
        a2, b2, c2, _ = _operands(18)
        with Session(params=PARAMS) as s:
            first = s.dgemm(a, b, c, beta=1.0)
            kept = first.copy()
            second = s.dgemm(a2, b2, c2, beta=1.0)
            assert s.stats().traffic.plan_hits == 3
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)

    def test_batch_results_survive_the_items_after_them(self):
        operands = [_operands(seed)[:3] for seed in range(19, 23)]
        items = [GemmRequest(a, b) for a, b, _ in operands]
        with Session(params=PARAMS, n_core_groups=1) as s:
            result = s.batch(items)
            assert s.stats().traffic.allocations == 3
        for item, out in zip(items, result.outputs):
            alone = dgemm(item.a, item.b, params=PARAMS)
            assert out.tobytes() == alone.tobytes()

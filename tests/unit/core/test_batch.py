"""Batched DGEMM on one core group: the serial ``CGScheduler`` contract.

``CGScheduler(n_core_groups=1).run(items, isolate_failures=False)`` is
a loop of ``dgemm`` calls through one staging context: these tests pin
its accounting, staging reuse, memory budget and up-front validation.
"""

import numpy as np
import pytest

from repro.api import GemmRequest
from repro.core.engine import ENGINES
from repro.core.engine.vectorized import VectorizedEngine
from repro.core.params import BlockingParams
from repro.errors import ConfigError, UnsupportedShapeError
from repro.multi.processor import SW26010Processor
from repro.multi.scheduler import CGScheduler, ScheduleResult, validate_items
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)


def make_items(count: int, seed: int = 0) -> list[GemmRequest]:
    items = []
    for i in range(count):
        a, b, c = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=seed + 7 * i)
        items.append(GemmRequest(a, b, c, alpha=1.0 + i, beta=0.5))
    return items


def run_batch(items, processor=None, **kwargs) -> ScheduleResult:
    """One serial batch on a 1-CG pool; the first failure raises."""
    with CGScheduler(processor, n_core_groups=1, params=PARAMS,
                     **kwargs) as scheduler:
        return scheduler.run(items, isolate_failures=False)


class TestBatch:
    def test_outputs_match_individual_runs(self):
        items = make_items(3)
        result = run_batch(items)
        assert len(result) == 3
        for item, out in zip(items, result.outputs):
            expected = item.alpha * item.a @ item.b + item.beta * item.c
            assert np.allclose(out, expected, rtol=1e-12, atol=1e-9)

    def test_accounting_accumulates(self):
        one = run_batch(make_items(1))
        three = run_batch(make_items(3))
        assert three.dma_bytes == 3 * one.dma_bytes
        assert three.flops == 3 * one.flops
        assert three.regcomm_bytes == 3 * one.regcomm_bytes

    def test_pad_default_accepts_odd_shapes(self, rng):
        a = rng.standard_normal((100, 50))
        b = rng.standard_normal((50, 30))
        result = run_batch([GemmRequest(a, b)])
        assert np.allclose(result.outputs[0], a @ b, rtol=1e-11, atol=1e-9)

    def test_shared_core_group_visible_to_caller(self):
        proc = SW26010Processor()
        run_batch(make_items(2), processor=proc)
        assert proc.cg(0).dma.stats.bytes_total > 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            run_batch([])

    def test_non_item_rejected(self):
        with pytest.raises(ConfigError):
            run_batch([("a", "b")])  # type: ignore[list-item]

    def test_mixed_sizes_in_one_batch(self, rng):
        items = [
            GemmRequest(rng.standard_normal((64, 32)),
                        rng.standard_normal((32, 16))),
            GemmRequest(rng.standard_normal((128, 128)),
                        rng.standard_normal((128, 64))),
        ]
        result = run_batch(items)
        for item, out in zip(items, result.outputs):
            assert np.allclose(out, item.a @ item.b, rtol=1e-11, atol=1e-9)

    def test_generator_input_accepted(self):
        result = run_batch(iter(make_items(2)))
        assert isinstance(result, ScheduleResult) and len(result) == 2

    def test_shared_group_reports_only_batch_delta(self):
        """A pre-used device's earlier traffic must not be attributed
        to this batch."""
        proc = SW26010Processor()
        first = run_batch(make_items(1), processor=proc)
        second = run_batch(make_items(1, seed=9), processor=proc)
        assert second.dma_bytes == first.dma_bytes
        assert (proc.cg(0).dma.stats.bytes_total
                == first.dma_bytes + second.dma_bytes)


class TestUpFrontValidation:
    """A malformed item is refused, naming its index, before any item
    is staged."""

    @staticmethod
    def assert_refused(items, index):
        proc = SW26010Processor()
        with pytest.raises(UnsupportedShapeError, match=f"item {index}"):
            run_batch(items, processor=proc)
        assert proc.cg(0).memory.stats.stores == 0
        assert proc.cg(0).dma.stats.bytes_total == 0

    def test_inner_dim_mismatch_names_the_item(self, rng):
        items = make_items(2)
        items.insert(1, GemmRequest(rng.standard_normal((32, 16)),
                                    rng.standard_normal((24, 8))))
        self.assert_refused(items, 1)

    def test_c_shape_mismatch_names_the_item(self, rng):
        bad = GemmRequest(rng.standard_normal((32, 16)),
                          rng.standard_normal((16, 8)),
                          rng.standard_normal((32, 9)), beta=1.0)
        self.assert_refused([*make_items(2), bad], 2)

    def test_beta_without_c_names_the_item(self, rng):
        bad = GemmRequest(rng.standard_normal((32, 16)),
                          rng.standard_normal((16, 8)), beta=0.5)
        self.assert_refused([bad], 0)

    def test_bad_batch_fails_before_any_execution(self, rng):
        """Earlier items must not run before the rejection."""
        items = make_items(2)
        items.append(GemmRequest(rng.standard_normal((32, 16)),
                                 rng.standard_normal((24, 8))))
        self.assert_refused(items, 2)

    def test_validate_items_returns_trans_aware_shapes(self, rng):
        shapes = validate_items([
            GemmRequest(rng.standard_normal((16, 32)),
                        rng.standard_normal((8, 16)),
                        transa="T", transb="T"),
        ])
        assert shapes == [(32, 8, 16)]

    def test_bad_trans_flag_names_the_item(self, rng):
        bad = GemmRequest(rng.standard_normal((16, 16)),
                          rng.standard_normal((16, 16)), transa="C")
        self.assert_refused([*make_items(1), bad], 1)


class TestHarmonizedKwargs:
    def test_trans_items_match_reference(self, rng):
        a = rng.standard_normal((64, 96))   # A^T is 96x64
        b = rng.standard_normal((48, 64))   # B^T is 64x48
        result = run_batch([GemmRequest(a, b, transa="T", transb="T")])
        assert np.allclose(result.outputs[0], a.T @ b.T, rtol=1e-11, atol=1e-8)
        assert result.flops == 2 * 96 * 48 * 64

    def test_check_kwarg_verifies_each_item(self, rng, monkeypatch):
        class WrongOnSecondRun(VectorizedEngine):
            runs = 0

            def run(self, impl, cg, a, b, c, **kwargs):
                super().run(impl, cg, a, b, c, **kwargs)
                type(self).runs += 1
                if type(self).runs == 2:
                    cg.memory.array(c)[0, 0] += 1.0

        items = [
            GemmRequest(rng.standard_normal((32, 16)),
                        rng.standard_normal((16, 8)))
            for _ in range(2)
        ]
        run_batch(items, check=True)
        monkeypatch.setitem(ENGINES, "vectorized", WrongOnSecondRun)
        with pytest.raises(AssertionError, match="contract bound"):
            run_batch(items, check=True)


class TestMemoryInvariant:
    def test_shared_group_budget_restored_after_batch(self):
        proc = SW26010Processor()
        baseline = proc.cg(0).memory.used_bytes
        run_batch(make_items(3), processor=proc)
        assert proc.cg(0).memory.used_bytes == baseline
        assert proc.cg(0).memory.handles() == []

    def test_budget_restored_when_item_raises(self, small_memory_spec,
                                              unstageable):
        proc = SW26010Processor(small_memory_spec)
        baseline = proc.cg(0).memory.used_bytes
        with pytest.raises(MemoryError):
            run_batch([*make_items(1), unstageable], processor=proc)
        assert proc.cg(0).memory.used_bytes == baseline
        assert proc.cg(0).memory.handles() == []

    def test_batch_allocations_bounded_by_first_item(self):
        proc = SW26010Processor()
        run_batch(make_items(5), processor=proc)
        assert proc.cg(0).memory.stats.allocations == 3
        assert proc.cg(0).memory.stats.in_place_stores == 12


class TestFlopsAccounting:
    def test_exact_shapes_have_equal_flop_fields(self):
        result = run_batch(make_items(2))
        assert result.flops == result.padded_flops
        assert result.padding_overhead == 1.0

    def test_padded_flops_reported_separately(self, rng):
        a = rng.standard_normal((100, 50))
        b = rng.standard_normal((50, 30))
        result = run_batch([GemmRequest(a, b)])
        assert result.flops == 2 * 100 * 30 * 50
        pm, pn, pk = PARAMS.pad_shape(100, 30, 50)
        assert result.padded_flops == 2 * pm * pn * pk
        assert result.padded_flops > result.flops
        assert result.padding_overhead > 1.0

"""Unit tests for the batched DGEMM interface."""

import numpy as np
import pytest

from repro.arch.core_group import CoreGroup
from repro.api import GemmRequest
from repro.core.batch import BatchResult, dgemm_batch, validate_items
from repro.core.engine.vectorized import VectorizedEngine
from repro.core.params import BlockingParams
from repro.errors import ConfigError, UnsupportedShapeError
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)


def make_items(count: int, seed: int = 0) -> list[GemmRequest]:
    items = []
    for i in range(count):
        a, b, c = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=seed + 7 * i)
        items.append(GemmRequest(a, b, c, alpha=1.0 + i, beta=0.5))
    return items


class TestBatch:
    def test_outputs_match_individual_runs(self):
        items = make_items(3)
        result = dgemm_batch(items, params=PARAMS)
        assert len(result) == 3
        for item, out in zip(items, result.outputs):
            expected = item.alpha * item.a @ item.b + item.beta * item.c
            assert np.allclose(out, expected, rtol=1e-12, atol=1e-9)

    def test_accounting_accumulates(self):
        one = dgemm_batch(make_items(1), params=PARAMS)
        three = dgemm_batch(make_items(3), params=PARAMS)
        assert three.dma_bytes == 3 * one.dma_bytes
        assert three.flops == 3 * one.flops
        assert three.regcomm_bytes == 3 * one.regcomm_bytes

    def test_pad_default_accepts_odd_shapes(self, rng):
        a = rng.standard_normal((100, 50))
        b = rng.standard_normal((50, 30))
        result = dgemm_batch([GemmRequest(a, b)], params=PARAMS)
        assert np.allclose(result.outputs[0], a @ b, rtol=1e-11, atol=1e-9)

    def test_shared_core_group_visible_to_caller(self):
        cg = CoreGroup()
        dgemm_batch(make_items(2), params=PARAMS, core_group=cg)
        assert cg.dma.stats.bytes_total > 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            dgemm_batch([])

    def test_non_item_rejected(self):
        with pytest.raises(ConfigError):
            dgemm_batch([("a", "b")])  # type: ignore[list-item]

    def test_mixed_sizes_in_one_batch(self, rng):
        items = [
            GemmRequest(rng.standard_normal((64, 32)),
                        rng.standard_normal((32, 16))),
            GemmRequest(rng.standard_normal((128, 128)),
                        rng.standard_normal((128, 64))),
        ]
        result = dgemm_batch(items, params=PARAMS)
        for item, out in zip(items, result.outputs):
            assert np.allclose(out, item.a @ item.b, rtol=1e-11, atol=1e-9)

    def test_generator_input_accepted(self):
        result = dgemm_batch(iter(make_items(2)), params=PARAMS)
        assert isinstance(result, BatchResult) and len(result) == 2

    def test_shared_group_reports_only_batch_delta(self):
        """A pre-used device's earlier traffic must not be attributed
        to this batch."""
        cg = CoreGroup()
        first = dgemm_batch(make_items(1), params=PARAMS, core_group=cg)
        second = dgemm_batch(make_items(1, seed=9), params=PARAMS, core_group=cg)
        assert second.dma_bytes == first.dma_bytes
        assert cg.dma.stats.bytes_total == first.dma_bytes + second.dma_bytes


class TestUpFrontValidation:
    def test_inner_dim_mismatch_names_the_item(self, rng):
        items = make_items(2)
        items.insert(1, GemmRequest(rng.standard_normal((32, 16)),
                                    rng.standard_normal((24, 8))))
        with pytest.raises(UnsupportedShapeError, match="item 1"):
            dgemm_batch(items, params=PARAMS)

    def test_c_shape_mismatch_names_the_item(self, rng):
        bad = GemmRequest(rng.standard_normal((32, 16)),
                          rng.standard_normal((16, 8)),
                          rng.standard_normal((32, 9)), beta=1.0)
        with pytest.raises(UnsupportedShapeError, match="item 2"):
            dgemm_batch([*make_items(2), bad], params=PARAMS)

    def test_beta_without_c_names_the_item(self, rng):
        bad = GemmRequest(rng.standard_normal((32, 16)),
                          rng.standard_normal((16, 8)), beta=0.5)
        with pytest.raises(UnsupportedShapeError, match="item 0"):
            dgemm_batch([bad], params=PARAMS)

    def test_bad_batch_fails_before_any_execution(self, rng):
        """The bugfix: earlier items must not run before the rejection."""
        cg = CoreGroup()
        items = make_items(2)
        items.append(GemmRequest(rng.standard_normal((32, 16)),
                                 rng.standard_normal((24, 8))))
        with pytest.raises(UnsupportedShapeError, match="item 2"):
            dgemm_batch(items, params=PARAMS, core_group=cg)
        assert cg.dma.stats.bytes_total == 0

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
        with pytest.raises(UnsupportedShapeError, match="item 0"):
            validate_items([bad])


class TestHarmonizedKwargs:
    def test_trans_items_match_reference(self, rng):
        a = rng.standard_normal((64, 96))   # A^T is 96x64
        b = rng.standard_normal((48, 64))   # B^T is 64x48
        result = dgemm_batch(
            [GemmRequest(a, b, transa="T", transb="T")], params=PARAMS
        )
        assert np.allclose(result.outputs[0], a.T @ b.T, rtol=1e-11, atol=1e-8)
        assert result.flops == 2 * 96 * 48 * 64

    def test_check_kwarg_verifies_each_item(self, rng):
        class WrongOnSecondRun(VectorizedEngine):
            runs = 0

            def run(self, impl, cg, a, b, c, **kwargs):
                super().run(impl, cg, a, b, c, **kwargs)
                self.runs += 1
                if self.runs == 2:
                    cg.memory.array(c)[0, 0] += 1.0

        items = [
            GemmRequest(rng.standard_normal((32, 16)),
                        rng.standard_normal((16, 8)))
            for _ in range(2)
        ]
        dgemm_batch(items, params=PARAMS, check=True)
        with pytest.raises(AssertionError, match="contract bound"):
            dgemm_batch(items, params=PARAMS, check=True,
                        engine=WrongOnSecondRun())


class TestMemoryInvariant:
    def test_shared_group_budget_restored_after_batch(self):
        cg = CoreGroup()
        baseline = cg.memory.used_bytes
        dgemm_batch(make_items(3), params=PARAMS, core_group=cg)
        assert cg.memory.used_bytes == baseline
        assert cg.memory.handles() == []

    def test_budget_restored_when_item_raises(self):
        cg = CoreGroup()
        baseline = cg.memory.used_bytes
        good = make_items(1)
        bad = [good[0], ("not", "an item")]
        with pytest.raises(ConfigError):
            dgemm_batch(bad, params=PARAMS, core_group=cg)  # type: ignore[list-item]
        assert cg.memory.used_bytes == baseline
        assert cg.memory.handles() == []

    def test_batch_allocations_bounded_by_first_item(self):
        cg = CoreGroup()
        dgemm_batch(make_items(5), params=PARAMS, core_group=cg)
        assert cg.memory.stats.allocations == 3
        assert cg.memory.stats.in_place_stores == 12


class TestFlopsAccounting:
    def test_exact_shapes_have_equal_flop_fields(self):
        result = dgemm_batch(make_items(2), params=PARAMS)
        assert result.flops == result.padded_flops
        assert result.padding_overhead == 1.0

    def test_padded_flops_reported_separately(self, rng):
        a = rng.standard_normal((100, 50))
        b = rng.standard_normal((50, 30))
        result = dgemm_batch([GemmRequest(a, b)], params=PARAMS)
        assert result.flops == 2 * 100 * 30 * 50
        pm, pn, pk = PARAMS.pad_shape(100, 30, 50)
        assert result.padded_flops == 2 * pm * pn * pk
        assert result.padded_flops > result.flops
        assert result.padding_overhead > 1.0

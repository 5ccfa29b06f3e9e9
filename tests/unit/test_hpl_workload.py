"""Unit tests for the HPL trace workload and the E8 projection."""

import numpy as np
import pytest

from repro.core.params import BlockingParams
from repro.errors import ConfigError
from repro.experiments import hpl_projection
from repro.multi.processor import SW26010Processor
from repro.workloads.hpl import hpl_trace, run_trace, trace_items


class TestHPLTrace:
    def test_update_sequence(self):
        trace = hpl_trace(4 * 768, 768)
        assert len(trace.updates) == 3
        assert trace.updates[0] == (3 * 768, 3 * 768, 768)
        assert trace.updates[-1] == (768, 768, 768)

    def test_non_divisible_n(self):
        trace = hpl_trace(1000, 300)
        # offsets 300, 600, 900 -> trailing 700, 400, 100
        assert trace.updates == ((700, 700, 300), (400, 400, 300), (100, 100, 100))

    def test_gemm_fraction_grows_with_n(self):
        small = hpl_trace(4 * 768, 768)
        large = hpl_trace(20 * 768, 768)
        assert large.gemm_fraction > small.gemm_fraction
        assert 0.0 < small.gemm_fraction < 1.0

    def test_gemm_flops_bounded_by_total(self):
        trace = hpl_trace(8 * 768, 768)
        assert trace.gemm_flops < trace.total_flops

    def test_validation(self):
        with pytest.raises(ConfigError):
            hpl_trace(0, 64)
        with pytest.raises(ConfigError):
            hpl_trace(64, 128)

    def test_single_panel_has_no_updates(self):
        assert hpl_trace(768, 768).updates == ()


class TestRunTrace:
    PARAMS = BlockingParams.small(double_buffered=True)

    def test_one_output_per_update(self):
        trace = hpl_trace(40, 16)
        result = run_trace(trace, params=self.PARAMS)
        assert len(result) == len(trace.updates)

    def test_outputs_match_numpy(self):
        trace = hpl_trace(40, 16)
        items = trace_items(trace, seed=4)
        result = run_trace(trace, params=self.PARAMS, seed=4)
        for item, out in zip(items, result.outputs):
            expected = -item.a @ item.b + item.c
            assert np.allclose(out, expected, rtol=1e-11, atol=1e-8)

    def test_padded_flops_cover_odd_shapes(self):
        # 40/16 gives updates (24,24,16) and (8,8,8): not block multiples
        result = run_trace(hpl_trace(40, 16), params=self.PARAMS)
        assert result.padded_flops > result.flops

    def test_shared_group_budget_restored(self):
        proc = SW26010Processor()
        baselines = [cg.memory.used_bytes for cg in proc.core_groups]
        run_trace(hpl_trace(40, 16), params=self.PARAMS, processor=proc)
        assert [cg.memory.used_bytes for cg in proc.core_groups] == baselines
        assert all(cg.memory.handles() == [] for cg in proc.core_groups)

    def test_trace_items_shapes(self):
        trace = hpl_trace(40, 16)
        items = trace_items(trace)
        assert len(items) == len(trace.updates)
        for (m, n, k), item in zip(trace.updates, items):
            assert item.a.shape == (m, k)
            assert item.b.shape == (k, n)
            assert item.c.shape == (m, n)
            assert item.alpha == -1.0 and item.beta == 1.0


class TestProjection:
    @pytest.fixture(scope="class")
    def result(self):
        return hpl_projection.run(n=6144, nb=768)

    def test_gemm_dominates_flops(self, result):
        assert result.trace.gemm_fraction > 0.70

    def test_weighted_rate_between_extremes(self, result):
        """The mix of shapes lands between the small-m penalty floor
        and the saturated rate."""
        assert 600.0 < result.weighted_gflops < 710.0

    def test_efficiency_orderings(self, result):
        assert result.hpl_efficiency_projected < result.hpl_efficiency_ceiling <= 1.0

    def test_render(self, result):
        text = hpl_projection.render(result).render()
        assert "DGEMM share" in text and "74.2%" in text

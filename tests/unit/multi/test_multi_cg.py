"""Unit tests for the 4-CG extension (NoC, processor, parallel DGEMM)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.config import DEFAULT_SPEC
from repro.core.params import BlockingParams
from repro.core.reference import reference_dgemm
from repro.errors import ConfigError, MeshError, UnsupportedShapeError
from repro.multi import (
    NoC,
    SW26010Processor,
    dgemm_multi_cg,
    estimate_multi_cg,
)
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)


class TestNoC:
    def test_transfer_cost_model(self):
        noc = NoC(link_bandwidth=16e9, message_latency=2e-6)
        assert noc.transfer_seconds(16e9) == pytest.approx(1.0 + 2e-6)
        assert noc.transfer_seconds(0) == pytest.approx(2e-6)

    def test_broadcast_serializes_on_egress(self):
        noc = NoC(n_nodes=4)
        assert noc.broadcast_seconds(1024) == pytest.approx(
            3 * noc.transfer_seconds(1024)
        )

    def test_functional_copy(self):
        proc = SW26010Processor()
        src = proc.cg(0).memory
        dst = proc.cg(2).memory
        handle = src.store("X", np.arange(16.0).reshape(4, 4))
        cost = proc.noc.copy(src, dst, handle, src=0, dst=2)
        assert cost > 0
        assert np.array_equal(dst.array("X"), src.array("X"))
        assert proc.noc.stats.messages == 1
        assert proc.noc.stats.bytes_moved == 16 * 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoC(n_nodes=0)
        with pytest.raises(ConfigError):
            NoC(link_bandwidth=0)
        noc = NoC()
        with pytest.raises(ConfigError):
            noc.transfer_seconds(-1)
        with pytest.raises(MeshError):
            proc = SW26010Processor()
            proc.noc.copy(proc.cg(0).memory, proc.cg(1).memory, "X", src=0, dst=9)


class TestProcessor:
    def test_four_isolated_cgs(self):
        proc = SW26010Processor()
        assert len(proc.core_groups) == 4
        proc.cg(1).memory.allocate("x", 16, 16)
        assert proc.cg(0).memory.used_bytes == 0

    def test_chip_peak(self):
        assert SW26010Processor().peak_flops == pytest.approx(4 * 742.4e9)

    def test_cg_index_validated(self):
        with pytest.raises(MeshError):
            SW26010Processor().cg(4)

    def test_noc_node_count_enforced(self):
        with pytest.raises(ConfigError):
            SW26010Processor(noc=NoC(n_nodes=2))


class TestMultiCGDgemm:
    def test_matches_reference(self):
        m, n, k = PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k
        a, b, c = gemm_operands(m, n, k, seed=5)
        out = dgemm_multi_cg(a, b, c, alpha=2.0, beta=-0.5, params=PARAMS)
        assert np.allclose(out, reference_dgemm(2.0, a, b, -0.5, c),
                           rtol=1e-12, atol=1e-9)

    def test_broadcast_traffic_counted(self):
        proc = SW26010Processor()
        m, n, k = PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k
        a, b, _ = gemm_operands(m, n, k, seed=6)
        dgemm_multi_cg(a, b, params=PARAMS, processor=proc)
        assert proc.noc.stats.messages == 3
        assert proc.noc.stats.bytes_moved == 3 * m * k * 8

    def test_every_cg_worked(self):
        proc = SW26010Processor()
        m, n, k = PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k
        a, b, _ = gemm_operands(m, n, k, seed=7)
        dgemm_multi_cg(a, b, params=PARAMS, processor=proc)
        for cg in proc.core_groups:
            assert cg.dma.stats.bytes_total > 0

    def test_bad_panel_split_rejected(self):
        m, n, k = PARAMS.b_m, 2 * PARAMS.b_n, PARAMS.b_k
        a, b, _ = gemm_operands(m, n, k)
        with pytest.raises(UnsupportedShapeError):
            dgemm_multi_cg(a, b, params=PARAMS)

    def test_beta_without_c_rejected(self):
        a, b, _ = gemm_operands(PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k)
        with pytest.raises(UnsupportedShapeError):
            dgemm_multi_cg(a, b, beta=1.0, params=PARAMS)

    def test_pad_rescues_odd_shapes(self):
        """Harmonized kwargs: pad=True works like the single-CG path."""
        rng = np.random.default_rng(8)
        a = rng.standard_normal((100, 70))
        b = rng.standard_normal((70, 90))
        out = dgemm_multi_cg(a, b, params=PARAMS, pad=True)
        assert out.shape == (100, 90)
        assert np.allclose(out, a @ b, rtol=1e-11, atol=1e-8)

    def test_trans_flags(self):
        rng = np.random.default_rng(9)
        m, n, k = PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k
        a = rng.standard_normal((k, m))
        b = rng.standard_normal((n, k))
        out = dgemm_multi_cg(a, b, transa="T", transb="T", params=PARAMS)
        assert np.allclose(out, a.T @ b.T, rtol=1e-11, atol=1e-8)

    @pytest.mark.parametrize("variant", ["RAW", "PE", "ROW", "DB", "SCHED"])
    def test_default_params_follow_the_variant(self, variant):
        """Without params= each variant runs its own paper blocking, as
        in ``dgemm`` — single-buffered PE/ROW included."""
        a, b, c = gemm_operands(100, 90, 70, seed=12)
        out = dgemm_multi_cg(a, b, c, beta=0.5, variant=variant, pad=True,
                             check=True)
        assert out.shape == (100, 90)

    def test_check_kwarg(self, monkeypatch):
        m, n, k = PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k
        a, b, _ = gemm_operands(m, n, k, seed=10)
        dgemm_multi_cg(a, b, params=PARAMS, check=True)
        # a checker that rejects every result shows when the check runs
        monkeypatch.setattr("repro.multi.dgemm4.contract_violation",
                            lambda *args: "rejected")
        dgemm_multi_cg(a, b, params=PARAMS)
        with pytest.raises(AssertionError, match="rejected"):
            dgemm_multi_cg(a, b, params=PARAMS, check=True)

    def test_broadcast_operands_freed(self):
        """The 'mc.A' staging copies must not outlive the call."""
        proc = SW26010Processor()
        proc.cg(1).memory.store("user.resident", np.ones((8, 8)))
        baselines = [cg.memory.used_bytes for cg in proc.core_groups]
        m, n, k = PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k
        a, b, _ = gemm_operands(m, n, k, seed=11)
        dgemm_multi_cg(a, b, params=PARAMS, processor=proc)
        assert [cg.memory.used_bytes for cg in proc.core_groups] == baselines

    def test_broadcast_operands_freed_on_raise(self):
        m, n, k = PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k
        # room for the broadcast copy of A (m*k doubles) on every CG,
        # but not for CG 0's panel staging on top of it.
        spec = replace(DEFAULT_SPEC, main_memory_bytes=12 * m * k)
        proc = SW26010Processor(spec)
        baselines = [cg.memory.used_bytes for cg in proc.core_groups]
        a, b, _ = gemm_operands(m, n, k, seed=12)
        with pytest.raises(MemoryError):
            dgemm_multi_cg(a, b, params=PARAMS, processor=proc)
        assert [cg.memory.used_bytes for cg in proc.core_groups] == baselines

    def test_contexts_kwarg_validated(self):
        from repro.core.context import ExecutionContext
        from repro.errors import ConfigError as CfgErr

        proc = SW26010Processor()
        m, n, k = PARAMS.b_m, 4 * PARAMS.b_n, PARAMS.b_k
        a, b, _ = gemm_operands(m, n, k, seed=13)
        with pytest.raises(CfgErr):
            dgemm_multi_cg(a, b, params=PARAMS, processor=proc,
                           contexts=[ExecutionContext(proc.cg(0))])


class TestMultiCGEstimate:
    def test_speedup_band(self):
        est = estimate_multi_cg(9216, 9216, 9216)
        assert 2.5 <= est.speedup_vs_single_cg <= 4.0
        assert est.parallel_efficiency <= 1.0

    def test_broadcast_hurts_small_problems(self):
        small = estimate_multi_cg(3072, 3072, 3072)
        large = estimate_multi_cg(15360, 15360, 15360)
        assert small.parallel_efficiency < large.parallel_efficiency

    def test_free_noc_gives_near_linear_scaling(self):
        free = NoC(link_bandwidth=1e15, message_latency=0.0)
        est = estimate_multi_cg(9216, 9216, 9216, noc=free)
        assert est.speedup_vs_single_cg > 3.7

    def test_n_must_split(self):
        with pytest.raises(UnsupportedShapeError):
            estimate_multi_cg(9216, 9217, 9216)

    def test_gflops_accounting(self):
        est = estimate_multi_cg(9216, 9216, 9216)
        assert est.gflops == pytest.approx(
            2 * 9216**3 / est.seconds / 1e9
        )

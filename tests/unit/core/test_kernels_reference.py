"""Unit tests for the functional kernels and the reference GEMM."""

import numpy as np
import pytest

from repro.arch.regfile import VectorRegisterFile
from repro.core.kernel_functional import (
    register_tile_multiply,
    tile_multiply,
)
from repro.core.reference import (
    contract_bound,
    contract_violation,
    reference_dgemm,
)
from repro.errors import ConfigError, UnsupportedShapeError


class TestTileMultiply:
    def test_accumulates_in_place(self, rng):
        a = rng.standard_normal((16, 8))
        b = rng.standard_normal((8, 12))
        c = rng.standard_normal((16, 12))
        expected = c + 2.0 * (a @ b)
        tile_multiply(c, a, b, alpha=2.0)
        assert np.allclose(c, expected)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            tile_multiply(np.zeros((4, 4)), np.zeros((5, 4)), np.zeros((4, 4)))
        with pytest.raises(ConfigError):
            tile_multiply(np.zeros((4, 4)), np.zeros((4, 3)), np.zeros((4, 4)))


class TestRegisterTileMultiply:
    def test_matches_numpy(self, rng):
        regs = VectorRegisterFile()
        a = rng.standard_normal((16, 8))
        b = rng.standard_normal((8, 8))
        c = np.asfortranarray(rng.standard_normal((16, 8)))
        expected = c + 1.5 * (a @ b)
        register_tile_multiply(regs, c, a, b, alpha=1.5)
        assert np.allclose(c, expected, rtol=1e-12, atol=1e-12)

    def test_instruction_counts(self, rng):
        regs = VectorRegisterFile()
        p_k, p_n = 8, 8
        a = rng.standard_normal((16, p_k))
        b = rng.standard_normal((p_k, p_n))
        c = np.zeros((16, p_n), order="F")
        counts = register_tile_multiply(regs, c, a, b)
        tiles = p_n // 4
        assert counts.vmad == tiles * p_k * 16
        assert counts.a_loads == tiles * p_k * 4
        assert counts.b_loads == tiles * p_k * 4
        assert counts.c_loads == counts.c_stores == tiles * 16

    def test_vmad_flop_accounting_matches_gemm(self):
        # 2*pM*pN*pK flops = vmads * 8
        regs = VectorRegisterFile()
        p_k, p_n = 4, 8
        counts = register_tile_multiply(
            regs, np.zeros((16, p_n), order="F"),
            np.ones((16, p_k)), np.ones((p_k, p_n)),
        )
        assert counts.vmad * 8 == 2 * 16 * p_n * p_k

    def test_rejects_wrong_pm(self):
        regs = VectorRegisterFile()
        with pytest.raises(ConfigError):
            register_tile_multiply(
                regs, np.zeros((8, 4)), np.zeros((8, 4)), np.zeros((4, 4))
            )

    def test_rejects_mismatched_tiles(self):
        regs = VectorRegisterFile()
        with pytest.raises(ConfigError):
            register_tile_multiply(
                regs, np.zeros((16, 4)), np.zeros((16, 5)), np.zeros((4, 4))
            )

    def test_rejects_pn_not_multiple_of_4(self):
        regs = VectorRegisterFile()
        with pytest.raises(ConfigError):
            register_tile_multiply(
                regs, np.zeros((16, 6)), np.zeros((16, 4)), np.zeros((4, 6))
            )


class TestReference:
    def test_blas_contract(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        c = rng.standard_normal((6, 5))
        out = reference_dgemm(2.0, a, b, -1.0, c)
        assert np.allclose(out, 2.0 * a @ b - c)

    def test_input_c_not_modified(self, rng):
        c = rng.standard_normal((4, 4))
        before = c.copy()
        reference_dgemm(1.0, np.eye(4), np.eye(4), 3.0, c)
        assert np.array_equal(c, before)

    def test_shape_checks(self):
        with pytest.raises(UnsupportedShapeError):
            reference_dgemm(1.0, np.zeros((2, 3)), np.zeros((4, 2)), 0.0, np.zeros((2, 2)))
        with pytest.raises(UnsupportedShapeError):
            reference_dgemm(1.0, np.zeros(3), np.zeros((3, 2)), 0.0, np.zeros((1, 2)))

    def test_output_fortran_order(self, rng):
        out = reference_dgemm(
            1.0, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
            0.0, np.zeros((3, 3)),
        )
        assert out.flags.f_contiguous


class TestContractViolation:
    """``contract_violation`` passes the reference's own answer, special
    values included, and flags every kind of departure from it."""

    @pytest.fixture()
    def case(self, rng):
        a = rng.standard_normal((8, 6))
        b = rng.standard_normal((6, 5))
        c = rng.standard_normal((8, 5))
        a[1, 2] = np.nan
        a[4, 0] = np.inf
        b[0, :] = np.abs(b[0, :]) + 1.0  # row 4 of A @ B is +Inf throughout
        c[6, 3] = -np.inf
        return a, b, c, reference_dgemm(-1.5, a, b, 0.5, c)

    def test_reference_result_passes(self, case):
        a, b, c, out = case
        assert np.isnan(out[1]).all() and (out[4] == -np.inf).all()
        assert contract_violation(out, -1.5, a, b, 0.5, c) is None

    def test_rounding_inside_the_bound_passes(self, case):
        a, b, c, out = case
        finite = np.isfinite(out)
        bound = contract_bound(-1.5, a, b, 0.5, c)
        nudged = out.copy()
        nudged[finite] += 0.5 * bound[finite]
        assert contract_violation(nudged, -1.5, a, b, 0.5, c) is None

    def test_perturbed_finite_entry_is_flagged(self, case):
        a, b, c, out = case
        bound = contract_bound(-1.5, a, b, 0.5, c)
        out = out.copy()
        out[0, 0] += 4.0 * bound[0, 0]
        found = contract_violation(out, -1.5, a, b, 0.5, c)
        assert found is not None and "(0, 0)" in found

    @pytest.mark.parametrize("where, value", [
        ((1, 0), 0.0),        # a NaN that went missing
        ((0, 0), np.nan),     # a NaN that appeared
        ((4, 1), np.inf),     # an Inf with the wrong sign
        ((6, 3), np.nan),     # an Inf that became NaN
        ((7, 4), -np.inf),    # an Inf that appeared
    ])
    def test_non_finite_pattern_is_exact(self, case, where, value):
        a, b, c, out = case
        out = out.copy()
        out[where] = value
        found = contract_violation(out, -1.5, a, b, 0.5, c)
        assert found is not None and str(where) in found

    def test_shape_mismatch_is_flagged(self, case):
        a, b, c, out = case
        assert contract_violation(out[:-1], -1.5, a, b, 0.5, c) is not None

"""Unit tests for the public dgemm entry point."""

import numpy as np
import pytest

from repro.api import GemmRequest, SubmitOptions
from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.context import ExecutionContext
from repro.core.engine import DEFAULT_ENGINE
from repro.core.params import BlockingParams
from repro.core.reference import reference_dgemm
from repro.core.session import Session
from repro.errors import UnsupportedShapeError
from repro.multi import dgemm_multi_cg
from repro.workloads.matrices import gemm_operands


@pytest.fixture()
def small() -> BlockingParams:
    return BlockingParams.small(double_buffered=True)


class TestBasics:
    def test_default_variant_is_sched(self, small):
        a, b, c = gemm_operands(small.b_m, small.b_n, small.b_k)
        out = dgemm(a, b, c, alpha=1.0, beta=1.0, params=small, check=True)
        assert out.shape == (small.b_m, small.b_n)

    def test_c_optional_when_beta_zero(self, small):
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        out = dgemm(a, b, params=small)
        assert np.allclose(out, a @ b, rtol=1e-12, atol=1e-9)

    def test_beta_without_c_rejected(self, small):
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        with pytest.raises(UnsupportedShapeError):
            dgemm(a, b, beta=1.0, params=small)

    def test_input_arrays_unchanged(self, small):
        a, b, c = gemm_operands(small.b_m, small.b_n, small.b_k)
        snapshots = (a.copy(), b.copy(), c.copy())
        dgemm(a, b, c, beta=1.0, params=small)
        for arr, snap in zip((a, b, c), snapshots):
            assert np.array_equal(arr, snap)

    @pytest.mark.parametrize("variant", ["RAW", "PE", "ROW", "DB", "SCHED"])
    def test_all_variants_through_api(self, variant):
        if variant in ("PE", "ROW"):
            params = BlockingParams.small(double_buffered=False)
        else:
            params = BlockingParams.small(double_buffered=True)
        m, n, k = params.b_m, params.b_n, params.b_k
        a, b, c = gemm_operands(m, n, k, seed=3)
        out = dgemm(a, b, c, alpha=0.7, beta=0.3, variant=variant, params=params)
        assert np.allclose(out, reference_dgemm(0.7, a, b, 0.3, c), rtol=1e-12, atol=1e-9)


class TestShapeHandling:
    def test_non_multiple_rejected_without_pad(self, small):
        a = np.ones((small.b_m + 8, small.b_k))
        b = np.ones((small.b_k, small.b_n))
        with pytest.raises(UnsupportedShapeError):
            dgemm(a, b, params=small)

    def test_pad_extension(self, small, rng):
        m, n, k = small.b_m - 8, small.b_n - 4, small.b_k - 8
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        out = dgemm(a, b, c, alpha=1.2, beta=0.8, params=small, pad=True)
        assert out.shape == (m, n)
        assert np.allclose(out, reference_dgemm(1.2, a, b, 0.8, c), rtol=1e-12, atol=1e-9)

    def test_inner_dim_mismatch(self, small):
        with pytest.raises(UnsupportedShapeError):
            dgemm(np.ones((16, 8)), np.ones((9, 16)), params=small)

    def test_c_shape_mismatch(self, small):
        a = np.ones((small.b_m, small.b_k))
        b = np.ones((small.b_k, small.b_n))
        for beta in (1.0, 0.0):  # beta=0 skips reading C, not its shape check
            with pytest.raises(UnsupportedShapeError):
                dgemm(a, b, np.ones((4, 4)), beta=beta, params=small)

    def test_non_2d_rejected(self, small):
        with pytest.raises(UnsupportedShapeError):
            dgemm(np.ones(4), np.ones((4, 4)), params=small)


class TestCoreGroupReuse:
    def test_stats_accumulate_on_shared_group(self, small):
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, params=small, core_group=cg)
        first = cg.dma.stats.bytes_total
        dgemm(a, b, params=small, core_group=cg)
        assert cg.dma.stats.bytes_total > first

    def test_fresh_group_frees_operands(self, small):
        # dgemm with no core_group must not leak matrices into a
        # caller-visible device; just check it runs twice cleanly
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, params=small)
        dgemm(a, b, params=small)

    def test_check_flag_passes_on_correct_result(self, small):
        a, b, c = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, c, beta=1.0, params=small, check=True)


class TestStagingLifecycle:
    """The memory-budget invariant: a dgemm call owns its staging."""

    def test_shared_group_budget_restored(self, small):
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        baseline = cg.memory.used_bytes
        dgemm(a, b, params=small, core_group=cg)
        assert cg.memory.used_bytes == baseline
        assert cg.memory.handles() == []

    def test_no_legacy_staging_names_survive(self, small):
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, params=small, core_group=cg)
        names = {h.name for h in cg.memory.handles()}
        assert not any(n.startswith("dgemm.") for n in names)
        assert names == set()

    def test_budget_restored_when_variant_raises(self, small, monkeypatch):
        class ExplodingVariant:
            def default_params(self):
                return small

            def run(self, cg, a, b, c, **kwargs):
                raise RuntimeError("mid-run failure")

        monkeypatch.setattr(
            "repro.core.api.get_variant", lambda name: ExplodingVariant()
        )
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        baseline = cg.memory.used_bytes
        with pytest.raises(RuntimeError):
            # the fake variant has only ``run``: the device engine path
            dgemm(a, b, engine="device", params=small, core_group=cg)
        assert cg.memory.used_bytes == baseline
        assert cg.memory.handles() == []

    def test_unrelated_resident_matrices_untouched(self, small):
        cg = CoreGroup()
        cg.memory.store("user.X", np.full((16, 16), 3.0))
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, params=small, core_group=cg)
        assert [h.name for h in cg.memory.handles()] == ["user.X"]
        assert cg.memory.array("user.X")[0, 0] == 3.0

    def test_external_context_keeps_staging_warm(self, small):
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        with ExecutionContext(cg) as ctx:
            dgemm(a, b, params=small, context=ctx)
            allocs = cg.memory.stats.allocations
            dgemm(a, b, params=small, context=ctx)
            # second same-shape call restages in place: zero new arrays
            assert cg.memory.stats.allocations == allocs
        assert cg.memory.used_bytes == 0

    def test_single_host_copy_per_operand(self, small):
        cg = CoreGroup()
        a, b, c = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, c, beta=1.0, params=small, core_group=cg)
        # three operands, three allocations, no asfortranarray+copy churn
        assert cg.memory.stats.allocations == 3
        assert cg.memory.stats.in_place_stores == 0


def _dgemm(engine, params, a, b, c, alpha, beta):
    return dgemm(
        a, b, c, alpha=alpha, beta=beta, engine=engine, params=params, pad=True
    )


def _session_dgemm(engine, params, a, b, c, alpha, beta):
    with Session(engine=engine, params=params, n_core_groups=1) as session:
        return session.dgemm(a, b, c, alpha=alpha, beta=beta)


def _session_batch(engine, params, a, b, c, alpha, beta):
    request = GemmRequest(a, b, c, alpha=alpha, beta=beta)
    with Session(engine=engine, params=params, n_core_groups=1) as session:
        result = session.batch([request], isolate_failures=False)
    return result.outputs[0]


def _session_submit(engine, params, a, b, c, alpha, beta):
    request = GemmRequest(a, b, c, alpha=alpha, beta=beta)
    with Session(engine=engine, params=params, n_core_groups=1) as session:
        result = session.submit(request)
    assert result.error is None
    return result.value


def _multi_cg(engine, params, a, b, c, alpha, beta):
    return dgemm_multi_cg(a, b, c, alpha=alpha, beta=beta, params=params,
                          pad=True)


#: every entry point that funnels into ``dgemm``; ``dgemm_multi_cg``
#: has no engine choice and runs the default engine.
ENTRY_POINT_CASES = [
    pytest.param(engine, run, id=f"{engine}-{run.__name__.lstrip('_')}")
    for engine in ("device", "stepwise", "vectorized")
    for run in (_dgemm, _session_dgemm, _session_batch, _session_submit)
] + [pytest.param(DEFAULT_ENGINE, _multi_cg,
                  id=f"{DEFAULT_ENGINE}-multi_cg")]


class TestBetaZeroNeverReadsC:
    """BLAS contract: with ``beta == 0`` a NaN in C must not leak."""

    ALPHA = -0.5

    @pytest.fixture()
    def operands(self):
        a, b, c = gemm_operands(120, 60, 100, seed=7)
        return a, b, np.full_like(c, np.nan)

    @pytest.mark.parametrize("engine, run", ENTRY_POINT_CASES)
    def test_nan_c_ignored(self, engine, run, operands, small):
        a, b, c = operands
        out = run(engine, small, a, b, c, self.ALPHA, 0.0)
        assert np.isfinite(out).all()
        assert np.allclose(out, self.ALPHA * (a @ b), rtol=1e-12, atol=1e-9)

    def test_reference_ignores_c(self, operands):
        a, b, c = operands
        out = reference_dgemm(self.ALPHA, a, b, 0.0, c)
        assert np.isfinite(out).all()
        assert np.allclose(out, self.ALPHA * (a @ b), rtol=1e-12, atol=1e-9)


class TestAlphaZeroNeverReadsAB:
    """BLAS contract: with ``alpha == 0`` an Inf in A or B must not leak."""

    BETA = 0.75

    @pytest.fixture()
    def operands(self):
        a, b, c = gemm_operands(120, 60, 100, seed=8)
        a[3, 4] = np.inf
        b[5, 6] = np.nan
        return a, b, c

    @pytest.mark.parametrize("engine, run", ENTRY_POINT_CASES)
    def test_returns_beta_c_exactly(self, engine, run, operands, small):
        a, b, c = operands
        out = run(engine, small, a, b, c, 0.0, self.BETA)
        assert np.array_equal(out, self.BETA * c)

    @pytest.mark.parametrize("engine", ["device", "stepwise", "vectorized"])
    def test_stats_match_a_nonzero_alpha(self, engine, small):
        """Zeros are staged under the same slots and shapes, so the
        staging counters and the analytic traffic do not change."""
        a, b, c = gemm_operands(120, 60, 100, seed=9)
        stats = []
        for alpha in (0.0, 1.0):
            cg = CoreGroup()
            with ExecutionContext(cg) as ctx:
                dgemm(a, b, c, alpha=alpha, beta=self.BETA, engine=engine,
                      params=small, context=ctx, pad=True)
                stats.append(ctx.stats())
        assert stats[0] == stats[1]

    def test_alpha_and_beta_zero_give_zeros(self, operands, small):
        a, b, c = operands
        out = dgemm(a, b, np.full_like(c, np.nan), alpha=0.0, beta=0.0,
                    params=small, pad=True)
        assert np.array_equal(out, np.zeros_like(c))

    def test_reference_skips_the_product(self, operands):
        a, b, c = operands
        assert np.array_equal(reference_dgemm(0.0, a, b, self.BETA, c),
                              self.BETA * c)
        assert np.array_equal(reference_dgemm(0.0, a, b, 0.0, c),
                              np.zeros_like(c))


class TestCheckFollowsTheContract:
    """``check=True`` accepts what the engine contract accepts: NaN and
    Inf where the reference has them, and finite error within
    ``contract_bound`` rather than a fixed absolute tolerance."""

    @pytest.fixture()
    def nan_operands(self):
        a, b, c = gemm_operands(120, 60, 100, seed=7)
        a[3, 4] = np.nan
        return a, b, c

    @pytest.mark.parametrize("engine", ["device", "stepwise", "vectorized"])
    def test_dgemm_accepts_propagated_nan(self, engine, nan_operands, small):
        a, b, c = nan_operands
        out = dgemm(a, b, c, beta=1.0, engine=engine, params=small,
                    pad=True, check=True)
        expected = reference_dgemm(1.0, a, b, 1.0, c)
        assert np.array_equal(np.isnan(out), np.isnan(expected))
        assert np.isnan(out[3]).all()

    def test_multi_cg_accepts_propagated_nan(self, nan_operands, small):
        a, b, c = nan_operands
        out = dgemm_multi_cg(a, b, c, beta=1.0, params=small, pad=True,
                             check=True)
        assert np.isnan(out[3]).all()

    @pytest.mark.parametrize("where", ["session", "options"])
    def test_session_submit_accepts_propagated_nan(self, where,
                                                   nan_operands, small):
        a, b, c = nan_operands
        request = GemmRequest(a, b, c, beta=1.0)
        with Session(params=small, n_core_groups=1,
                     check=where == "session") as session:
            options = SubmitOptions(check=True) if where == "options" else None
            result = session.submit(request, options=options)
        assert result.error is None
        assert np.isnan(result.value[3]).all()

    @pytest.mark.parametrize("engine", ["device", "stepwise", "vectorized"])
    def test_cancellation_within_the_bound_passes(self, engine, small):
        """C = -A@B at operand scale 1e3 leaves only rounding, far above
        a fixed 1e-9 but inside the componentwise contract bound."""
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k, seed=3)
        a, b = 1e3 * a, 1e3 * b
        dgemm(a, b, -(a @ b), beta=1.0, engine=engine, params=small,
              check=True)

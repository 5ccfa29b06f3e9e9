"""Integration: the paper's quantitative claims, asserted with the
tolerances EXPERIMENTS.md documents.

Each test names the paper artifact it guards.  These are the tests that
fail if a calibration constant or model change breaks the reproduction.
"""

import pytest

from repro.arch.config import DEFAULT_SPEC
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.core.variants import VARIANTS
from repro.experiments import (
    fig4_dma_bandwidth,
    fig6_variants,
    fig7_shapes,
    sched_profile,
    table_blocksize,
)
from repro.workloads.matrices import mixed_batch


@pytest.fixture(scope="module")
def fig6():
    return fig6_variants.run()


@pytest.fixture(scope="module")
def fig4():
    return fig4_dma_bandwidth.run()


@pytest.fixture(scope="module")
def fig7():
    return fig7_shapes.run()


class TestFigure6:
    def test_strict_variant_ordering_at_every_size(self, fig6):
        for idx in range(len(fig6.sizes)):
            series = [fig6.gflops[v][idx] for v in ("RAW", "PE", "ROW", "DB", "SCHED")]
            assert series == sorted(series)
            assert len(set(series)) == 5

    def test_session_batch_orders_the_ladder(self):
        """The ladder holds end to end: a small mixed batch run through
        ``Session.batch`` on a 2-CG pool reaches strictly more modeled
        Gflop/s at each optimization step."""
        items = mixed_batch(6, seed=0)
        gflops = []
        for variant in ("RAW", "PE", "ROW", "DB", "SCHED"):
            params = BlockingParams(
                16, 8, 16,
                double_buffered=VARIANTS[variant].traits.double_buffered,
            )
            with Session(variant=variant, params=params,
                         n_core_groups=2) as session:
                result = session.batch(items)
            assert not result.errors
            gflops.append(result.flops / result.makespan_seconds / 1e9)
        assert all(lo < hi for lo, hi in zip(gflops, gflops[1:])), gflops

    def test_sched_peak_95pct(self, fig6):
        """Paper: 706.1 Gflop/s = 95% of peak."""
        assert 0.92 <= fig6.peak_efficiency("SCHED") <= 0.97

    def test_sched_sustained_within_3pct_of_paper(self, fig6):
        assert fig6.sustained("SCHED") == pytest.approx(706.1, rel=0.03)

    def test_raw_sustained_within_10pct_of_paper(self, fig6):
        assert fig6.sustained("RAW") == pytest.approx(157.9, rel=0.10)

    @pytest.mark.parametrize("variant,paper,tol", [
        ("PE", 224.7, 0.15), ("ROW", 262.0, 0.10), ("DB", 330.1, 0.10),
    ])
    def test_mid_variants_within_tolerance(self, fig6, variant, paper, tol):
        assert fig6.sustained(variant) == pytest.approx(paper, rel=tol)

    def test_db_over_row_improvement(self, fig6):
        """Paper: +26%."""
        assert fig6.improvement("DB", "ROW") == pytest.approx(0.26, abs=0.06)

    def test_sched_over_db_improvement(self, fig6):
        """Paper: +113.9%."""
        assert fig6.improvement("SCHED", "DB") == pytest.approx(1.139, abs=0.15)

    def test_pe_over_raw_improvement_sign_and_scale(self, fig6):
        """Paper: +42.3%; the model runs hot here (documented) but the
        gain must be large and positive."""
        assert 0.25 <= fig6.improvement("PE", "RAW") <= 0.80

    def test_row_over_pe_improvement_sign_and_scale(self, fig6):
        """Paper: +16.6%; ours is smaller (documented) but positive."""
        assert 0.05 <= fig6.improvement("ROW", "PE") <= 0.25

    def test_monotone_rise_to_saturation(self, fig6):
        for variant in ("RAW", "PE", "ROW", "DB", "SCHED"):
            series = fig6.gflops[variant]
            assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))

    def test_saturation_by_9216(self, fig6):
        """Paper: 'maximum performance reaches when size is around
        9216' — past it the curve gains < 1.5%."""
        sched = dict(zip(fig6.sizes, fig6.gflops["SCHED"]))
        assert sched[15360] / sched[9216] < 1.015

    def test_sched_series_tracks_paper_labels(self, fig6):
        for size, paper_val in zip(fig6.sizes, fig6_variants.PAPER_SCHED_SERIES):
            ours = dict(zip(fig6.sizes, fig6.gflops["SCHED"]))[size]
            assert ours == pytest.approx(paper_val, rel=0.03)

    def test_pe_version_about_one_third_of_peak(self, fig6):
        """Sec IV: blocking alone yields 'less than 1/3 of the peak'.
        Our PE lands at ~33.5%, right at the claim's boundary."""
        assert fig6.peak_efficiency("PE") <= 0.36


class TestFigure4:
    def test_row_superior_everywhere(self, fig4):
        for pe, row in zip(fig4.pe_bandwidth, fig4.row_bandwidth):
            assert row > pe

    def test_both_rise_monotonically(self, fig4):
        for series in (fig4.pe_bandwidth, fig4.row_bandwidth):
            assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))

    def test_plateaus_in_paper_bands(self, fig4):
        """Fig 4 axis range is 10-30 GB/s; PE saturates low 20s (ours
        is conservative at ~19), ROW high 20s."""
        assert 17.0 <= fig4.plateau("PE") <= 23.0
        assert 26.0 <= fig4.plateau("ROW") <= 30.0

    def test_low_end_below_plateau(self, fig4):
        assert fig4.pe_bandwidth[0] < 0.75 * fig4.plateau("PE")
        assert fig4.row_bandwidth[0] < 0.70 * fig4.plateau("ROW")

    def test_below_channel_peak(self, fig4):
        assert max(fig4.row_bandwidth) < 34.0


class TestFigure7:
    def test_small_m_hurts(self, fig7):
        by_shape = fig7.by_shape()
        assert by_shape[(1536, 9216, 9216)] < 0.95 * by_shape[(12288, 9216, 9216)]

    def test_m_recovers_with_size(self, fig7):
        by_shape = fig7.by_shape()
        ms = [by_shape[(v, 9216, 9216)] for v in (1536, 3072, 6144, 12288)]
        assert ms == sorted(ms)

    def test_n_k_negligible(self, fig7):
        assert fig7.spread("n") < 0.02
        assert fig7.spread("k") < 0.02
        assert fig7.spread("m") > 0.05


class TestSecIIIC:
    def test_block_size_constants(self):
        result = table_blocksize.run()
        assert result.min_b_n == pytest.approx(174.68, abs=0.05)
        assert result.min_b_k == pytest.approx(349.36, abs=0.1)
        assert result.register_tile == (4, 4)
        assert result.register_budget == 24
        assert result.register_reduction == pytest.approx(4.0)
        assert result.ldm_single == 6912 < 8192
        assert result.ldm_double == 7168 < 8192

    def test_required_bandwidth_below_channel(self):
        result = table_blocksize.run()
        assert result.required_bw_gbs < 34.0


class TestSecIVC:
    def test_strip_cycles_and_occupancy(self):
        result = sched_profile.run()
        assert result.scheduled.strip_cycles == pytest.approx(101_858, rel=0.03)
        assert result.scheduled.vmad_occupancy == pytest.approx(0.97, abs=0.015)

    def test_kernel_speedup_matches_sched_gain(self):
        result = sched_profile.run()
        assert result.speedup == pytest.approx(2.139, rel=0.12)

    def test_hand_schedule_hits_theoretical_16(self):
        result = sched_profile.run()
        assert result.hand_cycles_per_iteration == pytest.approx(16.0)

    def test_auto_scheduler_between_naive_and_hand(self):
        result = sched_profile.run()
        assert (
            result.hand_cycles_per_iteration
            <= result.auto_cycles_per_iteration
            < result.naive_cycles_per_iteration
        )


class TestPeakHardware:
    def test_peak_is_742_4(self):
        assert DEFAULT_SPEC.peak_flops / 1e9 == pytest.approx(742.4)

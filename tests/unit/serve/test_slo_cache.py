"""Unit tests for the serving tier's SLO ledger and operand cache."""

import numpy as np
import pytest

from repro.api import SubmitOptions
from repro.errors import ConfigError
from repro.serve import OperandCache, ServeConfig, SLOTracker
from repro.serve.slo import percentile


class TestPercentile:
    def test_nearest_rank_returns_observed_samples(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0

    def test_small_sample_counts(self):
        assert percentile([3.0], 99) == 3.0
        assert percentile([1.0, 2.0], 50) == 1.0
        assert percentile([], 50) == 0.0


class TestSLOTracker:
    def test_per_bin_reports_are_ordered(self):
        slo = SLOTracker()
        for ms in (1, 9, 5, 7, 3):
            slo.record("gemm:64x64x64", total_seconds=ms / 1e3)
        slo.record("lu:128x32", total_seconds=0.5, error=True)
        reports = slo.report()
        assert [r.bin for r in reports] == ["gemm:64x64x64", "lu:128x32"]
        gemm = reports[0]
        assert gemm.count == 5
        assert gemm.p50_seconds == 0.005
        assert gemm.p50_seconds <= gemm.p95_seconds <= gemm.p99_seconds
        assert reports[1].errors == 1

    def test_snapshot_is_flat_and_numeric(self):
        slo = SLOTracker()
        slo.record("gemm:64x64x64", total_seconds=0.25, cache_hit=True)
        snap = slo.snapshot()
        assert snap["gemm:64x64x64.count"] == 1.0
        assert snap["gemm:64x64x64.cache_hits"] == 1.0
        assert all(
            isinstance(v, float) for v in snap.values()
        )

    def test_render_mentions_every_bin(self):
        slo = SLOTracker()
        slo.record("gemm:64x64x64", total_seconds=0.001)
        table = slo.render()
        assert "gemm:64x64x64" in table
        assert "p99" in table


class TestSLOTrackerHistogramBacking:
    def test_memory_is_bounded_but_percentiles_stay_useful(self):
        slo = SLOTracker(exact_reservoir=100)
        for i in range(10_000):
            slo.record("gemm:64x64x64", total_seconds=0.001 * (1 + i % 10))
        report = slo.report()[0]
        assert report.count == 10_000
        assert not report.exact  # reservoir overflowed -> histogram
        # log buckets guarantee at most one growth factor of error.
        assert 0.005 <= report.p50_seconds <= 0.005 * 1.25

    def test_small_bins_report_exact_percentiles(self):
        slo = SLOTracker()
        for ms in (1, 2, 3):
            slo.record("gemm:8x8x8", total_seconds=ms / 1e3)
        report = slo.report()[0]
        assert report.exact
        assert report.p50_seconds == 0.002  # an observed sample

    def test_zero_reservoir_disables_exact_mode(self):
        slo = SLOTracker(exact_reservoir=0)
        slo.record("gemm:8x8x8", total_seconds=0.004)
        assert not slo.report()[0].exact

    def test_gflops_and_dma_bytes_distributions(self):
        slo = SLOTracker()
        slo.record(
            "gemm:64x64x64",
            total_seconds=0.01,
            gflops=12.0,
            dma_bytes=4096.0,
        )
        slo.record("gemm:64x64x64", total_seconds=0.01)  # a cache hit
        report = slo.report()[0]
        assert report.p50_gflops > 0
        assert report.mean_dma_bytes == 4096.0
        snap = slo.snapshot()
        assert snap["gemm:64x64x64.p50_gflops"] == report.p50_gflops

    def test_histogram_families_cover_all_latency_bins(self):
        slo = SLOTracker()
        slo.record("gemm:64x64x64", total_seconds=0.01, gflops=3.0)
        slo.record("lu:128x32", total_seconds=0.02)
        families = {f.name: f for f in slo.histogram_families()}
        total = families["serve.latency.total_seconds"]
        assert [label for label, _ in total.series] == [
            "gemm:64x64x64",
            "lu:128x32",
        ]
        assert total.label == "bin"
        # optional distributions omit bins that never recorded them.
        gflops = families["serve.gflops"]
        assert [label for label, _ in gflops.series] == ["gemm:64x64x64"]

    def test_queue_and_service_means(self):
        slo = SLOTracker()
        slo.record(
            "gemm:8x8x8",
            total_seconds=0.010,
            queue_seconds=0.004,
            service_seconds=0.006,
        )
        report = slo.report()[0]
        assert report.mean_queue_seconds == pytest.approx(0.004)
        assert report.mean_service_seconds == pytest.approx(0.006)


class TestOperandCache:
    def test_hit_returns_an_independent_copy(self):
        cache = OperandCache(4)
        key = ("abc", SubmitOptions())
        value = np.ones((3, 3))
        cache.put(key, value)
        value[0, 0] = 99.0  # caller mutates after insert
        hit, out = cache.get(key)
        assert hit
        assert out[0, 0] == 1.0
        out[1, 1] = 77.0  # response mutates after serve
        _, again = cache.get(key)
        assert again[1, 1] == 1.0

    def test_lru_eviction_order(self):
        cache = OperandCache(2)
        opts = SubmitOptions()
        cache.put(("a", opts), np.full(1, 1.0))
        cache.put(("b", opts), np.full(1, 2.0))
        assert cache.get(("a", opts))[0]  # refresh a
        cache.put(("c", opts), np.full(1, 3.0))  # evicts b
        assert not cache.get(("b", opts))[0]
        assert cache.get(("a", opts))[0]
        assert cache.get(("c", opts))[0]

    def test_options_are_part_of_the_key(self):
        cache = OperandCache(4)
        cache.put(("h", SubmitOptions(engine="device")), np.ones(1))
        assert not cache.get(("h", SubmitOptions()))[0]

    def test_zero_capacity_disables_storage(self):
        cache = OperandCache(0)
        cache.put(("h", SubmitOptions()), np.ones(1))
        assert not cache.get(("h", SubmitOptions()))[0]
        assert cache.stats()["entries"] == 0

    def test_evictions_are_counted(self):
        cache = OperandCache(2)
        opts = SubmitOptions()
        for key in ("a", "b", "c", "d"):
            cache.put((key, opts), np.ones(1))
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["entries"] == 2


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="window_seconds"):
            ServeConfig(window_seconds=-1)
        with pytest.raises(ConfigError, match="max_batch_size"):
            ServeConfig(max_batch_size=0)
        with pytest.raises(ConfigError, match="max_pending"):
            ServeConfig(max_pending=0)
        with pytest.raises(ConfigError, match="cache_entries"):
            ServeConfig(cache_entries=-1)

    def test_defaults_are_sane(self):
        config = ServeConfig()
        assert config.window_seconds > 0
        assert config.max_batch_size >= 2

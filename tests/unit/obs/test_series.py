"""Unit tests for TimeSeries rings and the MetricsSampler."""

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, MetricsSampler, TimeSeries


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTimeSeries:
    def test_capacity_floor(self):
        with pytest.raises(ConfigError):
            TimeSeries(1)

    def test_ring_overwrites_oldest(self):
        series = TimeSeries(3)
        for t in range(5):
            series.push(float(t), float(10 * t))
        assert len(series) == 3
        assert series.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]


class TestMetricsSampler:
    def _sampler(self, source: dict, capacity: int = 16) -> MetricsSampler:
        registry = MetricsRegistry().register("src", lambda: source)
        return MetricsSampler(
            registry, period_seconds=0.01, capacity=capacity,
            clock=FakeClock(),
        )

    def test_bad_period_rejected(self):
        with pytest.raises(ConfigError):
            MetricsSampler(MetricsRegistry(), period_seconds=0.0)

    def test_sample_once_builds_one_series_per_counter(self):
        source = {"a": 1, "b": 2}
        sampler = self._sampler(source)
        sampler.sample_once()
        source["a"] = 5
        sampler.sample_once()
        assert sampler.series("src.a").points() == [(0.0, 1.0), (0.0, 5.0)]
        assert sampler.series("src.b").points() == [(0.0, 2.0), (0.0, 2.0)]
        assert sampler.series("src.c") is None
        assert sampler.samples == 2

    def test_deltas_telescope_to_last_minus_first(self):
        source = {"n": 0}
        sampler = self._sampler(source)
        clock = sampler.clock
        for value in (0, 3, 7, 7, 20):
            source["n"] = value
            sampler.sample_once()
            clock.now += 1.0
        deltas = sampler.deltas("src.n")
        assert [d for _, d in deltas] == [3.0, 4.0, 0.0, 13.0]
        assert sum(d for _, d in deltas) == 20.0

    def test_source_errors_counted_not_raised(self):
        registry = MetricsRegistry().register(
            "bad", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        sampler = MetricsSampler(registry, clock=FakeClock())
        assert sampler.sample_once() == {}
        assert sampler.errors == 1
        assert sampler.samples == 0

    def test_thread_lifecycle_brackets_run_with_samples(self):
        source = {"n": 0}
        registry = MetricsRegistry().register("src", lambda: source)
        sampler = MetricsSampler(registry, period_seconds=0.002)
        with sampler:
            assert sampler.running
            source["n"] = 42
        assert not sampler.running
        # start() took a baseline, stop() took a closing sample, so the
        # full change is covered regardless of thread timing.
        assert sampler.samples >= 2
        pts = sampler.series("src.n").points()
        assert pts[0][1] == 0.0 and pts[-1][1] == 42.0

    def test_stats_is_a_registry_source(self):
        sampler = self._sampler({"a": 1})
        sampler.sample_once()
        stats = sampler.stats()
        assert stats["samples"] == 1.0
        assert stats["errors"] == 0.0
        assert stats["series"] == 1.0
        assert stats["period_seconds"] == 0.01

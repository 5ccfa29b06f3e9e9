"""Unit tests for the E10 scheduler-scaling experiment."""

import pytest

from repro.experiments import scheduler_scaling


@pytest.fixture(scope="module")
def result():
    return scheduler_scaling.run()


class TestSchedulerScaling:
    def test_sweeps_every_pool_size(self, result):
        assert result.pools == (1, 2, 3, 4)
        assert all(p.n_core_groups == n for n, p in zip(result.pools, result.plans))

    def test_one_cg_pool_is_serial(self, result):
        plan = result.plan_for(1)
        assert plan.modeled_speedup == pytest.approx(1.0)

    def test_makespan_monotone_in_pool_size(self, result):
        makespans = [p.makespan_seconds for p in result.plans]
        assert makespans == sorted(makespans, reverse=True)

    def test_four_cg_speedup_band(self, result):
        assert 3.8 <= result.speedup_at_4 <= 4.0

    def test_unknown_pool_raises(self, result):
        with pytest.raises(KeyError):
            result.plan_for(5)

    def test_shapes_interleaved_not_grouped(self, result):
        """The stream must interleave shapes (the scheduling challenge)."""
        assert result.shapes[0] != result.shapes[1]

    def test_render(self, result):
        text = scheduler_scaling.render(result).render()
        assert "E10" in text
        assert "mixed-shape" in text

"""Per-item blocking overrides on the scheduler.

Covers the ``blocking=`` pass-through from ``Session.batch`` to
``CGScheduler``; validation errors name the offending item index, as
``validate_items`` does.
"""

import numpy as np
import pytest

from repro.api import GemmRequest
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.errors import ConfigError
from repro.multi import CGScheduler
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)
ALT = BlockingParams(p_m=16, p_n=16, p_k=32)


def items_of(shapes, seed=0):
    return [
        GemmRequest(*gemm_operands(m, n, k, seed=seed + i)[:2])
        for i, (m, n, k) in enumerate(shapes)
    ]


SHAPES = [(64, 32, 64), (128, 64, 128), (64, 32, 64)]


class TestResolveBlocking:
    def test_single_override_broadcasts(self):
        scheduler = CGScheduler(n_core_groups=2)
        resolved = scheduler.resolve_blocking(SHAPES, blocking=ALT)
        assert resolved == [ALT] * 3

    def test_per_item_list(self):
        scheduler = CGScheduler(n_core_groups=2)
        overrides = [ALT, None, PARAMS]
        resolved = scheduler.resolve_blocking(SHAPES, blocking=overrides)
        assert resolved[0] == ALT
        # None -> what an item without an override runs
        assert resolved[1] == scheduler.blocking_for(*SHAPES[1])
        assert resolved[2] == PARAMS

    def test_length_mismatch_counts_both_sides(self):
        scheduler = CGScheduler(n_core_groups=2)
        with pytest.raises(
            ConfigError, match=r"carries 2 overrides for 3 items"
        ):
            scheduler.resolve_blocking(SHAPES, blocking=[ALT, PARAMS])

    def test_bad_entry_names_item_index(self):
        scheduler = CGScheduler(n_core_groups=2)
        with pytest.raises(ConfigError, match=r"batch item 1:.*got str"):
            scheduler.resolve_blocking(SHAPES, blocking=[ALT, "16x8x16", None])

    def test_infeasible_override_names_item_index(self):
        huge = BlockingParams(p_m=32, p_n=48, p_k=96)
        scheduler = CGScheduler(n_core_groups=2)
        with pytest.raises(ConfigError, match=r"batch item 2"):
            scheduler.resolve_blocking(SHAPES, blocking=[None, None, huge])

    def test_wrong_buffering_regime_names_item_index(self):
        single = BlockingParams(p_m=16, p_n=8, p_k=16, double_buffered=False)
        scheduler = CGScheduler(n_core_groups=2, variant="SCHED")
        with pytest.raises(
            ConfigError, match=r"batch item 0.*double-buffered"
        ):
            scheduler.resolve_blocking(SHAPES, blocking=[single, None, None])


class TestBatchOverrides:
    def test_override_matches_explicit_session_bitwise(self):
        items = items_of(SHAPES)
        with Session(n_core_groups=2) as session:
            via_override = session.batch(items, blocking=ALT)
        with Session(n_core_groups=2, params=ALT) as session:
            via_params = session.batch(items)
        for got, want in zip(via_override.outputs, via_params.outputs):
            assert np.array_equal(got, want)
        assert via_override.flops == via_params.flops

    def test_mixed_overrides_execute_correctly(self):
        items = items_of(SHAPES)
        with Session(n_core_groups=2) as session:
            result = session.batch(items, blocking=[ALT, None, PARAMS])
        assert not result.errors
        for item, out in zip(items, result.outputs):
            want = np.asarray(item.a) @ np.asarray(item.b)
            np.testing.assert_allclose(out, want, rtol=1e-10)

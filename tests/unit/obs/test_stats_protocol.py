"""The uniform as_dict/delta/plus/zero protocol on every stats class."""

import dataclasses

import pytest

from repro.arch.dma import DMAStats
from repro.arch.memory import MemoryStats
from repro.arch.regcomm import RegCommStats
from repro.arch.swcache import CacheStats
from repro.core.context import ContextStats
from repro.core.session import SessionStats
from repro.multi.noc import NoCStats
from repro.utils.stats import StatsProtocol

ALL_STATS = [
    DMAStats, RegCommStats, CacheStats, MemoryStats, NoCStats,
    ContextStats, SessionStats,
]


@pytest.mark.parametrize("cls", ALL_STATS)
class TestProtocolUniform:
    def test_implements_protocol(self, cls):
        assert issubclass(cls, StatsProtocol)

    def test_zero_has_every_field_at_zero(self, cls):
        zero = cls.zero()
        for f in dataclasses.fields(cls):
            value = getattr(zero, f.name)
            if isinstance(value, StatsProtocol):
                assert value.as_dict() == value.zero().as_dict()
            elif isinstance(value, dict):
                assert value == {}
            else:
                assert value == 0

    def test_zero_results_share_no_mutable_field(self, cls):
        # zero() caches the type hints, never an instance
        first, second = cls.zero(), cls.zero()
        assert first is not second
        for f in dataclasses.fields(cls):
            value = getattr(first, f.name)
            if isinstance(value, (dict, StatsProtocol)):
                assert value is not getattr(second, f.name)

    def test_as_dict_covers_every_field(self, cls):
        assert set(cls.zero().as_dict()) == {
            f.name for f in dataclasses.fields(cls)
        }

    def test_delta_of_self_is_zero(self, cls):
        zero = cls.zero()
        assert zero.delta(zero).as_dict() == zero.as_dict()

    def test_plus_zero_is_identity(self, cls):
        zero = cls.zero()
        assert zero.plus(zero).as_dict() == zero.as_dict()

    def test_snapshot_is_independent(self, cls):
        zero = cls.zero()
        snap = zero.snapshot()
        assert snap is not zero
        assert snap.as_dict() == zero.as_dict()


class TestArithmetic:
    def test_numeric_fields_add_and_subtract(self):
        a = CacheStats(hits=5, misses=2, evictions=1, writebacks=0)
        b = CacheStats(hits=2, misses=1, evictions=1, writebacks=0)
        assert a.plus(b).hits == 7
        assert a.delta(b).hits == 3
        assert a.delta(b).evictions == 0

    def test_dict_fields_combine_keywise_with_missing_as_zero(self):
        a = DMAStats(bytes_get=10, by_mode={"PE_MODE": 8, "ROW_MODE": 2})
        b = DMAStats(bytes_get=4, by_mode={"PE_MODE": 3})
        assert a.plus(b).by_mode == {"PE_MODE": 11, "ROW_MODE": 2}
        assert a.delta(b).by_mode == {"PE_MODE": 5, "ROW_MODE": 2}

    def test_nested_stats_recurse(self):
        a = SessionStats(calls=2, batches=1, items=4, failures=0,
                         flops=100, padded_flops=120,
                         traffic=ContextStats(staged=3, allocations=3,
                                              plan_hits=1, dma_bytes=64,
                                              dma_transactions=2,
                                              regcomm_bytes=32))
        b = SessionStats(calls=1, batches=0, items=1, failures=0,
                         flops=40, padded_flops=48,
                         traffic=ContextStats(staged=1, allocations=1,
                                              plan_hits=0, dma_bytes=16,
                                              dma_transactions=1,
                                              regcomm_bytes=8))
        total = a.plus(b)
        assert total.calls == 3
        assert total.traffic.dma_bytes == 80
        diff = a.delta(b)
        assert diff.flops == 60
        assert diff.traffic.regcomm_bytes == 24

    def test_as_dict_nests_and_copies(self):
        stats = DMAStats(by_mode={"PE_MODE": 1})
        data = stats.as_dict()
        data["by_mode"]["PE_MODE"] = 999
        assert stats.by_mode["PE_MODE"] == 1

    def test_context_since_alias(self):
        later = ContextStats(staged=5, allocations=4, plan_hits=2,
                             dma_bytes=100, dma_transactions=10,
                             regcomm_bytes=50)
        earlier = ContextStats(staged=2, allocations=2, plan_hits=1,
                               dma_bytes=40, dma_transactions=4,
                               regcomm_bytes=20)
        assert later.since(earlier).as_dict() \
            == later.delta(earlier).as_dict()

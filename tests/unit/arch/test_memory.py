"""Unit tests for main memory."""

import numpy as np
import pytest

from repro.arch.config import SW26010Spec
from repro.arch.memory import MainMemory, MatrixHandle
from repro.errors import AlignmentError, ConfigError


@pytest.fixture()
def mem() -> MainMemory:
    return MainMemory()


class TestStore:
    def test_store_returns_handle(self, mem):
        h = mem.store("A", np.ones((32, 16)))
        assert h == MatrixHandle("A", 32, 16)
        assert h.nbytes == 32 * 16 * 8

    def test_stored_column_major(self, mem):
        h = mem.store("A", np.arange(12.0).reshape(3, 4))
        assert mem.array(h).flags.f_contiguous

    def test_store_copies_input(self, mem):
        src = np.ones((4, 4))
        h = mem.store("A", src)
        src[0, 0] = 99.0
        assert mem.array(h)[0, 0] == 1.0

    def test_rejects_non_2d(self, mem):
        with pytest.raises(ConfigError):
            mem.store("A", np.ones(5))

    def test_overwrite_same_name_reuses_budget(self, mem):
        mem.store("A", np.ones((16, 16)))
        used = mem.used_bytes
        mem.store("A", np.zeros((16, 16)))
        assert mem.used_bytes == used

    def test_overwrite_same_shape_reuses_allocation(self, mem):
        h = mem.store("A", np.ones((16, 16)))
        backing = mem.array(h)
        mem.store("A", np.full((16, 16), 4.0))
        assert mem.array("A") is backing  # documented in-place path
        assert backing[0, 0] == 4.0
        assert mem.stats.allocations == 1
        assert mem.stats.in_place_stores == 1

    def test_store_is_single_copy(self, mem):
        """Exactly one new array per fresh store — never the old
        asfortranarray + copy(order='F') double copy."""
        mem.store("A", np.ones((16, 16), order="C"))
        mem.store("B", np.ones((16, 16), order="F"))
        mem.store("C", np.ones((16, 16), dtype=np.float32))
        assert mem.stats.stores == 3
        assert mem.stats.allocations == 3

    def test_padded_store(self, mem):
        h = mem.store("A", np.ones((3, 2)), rows=8, cols=4)
        assert h.shape == (8, 4)
        arr = mem.array(h)
        assert np.all(arr[:3, :2] == 1.0)
        assert arr.sum() == 6.0  # border zeroed
        assert mem.used_bytes == 8 * 4 * 8

    def test_padded_store_rejects_too_small_target(self, mem):
        with pytest.raises(ConfigError):
            mem.store("A", np.ones((8, 8)), rows=4, cols=8)

    def test_store_zeros_requires_shape(self, mem):
        with pytest.raises(ConfigError):
            mem.store("A", None)

    def test_peak_bytes_high_water(self, mem):
        mem.store("A", np.ones((16, 16)))
        mem.store("B", np.ones((32, 32)))
        peak = mem.used_bytes
        mem.free("A")
        assert mem.used_bytes < peak
        assert mem.peak_bytes == peak
        assert mem.stats.frees == 1

    def test_budget_enforced(self):
        small = SW26010Spec(main_memory_bytes=1024)
        mem = MainMemory(small)
        with pytest.raises(MemoryError):
            mem.store("A", np.ones((64, 64)))

    def test_failed_store_keeps_old_matrix(self):
        small = SW26010Spec(main_memory_bytes=3000)
        mem = MainMemory(small)
        mem.store("A", np.full((16, 16), 7.0))
        with pytest.raises(MemoryError):
            mem.store("A", np.ones((64, 64)))
        assert mem.array("A")[0, 0] == 7.0
        assert mem.used_bytes == 16 * 16 * 8


class TestAccess:
    def test_read_is_a_copy(self, mem):
        h = mem.store("A", np.zeros((4, 4)))
        out = mem.read(h)
        out[0, 0] = 5.0
        assert mem.array(h)[0, 0] == 0.0

    def test_unknown_name_raises(self, mem):
        with pytest.raises(KeyError):
            mem.array("nope")

    def test_free(self, mem):
        mem.store("A", np.zeros((4, 4)))
        mem.free("A")
        assert mem.used_bytes == 0
        with pytest.raises(KeyError):
            mem.free("A")

    def test_handles_listing(self, mem):
        mem.store("A", np.zeros((4, 4)))
        mem.store("B", np.zeros((2, 2)))
        assert {h.name for h in mem.handles()} == {"A", "B"}

    def test_allocate_zeroed(self, mem):
        h = mem.allocate("Z", 8, 8)
        assert np.all(mem.array(h) == 0.0)


class TestAlignment:
    def test_aligned_column(self, mem):
        h = mem.store("A", np.zeros((128, 4)))
        mem.check_dma_alignment(h, 1)  # 128*8 = 1024 B per column

    def test_misaligned_column(self, mem):
        h = mem.store("A", np.zeros((12, 4)))  # 96 B columns
        with pytest.raises(AlignmentError):
            mem.check_dma_alignment(h, 1)


class TestBind:
    """A bound array is the resident matrix itself, accounted as a copy."""

    def test_bind_makes_no_copy(self, mem):
        src = np.asfortranarray(np.ones((16, 8)))
        h = mem.bind("A", src)
        assert h == MatrixHandle("A", 16, 8)
        assert mem.array(h) is src

    def test_bind_accounts_like_store(self, mem):
        other = MainMemory()
        src = np.asfortranarray(np.ones((16, 8)))
        mem.bind("A", src)
        other.store("A", src)
        assert mem.used_bytes == other.used_bytes == src.nbytes
        assert mem.peak_bytes == other.peak_bytes
        assert mem.stats == other.stats
        mem.bind("A", src.copy(order="F"))  # same-shape restage
        other.store("A", src)
        assert mem.stats == other.stats
        assert mem.stats.in_place_stores == 1
        mem.free("A")
        assert mem.used_bytes == 0

    def test_bind_refused_by_the_budget(self):
        mem = MainMemory(SW26010Spec(main_memory_bytes=1024))
        with pytest.raises(MemoryError):
            mem.bind("A", np.asfortranarray(np.ones((64, 64))))
        assert mem.used_bytes == 0 and mem.handles() == []
        assert mem.stats.allocations == 0

    @pytest.mark.parametrize("array", [
        np.ones((8, 8)),                           # C-ordered
        np.asfortranarray(np.ones((8, 8), dtype=np.float32)),
        np.asfortranarray(np.ones((8, 8)))[::2],   # strided
        np.ones(8),
    ], ids=["c-order", "float32", "strided", "1-d"])
    def test_bind_rejects_what_the_model_cannot_hold(self, mem, array):
        with pytest.raises(ConfigError):
            mem.bind("A", array)
        assert mem.stats.stores == 0

    def test_store_never_writes_a_bound_array(self, mem):
        src = np.asfortranarray(np.full((16, 8), 3.0))
        mem.bind("A", src)
        mem.store("A", np.ones((16, 8)))
        assert np.all(src == 3.0)
        assert mem.array("A") is not src and np.all(mem.array("A") == 1.0)
        assert mem.stats.allocations == 1 and mem.stats.in_place_stores == 1
        assert mem.used_bytes == src.nbytes
        # the fresh array is owned again: the next restage is in place
        backing = mem.array("A")
        mem.store("A", np.zeros((16, 8)))
        assert mem.array("A") is backing

    def test_zero_and_padded_stores_never_write_a_bound_array(self, mem):
        src = np.asfortranarray(np.full((16, 8), 3.0))
        mem.bind("C", src)
        mem.allocate("C", 16, 8)
        mem.bind("C", src)
        mem.store("C", np.ones((5, 5)), rows=16, cols=8)
        assert np.all(src == 3.0)
        assert mem.array("C").sum() == 25.0

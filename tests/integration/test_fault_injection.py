"""Fault injection: the device model must *catch* broken algorithms.

These tests deliberately corrupt pieces of the implementation and
assert the failure is loud — either a device-model error (the hardware
would deadlock/trap) or a detected numerical divergence.  They are the
evidence that the functional validation has teeth: a reproduction whose
checks cannot fail proves nothing.
"""

import numpy as np
import pytest

from repro.arch.mesh import Coord
from repro.core import sharing
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.reference import reference_dgemm
from repro.errors import LDMAllocationError, RegisterCommError
from repro.workloads.matrices import gemm_operands

SINGLE = BlockingParams.small(double_buffered=False)
DOUBLE = BlockingParams.small(double_buffered=True)


def run_pe(monkeypatch_ctx=None):
    m, n, k = SINGLE.b_m, SINGLE.b_n, SINGLE.b_k
    a, b, c = gemm_operands(m, n, k, seed=44)
    got = dgemm(a, b, c, beta=1.0, variant="PE", engine="device",
                params=SINGLE)
    return got, reference_dgemm(1.0, a, b, 1.0, c)


class TestSharingFaults:
    def test_swapped_owner_roles_fail_loudly(self, monkeypatch):
        """Broadcasting from the wrong mesh line must either trip the
        producer/consumer discipline or corrupt the result."""
        real_exchange = sharing.exchange_step

        def corrupted(cg, step, scheme, a_tiles, b_tiles):
            # serve step 1's owners in place of step 0's: k-slice 1 is
            # accumulated twice and slice 0 never (a mere rotation of
            # all steps would only permute the sum and stay correct)
            return real_exchange(cg, step if step != 0 else 1, scheme,
                                 a_tiles, b_tiles)

        monkeypatch.setattr(
            "repro.core.variants.base.exchange_step", corrupted
        )
        got, expected = run_pe()
        assert not np.allclose(got, expected, rtol=1e-6, atol=1e-6)

    def test_skipped_receive_detected_at_barrier(self, cg):
        """A thread that forgets to drain its buffer is caught by the
        barrier check, as the real mesh would hang."""
        a_tiles = {c: np.zeros((4, 4)) for c in cg.mesh.coords()}
        b_tiles = dict(a_tiles)
        from repro.core.sharing import Scheme

        # do the broadcast phase manually, then "forget" the receives
        for line in range(8):
            cg.regcomm.row_broadcast(Coord(line, 0), a_tiles[Coord(line, 0)])
        with pytest.raises(RegisterCommError):
            cg.regcomm.assert_drained()

    def test_double_receive_raises(self, cg):
        cg.regcomm.row_broadcast(Coord(0, 0), np.zeros(4))
        cg.regcomm.receive_row(Coord(0, 1))
        with pytest.raises(RegisterCommError):
            cg.regcomm.receive_row(Coord(0, 1))


class TestBufferFaults:
    def test_oversized_blocking_trips_ldm(self, cg):
        """Pretending the LDM is bigger than 64 KB is impossible: the
        allocator rejects the paper's pN=48 double-buffered layout."""
        from repro.core.mapping import RowMapping

        params = BlockingParams(16, 48, 96, double_buffered=True)
        with pytest.raises(LDMAllocationError):
            RowMapping(params).allocate(cg)

    def test_wrong_slot_order_corrupts_c(self, monkeypatch):
        """Off-by-one in Algorithm 2's slot parity corrupts the result
        (caught by the reference comparison, proving the functional DB
        path actually validates the buffer juggling)."""
        from repro.core.variants import db as db_module

        original_run = db_module.DoubleBufferedVariant.run

        def crooked_run(self, cg, a, b, c, alpha=1.0, beta=0.0, params=None):
            params = params or self.default_params()
            mapping = self.mapping_cls(params)
            grid_m, grid_n, grid_k = self.prepare(cg, mapping, params, a, b, c)
            for j in range(grid_n):
                for l in range(grid_k):
                    beta_now = beta if l == 0 else 1.0
                    mapping.load_b(cg, b, l, j)
                    for i in range(grid_m):
                        slot = (i + 1) % 2  # WRONG parity
                        mapping.load_a(cg, a, i, l, buf=f"A{slot}")
                        mapping.load_c(cg, c, i, j, buf=f"C{slot}")
                        if beta_now != 1.0:
                            self.scale_c(cg, f"C{slot}", beta_now)
                        self.strip_multiply(
                            cg, self.scheme, alpha,
                            a_buf=f"A{i % 2}", c_buf=f"C{i % 2}",  # stale slot!
                        )
                        mapping.store_c(cg, c, i, j, buf=f"C{i % 2}")

        monkeypatch.setattr(db_module.DoubleBufferedVariant, "run", crooked_run)
        m, n, k = 2 * DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k
        a, b, c = gemm_operands(m, n, k, seed=5)
        got = dgemm(a, b, c, beta=1.0, variant="DB", engine="device",
                    params=DOUBLE)
        expected = reference_dgemm(1.0, a, b, 1.0, c)
        assert not np.allclose(got, expected, rtol=1e-6, atol=1e-6)
        monkeypatch.setattr(db_module.DoubleBufferedVariant, "run", original_run)


class TestMappingFaults:
    def test_mismatched_interleave_breaks_row_variant(self, monkeypatch):
        """If C used the contiguous mapping while A uses ROW_MODE's
        interleave, rows land in the wrong place."""
        from repro.core import mapping as mapping_module

        params = SINGLE

        def contiguous_load_c(self, cg, handle, blk_i, blk_j, buf="C"):
            return mapping_module.PEMapping.load_c(self, cg, handle, blk_i, blk_j, buf)

        monkeypatch.setattr(mapping_module.RowMapping, "load_c", contiguous_load_c)
        m, n, k = params.b_m, params.b_n, params.b_k
        a, b, c = gemm_operands(m, n, k, seed=6)
        got = dgemm(a, b, c, beta=1.0, variant="ROW", engine="device",
                    params=params)
        expected = reference_dgemm(1.0, a, b, 1.0, c)
        assert not np.allclose(got, expected, rtol=1e-6, atol=1e-6)

"""One core group (CG): MPE + 64 CPEs + memory controller + networks.

This is the device the DGEMM variants run on.  It owns:

- the shared :class:`~repro.arch.memory.MainMemory`;
- the 8x8 :class:`~repro.arch.mesh.CPEMesh` and its
  :class:`~repro.arch.regcomm.RegisterComm` networks;
- the :class:`~repro.arch.dma.DMAEngine`;
- 64 :class:`~repro.arch.cpe.CPE` devices and one
  :class:`~repro.arch.mpe.MPE`.
"""

from __future__ import annotations

from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.arch.cpe import CPE
from repro.arch.dma import DMAEngine
from repro.arch.ldm import LDMBuffer
from repro.arch.memory import MainMemory
from repro.arch.mesh import Coord, CPEMesh
from repro.arch.mpe import MPE
from repro.arch.regcomm import RegisterComm

__all__ = ["CoreGroup"]


class CoreGroup:
    """A fully wired SW26010 core group."""

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC) -> None:
        self.spec = spec
        self.memory = MainMemory(spec)
        self.mesh = CPEMesh(spec)
        self.regcomm = RegisterComm(self.mesh)
        self.dma = DMAEngine(self.memory, spec)
        self.mpe = MPE(spec)
        self._cpes = {c: CPE(c, spec) for c in self.mesh.coords()}

    def cpe(self, coord: Coord | tuple[int, int]) -> CPE:
        return self._cpes[self.mesh.check(Coord(*coord))]

    def cpes(self) -> list[CPE]:
        """All CPEs in thread-spawn (row-major) order."""
        return [self._cpes[c] for c in self.mesh.coords()]

    def row_ldm_buffers(self, row: int, name: str) -> list[LDMBuffer]:
        """The same-named LDM buffer of each CPE in mesh row ``row``.

        This is the buffer list a collective ROW_MODE transfer operates
        on; ordering follows mesh column index, matching the hardware's
        16 B slice assignment.
        """
        return [
            self._cpes[coord].ldm.get(name)
            for coord in self.mesh.row_members(row)
        ]

    def reset_cpes(self) -> None:
        """Clear every CPE's LDM and registers between GEMM calls."""
        for cpe in self._cpes.values():
            cpe.reset()

    def reset_transient_state(self) -> None:
        """Wipe everything an aborted run can leave behind.

        Clears CPE LDM/registers and flushes undelivered register-comm
        broadcasts.  Main memory is untouched: staged operands are the
        :class:`~repro.core.context.ExecutionContext`'s to manage, and
        the next item restages its own.  The scheduler calls this after
        a failed item, so the next item on the CG starts from the same
        clean device state a fresh run would.
        """
        self.reset_cpes()
        self.regcomm.flush()

    @property
    def peak_flops(self) -> float:
        return self.spec.peak_flops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CoreGroup({self.spec.mesh_rows}x{self.spec.mesh_cols} CPEs, "
            f"{self.spec.peak_flops / 1e9:.1f} Gflop/s peak)"
        )

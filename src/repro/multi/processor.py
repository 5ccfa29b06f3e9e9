"""The full SW26010: four core groups on a NoC (Figure 1)."""

from __future__ import annotations

from repro.errors import ConfigError, MeshError
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.arch.core_group import CoreGroup
from repro.multi.noc import NoC

__all__ = ["SW26010Processor"]


class SW26010Processor:
    """Four CGs, each with its own memory controller and DRAM slice."""

    N_CORE_GROUPS = 4

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC, noc: NoC | None = None) -> None:
        self.spec = spec
        self.noc = noc or NoC(n_nodes=self.N_CORE_GROUPS)
        if self.noc.n_nodes != self.N_CORE_GROUPS:
            raise ConfigError(
                f"SW26010 has {self.N_CORE_GROUPS} CGs, NoC models {self.noc.n_nodes}"
            )
        self._cgs = [CoreGroup(spec) for _ in range(self.N_CORE_GROUPS)]

    def cg(self, index: int) -> CoreGroup:
        if not 0 <= index < self.N_CORE_GROUPS:
            raise MeshError(f"CG index {index} outside [0, {self.N_CORE_GROUPS})")
        return self._cgs[index]

    @property
    def core_groups(self) -> list[CoreGroup]:
        return list(self._cgs)

    @property
    def peak_flops(self) -> float:
        """Whole-chip peak: 4 x 742.4 = 2969.6 Gflop/s (CPE clusters)."""
        return self.N_CORE_GROUPS * self.spec.peak_flops

    def total_dma_bytes(self) -> int:
        return sum(cg.dma.stats.bytes_total for cg in self._cgs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SW26010Processor(4 CGs, {self.peak_flops / 1e12:.2f} Tflop/s peak)"

"""Kernel cycle model: seconds of compute per CG-block multiply.

The paper's compute cost is entirely determined by the microkernel's
cycles-per-iteration, which :mod:`repro.isa` derives by simulating the
actual instruction streams.  This module caches those profiles and
converts them to seconds for the shapes the estimator needs.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ConfigError
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.params import BlockingParams
from repro.isa.kernels import MicrokernelSpec
from repro.isa.profile import KernelProfile, profile_kernel

__all__ = ["KernelModel"]


# unbounded on purpose: blocked variants validate their tiles against the
# LDM before they are profiled and RAW caps its tiles, so the keys are a
# finite set, and an evicted profile costs a pipeline simulation again.
@lru_cache(maxsize=None)
def _profile(p_m: int, p_n: int, p_k: int, scheduled: bool) -> KernelProfile:
    return profile_kernel(MicrokernelSpec(p_m, p_n, p_k), scheduled=scheduled)


class KernelModel:
    """Converts ISA profiles into per-block compute times."""

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC) -> None:
        self.spec = spec

    @staticmethod
    def profile(params: BlockingParams, kernel: str) -> KernelProfile:
        """The strip-multiplication profile for a blocked variant."""
        scheduled = KernelModel._is_scheduled(kernel)
        return _profile(params.p_m, params.p_n, params.p_k, scheduled)

    @staticmethod
    def _is_scheduled(kernel: str) -> bool:
        if kernel not in ("naive", "scheduled"):
            raise ConfigError(f"unknown kernel class {kernel!r}")
        return kernel == "scheduled"

    def block_multiply_seconds(self, params: BlockingParams, kernel: str) -> float:
        """One CG-block multiply: the 8-step strip multiplication.

        All 64 CPEs run the same cycle count concurrently (SIMT), so
        the wall time is one CPE's strip cycles.
        """
        return self.profile(params, kernel).strip_cycles / self.spec.clock_hz

    def thread_tile_multiply_seconds(
        self, t_m: int, t_n: int, t_k: int, kernel: str = "naive"
    ) -> float:
        """One per-thread tile multiply (the RAW variant's unit of work)."""
        scheduled = self._is_scheduled(kernel)
        prof = _profile(t_m, t_n, t_k, scheduled)
        # tile_cycles covers one register tile's k-loop; a thread tile
        # multiply runs tiles_per_thread_multiply of them
        cycles = prof.tile_cycles * prof.spec.tiles_per_thread_multiply
        return cycles / self.spec.clock_hz

    def kernel_efficiency(self, params: BlockingParams, kernel: str) -> float:
        """FP-pipe efficiency of the kernel class for these params."""
        return self.profile(params, kernel).efficiency

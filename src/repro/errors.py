"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still discriminating the hardware-model violations that matter when
porting blocking parameters (LDM overflow, DMA alignment, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "LDMAllocationError",
    "AlignmentError",
    "DMAError",
    "UnsupportedModeError",
    "RegisterFileError",
    "RegisterCommError",
    "MeshError",
    "SimulationError",
    "DeadlockError",
    "PipelineError",
    "BlockingError",
    "UnsupportedShapeError",
    "MappingError",
    "SharingError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """An architecture or blocking configuration value is invalid."""


class LDMAllocationError(ReproError, MemoryError):
    """A request exceeds the 64 KB local device memory of a CPE."""


class AlignmentError(ReproError, ValueError):
    """An address or size violates the 128 B DMA alignment rule."""


class DMAError(ReproError, RuntimeError):
    """A DMA descriptor is malformed or cannot be executed."""


class UnsupportedModeError(DMAError):
    """The requested DMA mode exists on SW26010 but is not modelled.

    The paper only exercises ``PE_MODE`` and ``ROW_MODE``; the remaining
    modes are declared so descriptors can name them, but executing them
    raises this error rather than silently doing the wrong distribution.
    """


class RegisterFileError(ReproError, ValueError):
    """Illegal vector-register index or lane access."""


class RegisterCommError(ReproError, RuntimeError):
    """Misuse of the register communication mechanism."""


class MeshError(ReproError, ValueError):
    """A coordinate is outside the 8x8 CPE mesh."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """All processes are blocked and no events remain."""


class PipelineError(ReproError, RuntimeError):
    """The instruction pipeline model was fed an invalid stream."""


class BlockingError(ConfigError):
    """Blocking parameters violate a hardware constraint."""


class UnsupportedShapeError(ReproError, ValueError):
    """Matrix shape is not a multiple of the blocking factors.

    The paper implements the case where dimensions are multiples of the
    block factors (Sec III); :func:`repro.core.api.dgemm` offers
    ``pad=True`` as an extension for other shapes.
    """


class MappingError(ReproError, RuntimeError):
    """Data-thread mapping produced an inconsistent distribution."""


class SharingError(ReproError, RuntimeError):
    """Collective data-sharing roles are inconsistent for a step."""

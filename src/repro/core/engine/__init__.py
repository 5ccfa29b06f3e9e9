"""Execution engines: three ways to run the same GEMM program.

A :class:`~repro.core.variants.base.GEMMVariant` describes *what* the
cluster does — which mapping distributes blocks, which sharing scheme
exchanges strips, in what order tiles multiply.  An **engine** decides
*how* that program is executed by the simulation:

``device`` (:class:`DeviceEngine`)
    the fidelity path: every per-CPE DMA transfer, register-network
    broadcast and LDM tile is individually executed through the
    :mod:`repro.arch` device model, so buffer discipline, alignment
    and producer/consumer protocols are *checked*, not assumed.

``vectorized`` (:class:`VectorizedEngine`)
    the throughput path: the eight sharing steps of a strip
    multiplication collapse into one BLAS panel product on strided
    views of the operands in main memory.  The DMA/register-
    communication statistics the device path would have measured are
    booked analytically, so accounting is identical; results agree to
    the library comparison tolerance (``rtol=1e-12``).

``stepwise`` (:class:`StepwiseEngine`)
    the literal mesh-wide program: all 64 CPEs' tiles live in one
    ``(64, rows, cols)`` stack and each sharing step's 64 tile
    multiplies run as one batched ``np.matmul``, through cached
    :class:`~repro.core.engine.plans.IndexPlan`\\ s.  Stats match the
    device engine exactly; results match it bit for bit at 16-deep
    tiles (:meth:`~repro.core.params.BlockingParams.small`) and to the
    comparison tolerance at the paper's 96-deep tiles, where BLAS
    rounds differently for the device's Fortran-ordered LDM tiles.

The engines mutate C in core-group main memory and are
interchangeable behind the ``engine=`` keyword of
:func:`repro.core.api.dgemm`, :func:`repro.core.batch.dgemm_batch`,
:class:`repro.multi.scheduler.CGScheduler` and
:class:`repro.core.session.Session`.  ``device`` is the default for
fidelity experiments; :meth:`Session.batch` defaults to ``vectorized``
because a served batch stream wants throughput, not protocol checking.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.core.engine.base import Engine
from repro.core.engine.device import DeviceEngine
from repro.core.engine.plans import (
    IndexPlan,
    PlanCache,
    PlanCacheStats,
    PlanSignature,
    default_plan_cache,
)
from repro.core.engine.vectorized import StepwiseEngine, VectorizedEngine

__all__ = [
    "Engine",
    "DeviceEngine",
    "VectorizedEngine",
    "StepwiseEngine",
    "IndexPlan",
    "PlanCache",
    "PlanCacheStats",
    "PlanSignature",
    "default_plan_cache",
    "ENGINES",
    "check_engine",
    "get_engine",
]

#: registry, keyed by the ``engine=`` keyword values.
ENGINES: dict[str, type[Engine]] = {
    "device": DeviceEngine,
    "vectorized": VectorizedEngine,
    "stepwise": StepwiseEngine,
}


def check_engine(name: str) -> str:
    """Validate an ``engine=`` name; return its registry key.

    An unknown name raises :class:`~repro.errors.ConfigError` here,
    where it is configured, instead of failing every item that runs.
    """
    key = str(name).lower()
    if key not in ENGINES:
        raise ConfigError(
            f"unknown engine {name!r}; choose from {sorted(ENGINES)}"
        )
    return key


def get_engine(name: "str | Engine") -> Engine:
    """Resolve an ``engine=`` keyword (name or instance) to an engine."""
    if isinstance(name, Engine):
        return name
    return ENGINES[check_engine(name)]()

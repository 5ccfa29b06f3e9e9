"""Execution engines: three ways to run the same GEMM program.

A :class:`~repro.core.variants.base.GEMMVariant` describes *what* the
cluster does — which mapping distributes blocks, which sharing scheme
exchanges strips, in what order tiles multiply.  An **engine** decides
*how* that program is executed by the simulation:

``vectorized`` (:class:`VectorizedEngine`, :data:`DEFAULT_ENGINE`)
    the throughput path: the eight sharing steps of a strip
    multiplication collapse into one BLAS panel product on strided
    views of the operands in main memory, with the DMA/register-
    communication statistics booked analytically.  Padding is counted
    in the model only: the shared variants' operands are staged and
    multiplied at their logical extents.

``device`` (:class:`DeviceEngine`)
    the fidelity path: every per-CPE DMA transfer, register-network
    broadcast and LDM tile is individually executed through the
    :mod:`repro.arch` device model, so buffer discipline, alignment
    and producer/consumer protocols are *checked*, not assumed.

``stepwise`` (:class:`StepwiseEngine`)
    the literal mesh-wide program: all 64 CPEs' tiles live in one
    ``(64, rows, cols)`` stack and each sharing step's 64 tile
    multiplies run as one batched ``np.matmul``, through cached
    :class:`~repro.core.engine.plans.IndexPlan`\\ s.

``device`` and ``stepwise`` (and RAW on any engine) read whole padded
blocks, so ``pad=True`` materializes the zeros in main memory for them
(:meth:`Engine.needs_padded_staging`).

The engines mutate C in core-group main memory and are
interchangeable behind the ``engine=`` keyword of
:func:`repro.core.api.dgemm`,
:class:`repro.multi.scheduler.CGScheduler` and
:class:`repro.core.session.Session`, all of which default to
:data:`DEFAULT_ENGINE`.  Pass ``engine="device"`` where the device
protocol itself is under test.

The engine contract, for the same variant, blocking and operands:

- every engine books bit-identical analytic DMA and
  register-communication statistics;
- every engine's output ``C'`` lies componentwise within
  ``k*eps*(|alpha|*|A||B| + |beta|*|C|)`` of
  :func:`~repro.core.reference.reference_dgemm` (see
  :func:`~repro.core.reference.contract_bound`);
- bitwise equality is promised only where a test holds it: a rerun on
  the same engine, parallel vs serial dispatch, warm vs cold plans,
  and planned ``stepwise`` vs ``device`` at the 16-deep tiles of
  :meth:`~repro.core.params.BlockingParams.small`.
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
    "DEFAULT_ENGINE",
    "ENGINES",
    "check_engine",
    "get_engine",
]

#: the engine every entry point runs when no ``engine=`` is given.
DEFAULT_ENGINE = "vectorized"

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

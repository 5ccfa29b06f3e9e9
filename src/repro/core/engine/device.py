"""The fidelity engine: run the variant on the full device model."""

from __future__ import annotations

from repro.arch.core_group import CoreGroup
from repro.arch.memory import MatrixHandle
from repro.core.engine.base import Engine
from repro.core.params import BlockingParams
from repro.obs.registry import cg_meter
from repro.obs.tracer import ensure_tracer

__all__ = ["DeviceEngine"]


class DeviceEngine(Engine):
    """Delegates to the variant's own per-CPE execution.

    Every DMA descriptor, register-network broadcast and LDM
    allocation is individually executed and *checked* by the
    :mod:`repro.arch` device model — this is the engine that catches
    protocol bugs (undrained buffers, misaligned transfers, LDM
    overflow at runtime), at the cost of walking 64 CPE coordinates
    through Python per step.

    The variants' per-CPE loops predate the tracer, so this engine
    reports one aggregate ``kernel`` span rather than per-panel
    ``strip_mult`` spans — the vectorized engine provides the
    fine-grained breakdown.
    """

    name = "device"

    def run(
        self,
        impl,
        cg: CoreGroup,
        a: MatrixHandle,
        b: MatrixHandle,
        c: MatrixHandle,
        alpha: float = 1.0,
        beta: float = 0.0,
        params: BlockingParams | None = None,
        tracer=None,
        plan_cache=None,  # accepted for interface parity; unused here
    ) -> None:
        tracer = ensure_tracer(tracer)
        with tracer.span(
            "kernel", cat="kernel", meter=cg_meter(cg),
            variant=getattr(getattr(impl, "traits", None), "name",
                            type(impl).__name__),
            engine=self.name,
        ):
            impl.run(cg, a, b, c, alpha=alpha, beta=beta, params=params)

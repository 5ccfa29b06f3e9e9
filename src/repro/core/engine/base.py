"""The engine interface: execute one variant's GEMM on a core group."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.arch.core_group import CoreGroup
from repro.arch.memory import MatrixHandle
from repro.core.params import BlockingParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.variants.base import GEMMVariant

__all__ = ["Engine"]


class Engine(ABC):
    """Executes ``C = alpha*A*B + beta*C`` for a chosen variant.

    Engines share one contract: operands are resident
    :class:`~repro.arch.memory.MatrixHandle`\\ s, C is mutated in main
    memory, and afterwards the core group's DMA and
    register-communication statistics read exactly as if the device
    path had run — byte for byte, transaction for transaction.  How
    faithfully the *mechanics* in between are modelled is what
    distinguishes the implementations.
    """

    #: the ``engine=`` keyword value selecting this engine.
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        impl: "GEMMVariant",
        cg: CoreGroup,
        a: MatrixHandle,
        b: MatrixHandle,
        c: MatrixHandle,
        alpha: float = 1.0,
        beta: float = 0.0,
        params: BlockingParams | None = None,
        tracer=None,
        plan_cache=None,
    ) -> None:
        """Execute ``impl``'s program for these operands on ``cg``.

        ``tracer`` (a :class:`repro.obs.SpanTracer`, or ``None`` for
        the no-op default) receives the engine's kernel-phase spans —
        ``strip_mult`` per panel on the vectorized path, one aggregate
        ``kernel`` span on the per-CPE device path.

        ``plan_cache`` (a :class:`repro.core.engine.plans.PlanCache`,
        or ``None`` for the process-wide default) supplies compiled
        index plans to the engines that use them; the device path
        accepts and ignores it — its per-CPE mechanics *are* the
        product.
        """

    def needs_padded_staging(self, impl: "GEMMVariant") -> bool:
        """Whether ``impl`` on this engine reads zero padding from memory.

        Per-CPE tiles and stacked-tile reshapes walk whole padded
        blocks, so :func:`repro.core.api.dgemm` stages ``pad=True``
        operands at the padded shape for them.  An engine that computes
        on views of main memory and clips edge panels to the logical
        extents returns ``False``: padding is then a fact of the model
        only, booked in the statistics but never materialized.
        """
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

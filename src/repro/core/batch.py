"""Batched DGEMM: many multiplies on one core group.

The application layers (blocked LU, im2col convolution) issue long
sequences of GEMMs; rebuilding a :class:`CoreGroup` per call wastes
setup and discards the cumulative DMA statistics.  ``dgemm_batch``
runs a sequence on a single device inside one
:class:`~repro.core.context.ExecutionContext` and returns results plus
the context's traffic accounting — the interface a host-side library
would expose.

The shared context is what makes the batch the *hot* path: same-shape
items reuse the staging allocations in place (at most one host-side
copy per operand per item), and every staged handle is freed when the
batch scope exits, so the device's byte budget returns to its
pre-batch baseline even when an item raises mid-run.

Every batch is validated **up front** by :func:`validate_items`:
a mis-shaped item is rejected with its index in the message before
anything is staged, instead of surfacing as an opaque device error
mid-batch after earlier items already executed.

To dispatch a batch across the chip's core groups, use
:meth:`repro.core.session.Session.batch` (or
:class:`repro.multi.scheduler.CGScheduler` directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError, UnsupportedShapeError
from repro.api import GemmRequest
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.context import ExecutionContext
from repro.core.engine import DEFAULT_ENGINE
from repro.core.params import BlockingParams
from repro.core.variants import get_variant

__all__ = ["BatchResult", "dgemm_batch", "validate_items"]


def validate_items(
    items: Sequence[GemmRequest],
) -> list[tuple[int, int, int]]:
    """Validate every item up front; return the effective (m, n, k) shapes.

    The returned shapes account for ``transa``/``transb``.  Any
    mis-shaped item raises :class:`UnsupportedShapeError` (or
    :class:`ConfigError` for a non-item) naming the item's index, so a
    bad batch fails before a single operand is staged.  Validation
    itself lives on :meth:`repro.api.GemmRequest.validate`; this
    wrapper only contributes the index prefix.
    """
    shapes: list[tuple[int, int, int]] = []
    for idx, item in enumerate(items):
        if not isinstance(item, GemmRequest):
            raise ConfigError(
                f"batch item {idx} is {type(item).__name__}, expected "
                "GemmRequest"
            )
        try:
            shapes.append(item.validate())
        except UnsupportedShapeError as exc:
            raise UnsupportedShapeError(f"batch item {idx}: {exc}") from None
    return shapes


@dataclass(frozen=True)
class BatchResult:
    """Results plus the device's aggregate accounting.

    ``flops`` counts the *logical* (unpadded) work ``2*m*n*k`` per
    item; ``padded_flops`` counts what the device executed after
    ``pad=True`` rounded shapes up to the CG block factors.  Efficiency
    numbers should divide by the one that matches the question being
    asked — conflating them silently inflates (or deflates) rates.
    """

    outputs: tuple[np.ndarray, ...]
    dma_bytes: int
    dma_transactions: int
    regcomm_bytes: int
    flops: int
    padded_flops: int = 0

    @property
    def padding_overhead(self) -> float:
        """``padded_flops / flops`` — 1.0 means no padding waste."""
        return self.padded_flops / self.flops if self.flops else 1.0

    def __len__(self) -> int:
        return len(self.outputs)


def dgemm_batch(
    items: Sequence[GemmRequest] | Iterable[GemmRequest],
    variant: str = "SCHED",
    engine: str = DEFAULT_ENGINE,
    params: BlockingParams | None = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    core_group: CoreGroup | None = None,
    pad: bool = True,
    context: ExecutionContext | None = None,
    check: bool = False,
    tracer=None,
    plan_cache=None,
) -> BatchResult:
    """Run every item on one shared core group.

    ``pad`` defaults to True here (unlike ``dgemm``) because batch
    workloads — LU trailing updates, convolution layers — rarely arrive
    in block-factor multiples.  Pass ``context=`` to keep staging plans
    warm across several batches; otherwise a batch-scoped context is
    created and torn down here.  ``check=`` verifies each item against
    the engine contract, as in the scalar entry point.  ``engine=``
    selects the execution engine per :func:`repro.core.api.dgemm`.
    Any item failure propagates.

    ``tracer=`` records per-item ``dgemm`` phase spans into a
    :class:`repro.obs.SpanTracer`; ``None`` disables tracing.

    ``plan_cache=`` supplies compiled index plans to plan-aware engines
    (see :func:`repro.core.api.dgemm`); a batch full of repeated shapes
    builds each plan once.
    """
    items = list(items)
    if not items:
        raise ConfigError("empty batch")
    shapes = validate_items(items)
    params = params or get_variant(variant).default_params()
    outputs: list[np.ndarray] = []
    flops = 0
    padded_flops = 0
    with ExecutionContext.scoped(context, core_group, spec) as ctx:
        start = ctx.stats()
        for item, (m, n, k) in zip(items, shapes):
            out = dgemm(
                item.a, item.b, item.c,
                alpha=item.alpha, beta=item.beta,
                transa=item.transa, transb=item.transb,
                variant=variant, engine=engine, params=params,
                context=ctx, pad=pad, check=check, tracer=tracer,
                plan_cache=plan_cache,
            )
            flops += 2 * m * n * k
            pm, pn, pk = params.pad_shape(m, n, k) if pad else (m, n, k)
            padded_flops += 2 * pm * pn * pk
            outputs.append(out)
        delta = ctx.stats().since(start)
    return BatchResult(
        outputs=tuple(outputs),
        dma_bytes=delta.dma_bytes,
        dma_transactions=delta.dma_transactions,
        regcomm_bytes=delta.regcomm_bytes,
        flops=flops,
        padded_flops=padded_flops,
    )

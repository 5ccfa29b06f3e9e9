"""2-D convolution lowered to GEMM (im2col).

The paper's introduction cites convolutional networks as a GEMM
consumer [Chellapilla et al.]; this module implements the classic
lowering: unfold input patches into columns (``im2col``, done on the
MPE), multiply by the flattened kernel bank on the CPE cluster, fold
back into feature maps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError, UnsupportedShapeError
from repro.api import GemmRequest
from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.context import ExecutionContext
from repro.core.params import BlockingParams
from repro.multi.processor import SW26010Processor
from repro.multi.scheduler import CGScheduler

__all__ = ["im2col", "conv2d_gemm", "conv2d_gemm_batch", "conv2d_reference"]


def im2col(images: np.ndarray, kh: int, kw: int, stride: int = 1) -> np.ndarray:
    """Unfold NCHW images into a (C*kh*kw) x (N*oh*ow) patch matrix.

    Column ``(n, y, x)`` holds the receptive field of output pixel
    ``(y, x)`` of image ``n``, flattened channel-major — the layout
    that makes convolution ``W_flat @ patches``.
    """
    if images.ndim != 4:
        raise UnsupportedShapeError(f"expected NCHW images, got shape {images.shape}")
    if kh < 1 or kw < 1 or stride < 1:
        raise ConfigError("kernel dims and stride must be >= 1")
    n, c, h, w = images.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise UnsupportedShapeError(
            f"kernel {kh}x{kw} does not fit input {h}x{w}"
        )
    cols = np.empty((c * kh * kw, n * oh * ow), dtype=np.float64, order="F")
    col = 0
    for img in range(n):
        for y in range(oh):
            for x in range(ow):
                patch = images[
                    img, :, y * stride : y * stride + kh, x * stride : x * stride + kw
                ]
                cols[:, col] = patch.reshape(-1)
                col += 1
    return cols


def _lower(
    images: np.ndarray, kernels: np.ndarray, stride: int
) -> tuple[GemmRequest, tuple[int, int, int, int]]:
    """Check a convolution and lower it to one GEMM (im2col).

    Returns ``W_flat @ patches`` as a :class:`~repro.api.GemmRequest`
    and the ``(n, o, oh, ow)`` feature-map shape its output folds back
    to (see :func:`_fold`).
    """
    images = np.asarray(images, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if images.ndim != 4:
        raise UnsupportedShapeError(f"expected NCHW images, got shape {images.shape}")
    if kernels.ndim != 4:
        raise UnsupportedShapeError(
            f"expected OIHW kernels, got shape {kernels.shape}"
        )
    n, c, h, w = images.shape
    o, ci, kh, kw = kernels.shape
    if ci != c:
        raise UnsupportedShapeError(
            f"kernel expects {ci} input channels, images have {c}"
        )
    cols = im2col(images, kh, kw, stride)
    gemm = GemmRequest(a=kernels.reshape(o, c * kh * kw), b=cols)
    return gemm, (n, o, (h - kh) // stride + 1, (w - kw) // stride + 1)


def _fold(out_flat: np.ndarray, maps: tuple[int, int, int, int]) -> np.ndarray:
    """Fold the lowered GEMM's ``O x (N*oh*ow)`` output to N x O x oh x ow."""
    n, o, oh, ow = maps
    return np.ascontiguousarray(
        out_flat.reshape(o, n, oh, ow).transpose(1, 0, 2, 3)
    )


def conv2d_gemm(
    images: np.ndarray,
    kernels: np.ndarray,
    stride: int = 1,
    variant: str = "SCHED",
    params: BlockingParams | None = None,
    core_group: CoreGroup | None = None,
    context: ExecutionContext | None = None,
) -> np.ndarray:
    """Convolve NCHW ``images`` with OIHW ``kernels`` on the simulated CG.

    Returns N x O x oh x ow feature maps.  The GEMM is
    ``(O x C*kh*kw) @ (C*kh*kw x N*oh*ow)``, padded to the CG block
    factors.  Pass ``context=`` when convolving a sequence of
    same-shape layers so the staging allocations stay warm between
    calls.
    """
    gemm, maps = _lower(images, kernels, stride)
    out_flat = dgemm(
        gemm.a, gemm.b, variant=variant,
        params=params or BlockingParams.small(double_buffered=True),
        core_group=core_group, context=context, pad=True,
    )
    return _fold(out_flat, maps)


def conv2d_gemm_batch(
    layers: Sequence[tuple[np.ndarray, np.ndarray]],
    stride: int = 1,
    variant: str = "SCHED",
    params: BlockingParams | None = None,
    processor: SW26010Processor | None = None,
    n_core_groups: int | None = None,
) -> tuple[np.ndarray, ...]:
    """Convolve many independent ``(images, kernels)`` layers at once.

    Each layer lowers to one GEMM; the whole sequence then runs as one
    :class:`~repro.multi.scheduler.CGScheduler` batch over
    ``processor`` (a fresh chip by default), on its first
    ``n_core_groups`` CGs (all by default).  The layers are
    independent, which is exactly the workload the scheduler exists
    for; same-shape layers split evenly across the pool.  Any layer
    failure propagates.

    Returns the N x O x oh x ow feature maps per layer, in order.
    """
    if not layers:
        raise ConfigError("empty layer batch")
    params = params or BlockingParams.small(double_buffered=True)
    items, maps = zip(
        *(_lower(images, kernels, stride) for images, kernels in layers)
    )
    with CGScheduler(
        processor, n_core_groups=n_core_groups, variant=variant,
        params=params,
    ) as scheduler:
        outputs = scheduler.run(items, isolate_failures=False).outputs
    return tuple(_fold(out, shape) for out, shape in zip(outputs, maps))


def conv2d_reference(
    images: np.ndarray, kernels: np.ndarray, stride: int = 1
) -> np.ndarray:
    """Direct convolution for validation."""
    n, c, h, w = images.shape
    o, _, kh, kw = kernels.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for img in range(n):
        for f in range(o):
            for y in range(oh):
                for x in range(ow):
                    patch = images[
                        img, :, y * stride : y * stride + kh,
                        x * stride : x * stride + kw,
                    ]
                    out[img, f, y, x] = float(np.sum(patch * kernels[f]))
    return out

"""Block-column-parallel DGEMM across the four core groups.

Decomposition (the standard HPL-style panel split):

- C and B are partitioned by block columns: CG ``g`` owns columns
  ``[g * n/4, (g+1) * n/4)``;
- A is needed by every CG; it starts in CG 0's memory and is broadcast
  over the NoC;
- each CG then runs the paper's single-CG algorithm on its
  ``m x (n/4) x k`` panel — no inter-CG communication during compute.

Functional execution runs the four CGs' panels through
:func:`repro.core.api.dgemm` on the default engine (sequentially in
Python; they are independent) and writes each panel back, so the result
meets the engine contract of :mod:`repro.core.engine`.  The timing
model is ``NoC broadcast + max over CGs of the single-CG estimate``.

The keyword surface matches the scalar :func:`repro.core.api.dgemm`:
``alpha``/``beta``/``transa``/``transb``/``pad``/``check`` behave the
same way, because each panel's ``dgemm`` applies them: it pads its
panel in the model, checks it against the engine contract and returns
early for an empty panel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, UnsupportedShapeError
from repro.api import apply_trans, as_gemm_request
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.variants import get_variant
from repro.multi.noc import NoC
from repro.multi.processor import SW26010Processor
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.estimator import Estimator

__all__ = ["dgemm_multi_cg", "MultiCGEstimate", "estimate_multi_cg"]


def dgemm_multi_cg(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: str = "N",
    transb: str = "N",
    variant: str = "SCHED",
    params: BlockingParams | None = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    processor: SW26010Processor | None = None,
    n_core_groups: int | None = None,
    pad: bool = False,
    check: bool = False,
) -> np.ndarray:
    """Compute ``alpha*a@b + beta*c`` across all four CGs (functional).

    Without ``pad``, ``n`` must split evenly into four panels that are
    multiples of the CG block factor ``b_n`` and ``m``/``k`` must be
    block-factor multiples; with ``pad=True`` CG ``g`` takes columns
    ``[g*n/4, (g+1)*n/4)`` of any shape and its ``dgemm`` pads them,
    as in the single-CG entry point.

    ``params=`` defaults to the variant's paper blocking, as in
    ``dgemm``.  ``n_core_groups=`` restricts the decomposition to the
    first N CGs (default: all of them).  The call is normalized and
    validated through :func:`repro.api.as_gemm_request`, like
    ``dgemm``.
    """
    m, n, k = as_gemm_request(
        a, b, c, alpha=alpha, beta=beta, transa=transa, transb=transb
    ).validate()
    proc = processor or SW26010Processor(spec)
    params = params or get_variant(variant).default_params()
    n_cgs = n_core_groups if n_core_groups is not None else proc.N_CORE_GROUPS
    if not 1 <= n_cgs <= proc.N_CORE_GROUPS:
        raise ConfigError(
            f"n_core_groups must be in [1, {proc.N_CORE_GROUPS}], got {n_cgs}"
        )
    if not pad and (n % n_cgs != 0 or (n // n_cgs) % params.b_n != 0):
        raise UnsupportedShapeError(
            f"n={n} must split into {n_cgs} panels that are multiples of "
            f"bN={params.b_n} (pass pad=True to zero-pad)"
        )
    a = apply_trans("transa", transa, np.asarray(a, dtype=np.float64))
    b = apply_trans("transb", transb, np.asarray(b, dtype=np.float64))
    if c is not None:
        c = np.asarray(c)
    bounds = [g * n // n_cgs for g in range(n_cgs + 1)]

    # stage A in CG 0's memory and broadcast it over the NoC; the
    # broadcast copies are scratch operands of this call, so they are
    # freed before returning (raise or no raise) — a shared processor's
    # byte budget must come back to its baseline.
    proc.cg(0).memory.store("mc.A", a)
    try:
        for g in range(1, n_cgs):
            proc.noc.copy(
                proc.cg(0).memory, proc.cg(g).memory, "mc.A", src=0, dst=g
            )
        out = np.empty((m, n), dtype=np.float64, order="F")
        for g in range(n_cgs):
            cols = slice(bounds[g], bounds[g + 1])
            out[:, cols] = dgemm(
                a, b[:, cols], None if c is None else c[:, cols],
                alpha=alpha, beta=beta, variant=variant, params=params,
                core_group=proc.cg(g), pad=pad, check=check,
            )
    finally:
        for g in range(n_cgs):
            try:
                proc.cg(g).memory.free("mc.A")
            except KeyError:
                pass
    return out


@dataclass(frozen=True)
class MultiCGEstimate:
    """Timing prediction for the 4-CG decomposition."""

    m: int
    n: int
    k: int
    broadcast_seconds: float
    panel_seconds: float
    single_cg_seconds: float

    @property
    def seconds(self) -> float:
        return self.broadcast_seconds + self.panel_seconds

    @property
    def gflops(self) -> float:
        return 2 * self.m * self.n * self.k / self.seconds / 1e9

    @property
    def speedup_vs_single_cg(self) -> float:
        return self.single_cg_seconds / self.seconds

    @property
    def parallel_efficiency(self) -> float:
        return self.speedup_vs_single_cg / 4.0


def estimate_multi_cg(
    m: int,
    n: int,
    k: int,
    variant: str = "SCHED",
    params: BlockingParams | None = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    calibration: Calibration = DEFAULT_CALIBRATION,
    noc: NoC | None = None,
) -> MultiCGEstimate:
    """Model the 4-CG run at paper scale."""
    noc = noc or NoC()
    estimator = Estimator(spec, calibration)
    panel = n // 4
    if n % 4 != 0:
        raise UnsupportedShapeError(f"n={n} does not split across 4 CGs")
    panel_est = estimator.estimate(variant, m, panel, k, params=params)
    single = estimator.estimate(variant, m, n, k, params=params)
    return MultiCGEstimate(
        m=m, n=n, k=k,
        broadcast_seconds=noc.broadcast_seconds(m * k * 8),
        panel_seconds=panel_est.seconds,
        single_cg_seconds=single.seconds,
    )

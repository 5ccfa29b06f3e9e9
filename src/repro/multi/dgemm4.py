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
same way (``pad=True`` zero-pads ``m``/``k`` to the CG block factors
and ``n`` to a whole number of block-multiple panels).  Because this
entry point drives four devices, the scalar ``context=`` becomes
``contexts=``: one :class:`ExecutionContext` per CG, for callers that
keep panel staging warm across calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, UnsupportedShapeError
from repro.api import apply_trans, as_gemm_request
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.api import dgemm
from repro.core.context import ExecutionContext
from repro.core.params import BlockingParams
from repro.core.reference import contract_violation
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
    contexts: "list[ExecutionContext] | None" = None,
    pad: bool = False,
    check: bool = False,
) -> np.ndarray:
    """Compute ``alpha*a@b + beta*c`` across all four CGs (functional).

    Without ``pad``, ``n`` must split evenly into four panels that are
    multiples of the CG block factor ``b_n`` and ``m``/``k`` must be
    block-factor multiples; with ``pad=True`` every dimension is
    zero-padded up (``n`` to a whole number of block-multiple panels)
    and the result is truncated back, as in the single-CG entry point.

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
    a = np.asfortranarray(apply_trans(
        "transa", transa, np.asarray(a, dtype=np.float64)
    ))
    b = np.asfortranarray(apply_trans(
        "transb", transb, np.asarray(b, dtype=np.float64)
    ))
    if c is None:
        c = np.zeros((m, n), dtype=np.float64, order="F")
    c = np.asfortranarray(c, dtype=np.float64)
    n_cgs = n_core_groups if n_core_groups is not None else proc.N_CORE_GROUPS
    if not 1 <= n_cgs <= proc.N_CORE_GROUPS:
        raise ConfigError(
            f"n_core_groups must be in [1, {proc.N_CORE_GROUPS}], got {n_cgs}"
        )
    if contexts is not None and len(contexts) != n_cgs:
        raise ConfigError(
            f"contexts must supply one ExecutionContext per CG "
            f"({n_cgs}), got {len(contexts)}"
        )

    pm, pn, pk = m, n, k
    if pad:
        pm, _, pk = params.pad_shape(m, 1, k)
        panel_block = n_cgs * params.b_n
        pn = -(-n // panel_block) * panel_block
        if (pm, pn, pk) != (m, n, k):
            ap = np.zeros((pm, pk), dtype=np.float64, order="F")
            ap[:m, :k] = a
            bp = np.zeros((pk, pn), dtype=np.float64, order="F")
            bp[:k, :n] = b
            cp = np.zeros((pm, pn), dtype=np.float64, order="F")
            cp[:m, :n] = c
            a, b_eff, c_eff = ap, bp, cp
        else:
            b_eff, c_eff = b, c
    else:
        b_eff, c_eff = b, c
    panel = pn // n_cgs
    if pn % n_cgs != 0 or panel % params.b_n != 0:
        raise UnsupportedShapeError(
            f"n={pn} must split into {n_cgs} panels that are multiples of "
            f"bN={params.b_n} (pass pad=True to zero-pad)"
        )

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
        out = np.empty_like(c_eff)
        for g in range(n_cgs):
            cols = slice(g * panel, (g + 1) * panel)
            out[:, cols] = dgemm(
                a, b_eff[:, cols], c_eff[:, cols],
                alpha=alpha, beta=beta, variant=variant, params=params,
                core_group=None if contexts is not None else proc.cg(g),
                context=None if contexts is None else contexts[g],
            )
    finally:
        for g in range(n_cgs):
            try:
                proc.cg(g).memory.free("mc.A")
            except KeyError:
                pass
    result = np.array(out[:m, :n], order="F", copy=True)
    if check:
        violation = contract_violation(
            result, alpha, a[:m, :k], b_eff[:k, :n], beta, c
        )
        if violation is not None:
            raise AssertionError(
                f"multi-CG {variant} result deviates from reference: "
                f"{violation}"
            )
    return result


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

"""Exhaustive blocking-parameter search over the hardware constraints.

The feasible space is small enough to enumerate exactly — the paper's
hand derivation (Sec III-C and IV-B) prunes it to one point; the tuner
reproduces that choice mechanically and ranks the alternatives:

- ``pM`` multiples of 16 (DMA granule, register-tile coverage);
- ``pN`` multiples of 4 (register tile), ``pK`` multiples of 16;
- LDM budget per the buffering regime (Sec III-C2 / IV-B);
- scored by :class:`repro.perf.estimator.Estimator` on a target shape
  (padded up to each candidate's block factors so every candidate is
  scored on work >= the request, never on a conveniently smaller one).

:func:`autotune` ranks the whole space for one shape, offline.
:func:`pick_blocking` is the request-path rule on the same score: it
weighs the variant's default against one blocking per ``pM`` that
covers the shape in a single n- and k-panel, so a small or odd shape
stops executing a paper-sized block grid, and it is memoized per
process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.params import DMA_GRANULE_DOUBLES, GRID, R_N, BlockingParams
from repro.core.variants import VARIANTS
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.estimator import Estimator

__all__ = [
    "Candidate",
    "TuningResult",
    "autotune",
    "enumerate_candidates",
    "pick_blocking",
    "score",
    "single_panel_candidates",
]


@dataclass(frozen=True)
class Candidate:
    """One scored blocking configuration."""

    params: BlockingParams
    gflops: float
    #: effective problem actually scored (after padding).
    padded_shape: tuple[int, int, int]


@dataclass(frozen=True)
class TuningResult:
    """Ranked outcome of a search."""

    variant: str
    shape: tuple[int, int, int]
    candidates: tuple[Candidate, ...]   # best first

    @property
    def best(self) -> Candidate:
        return self.candidates[0]

    def rank_of(self, params: BlockingParams) -> int:
        """0-based rank of a configuration (raises if not searched)."""
        for idx, cand in enumerate(self.candidates):
            if (cand.params.p_m, cand.params.p_n, cand.params.p_k) == (
                params.p_m, params.p_n, params.p_k,
            ):
                return idx
        raise KeyError(f"{params} was not in the search space")


def score(
    estimator: Estimator,
    variant: str,
    m: int,
    n: int,
    k: int,
    params: BlockingParams,
) -> Candidate:
    """Modeled Gflop/s of ``params`` on the logical flops of ``m x n x k``.

    The estimate runs on the shape padded to the candidate's own block
    factors, while the flops stay the logical ``2*m*n*k``: padding
    waste counts against oversized blocks.
    """
    padded = params.pad_shape(m, n, k)
    estimate = estimator.estimate(variant, *padded, params=params)
    useful = 2.0 * m * n * k
    return Candidate(
        params=params,
        gflops=useful / estimate.seconds / 1e9,
        padded_shape=padded,
    )


def enumerate_candidates(
    double_buffered: bool = True,
    p_m_values: tuple[int, ...] = (16, 32),
    p_n_step: int = 4,
    p_k_step: int = 16,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> list[BlockingParams]:
    """All hardware-feasible blocking configurations."""
    out = []
    max_doubles = spec.ldm_doubles
    for p_m in p_m_values:
        for p_k in range(p_k_step, max_doubles, p_k_step):
            if p_m * p_k >= max_doubles:
                break
            for p_n in range(p_n_step, max_doubles, p_n_step):
                params = BlockingParams(p_m, p_n, p_k, double_buffered=double_buffered)
                if params.ldm_doubles_per_cpe >= max_doubles:
                    break
                out.append(params)
    if not out:
        raise ConfigError("no feasible blocking configuration found")
    return out


def autotune(
    m: int,
    n: int,
    k: int,
    variant: str = "SCHED",
    double_buffered: bool | None = None,
    top: int = 10,
    spec: SW26010Spec = DEFAULT_SPEC,
    calibration: Calibration = DEFAULT_CALIBRATION,
    p_n_step: int = 8,
    p_k_step: int = 16,
) -> TuningResult:
    """Search blocking parameters for ``variant`` on an m x n x k GEMM.

    Returns the ``top`` candidates ranked by modelled Gflop/s on the
    padded problem.  The paper's hand-picked (16, 32, 96) should rank
    at or near the top for SCHED on large square shapes — a property
    the test suite asserts.
    """
    if min(m, n, k) <= 0:
        raise ConfigError("shape must be positive")
    if top < 1:
        raise ConfigError("top must be >= 1")
    traits = VARIANTS[variant.upper()].traits
    if double_buffered is None:
        double_buffered = traits.double_buffered
    estimator = Estimator(spec, calibration)
    scored = [
        score(estimator, variant, m, n, k, params)
        for params in enumerate_candidates(
            double_buffered=double_buffered,
            p_n_step=p_n_step,
            p_k_step=p_k_step,
            spec=spec,
        )
        if bool(params.double_buffered) == bool(traits.double_buffered)
    ]
    scored.sort(key=lambda c: c.gflops, reverse=True)
    return TuningResult(
        variant=variant.upper(), shape=(m, n, k), candidates=tuple(scored[:top])
    )


def single_panel_candidates(
    n: int,
    k: int,
    double_buffered: bool,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> list[BlockingParams]:
    """One blocking per ``pM`` in {16, 32} that covers ``n`` and ``k`` in one panel.

    ``pK = 16*ceil(k/128)`` puts all of ``k`` in one k-panel and
    ``pN = 4*ceil(n/32)`` all of ``n`` in one n-panel; ``pN`` is then
    lowered in steps of 4 until the tiles fit the LDM under the
    buffering regime.  A ``pM`` whose tiles do not fit at any ``pN`` is
    left out.
    """
    p_k = DMA_GRANULE_DOUBLES * -(-k // (GRID * DMA_GRANULE_DOUBLES))
    out: list[BlockingParams] = []
    for p_m in (16, 32):
        p_n = R_N * -(-n // (GRID * R_N))
        while p_n > 0:
            params = BlockingParams(p_m, p_n, p_k, double_buffered=double_buffered)
            if params.fits(spec):
                out.append(params)
                break
            p_n -= R_N
    return out


# picks kept per process: a pick is a pure function of its arguments,
# so a fresh session resolves a known shape for free.
@functools.lru_cache(maxsize=4096)
def pick_blocking(
    variant: str,
    m: int,
    n: int,
    k: int,
    default: BlockingParams,
    spec: SW26010Spec = DEFAULT_SPEC,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> BlockingParams:
    """The blocking the model rates fastest for one ``m x n x k`` request.

    Candidates are ``default`` and :func:`single_panel_candidates` in
    ``default``'s buffering regime, each scored by :func:`score`; a
    candidate must beat the default strictly, so a shape the default
    serves as well (the paper's large shapes) keeps the paper blocking
    and its traffic.  RAW ignores blocking and a zero-size shape runs
    nothing: both keep ``default``.
    """
    if 0 in (m, n, k) or not VARIANTS[variant.upper()].traits.shared:
        return default
    estimator = Estimator(spec, calibration)
    best = score(estimator, variant, m, n, k, default)
    for params in single_panel_candidates(n, k, default.double_buffered, spec):
        candidate = score(estimator, variant, m, n, k, params)
        if candidate.gflops > best.gflops:
            best = candidate
    return best.params

"""N1 — numerical accuracy of the blocked accumulation order.

The paper reports performance, not accuracy; a reproduction that
reorders floating-point sums owes its users an error analysis.  The
blocked algorithm accumulates each C element as

    beta*c + alpha * sum over K blocks (strip partial sums of 8 steps)

— a different association than numpy's single dot product, so results
differ in the last bits.  This experiment measures the max relative
componentwise error against (a) numpy and (b) a float128 ground truth,
for benign and adversarial operand scalings, and compares with the
standard forward-error bound gamma_k = k*eps/(1-k*eps) for dot products
of length k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.utils.format import Table
from repro.workloads.matrices import hilbert_like, random_matrix

__all__ = ["NumericsCase", "run", "render", "dot_error_bound"]

PARAMS = BlockingParams.small(double_buffered=True)


def dot_error_bound(k: int) -> float:
    """The classical gamma_k forward-error bound for length-k dots."""
    eps = float(np.finfo(np.float64).eps)
    ke = k * eps
    return ke / (1.0 - ke)


@dataclass(frozen=True)
class NumericsCase:
    label: str
    m: int
    n: int
    k: int
    err_vs_numpy: float          # max |blocked - numpy| / scale
    err_vs_longdouble: float     # max |blocked - float128| / scale
    bound: float                 # gamma_k * amplification-free scale

    @property
    def within_bound(self) -> bool:
        return self.err_vs_longdouble <= self.bound


def _measure(label: str, a: np.ndarray, b: np.ndarray) -> NumericsCase:
    m, k = a.shape
    n = b.shape[1]
    blocked = dgemm(a, b, variant="SCHED", engine="device", params=PARAMS,
                    pad=True)
    via_numpy = a @ b
    exact = (a.astype(np.longdouble) @ b.astype(np.longdouble))
    # componentwise scale: |A||B| bounds each element's magnitude sum
    scale = np.abs(a) @ np.abs(b)
    scale[scale == 0.0] = 1.0
    err_np = float(np.max(np.abs(blocked - via_numpy) / scale))
    err_ld = float(np.max(np.abs(blocked - exact.astype(np.float64)) / scale))
    return NumericsCase(
        label=label, m=m, n=n, k=k,
        err_vs_numpy=err_np,
        err_vs_longdouble=err_ld,
        bound=dot_error_bound(k),
    )


def run(k: int = 256) -> list[NumericsCase]:
    cases = []
    a = random_matrix(128, k, seed=1)
    b = random_matrix(k, 64, seed=2)
    cases.append(_measure("gaussian O(1)", a, b))
    cases.append(_measure("scaled 1e8 x 1e-8", a * 1e8, b * 1e-8))
    cases.append(
        _measure("hilbert-like (graded)", hilbert_like(128, k), hilbert_like(k, 64))
    )
    rng = np.random.default_rng(3)
    mixed = a.copy()
    mixed[:, ::2] *= 1e6  # wildly mixed column magnitudes
    cases.append(_measure("mixed magnitudes", mixed, b))
    signs = np.sign(rng.standard_normal((128, k)))
    cases.append(_measure("cancellation-heavy (+/-1)", signs, signs.T[:k, :64]))
    return cases


def render(cases: list[NumericsCase] | None = None) -> Table:
    cases = cases or run()
    table = Table(
        ["operands", "k", "vs numpy", "vs float128", "gamma_k bound", "within"],
        title="N1 — forward error of the blocked accumulation "
              "(componentwise, relative to |A||B|)",
    )
    for case in cases:
        table.add_row([
            case.label, case.k,
            f"{case.err_vs_numpy:.2e}",
            f"{case.err_vs_longdouble:.2e}",
            f"{case.bound:.2e}",
            "yes" if case.within_bound else "NO",
        ])
    return table

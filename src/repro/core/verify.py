"""Verification battery: run every variant against the reference.

A library-quality convenience: sweep variants x shapes x scalar
combinations on the device model and report the worst deviation, so a
port or a modification can be validated with one call.  Used by the
test suite and by ``examples/variant_showdown.py``-style checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.reference import contract_violation, reference_dgemm
from repro.core.variants import VARIANTS
from repro.workloads.matrices import gemm_operands

__all__ = ["VerificationCase", "VerificationReport", "verify_variants"]


@dataclass(frozen=True)
class VerificationCase:
    """One executed comparison."""

    variant: str
    m: int
    n: int
    k: int
    alpha: float
    beta: float
    max_abs_error: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    cases: tuple[VerificationCase, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def worst(self) -> VerificationCase:
        return max(self.cases, key=lambda c: c.max_abs_error)

    def failures(self) -> list[VerificationCase]:
        return [c for c in self.cases if not c.passed]


def verify_variants(
    variants: tuple[str, ...] = ("RAW", "PE", "ROW", "DB", "SCHED"),
    grids: tuple[tuple[int, int, int], ...] = ((1, 1, 1), (2, 1, 2)),
    scalars: tuple[tuple[float, float], ...] = ((1.0, 0.0), (-1.5, 0.5)),
    seed: int = 0,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> VerificationReport:
    """Run the battery; shapes are ``grid * block factors`` per variant.

    A case passes when its result meets the engine contract
    (:func:`~repro.core.reference.contract_violation`), a componentwise
    bound that scales with ``alpha`` and ``beta``; ``max_abs_error``
    against the reference is reported alongside.
    """
    single = BlockingParams.small(double_buffered=False)
    double = BlockingParams.small(double_buffered=True)
    cases: list[VerificationCase] = []
    for variant in variants:
        traits = VARIANTS[variant.upper()].traits
        params = double if traits.double_buffered else single
        for gm, gn, gk in grids:
            m, n, k = gm * params.b_m, gn * params.b_n, gk * params.b_k
            for alpha, beta in scalars:
                a, b, c = gemm_operands(m, n, k, seed=seed)
                seed += 3
                got = dgemm(
                    a, b, c, alpha=alpha, beta=beta, variant=variant,
                    engine="device",
                    params=None if variant.upper() == "RAW" else params,
                    spec=spec,
                )
                expected = reference_dgemm(alpha, a, b, beta, c)
                err = float(np.max(np.abs(got - expected)))
                passed = contract_violation(got, alpha, a, b, beta, c) is None
                cases.append(
                    VerificationCase(
                        variant=variant.upper(), m=m, n=n, k=k,
                        alpha=alpha, beta=beta,
                        max_abs_error=err, passed=passed,
                    )
                )
    return VerificationReport(cases=tuple(cases))

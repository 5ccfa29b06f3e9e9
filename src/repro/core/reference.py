"""Reference DGEMM used to validate every variant."""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedShapeError

__all__ = ["reference_dgemm"]


def reference_dgemm(
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
) -> np.ndarray:
    """Return ``alpha * a @ b + beta * c`` (column-major, f64).

    Shapes follow the BLAS contract: ``a`` is m x k, ``b`` is k x n,
    ``c`` is m x n.  The input ``c`` is not modified, and with
    ``beta == 0`` it is not read either (a NaN in ``c`` does not leak).
    """
    a = np.asfortranarray(a, dtype=np.float64)
    b = np.asfortranarray(b, dtype=np.float64)
    c = np.asfortranarray(c, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise UnsupportedShapeError("reference_dgemm operates on 2-D matrices")
    m, k = a.shape
    k2, n = b.shape
    if k != k2 or c.shape != (m, n):
        raise UnsupportedShapeError(
            f"inconsistent shapes: A {a.shape}, B {b.shape}, C {c.shape}"
        )
    if beta == 0:
        return np.asfortranarray(float(alpha) * (a @ b))
    return np.asfortranarray(float(alpha) * (a @ b) + float(beta) * c)

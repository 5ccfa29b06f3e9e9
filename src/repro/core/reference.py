"""Reference DGEMM used to validate every variant."""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedShapeError

__all__ = ["contract_bound", "reference_dgemm"]


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
    With ``alpha == 0`` the product ``a @ b`` is not evaluated, so an
    Inf in ``a`` or ``b`` does not leak either.
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
    if alpha == 0:
        if beta == 0:
            return np.zeros((m, n), order="F")
        return np.asfortranarray(float(beta) * c)
    if beta == 0:
        return np.asfortranarray(float(alpha) * (a @ b))
    return np.asfortranarray(float(alpha) * (a @ b) + float(beta) * c)


def contract_bound(
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
) -> np.ndarray:
    """The engine contract's componentwise error bound.

    Every engine's output lies within ``k*eps*(|alpha|*|A||B| +
    |beta|*|C|)`` of :func:`reference_dgemm`, element by element (see
    :mod:`repro.core.engine`).  Like the reference, the bound reads
    neither ``c`` when ``beta == 0`` nor ``a``/``b`` when ``alpha == 0``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    bound = np.zeros((m, b.shape[1]))
    if alpha != 0:
        bound += abs(float(alpha)) * (np.abs(a) @ np.abs(b))
    if beta != 0:
        bound += abs(float(beta)) * np.abs(np.asarray(c, dtype=np.float64))
    return k * np.finfo(np.float64).eps * bound

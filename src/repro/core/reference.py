"""Reference DGEMM used to validate every variant."""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedShapeError

__all__ = ["contract_bound", "contract_violation", "reference_dgemm"]


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
    Where an operand holds NaN or Inf the bound is NaN or Inf too;
    :func:`contract_violation` checks those entries exactly instead.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    bound = np.zeros((m, b.shape[1]))
    with np.errstate(invalid="ignore"):  # Inf * 0 in |A||B| is NaN
        if alpha != 0:
            bound += abs(float(alpha)) * (np.abs(a) @ np.abs(b))
        if beta != 0:
            bound += abs(float(beta)) * np.abs(np.asarray(c, dtype=np.float64))
    return k * np.finfo(np.float64).eps * bound


def contract_violation(
    result: np.ndarray,
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
) -> str | None:
    """The worst way ``result`` breaks the engine contract, or ``None``.

    Non-finite entries follow :func:`reference_dgemm` exactly: NaN
    where it has NaN, and an Inf of the same sign where it has an Inf.
    Every other entry lies within :func:`contract_bound` of it.  The
    returned text names the first mismatched non-finite position, else
    the finite entry with the largest error relative to its bound.
    """
    expected = reference_dgemm(alpha, a, b, beta, c)
    result = np.asarray(result, dtype=np.float64)
    if result.shape != expected.shape:
        return f"shape {result.shape} != reference shape {expected.shape}"
    nan = np.isnan(expected)
    inf = np.isinf(expected)
    wrong = (np.isnan(result) != nan) | (np.isinf(result) != inf)
    wrong |= inf & (result != expected)
    if wrong.any():
        i, j = np.argwhere(wrong)[0]
        return (
            f"non-finite pattern differs at ({i}, {j}): got "
            f"{float(result[i, j])!r}, reference {float(expected[i, j])!r}"
        )
    bound = contract_bound(alpha, a, b, beta, c)
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.where(nan | inf, 0.0, np.abs(result - expected))
        over = err > bound
        if not over.any():
            return None
        ratio = np.where(over, err / bound, 0.0)
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    return (
        f"error {err[i, j]:.3e} exceeds the contract bound "
        f"{bound[i, j]:.3e} at ({i}, {j}) (error/bound {ratio[i, j]:.3g})"
    )

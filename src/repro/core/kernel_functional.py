"""Functional thread-level multiply kernels.

Three implementations of the same register-level blocking:

- :func:`tile_multiply` — the vectorised form the GEMM variants call
  (numpy does the 16 x pN x pK arithmetic in one shot);
- :func:`tile_multiply_batched` — the mesh-wide form the stepwise
  engine's legacy gather path calls: all 64 CPEs' tile multiplies of
  one sharing step as a single batched ``np.matmul``;
- :func:`register_tile_multiply` — a lane-accurate execution of the
  paper's 4x4 register blocking through
  :class:`~repro.arch.regfile.VectorRegisterFile`, issuing one ``fma``
  per conceptual ``vmad``.  It exists to prove the register tiling is
  arithmetically exact (tests cross-check it against numpy) and to
  count the vmad/load traffic the ISA model assumes.

The numpy forms produce bit-identical results for the same operand
order; the register version accumulates in a fixed k-major order numpy
``A @ B`` would not necessarily use — hence tests compare it with a
small tolerance, not equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.arch.regfile import VectorRegisterFile

__all__ = [
    "tile_multiply",
    "tile_multiply_batched",
    "register_tile_multiply",
    "RegisterKernelCounts",
]

R_M = 4
R_N = 4
SIMD = 4


def tile_multiply(
    c_tile: np.ndarray, a_tile: np.ndarray, b_tile: np.ndarray, alpha: float = 1.0
) -> None:
    """``c_tile += alpha * a_tile @ b_tile`` in place (vectorised)."""
    if a_tile.shape[0] != c_tile.shape[0] or b_tile.shape[1] != c_tile.shape[1]:
        raise ConfigError(
            f"tile shapes inconsistent: C {c_tile.shape}, A {a_tile.shape}, "
            f"B {b_tile.shape}"
        )
    if a_tile.shape[1] != b_tile.shape[0]:
        raise ConfigError(
            f"inner dimensions differ: A {a_tile.shape}, B {b_tile.shape}"
        )
    c_tile += alpha * (a_tile @ b_tile)


def tile_multiply_batched(
    c_stack: np.ndarray,
    a_stack: np.ndarray,
    b_stack: np.ndarray,
    alpha: float = 1.0,
    out: np.ndarray | None = None,
) -> None:
    """``c_stack[t] += alpha * a_stack[t] @ b_stack[t]`` for every thread.

    The stacks are ``(64, rows, cols)`` arrays holding one tile per
    CPE; the 64 multiplies execute as one batched ``np.matmul``.  Pass
    a preallocated ``out`` (same shape as ``c_stack``) to keep the hot
    loop allocation-free.
    """
    if a_stack.shape[0] != c_stack.shape[0] or b_stack.shape[0] != c_stack.shape[0]:
        raise ConfigError(
            f"stack depths differ: C {c_stack.shape[0]}, "
            f"A {a_stack.shape[0]}, B {b_stack.shape[0]}"
        )
    prod = np.matmul(a_stack, b_stack, out=out)
    if alpha == 1.0:
        c_stack += prod
    else:
        c_stack += alpha * prod


@dataclass
class RegisterKernelCounts:
    """Instruction counts of one register-tiled multiply."""

    vmad: int = 0
    a_loads: int = 0
    b_loads: int = 0
    c_loads: int = 0
    c_stores: int = 0


def register_tile_multiply(
    regs: VectorRegisterFile,
    c_tile: np.ndarray,
    a_tile: np.ndarray,
    b_tile: np.ndarray,
    alpha: float = 1.0,
) -> RegisterKernelCounts:
    """Execute the 4x4 register blocking literally on the register file.

    Register map (matching Algorithm 3's operands):

    - ``rC[0..15]`` = registers 0..15: the 16x4 C tile, ``rC[4*i + j]``
      holding C rows ``[4*i, 4*i+4)`` of tile column ``j``;
    - ``rA[0..3]`` = registers 16..19: one column of the A panel;
    - ``rB[0..3]`` = registers 20..23: four splatted B scalars.

    ``alpha`` is folded into the A column at load time (one scale per
    load, the standard trick real kernels use so the inner loop is pure
    FMA).  Updates ``c_tile`` in place.
    """
    p_m, p_k = a_tile.shape
    p_k2, p_n = b_tile.shape
    if p_k != p_k2 or c_tile.shape != (p_m, p_n):
        raise ConfigError(
            f"tile shapes inconsistent: C {c_tile.shape}, A {a_tile.shape}, "
            f"B {b_tile.shape}"
        )
    if p_m != R_M * SIMD:
        raise ConfigError(f"register kernel covers pM = {R_M * SIMD} rows, got {p_m}")
    if p_n % R_N != 0:
        raise ConfigError(f"pN must be a multiple of rN = {R_N}, got {p_n}")

    rc0, ra0, rb0 = 0, 16, 20
    counts = RegisterKernelCounts()
    for col0 in range(0, p_n, R_N):
        # load the C accumulators for this 16x4 tile
        for i in range(R_M):
            for j in range(R_N):
                regs.write(rc0 + R_N * i + j, c_tile[SIMD * i : SIMD * i + SIMD, col0 + j])
                counts.c_loads += 1
        for kk in range(p_k):
            for i in range(R_M):
                regs.write(ra0 + i, alpha * a_tile[SIMD * i : SIMD * i + SIMD, kk])
                counts.a_loads += 1
            for j in range(R_N):
                regs.splat(rb0 + j, b_tile[kk, col0 + j])
                counts.b_loads += 1
            for i in range(R_M):
                for j in range(R_N):
                    rc = rc0 + R_N * i + j
                    regs.fma(rc, ra0 + i, rb0 + j, rc)
                    counts.vmad += 1
        # store the accumulators back
        for i in range(R_M):
            for j in range(R_N):
                c_tile[SIMD * i : SIMD * i + SIMD, col0 + j] = regs.read(rc0 + R_N * i + j)
                counts.c_stores += 1
    return counts

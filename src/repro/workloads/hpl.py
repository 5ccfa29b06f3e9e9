"""HPL workload model: the DGEMM shape sequence of a factorization.

HPL factors an N x N system in panels of width NB; after each panel the
trailing update is a DGEMM of shape (N - j*NB) x (N - j*NB) x NB.  This
module enumerates that sequence and its flop accounting so the E8
experiment can project how much of an HPL run the paper's kernel
covers, and at what rate — and, via :func:`run_trace`, executes the
sequence functionally as one
:class:`~repro.multi.scheduler.CGScheduler` batch, the way a host-side
HPL driver would feed the device.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = ["HPLTrace", "hpl_trace", "trace_items", "run_trace"]


@dataclass(frozen=True)
class HPLTrace:
    """Shapes and flops of one HPL factorization."""

    n: int
    nb: int
    #: trailing-update GEMM shapes (m, n, k), largest first.
    updates: tuple[tuple[int, int, int], ...]

    @property
    def gemm_flops(self) -> int:
        return sum(2 * m * n_ * k for m, n_, k in self.updates)

    @property
    def total_flops(self) -> float:
        """The classic HPL flop count 2/3 N^3 + 3/2 N^2."""
        return 2.0 * self.n**3 / 3.0 + 1.5 * self.n**2

    @property
    def gemm_fraction(self) -> float:
        return self.gemm_flops / self.total_flops


def hpl_trace(n: int, nb: int) -> HPLTrace:
    """Enumerate the trailing-update DGEMMs of an N x N, NB-blocked HPL."""
    if n <= 0 or nb <= 0:
        raise ConfigError("n and nb must be positive")
    if nb > n:
        raise ConfigError(f"panel width {nb} exceeds matrix size {n}")
    updates = []
    offset = nb
    while offset < n:
        trailing = n - offset
        updates.append((trailing, trailing, min(nb, trailing)))
        offset += nb
    return HPLTrace(n=n, nb=nb, updates=tuple(updates))


def trace_items(trace: HPLTrace, seed: int = 0) -> list:
    """Synthesize the trace's trailing updates as batch items.

    Each update becomes ``C -= L21 @ U12`` (``alpha=-1, beta=1``) over
    random operands of the traced shape — the data content is
    irrelevant to the staging/traffic behaviour being exercised.
    """
    from repro.api import GemmRequest

    rng = np.random.default_rng(seed)
    items = []
    for m, n_, k in trace.updates:
        items.append(
            GemmRequest(
                a=rng.standard_normal((m, k)),
                b=rng.standard_normal((k, n_)),
                c=rng.standard_normal((m, n_)),
                alpha=-1.0,
                beta=1.0,
            )
        )
    return items


def run_trace(
    trace: HPLTrace,
    variant: str = "SCHED",
    params=None,
    processor=None,
    seed: int = 0,
):
    """Execute the trace's update sequence across ``processor``'s CGs.

    ``processor`` defaults to a fresh chip.  Returns the
    :class:`~repro.multi.scheduler.ScheduleResult`, whose ``flops`` /
    ``padded_flops`` pair shows how much extra work the block-factor
    padding costs for this (N, NB) choice.  Any update failure
    propagates.
    """
    from repro.multi.scheduler import CGScheduler

    with CGScheduler(processor, variant=variant, params=params) as scheduler:
        return scheduler.run(
            trace_items(trace, seed=seed), isolate_failures=False
        )

"""Main (off-chip) memory of a core group.

Matrices live here in column-major (Fortran) order, as the paper
specifies, and are addressed by *handles*.  The model keeps a byte
budget so a workload that could not fit in the CG's 8 GB is rejected
instead of silently "working" in the simulation, plus a high-water
mark (:attr:`MainMemory.peak_bytes`) so workloads can audit their
resident footprint.

Staging cost matters to the batched hot path, so :meth:`MainMemory.store`
guarantees at most **one** host-side allocation-and-copy per call, and
overwriting an existing name with a same-target-shape array rewrites
the resident allocation in place — no reallocation, no budget churn.
:class:`MemoryStats` counts both paths so callers (and the regression
tests) can assert the copy discipline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError, ConfigError
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.utils.stats import StatsProtocol

__all__ = ["MatrixHandle", "MainMemory", "MemoryStats"]


@dataclass(frozen=True)
class MatrixHandle:
    """A named column-major f64 matrix resident in main memory."""

    name: str
    rows: int
    cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * 8

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{self.rows}x{self.cols}]"


@dataclass
class MemoryStats(StatsProtocol):
    """Host-side staging counters (DMA traffic is counted elsewhere).

    ``allocations`` is the number of new backing arrays created — each
    one costs a full-matrix host copy; ``in_place_stores`` counts calls
    served by rewriting an existing allocation, the cheap path batch
    staging is built on.
    """

    stores: int = 0
    allocations: int = 0
    in_place_stores: int = 0
    frees: int = 0


class MainMemory:
    """Byte-budgeted store of column-major matrices.

    The DMA engine (:mod:`repro.arch.dma`) reads and writes submatrices
    of these arrays; everything else treats main memory as opaque.
    """

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC) -> None:
        self.spec = spec
        self._arrays: dict[str, np.ndarray] = {}
        self._used_bytes = 0
        self._peak_bytes = 0
        self.stats = MemoryStats()

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated to matrices."""
        return self._used_bytes

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`used_bytes` over this memory's life."""
        return self._peak_bytes

    @property
    def free_bytes(self) -> int:
        return self.spec.main_memory_bytes - self._used_bytes

    def store(
        self,
        name: str,
        array: np.ndarray | None = None,
        rows: int | None = None,
        cols: int | None = None,
    ) -> MatrixHandle:
        """Stage ``array`` into main memory under ``name``.

        The resident matrix is column-major float64, matching the
        paper's storage convention.  Overwriting an existing name with a
        same-target-shape array reuses the allocation, rewriting it in
        place; any other call creates exactly one new backing array (a
        single host-side copy — never the ``asfortranarray`` +
        ``copy`` double copy).

        ``rows``/``cols`` stage into a larger zero-padded target region,
        with ``array`` in the top-left corner: the ``pad=True`` path of
        :func:`repro.core.api.dgemm` on the engines that read the zeros
        (``device``, ``stepwise``, RAW); the fused engine stages logical
        extents and keeps the padding in its model.  ``array=None``
        stores zeros; :meth:`allocate` is the sugar for that.
        """
        if array is not None:
            array = np.asarray(array)
            if array.ndim != 2:
                raise ConfigError(f"expected a 2-D matrix, got ndim={array.ndim}")
            r, c = array.shape
        else:
            if rows is None or cols is None:
                raise ConfigError("storing zeros requires explicit rows and cols")
            r = c = 0
        t_rows = r if rows is None else int(rows)
        t_cols = c if cols is None else int(cols)
        if t_rows < r or t_cols < c:
            raise ConfigError(
                f"target region {t_rows}x{t_cols} cannot hold a {r}x{c} operand"
            )
        self.stats.stores += 1
        old = self._arrays.get(name)
        if old is not None and old.shape == (t_rows, t_cols):
            # documented fast path: rewrite the allocation in place
            if array is None:
                old[...] = 0.0
            elif (r, c) == (t_rows, t_cols):
                old[...] = array
            else:
                old[:r, :c] = array
                old[r:, :] = 0.0
                old[:r, c:] = 0.0
            self.stats.in_place_stores += 1
            return MatrixHandle(name, t_rows, t_cols)
        nbytes = t_rows * t_cols * 8
        freed = old.nbytes if old is not None else 0
        if nbytes > self.free_bytes + freed:
            raise MemoryError(
                f"main memory exhausted: need {nbytes} B, "
                f"free {self.free_bytes + freed} B"
            )
        if array is not None and (r, c) == (t_rows, t_cols):
            arr = np.array(array, dtype=np.float64, order="F", copy=True)
        else:
            arr = np.zeros((t_rows, t_cols), dtype=np.float64, order="F")
            if array is not None:
                arr[:r, :c] = array
        self._arrays[name] = arr
        self._used_bytes += nbytes - freed
        if self._used_bytes > self._peak_bytes:
            self._peak_bytes = self._used_bytes
        self.stats.allocations += 1
        return MatrixHandle(name, t_rows, t_cols)

    def allocate(self, name: str, rows: int, cols: int) -> MatrixHandle:
        """Allocate a zeroed matrix (no input copy at all)."""
        return self.store(name, None, rows=rows, cols=cols)

    def free(self, name: str) -> None:
        arr = self._arrays.pop(name, None)
        if arr is None:
            raise KeyError(f"no matrix named {name!r} in main memory")
        self._used_bytes -= arr.nbytes
        self.stats.frees += 1

    def array(self, handle: MatrixHandle | str) -> np.ndarray:
        """Return the backing array (the DMA engine's access path)."""
        name = handle if isinstance(handle, str) else handle.name
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"no matrix named {name!r} in main memory") from None

    def read(self, handle: MatrixHandle | str) -> np.ndarray:
        """Return a defensive copy, for result verification."""
        return self.array(handle).copy(order="F")

    def handles(self) -> list[MatrixHandle]:
        return [MatrixHandle(n, a.shape[0], a.shape[1]) for n, a in self._arrays.items()]

    def check_dma_alignment(self, handle: MatrixHandle | str, col: int) -> None:
        """Check that column ``col`` starts on a 128 B boundary.

        Column-major storage means column ``j`` starts at byte
        ``j * rows * 8``; the paper requires 128 B alignment for every
        DMA transfer, which holds when ``rows`` is a multiple of 16.
        """
        arr = self.array(handle)
        offset = col * arr.shape[0] * 8
        if offset % self.spec.dma.transaction_bytes != 0:
            raise AlignmentError(
                f"column {col} of {handle} starts at byte {offset}, not "
                f"{self.spec.dma.transaction_bytes}-byte aligned"
            )

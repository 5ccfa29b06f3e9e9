"""Main (off-chip) memory of a core group.

Matrices live here in column-major (Fortran) order, as the paper
specifies, and are addressed by *handles*.  The model keeps a byte
budget so a workload that could not fit in the CG's 8 GB is rejected
instead of silently "working" in the simulation, plus a high-water
mark (:attr:`MainMemory.peak_bytes`) so workloads can audit their
resident footprint.

A matrix gets here one of two ways.  :meth:`MainMemory.store` copies
it (once, zero-padding when the target region is larger), and
overwriting a name with a same-target-shape array rewrites the
resident allocation in place.  :meth:`MainMemory.bind` registers a
caller's Fortran-ordered float64 array as the resident matrix itself,
with no copy.  The budget, :attr:`~MainMemory.used_bytes`,
:attr:`~MainMemory.peak_bytes` and :class:`MemoryStats` describe the
modelled memory, so both ways count alike: a bound matrix occupies its
bytes as a copy would.  A bound array is never written by ``store``;
restaging its name allocates fresh host memory instead, so an array
that was handed back to a caller is never overwritten.
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
    """Staging counters of the modelled memory (DMA traffic is counted
    elsewhere).

    ``stores`` counts :meth:`MainMemory.store` and
    :meth:`MainMemory.bind` calls; ``allocations`` the new regions the
    model allocates; ``in_place_stores`` the calls that restage an
    existing same-shape region, the path batch staging is built on.
    These are model facts, not host copies: a bound operand costs the
    host no copy, and restaging over a bound array allocates fresh host
    memory while still counting as in place.
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
        #: names whose array belongs to a caller (see :meth:`bind`).
        self._bound: set[str] = set()
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
        """Copy ``array`` into main memory under ``name``.

        The resident matrix is column-major float64, matching the
        paper's storage convention.  Overwriting an existing name with a
        same-target-shape array reuses the allocation, rewriting it in
        place, unless that array is bound (:meth:`bind`): then a fresh
        array takes its place, still counted as an in-place store.  Any
        other call creates exactly one new backing array (a single
        copy — never the ``asfortranarray`` + ``copy`` double copy).

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
            if name in self._bound:
                # never write into a caller's array: the model still
                # rewrites this region in place, the host reallocates
                self._arrays[name] = self._fresh(array, t_rows, t_cols)
                self._bound.discard(name)
                self.stats.in_place_stores += 1
                return MatrixHandle(name, t_rows, t_cols)
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
        self._admit(name, t_rows, t_cols,
                    lambda: self._fresh(array, t_rows, t_cols))
        self._bound.discard(name)
        return MatrixHandle(name, t_rows, t_cols)

    def bind(self, name: str, array: np.ndarray) -> MatrixHandle:
        """Make ``array`` itself the resident matrix ``name``: no copy.

        ``array`` must be a 2-D, Fortran-contiguous float64 array; it
        is accounted exactly as :meth:`store` would account a copy of
        it (same budget check and :class:`MemoryStats` counts).
        Engines read and write it in place, so the caller decides what
        they may do through its ``writeable`` flag: staged inputs are
        bound as read-only views, so a stray write raises.
        """
        if (array.ndim != 2 or array.dtype != np.float64
                or not array.flags.f_contiguous):
            raise ConfigError(
                "only a 2-D Fortran-contiguous float64 array can be bound"
            )
        self.stats.stores += 1
        old = self._arrays.get(name)
        if old is not None and old.shape == array.shape:
            self._arrays[name] = array
            self.stats.in_place_stores += 1
        else:
            self._admit(name, *array.shape, lambda: array)
        self._bound.add(name)
        return MatrixHandle(name, *array.shape)

    def _admit(self, name: str, rows: int, cols: int, make) -> None:
        """Book a new ``rows x cols`` region for ``name``, holding ``make()``.

        The budget is checked before ``make`` runs, so a refused operand
        never costs the host its bytes.
        """
        nbytes = rows * cols * 8
        old = self._arrays.get(name)
        freed = old.nbytes if old is not None else 0
        if nbytes > self.free_bytes + freed:
            raise MemoryError(
                f"main memory exhausted: need {nbytes} B, "
                f"free {self.free_bytes + freed} B"
            )
        self._arrays[name] = make()
        self._used_bytes += nbytes - freed
        if self._used_bytes > self._peak_bytes:
            self._peak_bytes = self._used_bytes
        self.stats.allocations += 1

    @staticmethod
    def _fresh(array: np.ndarray | None, rows: int, cols: int) -> np.ndarray:
        """A new Fortran-ordered ``rows x cols`` copy of ``array``, zero-padded."""
        if array is not None and array.shape == (rows, cols):
            return np.array(array, dtype=np.float64, order="F", copy=True)
        arr = np.zeros((rows, cols), dtype=np.float64, order="F")
        if array is not None:
            arr[:array.shape[0], :array.shape[1]] = array
        return arr

    def allocate(self, name: str, rows: int, cols: int) -> MatrixHandle:
        """Allocate a zeroed matrix (no input copy at all)."""
        return self.store(name, None, rows=rows, cols=cols)

    def free(self, name: str) -> None:
        arr = self._arrays.pop(name, None)
        if arr is None:
            raise KeyError(f"no matrix named {name!r} in main memory")
        self._bound.discard(name)
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

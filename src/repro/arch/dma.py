"""The asynchronous DMA engine between main memory and LDM (Sec II, IV-A).

Two of the five hardware modes are modelled functionally because they
are the two the paper uses:

``PE_MODE``
    moves a column-major submatrix between main memory and the LDM of a
    *single* CPE.  Each matrix column contributes one contiguous segment
    of ``rows * 8`` bytes.

``ROW_MODE``
    moves data between main memory and the LDMs of *all eight* CPEs of
    one mesh row collectively.  Every 128 B transaction carries 16
    doubles; the j-th CPE of the row receives the j-th 16 B slice (2
    doubles).  Streaming a column of length ``rows`` therefore hands
    CPE ``j`` the interleaved rows ``{r : r mod 16 in {2j, 2j+1}}`` —
    exactly the "8 interleaved data units" distribution of Figure 5.

Alignment rules are enforced as on hardware: every transferred segment
must start on a 128 B boundary and be a multiple of 128 B long
(``AlignmentError`` otherwise), which is why the paper keeps ``pM`` a
multiple of 16 and ``pK`` a multiple of 16.

The remaining modes (``BCAST``, ``BROW``, ``RANK``) can be named in
descriptors but raise :class:`~repro.errors.UnsupportedModeError` when
executed, making the model's boundary explicit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import AlignmentError, DMAError, UnsupportedModeError
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.arch.ldm import LDMBuffer
from repro.arch.memory import MainMemory, MatrixHandle
from repro.utils.stats import StatsProtocol

__all__ = [
    "DMAMode",
    "DMADirection",
    "DMADescriptor",
    "DMAReply",
    "DMAStats",
    "DMAEngine",
    "row_mode_owner_rows",
]


class DMAMode(enum.Enum):
    """The five DMA data-distribution modes of SW26010."""

    PE = "PE_MODE"
    ROW = "ROW_MODE"
    BCAST = "BCAST_MODE"
    BROW = "BROW_MODE"
    RANK = "RANK_MODE"


class DMADirection(enum.Enum):
    GET = "get"  # main memory -> LDM
    PUT = "put"  # LDM -> main memory


@dataclass(frozen=True)
class DMADescriptor:
    """A transfer request: a rectangular region of a resident matrix."""

    mode: DMAMode
    direction: DMADirection
    handle: MatrixHandle
    row0: int
    col0: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise DMAError(f"empty transfer region {self.rows}x{self.cols}")
        if self.row0 < 0 or self.col0 < 0:
            raise DMAError("negative region origin")
        if self.row0 + self.rows > self.handle.rows or self.col0 + self.cols > self.handle.cols:
            raise DMAError(
                f"region [{self.row0}:{self.row0 + self.rows}, "
                f"{self.col0}:{self.col0 + self.cols}] outside {self.handle}"
            )

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * 8


@dataclass(frozen=True)
class DMAReply:
    """Completion record of one transfer (consumed by the timing model)."""

    mode: DMAMode
    direction: DMADirection
    nbytes: int
    transactions: int
    segments: int

    @property
    def bytes_per_segment(self) -> int:
        return self.nbytes // max(self.segments, 1)


@dataclass
class DMAStats(StatsProtocol):
    """Cumulative per-mode transfer counters."""

    gets: int = 0
    puts: int = 0
    bytes_get: int = 0
    bytes_put: int = 0
    transactions: int = 0
    by_mode: dict = field(default_factory=dict)

    def record(self, reply: DMAReply) -> None:
        if reply.direction is DMADirection.GET:
            self.gets += 1
            self.bytes_get += reply.nbytes
        else:
            self.puts += 1
            self.bytes_put += reply.nbytes
        self.transactions += reply.transactions
        key = reply.mode.value
        mode_bytes = self.by_mode.setdefault(key, 0)
        self.by_mode[key] = mode_bytes + reply.nbytes

    def tally(
        self,
        mode: DMAMode,
        direction: DMADirection,
        nbytes: int,
        transactions: int,
        transfers: int = 1,
    ) -> None:
        """Account ``transfers`` identical transfers without executing them.

        The vectorized execution engine moves whole 8x8-grid blocks in
        one strided slice copy but must report the *same* counters the
        per-CPE device path would; ``nbytes``/``transactions`` are per
        transfer, exactly as one :class:`DMAReply` would carry them.
        """
        if direction is DMADirection.GET:
            self.gets += transfers
            self.bytes_get += nbytes * transfers
        else:
            self.puts += transfers
            self.bytes_put += nbytes * transfers
        self.transactions += transactions * transfers
        key = mode.value
        self.by_mode[key] = self.by_mode.get(key, 0) + nbytes * transfers

    @property
    def bytes_total(self) -> int:
        return self.bytes_get + self.bytes_put


def row_mode_owner_rows(rows: int, cpe_col: int, group: int = 16, per_cpe: int = 2) -> np.ndarray:
    """Row indices CPE ``cpe_col`` of a mesh row receives in ROW_MODE.

    A 128 B transaction carries a ``group`` of 16 doubles; the j-th CPE
    gets doubles ``2j`` and ``2j+1`` of every group, i.e. matrix rows
    congruent to ``2j`` or ``2j+1`` modulo 16.
    """
    if rows % group != 0:
        raise AlignmentError(
            f"ROW_MODE needs the row count to be a multiple of {group}, got {rows}"
        )
    base = np.arange(0, rows, group)
    mine = np.concatenate([base + per_cpe * cpe_col + k for k in range(per_cpe)])
    mine.sort()
    return mine


class DMAEngine:
    """Executes DMA descriptors against main memory and LDM buffers."""

    def __init__(self, memory: MainMemory, spec: SW26010Spec = DEFAULT_SPEC) -> None:
        self.memory = memory
        self.spec = spec
        self.stats = DMAStats()

    # -- alignment ------------------------------------------------------

    def _check_alignment(self, desc: DMADescriptor) -> None:
        tb = self.spec.dma.transaction_bytes
        lda = desc.handle.rows
        seg_bytes = desc.rows * 8
        if seg_bytes % tb != 0:
            raise AlignmentError(
                f"segment of {seg_bytes} B ({desc.rows} rows) is not a "
                f"multiple of the {tb} B transaction unit"
            )
        if (desc.row0 * 8) % tb != 0:
            raise AlignmentError(
                f"row offset {desc.row0} starts at byte {desc.row0 * 8}, "
                f"not {tb}-byte aligned"
            )
        if (lda * 8) % tb != 0:
            raise AlignmentError(
                f"leading dimension {lda} gives {lda * 8} B columns, so "
                f"columns beyond the first are not {tb}-byte aligned"
            )

    # -- PE_MODE ---------------------------------------------------------

    def pe_get(
        self,
        handle: MatrixHandle,
        row0: int,
        col0: int,
        rows: int,
        cols: int,
        buf: LDMBuffer,
    ) -> DMAReply:
        """Load a submatrix into one CPE's LDM buffer (``PE_MODE`` get)."""
        desc = DMADescriptor(DMAMode.PE, DMADirection.GET, handle, row0, col0, rows, cols)
        self._check_alignment(desc)
        self._check_buf(buf, rows, cols)
        src = self.memory.array(handle)
        buf.data[:rows, :cols] = src[row0 : row0 + rows, col0 : col0 + cols]
        return self._finish(desc, segments=cols)

    def pe_put(
        self,
        handle: MatrixHandle,
        row0: int,
        col0: int,
        rows: int,
        cols: int,
        buf: LDMBuffer,
    ) -> DMAReply:
        """Store one CPE's LDM buffer back to main memory (``PE_MODE`` put)."""
        desc = DMADescriptor(DMAMode.PE, DMADirection.PUT, handle, row0, col0, rows, cols)
        self._check_alignment(desc)
        self._check_buf(buf, rows, cols)
        dst = self.memory.array(handle)
        dst[row0 : row0 + rows, col0 : col0 + cols] = buf.data[:rows, :cols]
        return self._finish(desc, segments=cols)

    # -- ROW_MODE ----------------------------------------------------------

    def row_get(
        self,
        handle: MatrixHandle,
        row0: int,
        col0: int,
        rows: int,
        cols: int,
        bufs: Sequence[LDMBuffer],
    ) -> DMAReply:
        """Distribute a region across the 8 CPEs of a mesh row (get).

        ``bufs[j]`` is the LDM buffer of the j-th CPE in the row; it
        receives the interleaved rows of :func:`row_mode_owner_rows`.
        """
        desc = DMADescriptor(DMAMode.ROW, DMADirection.GET, handle, row0, col0, rows, cols)
        self._validate_row_mode(desc, bufs)
        src = self.memory.array(handle)
        region = src[row0 : row0 + rows, col0 : col0 + cols]
        for j, buf in enumerate(bufs):
            mine = row_mode_owner_rows(rows, j)
            self._check_buf(buf, len(mine), cols)
            buf.data[: len(mine), :cols] = region[mine, :]
        return self._finish(desc, segments=cols, row_mode=True)

    def row_put(
        self,
        handle: MatrixHandle,
        row0: int,
        col0: int,
        rows: int,
        cols: int,
        bufs: Sequence[LDMBuffer],
    ) -> DMAReply:
        """Gather the 8 CPEs' interleaved slices back to main memory (put)."""
        desc = DMADescriptor(DMAMode.ROW, DMADirection.PUT, handle, row0, col0, rows, cols)
        self._validate_row_mode(desc, bufs)
        dst = self.memory.array(handle)
        region = dst[row0 : row0 + rows, col0 : col0 + cols]
        for j, buf in enumerate(bufs):
            mine = row_mode_owner_rows(rows, j)
            self._check_buf(buf, len(mine), cols)
            region[mine, :] = buf.data[: len(mine), :cols]
        return self._finish(desc, segments=cols, row_mode=True)

    # -- BCAST_MODE -----------------------------------------------------

    def bcast_get(
        self,
        handle: MatrixHandle,
        row0: int,
        col0: int,
        rows: int,
        cols: int,
        bufs: Sequence[LDMBuffer],
    ) -> DMAReply:
        """Replicate one region into every CPE's LDM (``BCAST_MODE``).

        The paper's DGEMM never uses this mode (replication wastes LDM
        capacity the blocking needs), but it exists on hardware and the
        ablation in ``tests/unit/arch/test_dma.py`` uses it to show the
        sharing scheme moves 64x less main-memory traffic than
        broadcast-loading would.  Main memory is read once; the mesh
        fans the data out, so the transaction count equals a single
        copy's.
        """
        desc = DMADescriptor(DMAMode.BCAST, DMADirection.GET, handle, row0, col0, rows, cols)
        self._check_alignment(desc)
        if len(bufs) != self.spec.n_cpes:
            raise DMAError(
                f"BCAST_MODE is collective across all {self.spec.n_cpes} "
                f"CPEs; got {len(bufs)} buffers"
            )
        src = self.memory.array(handle)
        region = src[row0 : row0 + rows, col0 : col0 + cols]
        for buf in bufs:
            self._check_buf(buf, rows, cols)
            buf.data[:rows, :cols] = region
        return self._finish(desc, segments=cols)

    # -- unsupported modes -----------------------------------------------

    def execute(self, desc: DMADescriptor, *args, **kwargs):  # pragma: no cover - thin
        """Generic dispatcher; exists so descriptors can name any mode."""
        if desc.mode is DMAMode.PE:
            fn = self.pe_get if desc.direction is DMADirection.GET else self.pe_put
        elif desc.mode is DMAMode.ROW:
            fn = self.row_get if desc.direction is DMADirection.GET else self.row_put
        elif desc.mode is DMAMode.BCAST and desc.direction is DMADirection.GET:
            fn = self.bcast_get
        else:
            raise UnsupportedModeError(
                f"{desc.mode.value} ({desc.direction.value}) exists on "
                "SW26010 but is not modelled; the paper's DGEMM uses only "
                "PE_MODE and ROW_MODE"
            )
        return fn(desc.handle, desc.row0, desc.col0, desc.rows, desc.cols, *args, **kwargs)

    # -- helpers ------------------------------------------------------------

    def _validate_row_mode(self, desc: DMADescriptor, bufs: Sequence[LDMBuffer]) -> None:
        self._check_alignment(desc)
        n = self.spec.mesh_cols
        if len(bufs) != n:
            raise DMAError(
                f"ROW_MODE is collective across the {n} CPEs of a mesh row; "
                f"got {len(bufs)} buffers"
            )
        if desc.rows % 16 != 0:
            raise AlignmentError(
                f"ROW_MODE interleaves 16-double groups; {desc.rows} rows "
                "is not a multiple of 16"
            )

    @staticmethod
    def _check_buf(buf: LDMBuffer, rows: int, cols: int) -> None:
        if buf.data.ndim != 2 or buf.data.shape[0] < rows or buf.data.shape[1] < cols:
            raise DMAError(
                f"LDM buffer {buf.name!r} of shape {buf.data.shape} cannot "
                f"hold a {rows}x{cols} tile"
            )

    def _finish(self, desc: DMADescriptor, segments: int, row_mode: bool = False) -> DMAReply:
        tb = self.spec.dma.transaction_bytes
        transactions = desc.nbytes // tb
        reply = DMAReply(
            mode=desc.mode,
            direction=desc.direction,
            nbytes=desc.nbytes,
            transactions=transactions,
            segments=segments,
        )
        self.stats.record(reply)
        return reply

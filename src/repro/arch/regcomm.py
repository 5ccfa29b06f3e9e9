"""Register communication across the CPE mesh (paper Sec II and III-B).

The mechanism is producer/consumer: a source CPE loads 256-bit aligned
data into a register (``vldr`` for A rows, ``lddec`` for the splat of a
B element) and pushes it into the row or column network through its
send buffer; destination CPEs pop it from their receive buffer with
``getr``/``getc``.  The cost is a few cycles per 256-bit item.

The functional model keeps a FIFO receive buffer per CPE per network.
Broadcast payloads are numpy arrays; the op count charged is one
register-communication instruction per 256 bits, which the timing model
and the ISA pipeline both consume.

Misuse that would hang or corrupt real hardware is turned into
:class:`~repro.errors.RegisterCommError`: receiving from an empty
buffer in a bulk-synchronous step, or leaving undrained data behind at
a barrier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import RegisterCommError
from repro.arch.mesh import Coord, CPEMesh
from repro.utils.stats import StatsProtocol

__all__ = ["Broadcast", "RegCommStats", "RegisterComm"]

#: bytes carried by one register-communication instruction (256 bits).
ITEM_BYTES = 32


@dataclass(frozen=True)
class Broadcast:
    """A delivered payload, tagged with its producer."""

    src: Coord
    data: np.ndarray

    @property
    def items(self) -> int:
        """Number of 256-bit register transfers this payload needed."""
        return max(1, -(-self.data.nbytes // ITEM_BYTES))


@dataclass
class RegCommStats(StatsProtocol):
    """Operation counters for the two mesh networks."""

    row_broadcasts: int = 0
    col_broadcasts: int = 0
    row_items: int = 0
    col_items: int = 0
    #: point-to-point sends (row + column networks).
    p2p_sends: int = 0
    p2p_items: int = 0
    bytes_moved: int = 0
    receives: int = 0

    def merge(self, other: "RegCommStats") -> None:
        self.row_broadcasts += other.row_broadcasts
        self.col_broadcasts += other.col_broadcasts
        self.row_items += other.row_items
        self.col_items += other.col_items
        self.p2p_sends += other.p2p_sends
        self.p2p_items += other.p2p_items
        self.bytes_moved += other.bytes_moved
        self.receives += other.receives

    def tally_broadcasts(
        self,
        *,
        row_broadcasts: int = 0,
        col_broadcasts: int = 0,
        row_nbytes: int = 0,
        col_nbytes: int = 0,
        fanout: int,
        receives: int,
    ) -> None:
        """Account broadcasts without pushing payloads through the FIFOs.

        The vectorized execution engine resolves every sharing step as
        an index gather, so no :class:`Broadcast` objects exist — this
        books the counters one ``row_broadcast``/``col_broadcast`` call
        per owner would have produced.  ``row_nbytes``/``col_nbytes``
        are per-payload sizes; ``fanout`` is receivers per broadcast
        (mesh side minus one).
        """
        self.row_broadcasts += row_broadcasts
        self.col_broadcasts += col_broadcasts
        self.row_items += row_broadcasts * max(1, -(-row_nbytes // ITEM_BYTES))
        self.col_items += col_broadcasts * max(1, -(-col_nbytes // ITEM_BYTES))
        self.bytes_moved += fanout * (
            row_broadcasts * row_nbytes + col_broadcasts * col_nbytes
        )
        self.receives += receives


class RegisterComm:
    """Row/column broadcast networks of one CPE cluster."""

    def __init__(self, mesh: CPEMesh) -> None:
        self.mesh = mesh
        self._row_buf: dict[Coord, deque[Broadcast]] = {
            c: deque() for c in mesh.coords()
        }
        self._col_buf: dict[Coord, deque[Broadcast]] = {
            c: deque() for c in mesh.coords()
        }
        self.stats = RegCommStats()

    # -- producing ----------------------------------------------------

    def row_broadcast(self, src: Coord, data: np.ndarray) -> None:
        """Broadcast ``data`` from ``src`` to every other CPE in its row.

        Payloads must be 256-bit-aligned in size, as ``vldr`` loads full
        registers (the B splat path pads a single f64 to a full register
        via ``lddec``, so callers splat before broadcasting).
        """
        src = self.mesh.check(src)
        payload = self._validated(data)
        bc = Broadcast(src, payload)
        for dst in self.mesh.row_members(src.row):
            if dst != src:
                self._row_buf[dst].append(bc)
        self.stats.row_broadcasts += 1
        self.stats.row_items += bc.items
        self.stats.bytes_moved += payload.nbytes * (self.mesh.cols - 1)

    def col_broadcast(self, src: Coord, data: np.ndarray) -> None:
        """Broadcast ``data`` from ``src`` to every other CPE in its column."""
        src = self.mesh.check(src)
        payload = self._validated(data)
        bc = Broadcast(src, payload)
        for dst in self.mesh.col_members(src.col):
            if dst != src:
                self._col_buf[dst].append(bc)
        self.stats.col_broadcasts += 1
        self.stats.col_items += bc.items
        self.stats.bytes_moved += payload.nbytes * (self.mesh.rows - 1)

    def send_row(self, src: Coord, dst_col: int, data: np.ndarray) -> None:
        """Point-to-point send to one CPE in the same row.

        The hardware's register communication also supports targeted
        sends within a row/column; the paper's DGEMM uses only
        broadcasts, but the Cannon ablation (A7) needs shifts.
        """
        src = self.mesh.check(src)
        dst = self.mesh.check(Coord(src.row, dst_col))
        if dst == src:
            raise RegisterCommError("a CPE cannot send to itself")
        payload = self._validated(data)
        bc = Broadcast(src, payload)
        self._row_buf[dst].append(bc)
        self.stats.p2p_sends += 1
        self.stats.p2p_items += bc.items
        self.stats.bytes_moved += payload.nbytes

    def send_col(self, src: Coord, dst_row: int, data: np.ndarray) -> None:
        """Point-to-point send to one CPE in the same column."""
        src = self.mesh.check(src)
        dst = self.mesh.check(Coord(dst_row, src.col))
        if dst == src:
            raise RegisterCommError("a CPE cannot send to itself")
        payload = self._validated(data)
        bc = Broadcast(src, payload)
        self._col_buf[dst].append(bc)
        self.stats.p2p_sends += 1
        self.stats.p2p_items += bc.items
        self.stats.bytes_moved += payload.nbytes

    @staticmethod
    def _validated(data: np.ndarray) -> np.ndarray:
        payload = np.ascontiguousarray(data, dtype=np.float64)
        if payload.nbytes == 0:
            raise RegisterCommError("cannot broadcast an empty payload")
        if payload.nbytes % ITEM_BYTES != 0:
            raise RegisterCommError(
                f"register communication moves 256-bit items; payload of "
                f"{payload.nbytes} B is not a multiple of {ITEM_BYTES} B "
                "(splat scalars to a full register first)"
            )
        return payload.copy()

    # -- consuming ----------------------------------------------------

    def receive_row(self, dst: Coord) -> Broadcast:
        """Pop the next row-network payload (``getr``)."""
        dst = self.mesh.check(dst)
        if not self._row_buf[dst]:
            raise RegisterCommError(
                f"getr on empty row receive buffer at CPE{dst} — "
                "producer/consumer mismatch would deadlock hardware"
            )
        self.stats.receives += 1
        return self._row_buf[dst].popleft()

    def receive_col(self, dst: Coord) -> Broadcast:
        """Pop the next column-network payload (``getc``)."""
        dst = self.mesh.check(dst)
        if not self._col_buf[dst]:
            raise RegisterCommError(
                f"getc on empty column receive buffer at CPE{dst} — "
                "producer/consumer mismatch would deadlock hardware"
            )
        self.stats.receives += 1
        return self._col_buf[dst].popleft()

    def pending(self, dst: Coord) -> tuple[int, int]:
        """(row, column) receive-buffer depths at ``dst``."""
        dst = self.mesh.check(dst)
        return len(self._row_buf[dst]), len(self._col_buf[dst])

    def flush(self) -> int:
        """Discard every undelivered broadcast; returns how many.

        Recovery hygiene, not protocol: an aborted run (an isolated
        item failure) can die between a broadcast and its drain, and
        the leftovers would trip the *next* run's barrier checks.
        Stats are untouched — the flushed data really was sent.
        Production code paths never need this; the bulk-synchronous
        protocol drains its own buffers (:meth:`assert_drained`
        enforces it).
        """
        dropped = 0
        for buf in (*self._row_buf.values(), *self._col_buf.values()):
            dropped += len(buf)
            buf.clear()
        return dropped

    def assert_drained(self) -> None:
        """Check every receive buffer is empty (call at barriers)."""
        leftovers = [
            (c, len(self._row_buf[c]), len(self._col_buf[c]))
            for c in self.mesh.coords()
            if self._row_buf[c] or self._col_buf[c]
        ]
        if leftovers:
            coord, nrow, ncol = leftovers[0]
            raise RegisterCommError(
                f"{len(leftovers)} CPEs reached a barrier with undrained "
                f"receive buffers (first: CPE{coord} row={nrow} col={ncol})"
            )

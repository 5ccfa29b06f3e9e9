"""Content-addressed LRU cache over completed request values.

The serving tier sees exact repeats — a client retrying a request
whose response it lost, the same weights applied to the same input
again — and the device model makes recomputation expensive on
purpose.  The cache keys on
:meth:`~repro.api.GemmRequest.content_hash` (operand *contents* plus
every compute attribute) together with the effective
:class:`~repro.api.SubmitOptions`, because the same operands on a
different engine are a different computation under the bit-exactness
contract.

Values are stored and returned as copies: a served response is the
caller's to mutate, and a cached entry must stay pristine.  A hit
therefore reports ``cache_hit=True`` with *zero* traffic — nothing
was staged, nothing moved — which keeps the per-request traffic sum
reconciling bit-exactly with ``Session.stats()``.

The kernel reads operands in place, some time after the request was
hashed, so the server stores a value only under the digest it was
computed from: a digest taken *before* the kernel ran (the one the
request was checked under) and one taken *after* must be equal.  A
caller that writes to its operands in between makes the two differ,
and its value is not stored.  The second digest is taken after the
response is delivered, before the cache check of any request admitted
after that response; a caller that puts the original content back
inside that gap can still leave the product of what the kernel read
under the original content's key (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.api import SubmitOptions

__all__ = ["OperandCache"]

#: cache key: (content hash, effective submit options).
CacheKey = tuple[str, SubmitOptions]


class OperandCache:
    """A bounded LRU of ``(content_hash, options) -> result array``.

    ``capacity == 0`` disables storage entirely (every probe misses).
    Thread-safe under one lock; the server only touches it from the
    event-loop thread, but the lock keeps direct (sync) use safe too.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[CacheKey, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: CacheKey) -> tuple[bool, np.ndarray | None]:
        """Probe the cache; returns ``(hit, copied_value_or_None)``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return True, self._entries[key].copy()
            self.misses += 1
            return False, None

    def put(self, key: CacheKey, value: np.ndarray) -> None:
        """Insert a value (copied in), evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value.copy()
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Flat numeric counters (a ready-made metrics source).

        Surfaced in the ``serve.cache.*`` namespace of
        :meth:`ReproServer.metrics_registry
        <repro.serve.server.ReproServer.metrics_registry>`, so cache
        effectiveness shows up in registry snapshots and the
        OpenMetrics exposition — not just server-internal state.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OperandCache({len(self)}/{self.capacity} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )

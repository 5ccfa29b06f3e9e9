"""Content-addressed LRU cache over completed request values.

The serving tier sees repeated operands constantly — the same weight
matrix multiplied against a stream of activations, the same trailing
shape re-factored — and the device model makes recomputation
expensive on purpose.  The cache keys on
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
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.api import SubmitOptions

__all__ = ["OperandCache"]

#: cache key: (content hash, effective submit options).
CacheKey = tuple[str, SubmitOptions]


def _copy_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.copy()
    return copy.deepcopy(value)


class OperandCache:
    """A bounded LRU of ``(content_hash, options) -> value``.

    ``capacity == 0`` disables storage entirely (every probe misses).
    Thread-safe under one lock; the server only touches it from the
    event-loop thread, but the lock keeps direct (sync) use safe too.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[CacheKey, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: CacheKey) -> tuple[bool, Any]:
        """Probe the cache; returns ``(hit, copied_value_or_None)``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return True, _copy_value(self._entries[key])
            self.misses += 1
            return False, None

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert a value (copied in), evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = _copy_value(value)
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

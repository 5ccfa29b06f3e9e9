"""One namespaced snapshot over the package's scattered counters.

Seven ``*Stats`` objects count different layers of the machine — DMA,
register communication, software cache, host staging, NoC, context
traffic, session totals.  They share the
:class:`~repro.utils.stats.StatsProtocol` arithmetic; this module gives
them one *address space*: flat, dot-namespaced counter names such as

- ``dma.pe_mode.bytes`` / ``dma.row_mode.bytes`` (per-mode traffic),
- ``regcomm.row_broadcasts``, ``regcomm.bytes_moved``,
- ``memory.allocations``, ``cache.hits``, ``noc.messages``,
- ``ctx.dma_bytes`` (per-context deltas), ``session.flops``.

:class:`MetricsRegistry` binds namespaces to live sources and produces
one merged snapshot dict; ``delta`` subtracts two snapshots.  The
``*_meter`` helpers build the zero-argument callables
:meth:`repro.obs.tracer.SpanTracer.span` attaches to spans.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from typing import Any

from repro.utils.stats import StatsProtocol

__all__ = [
    "MetricsRegistry",
    "cg_meter",
    "combine_meters",
    "context_meter",
    "flatten",
    "plan_cache_meter",
    "processor_meter",
    "session_meter",
    "snapshot_core_group",
]


#: memoized ``(prefix, key) -> flattened name`` strings.  The counter
#: name space is small and fixed per process, and a continuous sampler
#: flattens the same names hundreds of times a second — interning them
#: keeps per-sample cost to dict lookups instead of string building.
_NAMES: dict[tuple[str, str], str] = {}


def _flat_name(prefix: str, key: object) -> str:
    raw = key if isinstance(key, str) else str(key)
    name = _NAMES.get((prefix, raw))
    if name is None:
        lowered = raw.lower()
        name = f"{prefix}.{lowered}" if prefix else lowered
        _NAMES[(prefix, raw)] = name
    return name


def flatten(prefix: str, data: dict) -> dict:
    """Flatten a (possibly nested) dict into ``prefix.key`` counters.

    Nested dicts recurse with lowercased path components; non-numeric
    leaves are dropped (a snapshot is strictly numeric so deltas are
    always well-defined).
    """
    out: dict = {}
    for key, value in data.items():
        name = _flat_name(prefix, key)
        # exact-type fast path first: int/float leaves dominate every
        # snapshot and ``numbers.Number`` is an abc-machinery check.
        vt = type(value)
        if vt is int or vt is float:
            out[name] = value
        elif vt is dict or isinstance(value, dict):
            out.update(flatten(name, value))
        elif isinstance(value, numbers.Number) and not isinstance(value, bool):
            out[name] = value
    return out


def _as_mapping(stats: object) -> dict:
    # dict first: most registry sources are callables returning plain
    # dicts, and the StatsProtocol check walks the abc registry.
    if type(stats) is dict or isinstance(stats, dict):
        return stats
    if isinstance(stats, StatsProtocol):
        return stats.as_dict()
    raise TypeError(
        "metrics source must be a StatsProtocol or dict, got "
        f"{type(stats).__name__}"
    )


def _dma_dict(stats: Any) -> dict:
    """DMAStats with ``by_mode`` spelled as ``<mode>.bytes`` counters."""
    data = stats.as_dict()
    for mode, nbytes in data.pop("by_mode").items():
        data[f"{str(mode).lower()}.bytes"] = nbytes
    return data


class MetricsRegistry:
    """Named, namespaced counter sources with a merged snapshot/delta API.

    A *source* is either a live :class:`StatsProtocol` object (or plain
    dict) or a zero-argument callable returning one; callables are
    re-evaluated per snapshot, so sources that are rebuilt per call
    (``Session.stats()``) stay current.  An optional *adapter* reshapes
    the raw dict before flattening (used for ``DMAStats.by_mode``).
    """

    def __init__(self) -> None:
        self._sources: dict = {}

    def register(
        self,
        namespace: str,
        source: Any,
        adapter: Callable[[Any], dict] | None = None,
    ) -> "MetricsRegistry":
        """Bind ``namespace`` to a source; returns self for chaining."""
        namespace = str(namespace)
        if namespace in self._sources:
            raise ValueError(f"namespace {namespace!r} is already registered")
        self._sources[namespace] = (source, adapter)
        return self

    @property
    def namespaces(self) -> tuple[str, ...]:
        return tuple(self._sources)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Adopt every source of ``other`` (namespace collisions raise)."""
        for namespace, (source, adapter) in other._sources.items():
            self.register(namespace, source, adapter)
        return self

    def snapshot(self) -> dict:
        """One flat ``{namespaced_counter: number}`` view of every source."""
        merged: dict = {}
        for namespace, (source, adapter) in self._sources.items():
            stats = source() if callable(source) else source
            data = adapter(stats) if adapter is not None else _as_mapping(stats)
            merged.update(flatten(namespace, data))
        return merged

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        """Counter deltas between two snapshots (missing keys count 0)."""
        keys = set(after) | set(before)
        return {k: after.get(k, 0) - before.get(k, 0) for k in keys}

    def meter(self) -> Callable[[], dict]:
        """This registry as a span meter (see :meth:`SpanTracer.span`)."""
        return self.snapshot

    # -- canonical bindings -------------------------------------------

    @classmethod
    def for_core_group(cls, cg: Any, prefix: str = "") -> "MetricsRegistry":
        """DMA + register-communication + staging counters of one CG."""
        dot = f"{prefix}." if prefix else ""
        registry = cls()
        registry.register(f"{dot}dma", cg.dma.stats, adapter=_dma_dict)
        registry.register(f"{dot}regcomm", cg.regcomm.stats)
        registry.register(f"{dot}memory", cg.memory.stats)
        return registry

    @classmethod
    def for_processor(cls, processor: Any) -> "MetricsRegistry":
        """Every CG's counters (``cg0.dma...``) plus the NoC's."""
        registry = cls()
        for index, cg in enumerate(processor.core_groups):
            sub = cls.for_core_group(cg, prefix=f"cg{index}")
            for namespace, (source, adapter) in sub._sources.items():
                registry.register(namespace, source, adapter)
        registry.register("noc", processor.noc.stats)
        return registry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({', '.join(self._sources) or 'empty'})"


def snapshot_core_group(cg: Any) -> dict:
    """Flat ``dma.* / regcomm.* / memory.*`` snapshot of one core group."""
    out = flatten("dma", _dma_dict(cg.dma.stats))
    out.update(flatten("regcomm", cg.regcomm.stats.as_dict()))
    out.update(flatten("memory", cg.memory.stats.as_dict()))
    return out


def cg_meter(cg: Any) -> Callable[[], dict]:
    """Span meter over one core group's device counters."""
    return lambda: snapshot_core_group(cg)


def context_meter(ctx: Any) -> Callable[[], dict]:
    """Span meter over one execution context's traffic deltas.

    Metered per span, the difference of two ``ctx.stats()`` reads is
    the span's exact :class:`~repro.core.context.ContextStats` — summing
    every ``dgemm`` span therefore reconciles bit-exactly with
    ``Session.stats().traffic``.
    """
    return lambda: flatten("ctx", ctx.stats().as_dict())


def processor_meter(processor: Any) -> Callable[[], dict]:
    """Span meter over a whole chip (all four CGs plus the NoC)."""
    return MetricsRegistry.for_processor(processor).meter()


def session_meter(session: Any) -> Callable[[], dict]:
    """Span meter over a session's cumulative accounting."""
    return lambda: flatten("session", session.stats().as_dict())


def plan_cache_meter(cache: Any) -> Callable[[], dict]:
    """Span meter over a plan cache's counters (``plan.cache.*``).

    Attached to ``dgemm`` spans alongside the context meter, so a
    span's delta shows whether the call hit a warm plan
    (``plan.cache.hits`` +1) or compiled one (``plan.cache.builds``
    +1, with the build time under its own ``plan.build`` span).
    ``cache.stats()`` reads are lock-held snapshots, safe under
    parallel CG workers.
    """
    return lambda: flatten("plan.cache", cache.stats().as_dict())


def combine_meters(*meters: Callable[[], dict]) -> Callable[[], dict]:
    """Merge several span meters into one (later meters win on collisions)."""

    def merged() -> dict:
        out: dict = {}
        for meter in meters:
            out.update(meter())
        return out

    return merged

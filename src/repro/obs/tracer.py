"""Nestable wall-clock spans with attached counter deltas.

The paper's analysis lives and dies on *attribution*: Sec III-C prices
DMA strip loads against register broadcasts against kernel flops, and
Fig. 6 explains each variant's gain by where its time went.  The
runtime counters (:class:`~repro.arch.dma.DMAStats` and friends) say
*how much* moved in total; a :class:`SpanTracer` says *when* and *under
which phase*:

    tracer = SpanTracer()
    with Session(tracer=tracer) as s:
        s.batch(items)
    chrome_trace(tracer.spans, "trace.json")     # load in Perfetto

Every entry point takes ``tracer=None`` and defaults to
:data:`NULL_TRACER`, whose ``span()`` hands back one shared no-op
context manager — tracing off costs two dictionary-free function calls
per span site, which keeps the untraced hot path within its <=2%
overhead budget (enforced relative to ``bench_engine --smoke``).

A span records its wall time via :func:`time.perf_counter` and, when
given a ``meter`` (a zero-argument callable returning a flat
``{counter_name: number}`` dict, see :mod:`repro.obs.registry`), the
counter *deltas* across its body.  Spans nest: the tracer keeps one
open-span stack *per thread*, so exporters can reconstruct the tree
(``session.batch`` → ``cg_dispatch`` → ``dgemm`` →
``stage_A``/``stage_B``/``strip_mult``/``store_C``) even when the
scheduler dispatches core groups on worker threads.

Thread model
------------

The closed-span list and the span index counter are shared (guarded by
one lock, so ``index`` stays a global opening order), while the
open-span stack is thread-local: spans opened on different threads
never see each other as parents.  A worker thread's first span would
therefore be a root — unless the code that hands work to the thread
captures the spawning thread's current span (:meth:`SpanTracer.current`)
and passes it as ``parent=`` when opening spans on the worker, which is
exactly what the parallel scheduler does so every ``cg_dispatch``
subtree stays attached to its ``session.batch``.  Track inheritance
follows the same rule, so CG-pinned subtrees still render one row per
core group in the Chrome trace.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter
from types import TracebackType

#: a span meter: zero-argument callable returning flat numeric counters.
Meter = Callable[[], dict]

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanTracer",
    "TraceSpan",
    "ensure_tracer",
]


@dataclass(frozen=True)
class TraceSpan:
    """One closed span: a named interval with attributes and deltas."""

    #: phase name, e.g. ``"dgemm"`` or ``"stage_A"``.
    name: str
    #: coarse category for trace viewers (``"session"``, ``"stage"``, ...).
    cat: str
    #: start/end on the tracer's clock (:func:`time.perf_counter` seconds).
    start: float
    end: float
    #: position in the span tree.
    index: int
    parent: int | None
    depth: int
    #: trace track (Chrome ``tid``); CG-bound spans use the CG index.
    track: int
    #: free-form labels attached at the call site (shape, variant, ...).
    attrs: dict = field(default_factory=dict)
    #: metered counter deltas over the span body (empty without a meter).
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """The shared do-nothing context manager of :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every ``span()`` is the same no-op.

    Stateless and safe to share — :data:`NULL_TRACER` is the module
    singleton every ``tracer=None`` entry point resolves to.
    """

    enabled = False

    def span(
        self,
        name: str,
        cat: str = "span",
        meter: Meter | None = None,
        track: int | None = None,
        parent: "object | None" = None,
        **attrs: object,
    ) -> "_NullSpan":
        return _NULL_SPAN

    def current(self) -> None:
        """No open spans on the no-op tracer, on any thread."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


NULL_TRACER = NullTracer()


def ensure_tracer(tracer: SpanTracer | NullTracer | None) -> SpanTracer | NullTracer:
    """Resolve a ``tracer=`` keyword: ``None`` means tracing off."""
    return NULL_TRACER if tracer is None else tracer


class _OpenSpan:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = (
        "tracer",
        "name",
        "cat",
        "meter",
        "track",
        "attrs",
        "explicit_parent",
        "index",
        "parent",
        "depth",
        "start",
        "before",
    )

    index: int
    parent: int | None
    depth: int
    start: float
    before: dict | None

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        cat: str,
        meter: Meter | None,
        track: int | None,
        parent: "_OpenSpan | None",
        attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.meter = meter
        self.track = track
        self.explicit_parent = parent
        self.attrs = attrs

    def __enter__(self) -> "_OpenSpan":
        tracer = self.tracer
        stack = tracer._thread_stack()
        # this thread's enclosing span wins; ``parent=`` only adopts a
        # cross-thread parent when the local stack is empty (a worker
        # thread's first span).
        top = stack[-1] if stack else self.explicit_parent
        if top is not None:
            self.parent = top.index
            self.depth = top.depth + 1
            if self.track is None:
                self.track = top.track
        else:
            self.parent = None
            self.depth = 0
            if self.track is None:
                self.track = 0
        # read the meter *before* pushing onto the stack: a meter that
        # raises here must not leave a phantom open span behind to
        # mis-parent every later span on this thread.
        self.before = self.meter() if self.meter is not None else None
        with tracer._lock:
            self.index = tracer._next_index
            tracer._next_index += 1
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        end = perf_counter()
        tracer = self.tracer
        counters: dict = {}
        try:
            before = self.before
            if self.meter is not None and before is not None:
                after = self.meter()
                # union of keys: a counter present before but dropped
                # from the after-snapshot still contributes its final
                # delta (as 0 - before would lose it entirely).
                keys = list(after) + [k for k in before if k not in after]
                counters = {k: after.get(k, 0) - before.get(k, 0) for k in keys}
        finally:
            # the stack pop and the span record are unconditional: a
            # meter raising on exit must not leave the span open.
            stack = tracer._thread_stack()
            top = stack.pop() if stack else None
            if top is not self:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"span {self.name!r} closed out of order "
                    f"(found {top.name if top else None!r})"
                )
            attrs = self.attrs
            if exc_type is not None:
                # mark spans closed by an in-flight exception so the
                # trace shows *where* a run aborted.
                attrs = dict(attrs)
                attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
            record = TraceSpan(
                name=self.name,
                cat=self.cat,
                start=self.start,
                end=end,
                index=self.index,
                parent=self.parent,
                depth=self.depth,
                track=self.track or 0,
                attrs=attrs,
                counters=counters,
            )
            with tracer._lock:
                tracer.spans.append(record)
        return False


class SpanTracer:
    """Collects :class:`TraceSpan` records from nested ``span()`` scopes.

    Spans are appended in *closing* order (children before parents);
    ``index`` restores opening order and ``parent`` the tree.  The
    tracer is thread-aware: each thread nests spans on its own
    open-span stack (strictly nested per thread — closing out of order
    raises), while the closed-span list and the index counter are
    shared under one lock so the merged record is a single, globally
    ordered span list.  Cross-thread subtrees attach via the
    ``parent=`` keyword (see the module docstring).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[TraceSpan] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_index = 0
        # counter_totals() memo: phase name -> (spans consumed, totals).
        # The span list is append-only, so totals accumulate
        # incrementally instead of rescanning history — a sampler
        # attached to a server's registry polls totals every few
        # milliseconds, and a full rescan would grow without bound.
        self._totals_cache: dict[str | None, tuple[int, dict]] = {}

    def _thread_stack(self) -> list[_OpenSpan]:
        stack: list[_OpenSpan] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> _OpenSpan | None:
        """This thread's innermost open span (``None`` outside any span).

        Capture it before handing work to another thread and pass it as
        ``span(..., parent=...)`` there, so the worker's spans join this
        thread's subtree instead of becoming orphan roots.
        """
        stack = self._thread_stack()
        return stack[-1] if stack else None

    def span(
        self,
        name: str,
        cat: str = "span",
        meter: Meter | None = None,
        track: int | None = None,
        parent: _OpenSpan | None = None,
        **attrs: object,
    ) -> _OpenSpan:
        """Open a nested span; use as ``with tracer.span("dgemm"): ...``.

        ``meter`` is a zero-argument callable returning a flat numeric
        dict; the span stores ``after - before`` per counter.  ``track``
        pins the span to a Chrome-trace track (defaults to the parent's
        track, or 0 at the root).  ``parent`` adopts an open span from
        another thread as this span's parent when this thread's own
        stack is empty; it is ignored inside an enclosing span.
        """
        return _OpenSpan(self, name, cat, meter, track, parent, attrs)

    # -- aggregate views ----------------------------------------------

    def by_name(self, name: str) -> list[TraceSpan]:
        """All closed spans with this phase name, in closing order."""
        return [s for s in self.spans if s.name == name]

    def total_seconds(self, name: str) -> float:
        """Summed duration of a phase (overlapping nesting counts twice)."""
        return sum(s.duration for s in self.spans if s.name == name)

    def counter_totals(self, name: str | None = None) -> dict:
        """Sum of counter deltas over spans (optionally one phase only).

        Summing one tree level (e.g. every ``dgemm`` span) reconciles
        exactly with the cumulative runtime counters — the property the
        trace tests assert against ``Session.stats()``.
        """
        with self._lock:
            n = len(self.spans)
            seen, totals = self._totals_cache.get(name, (0, {}))
            if seen < n:
                totals = dict(totals)
                for span in self.spans[seen:n]:
                    if name is not None and span.name != name:
                        continue
                    for key, value in span.counters.items():
                        totals[key] = totals.get(key, 0) + value
                self._totals_cache[name] = (n, totals)
        return dict(totals)

    def roots(self) -> list[TraceSpan]:
        """Top-level spans in opening order."""
        return sorted(
            (s for s in self.spans if s.parent is None),
            key=lambda s: s.index,
        )

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        open_spans = len(self._thread_stack())
        return f"SpanTracer({len(self.spans)} spans, {open_spans} open)"

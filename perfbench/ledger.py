"""Self time per layer from closed spans, with the union rule.

A span's self time is its duration minus the *union* of its
children's intervals, clipped to the span.  Subtracting the plain sum
is wrong as soon as children overlap: the CG worker threads of one
``session.batch`` run their ``cg_dispatch`` subtrees side by side, so
the summed child time exceeds the parent's own wall time.

Spans are read duck-typed (``name``, ``start``, ``end``, ``index``,
``parent``), which is what :class:`repro.obs.tracer.TraceSpan` carries.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

#: program span name -> the per-layer metric its self time is booked to.
#: ``bench.session`` is the benchmark's own span around the public
#: ``Session`` call; every other name is emitted by the program.
LAYER_OF_SPAN = {
    "bench.session": "session.self_ms",
    "session.batch": "sched.self_ms",
    "cg_dispatch": "sched.self_ms",
    "dgemm": "engine.dgemm_self_ms",
    "kernel": "engine.kernel_ms",
    "strip_mult": "engine.kernel_ms",
    "stage_A": "context.stage_a_ms",
    "stage_B": "context.stage_b_ms",
    "stage_C": "context.stage_c_ms",
    "store_C": "context.store_c_ms",
}


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if lo >= reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: Sequence) -> dict[int, float]:
    """Span index -> duration minus the union of its children's intervals."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.index]
        )
        out[span.index] = (span.end - span.start) - covered
    return out


def layer_seconds(spans: Sequence) -> dict[str, float]:
    """Summed self seconds per layer metric (unmapped names are skipped)."""
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = LAYER_OF_SPAN.get(span.name)
        if layer is not None:
            totals[layer] += selfs[span.index]
    return dict(totals)


def residue_ratio(spans: Sequence, root_name: str = "bench.session") -> float:
    """Share of the root spans' wall that no program span covers.

    Each ``root_name`` span is one op's wall; the program's spans under
    it (on any thread) claim the union of their intervals.  What is
    left is time inside the public entry point that no layer's span
    accounts for.
    """
    by_index = {s.index: s for s in spans}

    def root_of(span):
        while span.parent is not None and span.parent in by_index:
            span = by_index[span.parent]
        return span

    covered: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.name == root_name:
            continue
        root = root_of(span)
        if root.name == root_name:
            covered[root.index].append(
                (max(span.start, root.start), min(span.end, root.end))
            )
    roots = [s for s in spans if s.name == root_name]
    wall = sum(s.end - s.start for s in roots)
    if wall <= 0:
        return 0.0
    claimed = sum(union_length(covered[r.index]) for r in roots)
    return 1.0 - claimed / wall


def load_balance(spans: Sequence, n_core_groups: int) -> float:
    """Mean modeled load balance of the traced ``session.batch`` spans.

    Per batch: the modeled seconds its ``cg_dispatch`` children carry,
    summed per CG, as ``total / (n_core_groups * busiest CG)`` — the
    same figure ``ScheduleResult.load_balance_efficiency`` reports.
    """
    per_batch: dict[int, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.name == "cg_dispatch" and span.parent is not None:
            cg = int(span.attrs.get("cg", 0))
            per_batch[span.parent][cg] += float(span.attrs.get("modeled_seconds", 0.0))
    ratios = []
    for loads in per_batch.values():
        busiest = max(loads.values())
        if busiest > 0:
            ratios.append(sum(loads.values()) / (n_core_groups * busiest))
    return sum(ratios) / len(ratios) if ratios else 0.0

"""Property: the trace is a lossless decomposition of the accounting.

For any batch shape mix, pool size, and scalar/batch call interleaving,
summing the counter deltas of every ``dgemm`` span must reproduce
``Session.stats().traffic`` bit-exactly — no byte is double-counted or
dropped when total traffic is attributed span by span.  The span tree
must also stay strictly nested (the invariant every exporter assumes).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api import GemmRequest
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.obs import SpanTracer

PARAMS = BlockingParams.small(double_buffered=True)

_DIMS = st.sampled_from([24, 64, 100])


@st.composite
def batch_items(draw):
    m, n, k = draw(_DIMS), draw(_DIMS), draw(_DIMS)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    beta = draw(st.sampled_from([0.0, 1.0]))
    return GemmRequest(
        rng.standard_normal((m, k)),
        rng.standard_normal((k, n)),
        rng.standard_normal((m, n)) if beta else None,
        beta=beta,
    )


@settings(max_examples=8, deadline=None)
@given(
    items=st.lists(batch_items(), min_size=1, max_size=5),
    pool=st.integers(1, 4),
    scalar_calls=st.integers(0, 2),
)
def test_dgemm_span_deltas_reconcile_with_session_stats(
    items, pool, scalar_calls
):
    tracer = SpanTracer()
    with Session(params=PARAMS, n_core_groups=pool, tracer=tracer) as s:
        rng = np.random.default_rng(5)
        for _ in range(scalar_calls):
            s.dgemm(rng.standard_normal((24, 64)),
                    rng.standard_normal((64, 24)))
        result = s.batch(items)
        assert not result.errors
        totals = s.stats().traffic.as_dict()

    deltas = tracer.counter_totals("dgemm")
    assert len(tracer.by_name("dgemm")) == len(items) + scalar_calls
    for field, total in totals.items():
        assert deltas.get(f"ctx.{field}", 0) == total, field
    # and, beyond the expected plan-cache counters, nothing outside
    # the ctx namespace leaks into these spans
    extra = {key for key in deltas if not key.startswith("plan.cache.")}
    assert extra <= {f"ctx.{field}" for field in totals}


@settings(max_examples=8, deadline=None)
@given(items=st.lists(batch_items(), min_size=1, max_size=4),
       pool=st.integers(1, 3))
def test_span_tree_is_strictly_nested(items, pool):
    tracer = SpanTracer()
    with Session(params=PARAMS, n_core_groups=pool, tracer=tracer) as s:
        s.batch(items)

    assert tracer.current() is None  # every span closed
    by_index = {s.index: s for s in tracer.spans}
    assert sorted(by_index) == list(range(len(tracer.spans)))
    for span in tracer.spans:
        if span.parent is None:
            assert span.depth == 0
            continue
        parent = by_index[span.parent]
        assert span.depth == parent.depth + 1
        assert parent.start <= span.start
        assert span.end <= parent.end
        assert parent.index < span.index

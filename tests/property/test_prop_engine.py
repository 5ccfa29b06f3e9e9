"""Property tests: the vectorized engine is the device engine, faster.

Randomized shapes (exact block multiples and padded), alpha/beta,
trans flags and variants; each example runs the same call on both
engines with fresh core groups and asserts

- results agree to the library comparison tolerance
  (``rtol=1e-12 / atol=1e-9``, the bar ``dgemm(check=True)`` applies) —
  and bit-for-bit for the stepwise formulation at the 16-deep tiles of
  ``BlockingParams.small`` (one deterministic test pins what holds at
  the paper's 96-deep blocking);
- the context staging accounting and the device's DMA and
  register-communication counters are *identical*, field by field.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.context import ExecutionContext
from repro.core.engine.plans import PlanCache
from repro.core.engine.vectorized import StepwiseEngine
from repro.core.params import BlockingParams
from repro.core.variants import get_variant
from repro.workloads.matrices import gemm_operands

SINGLE = BlockingParams.small(double_buffered=False)
DOUBLE = BlockingParams.small(double_buffered=True)

scalars = st.floats(-4.0, 4.0).map(lambda x: round(x, 3))
grids = st.integers(1, 2)
trans = st.sampled_from(["N", "T"])


def _params_for(variant):
    return SINGLE if variant in ("PE", "ROW") else DOUBLE


def _dma_stats(cg: CoreGroup) -> dict:
    d = cg.dma.stats
    return {
        "gets": d.gets, "puts": d.puts,
        "bytes_get": d.bytes_get, "bytes_put": d.bytes_put,
        "transactions": d.transactions, "by_mode": dict(d.by_mode),
    }


def _regcomm_stats(cg: CoreGroup) -> dict:
    r = cg.regcomm.stats
    return {
        "row_broadcasts": r.row_broadcasts, "col_broadcasts": r.col_broadcasts,
        "row_items": r.row_items, "col_items": r.col_items,
        "bytes_moved": r.bytes_moved, "receives": r.receives,
    }


def _run(engine, variant, params, a, b, c, alpha, beta, transa="N",
         transb="N", pad=False, plan_cache=None):
    """One dgemm on a fresh device; returns (result, ctx delta, stats)."""
    cg = CoreGroup()
    ctx = ExecutionContext(cg)
    with ctx:
        out = dgemm(
            a, b, c, alpha=alpha, beta=beta, transa=transa, transb=transb,
            variant=variant, engine=engine, params=params,
            context=ctx, pad=pad, plan_cache=plan_cache,
        )
        delta = ctx.stats()
    return out, delta, (_dma_stats(cg), _regcomm_stats(cg))


def _assert_equivalent(variant, params, a, b, c, alpha, beta,
                       transa="N", transb="N", pad=False):
    dev, dev_delta, dev_stats = _run(
        "device", variant, params, a, b, c, alpha, beta, transa, transb, pad)
    vec, vec_delta, vec_stats = _run(
        "vectorized", variant, params, a, b, c, alpha, beta, transa, transb, pad)
    assert np.allclose(vec, dev, rtol=1e-12, atol=1e-9), (
        f"{variant}: max abs err {np.max(np.abs(vec - dev)):.3e}"
    )
    assert vec_delta == dev_delta, f"{variant}: ContextStats differ"
    assert vec_stats == dev_stats, f"{variant}: device counters differ"


@settings(max_examples=10, deadline=None)
@given(
    variant=st.sampled_from(["PE", "ROW", "DB", "SCHED"]),
    alpha=scalars, beta=scalars, gm=grids, gn=grids, gk=grids,
    seed=st.integers(0, 2**16),
)
def test_engines_agree_exact_shapes(variant, alpha, beta, gm, gn, gk, seed):
    p = _params_for(variant)
    m, n, k = gm * p.b_m, gn * p.b_n, gk * p.b_k
    a, b, c = gemm_operands(m, n, k, seed=seed)
    _assert_equivalent(variant, p, a, b, c, alpha, beta)


@settings(max_examples=8, deadline=None)
@given(
    variant=st.sampled_from(["PE", "ROW", "DB", "SCHED"]),
    alpha=scalars, beta=scalars,
    dm=st.integers(1, 16), dn=st.integers(1, 8), dk=st.integers(1, 16),
    transa=trans, transb=trans, seed=st.integers(0, 2**16),
)
def test_engines_agree_padded_and_transposed(
    variant, alpha, beta, dm, dn, dk, transa, transb, seed
):
    p = _params_for(variant)
    m, n, k = p.b_m - dm, p.b_n - dn, p.b_k - dk
    a, b, c = gemm_operands(m, n, k, seed=seed)
    if transa == "T":
        a = np.asfortranarray(a.T)
    if transb == "T":
        b = np.asfortranarray(b.T)
    _assert_equivalent(variant, p, a, b, c, alpha, beta,
                       transa=transa, transb=transb, pad=True)


@settings(max_examples=6, deadline=None)
@given(alpha=scalars, beta=scalars, seed=st.integers(0, 2**16))
def test_engines_agree_raw(alpha, beta, seed):
    m, n, k = 128, 64, 96
    a, b, c = gemm_operands(m, n, k, seed=seed)
    _assert_equivalent("RAW", None, a, b, c, alpha, beta)


@settings(max_examples=6, deadline=None)
@given(
    variant=st.sampled_from(["PE", "ROW", "DB", "SCHED"]),
    alpha=scalars, beta=scalars, seed=st.integers(0, 2**16),
)
def test_stepwise_mode_is_bitwise_identical(variant, alpha, beta, seed):
    """The literal stacked-tile formulation performs the device's exact
    arithmetic in the device's exact order — not just close, equal."""
    p = _params_for(variant)
    m, n, k = p.b_m, p.b_n, 2 * p.b_k
    a, b, c = gemm_operands(m, n, k, seed=seed)
    dev, dev_delta, dev_stats = _run(
        "device", variant, p, a, b, c, alpha, beta)
    step, step_delta, step_stats = _run(
        StepwiseEngine(), variant, p, a, b, c, alpha, beta)
    assert np.array_equal(step, dev)
    assert step_delta == dev_delta
    assert step_stats == dev_stats


@settings(max_examples=8, deadline=None)
@given(
    variant=st.sampled_from(["RAW", "PE", "ROW", "DB", "SCHED"]),
    alpha=scalars, beta=scalars, seed=st.integers(0, 2**16),
)
def test_warm_plan_stepwise_is_bitwise_identical(variant, alpha, beta, seed):
    """A warm-cache stepwise run equals the cold-cache run and the
    device engine — results bit for bit, DMA and regcomm counters field
    by field.  (RAW has no shared plan; the stepwise engine still
    serves it, building nothing.)"""
    if variant == "RAW":
        p, (m, n, k) = None, (128, 64, 96)
    else:
        p = _params_for(variant)
        m, n, k = p.b_m, p.b_n, 2 * p.b_k
    a, b, c = gemm_operands(m, n, k, seed=seed)
    cache = PlanCache(n_core_groups=1)
    cold = _run(StepwiseEngine(), variant, p, a, b, c, alpha, beta,
                plan_cache=cache)
    warm = _run(StepwiseEngine(), variant, p, a, b, c, alpha, beta,
                plan_cache=cache)
    dev = _run("device", variant, p, a, b, c, alpha, beta)
    for other in (cold, dev):
        assert np.array_equal(warm[0], other[0])
        assert warm[1] == other[1]          # ContextStats delta
        assert warm[2] == other[2]          # DMA + regcomm counters
    stats = cache.stats()
    if variant == "RAW":
        assert stats.builds == 0 and stats.hits == 0
    else:
        # the regression the plan cache exists to fix: one build per
        # signature, every repeat a hit.
        assert stats.builds == 1
        assert stats.hits == 1


@pytest.mark.parametrize("variant", ["SCHED", "PE"])
def test_stepwise_contract_at_paper_blocking(variant):
    """At the paper's blocking (96-deep tiles) the planned stepwise path
    matches the device engine only to the comparison tolerance: the
    device's LDM tiles are Fortran-ordered, and BLAS rounds a 96-deep
    product differently by operand memory order.  Traffic stays
    identical."""
    p = get_variant(variant).default_params()
    # one CG block: SCHED 128x256x768, PE 128x384x768
    a, b, c = gemm_operands(p.b_m, p.b_n, p.b_k, seed=11)
    planned = _run(StepwiseEngine(), variant, p, a, b, c, 1.5, -0.5)
    dev = _run("device", variant, p, a, b, c, 1.5, -0.5)
    np.testing.assert_allclose(planned[0], dev[0], rtol=1e-12, atol=1e-9)
    assert planned[1] == dev[1]          # ContextStats delta
    assert planned[2] == dev[2]          # DMA + regcomm counters

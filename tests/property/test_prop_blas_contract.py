"""Property: every engine meets the one engine contract of ``repro.core.engine``.

Each example runs the same ``dgemm`` call on ``device``, ``vectorized``
and ``stepwise`` with fresh core groups, crossing variant x ``pad`` x
``transa``/``transb`` with ``alpha``/``beta`` drawn from {0, +-1,
random} at ``BlockingParams.small``, and asserts

- every output lies componentwise within
  ``k*eps*(|alpha|*|A||B| + |beta|*|C|)`` of ``reference_dgemm``
  (:func:`repro.core.reference.contract_bound`);
- the DMA and register-communication counters are identical across
  the three engines, field by field.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.reference import contract_bound, reference_dgemm
from repro.core.variants import get_variant
from repro.workloads.matrices import gemm_operands

ENGINES = ("device", "vectorized", "stepwise")
SINGLE = BlockingParams.small(double_buffered=False)
DOUBLE = BlockingParams.small(double_buffered=True)

scalars = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0]),
    st.floats(-4.0, 4.0).map(lambda x: round(x, 3)),
)


def _params_for(variant):
    return DOUBLE if get_variant(variant).traits.double_buffered else SINGLE


def _run(engine, variant, params, a, b, c, alpha, beta, transa, transb, pad):
    """One dgemm on a fresh device; returns (result, traffic counters)."""
    cg = CoreGroup()
    out = dgemm(a, b, c, alpha=alpha, beta=beta, transa=transa,
                transb=transb, variant=variant, engine=engine,
                params=params, core_group=cg, pad=pad)
    return out, (cg.dma.stats.as_dict(), cg.regcomm.stats.as_dict())


def _assert_contract(variant, params, op_a, op_b, c, alpha, beta,
                     transa="N", transb="N", pad=False):
    """Every engine within the bound of the reference; stats identical."""
    a = np.asfortranarray(op_a.T) if transa == "T" else op_a
    b = np.asfortranarray(op_b.T) if transb == "T" else op_b
    expected = reference_dgemm(alpha, op_a, op_b, beta, c)
    bound = contract_bound(alpha, op_a, op_b, beta, c)
    stats = {}
    for engine in ENGINES:
        out, stats[engine] = _run(engine, variant, params, a, b, c,
                                  alpha, beta, transa, transb, pad)
        err = np.abs(out - expected)
        assert (err <= bound).all(), (
            f"{engine}/{variant}: max error/bound "
            f"{np.max(err / np.where(bound > 0, bound, np.inf)):.3g}"
        )
    assert stats["vectorized"] == stats["device"], variant
    assert stats["stepwise"] == stats["device"], variant


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(["RAW", "PE", "ROW", "DB", "SCHED"]),
    pad=st.booleans(),
    transa=st.sampled_from(["N", "T"]),
    transb=st.sampled_from(["N", "T"]),
    alpha=scalars,
    beta=scalars,
    grid=st.tuples(*(st.integers(1, 2),) * 3),
    trim=st.tuples(st.integers(1, 16), st.integers(1, 8), st.integers(1, 16)),
    seed=st.integers(0, 2**16),
)
def test_every_engine_meets_the_contract(variant, pad, transa, transb, alpha,
                                         beta, grid, trim, seed):
    p = _params_for(variant)
    m, n, k = (g * f for g, f in zip(grid, (p.b_m, p.b_n, p.b_k)))
    if pad:
        m, n, k = m - trim[0], n - trim[1], k - trim[2]
    a, b, c = gemm_operands(m, n, k, seed=seed)
    _assert_contract(variant, p, a, b, c, alpha, beta, transa, transb, pad)


@pytest.mark.parametrize("variant", ["PE", "SCHED"])
def test_contract_at_paper_blocking(variant):
    """At the paper's 96-deep tiles no two engines agree bit for bit,
    and the contract is what they share."""
    p = get_variant(variant).default_params()
    a, b, c = gemm_operands(p.b_m, p.b_n, p.b_k, seed=13)
    _assert_contract(variant, p, a, b, c, -1.5, 0.75)

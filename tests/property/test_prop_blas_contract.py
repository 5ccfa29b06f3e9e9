"""Property: every engine meets the one engine contract of ``repro.core.engine``.

Each example runs the same ``dgemm`` call on ``device``, ``vectorized``
and ``stepwise`` with fresh core groups, crossing variant x ``pad`` x
``transa``/``transb`` with ``alpha``/``beta`` drawn from {0, +-1,
random} at ``BlockingParams.small``, and asserts

- every output meets :func:`repro.core.reference.contract_violation`:
  NaN and +-Inf exactly where ``reference_dgemm`` has them (the
  special-value draws place them in A, B and C), every other entry
  componentwise within ``k*eps*(|alpha|*|A||B| + |beta|*|C|)``;
- the DMA and register-communication counters are identical across
  the three engines, field by field.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.reference import contract_violation
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
    """Every engine meets the contract of the reference; stats identical."""
    a = np.asfortranarray(op_a.T) if transa == "T" else op_a
    b = np.asfortranarray(op_b.T) if transb == "T" else op_b
    stats = {}
    for engine in ENGINES:
        out, stats[engine] = _run(engine, variant, params, a, b, c,
                                  alpha, beta, transa, transb, pad)
        violation = contract_violation(out, alpha, op_a, op_b, beta, c)
        assert violation is None, f"{engine}/{variant}: {violation}"
    assert stats["vectorized"] == stats["device"], variant
    assert stats["stepwise"] == stats["device"], variant


def _shape(variant, grid, trim, pad):
    p = _params_for(variant)
    m, n, k = (g * f for g, f in zip(grid, (p.b_m, p.b_n, p.b_k)))
    if pad:
        m, n, k = m - trim[0], n - trim[1], k - trim[2]
    return p, m, n, k


calls = dict(
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

#: (operand, row, column, value) placements; row and column wrap
#: modulo the operand's shape.
specials = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(0, 2**16),
              st.integers(0, 2**16),
              st.sampled_from([np.nan, np.inf, -np.inf])),
    min_size=1, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(**calls)
def test_every_engine_meets_the_contract(variant, pad, transa, transb, alpha,
                                         beta, grid, trim, seed):
    p, m, n, k = _shape(variant, grid, trim, pad)
    a, b, c = gemm_operands(m, n, k, seed=seed)
    _assert_contract(variant, p, a, b, c, alpha, beta, transa, transb, pad)


# Inf * 0 and Inf - Inf are the point of these draws, not a defect.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(placements=specials, **calls)
def test_special_values_propagate_exactly(placements, variant, pad, transa,
                                          transb, alpha, beta, grid, trim,
                                          seed):
    """NaN and +-Inf in A, B or C land exactly where the reference puts
    them: a NaN row or column, Inf*0 as NaN, Inf signs kept, nothing
    leaking from an operand that ``alpha == 0`` or ``beta == 0`` skips."""
    p, m, n, k = _shape(variant, grid, trim, pad)
    operands = dict(zip("abc", gemm_operands(m, n, k, seed=seed)))
    for name, row, col, value in placements:
        rows, cols = operands[name].shape
        operands[name][row % rows, col % cols] = value
    _assert_contract(variant, p, *operands.values(), alpha, beta, transa,
                     transb, pad)


@pytest.mark.parametrize("variant", ["PE", "SCHED"])
def test_contract_at_paper_blocking(variant):
    """At the paper's 96-deep tiles no two engines agree bit for bit,
    and the contract is what they share."""
    p = get_variant(variant).default_params()
    a, b, c = gemm_operands(p.b_m, p.b_n, p.b_k, seed=13)
    _assert_contract(variant, p, a, b, c, -1.5, 0.75)

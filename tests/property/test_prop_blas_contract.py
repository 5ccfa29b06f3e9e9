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
  the three engines, field by field;
- the caller's A, B and C are bitwise unchanged: Fortran-ordered
  operands are read in place, never written.

Zero-size draws (``m``, ``n`` or ``k`` = 0) cross the entry points
``dgemm`` (each engine), ``Session.dgemm``, ``Session.batch`` and
``ReproServer.submit``: each returns early as reference BLAS does,
with the reference's ``(m, n)`` result and no traffic booked.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import GemmRequest
from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.reference import contract_violation
from repro.core.session import Session
from repro.core.variants import get_variant
from repro.serve import ReproServer, ServeConfig
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
    before = [x.tobytes() for x in (a, b, c)]
    out = dgemm(a, b, c, alpha=alpha, beta=beta, transa=transa,
                transb=transb, variant=variant, engine=engine,
                params=params, core_group=cg, pad=pad)
    assert [x.tobytes() for x in (a, b, c)] == before, engine
    assert all(x.flags.writeable for x in (a, b, c)), engine
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


def _zero_size_session(entry, a, b, c, alpha, beta, transa, transb, pad):
    """One zero-size call through a Session or server entry; returns
    (result, DMA bytes booked)."""
    call = dict(alpha=alpha, beta=beta, transa=transa, transb=transb)
    request = GemmRequest(a, b, c, **call)
    with Session(params=DOUBLE, n_core_groups=1, pad=pad) as session:
        if entry == "Session.dgemm":
            out = session.dgemm(a, b, c, **call)
            return out, session.stats().traffic.dma_bytes
        if entry == "Session.batch":
            result = session.batch([request])
            assert result.ok, result.errors
            return result.outputs[0], result.traffic.dma_bytes

        async def round_trip():
            async with ReproServer(session=session,
                                   config=ServeConfig(window_seconds=0)
                                   ) as server:
                return await server.submit(request)

        result = asyncio.run(round_trip())
        assert result.ok, result.error
        return result.value, result.traffic.dma_bytes


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(*(st.sampled_from([0, 5, 40]),) * 3).filter(
        lambda dims: 0 in dims
    ),
    entry=st.sampled_from(
        ["dgemm", "Session.dgemm", "Session.batch", "ReproServer.submit"]
    ),
    variant=st.sampled_from(["RAW", "SCHED"]),
    pad=st.booleans(),
    transa=st.sampled_from(["N", "T"]),
    transb=st.sampled_from(["N", "T"]),
    alpha=scalars,
    beta=scalars,
    seed=st.integers(0, 2**16),
)
def test_zero_size_returns_early(shape, entry, variant, pad, transa, transb,
                                 alpha, beta, seed):
    """BLAS quick return: ``k == 0`` gives ``beta*C`` (C unread when
    ``beta == 0``, so its NaNs stay out), ``m == 0`` or ``n == 0`` an
    empty result; nothing is staged and no traffic is booked."""
    m, n, k = shape
    rng = np.random.default_rng(seed)
    op_a, op_b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    c = rng.standard_normal((m, n)) if beta != 0 else np.full((m, n), np.nan)
    a = np.asfortranarray(op_a.T) if transa == "T" else op_a
    b = np.asfortranarray(op_b.T) if transb == "T" else op_b
    if entry == "dgemm":
        for engine in ENGINES:
            cg = CoreGroup()
            out = dgemm(a, b, c, alpha=alpha, beta=beta, transa=transa,
                        transb=transb, variant=variant, engine=engine,
                        params=_params_for(variant), core_group=cg, pad=pad)
            assert out.shape == (m, n)
            violation = contract_violation(out, alpha, op_a, op_b, beta, c)
            assert violation is None, f"{engine}/{variant}: {violation}"
            assert cg.memory.stats.stores == 0
            assert cg.dma.stats.bytes_total == 0
            assert cg.regcomm.stats.as_dict() == CoreGroup().regcomm.stats.as_dict()
        return
    out, dma_bytes = _zero_size_session(entry, a, b, c, alpha, beta, transa,
                                        transb, pad)
    assert out.shape == (m, n)
    assert contract_violation(out, alpha, op_a, op_b, beta, c) is None
    assert dma_bytes == 0

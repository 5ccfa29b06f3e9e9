"""Property: no fault schedule can make the pool return a wrong answer.

Random fault schedules (random sites, triggers, seeds) driven through
random batches must always land in one of exactly two per-item
outcomes: a recovered output that matches the fault-free run, or a
structured error with a ``None`` output slot.  Silent corruption —
an output that exists but differs — is the one forbidden state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.params import BlockingParams
from repro.multi.scheduler import CGScheduler
from repro.resil import FAULT_SITES, FaultInjector, FaultSpec, RetryPolicy
from repro.workloads.matrices import mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)

_REFERENCE_CACHE: dict = {}


def reference_outputs(n_items: int, seed: int, pool: int, engine: str):
    """Fault-free pool run of the same batch (cached per shape of run)."""
    key = (n_items, seed, pool, engine)
    if key not in _REFERENCE_CACHE:
        items = mixed_batch(n_items, params=PARAMS, seed=seed)
        result = CGScheduler(n_core_groups=pool, params=PARAMS,
                             engine=engine).run(items)
        assert result.ok
        _REFERENCE_CACHE[key] = result.outputs
    return _REFERENCE_CACHE[key]


@st.composite
def fault_specs(draw):
    site = draw(st.sampled_from(FAULT_SITES))
    if draw(st.booleans()):
        return FaultSpec(site, nth=draw(st.integers(1, 40)))
    return FaultSpec(
        site,
        probability=draw(st.sampled_from([0.01, 0.05, 0.2, 1.0])),
        max_fires=draw(st.integers(1, 4)),
    )


@settings(max_examples=12, deadline=None)
@given(
    specs=st.lists(fault_specs(), min_size=1, max_size=3),
    fault_seed=st.integers(0, 2**16),
    batch_seed=st.integers(0, 3),
    pool=st.integers(2, 4),
)
def test_random_fault_schedules_never_corrupt(specs, fault_seed,
                                              batch_seed, pool):
    n_items = 4
    items = mixed_batch(n_items, params=PARAMS, seed=batch_seed)
    reference = reference_outputs(n_items, batch_seed, pool, "device")
    injector = FaultInjector(specs, seed=fault_seed)
    result = CGScheduler(
        n_core_groups=pool, params=PARAMS, engine="device",
        injector=injector, retry_policy=RetryPolicy(),
    ).run(items)

    failed = {e.index for e in result.errors}
    for i, out in enumerate(result.outputs):
        if i in failed:
            assert out is None
        else:
            # same engine throughout (no fallback configured), so
            # recovery must be bit-exact, not merely close
            assert out is not None and np.array_equal(out, reference[i])
    # every error is structured and attributed
    for error in result.errors:
        assert error.kind in ("FaultInjectedError", "QuarantineError")
        assert 0 <= error.core_group < pool
    # every disturbed-and-failed item has a FaultReport and vice versa
    report_index = {r.index: r for r in result.fault_reports}
    for error in result.errors:
        assert not report_index[error.index].recovered
    # accounting stays coherent under any schedule: items that no CG
    # could accept are tallied as unplaced, never in per-CG traffic
    assert sum(t.items for t in result.per_cg) + len(result.unplaced) == len(items)
    assert sum(t.failures for t in result.per_cg) + len(result.unplaced) == len(
        result.errors
    )
    assert set(result.unplaced) <= {e.index for e in result.errors}
    for g in result.quarantined:
        assert result.per_cg[g].failures + result.per_cg[g].items >= 0
        assert g < pool


@settings(max_examples=10, deadline=None)
@given(
    subset=st.sets(st.integers(0, 3), max_size=3),
    batch_seed=st.integers(0, 3),
)
def test_quarantining_any_proper_subset_preserves_results(subset, batch_seed):
    """Satellite property: killing any proper subset of CGs is invisible
    in the outputs and visible (healthy-only) in the stats."""
    n_items = 4
    items = mixed_batch(n_items, params=PARAMS, seed=batch_seed)
    reference = reference_outputs(n_items, batch_seed, 4, "device")
    injector = FaultInjector(
        [FaultSpec("cg", probability=1.0, cg=g, max_fires=1) for g in subset]
    )
    result = CGScheduler(
        n_core_groups=4, params=PARAMS, engine="device", injector=injector,
        retry_policy=RetryPolicy(),
    ).run(items)

    assert result.ok
    for out, ref in zip(result.outputs, reference):
        assert np.array_equal(out, ref)
    assert result.quarantined == tuple(sorted(subset))
    healthy = 4 - len(subset)
    assert result.healthy_core_groups == healthy
    if healthy:
        assert result.load_balance_efficiency == (
            result.modeled_speedup / healthy
        )
    # quarantined CGs ran nothing; healthy CGs ran everything
    for g in subset:
        assert result.per_cg[g].items == 0
        assert result.per_cg[g].modeled_seconds == 0.0
    assert sum(t.items for t in result.per_cg) == len(items)


@settings(max_examples=8, deadline=None)
@given(
    specs=st.lists(fault_specs(), min_size=1, max_size=2),
    fault_seed=st.integers(0, 2**16),
)
def test_fault_schedules_replay_deterministically(specs, fault_seed):
    items = mixed_batch(3, params=PARAMS, seed=0)

    def trajectory():
        injector = FaultInjector(specs, seed=fault_seed)
        result = CGScheduler(
            n_core_groups=2, params=PARAMS, injector=injector,
            retry_policy=RetryPolicy(),
        ).run(items)
        return (
            injector.stats.as_dict(),
            tuple((r.index, r.site, r.attempts, r.retries, r.recovered)
                  for r in result.fault_reports),
            tuple(e.index for e in result.errors),
            result.quarantined,
        )

    assert trajectory() == trajectory()

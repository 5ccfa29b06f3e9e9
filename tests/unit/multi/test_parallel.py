"""Concurrency suite for ``CGScheduler.run(parallel=True)``.

The contract under test: parallel dispatch is an *implementation*
detail — outputs, accounting, resilience behavior and span-counter
reconciliation are indistinguishable from serial mode, and the
coordination layer neither corrupts shared state nor lets two runs
overlap on one scheduler.
"""

import threading

import numpy as np
import pytest

from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.errors import ConfigError, QuarantineError
from repro.multi.scheduler import CGScheduler
from repro.obs import SpanTracer
from repro.resil import FaultInjector, FaultSpec, RetryPolicy
from repro.workloads.matrices import mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)


def build_scheduler(**kw):
    kw.setdefault("n_core_groups", 4)
    kw.setdefault("params", PARAMS)
    return CGScheduler(**kw)


class TestParallelEquivalence:
    def test_outputs_bit_identical_to_serial(self):
        items = mixed_batch(12, params=PARAMS, seed=7)
        with build_scheduler() as serial_sched:
            serial = serial_sched.run(items)
        with build_scheduler() as par_sched:
            par = par_sched.run(items, parallel=True)
        assert serial.ok and par.ok
        for ref, out in zip(serial.outputs, par.outputs):
            assert np.array_equal(ref, out)

    def test_accounting_identical_to_serial(self):
        items = mixed_batch(10, params=PARAMS, seed=3)
        with build_scheduler() as s1, build_scheduler() as s2:
            serial = s1.run(items)
            par = s2.run(items, parallel=True)
        assert serial.flops == par.flops
        assert serial.padded_flops == par.padded_flops
        assert serial.traffic.as_dict() == par.traffic.as_dict()
        for ts, tp in zip(serial.per_cg, par.per_cg):
            assert ts.items == tp.items
            assert ts.failures == tp.failures
            # each CG accumulates the same items in the same order, so
            # even the float accumulation is bit-identical
            assert ts.modeled_seconds == tp.modeled_seconds
            assert ts.stats.as_dict() == tp.stats.as_dict()
        assert sum(t.items for t in par.per_cg) == len(items)

    def test_single_cg_pool_falls_back_to_serial_loop(self):
        items = mixed_batch(4, params=PARAMS, seed=1)
        with build_scheduler(n_core_groups=1) as sched:
            result = sched.run(items, parallel=True)
        assert result.ok
        assert sched._workers is None  # no pool spun up for one CG


class TestParallelSession:
    def test_session_batch_parallel_with_faults_and_tracing(self):
        """The satellite stress case: 4 CGs, mixed shapes, an active
        injector, tracing on — outputs bit-identical to serial, span
        deltas reconcile bit-exactly with ``Session.stats()``."""
        items = mixed_batch(12, params=PARAMS, seed=11)
        with Session(params=PARAMS, n_core_groups=4) as s:
            reference = s.batch(items)
        assert reference.ok

        tracer = SpanTracer()
        injector = FaultInjector([
            FaultSpec("dma.get", nth=2),
            FaultSpec("regcomm", nth=5),
            FaultSpec("cg", nth=1, cg=3),
        ])
        with Session(
            params=PARAMS, n_core_groups=4, tracer=tracer, injector=injector,
        ) as s:
            result = s.batch(items, parallel=True)
            totals = s.stats().traffic.as_dict()

        assert result.ok, result.errors
        for ref, out in zip(reference.outputs, result.outputs):
            assert np.array_equal(ref, out)
        assert result.quarantined == (3,)
        assert result.fault_reports  # the disturbed items reported in
        assert all(r.recovered for r in result.fault_reports)

        # bit-exact attribution: summing every dgemm span's counter
        # deltas reproduces the session's cumulative traffic
        deltas = tracer.counter_totals("dgemm")
        for field, total in totals.items():
            assert deltas.get(f"ctx.{field}", 0) == total, field
        # every span closed, one globally ordered index space
        assert tracer.current() is None
        assert sorted(s.index for s in tracer.spans) == list(
            range(len(tracer.spans))
        )
        # worker-thread subtrees adopted the batch span, not orphaned
        roots = tracer.roots()
        assert [r.name for r in roots] == ["session.batch"]
        # each CG renders on its own Chrome-trace row
        tracks = {s.track for s in tracer.spans if s.name == "cg_dispatch"}
        assert tracks <= {1, 2, 3, 4}

    def test_parallel_span_tree_parents_are_consistent(self):
        items = mixed_batch(6, params=PARAMS, seed=2)
        tracer = SpanTracer()
        with Session(params=PARAMS, n_core_groups=4, tracer=tracer) as s:
            s.batch(items, parallel=True)
        by_index = {s.index: s for s in tracer.spans}
        for span in tracer.spans:
            if span.parent is None:
                assert span.depth == 0
                continue
            parent = by_index[span.parent]
            assert span.depth == parent.depth + 1
            assert parent.start <= span.start
            assert span.end <= parent.end


class TestReentrancyGuard:
    def test_guard_raises_while_held(self):
        items = mixed_batch(2, params=PARAMS, seed=0)
        with build_scheduler() as sched:
            assert sched._run_guard.acquire(blocking=False)
            try:
                with pytest.raises(ConfigError, match="not reentrant"):
                    sched.run(items)
            finally:
                sched._run_guard.release()
            # guard released cleanly: the scheduler still works
            assert sched.run(items).ok

    def test_overlapping_run_from_second_thread_raises(self):
        """Deterministic overlap: a hooked injector parks the first run
        mid-flight while a second thread calls ``run`` on the same
        scheduler — which must fail loudly, not corrupt the contexts."""
        started = threading.Event()
        release = threading.Event()

        class Parking(FaultInjector):
            def fire(self, site, *, cg=None):
                if site == "cg" and not started.is_set():
                    started.set()
                    release.wait(timeout=30)
                super().fire(site, cg=cg)

        items = mixed_batch(4, params=PARAMS, seed=5)
        with build_scheduler(injector=Parking()) as sched:
            errors = []
            results = []

            def first():
                results.append(sched.run(items, parallel=True))

            t = threading.Thread(target=first)
            t.start()
            assert started.wait(timeout=30)
            with pytest.raises(ConfigError, match="not reentrant"):
                sched.run(items)
            release.set()
            t.join(timeout=60)
            assert not t.is_alive()
            assert not errors
            assert results and results[0].ok


class TestParallelResilience:
    def test_quarantine_respills_across_worker_threads(self):
        items = mixed_batch(8, params=PARAMS, seed=9)
        with Session(params=PARAMS, n_core_groups=4) as s:
            reference = s.batch(items)
        injector = FaultInjector([FaultSpec("cg", nth=1, cg=2)])
        with Session(params=PARAMS, n_core_groups=4, injector=injector) as s:
            result = s.batch(items, parallel=True)
        assert result.ok
        assert result.quarantined == (2,)
        for ref, out in zip(reference.outputs, result.outputs):
            assert np.array_equal(ref, out)
        # the dead CG executed nothing; its queue landed elsewhere
        assert result.per_cg[2].items == 0
        assert sum(t.items for t in result.per_cg) == len(items)
        assert result.healthy_core_groups == 3

    @pytest.mark.parametrize("parallel", [False, True])
    def test_all_quarantined_items_are_unplaced(self, parallel):
        items = mixed_batch(5, params=PARAMS, seed=4)
        injector = FaultInjector([FaultSpec("cg", probability=1.0)])
        with build_scheduler(n_core_groups=2, injector=injector) as sched:
            result = sched.run(items, parallel=parallel)
        assert not result.ok
        assert result.unplaced == tuple(range(len(items)))
        assert all(out is None for out in result.outputs)
        assert all(e.kind == "QuarantineError" for e in result.errors)
        # an item that never executed is charged to no CG
        assert all(t.items == 0 and t.failures == 0 for t in result.per_cg)
        assert result.healthy_core_groups == 0

    @pytest.mark.parametrize("parallel", [False, True])
    def test_all_quarantined_raises_without_isolation(self, parallel):
        items = mixed_batch(3, params=PARAMS, seed=4)
        injector = FaultInjector([FaultSpec("cg", probability=1.0)])
        with build_scheduler(n_core_groups=2, injector=injector) as sched:
            with pytest.raises(QuarantineError):
                sched.run(items, parallel=parallel, isolate_failures=False)
        # the abort tore down cleanly: a fresh run on the same
        # scheduler works once the injector is disarmed
        with build_scheduler(n_core_groups=2) as sched:
            assert sched.run(items, parallel=parallel).ok

    def test_parallel_abort_propagates_first_failure(self):
        items = mixed_batch(6, params=PARAMS, seed=8)
        injector = FaultInjector([FaultSpec("compute", nth=1)])
        with build_scheduler(injector=injector) as sched:
            with pytest.raises(Exception, match="compute"):
                sched.run(items, parallel=True, isolate_failures=False)

    def test_stress_probability_faults_never_corrupt(self):
        """Larger parallel batch under probabilistic chaos: every item
        either recovers bit-exactly or fails structurally — silent
        corruption is the one forbidden state.

        Reference and chaos run use the same engine (no fallback): a
        fallback would re-run disturbed items on a *different* engine,
        whose results match to tolerance rather than bit-for-bit."""
        items = mixed_batch(16, params=PARAMS, seed=13)
        with build_scheduler() as ref_sched:
            reference = ref_sched.run(items)
        assert reference.ok
        injector = FaultInjector(
            [
                FaultSpec("dma.get", probability=0.05),
                FaultSpec("compute", probability=0.05),
                FaultSpec("cg", probability=0.02),
            ],
            seed=99,
        )
        with build_scheduler(
            injector=injector, retry_policy=RetryPolicy(),
        ) as sched:
            result = sched.run(items, parallel=True)
        failed = {e.index for e in result.errors}
        for i, out in enumerate(result.outputs):
            if i in failed:
                assert out is None
            else:
                assert np.array_equal(out, reference.outputs[i])
        assert sum(t.items for t in result.per_cg) + len(result.unplaced) == len(
            items
        )
        assert sum(t.failures for t in result.per_cg) + len(
            result.unplaced
        ) == len(result.errors)


class TestSchedulerLifecycle:
    def test_close_is_idempotent_and_pool_is_lazy(self):
        sched = build_scheduler()
        assert sched._workers is None
        sched.run(mixed_batch(4, params=PARAMS, seed=0), parallel=True)
        assert sched._workers is not None
        sched.close()
        assert sched._workers is None
        sched.close()

    def test_session_close_releases_worker_pool(self):
        with Session(params=PARAMS, n_core_groups=4) as s:
            s.batch(mixed_batch(4, params=PARAMS, seed=0), parallel=True)
            assert s.scheduler._workers is not None
        assert s.scheduler._workers is None

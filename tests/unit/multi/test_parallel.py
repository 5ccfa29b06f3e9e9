"""Concurrency suite for ``CGScheduler.run(parallel=True)``.

The contract under test: parallel dispatch is an *implementation*
detail — outputs, accounting, failure isolation and span-counter
reconciliation are indistinguishable from serial mode, and the
coordination layer neither corrupts shared state nor lets two runs
overlap on one scheduler.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.errors import ConfigError
from repro.multi import scheduler as scheduler_module
from repro.multi.scheduler import CGScheduler
from repro.obs import SpanTracer
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

    def test_forced_thread_switches_lose_no_result(
        self, small_memory_spec, unstageable
    ):
        """Four workers on fewer cores, switching every microsecond:
        no per-item result slot may lose an update."""
        items = mixed_batch(16, params=PARAMS, seed=21)
        items[9] = unstageable
        with build_scheduler(spec=small_memory_spec) as sched:
            serial = sched.run(items)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with build_scheduler(spec=small_memory_spec) as sched:
                par = sched.run(items, parallel=True)
        finally:
            sys.setswitchinterval(interval)
        assert [e.index for e in par.errors] == [9]
        assert par.errors == serial.errors
        assert par.item_traffic == serial.item_traffic
        for i, (ref, out) in enumerate(zip(serial.outputs, par.outputs)):
            if i != 9:
                assert np.array_equal(ref, out), i

    def test_single_cg_pool_falls_back_to_serial_loop(self):
        items = mixed_batch(4, params=PARAMS, seed=1)
        with build_scheduler(n_core_groups=1) as sched:
            result = sched.run(items, parallel=True)
        assert result.ok
        assert sched._workers is None  # no pool spun up for one CG


class TestParallelSession:
    def test_session_batch_parallel_with_faults_and_tracing(
        self, small_memory_spec, unstageable
    ):
        """The stress case: 4 CGs, mixed shapes, one item that fails
        staging, tracing on — outputs, errors and traffic identical to
        serial, span deltas reconcile bit-exactly with
        ``Session.stats()``, the failed item's bytes included."""
        items = mixed_batch(12, params=PARAMS, seed=11)
        items[5] = unstageable
        with Session(params=PARAMS, n_core_groups=4,
                     spec=small_memory_spec) as s:
            reference = s.batch(items)
        assert [(e.index, e.kind) for e in reference.errors] == [
            (5, "MemoryError")
        ]

        tracer = SpanTracer()
        with Session(
            params=PARAMS, n_core_groups=4, spec=small_memory_spec,
            tracer=tracer,
        ) as s:
            result = s.batch(items, parallel=True)
            totals = s.stats().traffic.as_dict()

        assert result.errors == reference.errors
        assert result.outputs[5] is None
        for i, (ref, out) in enumerate(zip(reference.outputs, result.outputs)):
            if i != 5:
                assert np.array_equal(ref, out), i
        assert result.traffic.as_dict() == reference.traffic.as_dict()
        assert result.item_traffic == reference.item_traffic

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

    def test_overlapping_run_from_second_thread_raises(self, monkeypatch):
        """Deterministic overlap: a hooked ``dgemm`` parks the first run
        mid-flight while a second thread calls ``run`` on the same
        scheduler — which must fail loudly, not corrupt the contexts."""
        started = threading.Event()
        release = threading.Event()
        real_dgemm = scheduler_module.dgemm

        def parking_dgemm(*args, **kwargs):
            if not started.is_set():
                started.set()
                release.wait(timeout=30)
            return real_dgemm(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "dgemm", parking_dgemm)
        items = mixed_batch(4, params=PARAMS, seed=5)
        with build_scheduler() as sched:
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
    """Failure handling across worker threads."""

    def test_parallel_abort_propagates_first_failure(
        self, small_memory_spec, unstageable
    ):
        items = mixed_batch(6, params=PARAMS, seed=8)
        items[3] = unstageable
        with build_scheduler(spec=small_memory_spec) as sched:
            with pytest.raises(MemoryError, match="main memory exhausted"):
                sched.run(items, parallel=True, isolate_failures=False)
            # the abort released the run guard and every staged byte
            assert all(
                sched.processor.cg(g).memory.used_bytes == 0
                for g in range(4)
            )
            assert sched.run(items[:3], parallel=True).ok


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

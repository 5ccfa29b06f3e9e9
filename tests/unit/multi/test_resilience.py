"""Scheduler/Session resilience: retries, fallback, quarantine, respill."""

import numpy as np
import pytest

from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.multi.scheduler import CGScheduler
from repro.resil import FaultInjector, FaultSpec, RetryPolicy
from repro.workloads.matrices import mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)


@pytest.fixture(scope="module")
def items():
    return mixed_batch(6, params=PARAMS, seed=0)


@pytest.fixture(scope="module")
def reference(items):
    return CGScheduler(n_core_groups=1, params=PARAMS).run(items).outputs


def scheduler(**kwargs):
    kwargs.setdefault("params", PARAMS)
    kwargs.setdefault("retry_policy", RetryPolicy())
    return CGScheduler(**kwargs)


class TestRetry:
    def test_transient_fault_recovers_bit_exactly(self, items, reference):
        injector = FaultInjector([FaultSpec("dma.get", nth=4)])
        result = scheduler(injector=injector).run(items)
        assert result.ok
        assert injector.stats.injected == 1
        for out, ref in zip(result.outputs, reference):
            assert np.array_equal(out, ref)
        (report,) = result.fault_reports
        assert report.recovered and report.retries == 1
        assert report.site == "dma.get"
        assert report.backoff_seconds > 0

    def test_backoff_charged_to_modeled_time(self, items):
        injector = FaultInjector([FaultSpec("compute", nth=2)])
        sched = scheduler(injector=injector)
        result = sched.run(items)
        assert result.ok
        (report,) = result.fault_reports
        home = report.core_group
        # that CG ran one extra attempt plus backoff beyond the plan
        extra = (result.per_cg[home].modeled_seconds
                 - result.plan.cg_seconds[home])
        assert extra == pytest.approx(
            result.plan.item_seconds[report.index] * report.retries
            + report.backoff_seconds
        )

    def test_no_policy_fails_fast(self, items):
        injector = FaultInjector([FaultSpec("compute", nth=2)])
        result = CGScheduler(params=PARAMS, injector=injector).run(items)
        assert len(result.errors) == 1
        assert result.errors[0].kind == "FaultInjectedError"
        (report,) = result.fault_reports
        assert not report.recovered and report.retries == 0

    def test_deterministic_errors_not_retried(self, items, small_memory_spec,
                                              unstageable):
        bad = list(items)
        bad[2] = unstageable
        sched = scheduler(spec=small_memory_spec)
        result = sched.run(bad)
        assert len(result.errors) == 1 and result.errors[0].index == 2
        # no fault, no retry, no fallback -> no report
        assert result.fault_reports == ()
        assert sched.resil_stats()["retries"] == 0

    def test_isolate_failures_false_propagates_after_ladder(self, items):
        injector = FaultInjector([FaultSpec("compute", probability=1.0)])
        sched = scheduler(injector=injector,
                          retry_policy=RetryPolicy(max_retries=1))
        from repro.errors import FaultInjectedError

        with pytest.raises(FaultInjectedError):
            sched.run(items, isolate_failures=False)


class TestFallback:
    def test_vectorized_item_falls_back_to_device(self, items, reference):
        # faults only the vectorized engine's kernel phase: retries see
        # it again, the device fallback does not.
        dev_reference = CGScheduler(
            n_core_groups=1, engine="device", params=PARAMS
        ).run(items).outputs
        injector = FaultInjector(
            [FaultSpec("compute", probability=1.0, phase="kernel", max_fires=2)]
        )
        sched = scheduler(engine="vectorized", injector=injector,
                          retry_policy=RetryPolicy(max_retries=1),
                          fallback_engine="device")
        result = sched.run(items)
        assert result.ok
        (report,) = result.fault_reports
        assert report.fallback_engine == "device"
        assert report.recovered
        for idx, out in enumerate(result.outputs):
            # the fallback item is bit-identical to the *device* run,
            # the undisturbed ones to the vectorized run
            ref = (dev_reference if idx == report.index else reference)[idx]
            assert np.array_equal(out, ref)
        assert sched.resil_stats()["fallbacks"] == 1

    def test_no_fallback_when_engines_match(self, items):
        injector = FaultInjector([FaultSpec("compute", probability=1.0,
                                            max_fires=4)])
        sched = scheduler(engine="device", injector=injector,
                          retry_policy=RetryPolicy(max_retries=1),
                          fallback_engine="device")
        result = sched.run(items)
        assert sched.resil_stats()["fallbacks"] == 0
        assert len(result.errors) >= 1


class TestQuarantine:
    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_any_single_cg_quarantine_preserves_results(
        self, items, reference, target
    ):
        injector = FaultInjector([FaultSpec("cg", nth=1, cg=target)])
        result = scheduler(injector=injector).run(items)
        assert result.ok
        for out, ref in zip(result.outputs, reference):
            assert np.array_equal(out, ref)
        assert result.quarantined == (target,)
        assert result.healthy_core_groups == 3
        assert result.per_cg[target].items == 0

    def test_quarantine_subsets_and_healthy_stats(self, items, reference):
        # quarantine every proper subset of the pool
        for subset in ([0], [1, 3], [0, 1, 2]):
            injector = FaultInjector(
                [FaultSpec("cg", probability=1.0, cg=g, max_fires=1)
                 for g in subset]
            )
            result = scheduler(injector=injector).run(items)
            assert result.ok
            for out, ref in zip(result.outputs, reference):
                assert np.array_equal(out, ref)
            assert result.quarantined == tuple(sorted(subset))
            healthy = 4 - len(subset)
            assert result.healthy_core_groups == healthy
            # load-balance counts healthy CGs only
            assert result.load_balance_efficiency == pytest.approx(
                result.modeled_speedup / healthy
            )
            for g in subset:
                assert result.per_cg[g].items == 0
            ran = sum(t.items for t in result.per_cg)
            assert ran == len(items)

    def test_all_quarantined_reports_structured_errors(self, items):
        injector = FaultInjector([FaultSpec("cg", probability=1.0)])
        result = scheduler(injector=injector, n_core_groups=2).run(items)
        assert result.healthy_core_groups == 0
        assert result.load_balance_efficiency == 0.0
        assert len(result.errors) == len(items)
        assert {e.kind for e in result.errors} == {"QuarantineError"}
        assert all(out is None for out in result.outputs)

    def test_all_quarantined_raises_without_isolation(self, items):
        from repro.errors import QuarantineError

        injector = FaultInjector([FaultSpec("cg", probability=1.0)])
        with pytest.raises(QuarantineError):
            scheduler(injector=injector, n_core_groups=2).run(
                items, isolate_failures=False
            )


class TestCleanRunCompatibility:
    def test_no_faults_matches_plan_accounting(self, items):
        result = scheduler().run(items)
        assert result.ok
        assert result.fault_reports == ()
        assert result.quarantined == ()
        assert result.healthy_core_groups == result.n_core_groups
        assert result.makespan_seconds == result.plan.makespan_seconds
        assert result.modeled_speedup == result.plan.modeled_speedup
        assert (result.load_balance_efficiency
                == result.plan.load_balance_efficiency)
        for traffic, planned in zip(result.per_cg, result.plan.cg_seconds):
            assert traffic.modeled_seconds == planned


class TestSessionWiring:
    def test_session_attaches_injector_and_recovers(self, items):
        # the bit-exactness baseline must use the same engine the
        # session batches with (vectorized), not the device reference
        with Session(params=PARAMS, n_core_groups=4) as session:
            clean = session.batch(items)
        injector = FaultInjector([FaultSpec("dma.put", nth=2)])
        with Session(params=PARAMS, n_core_groups=4,
                     injector=injector) as session:
            result = session.batch(items)
        assert result.ok
        for out, ref in zip(result.outputs, clean.outputs):
            assert np.array_equal(out, ref)
        assert injector.stats.injected == 1

    def test_session_resil_stats_namespace(self, items):
        injector = FaultInjector([FaultSpec("compute", nth=1)])
        with Session(params=PARAMS, n_core_groups=2,
                     injector=injector) as session:
            session.batch(items)
            stats = session.resil_stats()
        assert stats["recovered"] == 1
        assert stats["injection"]["injected"] == 1
        from repro.obs.registry import resil_meter

        flat = resil_meter(session.scheduler)()
        assert flat["resil.recovered"] == 1
        assert flat["resil.injection.by_site.compute"] == 1

    def test_scalar_dgemm_faults_propagate(self):
        from repro.errors import FaultInjectedError

        injector = FaultInjector([FaultSpec("memory.store", nth=1)])
        rng = np.random.default_rng(0)
        with Session(params=PARAMS, injector=injector) as session:
            with pytest.raises(FaultInjectedError):
                session.dgemm(rng.standard_normal((24, 24)),
                              rng.standard_normal((24, 24)))

    def test_resil_spans_emitted(self, items):
        from repro.obs import SpanTracer

        tracer = SpanTracer()
        injector = FaultInjector([FaultSpec("dma.get", nth=3),
                                  FaultSpec("cg", nth=1, cg=0)])
        with Session(params=PARAMS, n_core_groups=2, injector=injector,
                     tracer=tracer) as session:
            result = session.batch(items)
        assert result.ok
        names = {s.name for s in tracer.spans}
        assert {"resil.fault", "resil.retry", "resil.quarantine",
                "resil.respill"} <= names
        cats = {s.cat for s in tracer.spans if s.name.startswith("resil.")}
        assert cats == {"resil"}

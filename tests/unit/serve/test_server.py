"""Integration tests for the asyncio serving tier (ReproServer)."""

import asyncio

import numpy as np
import pytest

from repro.api import (
    ConvRequest,
    GemmRequest,
    LuRequest,
    SubmitOptions,
)
from repro.core.params import BlockingParams
from repro.core.reference import reference_dgemm
from repro.core.session import Session
from repro.errors import ConfigError
from repro.obs import MetricsSampler, SpanTracer
from repro.resil import FaultInjector, FaultSpec
from repro.serve import LoadGenerator, ReproServer, ServeConfig
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)


def run(coro):
    return asyncio.run(coro)


def make_server(config=None, **session_kwargs):
    session_kwargs.setdefault("params", PARAMS)
    session_kwargs.setdefault("n_core_groups", 2)
    return ReproServer(config=config, **session_kwargs)


class TestRequestPath:
    def test_single_gemm_round_trip(self):
        async def scenario():
            async with make_server() as server:
                a, b, c = gemm_operands(100, 60, 70, seed=0)
                result = await server.submit(
                    GemmRequest(a=a, b=b, c=c, beta=1.0)
                )
                assert result.ok
                expected = reference_dgemm(1.0, a, b, 1.0, c)
                np.testing.assert_allclose(result.value, expected, atol=1e-9)
                assert result.total_seconds > 0
                assert result.bin.startswith("gemm:")

        run(scenario())

    def test_mixed_concurrent_wave_drops_nothing(self):
        async def scenario():
            config = ServeConfig(window_seconds=0.02, max_batch_size=8)
            async with make_server(config) as server:
                generator = LoadGenerator(seed=0, params=PARAMS)
                requests = generator.generate(32)
                results = await generator.run(
                    server, requests, concurrency=32
                )
                assert len(results) == 32
                assert all(r is not None for r in results)
                assert all(r.ok for r in results)
                kinds = {r.bin.split(":")[0] for r in results}
                assert {"gemm", "conv", "lu"} <= kinds
                report = server.slo_report()
                assert report, "SLO report must not be empty"
                for entry in report:
                    assert (
                        entry.p50_seconds
                        <= entry.p95_seconds
                        <= entry.p99_seconds
                    )

        run(scenario())

    def test_invalid_request_is_structured_not_raised(self):
        async def scenario():
            async with make_server() as server:
                result = await server.submit(
                    GemmRequest(a=np.zeros((4, 3)), b=np.zeros((5, 2)))
                )
                assert not result.ok
                assert result.error.kind == "UnsupportedShapeError"
                assert not result.error.retryable

        run(scenario())

    def test_zero_size_gemm_returns_early(self):
        """BLAS quick return: ``k == 0`` answers ``beta*C``, staging
        nothing."""
        async def scenario():
            async with make_server() as server:
                c = np.arange(15.0).reshape(3, 5)
                result = await server.submit(
                    GemmRequest(np.ones((3, 0)), np.ones((0, 5)), c, beta=2.0)
                )
                assert result.ok, result.error
                np.testing.assert_array_equal(result.value, 2.0 * c)
                assert result.traffic.dma_bytes == 0

        run(scenario())

    def test_unknown_engine_is_invalid_not_recovered(self):
        """A typo in ``SubmitOptions.engine`` is refused at admission;
        it never dispatches and never counts as a recovered fault."""
        async def scenario():
            async with make_server() as server:
                a, b, _ = gemm_operands(32, 16, 16, seed=0)
                result = await server.submit(
                    GemmRequest(a=a, b=b),
                    options=SubmitOptions(engine="bogus"),
                )
                assert not result.ok
                assert result.error.kind == "ConfigError"
                assert "unknown engine" in result.error.message
                assert server.stats()["batches"] == 0
                assert server.session.resil_stats()["fallbacks"] == 0

        run(scenario())

    def test_operands_over_cg_memory_are_refused_at_admission(
        self, small_memory_spec, unstageable
    ):
        """A request whose operands can never fit in one CG's main
        memory is invalid: refused before it is hashed or dispatched,
        never retried on another engine."""
        async def scenario():
            async with make_server(spec=small_memory_spec) as server:
                result = await server.submit(unstageable)
                assert not result.ok
                assert result.error.kind == "UnsupportedShapeError"
                assert "main memory" in result.error.message
                assert not result.error.retryable
                assert server.stats()["batches"] == 0
                assert server.stats()["failed"] == 1
                assert server.session.resil_stats()["fallbacks"] == 0

        run(scenario())

    def test_operands_that_fit_logically_are_served(self,
                                                    fits_only_logically):
        """Admission counts logical bytes, and so does staging on the
        default engine: a request admitted is a request that stages."""
        async def scenario():
            spec, request = fits_only_logically
            async with ReproServer(spec=spec, n_core_groups=1) as server:
                result = await server.submit(request)
                assert result.ok, result.error
                np.testing.assert_allclose(result.value,
                                           request.a @ request.b, atol=1e-9)

        run(scenario())

    def test_conv_request_folds_to_feature_maps(self):
        async def scenario():
            rng = np.random.default_rng(1)
            request = ConvRequest(
                images=rng.standard_normal((2, 2, 6, 6)),
                kernels=rng.standard_normal((3, 2, 3, 3)),
            )
            async with make_server() as server:
                result = await server.submit(request)
                assert result.ok
                assert result.value.shape == request.fold_shape()

        run(scenario())


class TestCoalescing:
    def test_same_bin_requests_share_dispatches(self):
        async def scenario():
            config = ServeConfig(window_seconds=0.1, max_batch_size=8)
            async with make_server(config) as server:
                rng = np.random.default_rng(2)
                requests = [
                    GemmRequest(
                        a=rng.standard_normal((64, 64)),
                        b=rng.standard_normal((64, 64)),
                    )
                    for _ in range(8)
                ]
                results = await asyncio.gather(
                    *(server.submit(r) for r in requests)
                )
                assert all(r.ok for r in results)
                tracer = server.session.tracer
                dispatches = sum(
                    1 for s in tracer.spans if s.name == "session.batch"
                )
                # strictly fewer dispatches than requests — the window
                # coalesced same-bin arrivals into shared batches.
                assert dispatches < len(requests)
                assert server.stats()["batches"] == dispatches

        run(scenario())

    def test_zero_window_disables_coalescing(self):
        async def scenario():
            config = ServeConfig(window_seconds=0.0)
            async with make_server(config) as server:
                rng = np.random.default_rng(3)
                requests = [
                    GemmRequest(
                        a=rng.standard_normal((64, 64)),
                        b=rng.standard_normal((64, 64)),
                    )
                    for _ in range(4)
                ]
                results = await asyncio.gather(
                    *(server.submit(r) for r in requests)
                )
                assert all(r.ok for r in results)
                assert server.stats()["batches"] == len(requests)

        run(scenario())

    def test_full_bin_dispatches_before_the_window(self):
        async def scenario():
            # a window far longer than the test: only the size trigger
            # can dispatch, so completion proves the early flush.
            config = ServeConfig(window_seconds=30.0, max_batch_size=2)
            async with make_server(config) as server:
                rng = np.random.default_rng(4)
                requests = [
                    GemmRequest(
                        a=rng.standard_normal((64, 64)),
                        b=rng.standard_normal((64, 64)),
                    )
                    for _ in range(4)
                ]
                results = await asyncio.wait_for(
                    asyncio.gather(*(server.submit(r) for r in requests)),
                    timeout=60,
                )
                assert all(r.ok for r in results)
                assert server.stats()["batches"] == 2

        run(scenario())


class TestBackpressure:
    def test_overload_is_rejected_structurally(self):
        async def scenario():
            config = ServeConfig(
                window_seconds=0.05, max_batch_size=4, max_pending=2
            )
            async with make_server(config) as server:
                rng = np.random.default_rng(5)
                requests = [
                    GemmRequest(
                        a=rng.standard_normal((64, 64)),
                        b=rng.standard_normal((64, 64)),
                    )
                    for _ in range(8)
                ]
                results = await asyncio.gather(
                    *(server.submit(r) for r in requests)
                )
                rejected = [r for r in results if r.rejected]
                served = [r for r in results if r.ok]
                assert rejected, "max_pending=2 must reject an 8-burst"
                assert served, "admitted requests must still be served"
                for r in rejected:
                    assert r.error.kind == "RejectedError"
                    assert r.error.retryable
                    assert "retry" in r.error.message
                assert server.stats()["rejected"] == len(rejected)

        run(scenario())


class TestRetryBudget:
    def test_exhaustion_surfaces_fault_reports(self):
        async def scenario():
            injector = FaultInjector(
                [FaultSpec("compute", probability=1.0)], seed=0
            )
            session = Session(
                params=PARAMS, n_core_groups=1, injector=injector,
                fallback_engine=None, tracer=SpanTracer(),
            )
            config = ServeConfig(window_seconds=0.0, cache_entries=0)
            async with ReproServer(session=session, config=config) as server:
                a, b, _ = gemm_operands(64, 64, 64, seed=6)
                result = await server.submit(
                    GemmRequest(a=a, b=b),
                    options=SubmitOptions(max_retries=0),
                )
                assert not result.ok
                assert result.fault_reports
                assert result.fault_reports[0].retries == 0
            session.close()

        run(scenario())


class TestOperandCacheIntegration:
    def test_second_submission_hits_with_zero_traffic(self):
        async def scenario():
            async with make_server() as server:
                a, b, _ = gemm_operands(80, 48, 56, seed=7)
                request = GemmRequest(a=a, b=b)
                first = await server.submit(request)
                second = await server.submit(request)
                assert first.ok and second.ok
                assert not first.cache_hit
                assert second.cache_hit
                assert second.traffic.as_dict() == {
                    k: 0 for k in second.traffic.as_dict()
                }
                np.testing.assert_array_equal(first.value, second.value)
                assert server.stats()["cache_hits"] == 1

        run(scenario())

    def test_different_options_miss(self):
        async def scenario():
            async with make_server() as server:
                a, b, _ = gemm_operands(80, 48, 56, seed=8)
                request = GemmRequest(a=a, b=b)
                await server.submit(request)
                other = await server.submit(
                    request, options=SubmitOptions(engine="device")
                )
                assert other.ok
                assert not other.cache_hit

        run(scenario())


class TestReconciliation:
    def test_span_traffic_matches_session_stats_bit_exactly(self):
        async def scenario():
            config = ServeConfig(window_seconds=0.02, max_batch_size=8)
            async with make_server(config) as server:
                generator = LoadGenerator(seed=9, params=PARAMS)
                requests = generator.generate(16)
                results = await generator.run(
                    server, requests, concurrency=16
                )
                assert all(r.ok for r in results)
                tracer = server.session.tracer
                deltas = tracer.counter_totals("serve.request")
                totals = server.session.stats().traffic.as_dict()
                assert totals, "session must have accounted traffic"
                for field, total in totals.items():
                    assert deltas.get(f"ctx.{field}", 0) == total

        run(scenario())


class TestTelemetry:
    def test_sampler_runs_for_the_server_lifetime(self):
        async def scenario():
            config = ServeConfig(window_seconds=0.01)
            async with make_server(config) as server:
                # every registry source must read cleanly from the
                # sampler thread while the server keeps serving.
                sampler = MetricsSampler(
                    server.metrics_registry(), period_seconds=0.005
                )
                with sampler:
                    assert sampler.running
                    generator = LoadGenerator(seed=3, params=PARAMS)
                    await generator.run(
                        server, generator.generate(4), concurrency=4
                    )
            assert not sampler.running
            assert sampler.errors == 0
            # baseline + final samples bracket the run.
            points = sampler.series("serve.admitted").points()
            assert points[0][1] == 0.0 and points[-1][1] == 4.0

        run(scenario())

    def test_metrics_registry_is_cached_and_composed(self):
        async def scenario():
            async with make_server() as server:
                registry = server.metrics_registry()
                assert registry is server.metrics_registry()
                snap = registry.snapshot()
                # serving tier, session tier, and obs tier all present.
                assert "serve.admitted" in snap
                assert "cg0.dma.transactions" in snap
                assert "plan.cache.hits" in snap

        run(scenario())

    def test_openmetrics_text_is_valid_and_reconciles(self):
        async def scenario():
            config = ServeConfig(window_seconds=0.01)
            async with make_server(config) as server:
                generator = LoadGenerator(seed=4, params=PARAMS)
                results = await generator.run(
                    server, generator.generate(6), concurrency=6
                )
                assert all(r.ok for r in results)
                text = server.openmetrics()
                totals = server.session.stats().traffic.as_dict()
            assert text.endswith("# EOF\n")
            assert "# TYPE repro_serve_admitted counter" in text
            assert "# TYPE repro_serve_latency_total_seconds histogram" in text
            samples = {}
            for line in text.splitlines():
                if line.startswith("#") or "{" in line:
                    continue
                name, _, value = line.partition(" ")
                samples[name] = value
            for field, total in totals.items():
                key = f"repro_serve_request_ctx_{field}_total"
                assert int(samples[key]) == total, field

        run(scenario())

    def test_http_endpoint_serves_scrapes_and_health(self):
        async def fetch(address, target):
            reader, writer = await asyncio.open_connection(*address)
            writer.write(
                f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, body = raw.decode().partition("\r\n\r\n")
            return head.splitlines()[0], body

        async def scenario():
            config = ServeConfig(metrics_port=0)
            async with make_server(config) as server:
                assert server.metrics_address is not None
                status, body = await fetch(
                    server.metrics_address, "/metrics"
                )
                assert " 200 " in status
                assert body.endswith("# EOF\n")
                status, body = await fetch(
                    server.metrics_address, "/healthz"
                )
                assert " 200 " in status and body == "ok\n"
                status, _ = await fetch(
                    server.metrics_address, "/nope"
                )
                assert " 404 " in status

        run(scenario())


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def scenario():
            server = make_server()
            with pytest.raises(ConfigError, match="not running"):
                await server.submit(GemmRequest(a=np.eye(8), b=np.eye(8)))
            await server.start()
            await server.stop()

        run(scenario())

    def test_submit_after_stop_is_structured_shutdown(self):
        async def scenario():
            server = make_server()
            await server.start()
            result = await server.submit(
                GemmRequest(a=np.eye(8), b=np.eye(8))
            )
            assert result.ok
            await server.stop()
            await server.stop()  # idempotent
            refused = await server.submit(
                GemmRequest(a=np.eye(8), b=np.eye(8))
            )
            assert not refused.ok
            assert refused.error.kind == "ShutdownError"
            assert not refused.error.retryable

        run(scenario())

    def test_stop_drains_admitted_requests(self):
        async def scenario():
            config = ServeConfig(window_seconds=10.0, max_batch_size=64)
            server = make_server(config)
            await server.start()
            a, b, _ = gemm_operands(64, 64, 64, seed=10)
            task = asyncio.create_task(
                server.submit(GemmRequest(a=a, b=b))
            )
            await asyncio.sleep(0.05)  # parked in the window
            await server.stop()  # must flush, not strand the future
            result = await asyncio.wait_for(task, timeout=60)
            assert result.ok

        run(scenario())

    def test_caller_owned_session_stays_open(self):
        async def scenario():
            session = Session(params=PARAMS, n_core_groups=2)
            async with ReproServer(session=session) as server:
                result = await server.submit(
                    GemmRequest(a=np.eye(16), b=np.eye(16))
                )
                assert result.ok
            # the server must not close a session it does not own
            session.dgemm(np.eye(8), np.eye(8))
            session.close()

        run(scenario())

    def test_session_kwargs_conflict_with_session(self):
        session = Session(params=PARAMS, n_core_groups=1)
        try:
            with pytest.raises(ConfigError, match="not both"):
                ReproServer(session=session, n_core_groups=2)
        finally:
            session.close()

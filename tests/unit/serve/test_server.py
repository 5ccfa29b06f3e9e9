"""Integration tests for the asyncio serving tier (ReproServer)."""

import asyncio
import gc
import sys

import numpy as np
import pytest

from repro.api import GemmRequest, SubmitOptions
from repro.core.context import ContextStats
from repro.core.params import BlockingParams
from repro.core.reference import reference_dgemm
from repro.core.session import Session
from repro.errors import ConfigError
from repro.obs import MetricsSampler, SpanTracer
from repro.serve import LoadGenerator, ReproServer, ServeConfig
from repro.workloads.matrices import gemm_operands

PARAMS = BlockingParams.small(double_buffered=True)


def run(coro):
    return asyncio.run(coro)


def make_server(config=None, **session_kwargs):
    session_kwargs.setdefault("params", PARAMS)
    session_kwargs.setdefault("n_core_groups", 2)
    return ReproServer(config=config, **session_kwargs)


def fresh_gemm(seed, m=64, n=64, k=64):
    rng = np.random.default_rng(seed)
    return GemmRequest(a=rng.standard_normal((m, k)),
                       b=rng.standard_normal((k, n)))


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
                assert all(r.bin.startswith("gemm:") for r in results)
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
                assert "inner dimensions" in result.error.message
                assert not result.error.retryable
                assert result.traffic == ContextStats.zero()

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
        it never dispatches."""
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

        run(scenario())

    def test_operands_over_cg_memory_are_refused_at_admission(
        self, small_memory_spec, unstageable
    ):
        """A request whose operands can never fit in one CG's main
        memory is invalid: refused before it is hashed or dispatched."""
        async def scenario():
            async with make_server(spec=small_memory_spec) as server:
                result = await server.submit(unstageable)
                assert not result.ok
                assert result.error.kind == "UnsupportedShapeError"
                assert "main memory" in result.error.message
                assert not result.error.retryable
                assert server.stats()["batches"] == 0
                assert server.stats()["failed"] == 1

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

    def test_non_request_is_a_structured_error(self):
        """Anything but a ``GemmRequest`` is refused at admission as a
        ``ConfigError`` result, never raised and never dispatched."""
        async def scenario():
            async with make_server() as server:
                result = await server.submit([np.eye(4), np.eye(4)])
                assert not result.ok
                assert result.error.kind == "ConfigError"
                assert "expected a GemmRequest" in result.error.message
                assert result.traffic == ContextStats.zero()
                stats = server.stats()
                assert (stats["failed"], stats["batches"]) == (1, 0)

        run(scenario())


class TestCoalescing:
    def test_same_bin_requests_share_dispatches(self):
        async def scenario():
            config = ServeConfig(window_seconds=0.1, max_batch_size=8)
            async with make_server(config, tracer=SpanTracer()) as server:
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

    def test_same_bin_riders_run_on_different_cgs(self):
        """Two equal riders of one batch split across the 2-CG pool,
        and each response names the CG that ran it."""
        async def scenario():
            config = ServeConfig(window_seconds=30.0, max_batch_size=2)
            async with make_server(config) as server:
                results = await asyncio.gather(
                    server.submit(fresh_gemm(5)), server.submit(fresh_gemm(6))
                )
                assert server.stats()["batches"] == 1
                return results

        results = run(scenario())
        assert all(r.ok for r in results)
        assert results[0].bin == results[1].bin
        assert {r.attrs["core_group"] for r in results} == {0, 1}

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

    def test_result_is_cached_under_the_content_it_was_computed_from(self):
        """A caller that zeroes A inside the window gets what the kernel
        read; a later request holding A's original content must not hit
        that result."""
        async def scenario():
            config = ServeConfig(window_seconds=0.3)
            async with make_server(config) as server:
                rng = np.random.default_rng(12)
                a = np.asfortranarray(rng.standard_normal((128, 96)))
                b = np.asfortranarray(rng.standard_normal((96, 64)))
                original = a.copy(order="F")
                racing = asyncio.create_task(
                    server.submit(GemmRequest(a=a, b=b))
                )
                await asyncio.sleep(0.05)  # admitted, not yet dispatched
                a[:] = 0.0
                assert (await racing).ok
                second = await server.submit(
                    GemmRequest(a=original.copy(order="F"),
                                b=b.copy(order="F"))
                )
                assert second.ok
                assert not second.cache_hit
                np.testing.assert_allclose(second.value, original @ b,
                                           atol=1e-9)

        run(scenario())

    def test_repeat_in_an_open_window_is_answered_before_it_ends(self):
        """A repeat that opens a 10 s bin is a hit as soon as its digest
        lands; it leaves the bin and nothing dispatches."""
        async def scenario():
            config = ServeConfig(window_seconds=10.0, max_batch_size=2)
            async with make_server(config) as server:
                first, other = fresh_gemm(20), fresh_gemm(21)
                # a full bin dispatches at once and caches both
                await asyncio.gather(server.submit(first),
                                     server.submit(other))
                assert server.stats()["batches"] == 1
                # answered in under half the window, or wait_for raises
                repeat = await asyncio.wait_for(server.submit(first), 5.0)
                assert repeat.ok and repeat.cache_hit
                stats = server.stats()
                assert stats["batches"] == 1
                assert stats["open_bins"] == 0
                assert stats["cache_hits"] == 1
                # the hit held a slot while it hashed, but was never
                # admitted to compute
                assert stats["admitted"] == 2
                assert stats["inflight"] == 0

        run(scenario())

    def test_operands_restored_after_a_later_response_leave_the_cache_right(
        self,
    ):
        """A store check lands before the cache check of any request
        admitted after that response.  A caller that zeroes A inside the
        window, gets its response, and puts A back once such a request
        has been answered leaves nothing wrong in the cache: a later
        request holding A's content misses and gets A·B."""
        async def scenario():
            config = ServeConfig(window_seconds=0.3)
            async with make_server(config) as server:
                rng = np.random.default_rng(13)
                a = np.asfortranarray(rng.standard_normal((128, 96)))
                b = np.asfortranarray(rng.standard_normal((96, 64)))
                original = a.copy(order="F")
                cached = fresh_gemm(14)
                assert (await server.submit(cached)).ok
                racing = asyncio.create_task(
                    server.submit(GemmRequest(a=a, b=b))
                )
                await asyncio.sleep(0.05)  # admitted, not yet dispatched
                a[:] = 0.0
                assert (await racing).ok
                # admitted after that response, answered from the cache
                assert (await server.submit(cached)).cache_hit
                a[:] = original
                await asyncio.sleep(0.3)  # a late store check would land
                again = await server.submit(
                    GemmRequest(a=original.copy(order="F"), b=b)
                )
                assert again.ok
                assert not again.cache_hit
                np.testing.assert_allclose(again.value, original @ b,
                                           atol=1e-9)

        run(scenario())

    def test_hits_in_flight_do_not_crowd_out_a_fresh_request(self):
        """Repeats that fill the in-flight window hold their slots only
        until their digests land, which is before a later request's: a
        fresh request that finds the window full of them is admitted."""
        async def scenario():
            config = ServeConfig(window_seconds=0.05, max_pending=2)
            async with make_server(config) as server:
                cached = fresh_gemm(50)
                assert (await server.submit(cached)).ok
                first, second, fresh = await asyncio.gather(
                    server.submit(cached),
                    server.submit(cached),
                    server.submit(fresh_gemm(51)),
                )
                assert first.cache_hit and second.cache_hit
                assert fresh.ok and not fresh.cache_hit
                stats = server.stats()
                assert stats["rejected"] == 0
                assert stats["admitted"] == stats["batched_requests"] == 2
                assert stats["cache_hits"] == 2
                assert stats["inflight"] == 0

        run(scenario())

    def test_repeat_without_a_window_is_a_hit(self):
        async def scenario():
            config = ServeConfig(window_seconds=0.0)
            async with make_server(config) as server:
                request = fresh_gemm(22)
                first = await server.submit(request)
                repeat = await server.submit(request)
                assert first.ok and not first.cache_hit
                assert repeat.ok and repeat.cache_hit
                np.testing.assert_array_equal(first.value, repeat.value)
                assert server.stats()["batches"] == 1

        run(scenario())

    def test_full_window_answers_hits_before_refusing(self):
        async def scenario():
            config = ServeConfig(window_seconds=10.0, max_batch_size=2,
                                 max_pending=2)
            async with make_server(config) as server:
                cached = fresh_gemm(23)
                await asyncio.gather(server.submit(cached),
                                     server.submit(fresh_gemm(24)))
                # two requests parked in separate 10 s bins fill the window
                parked = [
                    asyncio.create_task(server.submit(fresh_gemm(25))),
                    asyncio.create_task(
                        server.submit(fresh_gemm(26, m=256))
                    ),
                ]
                await asyncio.sleep(0)
                assert server.stats()["inflight"] == 2
                repeat = await server.submit(cached)
                assert repeat.ok and repeat.cache_hit
                refused = await server.submit(fresh_gemm(27))
                assert refused.rejected and refused.error.retryable
                await server.stop()
                assert all(r.ok for r in await asyncio.gather(*parked))

        run(scenario())

    def test_cache_off_hashes_nothing(self, monkeypatch):
        def no_hashing(request):
            raise AssertionError("cache_entries=0 must not hash")

        monkeypatch.setattr(GemmRequest, "content_hash", no_hashing)

        async def scenario():
            config = ServeConfig(cache_entries=0, window_seconds=0.01)
            async with make_server(config) as server:
                request = fresh_gemm(28)
                results = [await server.submit(request) for _ in range(2)]
                assert all(r.ok and not r.cache_hit for r in results)

        run(scenario())

    def test_concurrent_repeats_are_answered_once_and_right(self):
        """Stress: more submitters than cores, half of them repeats, with
        the interpreter switching threads often.  Every request is
        answered exactly once, by the cache or by a batch, and right."""
        async def scenario():
            config = ServeConfig(window_seconds=0.002, max_batch_size=4)
            async with make_server(config) as server:
                uniques = [fresh_gemm(40 + i, m=32, n=32, k=32)
                           for i in range(8)]
                requests = [uniques[i % 8] for i in range(48)]
                results = await asyncio.wait_for(
                    asyncio.gather(*(server.submit(r) for r in requests)),
                    timeout=120,
                )
                for request, result in zip(requests, results):
                    assert result.ok
                    np.testing.assert_allclose(
                        result.value, request.a @ request.b, atol=1e-9
                    )
                stats = server.stats()
                assert (stats["cache_hits"] + stats["batched_requests"]
                        == len(requests))
                assert stats["cache"]["hits"] == stats["cache_hits"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run(scenario())
        finally:
            sys.setswitchinterval(interval)

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
            async with make_server(config, tracer=SpanTracer()) as server:
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
    def test_default_server_keeps_no_spans(self):
        """A server that builds its own session traces nothing unless
        asked: a long-running server must not grow a span list."""
        async def scenario():
            async with make_server(ServeConfig(window_seconds=0.0)) as server:
                for seed in range(6):
                    assert (await server.submit(fresh_gemm(seed))).ok
                tracer = server.session.tracer
                assert not tracer.enabled
                assert not getattr(tracer, "spans", [])

        run(scenario())

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
            async with make_server(config, tracer=SpanTracer()) as server:
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

    def test_stop_right_after_cached_path_admissions(self):
        """``stop()`` racing requests whose digests are still running
        answers every one, lets every store land before the hash thread
        goes, and hands the loop's exception handler nothing."""
        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(
                lambda _, context: errors.append(context)
            )
            config = ServeConfig(window_seconds=10.0, max_batch_size=64)
            server = make_server(config)
            await server.start()
            cached = fresh_gemm(30)
            warm = asyncio.create_task(server.submit(cached))
            await asyncio.sleep(0)
            fresh = [fresh_gemm(31 + i) for i in range(4)]
            tasks = [asyncio.create_task(server.submit(r))
                     for r in [cached, *fresh, fresh[0]]]
            await asyncio.sleep(0)  # admitted; digests still running
            await server.stop()
            # every computed value was checked and stored before stop
            # returned: the five distinct requests are all cached.
            assert len(server.cache) == 5
            results = await asyncio.wait_for(
                asyncio.gather(warm, *tasks), timeout=60
            )
            assert all(r.ok for r in results)
            gc.collect()
            await asyncio.sleep(0)
            assert errors == []

        run(scenario())

    def test_stop_refuses_a_request_waiting_on_a_full_window(self):
        """A request that found the window full and waits for its digest
        is refused once ``stop()`` has begun, never queued behind it."""
        async def scenario():
            config = ServeConfig(window_seconds=10.0, max_pending=1)
            server = make_server(config)
            await server.start()
            parked = asyncio.create_task(server.submit(fresh_gemm(60)))
            await asyncio.sleep(0)  # takes the only slot
            waiting = asyncio.create_task(server.submit(fresh_gemm(61)))
            await asyncio.sleep(0)  # window full: waits for its digest
            await server.stop()
            assert (await parked).ok
            refused = await asyncio.wait_for(waiting, timeout=60)
            assert not refused.ok
            assert refused.error.kind == "ShutdownError"

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

"""The asyncio serving tier: admit, bin, coalesce, dispatch, respond.

:class:`ReproServer` fronts one :class:`~repro.core.session.Session`
with an async request surface.  The pipeline per request:

1. **admit** — a malformed request, or one whose operands cannot fit
   in one CG's main memory, is answered as invalid before it is
   hashed; a closed server turns the request away with a
   *structured* rejection (``RequestError``), never an exception.
   Otherwise the request's operands go to the hash thread and the
   request takes an in-flight slot and joins its bin at once.  Only
   when every slot is taken does it wait for its digest first, to be
   answered from the cache or, if the window is still full, refused
   with ``retryable=True`` (backpressure);
2. **cache** — when the digest lands, the operand cache is probed by
   content hash; a hit responds with a copied value and zero traffic
   and leaves its bin and its slot (a bin it leaves empty has its
   timer cancelled).  Hashing overlaps the coalescing window the
   request waits out anyway, and the dispatcher waits for any digest
   still running before a group executes, so every request checks
   the cache before it computes.  ``admitted`` counts a request once
   it holds a slot and has missed the cache, so hits never count;
3. **bin** — the request joins the open batch for its
   ``(shape_bin, options)`` key; the first arrival arms the coalescing
   window timer, a full bin dispatches early;
4. **dispatch** — filled bins flow through one FIFO to a dispatcher
   task that executes each on a single-worker thread pool (the
   scheduler below is one physical chip — a second in-flight batch
   would fight it for the same core groups), as
   ``Session.batch(parallel=True)``;
5. **respond** — every rider of the batch gets its own
   :class:`~repro.api.RequestResult` with per-request traffic and
   queue/service/total timing, and the SLO ledger records it.  A
   success is cached only under the digest it was computed from: its
   value is copied as the response is delivered, its operands are
   hashed again, and the copy is stored only if that second digest
   equals the first.  A caller that writes to its operands before the
   kernel read them gets the product of what the kernel read, and a
   later request holding the original content misses.  The second
   digest runs after the response is delivered: a caller that puts
   the original content back before it runs can still leave that
   product under the original content's key.  A caller that reuses
   its operand buffers is safe once a request admitted after its
   response has been answered (see the threading rule below).

Telemetry honours the tracer's reconciliation contract: the executor
thread opens one ``serve.batch`` span per dispatch and, still inside
it, emits one ``serve.request`` span per rider whose counter deltas
are exactly that request's attributed traffic — so
``tracer.counter_totals("serve.request")`` sums bit-exactly to
``Session.stats().traffic`` when all work flows through the server.

Threading discipline: bins, timers, the cache, the SLO ledger and all
counters are touched only on the event-loop thread; the executor
thread touches only the session and the tracer; the hash thread only
reads operands and returns digests.  There is one hash thread, so
digests land in the order they were asked for: a store's second
digest lands before the cache check of any request admitted after
that response, and every hit admitted before a request has left its
slot by the time that request's own digest lands.  A caller may
attach its own :class:`~repro.obs.series.MetricsSampler` to
:meth:`metrics_registry`; its thread only *reads* counters (plain
int/float loads under the GIL).

When ``config.metrics_port`` is set, :meth:`start` serves the
:meth:`openmetrics` exposition over a minimal asyncio HTTP endpoint
(``GET /metrics``, plus ``/healthz``).
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from repro.api import (
    DEFAULT_SUBMIT_OPTIONS,
    GemmRequest,
    RequestError,
    RequestResult,
    SubmitOptions,
    as_request,
    format_bin,
)
from repro.core.context import ContextStats
from repro.core.engine import check_engine
from repro.core.session import Session
from repro.errors import ConfigError, UnsupportedShapeError
from repro.obs.promexp import render_openmetrics
from repro.obs.registry import MetricsRegistry, flatten
from repro.serve.cache import OperandCache
from repro.serve.config import ServeConfig
from repro.serve.slo import BinReport, SLOTracker

__all__ = ["ReproServer"]

#: a coalescing key: the request's shape bin plus its effective options.
BinKey = tuple[tuple[Any, ...], SubmitOptions]


class _Pending:
    """One admitted request riding toward a dispatched batch.

    ``digest`` is the running content hash until the cache check has
    used it; ``cache_key`` is set by that check, and stays ``None``
    when the cache is off or the hash failed (computed, never stored).
    ``in_flight`` is set once the request holds an in-flight slot.
    """

    __slots__ = (
        "request",
        "options",
        "shape_bin",
        "bin_label",
        "digest",
        "cache_key",
        "in_flight",
        "future",
        "admitted_at",
    )

    def __init__(
        self,
        request: GemmRequest,
        options: SubmitOptions,
        shape_bin: tuple[Any, ...],
        future: "asyncio.Future[RequestResult]",
        admitted_at: float,
    ) -> None:
        self.request = request
        self.options = options
        self.shape_bin = shape_bin
        self.bin_label = format_bin(shape_bin)
        self.digest: "asyncio.Future[str] | None" = None
        self.cache_key: tuple[str, SubmitOptions] | None = None
        self.in_flight = False
        self.future = future
        self.admitted_at = admitted_at

    @property
    def bin_key(self) -> BinKey:
        return (self.shape_bin, self.options)


def _delta_meter(traffic: ContextStats) -> Callable[[], dict]:
    """A span meter whose before/after delta equals ``traffic``.

    The tracer samples a meter at span entry and exit and stores the
    difference; returning ``{}`` first and the flattened traffic
    second makes the span's counters exactly the request's attributed
    traffic (union-of-keys semantics treat the missing first sample
    as zero).
    """
    state = {"entered": False}

    def meter() -> dict:
        if not state["entered"]:
            state["entered"] = True
            return {}
        return flatten("ctx", traffic.as_dict())

    return meter


def _check_fits(shape: tuple[int, int, int], budget: int) -> None:
    """Refuse operands that can never fit in one CG's main memory.

    A, B and C of an ``(m, n, k)`` request take ``8*(m*k + k*n + m*n)``
    bytes once staged as float64.  Checking before :meth:`content_hash
    <repro.api.GemmRequest.content_hash>` keeps the hash thread from
    materializing an operand that staging would refuse anyway: an
    operand that is not float64 and C- or Fortran-contiguous (a
    broadcast view, say) is hashed through one conversion copy, made
    on the hash thread, not on the event loop.

    The bound is the logical footprint, which is what the default
    ``vectorized`` engine stages: padding stays in its model.  A request
    run with ``SubmitOptions(engine="device")`` (or ``"stepwise"``)
    stages its shape padded to the blocking it resolves to (see
    :meth:`~repro.multi.scheduler.CGScheduler.blocking_for`), so it
    can pass this check and fail staging with ``MemoryError``.
    """
    m, n, k = shape
    need = 8 * (m * k + k * n + m * n)
    if need > budget:
        raise UnsupportedShapeError(
            f"operands need {need} bytes as float64, over one core "
            f"group's {budget}-byte main memory"
        )


class ReproServer:
    """Async front end over one session; see the module docstring.

    Use as an async context manager::

        async with ReproServer(config=ServeConfig()) as server:
            result = await server.submit(GemmRequest(a, b))

    Pass ``session=`` to serve an existing session (the caller keeps
    ownership and closes it); otherwise the server builds its own
    session from the keyword arguments and closes it on exit.  That
    session is untraced unless ``tracer=`` is among them: a
    :class:`~repro.obs.tracer.SpanTracer` keeps every span, so a
    long-running server should attach one only while it is read.
    """

    def __init__(
        self,
        session: Session | None = None,
        config: ServeConfig | None = None,
        **session_kwargs: Any,
    ) -> None:
        if session is not None and session_kwargs:
            raise ConfigError(
                "pass session= or Session keyword arguments, not both"
            )
        self.config = config or ServeConfig()
        self._owns_session = session is None
        if session is None:
            session = Session(**session_kwargs)
        self.session = session
        self.cache = OperandCache(self.config.cache_entries)
        self.slo = SLOTracker()
        self.metrics_address: tuple[str, int] | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._registry: MetricsRegistry | None = None
        self._bins: dict[BinKey, list[_Pending]] = {}
        self._timers: dict[BinKey, asyncio.TimerHandle] = {}
        self._queue: "asyncio.Queue[list[_Pending] | None]" = asyncio.Queue()
        self._dispatcher: asyncio.Task[None] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._hasher: ThreadPoolExecutor | None = None
        #: digests and store checks still running on the hash thread.
        self._hashing: "set[asyncio.Future[str]]" = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = False
        self._closed = False
        self._inflight = 0
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._cache_hits = 0
        self._batches = 0
        self._batched_requests = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ReproServer":
        """Arm the dispatcher; idempotent until :meth:`stop`."""
        if self._closed:
            raise ConfigError("this ReproServer is closed")
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        # one worker on purpose: the scheduler multiplexes one chip's
        # core groups, so batches must execute one at a time.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        # one hash thread, so digests land in the order they were asked
        # for (a store's check before any later admission's probe).
        self._hasher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-hash"
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatch"
        )
        self._started = True
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._serve_metrics,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )
            sock = self._metrics_server.sockets[0]
            host, port = sock.getsockname()[:2]
            self.metrics_address = (str(host), int(port))
        return self

    async def stop(self) -> None:
        """Drain every admitted request, then tear down.

        New submissions are refused the moment ``stop`` begins, but
        everything already admitted is dispatched and answered — a
        clean shutdown drops zero responses.
        """
        if self._closed:
            return
        self._closed = True
        if not self._started:
            if self._owns_session:
                self.session.close()
            return
        for key in list(self._bins):
            self._flush_bin(key)
        await self._queue.put(None)
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        # the dispatcher schedules no more stores, and a closed server
        # hashes no new request: let what is running land first.
        if self._hashing:
            await asyncio.wait(list(self._hashing))
        for executor in (self._executor, self._hasher):
            if executor is not None:
                executor.shutdown(wait=True)
        self._executor = self._hasher = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._owns_session:
            self.session.close()

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> bool:
        await self.stop()
        return False

    # -- the request path ----------------------------------------------

    async def submit(
        self,
        request: GemmRequest,
        *,
        options: SubmitOptions | None = None,
    ) -> RequestResult:
        """Admit one request and await its structured response.

        A valid request joins its bin at once; its operands are hashed
        on the server's hash thread while it waits out the coalescing
        window, and a cache hit is answered as soon as its digest lands
        (see the module docstring).  Only a full in-flight window makes
        the caller wait for the digest: a hit is still answered, and a
        miss is refused as retryable backpressure if the window is
        still full then.

        Never raises for request-level failure — malformed shapes,
        operands too large for one CG's main memory, an unknown
        engine, backpressure, a failed execution and shutdown all
        come back as a :class:`~repro.api.RequestResult` carrying a
        typed :class:`~repro.api.RequestError`.  (Submitting on a
        server that was never started still raises: that is caller
        misuse.)
        """
        if not self._started:
            raise ConfigError(
                "ReproServer is not running — use 'async with' or start()"
            )
        start = time.monotonic()
        opts = options or DEFAULT_SUBMIT_OPTIONS
        if self._closed:
            return self._refused(
                "ShutdownError", "server is shutting down", retryable=False,
                start=start,
            )
        try:
            request = as_request(request)
            shape = request.validate()
            _check_fits(shape, self.session.processor.spec.main_memory_bytes)
            shape_bin = request.shape_bin(self.session.params)
            if opts.engine is not None:
                check_engine(opts.engine)
        except (ConfigError, UnsupportedShapeError) as exc:
            result = RequestResult(
                error=RequestError(kind=type(exc).__name__, message=str(exc)),
                traffic=ContextStats.zero(),
                total_seconds=time.monotonic() - start,
            )
            self.slo.record(
                "invalid", total_seconds=result.total_seconds, error=True
            )
            self._failed += 1
            return result

        assert self._loop is not None
        pending = _Pending(
            request, opts, shape_bin, self._loop.create_future(), start
        )
        if self.config.cache_entries:
            pending.digest = self._hash(request)
            pending.digest.add_done_callback(
                functools.partial(self._check_cache, pending)
            )
            if self._inflight >= self.config.max_pending:
                # a full window still answers hits before it refuses;
                # digests land in order, so every hit admitted earlier
                # has left its slot by the time this one lands.
                await asyncio.wait((pending.digest,))
        if pending.future.done():
            result = pending.future.result()
        elif self._closed:
            return self._refused(
                "ShutdownError", "server is shutting down", retryable=False,
                start=start,
            )
        elif self._inflight >= self.config.max_pending:
            return self._refused(
                "RejectedError",
                f"admission window is full ({self.config.max_pending} "
                "requests in flight) — retry later",
                retryable=True,
                start=start,
            )
        else:
            self._inflight += 1
            pending.in_flight = True
            if pending.digest is None:  # no cache, or it missed already
                self._admitted += 1
            self._enqueue(pending)
            try:
                result = await pending.future
            finally:
                self._inflight -= 1
        result = replace(result, total_seconds=time.monotonic() - start)
        if result.cache_hit:
            self._cache_hits += 1
            self._completed += 1
            self.slo.record(
                pending.bin_label,
                total_seconds=result.total_seconds,
                cache_hit=True,
            )
            return result
        if result.ok:
            self._completed += 1
        else:
            self._failed += 1
        gflops: float | None = None
        if result.ok and result.service_seconds > 0:
            m, n, k = shape
            gflops = 2.0 * m * n * k / result.service_seconds / 1e9
        dma_bytes: float | None = None
        if result.traffic is not None and result.traffic.dma_bytes > 0:
            dma_bytes = float(result.traffic.dma_bytes)
        self.slo.record(
            result.bin or pending.bin_label,
            total_seconds=result.total_seconds,
            queue_seconds=result.queue_seconds,
            service_seconds=result.service_seconds,
            error=not result.ok,
            gflops=gflops,
            dma_bytes=dma_bytes,
        )
        return result

    def _refused(
        self, kind: str, message: str, *, retryable: bool, start: float
    ) -> RequestResult:
        self._rejected += 1
        return RequestResult(
            error=RequestError(kind=kind, message=message, retryable=retryable),
            traffic=ContextStats.zero(),
            total_seconds=time.monotonic() - start,
        )

    # -- the operand cache (event-loop thread; hashing on the hash thread)

    def _hash(self, request: GemmRequest) -> "asyncio.Future[str]":
        """Hash ``request``'s operands on the hash thread."""
        assert self._loop is not None
        digest = self._loop.run_in_executor(
            self._hasher, request.content_hash
        )
        self._hashing.add(digest)
        digest.add_done_callback(self._hashing.discard)
        return digest

    def _check_cache(
        self, pending: _Pending, digest: "asyncio.Future[str]"
    ) -> None:
        """Probe the cache as ``pending``'s digest lands; answer a hit.

        The probe runs once per request.  A hit leaves its bin, so a
        bin of hits never dispatches; a failed hash leaves the request
        without a cache key, to be computed and never stored.  A miss
        that holds an in-flight slot counts as admitted.
        """
        pending.digest = None
        hit = False
        if not digest.cancelled() and digest.exception() is None:
            pending.cache_key = (digest.result(), pending.options)
            hit, value = self.cache.get(pending.cache_key)
        if not hit:
            if pending.in_flight:
                self._admitted += 1
            return
        if pending.future.done():
            return
        key = pending.bin_key
        group = self._bins.get(key)
        if group is not None and pending in group:
            group.remove(pending)
            if not group:
                self._flush_bin(key)  # cancels the timer, sends nothing
        pending.future.set_result(
            RequestResult(
                value=value,
                traffic=ContextStats.zero(),
                bin=pending.bin_label,
                cache_hit=True,
            )
        )

    def _store(self, pending: _Pending, value: np.ndarray) -> None:
        """Cache a computed value if its operands still hash to its key.

        Called as the response is delivered: the copy is taken now,
        since the caller owns ``value`` from here on, and it is stored
        only once a second digest, taken after the kernel ran, equals
        the one the request was checked under.
        """
        assert pending.cache_key is not None
        kept = value.copy()
        after = self._hash(pending.request)
        after.add_done_callback(
            functools.partial(self._stored, pending.cache_key, kept)
        )

    def _stored(
        self,
        key: tuple[str, SubmitOptions],
        value: np.ndarray,
        after: "asyncio.Future[str]",
    ) -> None:
        if (
            not after.cancelled()
            and after.exception() is None
            and after.result() == key[0]
        ):
            self.cache.put(key, value)

    # -- binning and coalescing (event-loop thread only) ---------------

    def _enqueue(self, pending: _Pending) -> None:
        if self.config.window_seconds == 0 or self.config.max_batch_size == 1:
            # a zero window means coalescing is off
            self._queue.put_nowait([pending])
            return
        key = pending.bin_key
        group = self._bins.setdefault(key, [])
        group.append(pending)
        if len(group) >= self.config.max_batch_size:
            self._flush_bin(key)
        elif len(group) == 1:
            assert self._loop is not None
            self._timers[key] = self._loop.call_later(
                self.config.window_seconds, self._flush_bin, key
            )

    def _flush_bin(self, key: BinKey) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        group = self._bins.pop(key, None)
        if group:
            self._queue.put_nowait(group)

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None
        while True:
            group = await self._queue.get()
            if group is None:
                return
            # every rider checks the cache before its group runs
            hashing = [p.digest for p in group if p.digest is not None]
            if hashing:
                await asyncio.wait(hashing)
            group = [p for p in group if not p.future.done()]
            if not group:
                continue
            self._batches += 1
            self._batched_requests += len(group)
            try:
                results = await self._loop.run_in_executor(
                    self._executor, self._execute, group
                )
            except Exception as exc:  # defensive: report, don't hang
                error = RequestError(
                    kind=type(exc).__name__, message=str(exc)
                )
                results = [
                    RequestResult(
                        error=error,
                        traffic=ContextStats.zero(),
                        bin=p.bin_label,
                    )
                    for p in group
                ]
            for pending, result in zip(group, results):
                if pending.future.done():
                    continue
                if result.value is not None and pending.cache_key is not None:
                    self._store(pending, result.value)
                pending.future.set_result(result)

    def _execute(self, group: list[_Pending]) -> list[RequestResult]:
        """Run one coalesced group as one ``Session.batch`` (executor thread)."""
        dispatch_start = time.monotonic()
        label = group[0].bin_label
        tracer = self.session.tracer
        with tracer.span(
            "serve.batch", cat="serve", items=len(group), bin=label
        ):
            batch = self.session.batch(
                [p.request for p in group], parallel=True, options=group[0].options
            )
            service = time.monotonic() - dispatch_start
            errors = {e.index: e for e in batch.errors}
            results: list[RequestResult] = []
            for i, pending in enumerate(group):
                err = errors.get(i)
                traffic = batch.item_traffic[i]
                result = RequestResult(
                    value=batch.outputs[i],  # None for a failed item
                    error=(
                        None if err is None
                        else RequestError(kind=err.kind, message=err.message)
                    ),
                    traffic=traffic,
                    bin=pending.bin_label,
                    queue_seconds=dispatch_start - pending.admitted_at,
                    service_seconds=service,
                    attrs={
                        "blocking": batch.blocking[i],
                        "blocking_source": batch.blocking_sources[i],
                        "core_group": batch.plan.assignments[i],
                    },
                )
                # one serve.request span per rider, nested in the still-
                # open serve.batch span; the delta meter makes each
                # span's counters exactly that request's attributed
                # traffic.
                with tracer.span(
                    "serve.request",
                    cat="serve",
                    meter=_delta_meter(traffic),
                    bin=pending.bin_label,
                    ok=result.ok,
                ):
                    pass
                results.append(result)
        return results

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Flat server counters plus nested cache counters."""
        return {
            "admitted": self._admitted,
            "rejected": self._rejected,
            "completed": self._completed,
            "failed": self._failed,
            "cache_hits": self._cache_hits,
            "batches": self._batches,
            "batched_requests": self._batched_requests,
            "inflight": self._inflight,
            "open_bins": len(self._bins),
            "cache": self.cache.stats(),
        }

    def slo_report(self) -> tuple[BinReport, ...]:
        """Per-bin p50/p95/p99 latency reports (sorted by bin label)."""
        return self.slo.report()

    def register_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Bind the server's own counters into a metrics registry.

        Namespaces: ``serve.*`` (admission/dispatch counters, cache
        counters under ``serve.cache.*``), ``slo.<bin>.*`` (per-bin
        counts and percentile seconds), and — when the session's
        tracer keeps span totals —
        ``serve.request.ctx.*``, the summed per-request span deltas
        that reconcile bit-exactly with ``session.traffic.*``.

        Session-level namespaces (``cg0.dma.*``, ``plan.cache.*``,
        ``session.*``) are *not* registered here — pass a
        ``Session.metrics_registry()`` in (what :meth:`metrics_registry`
        does) to get both address spaces without collisions.
        """
        registry.register("serve", self.stats)
        registry.register("slo", self.slo.snapshot)
        tracer = self.session.tracer
        if hasattr(tracer, "counter_totals"):
            registry.register(
                "serve.request",
                lambda: tracer.counter_totals("serve.request"),
            )
        return registry

    def metrics_registry(self) -> MetricsRegistry:
        """The server's full counter address space (built once).

        Composes the session's registry (device, NoC, plan-cache and
        session accounting) with the serve-local
        sources of :meth:`register_metrics`.  This is the registry the
        ``/metrics`` endpoint reads and a caller's sampler attaches to.
        """
        if self._registry is None:
            self._registry = self.register_metrics(
                self.session.metrics_registry()
            )
        return self._registry

    def openmetrics(self) -> str:
        """One OpenMetrics text scrape: every counter plus histograms."""
        return render_openmetrics(
            self.metrics_registry().snapshot(),
            self.slo.histogram_families(),
        )

    async def _serve_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange on the exposition endpoint.

        Deliberately minimal: read the request line, drain headers,
        answer ``/metrics`` (OpenMetrics), ``/healthz`` (liveness) or
        404, close.  Rendering happens on the event-loop thread, which
        is safe — every source read is a lock-held or GIL-atomic
        counter snapshot.
        """
        try:
            request_line = await reader.readline()
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            path = path.split("?", 1)[0]
            if path in ("/metrics", "/"):
                status = "200 OK"
                ctype = (
                    "application/openmetrics-text; "
                    "version=1.0.0; charset=utf-8"
                )
                body = self.openmetrics().encode("utf-8")
            elif path == "/healthz":
                status = "200 OK"
                ctype = "text/plain; charset=utf-8"
                body = b"ok\n"
            else:
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
                body = b"not found\n"
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # a scraper hanging up mid-exchange is not an error
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform noise
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "closed" if self._closed
            else "running" if self._started else "new"
        )
        return (
            f"ReproServer({state}, admitted={self._admitted}, "
            f"batches={self._batches}, inflight={self._inflight})"
        )

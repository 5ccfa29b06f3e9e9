"""Continuous sampling: registry snapshots into ring-buffer time series.

A :class:`~repro.obs.registry.MetricsRegistry` gives one flat counter
address space, but it is pull-only: a caller takes snapshots and diffs
them after the fact.  This module records the history between two
such snapshots, so a run's counters can be attributed to the windows
in which they moved:

- :class:`TimeSeries` — one counter's recent ``(t, value)`` points in a
  fixed-size ring (memory is O(capacity) forever);
- :class:`MetricsSampler` — a daemon thread that snapshots a registry
  every ``period_seconds`` into one :class:`TimeSeries` per counter.
  Nothing starts one implicitly: a caller attaches it to a
  :meth:`Session.metrics_registry
  <repro.core.session.Session.metrics_registry>`, a
  :meth:`CGScheduler.metrics_registry
  <repro.multi.scheduler.CGScheduler.metrics_registry>` or a
  :meth:`ReproServer.metrics_registry
  <repro.serve.server.ReproServer.metrics_registry>` for as long as it
  wants every counter those expose as a live series.

Because registry snapshots telescope — consecutive window deltas sum
to last-minus-first — summing a sampler's deltas over a whole run
reconciles bit-exactly with ``Session.stats().traffic``, the same
contract the tracer's span deltas honour (property-tested).

Sampling stays off the hot path: sources are read by the sampler
thread under the GIL (plain int/float counter reads, never locks held
by workers), and one full sample costs a few hundred microseconds, so
a 10 ms period steals only a few percent of GIL time from the serving
path (``benchmarks/bench_telemetry.py --smoke`` measures it and gates
against regressions such as sampling moving onto the request path).
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from time import monotonic

from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry

__all__ = ["MetricsSampler", "TimeSeries"]


class TimeSeries:
    """A fixed-capacity ring of ``(time, value)`` points for one counter."""

    __slots__ = ("capacity", "_times", "_values", "_next", "_size")

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ConfigError(f"capacity must be >= 2, got {capacity}")
        self.capacity = int(capacity)
        self._times: list[float] = [0.0] * self.capacity
        self._values: list[float] = [0.0] * self.capacity
        self._next = 0
        self._size = 0

    def push(self, t: float, value: float) -> None:
        """Append one point, overwriting the oldest when full."""
        self._times[self._next] = t
        self._values[self._next] = value
        self._next = (self._next + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

    def __len__(self) -> int:
        return self._size

    def points(self) -> list[tuple[float, float]]:
        """Every retained point, oldest first."""
        if self._size < self.capacity:
            idx = range(self._size)
        else:
            idx = range(self._next, self._next + self.capacity)
        return [
            (self._times[i % self.capacity], self._values[i % self.capacity])
            for i in idx
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeSeries({self._size}/{self.capacity} points)"


class MetricsSampler:
    """A background thread sampling one registry into time series.

    Use as a context manager (or :meth:`start`/:meth:`stop`)::

        sampler = MetricsSampler(session.metrics_registry(),
                                 period_seconds=0.01)
        with sampler:
            session.batch(items, parallel=True)
        total = sum(d for _, d in sampler.deltas("session.traffic.dma_bytes"))

    :meth:`sample_once` takes an immediate sample on the calling thread
    (the sampler need not be running), which is how tests pin exact
    window boundaries and how :meth:`stop` guarantees a final sample at
    shutdown — so the last window always covers the full run.  A
    registry source raising is counted in ``errors`` and never kills
    the thread.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        period_seconds: float = 0.01,
        capacity: int = 512,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        if period_seconds <= 0:
            raise ConfigError(
                f"period_seconds must be > 0, got {period_seconds}"
            )
        self.registry = registry
        self.period_seconds = float(period_seconds)
        self.capacity = int(capacity)
        self.clock = clock
        self.samples = 0
        self.errors = 0
        self._series: dict[str, TimeSeries] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MetricsSampler":
        """Arm the sampling thread (idempotent while running)."""
        if self.running:
            return self
        self._stop.clear()
        self.sample_once()  # t=0 baseline so the first window is complete
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (idempotent)."""
        thread = self._thread
        self._stop.set()
        if thread is not None:
            thread.join()
            self._thread = None
            self.sample_once()  # the closing boundary of the last window

    def __enter__(self) -> "MetricsSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> bool:
        self.stop()
        return False

    def _run(self) -> None:
        while not self._stop.wait(self.period_seconds):
            self.sample_once()

    # -- sampling -----------------------------------------------------

    def sample_once(self) -> dict:
        """Take one sample now; returns the raw snapshot dict."""
        t = self.clock()
        try:
            snapshot = self.registry.snapshot()
        except Exception:
            with self._lock:
                self.errors += 1
            return {}
        with self._lock:
            for name, value in snapshot.items():
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = TimeSeries(self.capacity)
                series.push(t, float(value))
            self.samples += 1
        return snapshot

    # -- reading ------------------------------------------------------

    def series(self, name: str) -> TimeSeries | None:
        """The ring buffer for one counter (``None`` if never seen)."""
        with self._lock:
            return self._series.get(name)

    def deltas(self, name: str) -> list[tuple[float, float]]:
        """Per-window ``(t, value_delta)`` pairs between samples.

        Consecutive deltas telescope: their sum equals the last sample
        minus the first, which is what makes sampler windows reconcile
        bit-exactly with cumulative session accounting.
        """
        series = self.series(name)
        if series is None:
            return []
        pts = series.points()
        return [
            (t1, v1 - v0) for (_, v0), (t1, v1) in zip(pts, pts[1:])
        ]

    def stats(self) -> dict[str, float]:
        """Self-telemetry (a registry source: ``sampler.*``)."""
        with self._lock:
            return {
                "samples": float(self.samples),
                "errors": float(self.errors),
                "series": float(len(self._series)),
                "period_seconds": self.period_seconds,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else "stopped"
        return (
            f"MetricsSampler({state}, {self.samples} samples, "
            f"{len(self._series)} series @ {self.period_seconds * 1e3:.0f} ms)"
        )

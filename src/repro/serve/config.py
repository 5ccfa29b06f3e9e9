"""Serving-tier configuration: one frozen knob set for the server.

Every latency/throughput trade the server makes is a field here —
the coalescing window, the batch-size cap, the admission bound, the
operand-cache capacity — so a deployment is one dataclass literal and
tests can pin exact behaviour (``window_seconds=0`` disables
coalescing entirely; ``max_pending=1`` serializes admission).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.ReproServer`.

    The defaults serve the simulated chip sensibly: a short coalescing
    window (long enough that concurrent same-bin submitters land in
    one dispatch, short enough to stay invisible at human timescales),
    batches capped at twice the chip's CG count, and backpressure at
    64 in-flight requests.
    """

    #: seconds a shape bin waits for company before dispatching; ``0``
    #: dispatches every request alone (coalescing off).
    window_seconds: float = 0.02
    #: a bin dispatches early once it holds this many requests.
    max_batch_size: int = 8
    #: admission bound: requests in flight (queued or executing)
    #: beyond which new submissions are rejected with a retryable
    #: ``RejectedError``.
    max_pending: int = 64
    #: operand-cache capacity in entries; ``0`` disables the cache.
    cache_entries: int = 128
    #: TCP port for the OpenMetrics exposition endpoint (``0`` binds an
    #: ephemeral port); ``None`` disables the endpoint.
    metrics_port: int | None = None
    #: bind host for the exposition endpoint.
    metrics_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.window_seconds < 0:
            raise ConfigError(
                f"window_seconds must be >= 0, got {self.window_seconds}"
            )
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_pending < 1:
            raise ConfigError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.cache_entries < 0:
            raise ConfigError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ConfigError(
                f"metrics_port must be in [0, 65535], got {self.metrics_port}"
            )

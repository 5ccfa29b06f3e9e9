"""A deterministic load generator: the serving tier's test harness.

Produces a seeded GEMM request stream shaped like real traffic: shapes
drawn from a small set of templates (so same-bin requests exist to
coalesce), and a fraction of *exact repeats* of earlier requests (so
the operand cache has something to hit).  Determinism matters — the
CLI smoke test and the integration tests assert exact zero-drop
counts, and a seeded generator makes those assertions reproducible.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.api import GemmRequest, RequestResult
from repro.core.params import BlockingParams
from repro.serve.server import ReproServer

__all__ = ["LoadGenerator"]


class LoadGenerator:
    """Seeded GEMM workload generator over a server's request surface.

    ``params`` sizes the GEMM templates to the session's blocking
    factors so most requests pad cleanly into a few shared bins;
    ``repeat_fraction`` of requests re-submit an earlier request
    verbatim (identical operands, identical options) to exercise the
    operand cache.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        params: BlockingParams | None = None,
        repeat_fraction: float = 0.25,
    ) -> None:
        self.params = params or BlockingParams.small(double_buffered=True)
        self.repeat_fraction = float(repeat_fraction)
        self._rng = np.random.default_rng(seed)
        self._history: list[GemmRequest] = []

    def _gemm_templates(self) -> list[tuple[int, int, int]]:
        bm, bn, bk = self.params.b_m, self.params.b_n, self.params.b_k
        return [
            (2 * bm, bn, bk),
            (bm, 2 * bn, bk),
            (bm, bn, 2 * bk),
            (2 * bm, 2 * bn, bk),
        ]

    def _make_gemm(self) -> GemmRequest:
        templates = self._gemm_templates()
        m, n, k = templates[int(self._rng.integers(len(templates)))]
        a = self._rng.standard_normal((m, k))
        b = self._rng.standard_normal((k, n))
        if self._rng.random() < 0.5:
            c = self._rng.standard_normal((m, n))
            return GemmRequest(a=a, b=b, c=c, alpha=1.0, beta=1.0)
        return GemmRequest(a=a, b=b)

    def generate(self, count: int) -> list[GemmRequest]:
        """``count`` requests, some of them exact repeats."""
        requests: list[GemmRequest] = []
        for _ in range(count):
            if self._history and self._rng.random() < self.repeat_fraction:
                pick = int(self._rng.integers(len(self._history)))
                requests.append(self._history[pick])
                continue
            request = self._make_gemm()
            self._history.append(request)
            requests.append(request)
        return requests

    async def run(
        self,
        server: ReproServer,
        requests: list[GemmRequest],
        *,
        concurrency: int = 16,
    ) -> list[RequestResult]:
        """Submit every request concurrently; results in request order.

        ``concurrency`` bounds simultaneous submissions (a semaphore),
        modelling a client pool of that size.  Every request gets a
        response — rejections come back as structured results, so the
        returned list always has ``len(requests)`` entries.
        """
        semaphore = asyncio.Semaphore(max(1, concurrency))

        async def one(request: GemmRequest) -> RequestResult:
            async with semaphore:
                return await server.submit(request)

        return list(await asyncio.gather(*(one(r) for r in requests)))

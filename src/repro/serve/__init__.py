"""The async serving tier over the simulated chip (see ``server.py``).

Public surface::

    from repro.serve import ReproServer, ServeConfig, LoadGenerator

    async with ReproServer(config=ServeConfig(window_seconds=0.02)) as s:
        result = await s.submit(GemmRequest(a, b))

The tier takes :class:`~repro.api.GemmRequest`, the one request kind
in :mod:`repro.api`, and answers with its typed results; it adds
coalescing, admission control, an operand cache, and per-bin SLO
reporting on top of the synchronous
:class:`~repro.core.session.Session`, running every coalesced group
as one ``Session.batch``.
"""

from repro.serve.cache import OperandCache
from repro.serve.client import LoadGenerator
from repro.serve.config import ServeConfig
from repro.serve.server import ReproServer
from repro.serve.slo import BinReport, SLOTracker

__all__ = [
    "BinReport",
    "LoadGenerator",
    "OperandCache",
    "ReproServer",
    "SLOTracker",
    "ServeConfig",
]

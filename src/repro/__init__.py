"""repro — a simulated reproduction of the SW26010 DGEMM paper.

    Jiang, Yang, Ao, Yin, Ma, Sun, Liu, Lin, Zhang:
    "Towards Highly Efficient DGEMM on the Emerging SW26010 Many-core
    Processor", ICPP 2017.

The package provides:

- a functional device model of one SW26010 core group
  (:mod:`repro.arch`): 64 CPEs with 64 KB LDMs on an 8x8 mesh, register
  communication, and a DMA engine implementing the PE_MODE / ROW_MODE
  data distributions;
- the paper's DGEMM in five stages of optimization
  (:mod:`repro.core`): RAW, PE, ROW, DB, SCHED, all validated against
  numpy on the device model;
- a cycle-level model of the CPE dual pipeline (:mod:`repro.isa`)
  reproducing the Algorithm 3 instruction-scheduling results;
- performance models (:mod:`repro.perf`) that regenerate Figures 4, 6
  and 7 and the Sec III-C/IV-C analyses (:mod:`repro.experiments`).

Quick start — the :class:`~repro.core.session.Session` facade is the
documented entry point (it owns the device, keeps staging warm, and
can dispatch batches across the chip's four core groups)::

    import numpy as np
    from repro import GemmRequest, Session

    with Session(n_core_groups=4) as s:
        c = s.dgemm(np.random.rand(128, 768), np.random.rand(768, 256))
        r = s.batch([GemmRequest(a, b) for a, b in pairs])
        print(s.stats())

The functional entry points remain available for code that manages
devices explicitly: ``dgemm`` runs one multiply on one core group,
``CGScheduler`` runs a batch of them across a core-group pool, and
``dgemm_multi_cg`` splits one multiply into column panels over the
chip's core groups.

The typed request surface (:mod:`repro.api`) is the structured
alternative: build a :class:`~repro.api.GemmRequest` /
:class:`~repro.api.ConvRequest` / :class:`~repro.api.LuRequest` and
``Session.submit`` it for a :class:`~repro.api.RequestResult` with
per-request traffic and typed errors — or serve the same requests
asynchronously with coalescing, admission control, an operand cache
and SLO reporting through :mod:`repro.serve`::

    from repro import GemmRequest
    from repro.serve import ReproServer, ServeConfig

    async with ReproServer(config=ServeConfig()) as server:
        result = await server.submit(GemmRequest(a, b))

Telemetry (:mod:`repro.obs`) is opt-in: pass ``tracer=SpanTracer()``
to a session (or to ``dgemm``/``CGScheduler`` directly) and every
phase — staging, per-panel multiplies, stores, dispatch — records its
wall time and counter deltas, exportable as a Perfetto-loadable Chrome
trace::

    from repro import Session, SpanTracer, write_chrome_trace

    tracer = SpanTracer()
    with Session(n_core_groups=4, tracer=tracer) as s:
        s.batch(items)
    write_chrome_trace(tracer.spans, "trace.json")
"""

from repro._version import __version__
from repro.api import (
    ConvRequest,
    GemmRequest,
    LuRequest,
    RequestError,
    RequestResult,
    SubmitOptions,
)
from repro.arch import CoreGroup, SW26010Spec, DEFAULT_SPEC
from repro.core import (
    BlockingParams,
    Session,
    SessionStats,
    dgemm,
    reference_dgemm,
)
from repro.multi import (
    CGScheduler,
    ScheduleResult,
    SW26010Processor,
    dgemm_multi_cg,
)
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    chrome_trace,
    phase_report,
    write_chrome_trace,
)
from repro.perf import Estimator, TimelineSimulator

__all__ = [
    "__version__",
    "CoreGroup",
    "SW26010Spec",
    "DEFAULT_SPEC",
    "BlockingParams",
    "Session",
    "SessionStats",
    "GemmRequest",
    "LuRequest",
    "ConvRequest",
    "SubmitOptions",
    "RequestResult",
    "RequestError",
    "dgemm",
    "reference_dgemm",
    "CGScheduler",
    "ScheduleResult",
    "SW26010Processor",
    "dgemm_multi_cg",
    "Estimator",
    "TimelineSimulator",
    "MetricsRegistry",
    "SpanTracer",
    "chrome_trace",
    "phase_report",
    "write_chrome_trace",
]

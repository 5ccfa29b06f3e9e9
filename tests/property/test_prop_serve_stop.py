"""Property: ``ReproServer.stop()`` resolves every caller, whatever the timing.

Hypothesis draws a submission schedule against a live server: 1-12
requests with gaps of 0, 1, 5 or 20 ms between them, some repeating an
earlier request's content so that cache hits race ``stop()``; the
caller tasks to cancel, each right after its own gap; the submission
at which ``stop()`` begins; and the server's ``window_seconds`` and
``max_pending``.  Whatever the draw:

- ``stop()`` returns within 10 s;
- every caller task finishes, and is cancelled only if the draw
  cancelled it;
- every other caller gets a result that is ok, a ``ShutdownError`` or
  a ``RejectedError``;
- the server ends with no request in flight and no open bin, and the
  event loop's exception handler is handed nothing.
"""

import asyncio
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api import GemmRequest
from repro.core.params import BlockingParams
from repro.serve import ReproServer, ServeConfig

PARAMS = BlockingParams.small(double_buffered=True)
TIMEOUT = 10.0
GAPS = st.sampled_from([0.0, 0.001, 0.005, 0.02])


def _request(seed):
    rng = np.random.default_rng(seed)
    return GemmRequest(rng.standard_normal((64, 64)),
                       rng.standard_normal((64, 64)))


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 12))
    seeds = []
    for i in range(n):
        repeat = i > 0 and draw(st.booleans())
        seeds.append(seeds[draw(st.integers(0, i - 1))] if repeat else i)
    return {
        "seeds": seeds,
        "gaps": draw(st.lists(GAPS, min_size=n, max_size=n)),
        "cancel": draw(st.sets(st.integers(0, n - 1))),
        "stop_at": draw(st.integers(0, n - 1)),
    }


async def _serve(schedule, config):
    """Run ``schedule`` against a fresh server; returns what the loop's
    exception handler was handed."""
    loop = asyncio.get_running_loop()
    handled = []
    loop.set_exception_handler(lambda _, context: handled.append(context))
    server = ReproServer(config=config, params=PARAMS, n_core_groups=2)
    await server.start()
    tasks = []
    for i, (seed, gap) in enumerate(zip(schedule["seeds"], schedule["gaps"])):
        tasks.append(asyncio.create_task(server.submit(_request(seed))))
        if i == schedule["stop_at"]:
            stop_began = time.monotonic()
            stopping = asyncio.create_task(server.stop())
        await asyncio.sleep(gap)
        if i in schedule["cancel"]:
            tasks[i].cancel()

    done, _ = await asyncio.wait({stopping}, timeout=TIMEOUT)
    assert stopping in done, "stop() hung"
    stopping.result()
    assert time.monotonic() - stop_began < TIMEOUT
    _, unresolved = await asyncio.wait(tasks, timeout=TIMEOUT)
    assert not unresolved, f"{len(unresolved)} callers never resolved"
    for i, task in enumerate(tasks):
        if task.cancelled():
            assert i in schedule["cancel"], f"caller {i} was cancelled"
            continue
        result = task.result()
        assert result.ok or result.error.kind in (
            "ShutdownError", "RejectedError"), result.error
    stats = server.stats()
    assert (stats["inflight"], stats["open_bins"]) == (0, 0)
    return handled


@settings(max_examples=25, deadline=None)
@given(schedule=schedules(),
       window=st.sampled_from([0.0, 0.01, 0.05]),
       max_pending=st.sampled_from([2, 64]))
def test_stop_resolves_every_caller(schedule, window, max_pending):
    config = ServeConfig(window_seconds=window, max_pending=max_pending)
    assert asyncio.run(_serve(schedule, config)) == []

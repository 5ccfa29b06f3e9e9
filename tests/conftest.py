"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api import GemmRequest
from repro.arch import CoreGroup, SW26010Spec
from repro.core.params import BlockingParams


@pytest.fixture()
def spec() -> SW26010Spec:
    return SW26010Spec()


@pytest.fixture()
def cg(spec: SW26010Spec) -> CoreGroup:
    return CoreGroup(spec)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def small_single() -> BlockingParams:
    """Scaled-down single-buffered params for fast functional runs."""
    return BlockingParams.small(double_buffered=False)


@pytest.fixture()
def small_double() -> BlockingParams:
    """Scaled-down double-buffered params for fast functional runs."""
    return BlockingParams.small(double_buffered=True)


@pytest.fixture()
def small_memory_spec() -> SW26010Spec:
    """16 MiB of main memory per CG: the small-blocking test workloads
    peak under 1 MiB per CG, and :func:`unstageable` does not fit."""
    return replace(SW26010Spec(), main_memory_bytes=16 * 2**20)


@pytest.fixture()
def unstageable() -> GemmRequest:
    """A GEMM whose B (128 x 32768, 32 MiB) outgrows
    ``small_memory_spec``: staging raises ``MemoryError`` after A is
    staged, on every engine.  B is a broadcast view, so the host never
    holds those 32 MiB."""
    return GemmRequest(np.ones((128, 128)), np.broadcast_to(1.0, (128, 32768)))


@pytest.fixture()
def fits_only_logically() -> tuple[SW26010Spec, GemmRequest]:
    """A 4 MiB CG and a GEMM that fits it only unpadded: A 128x769 and
    B 769x256 take 2.6 MB, but SCHED's paper blocking pads k to 1536
    (5.0 MB).  The default engine stages the logical extents."""
    rng = np.random.default_rng(27)
    request = GemmRequest(rng.standard_normal((128, 769)),
                          rng.standard_normal((769, 256)))
    return replace(SW26010Spec(), main_memory_bytes=4 * 2**20), request

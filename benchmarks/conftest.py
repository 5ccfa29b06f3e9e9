"""Shared helpers for the benchmark harness.

Every ``bench_*`` module regenerates one of the paper's tables or
figures: the benchmarked callable *is* the experiment, and after timing
it the test prints the same rows/series the paper reports (visible in
the pytest-benchmark run via ``capsys.disabled``).
"""

from __future__ import annotations

import os

import pytest

# Host BLAS runs on one thread, as in ``perfbench/run.py``: a
# multithreaded serial leg would borrow the cores a parallel leg's CG
# workers need.  numpy is not loaded yet when pytest imports this file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


@pytest.fixture()
def show(capsys):
    """Print a table to the real terminal even under capture."""

    def _show(renderable) -> None:
        with capsys.disabled():
            print()
            print(renderable if isinstance(renderable, str) else renderable.render())

    return _show

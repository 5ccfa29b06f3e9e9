"""Session.batch accounting and options, and thread-safe close."""

import threading

import numpy as np
import pytest

from repro.api import SubmitOptions
from repro.core.context import ContextStats
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.errors import ConfigError
from repro.workloads.matrices import mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)


class TestTrafficReconciliation:
    def test_batch_item_traffic_partitions_batch_traffic(self):
        items = mixed_batch(6, params=PARAMS, seed=5)
        with Session(params=PARAMS, n_core_groups=2) as s:
            result = s.batch(items, parallel=True)
            assert len(result.item_traffic) == len(items)
            total = ContextStats.zero()
            for item in result.item_traffic:
                total = total.plus(item)
            assert total.as_dict() == result.traffic.as_dict()


class TestBatchOptions:
    def test_engine_override_applies_per_batch(self):
        items = mixed_batch(3, params=PARAMS, seed=6)
        with Session(params=PARAMS, n_core_groups=2) as s:
            forced = s.batch(items, options=SubmitOptions(engine="device"))
            default = s.batch(items)
            assert forced.ok and default.ok
            for x, y in zip(forced.outputs, default.outputs):
                np.testing.assert_allclose(x, y, atol=1e-9)


class TestCloseConcurrency:
    def test_close_waits_out_inflight_batch(self):
        items = mixed_batch(6, params=PARAMS, seed=7)
        s = Session(params=PARAMS, n_core_groups=2)
        results = {}

        def run_batch():
            try:
                results["batch"] = s.batch(items, parallel=True)
            except ConfigError:
                results["refused"] = True

        worker = threading.Thread(target=run_batch)
        worker.start()
        s.close()
        worker.join()
        # the batch either completed cleanly before the close landed
        # or was refused outright — never half-executed.
        if "batch" in results:
            assert results["batch"].ok
        else:
            assert results.get("refused")
        with pytest.raises(ConfigError):
            s.batch(items)

    def test_double_close_from_two_threads(self):
        s = Session(params=PARAMS, n_core_groups=2)
        s.batch(mixed_batch(2, params=PARAMS, seed=8))
        threads = [threading.Thread(target=s.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with pytest.raises(ConfigError):
            s.dgemm(np.eye(8), np.eye(8))

"""Session.submit (typed requests) and thread-safe close/accounting."""

import threading

import numpy as np
import pytest

from repro.api import (
    ConvRequest,
    GemmRequest,
    LuRequest,
    SubmitOptions,
)
from repro.core.context import ContextStats
from repro.core.params import BlockingParams
from repro.core.reference import reference_dgemm
from repro.core.session import Session
from repro.errors import ConfigError
from repro.workloads.matrices import gemm_operands, mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)


class TestSubmitGemm:
    def test_returns_value_and_bin(self):
        with Session(params=PARAMS, n_core_groups=2) as s:
            a, b, c = gemm_operands(100, 60, 70, seed=0)
            result = s.submit(GemmRequest(a=a, b=b, c=c, beta=1.0))
            assert result.ok
            assert result.bin.startswith("gemm:")
            expected = reference_dgemm(1.0, a, b, 1.0, c)
            np.testing.assert_allclose(result.value, expected, atol=1e-9)

    def test_malformed_request_is_a_structured_error(self):
        with Session(params=PARAMS, n_core_groups=2) as s:
            result = s.submit(
                GemmRequest(a=np.zeros((4, 3)), b=np.zeros((5, 2)))
            )
            assert not result.ok
            assert result.error.kind == "UnsupportedShapeError"
            assert "inner dimensions" in result.error.message
            assert result.traffic == ContextStats.zero()

    def test_non_request_is_a_structured_error(self):
        with Session(params=PARAMS, n_core_groups=2) as s:
            result = s.submit([np.eye(4), np.eye(4)])
            assert not result.ok
            assert result.error.kind == "ConfigError"


class TestSubmitConvAndLu:
    def test_conv_folds_back_to_feature_maps(self):
        rng = np.random.default_rng(2)
        request = ConvRequest(
            images=rng.standard_normal((2, 2, 8, 8)),
            kernels=rng.standard_normal((3, 2, 3, 3)),
        )
        with Session(params=PARAMS, n_core_groups=2) as s:
            result = s.submit(request)
            assert result.ok
            assert result.bin.startswith("conv:")
            assert result.value.shape == request.fold_shape()
            gemm = request.lower()
            expected = request.fold(np.asarray(gemm.a) @ np.asarray(gemm.b))
            np.testing.assert_allclose(result.value, expected, atol=1e-9)

    def test_lu_runs_on_the_scalar_context(self):
        rng = np.random.default_rng(3)
        n = 48
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        with Session(params=PARAMS, n_core_groups=2) as s:
            result = s.submit(LuRequest(a=a, panel=16))
            assert result.ok
            assert result.bin == f"lu:{n}x16"
            from repro.apps.lu import lu_residual

            assert lu_residual(a, result.value) < 50

    def test_lu_failure_is_structured(self):
        with Session(params=PARAMS, n_core_groups=1) as s:
            result = s.submit(LuRequest(a=np.zeros((16, 16))))
            assert not result.ok
            assert result.error.kind == "ConfigError"
            assert "singular" in result.error.message


class TestTrafficReconciliation:
    def test_per_request_traffic_sums_to_session_stats(self):
        rng = np.random.default_rng(4)
        requests = [
            GemmRequest(*gemm_operands(100, 60, 70, seed=0)[:2]),
            ConvRequest(
                images=rng.standard_normal((1, 2, 6, 6)),
                kernels=rng.standard_normal((2, 2, 3, 3)),
            ),
            LuRequest(
                a=rng.standard_normal((32, 32)) + 32 * np.eye(32), panel=8
            ),
            GemmRequest(a=np.zeros((4, 3)), b=np.zeros((5, 2))),  # fails
        ]
        with Session(params=PARAMS, n_core_groups=2) as s:
            total = ContextStats.zero()
            for request in requests:
                total = total.plus(s.submit(request).traffic)
            assert total.as_dict() == s.stats().traffic.as_dict()

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

"""Unit tests for the typed request/response surface (repro.api)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    GemmRequest,
    RequestError,
    RequestResult,
    SubmitOptions,
    as_request,
    format_bin,
)
from repro.core.api import dgemm
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.errors import ConfigError, UnsupportedShapeError
from repro.multi.dgemm4 import dgemm_multi_cg
from repro.multi.scheduler import CGScheduler

PARAMS = BlockingParams.small(double_buffered=True)

LAYOUTS = st.sampled_from(["C", "F", "strided", "int"])


def _in_layout(x: np.ndarray, layout: str) -> np.ndarray:
    """``x``'s values in one memory layout or dtype."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "int":
        return x.astype(np.int64)
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    return wide[:, ::2]  # a non-contiguous view


class TestGemmRequest:
    def test_validate_returns_effective_shape(self):
        r = GemmRequest(a=np.zeros((10, 7)), b=np.zeros((7, 5)))
        assert r.validate() == (10, 5, 7)

    def test_validate_accounts_for_trans(self):
        r = GemmRequest(
            a=np.zeros((7, 10)), b=np.zeros((5, 7)), transa="T", transb="T"
        )
        assert r.validate() == (10, 5, 7)

    def test_inner_dimension_mismatch(self):
        r = GemmRequest(a=np.zeros((4, 3)), b=np.zeros((5, 2)))
        with pytest.raises(UnsupportedShapeError, match="inner dimensions"):
            r.validate()

    def test_bad_trans_flag(self):
        r = GemmRequest(a=np.zeros((4, 3)), b=np.zeros((3, 2)), transa="C")
        with pytest.raises(UnsupportedShapeError, match="transa"):
            r.validate()

    def test_beta_without_c(self):
        r = GemmRequest(a=np.zeros((4, 3)), b=np.zeros((3, 2)), beta=0.5)
        with pytest.raises(UnsupportedShapeError, match="requires an input C"):
            r.validate()

    def test_c_shape_mismatch(self):
        r = GemmRequest(
            a=np.zeros((4, 3)), b=np.zeros((3, 2)), c=np.zeros((4, 4)),
            beta=1.0,
        )
        with pytest.raises(UnsupportedShapeError, match="expected"):
            r.validate()

    def test_shape_bin_pads_to_block_multiples(self):
        r = GemmRequest(a=np.zeros((10, 7)), b=np.zeros((7, 5)))
        assert r.shape_bin(PARAMS) == ("gemm", *PARAMS.pad_shape(10, 7, 5))

    def test_same_bin_for_shapes_padding_alike(self):
        small = GemmRequest(a=np.zeros((10, 7)), b=np.zeros((7, 5)))
        other = GemmRequest(a=np.zeros((12, 9)), b=np.zeros((9, 6)))
        assert small.shape_bin(PARAMS) == other.shape_bin(PARAMS)


class TestContentHash:
    def test_equal_contents_equal_hash(self):
        a, b = np.ones((4, 3)), np.ones((3, 2))
        assert (
            GemmRequest(a=a, b=b).content_hash()
            == GemmRequest(a=a.copy(), b=b.copy()).content_hash()
        )

    def test_hash_covers_operands_and_attributes(self):
        a, b, c = np.ones((4, 3)), np.ones((3, 2)), np.ones((4, 2))
        base = GemmRequest(a=a, b=b).content_hash()
        assert GemmRequest(a=a + 1, b=b).content_hash() != base
        assert GemmRequest(a=a, b=b, alpha=2.0).content_hash() != base
        assert (
            GemmRequest(a=a, b=b, c=c, beta=1.0).content_hash() != base
        )

    def test_layout_is_part_of_the_hash(self):
        # same bytes and shape, different matrices: A and A.T
        a = np.asfortranarray(np.arange(16.0).reshape(4, 4))
        a_t = np.ascontiguousarray(a.T)
        assert a.ravel(order="K").tobytes() == a_t.ravel(order="K").tobytes()
        b = np.ones((4, 2))
        assert (GemmRequest(a=a, b=b).content_hash()
                != GemmRequest(a=a_t, b=b).content_hash())

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(1, 6), k=st.integers(1, 6),
           layouts=st.tuples(LAYOUTS, LAYOUTS, LAYOUTS, LAYOUTS),
           which=st.sampled_from("ab"), data=st.data())
    def test_one_element_apart_never_share_a_hash(self, m, n, k, layouts,
                                                  which, data):
        rng = np.random.default_rng(m * 100 + n * 10 + k)
        a = rng.integers(-9, 9, (m, k)).astype(np.float64)
        b = rng.integers(-9, 9, (k, n)).astype(np.float64)
        changed = (a if which == "a" else b).copy()
        i = data.draw(st.integers(0, changed.shape[0] - 1))
        j = data.draw(st.integers(0, changed.shape[1] - 1))
        changed[i, j] += 1.0  # integral, so the "int" layout keeps it
        a2, b2 = (changed, b) if which == "a" else (a, changed)
        la, lb, la2, lb2 = layouts
        first = GemmRequest(a=_in_layout(a, la), b=_in_layout(b, lb))
        second = GemmRequest(a=_in_layout(a2, la2), b=_in_layout(b2, lb2))
        assert first.content_hash() != second.content_hash()

    def test_converted_operands_hash_like_their_float64_copy(self):
        # ints and non-contiguous views take one conversion copy to
        # C-ordered float64, so their cache keys are that copy's
        ints = np.arange(12).reshape(4, 3)
        view = np.arange(24.0).reshape(4, 6)[:, ::2]
        b = np.ones((3, 2))
        for a in (ints, np.asfortranarray(ints), view):
            copy = np.ascontiguousarray(a, dtype=np.float64)
            assert (GemmRequest(a=a, b=b).content_hash()
                    == GemmRequest(a=copy, b=b).content_hash())

    def test_contiguous_float64_hashes_without_copies(self):
        a = np.asfortranarray(
            np.random.default_rng(0).standard_normal((768, 768)))
        request = GemmRequest(a=a, b=a)
        tracemalloc.start()
        try:
            request.content_hash()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes // 4


class TestSubmitOptions:
    def test_defaults_defer_to_session(self):
        opts = SubmitOptions()
        assert (opts.engine, opts.check) == (None, None)

    def test_engine_is_normalized(self):
        assert SubmitOptions(engine="Device").engine == "device"

    def test_hashable_for_coalescing(self):
        assert hash(SubmitOptions(engine="device")) == hash(
            SubmitOptions(engine="device")
        )
        assert SubmitOptions() in {SubmitOptions()}


class TestResponses:
    def test_result_ok_and_rejected(self):
        assert RequestResult(value=1).ok
        rejected = RequestResult(
            error=RequestError(
                kind="RejectedError", message="full", retryable=True
            )
        )
        assert not rejected.ok
        assert rejected.rejected
        assert rejected.error.retryable
        shape = RequestResult(
            error=RequestError(kind="UnsupportedShapeError", message="bad")
        )
        assert not shape.rejected

    def test_error_str(self):
        err = RequestError(kind="ConfigError", message="nope")
        assert str(err) == "ConfigError: nope"


class TestFormatBin:
    def test_renders_kind_and_dims(self):
        assert format_bin(("gemm", 64, 96, 32)) == "gemm:64x96x32"


#: keyword spellings the GEMM entry points accepted with a deprecation
#: warning before ``transa``/``transb``/``n_core_groups`` became the
#: only ones.
REMOVED_SPELLINGS = [
    "trans", "trans_a", "trans_b", "ncgs", "num_core_groups", "core_groups",
]


class TestRemovedSpellings:
    """Typos stay loud: a removed spelling is an unknown keyword."""

    @pytest.mark.parametrize("spelling", REMOVED_SPELLINGS)
    @pytest.mark.parametrize(
        "entry", ["dgemm", "CGScheduler", "dgemm_multi_cg", "Session.dgemm"]
    )
    def test_raises_type_error(self, entry, spelling):
        a = np.eye(PARAMS.b_m)
        kwargs = {spelling: "T" if spelling.startswith("trans") else 2}
        with Session(params=PARAMS) as session:
            call = {
                "dgemm": lambda: dgemm(a, a, **kwargs),
                "CGScheduler": lambda: CGScheduler(**kwargs),
                "dgemm_multi_cg": lambda: dgemm_multi_cg(a, a, **kwargs),
                "Session.dgemm": lambda: session.dgemm(a, a, **kwargs),
            }[entry]
            with pytest.raises(TypeError, match=f"'{spelling}'"):
                call()


class TestAsRequest:
    def test_passes_typed_requests_through(self):
        r = GemmRequest(a=np.eye(4), b=np.eye(4))
        assert as_request(r) is r

    def test_rejects_everything_else(self):
        with pytest.raises(ConfigError, match="expected a"):
            as_request([np.eye(4), np.eye(4)])
        with pytest.raises(ConfigError, match="expected a"):
            as_request((np.eye(4), np.eye(4)))

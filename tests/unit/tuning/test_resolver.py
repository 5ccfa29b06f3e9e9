"""The pad-aware blocking resolver on the default path.

``CGScheduler.blocking_for`` is the estimator's pick for an item's
logical shape (``repro.tuning.search.pick_blocking``); an explicit
``params=`` or ``blocking=`` always wins over it, and every default
entry point (``Session.dgemm``, ``Session.batch``, ``ReproServer``)
runs it, so the model prices the blocking that actually runs.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import GemmRequest
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.multi import CGScheduler
from repro.obs import SpanTracer
from repro.perf.estimator import Estimator
from repro.serve import ReproServer
from repro.tuning.search import (
    pick_blocking,
    score,
    single_panel_candidates,
)
from repro.workloads.shapes import FIG6_SIZES, FIG7_SHAPES

DEFAULT = BlockingParams.paper_double()
ALT = BlockingParams(p_m=16, p_n=16, p_k=32)

#: a serving menu of small and odd shapes: at most one paper CG block
#: of work each, most of them padded under the paper blocking.
MENU = (
    (128, 256, 768),
    (128, 256, 768),
    (96, 200, 640),
    (256, 128, 384),
    (200, 256, 480),
    (64, 384, 512),
    (128, 448, 384),
    (160, 320, 256),
)

#: shapes every paper blocking tiles exactly.
PAPER_SHAPES = (
    (768, 768, 768),
    *((s, s, s) for s in FIG6_SIZES),
    *FIG7_SHAPES,
)


def gflops(shape, params, variant="SCHED"):
    return score(Estimator(), variant, *shape, params).gflops


def request_of(m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    return GemmRequest(
        np.asfortranarray(rng.standard_normal((m, k))),
        np.asfortranarray(rng.standard_normal((k, n))),
    )


class TestCandidates:
    def test_one_panel_per_pm_in_the_ldm_budget(self):
        for p_m, params in zip((16, 32), single_panel_candidates(
                200, 640, double_buffered=True)):
            assert params.p_m == p_m
            assert params.b_k >= 640 and params.b_k - 640 < 128
            assert params.fits()
        # 16 x 28 x 80 covers n=200 and k=640 in one panel each
        assert single_panel_candidates(200, 640, True)[0] == BlockingParams(
            16, 28, 80)

    def test_pn_is_lowered_until_the_tiles_fit(self):
        (p16, p32) = single_panel_candidates(256, 768, True)
        assert (p16.p_m, p16.p_n, p16.p_k) == (16, 32, 96)
        # 32 x 32 x 96 overflows the LDM double buffered; 12 is the
        # widest pN that fits
        assert (p32.p_m, p32.p_n, p32.p_k) == (32, 12, 96)
        assert not BlockingParams(32, 16, 96).fits()

    def test_pm_without_a_fitting_pn_is_left_out(self):
        # k=1536 needs pK=192: 2*32*192 doubles of A alone overflow
        assert [p.p_m for p in single_panel_candidates(256, 1536, True)] == [16]
        assert single_panel_candidates(256, 9216, True) == []

    def test_buffering_regime_is_the_callers(self):
        assert all(not p.double_buffered
                   for p in single_panel_candidates(200, 640, False))


class TestPick:
    @pytest.mark.parametrize("shape", sorted(set(MENU)))
    def test_menu_pick_is_at_least_the_default(self, shape):
        pick = pick_blocking("SCHED", *shape, DEFAULT)
        assert gflops(shape, pick) >= gflops(shape, DEFAULT)

    def test_equal_weight_menu_models_238_gflops(self):
        """Equal weights, as a serving menu is drawn: 238.7 modeled Gflop/s
        (what a search over all 213 feasible double-buffered blockings
        finds per shape), against under 140 with the paper blocking."""
        flops = sum(2.0 * m * n * k for m, n, k in MENU)
        seconds = sum(
            2.0 * m * n * k / gflops((m, n, k), pick_blocking("SCHED", m, n, k,
                                                           DEFAULT)) / 1e9
            for m, n, k in MENU
        )
        assert flops / seconds / 1e9 == pytest.approx(238.67, abs=0.05)
        default_seconds = sum(
            2.0 * m * n * k / gflops((m, n, k), DEFAULT) / 1e9
            for m, n, k in MENU
        )
        assert flops / default_seconds / 1e9 < 140

    @settings(max_examples=25, deadline=None)
    @given(
        variant=st.sampled_from(["PE", "ROW", "DB", "SCHED"]),
        m=st.integers(1, 1024),
        n=st.integers(1, 1024),
        k=st.integers(1, 2048),
    )
    def test_pick_never_models_slower_than_the_default(self, variant, m, n, k):
        default = (BlockingParams.paper_single() if variant in ("PE", "ROW")
                   else DEFAULT)
        pick = pick_blocking(variant, m, n, k, default)
        assert pick.double_buffered == default.double_buffered
        assert pick.fits()
        assert (gflops((m, n, k), pick, variant)
                >= gflops((m, n, k), default, variant))

    @pytest.mark.parametrize("variant", ["PE", "ROW", "DB", "SCHED"])
    def test_paper_shapes_keep_the_paper_blocking(self, variant):
        default = (BlockingParams.paper_single() if variant in ("PE", "ROW")
                   else DEFAULT)
        for shape in PAPER_SHAPES:
            assert pick_blocking(variant, *shape, default) == default, shape

    def test_shared_a_batch_item_keeps_the_paper_blocking(self):
        # 768x256x768 tiles (16, 32, 96) exactly; the single-buffered
        # paper blocking pads n to 384, and a one-panel blocking wins
        for variant in ("DB", "SCHED"):
            assert pick_blocking(variant, 768, 256, 768, DEFAULT) == DEFAULT
        single = BlockingParams.paper_single()
        pick = pick_blocking("PE", 768, 256, 768, single)
        assert pick.pad_shape(768, 256, 768) == (768, 256, 768)
        assert single.pad_shape(768, 256, 768) == (768, 384, 768)

    def test_raw_and_empty_shapes_keep_the_default(self):
        assert pick_blocking("RAW", 96, 200, 640, DEFAULT) == DEFAULT
        assert pick_blocking("SCHED", 0, 200, 640, DEFAULT) == DEFAULT

    def test_a_fresh_scheduler_resolves_from_the_memo(self):
        CGScheduler(n_core_groups=1).blocking_for(96, 200, 640)
        hits = pick_blocking.cache_info().hits
        again = CGScheduler(n_core_groups=1).blocking_for(96, 200, 640)
        assert pick_blocking.cache_info().hits == hits + 1
        assert again == BlockingParams(16, 28, 80)


class TestExplicitWins:
    def test_scheduler_params_pin_every_shape(self):
        scheduler = CGScheduler(n_core_groups=1, params=DEFAULT)
        for shape in MENU:
            assert scheduler.blocking_for(*shape) == DEFAULT
        assert scheduler.resolve_blocking(list(MENU)) == [DEFAULT] * len(MENU)

    def test_override_beats_params_and_pick(self):
        for scheduler in (CGScheduler(n_core_groups=1),
                          CGScheduler(n_core_groups=1, params=DEFAULT)):
            assert scheduler.resolve_blocking([(96, 200, 640)],
                                              blocking=ALT) == [ALT]

    def test_model_prices_the_blocking_that_runs(self):
        scheduler = CGScheduler(n_core_groups=1)
        shape = (96, 200, 640)
        pick = scheduler.blocking_for(*shape)
        assert pick != DEFAULT
        assert scheduler.modeled_item_seconds(*shape) == (
            scheduler.modeled_item_seconds(*shape, params=pick))
        assert scheduler.plan_shapes([shape]).item_seconds == (
            scheduler.modeled_item_seconds(*shape),)
        assert scheduler.params == DEFAULT  # still names the default


class TestBlockingSource:
    """Each item records the blocking it ran and why."""

    def _dispatch_attrs(self, tracer):
        return [(s.attrs["blocking"], s.attrs["blocking_source"])
                for s in tracer.spans if s.name == "cg_dispatch"]

    def test_resolved(self):
        tracer = SpanTracer()
        with Session(n_core_groups=1, tracer=tracer) as session:
            result = session.batch([request_of(96, 200, 640)])
        assert result.blocking == (BlockingParams(16, 28, 80),)
        assert result.blocking_sources == ("resolved",)
        assert self._dispatch_attrs(tracer) == [("16x28x80", "resolved")]

    def test_params(self):
        tracer = SpanTracer()
        with Session(n_core_groups=1, params=DEFAULT, tracer=tracer) as session:
            result = session.batch([request_of(96, 200, 640)])
        assert result.blocking == (DEFAULT,)
        assert result.blocking_sources == ("params",)
        assert self._dispatch_attrs(tracer) == [("16x32x96", "params")]

    def test_override(self):
        tracer = SpanTracer()
        with Session(n_core_groups=1, params=DEFAULT, tracer=tracer) as session:
            result = session.batch(
                [request_of(96, 200, 640), request_of(96, 200, 640)],
                blocking=[ALT, None],
            )
        assert result.blocking == (ALT, DEFAULT)
        assert result.blocking_sources == ("override", "params")
        assert self._dispatch_attrs(tracer) == [
            ("16x16x32", "override"), ("16x32x96", "params")]

    def test_server_copies_them_into_the_response(self):
        async def scenario():
            async with ReproServer(n_core_groups=1) as server:
                return await server.submit(request_of(96, 200, 640))

        result = asyncio.run(scenario())
        assert result.ok
        assert result.attrs == {
            "blocking": BlockingParams(16, 28, 80),
            "blocking_source": "resolved",
            "core_group": 0,
        }


class TestEntryPointsAgree:
    def test_dgemm_batch_and_server_book_the_same(self):
        """One padded request books identical traffic and padded flops
        whichever default entry point runs it."""
        shape = (96, 200, 640)
        request = request_of(*shape, seed=3)
        want = np.asarray(request.a) @ np.asarray(request.b)

        with Session(n_core_groups=1) as session:
            out = session.dgemm(request.a, request.b)
            via_dgemm = session.stats()
        np.testing.assert_allclose(out, want, rtol=1e-10)

        with Session(n_core_groups=1) as session:
            result = session.batch([request])
            via_batch = session.stats()
        np.testing.assert_allclose(result.outputs[0], want, rtol=1e-10)

        async def scenario(session):
            async with ReproServer(session=session) as server:
                return await server.submit(request)

        with Session(n_core_groups=1) as session:
            response = asyncio.run(scenario(session))
            via_server = session.stats()
        np.testing.assert_allclose(response.value, want, rtol=1e-10)

        assert via_dgemm.traffic == via_batch.traffic == via_server.traffic
        assert response.traffic == via_server.traffic
        padded = 2 * 128 * 224 * 640  # the 16x28x80 block grid
        assert (via_dgemm.padded_flops == via_batch.padded_flops
                == via_server.padded_flops == padded)
        assert via_dgemm.flops == 2 * 96 * 200 * 640

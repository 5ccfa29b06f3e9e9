"""Unit tests for the execution-engine registry and its contracts."""

import inspect

import numpy as np
import pytest

from repro.api import GemmRequest
from repro.core.api import dgemm
from repro.core.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    DeviceEngine,
    StepwiseEngine,
    VectorizedEngine,
    get_engine,
)
from repro.arch.core_group import CoreGroup
from repro.core.engine.base import Engine
from repro.core.params import BlockingParams
from repro.core.variants import get_variant
from repro.core.session import Session
from repro.errors import ConfigError
from repro.multi.scheduler import CGScheduler
from repro.obs import SpanTracer
from repro.obs.registry import cg_meter
from repro.workloads.matrices import gemm_operands

SINGLE = BlockingParams.small(double_buffered=False)
DOUBLE = BlockingParams.small(double_buffered=True)


class TestRegistry:
    def test_known_names_resolve(self):
        assert isinstance(get_engine("device"), DeviceEngine)
        assert isinstance(get_engine("vectorized"), VectorizedEngine)
        assert isinstance(get_engine("DEVICE"), DeviceEngine)
        assert isinstance(get_engine("stepwise"), StepwiseEngine)
        assert set(ENGINES) == {"device", "vectorized", "stepwise"}

    def test_one_class_per_engine(self):
        # engines take no constructor options: one name, one behaviour
        for cls in (VectorizedEngine, StepwiseEngine):
            with pytest.raises(TypeError):
                cls(False)
        assert not isinstance(get_engine("vectorized"), StepwiseEngine)

    def test_instances_pass_through(self):
        eng = StepwiseEngine()
        assert get_engine(eng) is eng

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            get_engine("hardware")

    def test_every_engine_subclasses_engine(self):
        for cls in ENGINES.values():
            assert issubclass(cls, Engine)
            assert cls.name in ENGINES


class TestVectorizedContracts:
    """The vectorized engine enforces the same rules as the device path."""

    def test_double_buffered_variant_rejects_single_params(self):
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=0)
        with pytest.raises(ValueError, match="requires double-buffered"):
            dgemm(a, b, c, beta=1.0, variant="SCHED", engine="vectorized",
                  params=SINGLE)

    def test_single_buffered_variant_rejects_double_params(self):
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=0)
        with pytest.raises(ValueError, match="single-buffered variant"):
            dgemm(a, b, c, beta=1.0, variant="PE", engine="vectorized",
                  params=DOUBLE)

    def test_variant_without_owner_tables_is_rejected(self):
        # CANNON shares by shifting, not broadcasting — it has no owner
        # index tables, so the vectorized engine refuses it up front
        # (before touching the device or the operands).
        from repro.core.variants.cannon import CannonVariant

        with pytest.raises(ConfigError, match="no vectorized execution"):
            VectorizedEngine().run(CannonVariant(), None, None, None, None)


class TestEngineSelection:
    """engine= threads through every entry point, one default for all."""

    def test_dgemm_vectorized_matches_reference(self):
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=3)
        out = dgemm(a, b, c, alpha=1.5, beta=-0.5, variant="SCHED",
                    engine="vectorized", params=DOUBLE)
        assert np.allclose(out, 1.5 * a @ b - 0.5 * c, rtol=1e-12, atol=1e-9)

    def test_dgemm_accepts_engine_instance(self):
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=4)
        out = dgemm(a, b, c, beta=1.0, variant="DB",
                    engine=StepwiseEngine(), params=DOUBLE)
        assert np.allclose(out, a @ b + c, rtol=1e-12, atol=1e-9)

    def test_scheduler_engine_kwarg(self):
        items = [
            GemmRequest(*gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k,
                                       seed=s), alpha=1.0, beta=1.0)
            for s in (5, 6)
        ]
        result = CGScheduler(n_core_groups=1, engine="vectorized",
                             params=DOUBLE, pad=False).run(items)
        for item, out in zip(items, result.outputs):
            assert np.allclose(out, item.a @ item.b + item.c,
                               rtol=1e-12, atol=1e-9)

    def test_session_batch_defaults_to_vectorized(self):
        with Session(params=DOUBLE) as s:
            assert s.engine == "vectorized"
            assert s.scheduler.engine == "vectorized"

    def test_every_entry_point_defaults_to_the_fused_engine(self):
        for entry in (dgemm, CGScheduler):
            default = inspect.signature(entry).parameters["engine"].default
            assert default == DEFAULT_ENGINE == "vectorized"
        with Session() as s:
            assert s.engine == s.scheduler.engine == "vectorized"

    def test_session_scalar_call_runs_the_session_engine(self):
        a, b, _ = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=8)
        tracer = SpanTracer()
        with Session(params=DOUBLE, tracer=tracer) as s:
            s.dgemm(a, b)
        (span,) = tracer.by_name("dgemm")
        assert span.attrs["engine"] == "vectorized"

    def test_session_explicit_engine_overrides_both_paths(self):
        with Session(params=DOUBLE, engine="device") as s:
            assert s.engine == "device"
            assert s.scheduler.engine == "device"

    def test_session_scalar_engine_override(self):
        a, b, c = gemm_operands(100, 60, 70, seed=7)
        with Session(params=DOUBLE) as s:
            out = s.dgemm(a, b, c, beta=1.0, engine="vectorized")
            assert np.allclose(out, a @ b + c, rtol=1e-11, atol=1e-8)


class TestFusedTallies:
    """The fused engine books each panel's ``grid_m`` A/C blocks and
    strip multiplications as one count-multiplied tally per kind and
    leaves the CPEs alone; every ``strip_mult`` span's counters stay
    those of one block at a time (``test_prop_engine`` holds the
    totals equal to the device engine's)."""

    SHAPES = {False: (256, 128, 256), True: (200, 100, 200)}

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("variant", ["PE", "ROW", "DB", "SCHED"])
    def test_each_panel_span_books_its_blocks(self, variant, padded):
        params = DOUBLE if get_variant(variant).traits.double_buffered else SINGLE
        a, b, c = gemm_operands(*self.SHAPES[padded], seed=11)
        tracer = SpanTracer()
        dgemm(a, b, c, alpha=1.5, beta=0.5, variant=variant,
              engine="vectorized", params=params, pad=padded, tracer=tracer)
        spans = tracer.by_name("strip_mult")
        grid_m, grid_n, grid_k = params.check_shape(
            *params.pad_shape(*self.SHAPES[padded]))
        assert grid_m == 2 and len(spans) == grid_n * grid_k

        # one panel, one block at a time, on a fresh core group
        impl = get_variant(variant)
        mapping = impl.mapping_cls(params)
        cg = CoreGroup()
        replay = SpanTracer()
        with replay.span("panel", meter=cg_meter(cg)):
            mapping.tally_load_b(cg)
            for _ in range(grid_m):
                mapping.tally_load_a(cg)
                mapping.tally_load_c(cg)
                mapping.tally_store_c(cg)
                VectorizedEngine._tally_sharing(cg, impl.scheme, params)
        (want,) = replay.spans
        for span in spans:
            assert span.counters == want.counters

    def test_fused_run_leaves_the_cpes_alone(self):
        cg = CoreGroup()
        cg.cpe((0, 0)).ldm.alloc("probe", (4, 4))
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=2)
        dgemm(a, b, c, variant="SCHED", engine="vectorized", params=DOUBLE,
              core_group=cg)
        assert cg.cpe((0, 0)).ldm.names() == ["probe"]

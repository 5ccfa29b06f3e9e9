"""Unit tests for the verification battery."""

import numpy as np
import pytest

from repro.core import verify
from repro.core.verify import verify_variants


class TestVerifyVariants:
    @pytest.fixture(scope="class")
    def report(self):
        return verify_variants(grids=((1, 1, 1),))

    def test_all_variants_pass(self, report):
        assert report.all_passed
        assert report.failures() == []

    def test_case_coverage(self, report):
        variants = {c.variant for c in report.cases}
        assert variants == {"RAW", "PE", "ROW", "DB", "SCHED"}
        # 5 variants x 1 grid x 2 scalar pairs
        assert len(report.cases) == 10

    def test_worst_case_reported(self, report):
        worst = report.worst
        assert worst.max_abs_error == max(c.max_abs_error for c in report.cases)

    def test_perturbed_result_fails(self, monkeypatch):
        real = verify.dgemm

        def perturbed_dgemm(*args, **kwargs):
            out = real(*args, **kwargs)
            out[0] += 1e-3 * np.abs(out[0]) + 1e-3
            return out

        monkeypatch.setattr(verify, "dgemm", perturbed_dgemm)
        report = verify_variants(variants=("SCHED",), grids=((1, 1, 1),))
        assert report.failures() == list(report.cases)
        assert report.worst.max_abs_error > 1e-3

    def test_large_alpha_judged_by_contract(self):
        # the absolute error grows with alpha but stays inside the
        # contract's componentwise bound, so the case passes
        report = verify_variants(
            variants=("SCHED",), grids=((1, 1, 1),), scalars=((1e6, 0.0),)
        )
        assert report.worst.max_abs_error > 1e-9
        assert report.all_passed

    def test_seed_changes_operands(self):
        r1 = verify_variants(variants=("PE",), grids=((1, 1, 1),),
                             scalars=((1.0, 0.0),), seed=1)
        r2 = verify_variants(variants=("PE",), grids=((1, 1, 1),),
                             scalars=((1.0, 0.0),), seed=2)
        assert r1.cases[0].max_abs_error != r2.cases[0].max_abs_error

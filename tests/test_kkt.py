"""Tests for multiplier recovery, residual measurement, and certification."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from cappedproj import (
    InconsistentCandidateError,
    InstanceSpec,
    InvalidInputError,
    KktCertificate,
    KktReport,
    ProjectionInput,
    certify,
    certify_result,
    kkt_residuals,
    project_capped_box,
    project_capped_simplex,
    random_instance,
    recover_multipliers,
)
from cappedproj.kkt import feasibility_check


def _blocks(at_zero, at_cap):
    return np.array(at_zero, dtype=bool), np.array(at_cap, dtype=bool)


class TestRecoverMultipliers:
    def test_pinned_coordinates_get_forced_values(self):
        # the blocks are masks in input order, which need not be sorted
        cert = recover_multipliers(
            np.array([3.0, -2.0, 0.5]),
            np.array([1.0, 0.0, 0.5]),
            0.0,
            _blocks([0, 1, 0], [1, 0, 0]),
        )
        npt.assert_allclose(cert.alpha, [0.0, 2.0, 0.0], atol=1e-15)
        npt.assert_allclose(cert.beta, [2.0, 0.0, 0.0], atol=1e-15)
        assert cert.gamma == 0.0

    def test_all_interior_means_zero_multipliers(self):
        y = np.array([0.3, -0.1, 0.4])
        x = y + 0.1
        cert = recover_multipliers(y, x, 0.1, _blocks([0, 0, 0], [0, 0, 0]))
        npt.assert_array_equal(cert.alpha, np.zeros(3))
        npt.assert_array_equal(cert.beta, np.zeros(3))

    def test_classification_path_without_partition(self):
        cert = recover_multipliers(
            np.array([0.3, -0.2, 1.5]), np.array([0.75, 0.25, 1.0]), 0.45
        )
        npt.assert_array_equal(cert.alpha, np.zeros(3))
        npt.assert_allclose(cert.beta, [0.0, 0.0, 0.95], atol=1e-12)

    def test_inconsistent_zero_segment(self):
        with pytest.raises(InconsistentCandidateError):
            recover_multipliers(
                np.array([-2.0, 0.5, 3.0]),
                np.array([0.2, 0.5, 1.0]),
                0.0,
                _blocks([1, 0, 0], [0, 0, 1]),
            )

    def test_inconsistent_one_segment(self):
        with pytest.raises(InconsistentCandidateError):
            recover_multipliers(
                np.array([-2.0, 0.5, 3.0]),
                np.array([0.0, 0.5, 0.7]),
                0.0,
                _blocks([1, 0, 0], [0, 0, 1]),
            )

    def test_interior_escaping_the_box(self):
        with pytest.raises(InconsistentCandidateError):
            recover_multipliers(
                np.array([-2.0, 1.5, 3.0]),
                np.array([0.0, 1.4, 1.0]),
                0.0,
                _blocks([1, 0, 0], [0, 0, 1]),
            )

    def test_overlapping_blocks(self):
        with pytest.raises(InconsistentCandidateError):
            recover_multipliers(
                np.zeros(2), np.zeros(2), 0.0, _blocks([1, 0], [1, 0]), cap=1e-9
            )

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            recover_multipliers(np.zeros(3), np.zeros(2), 0.0)
        with pytest.raises(InvalidInputError):
            recover_multipliers(
                np.zeros(3), np.zeros(3), 0.0, _blocks([1, 0, 0, 0, 0], [0, 0, 0, 0, 0])
            )

    def test_general_cap(self):
        cert = recover_multipliers(
            np.array([-1.0, 0.2, 4.0]),
            np.array([0.0, 0.7, 2.0]),
            0.5,
            _blocks([1, 0, 0], [0, 0, 1]),
            cap=2.0,
        )
        npt.assert_allclose(cert.alpha, [0.5, 0.0, 0.0], atol=1e-15)
        npt.assert_allclose(cert.beta, [0.0, 0.0, 2.5], atol=1e-15)


class TestKktResiduals:
    def test_exact_output_certifies_tightly(self):
        for seed in range(30):
            inp = random_instance(InstanceSpec(D=40, seed=seed))
            res = project_capped_simplex(inp)
            _, report = certify_result(inp, res)
            assert report.passed
            assert report.max_residual <= 1e-10, report

    def test_sum_violation_is_reported(self):
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        res = project_capped_simplex(inp)
        cert, _ = certify_result(inp, res)
        x = res.x.copy()
        x[1] += 0.1
        report = kkt_residuals(inp, x, cert)
        assert abs(report.sum_residual - 0.1) <= 1e-12
        assert not report.passed

    def test_clamped_guess_with_zero_multipliers(self):
        y = np.array([1.7, -0.3, 0.4])
        inp = ProjectionInput(y, 2.0)
        x = np.clip(y, 0.0, 1.0)
        zero_cert = KktCertificate(np.zeros(3), np.zeros(3), 0.0)
        report = kkt_residuals(inp, x, zero_cert)
        assert report.sum_residual == abs(x.sum() - 2.0)
        assert not report.passed

    def test_negative_multiplier_shows_as_dual_residual(self):
        inp = ProjectionInput(np.array([0.5, 0.5]), 1.0)
        cert = KktCertificate(np.array([-0.2, 0.0]), np.zeros(2), 0.0)
        report = kkt_residuals(inp, np.array([0.5, 0.5]), cert)
        assert report.dual_residual == 0.2

    def test_length_mismatch(self):
        inp = ProjectionInput(np.array([0.5, 0.5]), 1.0)
        cert = KktCertificate(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(InvalidInputError):
            kkt_residuals(inp, np.zeros(3), cert)
        bad = KktCertificate(np.zeros(3), np.zeros(2), 0.0)
        with pytest.raises(InvalidInputError):
            kkt_residuals(inp, np.zeros(2), bad)

    def test_report_fields_nonnegative(self):
        rng = np.random.default_rng(9)
        inp = ProjectionInput(rng.normal(size=12), 5.0)
        res = project_capped_simplex(inp)
        _, report = certify_result(inp, res)
        for name in (
            "stationarity_residual",
            "primal_lower",
            "primal_upper",
            "sum_residual",
            "dual_residual",
            "cs_residual",
        ):
            assert getattr(report, name) >= 0.0


class TestMaxResidual:
    def test_is_the_largest_field(self):
        report = KktReport(1e-12, 3e-9, 0.0, 2e-11, 0.0, 4e-13, passed=False)
        assert report.max_residual == 3e-9


class TestFeasibilityCheck:
    def test_accepts_a_feasible_point(self):
        assert feasibility_check(np.array([0.5, 0.5]), 1.0, 1e-9)

    def test_rejects_bound_violations(self):
        assert not feasibility_check(np.array([1.2, -0.2]), 1.0, 1e-9)

    def test_rejects_sum_violation(self):
        assert not feasibility_check(np.array([0.6, 0.6]), 1.0, 1e-9)

    def test_general_cap(self):
        assert feasibility_check(np.array([1.5, 0.5]), 2.0, 1e-9, cap=2.0)


class TestCertify:
    def test_estimates_gamma_from_the_interior(self):
        for seed in (0, 3, 11):
            inp = random_instance(InstanceSpec(D=25, seed=seed))
            res = project_capped_simplex(inp)
            if res.partition.a == res.partition.b:
                continue
            cert, report = certify(inp, res.x)
            assert report.passed
            assert abs(cert.gamma - res.gamma) <= 1e-9

    def test_all_pinned_candidate(self):
        y = np.array([0.4, -0.7, 0.2])
        inp = ProjectionInput(y, 3.0)
        _, report = certify(inp, np.ones(3))
        assert report.passed

    def test_flags_a_wrong_candidate(self):
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        x = np.array([0.5, 0.5, 1.0])
        _, report = certify(inp, x)
        assert not report.passed

    def test_iterative_style_candidate_with_fuzzy_bounds(self):
        # a candidate hugging the bounds within classification slack must
        # certify if it is otherwise correct
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        x = np.array([0.75, 0.25 - 4e-8, 1.0 + 4e-8])
        _, report = certify(inp, x, tol=1e-6)
        assert report.passed


class TestCertifyResult:
    def test_box_results_certify(self):
        rng = np.random.default_rng(10)
        for t in (0.5, 2.0, 7.3):
            for _ in range(40):
                d = int(rng.integers(1, 20))
                y = rng.normal(size=d) * 2.0
                s = float(rng.uniform(0.0, t * d))
                inp = ProjectionInput(y, s, t=t)
                res = project_capped_box(inp)
                _, report = certify_result(inp, res)
                assert report.passed, (y.tolist(), s, t)

    def test_degenerate_partition_certifies(self):
        inp = ProjectionInput(np.array([0.0, 5.0]), 1.0)
        res = project_capped_simplex(inp)
        assert res.partition.a == res.partition.b
        _, report = certify_result(inp, res)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_blocks_that_disagree_with_the_partition_raise(self):
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        res = project_capped_simplex(inp)
        assert (res.partition.a, res.partition.b) == (0, 2)
        no_cap = np.zeros(3, dtype=bool)
        for bad in (
            dataclasses.replace(res, at_cap=no_cap),  # D - b = 1 pinned, 0 reported
            dataclasses.replace(res, at_zero=np.array([False, True, False])),  # a = 0
            dataclasses.replace(res, at_cap=np.array([True, False, False])),  # x[0] = 0.75
        ):
            with pytest.raises(InconsistentCandidateError):
                certify_result(inp, bad)

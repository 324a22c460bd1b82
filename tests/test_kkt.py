"""Tests for the forced multipliers, residual measurement, and certification."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from cappedproj import (
    InconsistentCandidateError,
    InvalidInputError,
    KktReport,
    ProjectionInput,
    ProjectionResult,
    certify,
    certify_result,
    project_capped_box,
    project_capped_simplex,
    random_instance,
)
from cappedproj import kkt
from exact import exact_projection


def _result(x, gamma, at_zero, at_cap):
    # a hand-built solver output: x with the blocks it claims, in input order
    at_zero, at_cap = np.array(at_zero, dtype=bool), np.array(at_cap, dtype=bool)
    return ProjectionResult(np.array(x, dtype=float), gamma, at_zero, at_cap)


def _certify_given(y, x, gamma, at_zero, at_cap, t=1.0):
    # certify_result on (x, gamma) with the given blocks, at s = sum(x)
    res = _result(x, gamma, at_zero, at_cap)
    return certify_result(ProjectionInput(y, float(res.x.sum()), t), res)


class TestForcedMultipliers:
    """The multipliers a certificate forces from y, gamma and the blocks."""

    def test_pinned_coordinates_get_forced_values(self):
        # the blocks are masks in input order, which need not be sorted
        cert, report = _certify_given([3.0, -2.0, 0.5], [1.0, 0.0, 0.5], 0.0, [0, 1, 0], [1, 0, 0])
        npt.assert_allclose(cert.alpha, [0.0, 2.0, 0.0], atol=1e-15)
        npt.assert_allclose(cert.beta, [2.0, 0.0, 0.0], atol=1e-15)
        assert cert.gamma == 0.0
        assert report.passed

    def test_all_interior_means_zero_multipliers(self):
        y = np.array([0.3, -0.1, 0.4])
        cert, report = _certify_given(y, y + 0.1, 0.1, [0, 0, 0], [0, 0, 0])
        npt.assert_array_equal(cert.alpha, np.zeros(3))
        npt.assert_array_equal(cert.beta, np.zeros(3))
        assert report.passed

    def test_classification_path_without_partition(self):
        inp = ProjectionInput([0.3, -0.2, 1.5], 2.0)
        cert, report = certify(inp, np.array([0.75, 0.25, 1.0]))
        assert cert.gamma == 0.45
        npt.assert_array_equal(cert.alpha, np.zeros(3))
        npt.assert_allclose(cert.beta, [0.0, 0.0, 0.95], atol=1e-12)
        assert report.passed

    def test_inconsistent_zero_segment(self):
        with pytest.raises(InconsistentCandidateError, match="claimed zero block"):
            _certify_given([-2.0, 0.5, 3.0], [0.2, 0.5, 1.0], 0.0, [1, 0, 0], [0, 0, 1])

    def test_inconsistent_one_segment(self):
        with pytest.raises(InconsistentCandidateError, match="claimed pinned block"):
            _certify_given([-2.0, 0.5, 3.0], [0.0, 0.5, 0.7], 0.0, [1, 0, 0], [0, 0, 1])

    def test_interior_escaping_the_box(self):
        with pytest.raises(InconsistentCandidateError, match="claimed interior"):
            _certify_given([-2.0, 1.5, 3.0], [0.0, 1.4, 1.0], 0.0, [1, 0, 0], [0, 0, 1])

    def test_overlapping_blocks(self):
        with pytest.raises(InconsistentCandidateError, match="both pinned blocks"):
            _certify_given(np.zeros(2), np.zeros(2), 0.0, [1, 0], [1, 0], t=1e-9)

    def test_general_cap(self):
        # forced values in input order at t = 2: alpha at -1, beta at 4
        cert, report = _certify_given(
            [4.0, -1.0, 0.2], [2.0, 0.0, 0.7], 0.5, [0, 1, 0], [1, 0, 0], t=2.0
        )
        npt.assert_allclose(cert.alpha, [0.0, 0.5, 0.0], atol=1e-15)
        npt.assert_allclose(cert.beta, [2.5, 0.0, 0.0], atol=1e-15)
        assert report.passed


class TestReportedResiduals:
    def test_exact_output_certifies_tightly(self):
        for seed in range(30):
            inp = random_instance(40, seed)
            res = project_capped_simplex(inp)
            _, report = certify_result(inp, res)
            assert report.passed
            assert report.max_residual <= 1e-10, report

    def test_sum_violation_is_reported(self):
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        res = project_capped_simplex(inp)
        x = res.x.copy()
        x[1] += 0.1
        _, report = certify_result(inp, dataclasses.replace(res, x=x))
        assert abs(report.sum_residual - 0.1) <= 1e-12
        assert not report.passed

    def test_negative_multiplier_shows_as_dual_residual(self):
        # y_0 + gamma = 0.2 > 0 on the zero block forces alpha_0 = -0.2
        _, report = _certify_given([0.2, 0.5], [0.0, 0.5], 0.0, [1, 0], [0, 0])
        assert report.dual_residual == 0.2
        assert not report.passed

    def test_length_mismatch(self):
        inp = ProjectionInput(np.array([0.5, 0.5]), 1.0)
        with pytest.raises(InvalidInputError):
            certify(inp, np.zeros(3))
        with pytest.raises(InvalidInputError):
            certify_result(inp, _result(np.full(3, 1 / 3), 0.0, [0, 0, 0], [0, 0, 0]))

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

    def test_a_nan_field_makes_it_nan(self):
        report = KktReport(1e-12, 3e-9, 0.0, 2e-11, 0.0, float("nan"), passed=False)
        assert np.isnan(report.max_residual)


class TestNanCandidates:
    # the README instance: x = [0.75, 0.25, 1.0], gamma = 0.45, cap block {2}
    inp = ProjectionInput([0.3, -0.2, 1.5], 2.0)

    def test_nan_gamma_reads_nan_where_it_enters(self):
        res = project_capped_simplex(self.inp)
        report = certify_result(self.inp, dataclasses.replace(res, gamma=float("nan")))[1]
        # gamma enters stationarity and the forced multipliers, not x
        assert np.isnan(report.stationarity_residual)
        assert np.isnan(report.dual_residual)
        assert np.isnan(report.cs_residual)
        assert np.isnan(report.max_residual)
        assert report.primal_lower == report.primal_upper == report.sum_residual == 0.0
        assert not report.passed

    def test_nan_entry_of_x_reads_nan_where_it_enters(self):
        res = project_capped_simplex(self.inp)
        x = res.x.copy()
        x[1] = np.nan
        report = certify_result(self.inp, dataclasses.replace(res, x=x))[1]
        assert np.isnan(report.stationarity_residual)
        assert np.isnan(report.primal_lower)
        assert np.isnan(report.primal_upper)
        assert np.isnan(report.sum_residual)
        assert np.isnan(report.cs_residual)
        assert report.dual_residual == 0.0  # the multipliers do not read x
        assert not report.passed


    # An empty block's terms are skipped only while its multiplier is +-0
    # on every entry.  In each case below a non-finite value makes it NaN or
    # lets it meet an inf, so the whole-array formulas read NaN there, and
    # so must the report.
    def test_nan_in_x_with_neither_block(self):
        inp = ProjectionInput([0.1, 0.2, 0.3], 1.5)
        res = project_capped_simplex(inp)
        assert not (res.at_zero.any() or res.at_cap.any())
        x = res.x.copy()
        x[1] = np.nan
        report = certify_result(inp, dataclasses.replace(res, x=x))[1]
        assert np.isnan(report.cs_residual)  # alpha * x = 0 * NaN
        zeros = np.zeros(3)
        assert _report_bits(report) == _reference_bits(inp, x, zeros, zeros, res.gamma)

    def test_inf_in_x_with_no_zero_block(self):
        x = np.array([0.75, 0.25, np.inf])
        with np.errstate(invalid="ignore"):  # 0 * inf, as in the formulas
            cert, report = certify(self.inp, x)
            want = _certify_reference_bits(self.inp, x, 0.45)
        assert cert.gamma == 0.45
        assert not cert.alpha.any() and cert.beta[2] > 0.0
        assert np.isnan(report.cs_residual)  # alpha * x = -0 * inf
        assert _report_bits(report) == want

    @pytest.mark.parametrize(
        "y, s", [([0.3, -0.2, 1.5], 2.0), ([0.1, 0.2, 0.3], 1.5)], ids=["cap block", "neither"]
    )
    def test_nan_gamma_with_no_zero_block(self, y, s):
        inp = ProjectionInput(y, s)
        res = project_capped_simplex(inp)
        assert not res.at_zero.any()
        report = certify_result(inp, dataclasses.replace(res, gamma=float("nan")))[1]
        alpha, beta = _reference_multipliers(inp.y, np.nan, res.at_zero, res.at_cap, inp.t)
        assert _report_bits(report) == _reference_bits(inp, res.x, alpha, beta, np.nan)
        assert np.isnan(report.dual_residual) and np.isnan(report.cs_residual)

    @pytest.mark.parametrize(
        "y, s, t, x, gamma",
        [
            # y + gamma overflows to inf, so alpha = -inf * 0 is NaN
            ([1e308, 0.5, 0.2], 1.5, 1.0, [1.0, 0.3, 0.2], 1e308),
            # y + gamma - t overflows to -inf, so beta = -inf * 0 is NaN
            ([-1e308, 0.5, 0.2], 0.5, 1e308, [0.0, 0.3, 0.2], -1e308),
        ],
    )
    def test_finite_gamma_that_overflows_with_y(self, y, s, t, x, gamma):
        # gamma and x are finite here: only y + gamma - t tells the skip off;
        # the blocks are those certify would read off x at this gamma
        inp = ProjectionInput(y, s, t)
        res = _result(x, gamma, [v == 0.0 for v in x], [v == t for v in x])
        with np.errstate(over="ignore", invalid="ignore"):
            report = certify_result(inp, res)[1]
            want = _certify_reference_bits(inp, res.x, gamma)
        assert _report_bits(report) == want
        assert np.isnan(report.max_residual)


class TestCertify:
    def test_estimates_gamma_from_the_interior(self):
        for seed in (0, 3, 11):
            inp = random_instance(25, seed)
            res = project_capped_simplex(inp)
            if res.partition.a == res.partition.b:
                continue
            cert, report = certify(inp, res.x)
            assert report.passed
            assert abs(cert.gamma - res.gamma) <= 1e-9

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-7, 1.0, 1e6, 1e12])
    def test_exact_answer_passes_at_every_cap(self, t):
        # README's instance scaled by t: with a slack that does not shrink
        # with the cap, every coordinate reads as pinned once t reaches it
        inp = ProjectionInput(t * np.array([0.3, -0.2, 1.5]), 2.0 * t, t)
        assert certify(inp, project_capped_box(inp).x)[1].passed

    def test_refuses_a_complex_candidate(self):
        # a cast to float64 would judge its real part, the exact answer
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        res = project_capped_box(inp)
        with pytest.raises(InvalidInputError, match="complex"):
            certify(inp, res.x + 1e-3j)
        with pytest.raises(InvalidInputError, match="complex"):
            certify_result(inp, dataclasses.replace(res, x=res.x + 1e-3j))

    def test_all_pinned_candidate(self):
        y = np.array([0.4, -0.7, 0.2])
        inp = ProjectionInput(y, 3.0)
        _, report = certify(inp, np.ones(3))
        assert report.passed

    @pytest.mark.parametrize(
        "y, t, x",
        [
            ([-1.7e308, 0.5, 0.2], 1.0, [1.7e308, 0.5, 0.5]),
            ([-1e308, 0.5, 0.2], 1e308, [1e308, 0.5, 0.5]),
        ],
    )
    def test_a_finite_candidate_that_overflows_against_y_does_not_warn(self, y, t, x):
        # x - y overflows to inf on the first coordinate, in the estimate of
        # gamma and in the pass; the report shows it, with no warning (the
        # suite turns one into an error)
        inp, x = ProjectionInput(y, 1.0, t), np.array(x)
        cert, report = certify(inp, x)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, gamma, alpha, beta = _certify_reference(inp, x)
            want = _reference_bits(inp, x, alpha, beta, gamma)
        assert float(cert.gamma).hex() == float(gamma).hex()
        assert _report_bits(report) == want
        assert not report.passed

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

    def test_interior_value_next_to_the_cap_stays_interior(self):
        # x_1 sits 4e-8 under the cap, inside the classification slack, but
        # y_1 + gamma < t would force beta_1 < 0, so x_1 is judged interior
        inp = ProjectionInput([0.5, 1.0 - 4e-8, -2.0], 1.5 - 4e-8)
        res = project_capped_box(inp)
        npt.assert_array_equal(res.x, [0.5, 1.0 - 4e-8, 0.0])
        assert certify_result(inp, res)[1].passed
        cert, report = certify(inp, res.x)
        assert report.passed and report.dual_residual == 0.0
        npt.assert_array_equal(cert.beta, np.zeros(3))


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

    def test_wrong_blocks_are_measured_or_raise(self):
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        res = project_capped_simplex(inp)
        assert (res.partition.a, res.partition.b) == (0, 2)
        # x[2] = 1 claimed interior is a claim the certificate measures: its
        # stationarity term reads |1 - 1.5 - 0.45| = 0.95
        no_cap = dataclasses.replace(res, at_cap=np.zeros(3, dtype=bool))
        report = certify_result(inp, no_cap)[1]
        assert not report.passed and report.stationarity_residual >= 0.9
        for bad, message in (
            (dataclasses.replace(res, at_zero=np.array([False, True, False])), "zero block"),
            (dataclasses.replace(res, at_cap=np.array([True, False, False])), "pinned block"),
        ):
            with pytest.raises(InconsistentCandidateError, match=message):
                certify_result(inp, bad)


def _exact_x(inp):
    # the exact projection, in rational arithmetic, rounded to doubles
    return np.array(exact_projection(inp.y, inp.s, inp.t)[1], dtype=np.float64)


def _close_to(x, ref, inp):
    # x_i = y_i + gamma carries the rounding of y_i, so each coordinate is
    # compared at the scale of its own y_i
    return bool(np.all(np.abs(x - ref) <= 1e-9 * np.maximum(inp.t, np.abs(inp.y))))


def _outlier_rows(count, seed=401, d=64):
    # rows of U[-0.5, 0.5) with one outlier of +-10^U(0, 12) at a random place
    rng = np.random.default_rng(seed)
    for _ in range(count):
        y = rng.random(d) - 0.5
        y[rng.integers(d)] = (1.0 if rng.random() < 0.5 else -1.0) * 10.0 ** rng.uniform(0.0, 12.0)
        yield ProjectionInput(y, float(rng.uniform(0.0, d)))


# General caps near 6.6e5 and s near 1.9e7.  Scaled by 4, which is exact,
# their correct answers have a sum residual of a few ulps of s ~ 7.7e7, over
# an absolute tolerance of 1e-8; the solver leaves a miss that small as it is.
LARGE_CAP_CASES = [
    (
        [
            203497.35970210316, 356202.1034820083, 97461.66751201266, 131250.7994911482,
            -140340.17702123837, 638047.6126838542, 514246.5668694666, -453495.26765180967,
            -574542.7777969625, 353659.1484545861, -160640.5928541426, 571532.8813931263,
            51142.411268398646, 181543.7117431745, 333237.5754870298, 464867.3880449631,
            494738.22860914504, 276005.11050322774, -547928.0913843327, -266571.22021598497,
            362656.4219967306, -518996.9491325954, -653154.5639602679, -616248.4696462026,
            -165530.08780000225, 53741.70213369623, -11548.115916879331, 55220.63434622977,
            177397.81817713392, -145585.53130872783, -8153.378279509781, 187975.47678708925,
            115608.6505135512, -196401.35241073722, -254887.67120013697, -452856.6014782112,
            273998.99692946806,
        ],
        19404954.09046178,
        670704.826842675,
    ),
    (
        [
            540735.85794805, 271870.14966786397, 595470.4950218605, 163503.54720055597,
            -142224.4865050979, 619768.2069310386, -534002.0524159829, 11043.591019565218,
            -185764.94969161807, 335024.1303797716, 74364.83372645856, 591987.9809038726,
            3535.5453988818426, 107215.41379919958, 159659.22018743784, 115413.64928123385,
            -553349.0793920509, -486163.37495245656, -636495.5438184504, 643146.1061832292,
            -41921.74070433746, 30157.571487099933, 495592.6788402553, -83683.68014110028,
            342440.01497212984, 159294.76642894305, 596479.2075147048, 284413.46413976036,
            -342736.00944982836, -43746.939049759414, 535497.088820728, 174676.85382161973,
            209207.95266975986, -338137.21716189827, -319132.38172325556, -397432.03312833334,
            396754.16775234736, -518325.79696751083, 56759.04943998828,
        ],
        19244644.283740755,
        651899.931550451,
    ),
]


class TestScaleRelativeRule:
    def test_outlier_rows_pass_and_moved_mass_fails(self):
        moved = 0
        for inp in _outlier_rows(300):
            res = project_capped_box(inp)
            ref = _exact_x(inp)
            assert _close_to(res.x, ref, inp), inp.y.tolist()
            assert certify_result(inp, res)[1].passed, inp.y.tolist()
            assert certify(inp, res.x)[1].passed, inp.y.tolist()
            inner = np.flatnonzero((res.x > 1e-5) & (res.x < 1.0 - 1e-5))
            if inner.size < 2:
                continue
            bad = res.x.copy()
            bad[inner[0]] += 1e-6
            bad[inner[-1]] -= 1e-6
            assert not certify_result(inp, dataclasses.replace(res, x=bad))[1].passed
            assert not certify(inp, bad)[1].passed
            moved += 1
        assert moved >= 200

    @pytest.mark.parametrize("y, s, t", LARGE_CAP_CASES)
    def test_large_cap_answers_pass(self, y, s, t):
        inp = ProjectionInput(4.0 * np.array(y), 4.0 * s, 4.0 * t)
        res = project_capped_box(inp)
        assert _close_to(res.x, _exact_x(inp), inp)
        _, report = certify_result(inp, res)
        assert report.sum_residual > 1e-8  # over an absolute 1e-8, within 1e-8 * s
        assert report.passed

    def test_unit_scale_keeps_the_absolute_meaning(self):
        # |y| <= 0.5, t = 1 and gamma < 1: every scale is 1, so 2 * tol fails
        inp = ProjectionInput(np.array([0.3, -0.2, 0.1, 0.05]), 0.9)
        res = project_capped_box(inp)
        assert res.partition.b - res.partition.a >= 2 and abs(res.gamma) < 1.0
        bad = res.x.copy()
        inner = np.flatnonzero(~(res.at_zero | res.at_cap))
        bad[inner[0]] += 2e-8
        bad[inner[1]] -= 2e-8
        assert certify_result(inp, res)[1].passed
        assert not certify_result(inp, dataclasses.replace(res, x=bad))[1].passed

    @pytest.mark.parametrize(
        "y",
        [
            [0.2 + 1e-6, 0.5, 1.5],  # alpha_0 = -(y_0 + gamma) = -1e-6
            [-0.5, 0.5, 1.2 - 1e-6],  # beta_2 = y_2 + gamma - 1 = -1e-6
        ],
    )
    def test_a_negative_multiplier_fails_on_its_own(self, y):
        # x is stationary with the forced multipliers, sums to s and sits in
        # the box; only the sign of one multiplier is wrong
        _, report = _certify_given(y, [0.0, 0.3, 1.0], -0.2, [1, 0, 0], [0, 0, 1])
        assert abs(report.dual_residual - 1e-6) <= 1e-12
        assert report.stationarity_residual <= 1e-15 and report.cs_residual == 0.0
        assert not report.passed

    @pytest.mark.parametrize(
        "alpha_0, x_0, passes",
        [
            (1.0, 1e-7, False),  # |alpha_0 * x_0| = 1e-7 against 1e-8 * t * 1
            (1e4, 1e-11, True),  # 1e-7 against 1e-8 * t * |y_0| = 1e-4
        ],
    )
    def test_complementary_slackness_at_the_multipliers_scale(self, alpha_0, x_0, passes):
        # y_0 = -alpha_0 at gamma = 0 forces alpha_0; feasible and dual
        # feasible, and x_0 != 0 on the zero block, which also leaves a
        # stationarity residual of |x_0|
        cert, report = _certify_given([-alpha_0, 0.5], [x_0, 0.5], 0.0, [1, 0], [0, 0])
        assert cert.alpha[0] == alpha_0
        assert report.cs_residual == alpha_0 * x_0
        assert report.passed is passes

    def test_complementary_slackness_fails_on_its_own(self):
        # alpha_0 = 100 forced as above; |x_0| = 5e-8 keeps stationarity within
        # 1e-8 * |y_0| = 1e-6, and |alpha_0 * x_0| = 5e-6 is over 1e-8 * t * |y_0|
        _, report = _certify_given([-100.0, 0.5], [5e-8, 0.5], 0.0, [1, 0], [0, 0])
        assert report.stationarity_residual <= 1e-8 * 100.0
        assert report.dual_residual == 0.0 and report.sum_residual == 0.0
        assert report.primal_lower == 0.0 and report.primal_upper == 0.0
        assert report.cs_residual == 100.0 * 5e-8
        assert not report.passed

    def test_the_sum_is_judged_at_the_scale_of_s(self):
        rng = np.random.default_rng(12)
        inp = ProjectionInput(rng.random(10_000) - 0.5, 5_000.0)
        for excess, passes in ((2e-5, True), (1e-4, False)):
            # the projection for a slightly larger s: optimal but for the sum
            res = project_capped_box(ProjectionInput(inp.y, inp.s + excess))
            _, report = certify_result(inp, res)
            assert abs(report.sum_residual - excess) <= 1e-9
            assert report.passed is passes


def _reference_multipliers(y, gamma, zero, one, cap):
    # the forced multipliers as whole-array expressions, the blocked pass's reference
    shifted = y + gamma
    return -shifted * zero, (shifted - cap) * one


def _bits(values):
    return [float(v).hex() for v in values]


def _max(*values):
    # the builtin max, but NaN when any value is NaN, as a whole-array max is
    return float("nan") if any(v != v for v in values) else max(values)


def _reference_bits(inp, x, alpha, beta, gamma):
    # the six report fields as whole-array expressions, bit for bit
    t = inp.t
    return _bits(
        (
            np.max(np.abs(x - inp.y - alpha + beta - gamma)),
            _max(0.0, float(-x.min())),
            _max(0.0, float(x.max() - t)),
            abs(float(x.sum()) - inp.s),
            _max(0.0, float(-alpha.min()), float(-beta.min())),
            _max(float(np.max(np.abs(alpha * x))), float(np.max(np.abs(beta * (t - x))))),
        )
    )


def _certify_reference_bits(inp, x, gamma):
    # the report fields certify gives for x and gamma: its classification,
    # then the whole-array expressions
    ctol = 1e-7 * min(1.0, inp.t)
    shifted = inp.y + gamma
    zero = (x <= ctol) & (shifted <= 0.0)
    one = (x >= inp.t - ctol) & ~(x <= ctol) & (shifted >= inp.t)
    alpha, beta = _reference_multipliers(inp.y, gamma, zero, one, inp.t)
    return _reference_bits(inp, x, alpha, beta, gamma)


def _certify_reference(inp, x):
    # certify as whole-array expressions: the masks within the slack of each
    # bound, gamma from the interior (or the pinned groups' interval), then
    # each mask kept only where its multiplier is nonnegative; the masks
    # before and after that step, gamma, alpha and beta
    y, t = inp.y, inp.t
    ctol = 1e-7 * min(1.0, t)
    zero, one = x <= ctol, x >= t - ctol
    free = ~(zero | one)
    if free.any():
        gamma = float(np.mean(x[free] - y[free]))
    elif not one.any():
        gamma = -float(y[zero].max())
    else:
        lower = t - float(y[one].min())
        gamma = 0.5 * (lower - float(y[zero].max())) if zero.any() else lower
    shifted = y + gamma
    kept = zero & (shifted <= 0.0), one & (shifted >= t)
    return (zero, one), kept, gamma, *_reference_multipliers(y, gamma, *kept, t)


def _report_bits(report):
    return _bits(
        (
            report.stationarity_residual,
            report.primal_lower,
            report.primal_upper,
            report.sum_residual,
            report.dual_residual,
            report.cs_residual,
        )
    )


EDGE_D = 3 * (1 << 14) + 5  # three full blocks of the pass and a partial one


def _block_pattern(pattern):
    # an EDGE_D instance with only the blocks the pattern names; the partial
    # last block holds a coordinate of each kind present
    rng = np.random.default_rng(78)
    y = rng.random(EDGE_D) - 0.5
    d, t = EDGE_D, 1.0
    if pattern == "no zero block":  # y + gamma > 0 everywhere, some above t
        y[-4:], s = [3.0, 0.1, 3.0, 0.2], 0.9 * d
    elif pattern == "no cap block":  # y + gamma < t everywhere, some below 0
        y[-4:], s = [-3.0, 0.1, -3.0, 0.2], 0.1 * d
    elif pattern == "neither block":  # a = 0, b = D
        y *= 0.1
        y[-4:], s = [0.01, -0.02, 0.03, 0.0], 0.5 * d
    else:  # no interior: two groups a gap of more than t apart, a = b
        y = np.where(y < 0.0, y - 1.0, y + 1.0)
        y[-4:] = [-1.2, 1.3, -1.4, 1.1]
        s = t * float(np.count_nonzero(y > 0.0))
    inp = ProjectionInput(y, s, t)
    res = project_capped_box(inp)
    a, b = res.partition.a, res.partition.b
    assert (a == 0) == (pattern in ("no zero block", "neither block"))
    assert (b == d) == (pattern in ("no cap block", "neither block"))
    assert (a == b) == (pattern == "no interior")
    return inp, res


@pytest.fixture(scope="module")
def edge_case():
    # the partial last block holds one coordinate of each kind: pinned at 0,
    # pinned at the cap and interior (twice)
    rng = np.random.default_rng(77)
    y = rng.random(EDGE_D) - 0.5
    y[-5:] = [-3.0, 3.0, 0.1, -3.0, 0.2]
    inp = ProjectionInput(y, 0.5 * EDGE_D, 1.0)
    res = project_capped_box(inp)
    assert res.at_zero[-5] and res.at_cap[-4] and not (res.at_zero[-3] or res.at_cap[-3])
    return inp, res


class TestBlockEdges:
    def test_certify_result_matches_the_whole_array_formulas(self, edge_case):
        inp, res = edge_case
        cert, report = certify_result(inp, res)
        alpha, beta = _reference_multipliers(inp.y, res.gamma, res.at_zero, res.at_cap, inp.t)
        assert _report_bits(report) == _reference_bits(inp, res.x, alpha, beta, res.gamma)
        assert cert.alpha.tobytes() == alpha.tobytes()
        assert cert.beta.tobytes() == beta.tobytes()

    def test_certify_matches_the_whole_array_formulas(self, edge_case):
        inp, res = edge_case
        x = res.x.copy()
        # an interior entry within the classification slack of 0: it would
        # force alpha < 0 there, so it is judged interior and fails stationarity
        x[-3] = 3e-8
        cert, report = certify(inp, x)
        ctol = 1e-7 * min(1.0, inp.t)
        interior = (x > ctol) & (x < inp.t - ctol)
        assert cert.gamma == float(np.mean(x[interior] - inp.y[interior]))
        shifted = inp.y + cert.gamma
        zero = (x <= ctol) & (shifted <= 0.0)
        one = (x >= inp.t - ctol) & ~(x <= ctol) & (shifted >= inp.t)
        assert not zero[-3]
        alpha, beta = _reference_multipliers(inp.y, cert.gamma, zero, one, inp.t)
        assert _report_bits(report) == _reference_bits(inp, x, alpha, beta, cert.gamma)
        assert report.dual_residual == 0.0
        assert report.stationarity_residual >= 0.1 and not report.passed
        assert cert.alpha.tobytes() == alpha.tobytes()

    @pytest.mark.parametrize(
        "candidate",
        ["exact", "within slack", "perturbed", "nan", "inf", "-inf", 5e-324, 1e-300, 1e-9, 1e6],
    )
    def test_certify_refines_its_blocks_as_the_whole_array_formulas(self, edge_case, candidate):
        # the pass keeps a coordinate in its block only where its multiplier
        # is nonnegative.  "within slack" moves two interior entries of each
        # kind (one in a full block, one in the partial last block) within
        # the slack of 0 and of the cap, where the pass must take them out of
        # the block again; NaN and inf go to an interior and a pinned entry
        # of that candidate, and a number is a cap the instance is scaled to
        # (at 5e-324 the solver refuses it, so x pins each coordinate by the
        # sign of y).  No errstate: a NaN or an inf must not warn.
        inp, res = edge_case
        x = res.x.copy()
        if isinstance(candidate, float):
            t = candidate
            inp = ProjectionInput(inp.y * t, inp.s * t, t)
            x = np.where(inp.y > 0.0, t, 0.0) if t < 1e-323 else project_capped_box(inp).x
        t = inp.t
        if candidate == "perturbed":
            x += 1e-7 * t * np.random.default_rng(5).standard_normal(x.size)
        elif candidate != "exact":
            free, ctol = np.flatnonzero(~(res.at_zero | res.at_cap)), 1e-7 * min(1.0, t)
            x[free[[0, -2]]] = 0.3 * ctol
            x[free[[1, -1]]] = t - 0.3 * ctol
            if candidate in ("nan", "inf", "-inf"):
                x[[free[2], np.flatnonzero(res.at_cap)[-1]]] = float(candidate)
        cert, report = certify(inp, x)
        claimed, kept, gamma, alpha, beta = _certify_reference(inp, x)
        assert float(cert.gamma).hex() == float(gamma).hex()
        assert cert.alpha.tobytes() == alpha.tobytes()
        assert cert.beta.tobytes() == beta.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):  # inf meets 0 in the formulas
            assert _report_bits(report) == _reference_bits(inp, x, alpha, beta, gamma)
        if candidate not in ("exact", "perturbed", 5e-324):
            # entries left both blocks
            assert all(np.count_nonzero(k) < np.count_nonzero(c) for c, k in zip(claimed, kept))

    @pytest.mark.parametrize("d", [3, 64, 5000])
    @pytest.mark.parametrize("blocks", ["zero", "cap", "both"])
    def test_all_pinned_candidates_match_the_whole_array_formulas(self, d, blocks):
        # no interior: gamma is the midpoint of the pinned groups' interval,
        # or its finite end when one block is empty.  The two groups of y lie
        # more than t apart, so each candidate is the exact answer
        y = np.random.default_rng(d).standard_normal(d)
        y[:2] = -0.5, 0.5
        y += np.where(y > 0.0, 1.0, -1.0)
        t = 0.5
        x = {"zero": np.zeros(d), "cap": np.full(d, t), "both": np.where(y > 0.0, t, 0.0)}[blocks]
        inp = ProjectionInput(y, float(x.sum()), t)
        cert, report = certify(inp, x)
        _, kept, gamma, alpha, beta = _certify_reference(inp, x)
        # every coordinate keeps its block: its multiplier is nonnegative
        assert [k.tobytes() for k in kept] == [(x == 0.0).tobytes(), (x == t).tobytes()]
        assert float(cert.gamma).hex() == float(gamma).hex()
        assert cert.alpha.tobytes() == alpha.tobytes()
        assert cert.beta.tobytes() == beta.tobytes()
        assert _report_bits(report) == _reference_bits(inp, x, alpha, beta, gamma)
        assert report.passed

    def test_a_fine_look_in_an_early_block_leaves_a_later_violation_standing(self):
        # y[7] = 1e10 sits at the cap in block 0, where stationarity rounds
        # at its scale, past 1e-8 * max(t, |gamma|): that block takes the
        # per-coordinate check, and passes it.  Mass moved between two
        # interior entries of the partial last block must still fail there.
        y = np.random.default_rng(78).random(EDGE_D) - 0.5
        y[7] = 1e10
        inp = ProjectionInput(y, 0.5 * EDGE_D, 1.0)
        res = project_capped_box(inp)
        assert res.at_cap[7]
        report = certify_result(inp, res)[1]
        assert report.passed and certify(inp, res.x)[1].passed
        assert report.stationarity_residual > 1e-8 * max(inp.t, abs(res.gamma))
        interior = np.flatnonzero(~(res.at_zero | res.at_cap))
        i, j = interior[interior >= 3 * (1 << 14)][:2]
        x = res.x.copy()
        x[i] += 1e-6
        x[j] -= 1e-6
        assert not certify_result(inp, dataclasses.replace(res, x=x))[1].passed
        assert not certify(inp, x)[1].passed

    @pytest.mark.parametrize(
        "pattern", ["no zero block", "no cap block", "neither block", "no interior"]
    )
    def test_each_block_pattern_matches_the_whole_array_formulas(self, pattern):
        # an empty block's terms are skipped in the pass; the report must not
        # show it
        inp, res = _block_pattern(pattern)
        cert, report = certify_result(inp, res)
        alpha, beta = _reference_multipliers(inp.y, res.gamma, res.at_zero, res.at_cap, inp.t)
        assert _report_bits(report) == _reference_bits(inp, res.x, alpha, beta, res.gamma)
        assert report.passed
        assert cert.alpha.tobytes() == alpha.tobytes()
        assert cert.beta.tobytes() == beta.tobytes()
        cert, report = certify(inp, res.x)
        assert _report_bits(report) == _certify_reference_bits(inp, res.x, cert.gamma)
        assert report.passed

    @pytest.mark.parametrize(
        "misfit, message",
        [
            ("overlap", "both pinned blocks"),
            ("zero", "claimed zero block"),
            ("cap", "claimed pinned block"),
            ("interior", "claimed interior"),
        ],
    )
    def test_misfit_in_the_partial_block_raises(self, edge_case, misfit, message):
        inp, res = edge_case
        at_zero, at_cap, x = res.at_zero.copy(), res.at_cap.copy(), res.x.copy()
        # move one claim into the partial block, so the block sizes still match
        if misfit == "overlap":
            at_cap[np.flatnonzero(at_cap)[0]], at_cap[-5] = False, True
        elif misfit == "zero":
            at_zero[np.flatnonzero(at_zero)[0]], at_zero[-3] = False, True
        elif misfit == "cap":
            at_cap[np.flatnonzero(at_cap)[0]], at_cap[-3] = False, True
        else:
            x[-3] = 1.5
        bad = dataclasses.replace(res, x=x, at_zero=at_zero, at_cap=at_cap)
        with pytest.raises(InconsistentCandidateError, match=message):
            certify_result(inp, bad)


def test_certify_result_peak_memory_stays_under_one_mib():
    # the multipliers are built only when read, and the pass keeps a few
    # buffers of 2^14 entries; whole-array temporaries would peak at 8 MiB
    rng = np.random.default_rng(3)
    d = 1 << 18
    inp = ProjectionInput(rng.random(d) - 0.5, 0.7 * d)
    res = project_capped_box(inp)
    certify_result(inp, res)
    tracemalloc.start()
    try:
        _, report = certify_result(inp, res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 1 << 20, peak


def _reports(inp, res, x, gamma):
    # everything certify_result and certify say about (x, gamma): the report
    # bits, passed, the multipliers' bytes, or the error raised
    out = []
    for run in (
        lambda: certify_result(inp, dataclasses.replace(res, x=x, gamma=gamma)),
        lambda: certify(inp, x),
    ):
        try:
            cert, report = run()
        except InconsistentCandidateError as exc:
            out.append(str(exc))
            continue
        gamma_bits, multipliers = float(cert.gamma).hex(), (cert.alpha.tobytes(), cert.beta.tobytes())
        out.append((_report_bits(report), report.passed, gamma_bits, multipliers))
    return out


@pytest.mark.parametrize("d", [64, 4096, (1 << 18) + 3])
def test_the_on_bound_skip_leaves_every_report_bit(monkeypatch, d):
    # with the skip of sides that sit exactly on their bound forced off,
    # every term runs: the reports must not change, on exact answers, on a
    # pinned entry moved 1 ulp or 1e-9 off its bound, and on NaN and inf
    rng = np.random.default_rng(d)
    inp = ProjectionInput(4.0 * rng.random(d) - 2.0, 0.4 * d)
    res = project_capped_box(inp)
    zero, cap = np.flatnonzero(res.at_zero)[-1], np.flatnonzero(res.at_cap)[-1]
    cases = [(res.x, res.gamma)]
    for k, moved in (
        (zero, 5e-324),
        (zero, 1e-9),
        (cap, np.nextafter(inp.t, 0.0)),
        (cap, inp.t - 1e-9),
        (d // 2, np.nan),
        (d // 2, np.inf),
        (zero, -np.inf),
    ):
        x = res.x.copy()
        x[k] = moved
        cases.append((x, res.gamma))
    cases += [(res.x, g) for g in (np.nan, np.inf, -np.inf, 1e308)]
    on_bound, skipped = kkt._on_bound, []
    monkeypatch.setattr(kkt, "_on_bound", lambda *args: skipped.append(on_bound(*args)) or skipped[-1])
    # no errstate: where inf meets 0 the pass must not warn
    fast = [_reports(inp, res, x, g) for x, g in cases]
    assert sum(skipped) >= 2 * -(-d // (1 << 14))  # both sides of every block of res.x
    monkeypatch.setattr(kkt, "_on_bound", lambda *args: False)
    assert [_reports(inp, res, x, g) for x, g in cases] == fast
    assert fast[0][0][1] and fast[0][1][1]  # the exact answer passes both

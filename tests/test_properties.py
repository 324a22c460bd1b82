"""Structural properties the projection must satisfy on random inputs.

These hold for the exact Euclidean projection onto any closed convex set (or
follow from the specific polytope here), so violations indicate solver bugs
rather than tolerance choices.
"""

import numpy as np
import pytest

from cappedproj import (
    ProjectionInput,
    certify_result,
    enumerate_oracle,
    project_capped_simplex,
    project_simplex,
)


def _random_case(rng, max_d=50):
    d = int(rng.integers(1, max_d + 1))
    scale = float(rng.choice([0.3, 1.0, 4.0]))
    y = rng.normal(size=d) * scale
    if rng.random() < 0.5:
        s = float(rng.integers(0, d + 1))
    else:
        s = float(rng.uniform(0.0, d))
    return y, s


class TestAgainstOracle:
    def test_small_dimension_sweep(self):
        rng = np.random.default_rng(100)
        for _ in range(500):
            d = int(rng.integers(1, 9))
            y = rng.normal(size=d) * float(rng.choice([0.2, 1.0, 5.0]))
            s = float(rng.uniform(0.0, d))
            x = project_capped_simplex(ProjectionInput(y, s)).x
            ref = enumerate_oracle(y, s)
            assert np.max(np.abs(x - ref)) <= 1e-9, (y.tolist(), s)


class TestFeasibility:
    def test_output_always_feasible(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            y, s = _random_case(rng)
            x = project_capped_simplex(ProjectionInput(y, s)).x
            assert x.min() >= -1e-8 and x.max() <= 1.0 + 1e-8
            assert abs(float(x.sum()) - s) <= 1e-8


class TestIdempotency:
    def test_projecting_a_projection_changes_nothing(self):
        rng = np.random.default_rng(102)
        for _ in range(300):
            y, s = _random_case(rng)
            x = project_capped_simplex(ProjectionInput(y, s)).x
            again = project_capped_simplex(ProjectionInput(x, s)).x
            assert np.max(np.abs(again - x)) <= 1e-12


class TestNonexpansiveness:
    def test_distance_never_grows(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            y1, s = _random_case(rng)
            y2 = y1 + rng.normal(size=y1.size) * 0.5
            x1 = project_capped_simplex(ProjectionInput(y1, s)).x
            x2 = project_capped_simplex(ProjectionInput(y2, s)).x
            lhs = np.linalg.norm(x1 - x2)
            rhs = np.linalg.norm(y1 - y2)
            assert lhs <= rhs + 1e-12, (s, lhs, rhs)


class TestPermutationEquivariance:
    def test_relabeling_coordinates_relabels_the_solution(self):
        rng = np.random.default_rng(104)
        for _ in range(300):
            y, s = _random_case(rng)
            perm = rng.permutation(y.size)
            x = project_capped_simplex(ProjectionInput(y, s)).x
            xp = project_capped_simplex(ProjectionInput(y[perm], s)).x
            assert np.max(np.abs(xp - x[perm])) <= 1e-12


class TestTranslationInvariance:
    def test_constant_shifts_cancel(self):
        # gamma absorbs any multiple of the all-ones vector
        rng = np.random.default_rng(105)
        for _ in range(300):
            y, s = _random_case(rng)
            c = float(rng.uniform(-10.0, 10.0))
            x = project_capped_simplex(ProjectionInput(y, s)).x
            xc = project_capped_simplex(ProjectionInput(y + c, s)).x
            assert np.max(np.abs(xc - x)) <= 1e-9


class TestOrderingConsistency:
    def test_solution_respects_input_order(self):
        rng = np.random.default_rng(106)
        for _ in range(200):
            y, s = _random_case(rng, max_d=30)
            x = project_capped_simplex(ProjectionInput(y, s)).x
            order = np.argsort(y, kind="stable")
            assert np.all(np.diff(x[order]) >= -1e-12)


class TestSmallTargetReduction:
    def test_cap_inactive_below_target_one(self):
        # with s <= 1 no coordinate can reach the cap, so the capped and the
        # plain simplex projections coincide
        rng = np.random.default_rng(107)
        for _ in range(300):
            d = int(rng.integers(1, 40))
            y = rng.normal(size=d)
            s = float(rng.uniform(0.0, 1.0))
            capped = project_capped_simplex(ProjectionInput(y, s)).x
            plain = project_simplex(y, s)
            assert np.max(np.abs(capped - plain)) <= 1e-10


class TestScaleRobustness:
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_extreme_magnitudes_still_certify(self, scale):
        rng = np.random.default_rng(108)
        for _ in range(20):
            d = int(rng.integers(2, 30))
            y = rng.normal(size=d) * scale
            s = float(rng.uniform(0.0, d))
            inp = ProjectionInput(y, s)
            res = project_capped_simplex(inp)
            _, report = certify_result(inp, res)
            assert report.passed, (scale, report)

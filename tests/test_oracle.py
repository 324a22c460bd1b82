"""Tests for the brute-force reference solver and the instance generator."""

import numpy as np
import numpy.testing as npt
import pytest

from cappedproj import (
    GENERATOR_ID,
    ORACLE_MAX_DIM,
    CapacityError,
    ProjectionInput,
    certify,
    enumerate_oracle,
    random_instance,
)
from cappedproj.oracle import default_eps


def _random_feasible(rng, d, s, parts=5):
    # convex combination of vertices of the feasible set: floor(s) ones, the
    # fractional remainder on one coordinate, zeros elsewhere
    base = int(np.floor(s))
    frac = s - base
    pts = np.zeros((parts, d))
    for i in range(parts):
        perm = rng.permutation(d)
        pts[i, perm[:base]] = 1.0
        if frac > 0.0:
            pts[i, perm[base]] = frac
    w = rng.random(parts)
    w /= w.sum()
    return w @ pts


class TestEnumerateOracle:
    def test_three_point_instance(self):
        x = enumerate_oracle(np.array([0.3, -0.2, 1.5]), 2.0)
        npt.assert_allclose(x, [0.75, 0.25, 1.0], atol=1e-12)

    def test_sum_target_zero_gives_all_zeros(self):
        x = enumerate_oracle(np.array([0.4, -1.0, 2.2, 0.9]), 0.0)
        npt.assert_array_equal(x, np.zeros(4))

    def test_sum_target_d_gives_all_ones(self):
        x = enumerate_oracle(np.array([0.4, -1.0, 2.2, 0.9]), 4.0)
        npt.assert_array_equal(x, np.ones(4))

    def test_two_point_interior_solution(self):
        x = enumerate_oracle(np.array([0.1, 0.2]), 1.0)
        npt.assert_allclose(x, [0.45, 0.55], atol=1e-12)

    def test_wide_gap_pins_both_coordinates(self):
        x = enumerate_oracle(np.array([0.0, 5.0]), 1.0)
        npt.assert_allclose(x, [0.0, 1.0], atol=1e-12)

    def test_output_is_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            y = rng.normal(size=d) * 2.0
            s = float(rng.uniform(0.0, d))
            x = enumerate_oracle(y, s)
            assert abs(x.sum() - s) <= 1e-9, (y, s, x)
            assert x.min() >= -1e-12 and x.max() <= 1.0 + 1e-12

    def test_output_beats_random_feasible_points(self):
        """The returned vector must minimize the distance to y over the set."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            y = rng.normal(size=d)
            s = float(rng.uniform(0.0, d))
            x = enumerate_oracle(y, s)
            fx = np.sum((x - y) ** 2)
            for _ in range(10):
                z = _random_feasible(rng, d, s)
                assert fx <= np.sum((z - y) ** 2) + 1e-9

    def test_labeling_margins_hold(self):
        # the full first-order system, checked by the certificate's own code;
        # 48 of these 100 answers are all-pinned
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 8))
            y = rng.normal(size=d)
            s = float(rng.integers(0, d + 1))
            _, report = certify(ProjectionInput(y, s), enumerate_oracle(y, s))
            assert report.passed, (y, s, report)

    def test_the_sum_target_holds_next_to_a_large_value(self):
        # 1.5 - 1e17 rounds to -1e17, so the labeling with 1e17 interior and
        # the rest at zero holds every margin; only its sum misses s
        npt.assert_allclose(enumerate_oracle([1e17, 0.1, 0.2], 1.5), [1.0, 0.2, 0.3], atol=1e-15)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            enumerate_oracle(np.zeros(ORACLE_MAX_DIM + 1), 1.0)


class TestRandomInstance:
    def test_deterministic_for_a_given_spec(self):
        a = random_instance(12, 42)
        b = random_instance(12, 42)
        npt.assert_array_equal(a.y, b.y)
        assert a.s == b.s

    def test_different_seeds_differ(self):
        a = random_instance(12, 0)
        b = random_instance(12, 1)
        assert not np.array_equal(a.y, b.y)

    def test_ranges_and_integrality(self):
        for seed in range(50):
            inp = random_instance(9, seed)
            assert inp.y.min() >= -0.5 and inp.y.max() < 0.5
            assert inp.s == int(inp.s)
            assert 0.0 <= inp.s <= 9.0

    def test_values_center_near_zero(self):
        inp = random_instance(4000, 7)
        assert abs(inp.y.mean()) < 0.02

    def test_generator_id_is_pinned(self):
        # the identifier travels into benchmark files; changing it silently
        # would break cross-machine reproducibility claims
        assert GENERATOR_ID == "philox4x64-10"


class TestDefaultEps:
    def test_scales_with_magnitude(self):
        assert default_eps(np.array([0.1, -0.2])) == 1e-9
        assert default_eps(np.array([100.0, -3.0])) == 1e-9 * 100.0

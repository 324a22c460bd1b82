"""Tests for the exact solver: helpers, golden instances, oracle agreement."""

import bisect
import importlib
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappedproj import (
    DegeneratePartitionError,
    InconsistentCandidateError,
    InfeasibleError,
    InvalidInputError,
    Partition,
    ProjectionInput,
    certify_result,
    enumerate_oracle,
    project_capped_box,
    project_capped_simplex,
    sort_with_permutation,
)
from cappedproj import projection
from cappedproj.projection import (
    boundary_case_holds,
    default_eps,
    gamma_for_partition,
    partition_is_optimal,
)


class TestProjectionInput:
    def test_accepts_lists_and_coerces(self):
        inp = ProjectionInput([0.5, 0.25], 1.0)
        assert inp.y.dtype == np.float64
        assert inp.dim == 2
        assert inp.t == 1.0

    def test_rejects_bad_vectors(self):
        with pytest.raises(InvalidInputError):
            ProjectionInput(np.array([1.0, np.inf]), 1.0)
        with pytest.raises(InvalidInputError):
            ProjectionInput(np.ones((2, 3)), 1.0)
        with pytest.raises(InvalidInputError):
            ProjectionInput(np.array([]), 0.0)

    def test_rejects_bad_cap_and_target(self):
        with pytest.raises(InvalidInputError):
            ProjectionInput([0.0, 0.0], 1.0, t=0.0)
        with pytest.raises(InvalidInputError):
            ProjectionInput([0.0, 0.0], 1.0, t=-2.0)
        with pytest.raises(InvalidInputError):
            ProjectionInput([0.0, 0.0], np.nan)

    def test_infeasible_targets(self):
        with pytest.raises(InfeasibleError):
            ProjectionInput([0.0, 0.0], -1.0)
        with pytest.raises(InfeasibleError):
            ProjectionInput([0.0, 0.0], 2.5)
        with pytest.raises(InfeasibleError):
            ProjectionInput([0.0, 0.0], 1.2, t=0.5)

    def test_feasible_boundaries_accepted(self):
        ProjectionInput([0.0, 0.0], 0.0)
        ProjectionInput([0.0, 0.0], 2.0)
        ProjectionInput([0.0, 0.0], 1.0, t=0.5)


class TestSortWithPermutation:
    def test_sorted_order_and_inverse(self):
        y = np.array([0.3, -0.2, 1.5])
        inst = sort_with_permutation(y)
        npt.assert_array_equal(inst.y_sorted, np.sort(y))
        npt.assert_array_equal(inst.y_sorted, y[inst.perm])

    def test_prefix_sums(self):
        y = np.array([2.0, -1.0, 0.5])
        inst = sort_with_permutation(y)
        npt.assert_allclose(inst.prefix, [0.0, -1.0, -0.5, 1.5])

    def test_stable_on_ties(self):
        inst = sort_with_permutation(np.array([1.0, 0.0, 1.0, 0.0]))
        npt.assert_array_equal(inst.perm, [1, 3, 0, 2])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            sort_with_permutation(np.array([0.0, np.nan]))


class TestGammaForPartition:
    def test_three_point_shift(self):
        ys = np.sort(np.array([-0.2, 0.3, 1.5]))
        g = gamma_for_partition(ys, Partition(0, 2), 2.0)
        assert abs(g - 0.45) < 1e-15

    def test_all_interior_is_mean_shift(self):
        y = np.array([0.3, -0.1, 0.4, 0.2])
        ys = np.sort(y)
        g = gamma_for_partition(ys, Partition(0, 4), 1.0)
        npt.assert_allclose(g, (1.0 - y.sum()) / 4.0, atol=1e-15)

    def test_single_interior_coordinate(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        g = gamma_for_partition(ys, Partition(1, 2), 1.5)
        assert g == 0.0

    def test_interior_summed_directly_next_to_an_outlier(self):
        # prefix[4] - prefix[1] rounds to 0 at 1e17; the interior sums to 0.6
        ys = np.sort(np.array([-1e17, 0.1, 0.2, 0.3]))
        g = gamma_for_partition(ys, Partition(1, 4), 1.5)
        assert abs(g - 0.3) < 1e-15

    def test_empty_interior_rejected(self):
        ys = np.sort(np.array([0.1, 0.9]))
        with pytest.raises(DegeneratePartitionError):
            gamma_for_partition(ys, Partition(1, 1), 1.0)


class TestPartitionIsOptimal:
    def test_accepts_the_true_split(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        assert partition_is_optimal(ys, Partition(1, 2), 0.0, 1e-9)

    def test_rejects_wrong_shift(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        assert not partition_is_optimal(ys, Partition(1, 2), 0.7, 1e-9)
        assert not partition_is_optimal(ys, Partition(1, 2), -0.6, 1e-9)

    def test_rejects_wrong_split(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        g = gamma_for_partition(ys, Partition(0, 2), 1.5)
        assert not partition_is_optimal(ys, Partition(0, 2), g, 1e-9)

    def test_virtual_neighbors_are_skipped(self):
        # a = 0 has no zero block and b = D has no one block; the tests
        # against those neighbors must not fire
        ys = np.sort(np.array([0.1, 0.2]))
        assert partition_is_optimal(ys, Partition(0, 2), 0.35, 1e-9)

    def test_tolerance_widens_acceptance(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        assert not partition_is_optimal(ys, Partition(1, 2), 0.51, 1e-9)
        assert partition_is_optimal(ys, Partition(1, 2), 0.51, 0.1)


class TestBoundaryCaseHolds:
    def test_wide_gap_with_matching_sum(self):
        ys = np.sort(np.array([0.0, 5.0]))
        assert boundary_case_holds(ys, 1, 1.0, 1e-9)

    def test_sum_mismatch(self):
        ys = np.sort(np.array([0.0, 5.0]))
        assert not boundary_case_holds(ys, 1, 1.5, 1e-9)

    def test_narrow_gap(self):
        ys = np.sort(np.array([0.0, 0.8]))
        assert not boundary_case_holds(ys, 1, 1.0, 1e-9)

    def test_ends_have_no_gap_requirement(self):
        ys = np.sort(np.array([0.3, -0.2]))
        assert boundary_case_holds(ys, 0, 2.0, 1e-9)
        assert boundary_case_holds(ys, 2, 0.0, 1e-9)


class TestProjectCappedSimplex:
    def test_three_point_golden(self):
        res = project_capped_simplex(ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0))
        npt.assert_array_equal(res.x, [0.75, 0.25, 1.0])
        assert abs(res.gamma - 0.45) < 1e-15
        assert (res.partition.a, res.partition.b) == (0, 2)

    def test_sum_zero_is_exactly_zero(self):
        res = project_capped_simplex(ProjectionInput(np.array([0.4, -0.7, 0.2]), 0.0))
        npt.assert_array_equal(res.x, np.zeros(3))

    def test_sum_d_is_exactly_one(self):
        res = project_capped_simplex(ProjectionInput(np.array([0.4, -0.7, 0.2]), 3.0))
        npt.assert_array_equal(res.x, np.ones(3))

    def test_interior_pair(self):
        res = project_capped_simplex(ProjectionInput(np.array([0.1, 0.2]), 1.0))
        npt.assert_allclose(res.x, [0.45, 0.55], atol=1e-15)
        assert abs(res.gamma - 0.35) < 1e-15

    def test_gap_instance_uses_the_pinned_branch(self):
        res = project_capped_simplex(ProjectionInput(np.array([0.0, 5.0]), 1.0))
        npt.assert_array_equal(res.x, [0.0, 1.0])
        assert res.partition.a == res.partition.b == 1

    def test_result_in_original_order(self):
        y = np.array([1.5, 0.3, -0.2])
        res = project_capped_simplex(ProjectionInput(y, 2.0))
        npt.assert_array_equal(res.x, [1.0, 0.75, 0.25])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            d = int(rng.integers(1, 9))
            y = rng.normal(size=d) * float(rng.choice([0.1, 1.0, 10.0]))
            s = float(rng.uniform(0.0, d))
            res = project_capped_simplex(ProjectionInput(y, s))
            ref = enumerate_oracle(y, s)
            assert np.max(np.abs(res.x - ref)) <= 1e-9, (y, s)
            assert not res.fallback

    def test_integer_targets_against_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            y = rng.uniform(-0.5, 0.5, size=d)
            s = float(rng.integers(0, d + 1))
            res = project_capped_simplex(ProjectionInput(y, s))
            ref = enumerate_oracle(y, s)
            assert np.max(np.abs(res.x - ref)) <= 1e-9

    def test_sum_constraint_tight_at_scale(self):
        inp = ProjectionInput(np.random.default_rng(5).uniform(-0.5, 0.5, 50_000), 21_111.0)
        res = project_capped_simplex(inp)
        assert abs(res.x.sum() - inp.s) <= 1e-8

    def test_reported_partition_matches_x(self):
        # the blocks come back as masks in input order: exactly +0.0 on the a
        # zeros, exactly 1.0 on the D - b pinned, inside [0, 1] elsewhere;
        # the rounded copy of each draw puts ties on the block edges
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(2, 30))
            y = rng.normal(size=d)
            s = float(rng.uniform(0.0, d))
            for yy in (y, np.round(y * 4.0) / 4.0):
                res = project_capped_simplex(ProjectionInput(yy, s))
                a, b = res.partition.a, res.partition.b
                assert np.count_nonzero(res.at_zero) == a
                assert np.count_nonzero(res.at_cap) == d - b
                assert not np.any(res.at_zero & res.at_cap)
                npt.assert_array_equal(res.x[res.at_zero], np.zeros(a))
                assert not np.signbit(res.x[res.at_zero]).any()
                npt.assert_array_equal(res.x[res.at_cap], np.ones(d - b))
                inner = res.x[~(res.at_zero | res.at_cap)]
                assert inner.size == b - a
                if b > a:
                    assert inner.min() >= -1e-9 and inner.max() <= 1.0 + 1e-9
                _assert_ties_kept(yy, res.x)

    def test_cap_must_be_one(self):
        with pytest.raises(InvalidInputError):
            project_capped_simplex(ProjectionInput([0.1, 0.2], 0.5, t=2.0))

    def test_single_coordinate(self):
        res = project_capped_simplex(ProjectionInput(np.array([0.7]), 0.25))
        npt.assert_allclose(res.x, [0.25], atol=1e-15)


def _assert_ties_kept(y, x):
    """Equal entries of y have equal entries of x."""
    order = np.argsort(y, kind="stable")
    ys, xs = y[order], x[order]
    same = ys[1:] == ys[:-1]
    npt.assert_array_equal(xs[1:][same], xs[:-1][same])


GOLDEN = [
    # ties: a unit gap with integral s (the all-pinned split), a coordinate
    # exactly at 0, all coordinates equal, and s = 0 on equal coordinates
    ([0.0, 5.0], 1.0, [0.0, 1.0]),
    ([0.0, 0.5, 5.0], 1.5, [0.0, 0.5, 1.0]),
    ([0.25, 0.25, 0.25, 0.25], 2.0, [0.5, 0.5, 0.5, 0.5]),
    ([1.0, 1.0, 1.0], 0.0, [0.0, 0.0, 0.0]),
    # one outlier next to a small interior: the interior must not be lost
    # to the outlier's magnitude
    ([1e10, 0.1, 0.2, 0.3], 1.5, [1.0, 1.0 / 15.0, 1.0 / 6.0, 4.0 / 15.0]),
    ([-1e9, 0.1, 0.2, 0.3], 1.5, [0.0, 0.4, 0.5, 0.6]),
    # a tie group on each block edge, from either side: exactly at 0, first
    # in the interior, exactly at the cap, last in the interior, and groups
    # on both edges at once (shifted, unshifted, and all pinned)
    ([0.5, 0.0, 0.5, 0.0], 1.0, [0.5, 0.0, 0.5, 0.0]),
    ([0.25, -1.0, 0.75, 0.25], 1.5, [1.0 / 3.0, 0.0, 5.0 / 6.0, 1.0 / 3.0]),
    ([1.0, 0.25, 1.0, 0.25], 2.5, [1.0, 0.25, 1.0, 0.25]),
    ([0.5, 3.0, 0.0, 0.5], 2.0, [0.5, 1.0, 0.0, 0.5]),
    ([1.5, -0.5, 0.2, 1.5, 0.2, -0.5], 3.0, [1.0, 0.0, 0.5, 1.0, 0.5, 0.0]),
    ([0.75, -0.25, 0.5, -0.25], 1.75, [1.0, 0.0, 0.75, 0.0]),
    ([2.0, 0.0, 2.0, 0.0], 2.0, [1.0, 0.0, 1.0, 0.0]),
]


@pytest.mark.parametrize("y, s, want", GOLDEN)
def test_golden_instances(y, s, want):
    res = project_capped_simplex(ProjectionInput(y, s))
    npt.assert_allclose(res.x, want, rtol=0.0, atol=1e-12)
    npt.assert_allclose(enumerate_oracle(y, s), want, rtol=0.0, atol=1e-12)
    _assert_ties_kept(np.array(y), res.x)


_grid = st.integers(-16, 16).map(lambda k: k / 8.0)
_wide = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _instances(draw):
    d = draw(st.integers(1, 8))
    y = draw(st.lists(draw(st.sampled_from([_grid, _wide])), min_size=d, max_size=d))
    s = draw(st.one_of(st.integers(0, d).map(float), st.floats(0.0, float(d))))
    return np.array(y), s


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_instances())
def test_matches_oracle_on_ties_and_wide_values(inst):
    y, s = inst
    res = project_capped_simplex(ProjectionInput(y, s))
    gap = float(np.max(np.abs(res.x - enumerate_oracle(y, s))))
    assert gap <= 1e-9 * max(1.0, float(np.max(np.abs(y))))


def test_wrong_split_raises(monkeypatch):
    # (0, 3) puts -2 in the interior although the projection pins it at 0
    monkeypatch.setattr(projection, "_kink_search", lambda ys, s, t: (0, 3))
    with pytest.raises(InconsistentCandidateError):
        project_capped_simplex(ProjectionInput([-2.0, 0.5, 3.0], 1.5))


@pytest.fixture
def f_calls(monkeypatch):
    # counts every evaluation of f the kink search makes, guided or bisecting
    calls = [0]
    f = projection._f

    def counted(*args):
        calls[0] += 1
        return f(*args)

    monkeypatch.setattr(projection, "_f", counted)
    return calls


def test_search_work_stays_within_two_bisections(f_calls):
    # on these inputs the guided probes land on or next to each block edge,
    # so a solve evaluates f no more often than two bisections over the D
    # kinks would, 2 * ceil(log2(D + 1)), ties or not
    rng = np.random.default_rng(23)
    total = 0
    for d in (1, 2, 3, 5, 8, 17, 64, 255, 256, 1000, 4096, 65535, 100_000):
        bound = 2 * math.ceil(math.log2(d + 1))
        for ties in (False, True):
            y = rng.integers(0, 4, d) / 4.0 if ties else rng.normal(size=d)
            for s in (float(rng.integers(0, d + 1)), float(rng.uniform(0.0, d))):
                f_calls[0] = 0
                project_capped_simplex(ProjectionInput(y, s))
                assert f_calls[0] <= bound, (d, ties, s, f_calls[0])
                total += f_calls[0]
    # the count is live, and far below the 705 evaluations of two plain
    # bisections on these 52 solves
    assert 0 < total <= 300


def _two_bisections(ys, s, t):
    # reference split: the first kink index of each edge test by plain
    # bisection, with f evaluated from its definition
    d = ys.size
    a = d - round(s / t)
    if boundary_case_holds(ys, a, s, 0.0, t):
        return a, a

    def f(gamma):
        return np.clip(ys + gamma, 0.0, t).sum()

    a = bisect.bisect_left(range(d), True, key=lambda k: f(-ys[k]) < s)
    b = bisect.bisect_left(range(d), True, lo=a, key=lambda k: f(t - ys[k]) <= s)
    return a, b


def _adversarial_y(rng, d):
    kind = int(rng.integers(4))
    if kind == 0:  # magnitudes spread geometrically over 1e-6..1e6, both signs
        return rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-6.0, 6.0, d)
    if kind == 1:
        return rng.standard_cauchy(d)
    if kind == 2:  # one outlier of +-1e6 among unit values
        y = rng.uniform(-1.0, 1.0, d)
        y[rng.integers(d)] = rng.choice([-1e6, 1e6])
        return y
    # blocks of 50 equal values
    return np.repeat(rng.normal(size=d // 50 + 1), 50)[:d]


def test_guided_search_matches_two_bisections_on_adversarial_inputs(f_calls):
    rng = np.random.default_rng(808)
    excess = []
    for _ in range(2000):
        d = int(np.exp(rng.uniform(0.0, np.log(3000.0))))
        y = _adversarial_y(rng, d)
        t = 10.0 ** rng.uniform(-2.0, 2.0)
        s = t * (float(rng.integers(d + 1)) if rng.random() < 0.5 else rng.uniform(0.0, d))
        ys = np.sort(y)
        f_calls[0] = 0
        split = projection._kink_search(ys, s, t)
        assert split == _two_bisections(ys, s, t), (d, s, t)
        bisections = 2 * math.ceil(math.log2(d + 1))
        assert f_calls[0] <= bisections + 2 * projection._GUIDED, (d, s, t, f_calls[0])
        excess.append(f_calls[0] - bisections)
    # a guess outside the open bracket is not followed, so Newton cycling on
    # heavy tails costs at most a few probes over two bisections (9 here
    # when such guesses are clamped into the bracket instead)
    assert max(excess) <= 4


def _large_adversarial_y(rng, kind, d):
    if kind == "ties":
        return rng.integers(-8, 9, d) / 8.0
    if kind == "cauchy":
        return rng.standard_cauchy(d)
    y = rng.uniform(-1.0, 1.0, d)  # one outlier of +-1e15 among unit values
    y[rng.integers(d)] = rng.choice([-1e15, 1e15])
    return y


@pytest.mark.parametrize("d", [2**14 + 1, 3 * 2**14 + 5, 100_000])
def test_block_sums_keep_the_split_of_two_bisections(f_calls, d):
    # past D = 2^14, f adds the sums of whole blocks of 2^14 sorted values
    # to the two fringes of its interior; the split is still the one that
    # two bisections find with f summed from its definition
    rng = np.random.default_rng(d)
    bisections = 2 * math.ceil(math.log2(d + 1))
    for kind in ("ties", "cauchy", "outlier"):
        for _ in range(4):
            y = _large_adversarial_y(rng, kind, d)
            t = 10.0 ** rng.uniform(-2.0, 2.0)
            s = t * (float(rng.integers(d + 1)) if rng.random() < 0.5 else rng.uniform(0.0, d))
            ys = np.sort(y)
            f_calls[0] = 0
            assert projection._kink_search(ys, s, t) == _two_bisections(ys, s, t), (kind, s, t)
            assert f_calls[0] <= bisections + 2 * projection._GUIDED, (kind, s, t, f_calls[0])


def test_block_sums_add_up_every_slice():
    # integers add up exactly in any order, so a value dropped or counted
    # twice next to a block's edge shows
    n = projection._BLOCK
    ys = np.sort(np.random.default_rng(5).integers(1, 1000, 3 * n + 5)).astype(float)
    assert projection._block_sums(ys[:n]) is None
    sums = projection._block_sums(ys)
    cuts = [0, 1, n - 1, n, n + 1, 2 * n, 3 * n - 1, 3 * n, 3 * n + 1, ys.size]
    for lo in cuts:
        for hi in cuts[cuts.index(lo) :]:
            assert projection._sum(ys, sums, lo, hi) == ys[lo:hi].sum(), (lo, hi)


def test_f_where_both_kinks_of_a_coordinate_round_together():
    # at gamma = 1e17, t - gamma rounds to -gamma: y = -1e17 has y + gamma
    # == 0 and counts at zero, so the slope is 0, never negative
    assert projection._f(np.array([-1e17, 0.1]), None, 1.0, 1e17) == (1.0, 0)


def _mask_product_assembly(y, s, t, p):
    # the reference x and gamma: y clipped to the interior's range, plus
    # gamma, times the free mask, plus t on the cap block, then one
    # re-centering of the interior
    ys, d, a, b = np.sort(y), y.size, p.a, p.b
    at_zero = y < ys[a] if 0 < a < d else np.full(d, a == d)
    at_cap = y >= ys[b] if b < d else np.zeros(d, dtype=bool)
    gamma = gamma_for_partition(ys, p, s, t)
    free = ~(at_zero | at_cap)
    x = (np.clip(y, ys[a], ys[b - 1]) + gamma) * free + at_cap * t
    delta = (s - float(x.sum())) / (b - a)
    if delta != 0.0:
        x += free * delta
        gamma += delta
    return x, gamma


@pytest.fixture
def putmask_calls(monkeypatch):
    # counts the assembly's mask writes, which only a rounding tie at a
    # block edge takes instead of the clip
    calls = [0]
    putmask = np.putmask

    def counted(*args):
        calls[0] += 1
        return putmask(*args)

    monkeypatch.setattr(np, "putmask", counted)
    return calls


def _assert_assembly_bits(y, s, t):
    # an answer with an interior has the reference's bits, and no -0.0
    res = project_capped_box(ProjectionInput(y, s, t))
    assert not np.signbit(res.x[res.x == 0.0]).any()
    if res.partition.b > res.partition.a:
        x, gamma = _mask_product_assembly(np.asarray(y, dtype=float), s, t, res.partition)
        assert res.x.tobytes() == x.tobytes(), (y, s, t)
        assert np.float64(res.gamma).tobytes() == np.float64(gamma).tobytes(), (y, s, t)


# at s = 14 * (1/3), the first value at the cap, 0.875 + gamma, rounds to
# 0.3333333333333332, just below t = 1/3, where a clip would leave it; at
# s = 14/3 it rounds to 0.33333333333333337, which the clip pins at t
_TIE_Y = [-0.625, 0.75, -0.375, -0.75, -0.75, -0.75, 0.125, -0.125, 0.875, 0.75, 0.125]
_TIE_Y += [0.125, -0.375, 0.125, 0.875, 0.5, -0.25, -0.25, 0.0, 0.625, -0.375]


@pytest.mark.parametrize("s, writes", [(14 * (1 / 3), 2), (14 / 3, 0)])
def test_a_rounding_tie_at_the_cap_writes_the_blocks_by_mask(putmask_calls, s, writes):
    _assert_assembly_bits(_TIE_Y, s, 1 / 3)
    assert putmask_calls[0] == writes


def test_the_clip_gives_the_bits_of_the_mask_product(putmask_calls):
    # every block pattern (both blocks, no cap block, no zero block,
    # neither) on plain values, which take the clip
    rng = np.random.default_rng(77)
    for t in (1.0, 0.3, 7.3):
        for d in (1, 2, 5, 64, 4096, 2**14 + 3):
            y = rng.uniform(-2.0, 2.0, d) * t
            for s in (0.1 * t, 0.5 * t * d, t * (d - 0.1), float(np.clip(y, 0.0, t).sum())):
                _assert_assembly_bits(y, s, t)
    assert putmask_calls[0] == 0


def test_the_mask_writes_give_the_bits_of_the_mask_product(putmask_calls):
    # y and s on a grid of t/8 for caps that are not powers of 2, where an
    # edge value now and then rounds to the wrong side of 0 or the cap
    rng = np.random.default_rng(78)
    for i in range(2000):
        t = (1.0, 0.3, 1 / 3, 0.1)[i % 4]
        d = int(rng.integers(1, 40))
        y = rng.integers(-8, 9, d) * t / 8.0
        s = min(t * d, t * float(rng.integers(0, 8 * d + 1)) / 8.0)
        _assert_assembly_bits(y, s, t)
    assert putmask_calls[0] > 0


@pytest.mark.parametrize(
    "y, s, t",
    [
        ([-0.0], -0.0, 1.0),
        ([-0.0, -0.0, 0.5], -0.0, 1.0),
        # gamma = -5e-324 / 3 underflows to -0.0; np.clip keeps the -0.0
        # that -0.0 + -0.0 gives on the zero block
        ([5e-324, 5e-324, 5e-324], 1e-323, 1.0),
        ([-0.0, 5e-324, 5e-324, 5e-324, 1.0], 2e-323, 1e-323),
    ],
)
def test_no_negative_zero_in_x(y, s, t):
    _assert_assembly_bits(y, s, t)


def test_pinned_answer_that_misses_the_target_raises():
    # the projection is [0, 0.5], but 0.5 is not 1e17 + gamma for any
    # double gamma; the all-pinned [0, 1] misses s by 0.5 and must not pass
    with pytest.raises(InconsistentCandidateError):
        project_capped_simplex(ProjectionInput([0.1, 1e17], 0.5))


@pytest.mark.parametrize(
    "y, s, want",
    [
        ([1.7e308, 1.7e308, 0.1, 0.2], 2.5, [1.0, 1.0, 0.2, 0.3]),
        ([-1.7e308, -1.7e308, 0.1, 0.2], 0.5, [0.0, 0.0, 0.2, 0.3]),
    ],
)
def test_a_sum_of_y_past_dbl_max_gives_the_answer_without_a_warning(y, s, want):
    # sum(y) overflows, so the search's all-interior start guess is not
    # finite and it bisects; the suite turns any warning into an error
    inp = ProjectionInput(y, s)
    res = project_capped_box(inp)
    npt.assert_allclose(res.x, want, rtol=0.0, atol=1e-15)
    assert certify_result(inp, res)[1].passed


@pytest.mark.parametrize(
    "y, s, t",
    [([1e308, 1.5e308], 1e308, 1e308), ([1e308, 1e308, 0.1], 0.5, 1e300)],
)
def test_an_interior_sum_past_dbl_max_raises_a_typed_error(y, s, t):
    # the interior's sum overflows, so no double gamma solves the sum
    with pytest.raises(InconsistentCandidateError):
        project_capped_box(ProjectionInput(y, s, t))


def test_no_cap_block_leaves_no_negative_zero():
    # The smallest interior value rounds to -2.8e-17, so the mask leaves
    # -0.0 on the zero block; adding the (empty) cap block's +0.0 turns it
    # into +0.0, and skipping that block must too.
    y = [0.5161523548705461, 0.137889941769058, 0.1002205348900419, 0.5035687208338653]
    res = project_capped_box(ProjectionInput(y, 0.7439411921662954, 10.0))
    assert (res.partition.a, res.partition.b) == (1, 4) and res.x[1] < 0.0
    assert res.at_zero[2] and res.x[2] == 0.0 and not np.signbit(res.x[2])


def _project_around_outlier(y, j, s, t):
    """Projection of y whose coordinate j is far below or above the others.

    A negative y[j] ends at 0.  A positive one ends at the cap when s >= t,
    and otherwise holds all of s while the rest end at 0.  The other
    coordinates are projected by 300 bisection steps on gamma.
    """
    x = np.zeros_like(y)
    if y[j] > 0:
        x[j] = min(s, t)
        s -= x[j]
    rest = np.delete(y, j)
    lo, hi = -rest.max(), t - rest.min()
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if np.clip(rest + mid, 0.0, t).sum() < s:
            lo = mid
        else:
            hi = mid
    x[np.arange(y.size) != j] = np.clip(rest + hi, 0.0, t)
    return x


def test_outliers_are_solved_or_refused_never_wrong():
    # An interior value is y_i + gamma, so an answer whose interior needs a
    # coordinate with |y_i| >= 2^53 * t (a positive outlier and s < t) has
    # no exact double form: only there may the solver raise.  Every other
    # row is solved to 1e-9 * t, whatever the outlier's size.
    rng = np.random.default_rng(31)
    raised = 0
    for t in (1e-3, 1.0, 1e3):
        for m in [10.0**e * t for e in (5, 10, 12, 15, 17, 100)] + [1e300]:
            for sign in (-1.0, 1.0):
                for _ in range(20):
                    d = int(rng.integers(2, 40))
                    y = t * rng.uniform(-0.5, 0.5, d)
                    j = int(rng.integers(d))
                    y[j] = sign * m
                    s = float(rng.uniform(0.0, t * (d - 1)))
                    try:
                        x = project_capped_box(ProjectionInput(y, s, t=t)).x
                    except InconsistentCandidateError:
                        assert sign > 0 and m >= 2.0**53 * t and s < t, (y, s, t)
                        raised += 1
                        continue
                    gap = np.max(np.abs(x - _project_around_outlier(y, j, s, t)))
                    assert gap <= 1e-9 * t, (y, s, t, gap)
    assert raised > 0


@pytest.mark.parametrize("i", [7295, 9535, 44139])
def test_rows_minibatch_negative_outliers_certify(monkeypatch, i):
    # rows_minibatch at seed 811: D = 64, one outlier of -3.3e11 to -9.7e11
    # among values in [-0.5, 0.5)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    inst = importlib.import_module("workloads").WORKLOADS["rows_minibatch"](811).instance(i)
    inp = ProjectionInput(inst.y, inst.s, inst.t)
    assert certify_result(inp, project_capped_box(inp))[1].passed


class TestProjectCappedBox:
    def test_half_cap_pair(self):
        res = project_capped_box(ProjectionInput(np.array([0.6, 0.6]), 1.0, t=0.5))
        npt.assert_allclose(res.x, [0.5, 0.5], atol=1e-15)

    def test_unit_cap_delegates(self):
        y = np.array([0.3, -0.2, 1.5])
        a = project_capped_box(ProjectionInput(y, 2.0))
        b = project_capped_simplex(ProjectionInput(y, 2.0))
        npt.assert_array_equal(a.x, b.x)

    def test_matches_rescaled_oracle(self):
        rng = np.random.default_rng(8)
        for t in (0.5, 2.0, 7.3):
            for _ in range(60):
                d = int(rng.integers(1, 8))
                y = rng.normal(size=d) * 3.0
                s = float(rng.uniform(0.0, t * d))
                res = project_capped_box(ProjectionInput(y, s, t=t))
                ref = t * enumerate_oracle(y / t, min(max(s / t, 0.0), float(d)))
                assert np.max(np.abs(res.x - ref)) <= 1e-9

    def test_gamma_scales_with_cap(self):
        y = np.array([0.1, 0.2])
        unit = project_capped_box(ProjectionInput(y / 2.0, 0.5))
        doubled = project_capped_box(ProjectionInput(y, 1.0, t=2.0))
        npt.assert_allclose(doubled.x, 2.0 * unit.x, atol=1e-15)
        npt.assert_allclose(doubled.gamma, 2.0 * unit.gamma, atol=1e-15)

    def test_adjacent_values_under_a_cap(self):
        # y0 < y1 are adjacent doubles with y0 / t == y1 / t: the solve works
        # on y itself, so the blocks are exact and the rescaled oracle agrees
        t, y0, y1 = 0.3, 0.24031489825270647, 0.2403148982527065
        assert y0 < y1 and y0 / t == y1 / t
        y = np.array([y1, 0.0, y0, 0.9])
        for s in np.linspace(0.0, t * y.size, 25):
            inp = ProjectionInput(y, s, t=t)
            res = project_capped_box(inp)
            npt.assert_array_equal(res.x[res.at_cap], t)
            npt.assert_array_equal(res.x[res.at_zero], 0.0)
            assert certify_result(inp, res)[1].passed
            ref = t * enumerate_oracle(y / t, min(s / t, float(y.size)))
            assert np.max(np.abs(res.x - ref)) <= 1e-12

    def test_full_box_target(self):
        res = project_capped_box(ProjectionInput(np.array([0.0, 9.0, -3.0]), 3 * 7.3, t=7.3))
        npt.assert_allclose(res.x, [7.3, 7.3, 7.3], atol=1e-12)


@st.composite
def _capped_instances(draw):
    d = draw(st.integers(1, 8))
    t = 10.0 ** draw(st.floats(-3.0, 3.0))
    grid = st.integers(-16, 16).map(lambda k: k * t / 8.0)
    y = draw(st.lists(draw(st.sampled_from([grid, _wide])), min_size=d, max_size=d))
    s = draw(st.one_of(st.integers(0, d).map(lambda k: k * t), st.floats(0.0, t * d)))
    return np.array(y), s, t


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_capped_instances())
def test_general_cap_matches_rescaled_oracle(inst):
    y, s, t = inst
    inp = ProjectionInput(y, s, t=t)
    res = project_capped_box(inp)
    ref = t * enumerate_oracle(y / t, min(s / t, float(y.size)))
    assert float(np.max(np.abs(res.x - ref))) <= 1e-9 * max(t, float(np.max(np.abs(y))))
    npt.assert_array_equal(res.x[res.at_zero], 0.0)
    npt.assert_array_equal(res.x[res.at_cap], t)
    _assert_ties_kept(y, res.x)
    assert certify_result(inp, res)[1].passed


class TestDefaultEps:
    def test_scales_with_magnitude(self):
        assert default_eps(np.array([0.1, -0.2])) == 1e-9
        assert default_eps(np.array([100.0, -3.0])) == 1e-9 * 100.0

    def test_scales_with_the_cap(self):
        assert default_eps(np.array([0.1, -0.2]), 5.0) == 1e-9 * 5.0
        assert default_eps(np.array([100.0, -3.0]), 5.0) == 1e-9 * 100.0

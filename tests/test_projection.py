"""Tests for the exact solver: helpers, golden instances, oracle agreement."""

import bisect
import dataclasses
import importlib
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappedproj import (
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
from cappedproj.projection import _edge_values, _kink_search, _signs_hold, _Work, boundary_case_holds
from exact import exact_projection


class TestProjectionInput:
    def test_accepts_lists_and_coerces(self):
        inp = ProjectionInput([0.5, 0.25], 1.0)
        assert inp.y.dtype == np.float64
        assert inp.y.size == 2
        assert inp.t == 1.0

    def test_is_frozen_and_replace_checks_again(self):
        # an assignment would skip the checks: s = 5 at D = 3 or t = 0 would
        # reach the solver
        inp = ProjectionInput([0.3, -0.2, 1.5], 2.0)
        for name, value in (("y", np.zeros(3)), ("s", 5.0), ("t", 0.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inp, name, value)
        assert (inp.s, inp.t) == (2.0, 1.0)
        assert dataclasses.replace(inp, s=np.int64(1)).s == 1.0
        with pytest.raises(InfeasibleError):
            dataclasses.replace(inp, s=5.0)
        with pytest.raises(InvalidInputError):
            dataclasses.replace(inp, t=0.0)

    def test_feasible_boundaries_accepted(self):
        ProjectionInput([0.0, 0.0], 0.0)
        ProjectionInput([0.0, 0.0], 2.0)
        ProjectionInput([0.0, 0.0], 1.0, t=0.5)


@pytest.mark.parametrize("d", [2, 4096, (1 << 18) + 3])
def test_a_finite_vector_whose_square_overflows_is_accepted(d):
    # y . y is inf here, so the check falls back to testing each entry;
    # a non-finite entry anywhere is still refused
    y = np.full(d, 1.0)
    y[0] = 1e200
    assert ProjectionInput(y, 1.0).y.tobytes() == y.tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        z = y.copy()
        z[-1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            ProjectionInput(z, 1.0)


class TestProjectionResult:
    def test_a_caller_cannot_hand_in_a_partition(self):
        # the partition is read from the masks, so no copy of it can disagree
        # with them, and a frozen result keeps the masks it was built with
        res = project_capped_simplex(ProjectionInput([0.3, -0.2, 1.5], 2.0))
        assert res.partition == Partition(0, 2)
        for partition in ((0, 2), None):
            with pytest.raises(TypeError):
                dataclasses.replace(res, partition=partition)
        for name, value in (("gamma", 0.5), ("partition", Partition(0, 3))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(res, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.partition.b = 2.5
        moved = dataclasses.replace(res, at_cap=np.zeros(3, dtype=bool))
        assert moved.partition == Partition(0, 3)
        moved = dataclasses.replace(res, at_zero=np.array([False, True, False]))
        assert moved.partition == Partition(1, 2)


class TestSortWithPermutation:
    def test_sorted_order_and_inverse(self):
        y = np.array([0.3, -0.2, 1.5])
        y_sorted, perm = sort_with_permutation(y)
        npt.assert_array_equal(y_sorted, np.sort(y))
        npt.assert_array_equal(y_sorted, y[perm])

    def test_stable_on_ties(self):
        _, perm = sort_with_permutation(np.array([1.0, 0.0, 1.0, 0.0]))
        npt.assert_array_equal(perm, [1, 3, 0, 2])


class TestKinkSearchShift:
    # the kink search returns each split with the shift that solves its sum
    def test_three_point_shift(self):
        ys = np.sort(np.array([-0.2, 0.3, 1.5]))
        assert _kink_search(ys, 2.0, 1.0, _Work()) == (0, 2, 0.45)

    def test_all_interior_is_mean_shift(self):
        y = np.array([0.3, -0.1, 0.4, 0.2])
        a, b, g = _kink_search(np.sort(y), 2.0, 1.0, _Work())
        assert (a, b) == (0, 4)
        npt.assert_allclose(g, (2.0 - y.sum()) / 4.0, atol=1e-15)

    def test_single_interior_coordinate(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        assert _kink_search(ys, 1.5, 1.0, _Work()) == (1, 2, 0.0)

    def test_interior_summed_directly_next_to_an_outlier(self):
        # prefix[4] - prefix[1] rounds to 0 at 1e17; the interior sums to 0.6
        ys = np.sort(np.array([-1e17, 0.1, 0.2, 0.3]))
        assert _kink_search(ys, 1.5, 1.0, _Work()) == (1, 4, 0.3)


def _signs(ys, p, gamma, eps):
    # the sign tests as project_capped_box runs them, at the unit cap
    return _signs_hold(_edge_values(ys, p.a, p.b), gamma, eps, 1.0)


class TestPartitionIsOptimal:
    def test_accepts_the_true_split(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        assert _signs(ys, Partition(1, 2), 0.0, 1e-9)

    def test_rejects_wrong_shift(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        assert not _signs(ys, Partition(1, 2), 0.7, 1e-9)
        assert not _signs(ys, Partition(1, 2), -0.6, 1e-9)

    def test_rejects_wrong_split(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        g = (1.5 - 1.0 - ys[:2].sum()) / 2  # the shift that solves the sum on (0, 2)
        assert not _signs(ys, Partition(0, 2), g, 1e-9)

    def test_virtual_neighbors_are_skipped(self):
        # a = 0 has no zero block and b = D has no one block; the tests
        # against those neighbors must not fire
        ys = np.sort(np.array([0.1, 0.2]))
        assert _signs(ys, Partition(0, 2), 0.35, 1e-9)

    def test_tolerance_widens_acceptance(self):
        ys = np.sort(np.array([-2.0, 0.5, 3.0]))
        assert not _signs(ys, Partition(1, 2), 0.51, 1e-9)
        assert _signs(ys, Partition(1, 2), 0.51, 0.1)


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
    # (0, 3), with the shift 0 that solves its sum, puts -2 in the interior
    # although the projection pins it at 0
    monkeypatch.setattr(projection, "_kink_search", lambda *args, **kwargs: (0, 3, 0.0))
    with pytest.raises(InconsistentCandidateError):
        project_capped_simplex(ProjectionInput([-2.0, 0.5, 3.0], 1.5))


def _solved(inp):
    # a solve's result and the work record it filled: its kink searches, its
    # evaluations of f (probes) and its assembly
    work = _Work()
    return projection._solve(inp, work), work


def test_search_work_stays_within_two_bisections():
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
                calls = len(_solved(ProjectionInput(y, s))[1].probes)
                assert calls <= bound, (d, ties, s, calls)
                total += calls
    # the count is live, and far below the 705 evaluations of two plain
    # bisections on these 52 solves
    assert 0 < total <= 300


def _two_bisections(ys, s, t, f=None):
    # reference split: the first kink index of each edge test by plain
    # bisection, with f evaluated from its definition unless f is given
    d = ys.size
    a = d - round(s / t)
    if boundary_case_holds(ys, a, s, 0.0, t):
        return a, a

    def f(gamma, f=f):
        return np.clip(ys + gamma, 0.0, t).sum() if f is None else f(gamma)

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


def test_guided_search_matches_two_bisections_on_adversarial_inputs():
    rng = np.random.default_rng(808)
    excess = []
    for _ in range(2000):
        d = int(np.exp(rng.uniform(0.0, np.log(3000.0))))
        y = _adversarial_y(rng, d)
        t = 10.0 ** rng.uniform(-2.0, 2.0)
        s = t * (float(rng.integers(d + 1)) if rng.random() < 0.5 else rng.uniform(0.0, d))
        ys = np.sort(y)
        work = _Work()
        split = projection._kink_search(ys, s, t, work)[:2]
        assert split == _two_bisections(ys, s, t), (d, s, t)
        bisections = 2 * math.ceil(math.log2(d + 1))
        assert len(work.probes) <= bisections + 2 * projection._GUIDED, (d, s, t, work.probes)
        excess.append(len(work.probes) - bisections)
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


def _gamma_k(k):
    # Higham's gamma_k = k*u / (1 - k*u), u the unit roundoff
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _assert_shift_solves_the_sum(ys, s, t, a, b, gamma):
    # The numerator s - t*(D - b) - sum(ys[a:b]) adds n + 2 terms, n = b - a,
    # which any order of addition gets within gamma_{n+1} * M, M the sum of
    # their magnitudes (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., eq. 4.4); gamma_{n+2} also covers the second-order
    # terms.  Each of the two divisions by n, the solver's and that of the
    # exact numerator rounded once by fsum, adds a rounding of the quotient,
    # within gamma_3 * |gamma| in all.
    n, cap = b - a, t * (ys.size - b)
    exact = math.fsum(np.concatenate(([s, -cap], -ys[a:b]))) / n
    m = abs(s) + cap + float(np.abs(ys[a:b]).sum())
    bound = _gamma_k(n + 2) * m / n + _gamma_k(3) * abs(exact)
    assert abs(gamma - exact) <= bound, (a, b, gamma, exact, bound)


@pytest.mark.parametrize("d", [2**14 + 1, 3 * 2**14 + 5, 100_000])
def test_block_sums_keep_the_split_of_two_bisections(d):
    # past D = 2^14, f adds the sums of whole blocks of 2^14 sorted values
    # to the two fringes of its interior; the split is still the one that
    # two bisections find with f summed from its definition, and its shift
    # solves the sum to within the rounding error of any order of addition
    rng = np.random.default_rng(d)
    bisections = 2 * math.ceil(math.log2(d + 1))
    for kind in ("ties", "cauchy", "outlier"):
        for _ in range(4):
            y = _large_adversarial_y(rng, kind, d)
            t = 10.0 ** rng.uniform(-2.0, 2.0)
            s = t * (float(rng.integers(d + 1)) if rng.random() < 0.5 else rng.uniform(0.0, d))
            ys = np.sort(y)
            work = _Work()
            a, b, gamma = projection._kink_search(ys, s, t, work)
            assert (a, b) == _two_bisections(ys, s, t), (kind, s, t)
            assert len(work.probes) <= bisections + 2 * projection._GUIDED, (kind, s, t, work.probes)
            if a < b:
                _assert_shift_solves_the_sum(ys, s, t, a, b, gamma)
            else:
                assert gamma == projection._degenerate_gamma(ys[:a], ys[a:], t)


def _workload(monkeypatch, name, seed):
    # a benchmark workload of perfbench/workloads.py at this seed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("workloads").WORKLOADS[name](seed)


@pytest.mark.parametrize(
    "name, n, mean, most",
    [("topk_sparse", 200, 4.5, 6), ("rows_minibatch", 2000, 3.7, 8), ("dense_cap", 60, 9.4, 12)],
)
def test_the_search_evaluates_f_as_often_as_readme_says(monkeypatch, name, n, mean, most):
    # README's mean and most evaluations of f per solve on the first n
    # instances at seed 421, dense_cap's summing the sample's search and the
    # windows'.  topk_sparse rows have no coordinate at the cap, b = D, and
    # y spans less than t: a zero-edge probe that reads f(gamma) > s ranks
    # t - gamma above every y, which proves b = D, so the cap edge
    # evaluates nothing
    wl = _workload(monkeypatch, name, 421)
    calls = []
    for i in range(n):
        inst = wl.instance(i)
        res, work = _solved(ProjectionInput(inst.y, inst.s, inst.t))
        calls.append(len(work.probes))
        if name == "topk_sparse":
            assert res.partition.b == inst.y.size and not any(p[0] for p in work.probes), (i, work.probes)
    assert round(sum(calls) / n, 1) == mean and max(calls) == most, (sum(calls) / n, max(calls))
    if name == "topk_sparse":
        assert sum(calls) <= 4.6 * n, sum(calls)


def _per_search(work):
    # each kink search's entry in a work record, with the probes it made
    ends = [first for _, _, first, _ in work.searches[1:]] + [len(work.probes)]
    return [(entry, work.probes[entry[2] : end]) for entry, end in zip(work.searches, ends)]


def _zero_edges(y, s, buf, work):
    # each zero edge that ended in a solve of y at s (none where the
    # all-pinned pretest held, or a miss came first): the buffer its search
    # ran on, its target, wins and bounds on b, and its probes.  The sample's
    # buffer is y's strided sample sorted, its target s*m/D; every other
    # search ran on the buffer _search returned, in which (a miss having
    # sorted it all) each rank a probe trusted still holds its value
    d = y.size
    for (size, wins, _, bounds), probes in _per_search(work):
        ys = buf if size == d else np.sort(y[:: d // projection._SAMPLE])
        assert ys.size == size
        if bounds is not None:
            yield ys, s * size / d, wins, bounds, [p for p in probes if not p[0]]


def test_every_bound_on_b_agrees_with_the_cap_test():
    # Each zero-edge probe bounds b (_block_edge).  y on a grid of t/8, or
    # in blocks of equal values on it.  At a cap of 1 or 1/2 every sum is
    # exact and s is f at a grid shift half the time, so some probes read
    # f(gamma) == s exactly.  At 0.3 or 1/3, t - gamma rounds, so the kink
    # at the rank of t - gamma can lie above gamma, and a probe with
    # f(gamma) <= s then leaves the upper bound open ("left open" counts
    # those probes); there s is on the grid of t/8, and the reference
    # bisections evaluate f as the search does, since f from its definition
    # rounds differently and can put another split's kink at s.  Every bound
    # agrees with the cap test at its kink, evaluated as the cap edge
    # would, and the split is still that of two bisections
    rng = np.random.default_rng(7)
    f = projection._f
    seen = {"f == s": 0, "left open": 0, "checked": 0}
    sizes, caps = (64, 3000, 2**14 + 1, 100_000), (1.0, 0.5, 0.3, 1 / 3)
    for d, blocks, t in itertools.product(sizes, (False, True), caps):
        for _ in range(8 if d < 2**14 else 3):
            n = d // 50 + 1 if blocks else d
            y = rng.integers(-16, 17, n) * (t / 8.0)
            y = np.repeat(y, 50)[:d] if blocks else y
            if t in (1.0, 0.5) and rng.random() < 0.5:
                s = float(np.clip(y + int(rng.integers(-16, 17)) * (t / 8.0), 0.0, t).sum())
            else:
                s = t * float(rng.integers(0, 8 * d + 1)) / 8.0
            work = _Work()
            buf, (a, b, _) = projection._search(y, s, t, work)
            ys = np.sort(y)
            sums = projection._block_sums(ys)
            as_searched = None if t in (1.0, 0.5) else lambda g: f(ys, sums, t, g)[0]
            assert (a, b) == _two_bisections(ys, s, t, as_searched), (blocks, t, s)
            for ys, target, wins, (below, above), probes in _zero_edges(y, s, buf, work):
                for _, gamma, v, _, j, _ in probes:
                    seen["f == s"] += v == target
                    seen["left open"] += v <= target and j < ys.size and t - ys.item(j) > gamma
                for k, passes in ((below - 1, False), (above, True)):
                    if 0 <= k < ys.size:
                        try:
                            v = f(ys, projection._block_sums(ys), t, t - ys.item(k), wins and wins[0])[0]
                        except projection._Miss:  # a rank outside the windows
                            continue
                        assert (v <= target) == passes, (blocks, t, s, below, above)
                        seen["checked"] += 1
    assert min(seen.values()) > 0, seen


def test_an_upper_bound_on_b_whose_kink_rounds_above_gamma_is_left_open():
    # y on a grid of t/3, t/7 or t/8 at caps that round, and s = f at a zero
    # kink, so some probe reads f(gamma) == s while t - gamma rounds down:
    # the kink t - y_j at the rank j of t - gamma then lies above gamma, and
    # j must not bound b from above (taking it changes the split on about 1
    # in 40 of these).  Each bound is proven by a zero-edge probe: b's lower
    # bound has its kink at or above the shift of a probe with f > s, its
    # upper bound at or below the shift of a probe with f <= s, so each
    # agrees with the cap test wherever f, evaluated in floats, is monotone
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(3000):
        d = int(rng.integers(2, 60))
        t = float(rng.choice([0.3, 1 / 3, 0.1, 0.7]))
        ys = np.sort(rng.integers(-16, 17, d) * (t / float(rng.choice([3, 7, 8]))))
        s = projection._f(ys, None, t, -ys.item(int(rng.integers(d))))[0]
        if not 0.0 <= s <= t * d:
            continue
        work = _Work()
        projection._kink_search(ys, s, t, work)
        for _, _, _, (below, above), probes in _zero_edges(ys, s, ys, work):
            if below:
                assert any(v > s and t - ys.item(below - 1) >= g for _, g, v, *_ in probes), (t, s)
            if above < d:
                assert any(v <= s and t - ys.item(above) <= g for _, g, v, *_ in probes), (t, s)
                checked += 1
    assert checked > 500, checked


def test_the_shift_reuses_the_interior_sum_of_a_probe(monkeypatch):
    # gamma solves the sum with the interior sum of a probe that summed
    # exactly [a, b), when one did, so no second _sum runs over [a, b); the
    # shift has the bits of one solved from a fresh _sum
    real_sum, taken = projection._sum, []

    def summing(ys, sums, lo, hi):
        taken.append((lo, hi))
        return real_sum(ys, sums, lo, hi)

    monkeypatch.setattr(projection, "_sum", summing)
    rng = np.random.default_rng(5)
    reused = 0
    for d in (64, 4096, 2**14 + 3, 3 * 2**14 + 5):
        for _ in range(15):
            ys = np.sort(rng.uniform(-0.5, 0.5, d) * 4.0)
            t = float(rng.choice([1.0, 0.3]))
            s = float(rng.uniform(0.02, 0.98)) * t * d
            taken.clear()
            work = _Work()
            a, b, gamma = projection._kink_search(ys, s, t, work)
            assert a < b, (d, s)
            probes = sum(p[3:5] == (a, b) for p in work.probes)
            assert taken.count((a, b)) == max(probes, 1), (d, s, probes)
            reused += probes > 0
            want = (s - t * (d - b) - real_sum(ys, projection._block_sums(ys), a, b)) / (b - a)
            assert np.float64(gamma).tobytes() == np.float64(want).tobytes(), (d, s)
    assert reused >= 40, reused


def _searches(work):
    # the buffer size and wins of every kink search a solve ran: the
    # sample's and the windows' (both at D > 2^14), then the full sort's
    # after a miss (None)
    return [(size, wins) for size, wins, _, _ in work.searches]


def _fell_back(work, d):
    # whether the solve sorted all of y after its windows missed
    calls = _searches(work)
    return calls[-1] == (d, None) and any(size == d and wins for size, wins in calls)


def _window_cases(rng, d):
    # (label, y, s, t) on the window path; t = 1 unless set
    uniform = rng.uniform(-1.0, 1.0, d)
    half = rng.uniform(-0.5, 0.5, d)
    quarter = rng.uniform(-0.25, 0.25, d)
    ties = rng.integers(-8, 9, d) / 8.0
    outlier = rng.uniform(-1.0, 1.0, d)
    outlier[rng.integers(d)] = rng.choice([-1e15, 1e15])
    cauchy = rng.standard_cauchy(d)
    return [
        ("ties", ties, 0.3 * d, 1.0),
        ("ties at t/8", ties / 8.0, float(round(0.4 * d)) / 8.0, 1.0 / 8.0),
        ("cauchy", cauchy, 0.3 * d, 1.0),
        ("cauchy wide cap", cauchy, 0.2 * 30.0 * d, 30.0),
        ("outlier", outlier, 0.3 * d, 1.0),
        ("outlier, s < t", outlier, 0.5, 1.0),
        ("both blocks", uniform, 0.3 * d, 1.0),
        ("zero edge at 0", half, 0.8 * d, 1.0),
        ("edges at 0 and D", quarter, 0.5 * d, 1.0),
        ("cap edge at D", half, 0.2 * d, 1.0),
        ("s = 0", uniform, 0.0, 1.0),
        ("s = 5e-324", uniform, 5e-324, 1.0),
        ("s = tD", uniform, 0.7 * d, 0.7),
        ("s a multiple of t", uniform, 0.3 * float(round(0.4 * d)), 0.3),
        # the all-pinned pretest reads y's two values of ranks D - s/t - 1
        # and D - s/t; a gap of t between unsorted values would pass it
        ("s a multiple of a small t", uniform, 0.01 * float(round(0.4 * d)), 0.01),
    ]


@pytest.mark.parametrize("d", [2**14 + 1, 3 * 2**14 + 5, 100_000, 2**18])
def test_windows_keep_the_split_of_two_bisections(d):
    # past D = 2^14 the search reads only windows of y put in sorted place;
    # its split is the one two bisections find on the whole sort, and its
    # shift solves the sum to within the rounding error of any order of
    # addition.  Most cases are answered from the windows; a tie group of
    # the 1/8 grid is cut by a window's end, which the search reads exactly.
    # At s = 0 and t*D the all-pinned pretest reads only an extreme, so the
    # one search runs with the extremes in place and nothing else sorted;
    # s = 5e-324, whose sample has no interior, takes the windows like any
    # other target
    rng = np.random.default_rng(d)
    fell_back, cut = [], 0
    for label, y, s, t in _window_cases(rng, d):
        ys, work = np.sort(y), _Work()
        _, (a, b, gamma) = projection._search(y, s, t, work)
        searches = _searches(work)
        assert (a, b) == _two_bisections(ys, s, t), (label, s, t)
        if a < b:
            _assert_shift_solves_the_sum(ys, s, t, a, b, gamma)
        else:
            assert gamma == projection._degenerate_gamma(ys[:a], ys[a:], t), label
        wins = searches[1][1] if len(searches) > 1 else None
        if label in ("s = 0", "s = tD"):
            assert searches == [(d, (((0, 1), (d - 1, d)),) * 2)], (label, searches)
        if label == "s = 5e-324":
            assert wins and searches[1][0] == d, label
        if wins and "ties" in label:
            cut += any(0 < lo and ys[lo - 1] == ys[lo] for lo, _ in wins[0])
        if _fell_back(work, d):
            fell_back.append(label)
        if label == "edges at 0 and D":
            assert (a, b) == (0, d) and wins[1] == ((0, 1), (d - 1, d))
    assert cut, "no window end cut a tie group"
    assert len(fell_back) <= 1, fell_back


def test_cut_partitions_first_where_least_is_left_to_partition(monkeypatch):
    # cuts as a dense_cap solve places them: the one at 2 costs an argmin,
    # not a partition, so the first partition goes at 235287 and leaves
    # only [235287, D - 1) to partition; at 250666 it would leave [1, 250666)
    d = 2**18
    cuts = [2, 235287, 250666]
    ys = np.random.default_rng(12).permutation(d).astype(float)
    inner = ys[1:-1].copy()
    calls, cut = [], projection._cut

    def recorded(ys, lo, hi, cuts):
        calls.append((lo, hi, list(cuts)))
        cut(ys, lo, hi, cuts)

    monkeypatch.setattr(projection, "_cut", recorded)
    projection._cut(ys, 1, d - 1, cuts)
    assert calls[1] == (1, cuts[1], cuts[:1]), calls
    # each cut splits the distinct values of [1, D - 1) by rank
    npt.assert_array_equal(np.sort(ys[1:-1]), np.sort(inner))
    for c in cuts:
        assert ys[1:c].max() < ys[c:-1].min(), c


@pytest.mark.parametrize("d", [2**14 + 1, 100_000])
def test_windows_put_their_spans_in_sorted_place(d):
    # every span holds the values of its ranks in sorted order, the runs
    # between spans hold the values of theirs, the extremes sit at the ends,
    # and each edge's window lies in a span; when s is a multiple of t, so
    # do the two values the all-pinned pretest reads
    rng = np.random.default_rng(d + 1)
    for label, y, s, t in _window_cases(rng, d):
        ys, want = y.copy(), np.sort(y)
        wins = projection._windows(ys, s, t, _Work())
        if wins is None:
            assert ys.tobytes() == want.tobytes(), label
            continue
        spans, windows = wins
        assert (ys[0], ys[-1]) == (want[0], want[-1]), label
        cuts = [0]
        for lo, hi in spans:
            assert cuts[-1] <= lo < hi, (label, spans)
            npt.assert_array_equal(ys[lo:hi], want[lo:hi], err_msg=label)
            cuts += [lo, hi]
        for lo, hi in zip(cuts[::2], cuts[1::2]):
            npt.assert_array_equal(np.sort(ys[lo:hi]), want[lo:hi], err_msg=label)
        for lo, hi in windows:
            assert any(i <= lo and hi <= j for i, j in spans), (label, windows, spans)
        a = d - round(s / t)
        if s == t * (d - a) and 0 < a < d:
            assert any(i < a < j for i, j in spans), (label, a, spans)


def _search_in(ys, s, t, zero, cap, *extra):
    # the kink search on a wholly sorted ys read as if only the zero and
    # the cap edge's windows, the spans extra and the extremes were in
    # sorted place
    d = ys.size
    return projection._kink_search(ys, s, t, _Work(), (((0, 1), zero, cap, *extra, (d - 1, d)), (zero, cap)))


def test_a_window_search_answers_exactly_or_misses():
    # any windows of a sorted ys: the search returns the whole sort's
    # triple, bit for bit, or raises _Miss; it never trusts a window that
    # does not hold the answer
    rng = np.random.default_rng(41)
    d = 2**14 + 1
    answered = missed = 0
    for y in (rng.uniform(-1.0, 1.0, d), rng.integers(-8, 9, d) / 8.0, rng.standard_cauchy(d)):
        ys = np.sort(y)
        for s in (0.2 * d, 0.45 * d, 0.7 * d):
            a, b, gamma = _kink_search(ys, s, 1.0, _Work())
            for _ in range(40):
                lo_a, lo_b = (int(v) for v in rng.integers(-600, 60, 2) + (a, b))
                hi_a, hi_b = (int(v) for v in rng.integers(-60, 600, 2) + (a, b))
                zero = max(0, lo_a), min(d, max(hi_a, lo_a + 1))
                cap = max(0, lo_b), min(d, max(hi_b, lo_b + 1))
                try:
                    got = _search_in(ys, s, 1.0, zero, cap)
                except projection._Miss:
                    missed += 1
                    continue
                answered += 1
                assert got == (a, b, gamma), (s, zero, cap)
    assert answered > 100 and missed > 100, (answered, missed)


def _tie_instance():
    # a sorted ys with a group of 40 equal values starting at the zero edge
    ys = np.sort(np.concatenate((np.linspace(-2.0, -1.0, 300), np.full(40, -0.5), np.linspace(0.0, 0.9, 300))))
    s = 300.0
    a, b, _ = _kink_search(ys, s, 1.0, _Work())
    assert (a, ys[a], ys[a + 39], ys[a + 40] > ys[a]) == (300, -0.5, -0.5, True)
    return ys, s, a, b


def test_an_edge_on_the_end_of_its_window_misses():
    # the extra span ranks every probe, so only the edge's place decides
    ys, s, a, b = _tie_instance()
    d, rest = ys.size, (a + 30, ys.size)
    assert _search_in(ys, s, 1.0, (a - 20, a + 60), (b - 20, b + 20), rest)[:2] == (a, b)
    with pytest.raises(projection._Miss):  # the test one kink below a was never read
        _search_in(ys, s, 1.0, (a, a + 60), (b - 20, b + 20), rest)
    with pytest.raises(projection._Miss):  # nor the one at b
        _search_in(ys, s, 1.0, (a - 20, a + 60), (b - 20, b), rest)
    # an edge on a window's end that is an end of ys is exact
    assert _search_in(ys, s, 1.0, (a - 20, a + 60), (b - 20, d), rest)[:2] == (a, b)


def test_a_probe_outside_the_windows_misses():
    # t - gamma at the zero edge's kinks lies far below the cap window
    ys, s, a, b = _tie_instance()
    with pytest.raises(projection._Miss):
        _search_in(ys, s, 1.0, (a - 20, a + 60), (b + 50, b + 100))


def test_a_tie_group_cut_by_a_window_end_misses():
    # the zero edge starts a group of 40 equal values; a window ending
    # inside it does not hold the count of values <= y_a
    ys, s, a, b = _tie_instance()
    rest = (a + 45, ys.size)
    assert _search_in(ys, s, 1.0, (a - 20, a + 45), (b - 20, b + 20), rest)[:2] == (a, b)
    with pytest.raises(projection._Miss):
        _search_in(ys, s, 1.0, (a - 20, a + 10), (b - 20, b + 20), rest)


def _full_sort(monkeypatch, inp):
    # the answer of the full-sort path, and its work record: no window is placed
    with monkeypatch.context() as m:
        m.setattr(projection, "_windows", lambda ys, *args, **kwargs: ys.sort())
        return _solved(inp)


def _assert_same_answer(res, ref):
    assert res.partition == ref.partition
    assert res.at_zero.tobytes() == ref.at_zero.tobytes()
    assert res.at_cap.tobytes() == ref.at_cap.tobytes()
    assert res.x.tobytes() == ref.x.tobytes()


@pytest.mark.parametrize("d, u", [(2**18, 0.4), (100_000, 0.5)])
def test_a_sample_that_sees_one_phase_falls_back_to_the_full_sort(monkeypatch, d, u):
    # y repeats with the sample's stride, so the sample holds one phase:
    # values near 0.9, while y spans [-1, 1]; the windows it predicts miss
    q = d // projection._SAMPLE
    rng = np.random.default_rng(9)
    phases = rng.uniform(-1.0, 1.0, q)
    phases[0] = 0.9
    y = np.resize(phases, d) + rng.uniform(0.0, 1e-9, d)
    inp = ProjectionInput(y, u * d)
    res, work = _solved(inp)
    assert _fell_back(work, d)
    assert 0 < res.partition.a < res.partition.b < d
    _assert_same_answer(res, _full_sort(monkeypatch, inp)[0])
    assert certify_result(inp, res)[1].passed


@pytest.mark.parametrize("d", [2**14 + 1, 100_000])
def test_a_sample_shift_that_is_not_finite_falls_back_to_the_full_sort(d):
    # the sample's sums pass DBL_MAX, so its shift is not finite and no
    # window is placed: the solve sorts all of y and searches it once.  The
    # answer's interior holds a |y_i| >= 2^53 * t, which has no exact double
    # form (README, Domain), so the typed error is raised, with no warning
    y = (np.random.default_rng(d).random(d) - 0.5) * 2 * 1.5e308
    work = _Work()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentCandidateError):
            projection._solve(ProjectionInput(y, 0.5), work)
    searches = _searches(work)
    assert len(searches) == 2 and searches[0][0] < d and searches[1] == (d, None), searches


def test_a_guess_at_an_end_of_y_is_probed_on_dense_cap(monkeypatch):
    # dense_cap has no zeros, so the zero edge's window starts at the
    # minimum and a Newton guess can pick rank 0, an end of y, where f is
    # exact: the probe goes there instead of bisecting the window.  Each
    # search of a buffer above 2^14 (not the sample's) evaluates f at most
    # 6 times on the first 60 instances at seed 421 (16 at instance 3 when
    # such a guess was bisected instead)
    wl = _workload(monkeypatch, "dense_cap", 421)
    for i in range(60):
        inst = wl.instance(i)
        work = _solved(ProjectionInput(inst.y, inst.s, inst.t))[1]
        spent = [len(probes) for (size, *_), probes in _per_search(work) if size > projection._BLOCK]
        assert spent and max(spent) <= 6, (i, spent)


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
    # == 0 and counts at zero, so the interior ys[1:1] is empty and the
    # slope 0, never negative
    assert projection._f(np.array([-1e17, 0.1]), None, 1.0, 1e17) == (1.0, 1, 1, 0.0)


def test_f_trusts_a_rank_only_strictly_inside_a_sorted_span():
    # ys partitioned by rank: sorted spans, among them both ends, and every
    # run between them shuffled.  Each side's rank is probed at, between and
    # beyond the values, the other side held at an end of ys.  On the 1/8
    # grid every sum is exact in any order, so a trusted rank gives the
    # sorted array's f bit for bit.  A rank strictly inside a span is always
    # trusted, one strictly inside a run never, one on a span's end may miss
    rng = np.random.default_rng(12)
    d, spans = 400, ((0, 30), (80, 120), (200, 203), (260, 300), (370, 400))
    runs = [(i, j) for (_, i), (j, _) in zip(spans, spans[1:])]
    seen = {"span": 0, "run": 0, "end": 0}
    for _ in range(20):
        ys = np.sort(rng.integers(-64, 65, d) / 8.0)
        buf = ys.copy()
        for i, j in runs:
            rng.shuffle(buf[i:j])
        values = np.unique(ys)
        low = values[0] - 1.0
        for v in np.concatenate((values, (values[1:] + values[:-1]) / 2, [low, values[-1] + 1.0])):
            # the zero side ranks -gamma = v; the cap side t - gamma = v
            for gamma, t, c in (
                (-v, 2.0 * (values[-1] - low), int(ys.searchsorted(v, "right"))),
                (-low, v - low, int(ys.searchsorted(v, "left"))),
            ):
                where = (
                    "span" if any(i < c < j for i, j in spans)
                    else "run" if any(i < c < j for i, j in runs)
                    else "end"
                )
                seen[where] += 1
                try:
                    got = projection._f(buf, None, t, gamma, spans)
                except projection._Miss:
                    assert where != "span", (v, c)
                    continue
                assert where != "run", (v, c)
                assert got == projection._f(ys, None, t, gamma), (v, c)
    assert min(seen.values()) > 100, seen


def _mask_product_assembly(y, s, t, p):
    # the reference x and gamma: y clipped to the interior's range, plus
    # gamma, times the free mask, plus t on the cap block, then one
    # re-centering of the interior when the sum misses s by more than its own
    # rounding; gamma starts from the interior summed as the search sums it,
    # over the buffer it searched (y sorted, or past D = 2^14 sorted only in
    # its windows), so only the assembly is compared
    (ys, _), d, a, b = projection._search(y, s, t, _Work()), y.size, p.a, p.b
    at_zero = y < ys[a] if 0 < a < d else np.full(d, a == d)
    at_cap = y >= ys[b] if b < d else np.zeros(d, dtype=bool)
    gamma = (s - t * (d - b) - projection._sum(ys, projection._block_sums(ys), a, b)) / (b - a)
    free = ~(at_zero | at_cap)
    x = (np.clip(y, ys[a], ys[b - 1]) + gamma) * free + at_cap * t
    total = float(x.sum())
    if abs(s - total) > projection._sum_rounding(d, total):
        delta = (s - total) / (b - a)
        x += free * delta
        gamma += delta
    return x, gamma


def _assert_assembly_bits(y, s, t):
    # an answer with an interior has the reference's bits, and no -0.0;
    # returns the solve's work record
    res, work = _solved(ProjectionInput(y, s, t))
    assert not np.signbit(res.x[res.x == 0.0]).any()
    if res.partition.b > res.partition.a:
        x, gamma = _mask_product_assembly(np.asarray(y, dtype=float), s, t, res.partition)
        assert res.x.tobytes() == x.tobytes(), (y, s, t)
        assert np.float64(res.gamma).tobytes() == np.float64(gamma).tobytes(), (y, s, t)
    return work


# at s = 14 * (1/3), the first value at the cap, 0.875 + gamma, rounds to
# 0.3333333333333332, just below t = 1/3, where a clip would leave it; at
# s = 14/3 it rounds to 0.33333333333333337, which the clip pins at t
_TIE_Y = [-0.625, 0.75, -0.375, -0.75, -0.75, -0.75, 0.125, -0.125, 0.875, 0.75, 0.125]
_TIE_Y += [0.125, -0.375, 0.125, 0.875, 0.5, -0.25, -0.25, 0.0, 0.625, -0.375]


@pytest.mark.parametrize("s, tie", [(14 * (1 / 3), True), (14 / 3, False)])
def test_a_rounding_tie_at_the_cap_writes_the_blocks_by_mask(s, tie):
    assert _assert_assembly_bits(_TIE_Y, s, 1 / 3).tie == tie


def test_the_clip_gives_the_bits_of_the_mask_product():
    # every block pattern (both blocks, no cap block, no zero block,
    # neither) on plain values, which take the clip; the few that are
    # re-centered write the blocks back by mask, after the clip
    rng = np.random.default_rng(77)
    works = []
    for t in (1.0, 0.3, 7.3):
        for d in (1, 2, 5, 64, 4096, 2**14 + 3):
            y = rng.uniform(-2.0, 2.0, d) * t
            for s in (0.1 * t, 0.5 * t * d, t * (d - 0.1), float(np.clip(y, 0.0, t).sum())):
                works.append(_assert_assembly_bits(y, s, t))
    assert not any(work.tie for work in works)
    assert any(work.recentred for work in works)


def test_the_mask_writes_give_the_bits_of_the_mask_product():
    # y and s on a grid of t/8 for caps that are not powers of 2, where an
    # edge value now and then rounds to the wrong side of 0 or the cap
    rng = np.random.default_rng(78)
    ties = 0
    for i in range(2000):
        t = (1.0, 0.3, 1 / 3, 0.1)[i % 4]
        d = int(rng.integers(1, 40))
        y = rng.integers(-8, 9, d) * t / 8.0
        s = min(t * d, t * float(rng.integers(0, 8 * d + 1)) / 8.0)
        ties += _assert_assembly_bits(y, s, t).tie
    assert ties > 0


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


def test_outliers_are_solved_or_refused_never_wrong():
    # An interior value is y_i + gamma, so an answer whose interior needs a
    # coordinate with |y_i| >= 2^53 * t (a positive outlier and s < t) has
    # no exact double form: only there may the solver raise.  Every other
    # row is solved to 1e-9 * t of the exact projection (``exact.py``),
    # whatever the outlier's size.
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
                    ref = np.array(exact_projection(y, s, t)[1], dtype=np.float64)
                    gap = np.max(np.abs(x - ref))
                    assert gap <= 1e-9 * t, (y, s, t, gap)
    assert raised > 0


@pytest.mark.parametrize("i", [7295, 9535, 44139])
def test_rows_minibatch_negative_outliers_certify(monkeypatch, i):
    # rows_minibatch at seed 811: D = 64, one outlier of -3.3e11 to -9.7e11
    # among values in [-0.5, 0.5)
    inst = _workload(monkeypatch, "rows_minibatch", 811).instance(i)
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


def _recentered(work, s, x):
    # whether the solve that filled work and gave x, having tested its sum,
    # re-centered x; a re-centering moves the sum toward s
    assert work.total is not None and not (work.recentred and abs(s - float(x.sum())) >= abs(s - work.total))
    return work.recentred


@pytest.mark.parametrize("d", [64, 4096, (1 << 18) + 3, 1_000_000])
def test_the_interior_is_re_centered_only_past_the_sums_rounding(d):
    # a miss of s within the rounding of x.sum() is left as it is, so the
    # exact sum of x is within twice that bound of s; y offset by 1e9 rounds
    # the shift at that scale, a systematic miss that is re-centered
    rng = np.random.default_rng(d)
    y = rng.random(d) - 0.5
    skipped = 0
    for u in (0.1, 0.37, 0.5, 0.83):
        inp = ProjectionInput(y, u * d)
        res, work = _solved(inp)
        total = float(res.x.sum())
        bound = projection._sum_rounding(d, total)
        assert abs(total - math.fsum(res.x)) <= bound
        if not _recentered(work, inp.s, res.x):
            skipped += 1
            assert abs(inp.s - total) <= bound
            assert abs(inp.s - math.fsum(res.x)) <= 2.0 * bound
        inp = ProjectionInput(y + 1e9, u * d)
        res, work = _solved(inp)
        assert _recentered(work, inp.s, res.x)
        assert certify_result(inp, res)[1].passed
    assert skipped


def test_solve_peak_memory_stays_under_two_arrays():
    # the sorted copy is the one array of D doubles a solve allocates: x is
    # built in its buffer.  Beside it the solve holds the two masks (D bytes
    # each); the re-centering shifts x in place and writes the blocks back
    # through the masks, so it adds nothing of size D.  The bound also
    # leaves room for a free mask and its product per block of 2^14 entries
    # (9 bytes each) and numpy's cast buffer of 8192 doubles, which the
    # solve does not use; 2^14 bytes more cover small objects.  A second
    # array of D doubles would not pass it.  Both blocks are present and the
    # re-centering runs: y is offset by 1e6, so the interior sum that gives
    # the shift rounds at that scale, and x misses s by far more than the
    # rounding of its own sum.
    d = 1 << 18
    y = np.random.default_rng(0).random(d) * 2.0 - 1.0 + 1e6
    inp = ProjectionInput(y, 0.3 * d)
    res, work = _solved(inp)
    assert 0 < res.partition.a < res.partition.b < d
    assert _recentered(work, inp.s, res.x)
    tracemalloc.start()
    try:
        project_capped_box(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * d + 2 * d + 9 * (1 << 14) + 8 * 8192 + (1 << 14), peak


@pytest.mark.parametrize("u", [0.0, 1.0])
def test_an_all_pinned_solve_reads_the_extremes_and_writes_x_in_its_buffer(u):
    # at s = 0 and s = t*D the all-pinned pretest reads no order, so the one
    # search runs with only the extremes in place, and x = 0 or t is
    # written into the copy of y the search made: beside it the solve holds
    # the two masks and numpy's cast buffer of 8192 doubles, which the
    # product of a bool mask and t fills, and no second array of D doubles
    d, t = 1 << 18, 0.7
    inp = ProjectionInput(np.random.default_rng(2).uniform(-1.0, 1.0, d), u * t * d, t)
    tracemalloc.start()
    try:
        res, work = _solved(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _searches(work) == [(d, (((0, 1), (d - 1, d)),) * 2)], work.searches
    assert res.partition == Partition(round((1 - u) * d), round((1 - u) * d))
    assert res.x.tobytes() == np.full(d, u * t).tobytes()
    assert peak < 8 * d + 2 * d + 8 * 8192 + (1 << 14), peak
    assert certify_result(inp, res)[1].passed

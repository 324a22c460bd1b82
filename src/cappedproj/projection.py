"""Exact Euclidean projection onto the capped simplex.

The feasible set is ``{x : sum(x) = s, 0 <= x <= 1}`` (or an upper bound ``t``
instead of 1).  Sorted ascending, the unique minimizer of ``0.5*||x - y||^2``
over this set consists of ``a`` zeros, then interior values ``y_k + gamma``,
then ``D - b`` ones.  After one sort of the values the solver finds ``(a, b)``
by bisection over the kinks of the piecewise linear sum ``sum(clip(y + gamma,
0, 1))``, solves ``gamma`` from the sum constraint, and checks the split with
the optimality sign tests; multiplier recovery shows a split that passes
them satisfies the full first-order system, so it is the minimizer.  A split
that fails them raises instead of being returned.  The answer is built in
the input order directly: a split never cuts a group of equal values, so
each block is an exact comparison of y against one sorted value.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePartitionError,
    InconsistentCandidateError,
    InfeasibleError,
    InvalidInputError,
)


def default_eps(y) -> float:
    """Comparison tolerance for the optimality tests, scaled to the data."""
    return 1e-9 * max(1.0, float(np.abs(y).max()))


@dataclass
class ProjectionInput:
    """One projection instance: the point y, the sum target s, the cap t."""

    y: np.ndarray
    s: float
    t: float = 1.0

    def __post_init__(self):
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.y.ndim != 1 or self.y.size < 1:
            raise InvalidInputError("y must be a one-dimensional vector with D >= 1")
        if not np.isfinite(self.y).all():
            raise InvalidInputError("y contains non-finite entries")
        self.s = float(self.s)
        self.t = float(self.t)
        if not np.isfinite(self.t) or self.t <= 0.0:
            raise InvalidInputError(f"cap must be a positive finite number, got {self.t}")
        if not np.isfinite(self.s):
            raise InvalidInputError("sum target must be finite")
        if self.s < 0.0 or self.s > self.t * self.y.size:
            raise InfeasibleError(
                f"sum target s={self.s} is infeasible: the set "
                f"{{sum(x)={self.s}, 0<=x<={self.t}}} is empty for D={self.y.size}"
            )

    @property
    def dim(self) -> int:
        return self.y.size


@dataclass
class SortedInstance:
    """y sorted ascending, the sort permutation, and prefix sums.

    ``perm`` maps sorted position to original index (``y_sorted = y[perm]``);
    ``prefix[k]`` is the sum of the k smallest entries, ``prefix[0] = 0``.
    """

    y_sorted: np.ndarray
    perm: np.ndarray
    prefix: np.ndarray

    @property
    def dim(self) -> int:
        return self.y_sorted.size


@dataclass
class Partition:
    """Split of the sorted coordinates: a zeros, interior up to b, then ones."""

    a: int
    b: int

    def __post_init__(self):
        if not 0 <= self.a <= self.b:
            raise InvalidInputError(f"partition needs 0 <= a <= b, got ({self.a}, {self.b})")


@dataclass
class ProjectionResult:
    """Solution in original index order plus the accepted partition data.

    ``at_zero`` and ``at_cap`` are boolean masks in the input order: the
    ``a`` coordinates pinned at 0 and the ``D - b`` pinned at the cap, where
    ``x`` is exactly 0 and exactly the cap.  ``fallback`` is always False: a
    split that fails its sign tests raises ``InconsistentCandidateError``
    instead of being returned.  The field is kept so callers that read it
    keep working.
    """

    x: np.ndarray
    gamma: float
    partition: Partition
    at_zero: np.ndarray
    at_cap: np.ndarray
    fallback: bool = False


def _prefix_sums(ys: np.ndarray) -> np.ndarray:
    prefix = np.zeros(ys.size + 1)
    np.cumsum(ys, out=prefix[1:])
    return prefix


def sort_with_permutation(y) -> SortedInstance:
    """Stable ascending sort of y together with its permutation and prefix sums."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 1:
        raise InvalidInputError("y must be a one-dimensional vector with D >= 1")
    if not np.isfinite(y).all():
        raise InvalidInputError("y contains non-finite entries")
    perm = np.argsort(y, kind="stable")
    y_sorted = np.ascontiguousarray(y[perm])
    return SortedInstance(y_sorted=y_sorted, perm=perm, prefix=_prefix_sums(y_sorted))


def gamma_for_partition(ys: np.ndarray, p: Partition, s: float) -> float:
    """Shift applied to the interior so that the output sums to s.

    ``ys`` is y sorted ascending.  With a zeros and D - b ones fixed, the sum
    constraint forces ``gamma = (s - (D - b) - sum(y_a..y_b)) / (b - a)``.
    The interior is summed directly (pairwise) rather than as a difference
    of prefix sums, which loses the interior to cancellation next to a large
    outlier.
    """
    if p.a == p.b:
        raise DegeneratePartitionError(
            f"gamma is undefined for an empty interior (a = b = {p.a})"
        )
    interior = float(ys[p.a : p.b].sum())
    return (s - (ys.size - p.b) - interior) / (p.b - p.a)


def partition_is_optimal(ys: np.ndarray, p: Partition, gamma: float, eps: float) -> bool:
    """Sign tests certifying that (a, b, gamma) assembles the minimizer.

    ``ys`` is y sorted ascending.  Requires ``y_a + gamma <= 0 < y_{a+1} +
    gamma`` and ``y_b + gamma < 1 <= y_{b+1} + gamma`` (1-based, sorted),
    each widened by eps; comparisons against the virtual entries y_0 = -inf
    and y_{D+1} = +inf are skipped.  Assumes 0 <= a < b <= D.
    """
    d = ys.size
    a, b = p.a, p.b
    if a > 0 and ys[a - 1] + gamma > eps:
        return False
    if not ys[a] + gamma > -eps:
        return False
    if not ys[b - 1] + gamma < 1.0 + eps:
        return False
    if b < d and ys[b] + gamma < 1.0 - eps:
        return False
    return True


def boundary_case_holds(ys: np.ndarray, a: int, s: float, eps: float) -> bool:
    """Whether the all-pinned solution (a zeros, D - a ones) is optimal.

    ``ys`` is y sorted ascending.  Needs s = D - a and a unit gap
    y_{a+1} - y_a >= 1; the gap test is vacuous at a = 0 and a = D where one
    neighbor is virtual.
    """
    d = ys.size
    if abs(s - (d - a)) > eps:
        return False
    if 0 < a < d:
        return ys[a] - ys[a - 1] >= 1.0 - eps
    return True


def _degenerate_gamma(ys: np.ndarray, a: int) -> float:
    # Any value in [1 - y_{a+1}, -y_a] gives nonnegative multipliers; report
    # the midpoint, or the finite endpoint when one side is unbounded.
    d = ys.size
    if a == 0:
        return 1.0 - ys[0]
    if a == d:
        return -ys[-1]
    return 0.5 * ((1.0 - ys[a]) - ys[a - 1])


def _kink_search(ys: np.ndarray, prefix: np.ndarray, s: float):
    """Split (a, b) of the sorted coordinates for the sum target s.

    ``f(gamma) = sum(clip(y + gamma, 0, 1))`` is nondecreasing and piecewise
    linear, with kinks at ``-y_k`` (coordinate k leaves 0) and ``1 - y_k``
    (coordinate k reaches 1).  Coordinate k ends at zero when
    ``f(-y_k) >= s`` and at the cap when ``f(1 - y_k) <= s``.  Both tests are
    monotone in k, so each block edge is one bisection over the kinks:
    ``ceil(log2 D)`` evaluations of f from the prefix sums and two
    searchsorted calls each.  The split is read off the kink indices, never
    off float tests of ``y + gamma``.  The one case where f is flat at level
    s, the all-pinned split (integral s and a unit gap), is tested first.
    """
    d = ys.size
    a = d - int(s)
    if s == d - a and (a == 0 or a == d or ys[a] - ys[a - 1] >= 1.0):
        return a, a

    def f(gamma):
        lo = ys.searchsorted(-gamma, side="right")
        hi = ys.searchsorted(1.0 - gamma, side="left")
        return d - hi + prefix[hi] - prefix[lo] + (hi - lo) * gamma

    # first k whose test holds: the tests read False, ..., False, True, ...
    a = bisect_left(range(d), True, key=lambda k: f(-ys[k]) < s)
    b = bisect_left(range(d), True, lo=a, key=lambda k: f(1.0 - ys[k]) <= s)
    return a, b


def _assemble(y: np.ndarray, ys: np.ndarray, p: Partition, s: float) -> ProjectionResult:
    # The kink tests read only ys[k], so a and b each start a group of equal
    # values (or equal D): the blocks are exact comparisons against them.
    d = y.size
    a, b = p.a, p.b
    at_zero = y < ys[a] if a < d else np.ones(d, dtype=bool)
    at_cap = y >= ys[b] if b < d else np.zeros(d, dtype=bool)
    if b > a:
        gamma = gamma_for_partition(ys, p, s)
        free = ~(at_zero | at_cap)
        # x = y + gamma inside, 0 and 1 on the blocks, by arithmetic on the
        # masks: np.where branches per entry, and masks in input order defeat
        # branch prediction.  Clipping y to the interior's range first leaves
        # the interior exact and keeps the values masked out finite.
        x = y.clip(ys[a], ys[b - 1])
        x += gamma
        x *= free
        x += at_cap
        # One re-centering pass: keeps the sum residual at rounding level
        # after the interior values are rounded at large D.
        delta = (s - float(x.sum())) / (b - a)
        if delta != 0.0:
            x += delta * free
            gamma += delta
    else:
        gamma = _degenerate_gamma(ys, a)
        x = at_cap.astype(np.float64)
    return ProjectionResult(x=x, gamma=float(gamma), partition=p, at_zero=at_zero, at_cap=at_cap)


def project_capped_simplex(inp: ProjectionInput) -> ProjectionResult:
    """Exact projection of inp.y onto {x : sum(x) = inp.s, 0 <= x <= 1}.

    The solution is returned in the original index order.  The split found
    by the kink search is checked once with the sign tests at
    ``default_eps(y)``; if they fail, ``InconsistentCandidateError`` is raised
    rather than a wrong point returned.
    """
    if inp.t != 1.0:
        raise InvalidInputError("cap must be 1 here; use project_capped_box for general caps")
    ys = np.sort(inp.y)
    p = Partition(*_kink_search(ys, _prefix_sums(ys), inp.s))
    res = _assemble(inp.y, ys, p, inp.s)
    eps = default_eps(ys[[0, -1]])  # the extremes carry max |y|
    if p.a == p.b:
        ok = boundary_case_holds(ys, p.a, inp.s, eps)
    else:
        ok = partition_is_optimal(ys, p, res.gamma, eps)
    if not ok:
        raise InconsistentCandidateError(
            f"split (a={p.a}, b={p.b}) with gamma={res.gamma!r} fails the optimality "
            f"sign tests at eps={eps:.3g}"
        )
    return res


def project_capped_box(inp: ProjectionInput) -> ProjectionResult:
    """Projection onto {x : sum(x) = s, 0 <= x <= t} for a general cap t > 0.

    Reduces to the unit-cap problem on (y/t, s/t) and rescales: the solution
    and its sum multiplier are both t times the inner ones.  The blocks are
    the inner solve's: ``y/t`` can round two distinct values of y to one, so
    thresholds on y itself could split what the inner solve kept together.
    """
    if inp.t == 1.0:
        return project_capped_simplex(inp)
    s_inner = min(max(inp.s / inp.t, 0.0), float(inp.dim))  # clip rounding spill
    inner = ProjectionInput(inp.y / inp.t, s_inner)
    res = project_capped_simplex(inner)
    res.x *= inp.t
    res.gamma *= inp.t
    return res

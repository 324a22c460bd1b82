"""Exact Euclidean projection onto the capped simplex.

The feasible set is ``{x : sum(x) = s, 0 <= x <= t}``; the capped simplex of
the paper is the unit cap ``t = 1``.  Sorted ascending, the unique minimizer
of ``0.5*||x - y||^2`` over this set consists of ``a`` zeros, then interior
values ``y_k + gamma``, then ``D - b`` entries at the cap.  After one sort of
the values the solver finds ``(a, b)`` among the kinks of the piecewise
linear sum ``f(gamma) = sum(clip(y + gamma, 0, t))``, probing where a Newton
step on f predicts each edge: about 5 evaluations of f per solve, at most
``2*ceil(log2(D+1)) + 12``.  Each sums the interior pairwise, in
``O(log D + interior)`` up to D = 2^14; above that, from the sums of the
whole blocks of 2^14 sorted values, taken once per solve, plus the two
fringes, in ``O(log D + 2^14 + D/2^14)``.  It then solves ``gamma`` from the
sum constraint and checks the split with the optimality sign tests.  They say
the bound multipliers that stationarity forces on the split are nonnegative,
so a split that passes them satisfies the full first-order system and is the
minimizer.  A split that fails them raises instead of being returned.  The
answer is ``y + gamma`` in the input order, clipped once to ``[0, t]``: a
split never cuts a group of equal values, so each block is an exact
comparison of y against one sorted value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePartitionError,
    InconsistentCandidateError,
    InfeasibleError,
    InvalidInputError,
)


def default_eps(y, t: float = 1.0) -> float:
    """Comparison tolerance for the optimality tests, scaled to the cap and the data."""
    return 1e-9 * max(t, float(np.abs(y).max()))


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
        if not math.isfinite(self.t) or self.t <= 0.0:
            raise InvalidInputError(f"cap must be a positive finite number, got {self.t}")
        if not math.isfinite(self.s):
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
    """Split of the sorted coordinates: a zeros, interior up to b, then the cap."""

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


def sort_with_permutation(y) -> SortedInstance:
    """Stable ascending sort of y together with its permutation and prefix sums."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 1:
        raise InvalidInputError("y must be a one-dimensional vector with D >= 1")
    if not np.isfinite(y).all():
        raise InvalidInputError("y contains non-finite entries")
    perm = np.argsort(y, kind="stable")
    y_sorted = np.ascontiguousarray(y[perm])
    prefix = np.zeros(y.size + 1)
    np.cumsum(y_sorted, out=prefix[1:])
    return SortedInstance(y_sorted=y_sorted, perm=perm, prefix=prefix)


def gamma_for_partition(ys: np.ndarray, p: Partition, s: float, t: float = 1.0) -> float:
    """Shift applied to the interior so that the output sums to s.

    ``ys`` is y sorted ascending.  With a zeros and D - b entries at the cap
    t fixed, the sum constraint forces
    ``gamma = (s - t*(D - b) - sum(y_a..y_b)) / (b - a)``.  The interior is
    summed directly (pairwise) rather than as a difference of prefix sums,
    which loses the interior to cancellation next to a large outlier.
    """
    if p.a == p.b:
        raise DegeneratePartitionError(
            f"gamma is undefined for an empty interior (a = b = {p.a})"
        )
    interior = float(ys[p.a : p.b].sum())
    return (s - t * (ys.size - p.b) - interior) / (p.b - p.a)


def partition_is_optimal(
    ys: np.ndarray, p: Partition, gamma: float, eps: float, t: float = 1.0
) -> bool:
    """Sign tests certifying that (a, b, gamma) assembles the minimizer.

    ``ys`` is y sorted ascending.  Requires ``y_a + gamma <= 0 < y_{a+1} +
    gamma`` and ``y_b + gamma < t <= y_{b+1} + gamma`` (1-based, sorted),
    each widened by eps; comparisons against the virtual entries y_0 = -inf
    and y_{D+1} = +inf are skipped.  Assumes 0 <= a < b <= D.
    """
    return _signs_hold(_edge_values(ys, p), gamma, eps, t)


def _edge_values(ys: np.ndarray, p: Partition):
    # the sorted values the sign tests read, y_a, y_{a+1}, y_b and y_{b+1}
    # (1-based), with the virtual y_0 = -inf and y_{D+1} = +inf
    a, b = p.a, p.b
    return (
        ys.item(a - 1) if a else -math.inf,
        ys.item(a),
        ys.item(b - 1),
        ys.item(b) if b < ys.size else math.inf,
    )


def _signs_hold(edges, gamma: float, eps: float, t: float) -> bool:
    # a virtual neighbor's test reads -inf or +inf (NaN at an infinite
    # gamma), which passes, as skipping it would
    below, first, last, above = edges
    return (
        not below + gamma > eps
        and first + gamma > -eps
        and last + gamma < t + eps
        and not above + gamma < t - eps
    )


def boundary_case_holds(ys: np.ndarray, a: int, s: float, eps: float, t: float = 1.0) -> bool:
    """Whether the all-pinned solution (a zeros, D - a at the cap t) is optimal.

    ``ys`` is y sorted ascending.  Needs s = t*(D - a) and a gap
    y_{a+1} - y_a >= t; the gap test is vacuous at a = 0 and a = D where one
    neighbor is virtual.
    """
    d = ys.size
    return abs(s - t * (d - a)) <= eps and (not 0 < a < d or ys[a] - ys[a - 1] >= t - eps)


def _degenerate_gamma(ys: np.ndarray, a: int, t: float) -> float:
    # Any value in [t - y_{a+1}, -y_a] gives nonnegative multipliers; report
    # the midpoint, or the finite endpoint when one side is unbounded.
    d = ys.size
    if a == 0:
        return t - ys[0]
    if a == d:
        return -ys[-1]
    return 0.5 * ((t - ys[a]) - ys[a - 1])


# probes per block edge placed by a Newton step before bisection takes over
_GUIDED = 6

# entries per block: of the sums the kink search keeps, of the re-centering
# pass, and of the certificate pass in kkt
_BLOCK = 1 << 14


def _block_sums(ys: np.ndarray):
    """Pairwise sums of the whole blocks of ``_BLOCK`` sorted values, or None when D <= _BLOCK."""
    if ys.size <= _BLOCK:
        return None
    n = ys.size // _BLOCK
    return np.add.reduce(ys[: n * _BLOCK].reshape(n, _BLOCK), axis=1)


def _sum(ys: np.ndarray, sums, lo: int, hi: int) -> float:
    # sum(ys[lo:hi]), pairwise.  With block sums, the whole blocks inside
    # [lo, hi) are read from them and only the two fringes from ys; the three
    # parts are added left to right.  No sum is subtracted from another, so
    # the interior is never lost to cancellation next to a large outlier.
    if sums is not None:
        i, j = -(-lo // _BLOCK), hi // _BLOCK
        if i < j:
            return (
                float(np.add.reduce(ys[lo : i * _BLOCK]))
                + float(np.add.reduce(sums[i:j]))
                + float(np.add.reduce(ys[j * _BLOCK : hi]))
            )
    return float(np.add.reduce(ys[lo:hi]))


def _f(ys: np.ndarray, sums, t: float, gamma: float):
    """``sum(clip(ys + gamma, 0, t))`` and its slope there.

    ``sums`` is ``_block_sums(ys)``.  The interior is summed by ``_sum``: in
    ``O(log D + interior)`` when D <= 2^14, else in
    ``O(log D + 2^14 + D/2^14)`` after the one ``O(D)`` pass of the block
    sums.  The slope is the number of coordinates strictly between 0 and t.
    A coordinate with ``y + gamma == 0`` counts at zero even where
    ``t - gamma`` rounds to ``-gamma``, so the slope is never negative.
    """
    lo = int(ys.searchsorted(-gamma, side="right"))
    hi = max(lo, int(ys.searchsorted(t - gamma, side="left")))
    return t * (ys.size - hi) + _sum(ys, sums, lo, hi) + (hi - lo) * gamma, hi - lo


def _block_edge(ys, sums, s, t, cap, lo, guess):
    """First k >= lo whose edge test holds (D if none), and the last shift predicted.

    The zero edge (``cap`` False) tests ``f(-y_k) < s``, the cap edge
    ``f(t - y_k) <= s``; in k both read False, ..., False, True, ....  Up to
    ``_GUIDED`` probes go to the kink of the shift ``guess``, clamped into
    the bracket still open.  A probe at kink ``gamma`` updates the guess by a
    Newton step, ``gamma + (s - f)/slope``, which lands on the solution once
    no kink lies between them.  A probe with no usable guess (NaN on a flat
    piece of f, or a shift that overflowed) bisects, and so does every probe
    after the guided ones.
    """
    hi = ys.size
    shift, side = (t, "left") if cap else (0.0, "right")
    guided = _GUIDED
    while lo < hi:
        k = (lo + hi) // 2
        if guided and hi - lo > 2:  # two bisection probes close a smaller bracket
            guided -= 1
            if math.isfinite(guess):
                g = int(ys.searchsorted(shift - guess, side))
                if lo <= g <= hi:  # a guess outside the bracket is known wrong
                    k = min(g, hi - 1)
        gamma = t - ys.item(k) if cap else -ys.item(k)
        v, n = _f(ys, sums, t, gamma)
        if (v <= s) if cap else (v < s):
            hi = k
        else:
            lo = k + 1
        # on a flat piece of f the step is undefined
        guess = gamma + (s - v) / n if n else math.nan
    return lo, guess


def _kink_search(ys: np.ndarray, s: float, t: float):
    """Split (a, b) of the sorted coordinates for the sum target s and cap t.

    ``f(gamma) = sum(clip(y + gamma, 0, t))`` is nondecreasing and piecewise
    linear, with kinks at ``-y_k`` (coordinate k leaves 0) and ``t - y_k``
    (coordinate k reaches t).  Coordinate k ends at zero when
    ``f(-y_k) >= s`` and at the cap when ``f(t - y_k) <= s``.  Both tests are
    monotone in k, so ``a`` is the first k with ``f(-y_k) < s`` and ``b``
    the first k >= a with ``f(t - y_k) <= s``; the split is read off these
    kink indices, never off float tests of ``y + gamma``.  Each evaluation
    of f also gives its slope, so the probes go where a Newton step from
    the previous one predicts the edge (``_block_edge``), starting from the
    shift that solves the sum with every coordinate interior.  A solve
    typically evaluates f about 5 times (4.3 to 5.5 on average over the
    benchmark workloads, against 12 to 37 for two plain bisections).  In
    the worst case each edge spends its ``_GUIDED`` guided probes and then
    a full bisection, ``2*ceil(log2(D+1)) + 12`` evaluations of f: at most
    ``O(D log D)``, the sort's order.  The one case where f is flat at level
    s, the all-pinned split (s a multiple of t, a gap of t), is tested first.
    Past it, one pass takes the block sums that every probe, and the start
    guess, then share.
    """
    d = ys.size
    a = d - round(s / t)
    if boundary_case_holds(ys, a, s, 0.0, t):
        return a, a
    sums = _block_sums(ys)
    a, guess = _block_edge(ys, sums, s, t, cap=False, lo=0, guess=(s - _sum(ys, sums, 0, d)) / d)
    b, _ = _block_edge(ys, sums, s, t, cap=True, lo=a, guess=guess)
    return a, b


def _add_masked(x: np.ndarray, mask: np.ndarray, c: float) -> None:
    # x += c * mask in blocks of _BLOCK entries: a temporary as large as x
    # costs more in page faults than the whole product
    for i in range(0, x.size, _BLOCK):
        x[i : i + _BLOCK] += mask[i : i + _BLOCK] * c


def _assemble(
    y: np.ndarray, ys: np.ndarray, p: Partition, s: float, t: float, edges
) -> ProjectionResult:
    # The kink tests read only ys[k], so a and b each start a group of equal
    # values (or equal D): the blocks are exact comparisons against them, and
    # an empty block costs no pass over y.  With an interior, x is built in
    # the buffer of ys, which is overwritten: a second array of D doubles
    # per solve would be fresh memory, and page faults, whenever the
    # allocator has handed the last one back to the system.  ``edges`` are
    # ``_edge_values(ys, p)``, read before ys is overwritten.
    d = y.size
    a, b = p.a, p.b
    at_zero = y < ys[a] if 0 < a < d else np.full(d, a == d)
    at_cap = y >= ys[b] if b < d else np.zeros(d, dtype=bool)
    if b > a:
        gamma = gamma_for_partition(ys, p, s, t)
        # x = y + gamma, then one clip to [0, t] (one-sided when a block is
        # empty).  The shift gets +0.0 first, so x holds no -0.0.  y + gamma
        # rounds monotonically in y, so when the four edge values land on
        # their own sides of 0 and t, the clip pins both blocks at exactly 0
        # and t and leaves every interior value as it is.  A rounding tie at
        # an edge, which the sign tests accept within eps (a block value
        # just inside (0, t), or an interior value just outside), instead
        # writes the blocks through their masks: exact, but on masks in
        # input order np.putmask costs about 5 times the clip.
        shift = gamma + 0.0
        x = np.add(y, shift, out=ys)
        below, first, last, above = (e + shift for e in edges)
        if (a or b < d) and not (below <= 0.0 <= first and last <= t <= above):
            np.putmask(x, at_zero, 0.0)
            np.putmask(x, at_cap, t)
        elif a and b < d:
            np.clip(x, 0.0, t, out=x)
        elif a:
            np.maximum(x, 0.0, out=x)
        elif b < d:
            np.minimum(x, t, out=x)
        # One re-centering pass: keeps the sum residual at rounding level
        # after the interior values are rounded at large D.
        delta = (s - float(x.sum())) / (b - a)
        if delta != 0.0:
            _add_masked(x, ~(at_zero | at_cap), delta)
            gamma += delta
    else:
        gamma = _degenerate_gamma(ys, a, t)
        x = at_cap * t
    return ProjectionResult(x=x, gamma=float(gamma), partition=p, at_zero=at_zero, at_cap=at_cap)


def project_capped_box(inp: ProjectionInput) -> ProjectionResult:
    """Exact projection of inp.y onto {x : sum(x) = inp.s, 0 <= x <= inp.t}.

    The solution is returned in the original index order, exactly 0 on
    ``at_zero`` and exactly ``inp.t`` on ``at_cap``.  The split found by the
    kink search is checked once by its sign tests, each at the scale of the
    values it reads; if they fail, ``InconsistentCandidateError`` is raised.
    """
    y, s, t = inp.y, inp.s, inp.t
    ys = np.sort(y)
    # Where a sum of y passes DBL_MAX it reads inf or NaN, not a warning: the
    # search then bisects, and the sign tests refuse a split it spoiled.
    with np.errstate(over="ignore", invalid="ignore"):
        p = Partition(*_kink_search(ys, s, t))
        if p.a == p.b:
            # t*(D - a) reads no y, so its miss of s is judged at the scale of
            # s and t: at |y|'s, [0, 1] would pass for y = [0.1, 1e17], s = 0.5
            eps = 1e-9 * max(t, s)
            ok = boundary_case_holds(ys, p.a, s, eps, t)
            res = _assemble(y, ys, p, s, t, None)
        else:
            # default_eps(y, t) from the extremes, which carry max |y|
            eps = 1e-9 * max(t, abs(ys.item(0)), abs(ys.item(-1)))
            edges = _edge_values(ys, p)  # read before x overwrites ys
            res = _assemble(y, ys, p, s, t, edges)
            ok = _signs_hold(edges, res.gamma, eps, t)
    if not ok:
        raise InconsistentCandidateError(
            f"split (a={p.a}, b={p.b}) with gamma={res.gamma!r} fails the optimality "
            f"sign tests at eps={eps:.3g}"
        )
    return res


def project_capped_simplex(inp: ProjectionInput) -> ProjectionResult:
    """Exact projection of inp.y onto {x : sum(x) = inp.s, 0 <= x <= 1}.

    The unit-cap case of ``project_capped_box``, which it calls.
    """
    if inp.t != 1.0:
        raise InvalidInputError("cap must be 1 here; use project_capped_box for general caps")
    return project_capped_box(inp)

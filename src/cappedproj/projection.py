"""Exact Euclidean projection onto the capped simplex.

The feasible set is ``{x : sum(x) = s, 0 <= x <= t}``; the capped simplex of
the paper is the unit cap ``t = 1``.  Sorted ascending, the unique minimizer
of ``0.5*||x - y||^2`` over this set consists of ``a`` zeros, then interior
values ``y_k + gamma``, then ``D - b`` entries at the cap.  The solver finds
``(a, b)`` among the kinks of the piecewise linear sum
``f(gamma) = sum(clip(y + gamma, 0, t))``, read in sorted order, probing
where a Newton step on f predicts each edge.  Each probe of the zero edge
also bounds the cap edge, so the cap edge searches only what the zero
edge's probes left open: about 4 evaluations of f per solve, at most
``2*ceil(log2(D+1)) + 12``.  The search runs on a copy of y, sorted whole
up to D = 2^14.  Above that a sample of about 4,096 values predicts the
edges, and only a window around each (with the few other values the probes
rank) is put in sorted place by in-place partitions and sorted
(``_windows``); at ``s = 0`` and ``s = t*D``, whose all-pinned answer reads
only an extreme, only the two extremes are put in place.  Every rank is one
binary search over the whole copy, trusted only where it is exact (``_f``).
A rank not trusted, or an edge outside its window, raises ``_Miss``: the
rest of the copy is sorted and the same search runs again.  Each f sums the
interior pairwise, in ``O(log D + interior)`` up to D = 2^14; above that,
from the sums of the whole blocks of 2^14 values of its buffer, taken once
per search, plus the two fringes, in ``O(log D + 2^14 + D/2^14)``: a sum
needs the values of its ranks, not their order.  The search returns the
shift ``gamma`` with the split, solved from the sum constraint with the
interior summed as f sums it (the very sum of a probe that summed it), and
the solver checks the split with the optimality sign tests.  They say the
bound multipliers that stationarity forces on the split are nonnegative, so
a split that passes them satisfies the full first-order system and is the
minimizer.  A split that fails them raises instead of being returned.  The
answer is ``y + gamma`` in the input order, clipped once to ``[0, t]``: a
split never cuts a group of equal values, so each block is an exact
comparison of y against one sorted value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentCandidateError, InfeasibleError, InvalidInputError


def _reals(v, name: str) -> np.ndarray:
    # v as float64; only an integer or a float dtype holds real numbers, so a
    # complex, bool, text or object array is refused, as is a ragged list
    try:
        v = np.asarray(v)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} has an entry that is not a real number: {exc}") from None
    if v.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} has an entry that is not a real number: dtype {v.dtype}")
    return v.astype(np.float64, copy=False)


def _vector(y) -> np.ndarray:
    """y as a contiguous float64 vector; refuses any other shape, D = 0 and non-finite entries."""
    y = _reals(y, "y")
    if y.ndim != 1 or y.size < 1:
        raise InvalidInputError("y must be a one-dimensional vector with D >= 1")
    y = np.ascontiguousarray(y)
    # y . y, one BLAS pass, is finite exactly when every entry is, unless it
    # overflows; only then is each entry tested.  vdot, unlike y @ y, reads
    # an overflow or a NaN as inf or NaN without a warning
    if not (math.isfinite(np.vdot(y, y)) or np.isfinite(y).all()):
        raise InvalidInputError("y contains non-finite entries")
    return y


def _whole(v, name: str, low: int) -> int:
    """v as an int of at least low; refuses a value that int() would truncate, such as 2.7.

    NaN, inf, a bool and a value that is not a real number, such as None or
    4+0j, are refused too.
    """
    real = isinstance(v, numbers.Real) and not isinstance(v, bool)
    if not (real and v == v and v not in (math.inf, -math.inf) and int(v) == v >= low):
        raise InvalidInputError(f"{name} must be a whole number >= {low}, got {v!r}")
    return int(v)


def _real(v, name: str, *, finite: bool = True) -> float:
    """v as a finite float; refuses NaN, inf and a value that is not a real number.

    A real number is a ``numbers.Real`` other than a bool, or a 0-d array of an
    integer or a float dtype: None, text, a complex number and a 1-element
    array are not.  ``finite=False`` accepts NaN and inf, for a value that
    is measured, not solved with.
    """
    real = isinstance(v, float) or type(v) is int or (
        isinstance(v, numbers.Real) and not isinstance(v, bool)
        or isinstance(v, np.ndarray) and v.shape == () and v.dtype.kind in "iuf"
    )
    try:
        if real and (math.isfinite(x := float(v)) or not finite):
            return x
    except OverflowError:  # an int or a fraction past the largest double
        pass
    raise InvalidInputError(f"{name} must be a {'finite ' if finite else ''}real number, got {v!r}")


def _positive(v, name: str) -> float:
    """v as a positive finite float: a real number by ``_real``'s rule, then > 0."""
    if (x := _real(v, name)) > 0.0:
        return x
    raise InvalidInputError(f"{name} must be a positive finite number, got {x}")


@dataclass(frozen=True)
class ProjectionInput:
    """One projection instance: the point y, the sum target s, the cap t.

    Frozen: ``dataclasses.replace(inp, s=...)`` makes a new instance, checked
    again, where an assignment raises ``FrozenInstanceError``.
    """

    y: np.ndarray
    s: float
    t: float = 1.0

    def __post_init__(self):
        y, s, t = _vector(self.y), _real(self.s, "sum target"), _positive(self.t, "cap")
        if s < 0.0 or s > t * y.size:
            raise InfeasibleError(
                f"sum target s={s} is infeasible: the set "
                f"{{sum(x)={s}, 0<=x<={t}}} is empty for D={y.size}"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class Partition:
    """Split of the sorted coordinates: a zeros, interior up to b, then the cap.

    An output only: ``ProjectionResult.partition`` reads it from the masks.
    """

    a: int
    b: int


@dataclass(frozen=True)
class ProjectionResult:
    """Solution in original index order plus the blocks pinned at 0 and at the cap.

    ``at_zero`` and ``at_cap`` are boolean masks in the input order, where
    ``x`` is exactly 0 and exactly the cap.  ``partition`` is read from
    them, so each fact is stored once: ``a`` coordinates at 0 and ``D - b``
    at the cap.  Frozen, as ``ProjectionInput`` is: an assignment raises
    ``FrozenInstanceError``.  ``fallback`` is a class-level False, not a
    field: a split that fails its sign tests raises
    ``InconsistentCandidateError`` instead of being returned.  Only the
    benchmark in ``perfbench/`` still reads it.
    """

    x: np.ndarray
    gamma: float
    at_zero: np.ndarray
    at_cap: np.ndarray

    fallback = False

    @property
    def partition(self) -> Partition:
        """``Partition(a, b)`` counted from the masks: a at 0, D - b at the cap."""
        a, pinned = np.count_nonzero(self.at_zero), np.count_nonzero(self.at_cap)
        return Partition(int(a), int(np.size(self.at_cap) - pinned))


def sort_with_permutation(y) -> tuple[np.ndarray, np.ndarray]:
    """Stable ascending sort of y with its permutation: ``(y_sorted, perm)``, y_sorted = y[perm]."""
    y = _vector(y)
    perm = np.argsort(y, kind="stable")
    return np.ascontiguousarray(y[perm]), perm


def _edge_values(ys: np.ndarray, a: int, b: int):
    # the sorted values the sign tests read, y_a, y_{a+1}, y_b and y_{b+1}
    # (1-based), with the virtual y_0 = -inf and y_{D+1} = +inf
    return (
        ys.item(a - 1) if a else -math.inf,
        ys.item(a),
        ys.item(b - 1),
        ys.item(b) if b < ys.size else math.inf,
    )


def _signs_hold(edges, gamma: float, eps: float, t: float) -> bool:
    # y_a + gamma <= 0 < y_{a+1} + gamma and y_b + gamma < t <= y_{b+1} +
    # gamma, each widened by eps, for edges = _edge_values(ys, a, b) with
    # 0 <= a < b <= D.  A virtual neighbor's test reads -inf or +inf (NaN at
    # an infinite gamma), which passes, as skipping it would.
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


def _degenerate_gamma(zeros: np.ndarray, caps: np.ndarray, t: float) -> float:
    # Any value in [t - min(caps), -max(zeros)], caps and zeros the y values
    # of the two blocks, gives nonnegative multipliers; report the midpoint,
    # or the finite end when one block is empty (both never are).
    if not zeros.size:
        return t - float(caps.min())
    if not caps.size:
        return -float(zeros.max())
    return 0.5 * ((t - float(caps.min())) - float(zeros.max()))


# probes per block edge placed by a Newton step before bisection takes over
_GUIDED = 6

# entries per block: of the sums the kink search keeps and of kkt's certificate pass
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


class _Work:
    """The work record of one solve, filled as it runs; ``project_capped_box`` makes one per solve.

    ``searches``: a ``(size, wins, probes, bounds)`` entry per kink search
    (the sample's, the windows', the full sort's after a miss), appended as
    it starts: the buffer's size, its ``wins``, the index in ``probes`` of
    its first probe, and the zero edge's ``(below, above)`` on b, None
    until that edge ends.  ``probes``: ``(cap, gamma, f, lo, hi, part)`` per
    evaluation of f that returned.  ``tie``, ``total`` and ``recentred``:
    whether ``_assemble`` wrote the blocks by mask on a rounding tie, the
    sum of x it tested (None with no interior), and whether it re-centered.
    """

    __slots__ = ("searches", "probes", "tie", "total", "recentred")

    def __init__(self):
        self.searches, self.probes = [], []
        self.tie = self.recentred = False
        self.total = None


class _Miss(Exception):
    """A probe or a block edge of the kink search fell outside the sorted windows, or none were placed."""


def _f(ys: np.ndarray, sums, t: float, gamma: float, spans=None):
    """``sum(clip(ys + gamma, 0, t))``, the ranks of its interior's ends, and the interior's sum.

    Returns ``(f, lo, hi, part)``: the interior is ``ys[lo:hi]``, so the
    slope of f is ``hi - lo``, the number of coordinates strictly between 0
    and t, and ``hi`` is the number of ys below ``t - gamma`` (lo if that
    is fewer).  ``part`` is
    ``_sum(ys, sums, lo, hi)``, ``sums`` being ``_block_sums(ys)``: in
    ``O(log D + interior)`` when D <= 2^14, else in
    ``O(log D + 2^14 + D/2^14)`` after the one ``O(D)`` pass of the block
    sums.  A coordinate with ``y + gamma == 0`` counts at zero even where
    ``t - gamma`` rounds to ``-gamma``, so the slope is never negative.
    The interior's ends are ranked by one ``searchsorted`` each over all of
    ys; when ys is sorted only in ``spans``, which reach both its ends, a
    rank neither at an end of ys nor strictly inside a span raises ``_Miss``.
    A rank k returned is thus exact, as where ys is sorted whole: ``ys[k]``
    holds the value of rank k, and no value at k or after is below it.
    """
    # Exact: each run of ys between spans holds the values of its ranks, so
    # ys[i] < v (<= v on the right side) is monotone outside the run that
    # holds v's count c strictly inside it.  With no such run the search
    # returns c; with one, a position from that run's first to one past its
    # last, the end of a span inside ys, which the rule never trusts.
    d = ys.size
    lo = int(ys.searchsorted(-gamma, side="right"))
    hi = int(ys.searchsorted(t - gamma, side="left"))
    for k in (lo, hi) if spans else ():
        if 0 < k < d and not any(i < k < j for i, j in spans):
            raise _Miss
    hi = max(lo, hi)
    part = _sum(ys, sums, lo, hi)
    return t * (d - hi) + part + (hi - lo) * gamma, lo, hi, part


def _block_edge(ys, sums, s, t, cap, lo, hi, guess, wins, probes):
    """First k in [lo, hi) whose edge test holds (hi if none), the last shift predicted, and b's bracket.

    The caller knows the edge lies in ``[lo, hi]``.  The zero edge
    (``cap`` False) tests ``f(-y_k) < s``, the cap edge ``f(t - y_k) <= s``;
    in k both read False, ..., False, True, ....  Up to ``_GUIDED`` probes
    go to the kink of the shift ``guess``, clamped into the bracket still
    open.  A probe at kink ``gamma`` updates the guess by a Newton step,
    ``gamma + (s - f)/slope``, which lands on the solution once no kink lies
    between them.  A probe with no usable guess (NaN on a flat piece of f,
    or a shift that overflowed) bisects, and so does every probe after the
    guided ones.

    Each probe of the zero edge also bounds the cap edge b, since f is
    nondecreasing: with ``f(gamma) > s`` every cap kink ``t - y_k >= gamma``
    fails the cap test, and with ``f(gamma) <= s`` every one ``<= gamma``
    passes it.  The rank j of ``t - gamma`` that f took puts the bound, read
    in the probe's own arithmetic: a lower bound at j, and an upper bound
    at j when the kink ``t - y_j`` is at most gamma (one comparison; where
    ``t - gamma`` rounded down and it lies above, the bound is left open).
    No evaluation of f.  The third value returned is ``(below, above)``: b
    lies in ``[max(a, below), max(a, above)]``; the cap edge's own probes
    leave it ``(0, D)``.  Every probe is appended to ``probes``, the
    solve's log (``_Work.probes``), with its interior range and sum, for the
    shift to reuse.

    When ys is sorted only in parts, ``wins`` is ``(spans, windows)``: f
    trusts only ranks in the sorted spans, and the bracket is cut to the
    edge's sorted window ``windows[cap]``, so whatever the guess's rank, the
    kink it picks in the bracket is tested exactly.  An answer on an end of
    that window, other than lo or hi, raises ``_Miss``: the test one kink
    beyond it was never read.
    """
    d = ys.size
    below, above = 0, d
    if lo >= hi:  # an empty bracket: the edge is proven
        return lo, guess, (below, above)
    spans, (left, right) = (None, (0, d)) if wins is None else (wins[0], wins[1][cap])
    lo0, hi0 = lo, hi
    lo, hi = max(lo, left), min(hi, right)
    shift, side = (t, "left") if cap else (0.0, "right")
    guided = _GUIDED
    while lo < hi:
        k = (lo + hi) // 2
        # two bisection probes close a smaller bracket; a guided probe there
        # costs a searchsorted and saves no evaluation of f (without this
        # rule topk_sparse solved 3.5% slower on 2 cores, outputs unchanged)
        if guided and hi - lo > 2:
            guided -= 1
            if math.isfinite(guess):
                # the guess only picks the kink: each in the bracket, inside
                # the sorted window, tests exactly; one outside is known wrong
                g = int(ys.searchsorted(shift - guess, side))
                if lo <= g <= hi:
                    k = min(g, hi - 1)
        gamma = shift - ys.item(k)
        v, i, j, part = _f(ys, sums, t, gamma, spans)
        probes.append((cap, gamma, v, i, j, part))
        if (v <= s) if cap else (v < s):
            hi = k
        else:
            lo = k + 1
        # b's bracket from a zero-edge probe, where j ranks t - gamma, a rank
        # f trusts: each y_k < c = fl(t - gamma) is at most the float below
        # c, and so at most t - gamma, so the kinks k < j are >= gamma and
        # fail the cap test when v > s.  Every y_k at k >= j is >= y_j, so
        # when t - y_j <= gamma every kink k >= j is <= gamma too, and those
        # pass the cap test when v <= s; where c rounded down and the kink
        # at j lies above gamma, the bound is left open.  A NaN v, from a
        # sum past DBL_MAX, bounds nothing
        if not cap and v > s:
            below = max(below, j)
        elif not cap and v <= s and j < d and t - ys.item(j) <= gamma:
            above = min(above, j)
        # on a flat piece of f the step is undefined
        guess = gamma + (s - v) / (j - i) if j > i else math.nan
    if lo == left > lo0 or lo >= right < hi0:
        raise _Miss
    return lo, guess, (below, above)


def _kink_search(ys: np.ndarray, s: float, t: float, work: _Work, wins=None):
    """Split (a, b) of the sorted coordinates, and its shift, for the sum target s and cap t.

    ``f(gamma) = sum(clip(y + gamma, 0, t))`` is nondecreasing and piecewise
    linear, with kinks at ``-y_k`` (coordinate k leaves 0) and ``t - y_k``
    (coordinate k reaches t).  Coordinate k ends at zero when
    ``f(-y_k) >= s`` and at the cap when ``f(t - y_k) <= s``.  Both tests are
    monotone in k, so ``a`` is the first k with ``f(-y_k) < s`` and ``b``
    the first k >= a with ``f(t - y_k) <= s``; the split is read off these
    kink indices, never off float tests of ``y + gamma``.  Each evaluation
    of f also gives its slope, so the probes go where a Newton step from
    the previous one predicts the edge (``_block_edge``), starting from the
    shift that solves the sum with every coordinate interior.  Each probe of
    the zero edge also bounds b, since f is nondecreasing, and the cap edge
    searches only between those bounds: none at all when they meet, as
    ``b = D`` on a sparse solve.  A search typically evaluates f about 4
    times (3.7 on the benchmark's rows_minibatch and 4.5 on topk_sparse on
    average, against 12 to 37 for two plain bisections).  In the worst case
    each edge spends its ``_GUIDED`` guided probes and then a full
    bisection, ``2*ceil(log2(D+1)) + 12`` evaluations of f: at most
    ``O(D log D)``, the sort's order.  The one case where f is flat at level
    s, the all-pinned split (s a multiple of t, a gap of t), is tested first.
    Past it, one pass takes the block sums that every probe, the start
    guess and the shift then share.

    Returns ``(a, b, gamma)``.  With an interior, the sum constraint forces
    ``gamma = (s - t*(D - b) - sum(y_a..y_b)) / (b - a)``, the interior
    summed as f sums it.  Where any probe already summed exactly ``[a, b)``,
    as the zero edge's probe at kink ``a - 1`` or the cap edge's at ``b``
    mostly has, its sum is read from this search's probes in the work
    record ``work``: the same ``_sum`` over the same range, so the same
    bits.  An all-pinned split returns ``_degenerate_gamma``.  The search
    appends its entry to ``work.searches`` as it starts, and every
    evaluation of f to ``work.probes``.

    ``wins`` is ``(spans, windows)`` when ys is sorted only in the spans
    ``(lo, hi)`` (``_windows``): each edge is searched in its window, and a
    rank f does not trust, or an edge off its window, raises ``_Miss``.
    None is the widest window, ys sorted throughout.  The sums need no
    order: the positions between two spans hold the values of those ranks.
    """
    d, probes, first = ys.size, work.probes, len(work.probes)
    work.searches.append((d, wins, first, None))
    a = b = d - round(s / t)
    if not boundary_case_holds(ys, a, s, 0.0, t):
        sums = _block_sums(ys)
        guess = (s - _sum(ys, sums, 0, d)) / d
        a, guess, bounds = _block_edge(ys, sums, s, t, False, 0, d, guess, wins, probes)
        work.searches[-1] = d, wins, first, bounds
        lo = max(a, bounds[0])
        b = _block_edge(ys, sums, s, t, True, lo, max(lo, bounds[1]), guess, wins, probes)[0]
    if a == b:  # the sorted neighbours of a: the largest zero, the smallest cap
        return a, a, _degenerate_gamma(ys[max(a - 1, 0) : a], ys[a : a + 1], t)
    # a probe of this search that summed exactly [a, b) took the same _sum:
    # reuse its bits
    for _, _, _, i, j, part in probes[first:]:
        if i == a and j == b:
            break
    else:
        part = _sum(ys, sums, a, b)
    return a, b, (s - t * (d - b) - part) / (b - a)


# values in the sample that predicts the windows of a solve above D = 2^14
_SAMPLE = 1 << 12

# a window's margin, in standard errors of the sample: of its shift, and of
# its count at each end of the window
_Z = 3.0


def _around(sample: np.ndarray, lo_v: float, hi_v: float):
    # index range (i, j) of the sample's values in [lo_v, hi_v] and of the
    # value next to them on each side, with its ties: the kinks next to a
    # shift can lie across a gap in y
    m = sample.size
    i = int(sample.searchsorted(lo_v, "left"))
    j = int(sample.searchsorted(hi_v, "right"))
    if i:
        i = int(sample.searchsorted(sample[i - 1], "left"))
    if j < m:
        j = int(sample.searchsorted(sample[j], "right"))
    return i, j


def _positions(m: int, d: int, i: int, j: int):
    # positions in sorted y, of size d, of the values sample[i:j] of a sample
    # of m, widened by _Z standard errors of the sample's count at each end
    r = d / m
    err = [r * (_Z * math.sqrt(c * (m - c) / m) + 1.0) for c in (i, j)]
    return max(0, math.floor(r * i - err[0])), min(d, math.ceil(r * j + err[1]))


def _cut(ys: np.ndarray, lo: int, hi: int, cuts) -> None:
    # Reorders ys[lo:hi] in place so that, for each of the ascending cuts
    # lo < c < hi, the values of rank below c come before position c and
    # the rest from c on.  A cut more than 2 from both ends takes one
    # single-kth partition of the range still open (numpy's partition with
    # several kth costs more than a whole sort), the cut that leaves the
    # least to partition after it first.  A cut within 2 of an end costs no
    # partition: it comes last, on the smallest range, and takes an argmin
    # (or an argmax) and a swap per position.
    inner = [k for k, c in enumerate(cuts) if c - lo > 2 and hi - c > 2]
    if inner:
        k = min(inner, key=lambda k: (k > inner[0]) * (cuts[k] - lo) + (k < inner[-1]) * (hi - cuts[k]))
        ys[lo:hi].partition(cuts[k] - lo)
        _cut(ys, lo, cuts[k], cuts[:k])
        _cut(ys, cuts[k], hi, cuts[k + 1 :])
        return
    for c in cuts:
        if c - lo <= 2:
            for i in range(lo, c):
                j = i + int(ys[i:hi].argmin())
                ys[i], ys[j] = ys[j], ys[i]
        else:
            for i in range(hi - 1, c - 1, -1):
                j = lo + int(ys[lo : i + 1].argmax())
                ys[i], ys[j] = ys[j], ys[i]


def _windows(ys: np.ndarray, s: float, t: float, work: _Work):
    """Sorts the parts of ``ys``, a copy of y, that the kink search reads; returns its ``wins``.

    A strided sample of about ``_SAMPLE`` values of ys, taken before any
    moves and solved by the kink search at ``s*m/D``, predicts the shift,
    with the standard error of the sample's sum over the slope of f:
    ``sqrt(m) * sd / n``, ``sd`` the spread of ``clip(sample + shift, 0, t)``
    and ``n`` the sample's interior; with no interior the error is 0.  The
    minimum and the maximum go to the ends of ys.  Each edge's window holds its
    kinks for a shift within ``_Z`` standard errors (``_around``), at the
    positions the sample gives them widened by ``_Z`` standard errors of
    its counts (``_positions``); where every such shift
    puts the edge at an end of y, the window is that extreme, with the value
    next to it or its ties sorted too.  A probe at an edge's kink ``y_k``
    also ranks ``y_k + t`` (zero edge) or ``y_k - t`` (cap edge), so the
    positions of those values are sorted as well, and, when s is a multiple
    of t, the two values the all-pinned pretest reads.  ``_cut`` puts every
    span in place, and each is sorted.

    The sample only places the windows: the search decides whether they
    hold the answer, and raises ``_Miss`` when they do not; a sample shift
    that is not finite is a miss too.  Up to D = 2^14 ys is sorted whole
    and None, the widest window, returned.  At ``s = 0`` and ``s = t*D``
    the all-pinned pretest holds with no gap test, and the answer reads
    only an extreme: the extremes are put at the ends and returned as both
    the spans and the windows, and nothing is sampled or sorted.
    """
    d = ys.size
    if d <= _BLOCK:
        ys.sort()
        return None
    # the all-pinned pretest reads ys at k - 1 and k when s = t*(D - k),
    # and only an extreme, for gamma, at k = 0 or D
    k = d - round(s / t)
    pinned = s == t * (d - k)
    if pinned and not 0 < k < d:
        _cut(ys, 0, d, [1, d - 1])
        ends = (0, 1), (d - 1, d)
        return ends, ends
    sample = np.sort(ys[:: d // _SAMPLE])
    m = sample.size
    a, b, g = _kink_search(sample, s * m / d, t, work)
    # sd^2 = E[c^2] - E[c]^2 over c = clip(sample + g, 0, t), of which the
    # m - b at the cap are t and the interior is z
    z = sample[a:b] + g
    top = t * (m - b)
    var = (t * top + float(z @ z)) / m - ((top + float(z.sum())) / m) ** 2
    e = _Z * math.sqrt(m * max(var, 0.0)) / (b - a) if b > a else 0.0
    if not math.isfinite(g + e):
        raise _Miss
    _cut(ys, 0, d, [1, d - 1])
    low, high = ys.item(0), ys.item(-1)
    spans, windows = [(0, 1), (d - 1, d)], []
    for cap, (lo_v, hi_v) in enumerate(((-(g + e), -(g - e)), (t - g - e, t - g + e))):
        if hi_v < low:
            windows.append((0, 1))
            spans.append((0, 2) if sample[0] > low else _positions(m, d, *_around(sample, low, low)))
            lo_v = hi_v = low
        elif lo_v > high:
            windows.append((d - 1, d))
            spans.append((d - 2, d) if sample[-1] < high else _positions(m, d, *_around(sample, high, high)))
            lo_v = hi_v = high
        else:
            i, j = _around(sample, lo_v, hi_v)
            windows.append(_positions(m, d, i, j))
            lo_v, hi_v = sample[i] if i else low, sample[j - 1] if j < m else high
        shift = -t if cap else t
        if lo_v + shift <= high and hi_v + shift >= low:
            spans.append(_positions(m, d, *_around(sample, lo_v + shift, hi_v + shift)))
    spans += windows
    if pinned:
        spans.append((k - 1, k + 1))
    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    _cut(ys, 1, d - 1, [c for span in merged for c in span if 1 < c < d - 1])
    for lo, hi in merged:
        ys[lo:hi].sort()
    return tuple(merged), tuple(windows)


def _search(y: np.ndarray, s: float, t: float, work: _Work):
    """The buffer the kink search ran on, and its ``(a, b, gamma)``.

    The buffer is a copy of y, sorted in the spans ``_windows`` places (all
    of it up to D = 2^14); a miss sorts the rest and reruns the same search.
    Every search logs its work in ``work``.
    """
    ys = y.copy()
    try:
        return ys, _kink_search(ys, s, t, work, _windows(ys, s, t, work))
    except _Miss:
        ys.sort()
        return ys, _kink_search(ys, s, t, work)


def _sum_rounding(d: int, total: float) -> float:
    """A bound on the rounding error of ``x.sum()`` for d values of x >= 0 that it sums to total.

    numpy sums a float64 array pairwise: it halves the array down to blocks
    of at most 128 values, adds each block in 8 lanes of at most 16 values,
    combines the lanes in 3 levels and adds the up to 7 values left over one
    at a time.  A block takes at most 15 + 3 + 6 = 24 roundings, there are
    at most ``d.bit_length() - 6`` halvings above it (a half has at most
    ``d/2 + 8`` values), and the reduction adds its first value once more,
    so every value meets at most ``h = d.bit_length() + 19`` roundings.  The
    sum is then within ``h*u/(1 - h*u)`` of the exact one, relative to it,
    with u = 2^-53 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 4.2); relative to the computed total the
    factor stays below ``(h + 1)*u``.  Where an interior value rounds just
    below 0, ``sum |x|`` exceeds total and the bound is a little low: the
    interior is then re-centered a little more often, never less.
    """
    return (d.bit_length() + 20) * 2.0**-53 * total


def _assemble(
    y: np.ndarray, ys: np.ndarray, a: int, b: int, gamma: float, s: float, t: float, edges, work: _Work
) -> ProjectionResult:
    # The kink tests read only ys[k], so a and b each start a group of equal
    # values (or equal D): the blocks are exact comparisons against them, and
    # an empty block costs no pass over y.  x is built in the buffer of ys,
    # which is overwritten, the masks having read it: a second array of D
    # doubles per solve would be fresh memory, and page faults, whenever the
    # allocator has handed the last one back to the system.  ``edges`` are
    # ``_edge_values(ys, a, b)``, read before ys is overwritten.  With an
    # interior, ``work`` gets the tie, the sum tested and the re-centering.
    d = y.size
    at_zero = y < ys[a] if 0 < a < d else np.full(d, a == d)
    at_cap = y >= ys[b] if b < d else np.zeros(d, dtype=bool)
    if b > a:
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
        tie = (a > 0 or b < d) and not (below <= 0.0 <= first and last <= t <= above)
        if tie:
            np.putmask(x, at_zero, 0.0)
            np.putmask(x, at_cap, t)
        elif a and b < d:
            np.clip(x, 0.0, t, out=x)
        elif a:
            np.maximum(x, 0.0, out=x)
        elif b < d:
            np.minimum(x, t, out=x)
        # One re-centering pass, only when the sum misses s by more than the
        # rounding of the sum that measured it (_sum_rounding): a miss within
        # that is noise, and adding it to every interior value only adds
        # rounding.  A systematic miss, from a shift rounded at the scale of
        # a large y, is corrected: x is shifted in place and its blocks are
        # written back to exactly 0 and t by mask, as on a rounding tie.  A
        # shift that is not finite leaves gamma so, which the sign tests refuse.
        total = float(x.sum())
        recentred = abs(s - total) > _sum_rounding(d, total)
        if recentred:
            delta = (s - total) / (b - a)
            x += delta
            np.putmask(x, at_zero, 0.0)
            np.putmask(x, at_cap, t)
            gamma += delta
        work.tie, work.total, work.recentred = tie, total, recentred
    else:
        x = np.multiply(at_cap, t, out=ys)
    return ProjectionResult(x=x, gamma=float(gamma), at_zero=at_zero, at_cap=at_cap)


def project_capped_box(inp: ProjectionInput) -> ProjectionResult:
    """Exact projection of inp.y onto {x : sum(x) = inp.s, 0 <= x <= inp.t}.

    The solution is returned in the original index order, exactly 0 on
    ``at_zero`` and exactly ``inp.t`` on ``at_cap``.  The split found by the
    kink search is checked once by its sign tests, each at the scale of the
    values it reads; if they fail, ``InconsistentCandidateError`` is raised.
    """
    return _solve(inp, _Work())


def _solve(inp: ProjectionInput, work: _Work) -> ProjectionResult:
    """``project_capped_box``, logging what the solve did in the work record ``work``."""
    y, s, t = inp.y, inp.s, inp.t
    # Where a sum of y passes DBL_MAX it reads inf or NaN, not a warning: the
    # search then bisects, and the sign tests refuse a split it spoiled.
    with np.errstate(over="ignore", invalid="ignore"):
        ys, (a, b, gamma) = _search(y, s, t, work)
        if a == b:
            # t*(D - a) reads no y, so its miss of s is judged at the scale of
            # s and t: at |y|'s, [0, 1] would pass for y = [0.1, 1e17], s = 0.5
            eps = 1e-9 * max(t, s)
            ok = boundary_case_holds(ys, a, s, eps, t)
            res = _assemble(y, ys, a, b, gamma, s, t, None, work)
        else:
            # 1e-9 * max(t, max|y|), with max|y| read off the sorted extremes
            eps = 1e-9 * max(t, abs(ys.item(0)), abs(ys.item(-1)))
            edges = _edge_values(ys, a, b)  # read before x overwrites ys
            res = _assemble(y, ys, a, b, gamma, s, t, edges, work)
            ok = _signs_hold(edges, res.gamma, eps, t)
    if not ok:
        raise InconsistentCandidateError(
            f"split (a={a}, b={b}) with gamma={res.gamma!r} fails the optimality "
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

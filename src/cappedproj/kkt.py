"""First-order optimality certificates for capped-simplex projections.

The projection is the unique minimizer of a strictly convex quadratic over a
nonempty polytope, so a candidate x is optimal exactly when multipliers
(alpha, beta, gamma) exist with

    x - y - alpha + beta - gamma = 0,   alpha, beta >= 0,
    alpha_i * x_i = 0,   beta_i * (t - x_i) = 0,

together with primal feasibility.  Given x and gamma the multipliers are
forced: alpha_i = -(y_i + gamma) on coordinates pinned at 0 and
beta_i = y_i + gamma - t on coordinates pinned at t, zero elsewhere.

A certificate is one pass over y, x, gamma and the two block masks, in
blocks of 2^14 entries.  Per block it forces the multipliers into small
buffers, counts the entries where the claimed blocks misfit x and keeps the
running extremes of every residual; only ``x.min()``, ``x.max()`` and
``x.sum()`` read the whole of x.  A block with no coordinate costs the pass
nothing: its multiplier is +-0 on every entry and moves no residual, so its
forcing, its misfit count and its residual terms are skipped.  That skip
applies while x and gamma are finite and ``y + gamma - t`` cannot overflow;
otherwise every term runs, and a NaN or an inf shows in the report as in the
whole-array formulas.  The multipliers are always the forced
ones: ``certify_result`` forces them on the blocks the solver reports,
``certify`` on blocks it reads off the candidate.  No array of the size of y
is built: a ``KktCertificate`` keeps what forces the multipliers and builds
``alpha`` and ``beta`` when they are first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InconsistentCandidateError, InvalidInputError
from .projection import _BLOCK, ProjectionInput, ProjectionResult

DEFAULT_TOL = 1e-8

# classification slack: how far a coordinate may sit from a bound and still
# count as pinned there.  Looser than DEFAULT_TOL on purpose, since iterative
# candidates land near bounds without touching them; at cap t it is
# DEFAULT_CLASSIFY_TOL * min(1, t), so that a small cap never lies within it
DEFAULT_CLASSIFY_TOL = 1e-7


def _slack(cap) -> float:
    return DEFAULT_CLASSIFY_TOL * min(1.0, cap)


def _force(y, gamma, zero, one, cap, alpha, beta, alpha_on=True, beta_on=True) -> None:
    # alpha = -(y + gamma) on the zero block and beta = y + gamma - cap on the
    # cap block, 0 elsewhere, written into alpha and beta.  Products with the
    # masks rather than np.where, whose per-entry branch is slow on masks in
    # input order.  Without ``alpha_on`` alpha is not written; without
    # ``beta_on`` beta holds y + gamma.
    np.add(y, gamma, out=beta)
    if alpha_on:
        np.negative(beta, out=alpha)
        alpha *= zero
    if beta_on:
        beta -= cap
        beta *= one


class KktCertificate:
    """Multipliers for the bounds (alpha, beta) and the sum constraint (gamma).

    Holds what forces them: y, gamma, the masks of the coordinates pinned at
    0 and at the cap, and the cap.  ``alpha`` and ``beta`` are built when
    either is first read: ``alpha = -(y + gamma)`` on the zero block and
    ``beta = y + gamma - cap`` on the cap block, 0 elsewhere.
    """

    def __init__(self, y, gamma, at_zero, at_cap, cap):
        self.gamma = float(gamma)
        self._forced_by = (y, at_zero, at_cap, cap)

    @cached_property
    def _multipliers(self):
        y, zero, one, cap = self._forced_by
        alpha, beta = np.empty_like(y), np.empty_like(y)
        _force(y, self.gamma, zero, one, cap, alpha, beta)
        return alpha, beta

    @property
    def alpha(self) -> np.ndarray:
        return self._multipliers[0]

    @property
    def beta(self) -> np.ndarray:
        return self._multipliers[1]


@dataclass
class KktReport:
    """Max-norm residual of each optimality condition.

    stationarity_residual : max |x - y - alpha + beta - gamma|
    primal_lower          : max(0, -min x)
    primal_upper          : max(0, max x - t)
    sum_residual          : |sum(x) - s|
    dual_residual         : max(0, -min alpha, -min beta)
    cs_residual           : max |alpha * x| and |beta * (t - x)|

    The fields are absolute.  ``passed`` compares each residual with the
    scale of the numbers it is made from: the stationarity and dual
    residuals of coordinate i with ``tol * max(t, |y_i|, |gamma|)``, its
    complementary-slackness terms with ``t`` times that, the bound residuals
    with ``tol * t`` and the sum residual with ``tol * max(t, s)``.
    """

    stationarity_residual: float
    primal_lower: float
    primal_upper: float
    sum_residual: float
    dual_residual: float
    cs_residual: float
    passed: bool

    @property
    def max_residual(self) -> float:
        # a ufunc, not max, so that a NaN field makes the maximum NaN
        return float(
            np.maximum.reduce(
                [
                    self.stationarity_residual,
                    self.primal_lower,
                    self.primal_upper,
                    self.sum_residual,
                    self.dual_residual,
                    self.cs_residual,
                ]
            )
        )


# the ways the claimed blocks can misfit x that the pass counts, in the
# order they are reported; an interior entry outside [0, cap] comes after
_MISFITS = (
    "a coordinate is claimed by both pinned blocks",
    "candidate has nonzero entries in its claimed zero block",
    "candidate is off the cap in its claimed pinned block",
)


def _classify(x, cap):
    ctol = _slack(cap)
    zero = x <= ctol
    return zero, (x >= cap - ctol) & ~zero


def _candidate(inp, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != inp.y.shape:
        raise InvalidInputError("x must have the same length as the instance")
    return x


def _count_misfits(x, zero, one, cap, work, flag, alpha_on, beta_on) -> tuple[int, int, int]:
    # one count per entry of _MISFITS: entries both blocks claim, and entries
    # more than the classification slack from the bound they are claimed at;
    # a block left out (alpha_on or beta_on False) is empty and counts 0
    ctol = _slack(cap)
    both = off_zero = off_cap = 0
    if alpha_on and beta_on:
        both = np.count_nonzero(np.logical_and(zero, one, out=flag))
    if alpha_on:
        np.abs(x, out=work)
        np.greater(work, ctol, out=flag)
        off_zero = np.count_nonzero(np.logical_and(flag, zero, out=flag))
    if beta_on:
        np.subtract(x, cap, out=work)
        np.abs(work, out=work)
        np.greater(work, ctol, out=flag)
        off_cap = np.count_nonzero(np.logical_and(flag, one, out=flag))
    return both, off_zero, off_cap


# max and min of two scalars that return NaN when either is NaN, which the
# builtins drop when it comes second; a ufunc call on two scalars costs
# several times as much
def _max(a, b):
    return a if a >= b or a != a else b


def _min(a, b):
    return a if a <= b or a != a else b


# the largest double: y + gamma, and y + gamma - t, are finite for every
# finite y when they are at y = _BIG and y = -_BIG
_BIG = float(np.finfo(np.float64).max)


def _measure(inp, x, gamma, zero, one, tol, check, sizes) -> KktReport:
    """The residual report of (x, gamma) on inp from one pass over blocks.

    The multipliers are forced from the masks ``zero`` and ``one``, of
    ``sizes`` coordinates each, into per-block buffers.  With ``check``, the
    masks are checked against x in the same pass, and a misfit raises
    ``InconsistentCandidateError``.  Reductions call the ufuncs directly:
    ``a.max()`` costs twice as much on short blocks.

    An empty block forces its multiplier to +-0 on every entry, which moves
    no residual, so its terms are skipped.  That holds while nothing it
    meets can overflow: x finite, and ``y + gamma`` and ``y + gamma - t``
    finite for every finite y, which also keeps ``t - x`` finite.
    Otherwise every term runs, so a NaN or an inf reaches the report as in
    the whole-array formulas.
    """
    if not 0.0 < tol < np.inf:
        raise InvalidInputError(f"tol must be a positive finite number, got {tol}")
    y, t = inp.y, inp.t
    d = y.size
    x_min, x_max = np.minimum.reduce(x), np.maximum.reduce(x)
    exact = (
        math.isfinite(gamma + _BIG)
        and math.isfinite(gamma - _BIG - t)
        and math.isfinite(x_min)
        and math.isfinite(x_max)
    )
    alpha_on, beta_on = sizes[0] > 0 or not exact, sizes[1] > 0 or not exact
    # blocks of _BLOCK entries: a handful of buffers this size stay in cache
    # and cost no page faults
    m = n = min(d, _BLOCK)
    ab, bb, rs, rc, w = np.empty((5, n))
    f = np.empty(n, dtype=bool)
    # coordinate i passes when its residual is within tol * max(c, |y_i|);
    # a block whose largest residual is within tol * c needs no finer look
    c = max(t, abs(gamma))
    fast = tol * c
    stat = cs = 0.0
    alpha_min = beta_min = np.inf
    misfits = np.zeros(len(_MISFITS), dtype=np.intp)
    within = True
    for i in range(0, d, _BLOCK):
        if d == n:  # one block: the arrays themselves, no views to make
            xb, yb, zb, cb = x, y, zero, one
        else:
            j = min(i + _BLOCK, d)
            xb, yb, zb, cb = x[i:j], y[i:j], zero[i:j], one[i:j]
            if j - i < n:  # the last block, partial
                m = j - i
                ab, bb, rs, rc, w, f = ab[:m], bb[:m], rs[:m], rc[:m], w[:m], f[:m]
        if alpha_on or beta_on:
            _force(yb, gamma, zb, cb, t, ab, bb, alpha_on, beta_on)
        if check:
            misfits += _count_misfits(xb, zb, cb, t, w, f, alpha_on, beta_on)
        # the order of the whole-array expressions in the KktReport docstring,
        # so every field is bitwise what they give
        np.subtract(xb, yb, out=rs)
        if alpha_on:
            rs -= ab
        if beta_on:
            rs += bb
        rs -= gamma
        np.abs(rs, out=rs)
        if alpha_on:
            np.multiply(ab, xb, out=rc)
            np.abs(rc, out=rc)
        if beta_on:
            cw = w if alpha_on else rc
            np.subtract(t, xb, out=cw)
            cw *= bb
            np.abs(cw, out=cw)
            if alpha_on:
                np.maximum(rc, w, out=rc)
        top_s = np.maximum.reduce(rs)
        top_c = np.maximum.reduce(rc) if alpha_on or beta_on else 0.0
        a_min = np.minimum.reduce(ab) if alpha_on else 0.0
        b_min = np.minimum.reduce(bb) if beta_on else 0.0
        stat, cs = _max(stat, top_s), _max(cs, top_c)
        alpha_min, beta_min = _min(alpha_min, a_min), _min(beta_min, b_min)
        if within and not (
            top_s <= fast and top_c <= fast * t and -a_min <= fast and -b_min <= fast
        ):
            # w = tol * max(t, |y_i|, |gamma|), the bound of coordinate i; the
            # comparisons are written so that a NaN fails them
            np.abs(yb, out=w)
            np.maximum(w, c, out=w)
            w *= tol
            within = np.count_nonzero(np.less_equal(rs, w, out=f)) == m
            if alpha_on or beta_on:
                np.multiply(w, t, out=rs)
                within = within and np.count_nonzero(np.less_equal(rc, rs, out=f)) == m
            np.negative(w, out=w)
            if alpha_on:
                within = within and np.count_nonzero(np.greater_equal(ab, w, out=f)) == m
            if beta_on:
                within = within and np.count_nonzero(np.greater_equal(bb, w, out=f)) == m
    if check:
        for count, message in zip(misfits, _MISFITS):
            if count:
                raise InconsistentCandidateError(message)
        # the blocks sit within the slack of 0 and cap by now, so only an
        # interior entry can leave [-slack, cap + slack]
        ctol = _slack(t)
        if x_min < -ctol or x_max > t + ctol:
            raise InconsistentCandidateError("candidate leaves [0, cap] in its claimed interior")
    lower = float(_max(0.0, -x_min))
    upper = float(_max(0.0, x_max - t))
    ssum = abs(float(np.add.reduce(x)) - inp.s)
    dual = float(_max(_max(0.0, -alpha_min), -beta_min))
    passed = (
        within and lower <= tol * t and upper <= tol * t and ssum <= tol * max(t, inp.s)
    )
    return KktReport(
        stationarity_residual=float(stat),
        primal_lower=lower,
        primal_upper=upper,
        sum_residual=ssum,
        dual_residual=dual,
        cs_residual=float(cs),
        passed=bool(passed),
    )


def _estimate_gamma(y, x, cap, zero, one):
    # stationarity on interior coordinates reads x = y + gamma; average the
    # per-coordinate estimates (sum / count is np.mean without its overhead),
    # or fall back to the pinned groups' interval, which the all-pinned
    # candidate always has an end of
    shifts = (x - y)[~(zero | one)]
    if shifts.size:
        return float(shifts.sum() / shifts.size)
    if not one.any():
        return -float(y[zero].max())
    lower = cap - float(y[one].min())
    return 0.5 * (lower - float(y[zero].max())) if zero.any() else lower


def certify(
    inp: ProjectionInput, x, *, tol: float = DEFAULT_TOL
) -> tuple[KktCertificate, KktReport]:
    """Certificate and residual report for any candidate vector.

    Works from the candidate alone.  Coordinates within
    ``DEFAULT_CLASSIFY_TOL * min(1, t)`` of a bound are classified as pinned
    there, and gamma is estimated from the others.  Given gamma, a
    coordinate stays pinned only where the multiplier it forces is
    nonnegative: at 0 if ``y + gamma <= 0``, at the cap if
    ``y + gamma >= t``.  Every other coordinate is judged as interior, by
    stationarity, so the dual residual is 0 by construction.  Every residual
    is measured at tolerance tol in the same pass as ``certify_result``.
    """
    x = _candidate(inp, x)
    zero, one = _classify(x, inp.t)
    gamma = _estimate_gamma(inp.y, x, inp.t, zero, one)
    shifted = inp.y + gamma
    zero &= shifted <= 0.0
    one &= shifted >= inp.t
    sizes = np.count_nonzero(zero), np.count_nonzero(one)
    report = _measure(inp, x, gamma, zero, one, tol, check=False, sizes=sizes)
    return KktCertificate(inp.y, gamma, zero, one, inp.t), report


def certify_result(
    inp: ProjectionInput, res: ProjectionResult
) -> tuple[KktCertificate, KktReport]:
    """Certificate for the exact solver's own output, at tolerance ``DEFAULT_TOL``.

    Uses the blocks the solver reports, ``res.at_zero`` and ``res.at_cap``,
    instead of re-classifying coordinates, so interior values that happen to
    sit near a bound are not misread as pinned.  Their sizes must match the
    reported partition: ``a`` zeros and ``D - b`` at the cap.  They must not
    overlap, x must be within ``DEFAULT_CLASSIFY_TOL * min(1, t)`` of 0 and
    of the cap on them and inside ``[0, cap]`` elsewhere; these checks run in the same pass
    as the residuals.
    """
    x = _candidate(inp, res.x)
    zero = np.asarray(res.at_zero, dtype=bool)
    one = np.asarray(res.at_cap, dtype=bool)
    if zero.shape != x.shape or one.shape != x.shape:
        raise InvalidInputError(f"block masks must have the dimension {x.size}")
    p = res.partition
    n_zero, n_cap = np.count_nonzero(zero), np.count_nonzero(one)
    if n_zero != p.a or n_cap != x.size - p.b:
        raise InconsistentCandidateError(
            f"blocks of sizes {n_zero} (zero) and {n_cap} (cap) do not match the "
            f"partition (a={p.a}, b={p.b}) at D={x.size}"
        )
    gamma = float(res.gamma)
    report = _measure(inp, x, gamma, zero, one, DEFAULT_TOL, check=True, sizes=(n_zero, n_cap))
    return KktCertificate(inp.y, gamma, zero, one, inp.t), report

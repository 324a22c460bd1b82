"""First-order optimality certificates for capped-simplex projections.

The projection is the unique minimizer of a strictly convex quadratic over a
nonempty polytope, so a candidate x is optimal exactly when multipliers
(alpha, beta, gamma) exist with

    x - y - alpha + beta - gamma = 0,   alpha, beta >= 0,
    alpha_i * x_i = 0,   beta_i * (t - x_i) = 0,

together with primal feasibility.  Given x and gamma the multipliers are
forced: alpha_i = -(y_i + gamma) on coordinates pinned at 0 and
beta_i = y_i + gamma - t on coordinates pinned at t, zero elsewhere.

Each bound side is a mask, a bound (0 or t) and a sign (+1 or -1), and
``g = (y + gamma - bound) * mask`` is -alpha on the zero side and beta on
the cap side.  Stationarity adds g, complementary slackness is
``|g * (x - bound)|``, and ``sign * g`` is minus the multiplier, so the
dual residual is its largest value.

A certificate is one pass over y, x, gamma and the two masks, in blocks of
2^14 entries.  Per block each side forms g in a small buffer, counts the
entries where its claimed block misfits x and keeps the running extremes
of its residual terms; only ``x.min()``, ``x.max()`` and ``x.sum()`` read
the whole of x.  A side with no coordinate is skipped: its g is +-0 on
every entry and moves no residual.  In a block where x sits exactly on the
side's bound at every coordinate of its mask, the side skips its
complementary-slackness terms and its misfit count: each product is g
times +-0.  Both skips apply while neither ``x - y`` nor ``y + gamma - t``
can overflow; otherwise both sides run every term, and a NaN or an inf
shows in the report as in the whole-array formulas.
``certify_result`` forces the multipliers on the blocks the solver reports,
``certify`` on blocks it reads off the candidate and the pass narrows to
nonnegative multipliers.  No array of the size of y is built: a
``KktCertificate`` keeps what forces the multipliers and builds ``alpha``
and ``beta`` when they are first read.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import InconsistentCandidateError, InvalidInputError
from .projection import _BLOCK, ProjectionInput, ProjectionResult, _degenerate_gamma, _positive, _real, _reals

DEFAULT_TOL = 1e-8

# classification slack: how far a coordinate may sit from a bound and still
# count as pinned there.  Looser than DEFAULT_TOL on purpose, since iterative
# candidates land near bounds without touching them; at cap t it is
# DEFAULT_CLASSIFY_TOL * min(1, t), so that a small cap never lies within it
DEFAULT_CLASSIFY_TOL = 1e-7


def _slack(cap) -> float:
    return DEFAULT_CLASSIFY_TOL * min(1.0, cap)


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
        with np.errstate(invalid="ignore", over="ignore"):
            shifted = y + self.gamma
            return -shifted * zero, (shifted - cap) * one  # inf * 0 is NaN, quietly

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


def _candidate(inp, x):
    x = _reals(x, "x")
    if x.shape != inp.y.shape:
        raise InvalidInputError("x must have the same length as the instance")
    return x


def _mask(m, d: int) -> np.ndarray:
    # a block mask as it is: a boolean vector of length d, never cast
    try:
        if (m := np.asarray(m)).dtype == bool and m.shape == (d,):
            return m
    except (TypeError, ValueError):  # a ragged list
        pass
    raise InvalidInputError(f"block masks must be boolean vectors of the dimension {d}")


# the max of two scalars, NaN when either is NaN, which the builtin drops
# when it comes second; a ufunc call on two scalars costs several times as much
def _max(a, b):
    return a if a >= b or a != a else b


# the largest double: y + gamma, and y + gamma - t, are finite for every
# finite y when they are at y = _BIG and y = -_BIG
_BIG = float(np.finfo(np.float64).max)


def _on_bound(xb, mb, bound, f) -> bool:
    # whether xb equals bound on every entry of the mask mb; f is a boolean
    # buffer of their size
    np.not_equal(xb, bound, out=f)
    return not np.count_nonzero(np.logical_and(f, mb, out=f))


def _measure(inp, x, gamma, zero, one, tol, check, sizes) -> KktReport:
    """The residual report of (x, gamma) on inp from one pass over blocks.

    The sides are ``(zero, 0, +1)`` and ``(one, t, -1)``, of ``sizes``
    coordinates each.  Per block each side adds its terms in the order of
    the whole-array expressions in the ``KktReport`` docstring, so every
    field is bitwise what they give: ``a + g`` is ``a - alpha`` in IEEE
    arithmetic, and ``|g * (x - bound)|`` is ``|alpha * x|`` or
    ``|beta * (t - x)|``.  With ``check``, the masks are checked against x
    in the same pass, and a misfit raises ``InconsistentCandidateError``.
    Without it, each side narrows its mask in place to ``sign * g <= 0``,
    a nonnegative multiplier (``fl(fl(y + gamma) - t) >= 0`` exactly when
    ``fl(y + gamma) >= t``); a side so emptied adds only +-0 terms.
    Reductions call the ufuncs directly: ``a.max()`` costs twice as much on
    short blocks.

    A side with no coordinate has g = +-0 on every entry, which moves no
    residual, so it is skipped.  A side whose block of x equals its bound
    on every coordinate of its mask has ``g * (x - bound) = +-0`` on every
    entry, and no misfit, so its complementary-slackness terms and misfit
    count are skipped for that block (``_on_bound``).  Both hold while
    nothing the pass forms can overflow (``exact``): ``y + gamma``,
    ``y + gamma - t`` and, at x's extremes, ``x - y`` are finite at
    ``y = +-_BIG``, so at every finite y, and then so is ``x - t``; they are
    tested as Python floats, which overflow without a warning.  Otherwise
    both sides run every term, so a NaN or an inf reaches the report as in
    the whole-array formulas, with numpy's warnings off (0 * inf).
    Stationarity's largest term ``|rs - gamma|``, with ``rs = x - y + g``
    summed over the sides, is ``max(max(rs) - gamma, gamma - min(rs))``,
    exact since ``fl(v - gamma)`` is monotone in v; the terms are formed
    only where the per-coordinate rule runs.
    """
    y, t = inp.y, inp.t
    d = y.size
    x_min, x_max = np.minimum.reduce(x), np.maximum.reduce(x)
    edges = gamma + _BIG, gamma - _BIG - t, float(x_min) - _BIG, float(x_max) + _BIG
    exact = all(map(math.isfinite, edges))
    # each side as (index in _MISFITS, which mask, bound, sign)
    sides = ((1, 0, 0.0, 1.0), (2, 1, t, -1.0))
    if exact:
        sides = tuple(compress(sides, sizes))
    # blocks of _BLOCK entries: a handful of buffers this size stay in cache
    # and cost no page faults; each side has two, for g and its slackness
    n = min(d, _BLOCK)
    work, flags = np.empty((2 + 2 * len(sides), n)), np.empty(n, dtype=bool)
    # coordinate i passes when its residual is within tol * max(c, |y_i|);
    # a block whose largest residual is within tol * c needs no finer look
    c = max(t, abs(gamma))
    fast = tol * c
    ctol = _slack(t)
    stat = cs = dual = 0.0
    misfits = np.zeros(len(_MISFITS), dtype=np.intp)
    within = True
    m = 0
    # only a NaN or an inf meets 0 * inf, so the exact path skips the errstate
    with nullcontext() if exact else np.errstate(invalid="ignore", over="ignore"):
        for i in range(0, d, _BLOCK):
            j = min(i + _BLOCK, d)
            if j - i != m:  # the first block, and a partial last one
                m = j - i
                (rs, w, *buffers), f = work[:, :m], flags[:m]
                pairs = list(zip(sides, buffers[::2], buffers[1::2]))
            # the block's views, formed once for both sides; one block is the
            # whole of each array
            xb, yb, *masks = (x, y, zero, one) if m == d else (v[i:j] for v in (x, y, zero, one))
            if check and len(sides) == 2:
                misfits[0] += np.count_nonzero(np.logical_and(*masks, out=f))
            np.subtract(xb, yb, out=rs)
            near = True  # every side's terms within the fast bound
            slackness = []  # the cs terms of the sides that formed them
            for (k, side, bound, sign), g, r in pairs:
                mb = masks[side]
                np.add(yb, gamma, out=g)
                if bound:
                    g -= bound
                if not check:  # keep the coordinates whose multiplier is nonnegative
                    mb &= (np.less_equal if sign > 0 else np.greater_equal)(g, 0.0, out=f)
                g *= mb  # a product: np.where's per-entry branch is slow on masks in input order
                rs += g
                # sign * g is minus the multiplier; its largest value is the dual residual
                top_d = np.maximum.reduce(g) if sign > 0 else -np.minimum.reduce(g)
                dual = _max(dual, top_d)
                near = near and top_d <= fast
                if exact and _on_bound(xb, mb, bound, f):
                    continue  # every cs term is +-0 and nothing misfits
                off = np.subtract(xb, bound, out=r) if bound else xb
                if check:
                    np.abs(off, out=w)
                    np.greater(w, ctol, out=f)
                    misfits[k] += np.count_nonzero(np.logical_and(f, mb, out=f))
                np.multiply(g, off, out=r)
                np.abs(r, out=r)
                top_c = np.maximum.reduce(r)
                cs = _max(cs, top_c)
                near = near and top_c <= fast * t
                slackness.append(r)
            # max |rs - gamma| from the extremes of rs: fl(v - gamma) is monotone in v
            top_s = _max(np.maximum.reduce(rs) - gamma, gamma - np.minimum.reduce(rs))
            stat = _max(stat, top_s)
            if within and not (near and top_s <= fast):
                # w = tol * max(t, |y_i|, |gamma|), the bound of coordinate i; the
                # comparisons are written so that a NaN fails them
                rs -= gamma
                np.abs(rs, out=rs)
                np.abs(yb, out=w)
                np.maximum(w, c, out=w)
                w *= tol
                within = np.count_nonzero(np.less_equal(rs, w, out=f)) == m
                np.multiply(w, t, out=rs)
                for r in slackness:
                    within = within and np.count_nonzero(np.less_equal(r, rs, out=f)) == m
                for (_, _, _, sign), g, _ in pairs:
                    g *= sign
                    within = within and np.count_nonzero(np.less_equal(g, w, out=f)) == m
        total = float(np.add.reduce(x))
    if check:
        for count, message in zip(misfits, _MISFITS):
            if count:
                raise InconsistentCandidateError(message)
        # the blocks sit within the slack of 0 and cap by now, so only an
        # interior entry can leave [-slack, cap + slack]
        if x_min < -ctol or x_max > t + ctol:
            raise InconsistentCandidateError("candidate leaves [0, cap] in its claimed interior")
    lower = float(_max(0.0, -x_min))
    upper = float(_max(0.0, x_max - t))
    ssum = abs(total - inp.s)
    passed = (
        within and lower <= tol * t and upper <= tol * t and ssum <= tol * max(t, inp.s)
    )
    return KktReport(
        stationarity_residual=float(stat),
        primal_lower=lower,
        primal_upper=upper,
        sum_residual=ssum,
        dual_residual=float(dual),
        cs_residual=float(cs),
        passed=bool(passed),
    )


def _estimate_gamma(y, x, cap, zero, one):
    # stationarity on interior coordinates reads x = y + gamma; average the
    # per-coordinate estimates (sum / count is np.mean without its overhead),
    # or take the all-pinned candidate's shift as the solver does.  x - y of
    # a finite candidate may overflow: it reads inf, which the pass reports
    with np.errstate(over="ignore"):
        shifts = (x - y)[~(zero | one)]
        if shifts.size:
            return float(shifts.sum() / shifts.size)
    return _degenerate_gamma(y[zero], y[one], cap)


def certify(
    inp: ProjectionInput, x, *, tol: float = DEFAULT_TOL
) -> tuple[KktCertificate, KktReport]:
    """Certificate and residual report for any candidate vector.

    Works from the candidate alone.  Coordinates within
    ``DEFAULT_CLASSIFY_TOL * min(1, t)`` of a bound are classified as pinned
    there, and gamma is estimated from the others.  Given gamma, a
    coordinate stays pinned only where the multiplier it forces is
    nonnegative: at 0 if ``y + gamma <= 0``, at the cap if
    ``y + gamma >= t``; the residual pass applies this as it forms the
    multipliers.  Every other coordinate is judged as interior, by
    stationarity, so the dual residual is 0 by construction.  Every residual
    is measured at tolerance tol in the same pass as ``certify_result``.
    """
    x, tol = _candidate(inp, x), _positive(tol, "tol")
    slack = _slack(inp.t)  # t - slack > slack for every cap: the masks never overlap
    zero, one = x <= slack, x >= inp.t - slack
    gamma = _estimate_gamma(inp.y, x, inp.t, zero, one)
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
    as the residuals.  The result comes from the caller, so its fields pass
    the input rules first: each mask must be a boolean vector of length D,
    never cast, and ``gamma`` a real number, where a NaN or an inf is
    measured and reported, not refused.
    """
    x = _candidate(inp, res.x)
    zero, one = _mask(res.at_zero, x.size), _mask(res.at_cap, x.size)
    p = res.partition
    n_zero, n_cap = np.count_nonzero(zero), np.count_nonzero(one)
    if n_zero != p.a or n_cap != x.size - p.b:
        raise InconsistentCandidateError(
            f"blocks of sizes {n_zero} (zero) and {n_cap} (cap) do not match the "
            f"partition (a={p.a}, b={p.b}) at D={x.size}"
        )
    gamma = _real(res.gamma, "gamma", finite=False)  # a NaN or an inf is reported, not refused
    report = _measure(inp, x, gamma, zero, one, DEFAULT_TOL, check=True, sizes=(n_zero, n_cap))
    return KktCertificate(inp.y, gamma, zero, one, inp.t), report

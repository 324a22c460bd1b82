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
buffers, checks the claimed blocks against x and keeps the running extremes
of every residual; only ``x.min()``, ``x.max()`` and ``x.sum()`` read the
whole of x.  No array of the size of y is built: the certificate keeps what
forces the multipliers and builds ``alpha`` and ``beta`` when they are first
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InconsistentCandidateError, InvalidInputError
from .projection import ProjectionInput, ProjectionResult

DEFAULT_TOL = 1e-8

# classification slack: how far a coordinate may sit from a bound and still
# count as pinned there; looser than DEFAULT_TOL on purpose, since iterative
# candidates land near bounds without touching them
DEFAULT_CLASSIFY_TOL = 1e-7

# entries per block of the certificate pass, as in projection._add_masked:
# a handful of buffers this size stay in cache and cost no page faults
_BLOCK = 1 << 14


def _force(y, gamma, zero, one, cap, alpha, beta) -> None:
    # alpha = -(y + gamma) on the zero block and beta = y + gamma - cap on the
    # cap block, 0 elsewhere, written into alpha and beta.  Products with the
    # masks rather than np.where, whose per-entry branch is slow on masks in
    # input order.
    np.add(y, gamma, out=beta)
    np.negative(beta, out=alpha)
    alpha *= zero
    beta -= cap
    beta *= one


class KktCertificate:
    """Multipliers for the bounds (alpha, beta) and the sum constraint (gamma).

    Built from arrays, it holds them.  The certificates that
    ``recover_multipliers``, ``certify`` and ``certify_result`` return hold
    what forces the multipliers instead (y, gamma, the block masks and the
    cap) and build ``alpha`` and ``beta`` when either is first read.
    """

    def __init__(self, alpha, beta, gamma):
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    @classmethod
    def _forced(cls, y, gamma, zero, one, cap) -> KktCertificate:
        cert = cls.__new__(cls)
        cert.gamma = float(gamma)
        cert._forced_by = (y, zero, one, cap)
        return cert

    @cached_property
    def _multipliers(self):
        y, zero, one, cap = self._forced_by
        alpha, beta = np.empty_like(y), np.empty_like(y)
        _force(y, self.gamma, zero, one, cap, alpha, beta)
        return alpha, beta

    @cached_property
    def alpha(self) -> np.ndarray:
        return self._multipliers[0]

    @cached_property
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
        return max(
            self.stationarity_residual,
            self.primal_lower,
            self.primal_upper,
            self.sum_residual,
            self.dual_residual,
            self.cs_residual,
        )


def _check_blocks(x, zero, one, cap) -> None:
    # raises on the first of the four ways the claimed blocks can misfit x
    ctol = DEFAULT_CLASSIFY_TOL
    if (zero & one).any():
        raise InconsistentCandidateError("a coordinate is claimed by both pinned blocks")
    if (np.abs(x[zero]) > ctol).any():
        raise InconsistentCandidateError("candidate has nonzero entries in its claimed zero block")
    if (np.abs(x[one] - cap) > ctol).any():
        raise InconsistentCandidateError("candidate is off the cap in its claimed pinned block")
    # the blocks sit within ctol of 0 and cap by now, so only an interior
    # entry can leave [-ctol, cap + ctol]
    if x.size and (x.min() < -ctol or x.max() > cap + ctol):
        raise InconsistentCandidateError("candidate leaves [0, cap] in its claimed interior")


def _classify(x, cap):
    ctol = DEFAULT_CLASSIFY_TOL
    zero = x <= ctol
    return zero, (x >= cap - ctol) & ~zero


def _candidate(inp, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != inp.y.shape:
        raise InvalidInputError("x must have the same length as the instance")
    return x


def _masks(blocks, shape):
    zero, one = (np.asarray(m, dtype=bool) for m in blocks)
    if zero.shape != shape or one.shape != shape:
        raise InvalidInputError(f"block masks must have the dimension {shape[0]}")
    return zero, one


def _count_misfits(x, zero, one, cap, work, flag, loose) -> tuple[int, int]:
    # (both, loose): how many entries both blocks claim, and how many sit more
    # than the classification slack from the bound they are claimed at.  On
    # the zero block only x > slack is counted: x < -slack fails the range
    # check on x.min() as well, and _check_blocks then names the failure.
    ctol = DEFAULT_CLASSIFY_TOL
    np.greater(x, ctol, out=loose)
    loose &= zero
    np.subtract(x, cap, out=work)
    np.abs(work, out=work)
    np.greater(work, ctol, out=flag)
    flag &= one
    loose |= flag
    return np.count_nonzero(np.logical_and(zero, one, out=flag)), np.count_nonzero(loose)


def _measure(inp, x, gamma, tol, masks=None, multipliers=None, check=False) -> KktReport:
    """The residual report of (x, gamma) on inp from one pass over blocks.

    The multipliers are forced from ``masks`` into per-block buffers, or read
    from ``multipliers``, a pair of arrays.  With ``check``, the masks are
    checked against x in the same pass, and a misfit raises
    ``InconsistentCandidateError``.  Reductions call the ufuncs directly:
    ``a.max()`` costs twice as much on short blocks.
    """
    y, t = inp.y, inp.t
    d = y.size
    n = min(d, _BLOCK)
    stat_r, cs_r, work = np.empty(n), np.empty(n), np.empty(n)
    flag = np.empty(n, dtype=bool)
    if multipliers is None:
        alpha_buf, beta_buf = np.empty(n), np.empty(n)
        loose_buf = np.empty(n, dtype=bool)
    # coordinate i passes when its residual is within tol * max(c, |y_i|);
    # a block whose largest residual is within tol * c needs no finer look
    c = max(t, abs(gamma))
    fast = tol * c
    stat = cs = 0.0
    alpha_min = beta_min = np.inf
    n_both = n_loose = 0
    within = True
    for i in range(0, d, _BLOCK):
        j = min(i + _BLOCK, d)
        m = j - i
        xb, yb = x[i:j], y[i:j]
        rs, rc, w, f = stat_r[:m], cs_r[:m], work[:m], flag[:m]
        if multipliers is None:
            ab, bb = alpha_buf[:m], beta_buf[:m]
            zb, cb = masks[0][i:j], masks[1][i:j]
            _force(yb, gamma, zb, cb, t, ab, bb)
            if check:
                k_both, k_loose = _count_misfits(xb, zb, cb, t, w, f, loose_buf[:m])
                n_both += k_both
                n_loose += k_loose
        else:
            ab, bb = multipliers[0][i:j], multipliers[1][i:j]
        # the order of the whole-array expressions in the KktReport docstring,
        # so every field is bitwise what they give
        np.subtract(xb, yb, out=rs)
        rs -= ab
        rs += bb
        rs -= gamma
        np.abs(rs, out=rs)
        np.multiply(ab, xb, out=rc)
        np.abs(rc, out=rc)
        np.subtract(t, xb, out=w)
        w *= bb
        np.abs(w, out=w)
        np.maximum(rc, w, out=rc)
        top_s, top_c = np.maximum.reduce(rs), np.maximum.reduce(rc)
        a_min, b_min = np.minimum.reduce(ab), np.minimum.reduce(bb)
        stat, cs = max(stat, top_s), max(cs, top_c)
        alpha_min, beta_min = min(alpha_min, a_min), min(beta_min, b_min)
        if within and not (
            top_s <= fast and top_c <= fast * t and -a_min <= fast and -b_min <= fast
        ):
            # w = tol * max(t, |y_i|, |gamma|), the bound of coordinate i; the
            # comparisons are written so that a NaN fails them
            np.abs(yb, out=w)
            np.maximum(w, c, out=w)
            w *= tol
            within = np.count_nonzero(np.less_equal(rs, w, out=f)) == m
            np.multiply(w, t, out=rs)
            within = within and np.count_nonzero(np.less_equal(rc, rs, out=f)) == m
            np.negative(w, out=w)
            within = within and np.count_nonzero(np.greater_equal(ab, w, out=f)) == m
            within = within and np.count_nonzero(np.greater_equal(bb, w, out=f)) == m
    x_min, x_max = np.minimum.reduce(x), np.maximum.reduce(x)
    ctol = DEFAULT_CLASSIFY_TOL
    if check and (n_both or n_loose or x_min < -ctol or x_max > t + ctol):
        # a check fails: the whole-array checks name the first that does
        _check_blocks(x, *masks, t)
    lower = max(0.0, float(-x_min))
    upper = max(0.0, float(x_max - t))
    ssum = abs(float(np.add.reduce(x)) - inp.s)
    dual = max(0.0, float(-alpha_min), float(-beta_min))
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


def recover_multipliers(
    y,
    x,
    gamma: float,
    blocks: tuple | None = None,
    *,
    cap: float = 1.0,
) -> KktCertificate:
    """Bound multipliers forced by stationarity for a candidate (x, gamma).

    ``blocks`` is a pair ``(at_zero, at_cap)`` of boolean masks in the order
    of y: the coordinates claimed pinned at 0 and at cap.  They are taken as
    given after a consistency check; without them, coordinates within
    ``DEFAULT_CLASSIFY_TOL`` of a bound are classified as pinned there.
    Entries pinned at 0 get alpha_i = -(y_i + gamma); entries pinned at cap
    get beta_i = y_i + gamma - cap.  The recovered values may be negative, which
    the residual check will expose; recovery itself never hides a violation.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if y.shape != x.shape or y.ndim != 1:
        raise InvalidInputError("y and x must be one-dimensional vectors of equal length")
    if blocks is None:
        zero, one = _classify(x, cap)
    else:
        zero, one = _masks(blocks, y.shape)
        _check_blocks(x, zero, one, cap)
    return KktCertificate._forced(y, gamma, zero, one, cap)


def kkt_residuals(
    inp: ProjectionInput, x, cert: KktCertificate, tol: float = DEFAULT_TOL
) -> KktReport:
    """Residuals of the full first-order system for (x, cert) on inp."""
    x = _candidate(inp, x)
    if cert.alpha.shape != x.shape or cert.beta.shape != x.shape:
        raise InvalidInputError("certificate multipliers must match the dimension")
    return _measure(inp, x, cert.gamma, tol, multipliers=(cert.alpha, cert.beta))


def _estimate_gamma(y, x, cap, zero, one):
    # stationarity on interior coordinates reads x = y + gamma; average the
    # per-coordinate estimates (sum / count is np.mean without its overhead),
    # or fall back to the pinned groups' interval
    ctol = DEFAULT_CLASSIFY_TOL
    shifts = (x - y)[~(zero | one)]
    if shifts.size:
        return float(shifts.sum() / shifts.size)
    ones = x >= cap - ctol
    zeros = x <= ctol
    lower = cap - float(y[ones].min()) if ones.any() else -np.inf
    upper = -float(y[zeros].max()) if zeros.any() else np.inf
    if np.isfinite(lower) and np.isfinite(upper):
        return 0.5 * (lower + upper)
    if np.isfinite(lower):
        return lower
    if np.isfinite(upper):
        return upper
    return 0.0


def certify(
    inp: ProjectionInput,
    x,
    gamma: float | None = None,
    *,
    tol: float = DEFAULT_TOL,
) -> tuple[KktCertificate, KktReport]:
    """Certificate and residual report for any candidate vector.

    Works from the candidate alone: coordinates are classified against the
    bounds with slack ``DEFAULT_CLASSIFY_TOL``, gamma is estimated from the
    interior when not supplied, and every residual is measured at tolerance
    tol in the same pass as ``certify_result``.
    """
    x = _candidate(inp, x)
    masks = _classify(x, inp.t)
    gamma = float(_estimate_gamma(inp.y, x, inp.t, *masks) if gamma is None else gamma)
    report = _measure(inp, x, gamma, tol, masks)
    return KktCertificate._forced(inp.y, gamma, *masks, inp.t), report


def certify_result(
    inp: ProjectionInput, res: ProjectionResult, tol: float = DEFAULT_TOL
) -> tuple[KktCertificate, KktReport]:
    """Certificate for the exact solver's own output.

    Uses the blocks the solver reports, ``res.at_zero`` and ``res.at_cap``,
    instead of re-classifying coordinates, so interior values that happen to
    sit near a bound are not misread as pinned.  Their sizes must match the
    reported partition: ``a`` zeros and ``D - b`` at the cap.  They must not
    overlap, x must be within ``DEFAULT_CLASSIFY_TOL`` of 0 and of the cap on
    them and inside ``[0, cap]`` elsewhere; these checks run in the same pass
    as the residuals.
    """
    p = res.partition
    n_zero = np.count_nonzero(res.at_zero)
    n_cap = np.count_nonzero(res.at_cap)
    if n_zero != p.a or n_cap != inp.dim - p.b:
        raise InconsistentCandidateError(
            f"blocks of sizes {n_zero} (zero) and {n_cap} (cap) do not match the "
            f"partition (a={p.a}, b={p.b}) at D={inp.dim}"
        )
    x = _candidate(inp, res.x)
    masks = _masks((res.at_zero, res.at_cap), inp.y.shape)
    gamma = float(res.gamma)
    report = _measure(inp, x, gamma, tol, masks, check=True)
    return KktCertificate._forced(inp.y, gamma, *masks, inp.t), report

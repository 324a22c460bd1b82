"""First-order optimality certificates for capped-simplex projections.

The projection is the unique minimizer of a strictly convex quadratic over a
nonempty polytope, so a candidate x is optimal exactly when multipliers
(alpha, beta, gamma) exist with

    x - y - alpha + beta - gamma = 0,   alpha, beta >= 0,
    alpha_i * x_i = 0,   beta_i * (t - x_i) = 0,

together with primal feasibility.  Given x and gamma the multipliers are
forced: alpha_i = -(y_i + gamma) on coordinates pinned at 0 and
beta_i = y_i + gamma - t on coordinates pinned at t, zero elsewhere.  This
module recovers them and measures every residual of the system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentCandidateError, InvalidInputError
from .projection import ProjectionInput, ProjectionResult

DEFAULT_TOL = 1e-8

# classification slack: how far a coordinate may sit from a bound and still
# count as pinned there; looser than DEFAULT_TOL on purpose, since iterative
# candidates land near bounds without touching them
DEFAULT_CLASSIFY_TOL = 1e-7


@dataclass
class KktCertificate:
    """Multipliers for the bounds (alpha, beta) and the sum constraint (gamma)."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: float


@dataclass
class KktReport:
    """Max-norm residual of each optimality condition.

    stationarity_residual : max |x - y - alpha + beta - gamma|
    primal_lower          : max(0, -min x)
    primal_upper          : max(0, max x - t)
    sum_residual          : |sum(x) - s|
    dual_residual         : max(0, -min alpha, -min beta)
    cs_residual           : max |alpha * x| and |beta * (t - x)|
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
    ctol = DEFAULT_CLASSIFY_TOL
    if blocks is not None:
        zero, one = (np.asarray(m, dtype=bool) for m in blocks)
        if zero.shape != y.shape or one.shape != y.shape:
            raise InvalidInputError(f"block masks must have the dimension {y.size}")
        if (zero & one).any():
            raise InconsistentCandidateError("a coordinate is claimed by both pinned blocks")
        if (np.abs(x[zero]) > ctol).any():
            raise InconsistentCandidateError(
                "candidate has nonzero entries in its claimed zero block"
            )
        if (np.abs(x[one] - cap) > ctol).any():
            raise InconsistentCandidateError(
                "candidate is off the cap in its claimed pinned block"
            )
        # the blocks sit within ctol of 0 and cap by now, so only an interior
        # entry can leave [-ctol, cap + ctol]
        if x.size and (x.min() < -ctol or x.max() > cap + ctol):
            raise InconsistentCandidateError(
                "candidate leaves [0, cap] in its claimed interior"
            )
    else:
        zero = x <= ctol
        one = (x >= cap - ctol) & ~zero
    # products with the masks rather than np.where, whose per-entry branch
    # is slow on masks in input order; in place, since each fresh array of
    # this size costs page faults
    shifted = y + gamma
    beta = shifted - cap
    beta *= one
    alpha = np.negative(shifted, out=shifted)
    alpha *= zero
    return KktCertificate(alpha=alpha, beta=beta, gamma=float(gamma))


def kkt_residuals(
    inp: ProjectionInput, x, cert: KktCertificate, tol: float = DEFAULT_TOL
) -> KktReport:
    """Residuals of the full first-order system for (x, cert) on inp."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != inp.y.shape:
        raise InvalidInputError("x must have the same length as the instance")
    if cert.alpha.shape != x.shape or cert.beta.shape != x.shape:
        raise InvalidInputError("certificate multipliers must match the dimension")
    t = inp.t
    stat = float(np.max(np.abs(x - inp.y - cert.alpha + cert.beta - cert.gamma)))
    lower = max(0.0, float(-x.min()))
    upper = max(0.0, float(x.max() - t))
    ssum = abs(float(x.sum()) - inp.s)
    dual = max(0.0, float(-cert.alpha.min()), float(-cert.beta.min()))
    cs = max(float(np.max(np.abs(cert.alpha * x))), float(np.max(np.abs(cert.beta * (t - x)))))
    passed = max(stat, lower, upper, ssum, dual, cs) <= tol
    return KktReport(
        stationarity_residual=stat,
        primal_lower=lower,
        primal_upper=upper,
        sum_residual=ssum,
        dual_residual=dual,
        cs_residual=cs,
        passed=passed,
    )


def feasibility_check(x, s: float, tol: float, cap: float = 1.0) -> bool:
    """True iff x lies in the box [0 - tol, cap + tol] and sums to s within tol."""
    x = np.asarray(x, dtype=np.float64)
    if x.min() < -tol or x.max() > cap + tol:
        return False
    return abs(float(x.sum()) - s) <= tol


def _estimate_gamma(y, x, cap):
    # stationarity on interior coordinates reads x = y + gamma; average the
    # per-coordinate estimates, or fall back to the pinned groups' interval
    ctol = DEFAULT_CLASSIFY_TOL
    interior = (x > ctol) & (x < cap - ctol)
    if interior.any():
        return float(np.mean(x[interior] - y[interior]))
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
    tol.
    """
    x = np.asarray(x, dtype=np.float64)
    if gamma is None:
        gamma = _estimate_gamma(inp.y, x, inp.t)
    cert = recover_multipliers(inp.y, x, gamma, cap=inp.t)
    report = kkt_residuals(inp, x, cert, tol)
    return cert, report


def certify_result(
    inp: ProjectionInput, res: ProjectionResult, tol: float = DEFAULT_TOL
) -> tuple[KktCertificate, KktReport]:
    """Certificate for the exact solver's own output.

    Uses the blocks the solver reports, ``res.at_zero`` and ``res.at_cap``,
    instead of re-classifying coordinates, so interior values that happen to
    sit near a bound are not misread as pinned.  Their sizes must match the
    reported partition: ``a`` zeros and ``D - b`` at the cap.
    """
    p = res.partition
    n_zero = np.count_nonzero(res.at_zero)
    n_cap = np.count_nonzero(res.at_cap)
    if n_zero != p.a or n_cap != inp.dim - p.b:
        raise InconsistentCandidateError(
            f"blocks of sizes {n_zero} (zero) and {n_cap} (cap) do not match the "
            f"partition (a={p.a}, b={p.b}) at D={inp.dim}"
        )
    cert = recover_multipliers(inp.y, res.x, res.gamma, (res.at_zero, res.at_cap), cap=inp.t)
    report = kkt_residuals(inp, res.x, cert, tol)
    return cert, report

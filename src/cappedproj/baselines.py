"""Iterative projection methods used as accuracy and timing baselines.

Both methods split the capped simplex into two easy sets: the plain simplex
{sum(x) = s, x >= 0} and the box {x <= cap}.  Dykstra's scheme alternates
exact projections with correction terms and converges to the projection onto
the intersection; a plain alternating scheme would not.  The operator
splitting method (ADMM) carries a scaled dual vector, with the penalty fixed
at 1; it converges for any positive penalty on this pair of sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .projection import ProjectionInput, _positive, _real, _vector, _whole


@dataclass
class SolverConfig:
    """Stopping tolerance and iteration budget."""

    tol: float = 1e-8
    max_iters: int = 100_000

    def __post_init__(self):
        self.tol = _positive(self.tol, "tol")
        self.max_iters = _whole(self.max_iters, "max_iters", 1)


@dataclass
class IterativeResult:
    """Final iterate plus how the loop ended."""

    x: np.ndarray
    iterations: int
    converged: bool


def project_simplex(y, s: float) -> np.ndarray:
    """Euclidean projection onto {x : sum(x) = s, x >= 0}.

    Sort descending, find the largest k whose threshold keeps the top k
    coordinates positive, and shift those by it; the rest clip to zero.
    """
    y, s = _vector(y), _real(s, "sum target")
    if s < 0.0:
        raise InvalidInputError(f"sum target must be nonnegative, got {s}")
    if s == 0.0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    cssv = np.cumsum(u) - s
    ks = np.arange(1, y.size + 1)
    k = int(np.count_nonzero(u - cssv / ks > 0.0))
    tau = cssv[k - 1] / k
    return np.maximum(y - tau, 0.0)


def dykstra_project(inp: ProjectionInput, config: SolverConfig | None = None) -> IterativeResult:
    """Dykstra's alternating projections onto the simplex and the cap box.

    Each cycle projects onto the simplex and then the box, with one
    correction term per set added before and subtracted after its
    projection.  Stops when the cycle-to-cycle change and the simplex
    infeasibility of the iterate both drop below config.tol.
    """
    cfg = config if config is not None else SolverConfig()
    y, s, cap = inp.y, inp.s, inp.t
    x = y.copy()
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        w = x + p
        u = project_simplex(w, s)
        p = w - u
        w = u + q
        v = np.minimum(w, cap)  # the projection onto the box {x <= cap}
        q = w - v
        change = float(np.max(np.abs(v - x)))
        x = v
        # v already satisfies the cap; only the simplex side can be violated
        gap = max(abs(float(v.sum()) - s), max(0.0, float(-v.min())))
        if change <= cfg.tol and gap <= cfg.tol:
            converged = True
            break
    return IterativeResult(x=x, iterations=iterations, converged=converged)


def admm_project(inp: ProjectionInput, config: SolverConfig | None = None) -> IterativeResult:
    """Operator splitting between the box and the sum constraint.

    x-update: proximal step clipped to [0, cap]; z-update: mean shift onto
    the hyperplane sum(z) = s; scaled dual u accumulates x - z.  Started at
    z = y, u = 0 so a feasible y is a fixed point.  Stops when the primal gap
    max|x - z| and the z-step change both drop below config.tol; the reported
    vector is x, which satisfies the box exactly.
    """
    cfg = config if config is not None else SolverConfig()
    y, s, cap = inp.y, inp.s, inp.t
    z = y.copy()
    u = np.zeros_like(y)
    x = y.copy()
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        x = np.clip((y + (z - u)) / 2.0, 0.0, cap)
        w = x + u
        z_new = w + (s - float(w.sum())) / y.size
        u += x - z_new
        primal = float(np.max(np.abs(x - z_new)))
        step = float(np.max(np.abs(z_new - z)))
        z = z_new
        if max(primal, step) <= cfg.tol:
            converged = True
            break
    return IterativeResult(x=x, iterations=iterations, converged=converged)

"""Brute-force reference solver and reproducible random instances.

The reference solver shares no solving code with the fast path, only the
input checks of ``ProjectionInput``.  It solves the unit cap alone, so its
tolerance ``default_eps`` is ``1e-9 * max(1, max|y|)``, the solver's eps at
``t = 1``.  It enumerates all 3^D ways to pin each coordinate at 0, leave it
interior, or pin it at 1, solves the shift gamma from the sum constraint for
each labeling, and keeps the one whose optimality margins all hold.  Exactly
one labeling passes (up to ties within tolerance), and its assembled vector
is the projection.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .projection import ProjectionInput, _whole

ORACLE_MAX_DIM = 14

GENERATOR_ID = "philox4x64-10"

_CHUNK = 1 << 18


def default_eps(y) -> float:
    """Comparison tolerance at the unit cap, scaled to the data: ``1e-9 * max(1, max|y|)``."""
    return 1e-9 * max(1.0, float(np.abs(y).max()))


def random_instance(D: int, seed: int) -> ProjectionInput:
    """Instance with y uniform on [-0.5, 0.5)^D and integer s in {0, ..., D}.

    Uses a counter-based generator keyed only by the seed, so the same
    (D, seed) pair yields the same instance on any platform.
    """
    D, seed = _whole(D, "dimension", 1), _whole(seed, "seed", 0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    y = rng.random(D) - 0.5
    # floor(u*D + 0.5) rounds half up, keeping s integral and within [0, D]
    s = float(np.floor(rng.random() * D + 0.5))
    return ProjectionInput(y=y, s=s)


def _labels_chunk(lo: int, hi: int, d: int) -> np.ndarray:
    # base-3 digits of the codes lo..hi-1, least significant first
    codes = np.arange(lo, hi, dtype=np.int32)
    out = np.empty((hi - lo, d), dtype=np.int8)
    for j in range(d):
        codes, out[:, j] = np.divmod(codes, 3)
    return out


def enumerate_oracle(y, s: float) -> np.ndarray:
    """Projection of y onto {x : sum(x) = s, 0 <= x <= 1} by full enumeration.

    Exponential in D and refused above ORACLE_MAX_DIM; intended as an
    independent reference for testing the fast solver, not for use at scale.
    Labels each coordinate 0, 1 or 2 for pinned at zero, interior or pinned
    at one, and returns the vector of the labeling with the smallest margin
    violation over all 3^D candidates.
    """
    inp = ProjectionInput(y=y, s=s)
    y, s, d = inp.y, inp.s, inp.y.size
    if d > ORACLE_MAX_DIM:
        raise CapacityError(
            f"enumeration needs 3^D labelings; D={d} exceeds the limit {ORACLE_MAX_DIM}"
        )
    total = 3**d
    best_viol = np.inf
    best_labels = None
    best_gamma = 0.0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        labels = _labels_chunk(lo, hi, d)
        zero = labels == 0
        interior = labels == 1
        one = labels == 2
        n_one = one.sum(axis=1)
        n_int = interior.sum(axis=1)
        sum_int = np.where(interior, y, 0.0).sum(axis=1)
        gamma = (s - n_one - sum_int) / np.maximum(n_int, 1)

        zmax = np.where(zero, y, -np.inf).max(axis=1)
        omin = np.where(one, y, np.inf).min(axis=1)
        imin = np.where(interior, y, np.inf).min(axis=1)
        imax = np.where(interior, y, -np.inf).max(axis=1)

        # optimality margins (<= 0 when satisfied); empty groups give -inf
        viol = np.maximum(zmax + gamma, -(imin + gamma))
        np.maximum(viol, imax + gamma - 1.0, out=viol)
        np.maximum(viol, 1.0 - (omin + gamma), out=viol)
        np.maximum(viol, 0.0, out=viol)

        # with nothing interior the sum is fixed, so it must match exactly,
        # and the pinned groups must admit a common multiplier
        pair = np.maximum(0.5 * (1.0 - (omin - zmax)), 0.0)
        sum_gap = np.abs(n_one - s)
        v_empty = np.maximum(np.where(sum_gap <= 1e-12, 0.0, np.inf), pair)
        viol = np.where(n_int > 0, viol, v_empty)

        j = int(np.argmin(viol))
        if viol[j] < best_viol:
            best_viol = float(viol[j])
            best_labels = labels[j].copy()
            best_gamma = float(gamma[j])

    if best_labels is None or best_viol > default_eps(y):
        raise RuntimeError(
            f"enumeration found no labeling within tolerance (best margin {best_viol:.3e})"
        )
    # an all-pinned winner has no interior, so its gamma is never read
    return np.where(best_labels == 2, 1.0, np.where(best_labels == 1, y + best_gamma, 0.0))

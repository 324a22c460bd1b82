"""The solver against the exact projection of ``exact.py``, past the oracle's D <= 14.

The reference solves in rational arithmetic, so its ``gamma*`` and ``x*``
carry no rounding.  On each input the solver must pin every coordinate
that ``gamma*`` puts strictly past a bound, stay within
``1e-9 * max(t, max|y|)`` of ``x*``, and raise only where README's Domain
bullet allows it: an interior coordinate of ``x*`` with
``|y_i| >= 2^53 * t``, which has no exact double form ``y_i + gamma``.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from cappedproj import ProjectionInput, project_capped_box
from cappedproj.errors import InconsistentCandidateError
from exact import exact_projection


def _y(family, rng, d):
    if family == "uniform":
        return rng.uniform(-1.0, 1.0, d)
    if family == "grid":  # multiples of 1/8: ties, and sums that round nowhere
        return rng.integers(-16, 17, d) / 8.0
    if family == "cauchy":
        return rng.standard_cauchy(d)
    if family == "magnitudes":  # spread geometrically over 1e-6..1e6, both signs
        return rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-6.0, 6.0, d)
    if family == "outlier":  # one of +-1e15 among unit values
        y = rng.uniform(-1.0, 1.0, d)
        y[rng.integers(d)] = rng.choice([-1e15, 1e15])
        return y
    return float(family.split()[1]) + rng.uniform(-1.0, 1.0, d)  # "offset 1e6"


def _check(y, s, t):
    # the three claims against the reference
    gamma, exact = exact_projection(y, s, t)
    T = Fraction(t)
    assert sum(exact) == min(Fraction(s), T * y.size)  # the reference solves the sum
    try:
        res = project_capped_box(ProjectionInput(y, s, t))
    except InconsistentCandidateError:
        assert any(0 < v < T and abs(w) >= 2.0**53 * t for v, w in zip(exact, y)), (s, t)
        return
    shifted = [Fraction(w) + gamma for w in y]
    zero = np.array([v < 0 for v in shifted])
    cap = np.array([v > T for v in shifted])
    assert res.at_zero[zero].all() and (res.x[zero] == 0.0).all(), (s, t)
    assert res.at_cap[cap].all() and (res.x[cap] == t).all(), (s, t)
    err = max(abs(Fraction(v) - w) for v, w in zip(res.x, exact))
    ratio = float(err / Fraction(max(t, float(np.abs(y).max()))))
    assert ratio <= 1e-9, (s, t, ratio)


_FAMILIES = ["uniform", "grid", "cauchy", "magnitudes", "outlier", "offset 1e6", "offset 1e9"]


@pytest.mark.parametrize("family", _FAMILIES)
def test_the_solver_matches_the_exact_projection(family):
    # caps from 1e-9 to 7, D up to 200, and targets at 0, the smallest
    # double, a multiple of t, t*D (which can exceed the exact T*D: then
    # every coordinate is at the cap) and between
    rng = np.random.default_rng(_FAMILIES.index(family))
    for t, d in itertools.product((1e-9, 0.3, 7.0), (1, 7, 200)):
        y = _y(family, rng, d)
        for s in (0.0, 5e-324, t * (d // 3), t * d, 0.41 * t * d):
            _check(y, s, t)


@pytest.mark.parametrize("family", ["uniform", "grid"])
def test_the_windowed_solver_matches_the_exact_projection(family):
    # above D = 2^14 the solver sorts only windows of y
    d = 2**14 + 1
    _check(_y(family, np.random.default_rng(11), d), 0.37 * d, 1.0)


_LARGE = [(f, 10_000) for f in _FAMILIES] + [(f, 2**14 + 1) for f in _FAMILIES[2:]]


@pytest.mark.parametrize("family, d", _LARGE, ids=[f"{f}-{d}" for f, d in _LARGE])
def test_the_solver_matches_the_exact_projection_at_large_d(family, d):
    # every family at D = 10^4, and on the windowed path (D > 2^14) the five
    # that the test above leaves out, at a cap that rounds
    t = 0.3
    _check(_y(family, np.random.default_rng([_FAMILIES.index(family), d]), d), 0.37 * t * d, t)

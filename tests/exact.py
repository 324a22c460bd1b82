"""The exact projection onto ``{x : sum(x) = s, 0 <= x <= t}``, in rational arithmetic.

A test helper, not library code.  Every double is a rational, so reading y,
s and t as ``fractions.Fraction`` gives the true projection of the doubles
the solver was given, with no rounding anywhere:

- ``F(gamma) = sum(clip(Y + gamma, 0, T))`` is nondecreasing and piecewise
  linear, with kinks at ``-Y_k`` and ``T - Y_k``.  On sorted Y, from prefix
  sums, each value of F is exact in ``O(log D)``.
- ``F(-Y_k)`` and ``F(T - Y_k)`` are each monotone in k, so a bisection per
  family finds the last kink with ``F <= S`` and the last with ``F < S``;
  on the linear piece to the right of each, ``F(gamma) = S`` is solved
  exactly.  The two solutions are the ends of the interval of shifts that
  solve the sum (one point unless F is flat at level S), and ``gamma*`` is
  its midpoint.
- ``S = 0`` puts every coordinate at 0, and ``S >= T*D`` every one at the
  cap: ``ProjectionInput`` checks s against the rounded ``fl(t*D)``, which
  can exceed the exact ``T*D``.  Their ``gamma*`` lies beyond the kinks by T.

``x* = clip(Y + gamma*, 0, T)`` is unique; ``gamma*`` is unique where the
interior is not empty.  The midpoint is the one shift that puts each
coordinate pinned by every solving shift strictly past its bound, so
``Y_i + gamma* < 0`` (or ``> T``) holds for exactly those coordinates.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

import numpy as np


def exact_projection(y, s: float, t: float):
    """``(gamma*, x*)`` as Fractions: the shift and the exact projection, x* in y's order."""
    ys = [Fraction(v) for v in np.sort(np.asarray(y, dtype=np.float64))]
    S, T, d = Fraction(s), Fraction(t), len(ys)
    prefix = [Fraction(0)]
    for v in ys:
        prefix.append(prefix[-1] + v)

    def f(gamma):
        # ys[lo:hi] is the interior, strictly between 0 and T
        lo = bisect.bisect_right(ys, -gamma)
        hi = bisect.bisect_left(ys, T - gamma)
        return T * (d - hi) + prefix[hi] - prefix[lo] + (hi - lo) * gamma

    def solve_right_of_last(below):
        # the shift solving F = S on the piece right of the last kink k with
        # below(F(k)), for 0 < S < T*D: F(-Y_max) = 0 qualifies
        ends = []
        for kink in (lambda k: -ys[k], lambda k: T - ys[k]):
            # kink(k) decreases in k, so below(F(kink(k))) is False, ..., True
            k = bisect.bisect_left(range(d), True, key=lambda k: below(f(kink(k))))
            if k < d:
                ends.append(kink(k))
        best = max(ends)
        # the interior just right of the kink: a Y_i = -best has left 0, and
        # a Y_i = T - best has passed T
        slope = bisect.bisect_left(ys, T - best) - bisect.bisect_left(ys, -best)
        gap = S - f(best)
        return best + gap / slope if gap else best

    if S == 0:
        gamma = -ys[-1] - T
    elif S >= T * d:
        gamma = T - ys[0] + T
    else:
        gamma = (solve_right_of_last(lambda v: v <= S) + solve_right_of_last(lambda v: v < S)) / 2
    x = [min(max(Fraction(v) + gamma, Fraction(0)), T) for v in np.asarray(y, dtype=np.float64)]
    return gamma, x

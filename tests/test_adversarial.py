"""Adversarial inputs: never a wrong point without a raise.

Heavy ties, subnormal and signed-zero entries, sum targets at the ends of
their range (0, the smallest double, just below and at ``t*D``) and caps
from 1e-6 to 1e6.  These reach every block pattern: no zero block, no cap
block, neither, and no interior.  Values are at most a few caps in size, so
every such input is in the solver's domain and must be answered.  Small D is
checked against full enumeration, larger D against the certificate, up to
the D = 1e6 the domain states, with outliers of -1e15 and +1e12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappedproj import ProjectionInput, certify_result, enumerate_oracle, project_capped_box

_TINY = 5e-324
_CAPS = st.one_of(st.sampled_from([1e-6, 1e-3, 1.0, 7.3, 1e3, 1e6]), st.floats(1e-6, 1e6))


def _entries(t):
    # one entry: on a coarse grid of the cap (ties), next to zero, or plain
    return st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0]).map(lambda v: v * t),
        st.sampled_from([0.0, -0.0, _TINY, -_TINY, 1e-310, -1e-310, 2.2250738585072014e-308]),
        st.floats(-3.0, 3.0).map(lambda v: v * t),
    )


def _target(draw, t, d):
    # the ends of the range, a multiple of t (all pinned, if a gap allows),
    # or anything between
    td = t * d
    edge = st.sampled_from([0.0, _TINY, math.nextafter(td, 0.0), td])
    multiple = st.integers(0, d).map(lambda k: t * k)
    return draw(st.one_of(edge, multiple, st.floats(0.0, 1.0).map(lambda u: u * td)))


@st.composite
def _small_instances(draw):
    t = draw(_CAPS)
    d = draw(st.integers(1, 8))
    y = np.array(draw(st.lists(_entries(t), min_size=d, max_size=d)))
    return y, _target(draw, t, d), t


@st.composite
def _large_instances(draw):
    # entries drawn by numpy from a drawn seed and mix, so that D in the
    # hundreds stays cheap to generate
    t = draw(_CAPS)
    d = draw(st.integers(9, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0], d) * t
    near_zero = rng.choice([0.0, -0.0, _TINY, -_TINY, 1e-310, -1e-310], d)
    plain = rng.uniform(-3.0, 3.0, d) * t
    mix = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))) + 1e-3
    kind = rng.choice(3, d, p=mix / mix.sum())
    y = np.choose(kind, [grid, near_zero, plain])
    return y, _target(draw, t, d), t


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_small_instances())
def test_small_d_matches_enumeration(inst):
    y, s, t = inst
    res = project_capped_box(ProjectionInput(y, s, t))
    # the oracle solves the unit cap; (t*D)/t can round above D
    ref = t * enumerate_oracle(y / t, min(s / t, float(y.size)))
    assert float(np.max(np.abs(res.x - ref))) <= 1e-9 * max(t, float(np.max(np.abs(y))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_large_instances())
def test_larger_d_certifies(inst):
    y, s, t = inst
    inp = ProjectionInput(y, s, t)
    res = project_capped_box(inp)
    assert certify_result(inp, res)[1].passed


def _million(family, rng):
    # one D = 1e6 instance of a family as (y, s, t)
    d = 1_000_000
    y = rng.uniform(-0.5, 0.5, d)
    s, t = 0.3 * d, 1.0
    if family == "ties":
        y = np.round(y * 8.0) / 8.0
        s = float(round(s))
    elif family == "outlier_-1e15":
        y[rng.integers(d)] = -1e15
    elif family == "outlier_+1e12":
        y[rng.integers(d)] = 1e12
    elif family == "cap_1e3":
        t = 1e3
        y, s = y * 4.0 * t, 0.3 * t * d
    elif family == "s_zero":
        s = 0.0
    elif family == "s_tD":
        s = t * d
    elif family == "cauchy":
        y = rng.standard_cauchy(d)
    return y, s, t


@pytest.mark.parametrize(
    "family",
    ["uniform", "ties", "outlier_-1e15", "outlier_+1e12", "cap_1e3", "s_zero", "s_tD", "cauchy"],
)
def test_d_of_a_million_certifies(family):
    # the largest D in the stated domain, where the search sums whole
    # blocks of 2^14 sorted values
    y, s, t = _million(family, np.random.default_rng(1_000_000))
    inp = ProjectionInput(y, s, t)
    res = project_capped_box(inp)
    assert certify_result(inp, res)[1].passed
    a, b = res.partition.a, res.partition.b
    assert int(res.at_zero.sum()) == a and int(res.at_cap.sum()) == y.size - b

"""The input rules every public entry point shares, one table per rule.

Three kinds of input come from outside: a count (a dimension, a seed, a
number of repetitions or iterations), a real scalar (a sum target, a cap, a
tolerance) and a vector.  Each kind passes one check, and a value outside
its rule raises ``InvalidInputError``:

- a count is a whole number at least its bound (``_whole``)
- a real scalar is a finite ``numbers.Real`` other than a bool, or a 0-d
  array of an integer or a float dtype (``_real``); a cap or a tolerance is
  one above 0 (``_positive``)
- a vector holds an integer or a float dtype (``_reals``); a y to project is
  a finite one-dimensional vector with D >= 1 (``_vector``)

A sum target outside ``[0, t*D]``, where the set is empty, raises
``InfeasibleError``.  A ``ProjectionResult`` handed to ``certify_result``
comes from outside too: its masks are boolean vectors of length D and its
``gamma`` a real number (a NaN or an inf is measured and reported, not
refused).  Its partition is read from the masks, so no entry point takes one.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cappedproj import (
    BenchPlan,
    InfeasibleError,
    InvalidInputError,
    ProjectionInput,
    SolverConfig,
    certify,
    certify_result,
    enumerate_oracle,
    project_capped_box,
    project_simplex,
    random_instance,
    sort_with_permutation,
)

Y = np.array([0.3, -0.2, 1.5])
X = np.array([0.75, 0.25, 1.0])  # the projection of Y at s = 2, t = 1


def _inp():
    return ProjectionInput(Y, 2.0)


# each real scalar an entry point reads, as a call on that one value
REALS = {
    "ProjectionInput s": lambda v: ProjectionInput(Y, v),
    "ProjectionInput t": lambda v: ProjectionInput(Y, 1.0, v),
    "project_simplex s": lambda v: project_simplex(Y, v),
    "enumerate_oracle s": lambda v: enumerate_oracle(Y, v),
    "SolverConfig tol": lambda v: SolverConfig(tol=v),
    "certify tol": lambda v: certify(_inp(), X, tol=v),
}

NOT_REALS = {
    "None": None,
    "complex": 1 + 0j,
    "text": "2",
    "bool": True,
    "numpy bool": np.True_,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "float32 inf": np.float32(np.inf),
    "int past the largest double": 10**400,
    "1-element array": np.array([1.0]),
}

# each count an entry point reads, one below its bound
COUNTS = {
    "BenchPlan size": lambda: BenchPlan(sizes=(0,)),
    "BenchPlan repetitions": lambda: BenchPlan(sizes=(10,), repetitions=0),
    "BenchPlan base_seed": lambda: BenchPlan(sizes=(10,), base_seed=-1),
    "random_instance D": lambda: random_instance(0, 0),
    "random_instance seed": lambda: random_instance(3, -1),
    "SolverConfig max_iters": lambda: SolverConfig(max_iters=0),
}

# each cap or tolerance an entry point reads: a finite real number above 0
POSITIVES = {name: REALS[name] for name in ("ProjectionInput t", "SolverConfig tol", "certify tol")}

NOT_POSITIVE = {"0.0": 0.0, "-0.0": -0.0, "-1.0": -1.0, "-2.0": -2.0}

# each y an entry point projects or sorts, as a call on that one y
YS = {
    "ProjectionInput y": lambda v: ProjectionInput(v, 0.0),
    "sort_with_permutation y": sort_with_permutation,
    "project_simplex y": lambda v: project_simplex(v, 1.0),
    "enumerate_oracle y": lambda v: enumerate_oracle(v, 0.0),
}

NOT_ONE_D = {"2-D": np.ones((2, 3)), "empty": np.array([]), "0-D": np.float64(0.5)}

# y . y overflows in the last two, so each entry is tested
NOT_FINITE = {
    "nan": [0.0, np.nan],
    "-inf": [1.0, -np.inf],
    "+inf": [np.inf, 1.0],
    "overflow, nan": [1e200, np.nan],
    "overflow, inf": [1e200, np.inf],
}

# each vector an entry point reads, as a call on that one vector: a
# candidate x is measured, so it may hold NaN or inf, but it is real
VECTORS = {
    **YS,
    "certify x": lambda v: certify(_inp(), v),
    "certify_result x": lambda v: certify_result(
        _inp(), dataclasses.replace(project_capped_box(_inp()), x=v)
    ),
}

NOT_VECTORS = {
    "text": ["0.75", "0.25", "1"],
    "bools": [True, False, True],
    "objects": [Fraction(3, 4), 0.25, 1.0],
    "complex": [0.3 + 5j, -0.2, 1.5],
    "ragged": [[0.75, 0.25], [1.0]],
}

# each sum target outside [0, t*D], where the set is empty
INFEASIBLE = {
    "ProjectionInput s < 0": lambda: ProjectionInput([0.0, 0.0], -1.0),
    "ProjectionInput s < 0, int y": lambda: ProjectionInput([0, 0], -1.0),
    "ProjectionInput s > D": lambda: ProjectionInput([0.0, 0.0], 2.5),
    "ProjectionInput s > D, int y": lambda: ProjectionInput([0, 0], 2.5),
    "ProjectionInput s > t*D": lambda: ProjectionInput([0.0, 0.0], 1.2, 0.5),
    "enumerate_oracle s < 0": lambda: enumerate_oracle(Y, -0.5),
    "enumerate_oracle s > D": lambda: enumerate_oracle(Y, 3.5),
}


def _table(entries, values, message):
    # one row per entry point and value: (id, call, error, message)
    return [
        (f"{entry} {bad}", lambda e=e, v=v: e(v), InvalidInputError, message)
        for entry, e in entries.items()
        for bad, v in values.items()
    ]


CASES = (
    _table(REALS, NOT_REALS, "must be a finite real number")
    + _table(POSITIVES, NOT_POSITIVE, "must be a positive finite number")
    + [(entry, call, InvalidInputError, "whole number") for entry, call in COUNTS.items()]
    + _table(VECTORS, NOT_VECTORS, "not a real number")
    + _table(YS, NOT_ONE_D, "one-dimensional")
    + _table(YS, NOT_FINITE, "non-finite")
    + [(entry, call, InfeasibleError, "is infeasible") for entry, call in INFEASIBLE.items()]
)


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_every_entry_point_refuses_a_value_outside_its_rule(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "s, t",
    [
        (2, 1),
        (np.float64(2.0), np.float32(1.0)),
        (np.int64(2), np.uint8(1)),
        (np.array(2.0), np.array(1)),
        (Fraction(2), Fraction(1)),
    ],
    ids=["int", "numpy floats", "numpy integers", "0-d arrays", "fractions"],
)
def test_every_real_number_reads_as_its_float(s, t):
    inp = ProjectionInput(Y, s, t)
    assert (type(inp.s), type(inp.t), inp.s, inp.t) == (float, float, 2.0, 1.0)
    assert SolverConfig(tol=t).tol == 1.0
    assert certify(inp, X, tol=t)[1].passed


def _certify_with(**fields):
    # certify_result on the solver's own result with the given fields replaced
    return certify_result(_inp(), dataclasses.replace(project_capped_box(_inp()), **fields))


def _certify_bad_mask(field, make):
    # certify_result with the mask named field replaced by make(that mask)
    res = project_capped_box(_inp())
    return certify_result(_inp(), dataclasses.replace(res, **{field: make(getattr(res, field))}))


# each mask that is not a boolean vector of length D, made from the solver's
# own mask m; those of the right length cast to m itself
NOT_MASKS = {
    "ints": lambda m: m.astype(int),
    "floats": lambda m: m * 0.7,
    "text": lambda m: np.where(m, "x", ""),
    "objects": lambda m: m.astype(object),
    "Nones": lambda m: [True if v else None for v in m],
    "too short": lambda m: m[:-1],
    "too long": lambda m: np.append(m, False),
    "2-d": lambda m: m[None],
    "a bool": lambda m: False,
    "ragged": lambda m: [m.tolist(), [False]],
}

NOT_GAMMAS = {
    "text": "0.45",
    "bool": True,
    "None": None,
    "1-element array": np.array([0.45]),
}

RESULT_CASES = (
    [
        (
            f"certify_result {mask} {bad}",
            lambda k=mask, f=f: _certify_bad_mask(k, f),
            "boolean vectors of the dimension",
        )
        for mask in ("at_zero", "at_cap")
        for bad, f in NOT_MASKS.items()
    ]
    + [
        (f"certify_result gamma {bad}", lambda v=v: _certify_with(gamma=v), "be a real number")
        for bad, v in NOT_GAMMAS.items()
    ]
)


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in RESULT_CASES], ids=[c[0] for c in RESULT_CASES]
)
def test_a_result_from_outside_passes_the_same_rules(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


@pytest.mark.parametrize(
    "gamma",
    [math.nan, math.inf, np.float32(0.5), np.int64(0), np.array(0.25), Fraction(1, 2)],
    ids=["nan", "inf", "float32", "int64", "0-d array", "fraction"],
)
def test_a_result_gamma_reads_as_its_float(gamma):
    cert, report = _certify_with(gamma=gamma)
    _, as_float = _certify_with(gamma=float(gamma))
    assert type(cert.gamma) is float
    assert cert.gamma == float(gamma) or math.isnan(cert.gamma) and math.isnan(gamma)
    # NaN != NaN, so the reports are compared by their text
    assert repr(report) == repr(as_float)
    if not math.isfinite(gamma):
        assert report.passed is False


def test_a_list_of_bools_is_a_mask():
    res = project_capped_box(_inp())
    listed = _certify_with(at_zero=res.at_zero.tolist(), at_cap=res.at_cap.tolist())[1]
    assert listed == certify_result(_inp(), res)[1]
    assert listed.passed

"""The input rules every public entry point shares.

Three kinds of input come from outside: a count (a dimension, a seed, a
number of repetitions or iterations), a real scalar (a sum target, a cap, a
tolerance) and a vector.  Each kind passes one check, and a value outside
its rule raises ``InvalidInputError``:

- a count is a whole number at least its bound
- a real scalar is a finite ``numbers.Real`` other than a bool, or a 0-d
  array of an integer or a float dtype
- a vector holds an integer or a float dtype
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cappedproj import (
    BenchPlan,
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

# each vector an entry point reads, as a call on that one vector
VECTORS = {
    "ProjectionInput y": lambda v: ProjectionInput(v, 0.0),
    "sort_with_permutation y": sort_with_permutation,
    "project_simplex y": lambda v: project_simplex(v, 1.0),
    "enumerate_oracle y": lambda v: enumerate_oracle(v, 0.0),
    "certify x": lambda v: certify(_inp(), v),
    "certify_result x": lambda v: certify_result(
        _inp(), dataclasses.replace(project_capped_box(_inp()), x=v)
    ),
}

NOT_VECTORS = {
    "text": ["0.75", "0.25", "1"],
    "bools": [True, False, True],
    "objects": [Fraction(3, 4), 0.25, 1.0],
}

CASES = (
    [
        (f"{entry} {bad}", lambda e=e, v=v: e(v), "must be a finite real number")
        for entry, e in REALS.items()
        for bad, v in NOT_REALS.items()
    ]
    + [(entry, call, "whole number") for entry, call in COUNTS.items()]
    + [
        (f"{entry} {bad}", lambda e=e, v=v: e(v), "not a real number")
        for entry, e in VECTORS.items()
        for bad, v in NOT_VECTORS.items()
    ]
)


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_every_entry_point_refuses_a_value_outside_its_rule(call, message):
    with pytest.raises(InvalidInputError, match=message):
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

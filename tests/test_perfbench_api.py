"""The part of the library that the benchmark in ``perfbench/`` reads.

``perfbench/run.py`` and ``perfbench/workloads.py`` call the package as
``lib.<name>`` and read fields of what comes back.  These tests fail when a
name or field they use is removed, instead of a benchmark run failing.
"""

import dataclasses
import re
from pathlib import Path

import pytest

import cappedproj

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LIB_NAME = re.compile(r"(?<![\w.])lib\.([A-Za-z_]\w*)")


def _names_read_by_perfbench():
    return sorted(
        {name for path in PERFBENCH.glob("*.py") for name in LIB_NAME.findall(path.read_text())}
    )


def test_the_scan_finds_the_solver_entry_points():
    names = _names_read_by_perfbench()
    assert {"ProjectionInput", "project_capped_box", "certify_result"} <= set(names)


@pytest.mark.parametrize("name", _names_read_by_perfbench())
def test_every_name_perfbench_reads_exists(name):
    assert hasattr(cappedproj, name), f"perfbench reads lib.{name}"


def test_fields_read_from_a_certified_solve():
    inp = cappedproj.ProjectionInput([0.3, -0.2, 1.5, 0.1], 2.0, 1.0)
    res = cappedproj.project_capped_box(inp)
    _, rep = cappedproj.certify_result(inp, res)
    assert res.fallback is False
    assert 0 <= res.partition.a <= res.partition.b <= inp.y.size
    assert rep.passed is True
    assert rep.max_residual <= 1e-12
    _, rep = cappedproj.certify(inp, res.x)
    assert rep.passed
    assert cappedproj.sort_with_permutation(inp.y).y_sorted.size == inp.y.size


def test_fallback_is_a_constant_not_a_field():
    # the benchmark reads res.fallback (checked above); no solve sets it
    assert "fallback" not in {f.name for f in dataclasses.fields(cappedproj.ProjectionResult)}


def test_fields_read_from_an_iterative_solve():
    inp = cappedproj.ProjectionInput([0.3, -0.2, 1.5, 0.1], 2.0, 1.0)
    for solver in (cappedproj.dykstra_project, cappedproj.admm_project):
        out = solver(inp, cappedproj.SolverConfig())
        assert out.iterations >= 1
        assert out.converged is True

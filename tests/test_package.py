"""What ``import cappedproj`` loads, and how the rest of its names resolve.

The package loads the solver and its certificate at import.  The harness,
the baselines and the oracle load on the first read of one of their names
(PEP 562), so every name in ``__all__`` must still resolve to the object
its module defines, and nothing else may leak through that lookup.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cappedproj
from cappedproj import baselines, bench, errors, kkt, oracle, projection

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
# in import order: each module imports only modules before it, so the first
# that holds a name defines it
MODULES = (errors, projection, kkt, oracle, baselines, bench)


def _modules_after(code):
    # sys.modules after running code in a fresh interpreter on the checkout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        check=True,
    )
    return set(json.loads(done.stdout))


def test_import_loads_only_the_solver_and_its_certificate():
    loaded = _modules_after("import cappedproj")
    assert {m for m in loaded if m.startswith("cappedproj.")} == {
        "cappedproj.errors",
        "cappedproj.kkt",
        "cappedproj.projection",
    }
    assert "csv" not in loaded


def test_reading_a_name_loads_its_module():
    loaded = _modules_after("import cappedproj; cappedproj.enumerate_oracle")
    assert "cappedproj.oracle" in loaded
    assert not {"cappedproj.baselines", "cappedproj.bench", "csv"} & loaded
    assert {"cappedproj.bench", "csv"} <= _modules_after("from cappedproj import run_benchmark")


@pytest.mark.parametrize("name", cappedproj.__all__)
def test_every_public_name_is_the_object_its_module_defines(name):
    owners = [m for m in MODULES if name in vars(m)]
    assert owners, f"no module defines {name}"
    assert getattr(cappedproj, name) is vars(owners[0])[name]


def test_dir_lists_every_public_name():
    assert set(cappedproj.__all__) <= set(dir(cappedproj))


def test_submodules_resolve_as_attributes():
    code = "import cappedproj\n"
    for module in ("oracle", "baselines", "bench"):
        code += f"assert cappedproj.{module}.__name__ == 'cappedproj.{module}'\n"
    _modules_after(code)


@pytest.mark.parametrize("name", ["no_such_name", "np", "csv", "time", "_whole"])
def test_unknown_and_private_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cappedproj, name)


def test_inputs_and_results_are_frozen_dataclasses():
    # values: a caller cannot assign a field that the checks or the
    # certificate relied on
    for name in ("ProjectionInput", "Partition", "ProjectionResult", "KktReport"):
        cls = getattr(cappedproj, name)
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, name


# The spies on the private names of the solver or of its certificate, or on
# numpy, that the tests keep, as (function, name), one entry per setattr: each
# forces a path or pins the cost model.  A count of the solver's work is read
# from its work record (projection._Work), so that a new parameter on a
# private function breaks no test that counts.
SPIES = [
    ("test_wrong_split_raises", "_kink_search"),  # a wrong split
    ("_full_sort", "_windows"),  # the full-sort path
    ("test_cut_partitions_first_where_least_is_left_to_partition", "_cut"),  # the cost model's order
    ("test_the_shift_reuses_the_interior_sum_of_a_probe", "_sum"),  # a sum not taken, which no record holds
    # the certificate's skip of a side that sits on its bound, watched and then forced off
    ("test_the_on_bound_skip_leaves_every_report_bit", "_on_bound"),
    ("test_the_on_bound_skip_leaves_every_report_bit", "_on_bound"),
]


def test_no_spy_counts_the_solvers_work():
    # every setattr on cappedproj.projection, cappedproj.kkt or numpy in the
    # tests, through monkeypatch, a monkeypatch.context() or setattr, by its
    # function
    spies = []
    for path in sorted(TESTS.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                calls = (c for c in ast.walk(fn) if isinstance(c, ast.Call))
                for first, second, *_ in (c.args for c in calls if ast.unparse(c.func).endswith("setattr")):
                    if isinstance(first, ast.Constant):  # setattr("numpy.putmask", value)
                        where, _, name = first.value.rpartition(".")
                    else:
                        where, name = ast.unparse(first), getattr(second, "value", None)
                    if where.removeprefix("cappedproj.") in ("projection", "kkt", "np", "numpy"):
                        spies.append((getattr(fn, "name", "<module>"), name))
    assert sorted(spies) == sorted(SPIES)

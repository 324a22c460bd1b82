"""What ``import cappedproj`` loads, and how the rest of its names resolve.

The package loads the solver and its certificate at import.  The harness,
the baselines and the oracle load on the first read of one of their names
(PEP 562), so every name in ``__all__`` must still resolve to the object
its module defines, and nothing else may leak through that lookup.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cappedproj
from cappedproj import baselines, bench, errors, kkt, oracle, projection

SRC = Path(__file__).resolve().parents[1] / "src"
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

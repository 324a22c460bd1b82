"""Every script in ``demos/`` runs to completion, and README.md names every export.

Each demo runs in its own interpreter with the checkout's ``src/`` on the
path, as a reader would run it, and in a scratch directory, since demo 04
writes a CSV file to its working directory.  Each runs with ``-W error``:
pyproject's warning filter does not reach a subprocess.  Demo 02 reads the
certificate's multipliers, which are built on first read.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cappedproj

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", cappedproj.__all__)
def test_every_public_name_is_in_the_readme(name):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.search(rf"(?<!\w){name}(?!\w)", readme), f"README.md does not name {name}"

"""Every script in ``demos/`` and README's quickstart run, and README.md names every export.

Each demo, and the quickstart, runs in its own interpreter with the
checkout's ``src/`` on the path, as a reader would run it, and in a scratch
directory, since demo 04 writes a CSV file to its working directory.  Each
runs with ``-W error``: pyproject's warning filter does not reach a
subprocess.  Demo 02 reads the certificate's multipliers, which are built
on first read.
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
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=cwd,
    )


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    done = _run([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quickstart_shows_what_its_comments_state(tmp_path):
    # the value each checked line's comment states, up to its first ':' or ' --'
    code = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README, re.S).group(1)
    names = ("res.partition", "res.gamma", "report.passed")
    stated = [re.search(rf"^{re.escape(n)} +# (.+?)(?::| --|$)", code, re.M).group(1) for n in names]
    assert stated == ["Partition(a=0, b=2)", "0.45", "True"]
    done = _run(["-c", code + f"print({', '.join(names)}, sep='\\n')"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == stated


@pytest.mark.parametrize("name", cappedproj.__all__)
def test_every_public_name_is_in_the_readme(name):
    assert re.search(rf"(?<!\w){name}(?!\w)", README), f"README.md does not name {name}"

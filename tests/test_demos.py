"""Every demo runs to completion with warnings turned into errors and
prints exactly what ``tests/data/demo_stdout.json`` holds for it.

The demos are deterministic, so their output is pinned byte for byte.
Rewrite the file only for an intended and explained output change:

    PYTHONPATH=src python tests/test_demos.py

which prints every entry it changes (index, old and new) before writing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_solver_answers import rewrite

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
STDOUT = Path(__file__).parent / "data" / "demo_stdout.json"


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    expected = {e["demo"]: e["stdout"] for e in json.loads(STDOUT.read_text())}
    assert result.stdout == expected[demo.stem]


if __name__ == "__main__":
    rewrite(STDOUT, [{"demo": d.stem, "stdout": run_demo(d).stdout} for d in DEMOS])

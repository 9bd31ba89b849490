"""Smoke tests: every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conicoffset

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# stdout of demos/05_groebner_basics.py, which prints the completion
# counters, recorded with the signature-based completion; the lex call stops
# its grevlex stage over ring + h, whose work the counters add
DEMO_05_STDOUT = """\
S(f, g) = x - y^2
reduced lex basis:
    x - y^2
    y^3 - 1
stats: {'pairs_considered': 5, 'pairs_skipped_criteria': 2, 'reductions': 3}
x^3 - 1 in the ideal: True
division reconstruction holds: True
"""


def _run_demo(path, cwd):
    # the child imports the same package as this process, installed or not
    package_root = str(Path(conicoffset.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([package_root] + ([inherited] if inherited else [])))
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    out = _run_demo(DEMOS / name, tmp_path)
    assert out.returncode == 0, out.stderr
    if name == "05_groebner_basics.py":
        assert out.stdout == DEMO_05_STDOUT

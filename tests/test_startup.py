"""Start-up and public contract in fresh interpreters: importing the package,
building the CLI parser and the exact commands load neither numpy nor
mpmath, and exact real roots and singular points load mpmath alone; the
float-layer names still resolve, through the package's module
``__getattr__``, and follow a patched submodule."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import conicoffset
from conicoffset import curve, reference
from conicoffset.cli import main
from conicoffset.conics import ConicSpec, offset_poly_closed_form
from conicoffset.poly import parse_poly, poly_to_dict
from conicoffset.verify import conic_from_case


def _python(*args):
    # the child imports the same package as this process, installed or not
    package_root = str(Path(conicoffset.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + ([inherited] if inherited else [])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# prints, after each step, which of numpy and mpmath the process has loaded
STARTUP = """\
import contextlib, io, json, sys
steps = {}
def seen(step):
    steps[step] = [m for m in ("numpy", "mpmath") if m in sys.modules]
import conicoffset
from conicoffset import cli, fixtures
seen("import")
for kind in ("parabola", "ellipse", "hyperbola"):
    fixtures.general_offset_poly(kind)
seen("general_offset_poly")
cli.build_parser()
seen("build_parser")
conic = ["--conic", "ellipse", "--a=3", "--b=3/2", "--r=4/3"]
for method in ("closed", "elim"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["offset-poly", *conic, "--method", method, "--json"])
    seen(f"offset-poly {method} exit {code}")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["groebner", "--in", sys.argv[1], "--vars", "x,y",
                     "--order", "lex", "--json"])
seen(f"groebner exit {code}")
from conicoffset.cardano import real_roots_exact
real_roots_exact([1, -3, 0, 0, 0, 1])  # t^5 - 3t + 1: Sturm isolation
seen("real_roots_exact")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["singular", *conic, "--method", "elimination",
                     "--format", "json"])
seen(f"singular elimination exit {code}")
print(json.dumps(steps))
"""


def test_exact_commands_load_neither_numpy_nor_mpmath(tmp_path):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps([poly_to_dict(parse_poly(t, ("x", "y")))
                                 for t in ("x^2-y", "x*y-1")]))
    out = _python("-c", STARTUP, str(ideal))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        **{step: [] for step in (
            "import", "general_offset_poly", "build_parser",
            "offset-poly closed exit 0", "offset-poly elim exit 0",
            "groebner exit 0")},
        # the root finders and the singular points compute with mpmath
        "real_roots_exact": ["mpmath"],
        "singular elimination exit 0": ["mpmath"]}


def _in_process(capsys, argv):
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


def test_fresh_evaluating_commands_print_what_this_process_prints(
        tmp_path, capsys):
    # singular imports mpmath, and trace numpy, on first use: a fresh
    # process must still exit 0 with the same bytes on stdout
    c = reference.case(6)
    conic = conic_from_case(c)
    singular = ["singular", "--conic", conic.kind,
                *(f"--{k}={v}" for k, v in conic.params),
                f"--r={Fraction(c['r'])}", "--method", "elimination",
                "--format", "json"]
    g = offset_poly_closed_form(ConicSpec.ellipse(3, Fraction(3, 2)),
                                Fraction(4, 3)).g
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(poly_to_dict(g)))
    trace = ["trace", "--g", str(gfile), "--bbox=-4,4,-5,5", "--res", "128",
             "--mark-singular", "--json"]
    for argv in (singular, trace):
        fresh = _python("-m", "conicoffset.cli", *argv)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == _in_process(capsys, argv)


CONTRACT = """\
import sys
import conicoffset
from types import ModuleType
for sub in ("curve", "mesh"):
    mod = getattr(conicoffset, sub)
    assert isinstance(mod, ModuleType), mod
    assert mod.__name__ == f"conicoffset.{sub}", mod
missing = [n for n in conicoffset.__all__ if not hasattr(conicoffset, n)]
assert missing == [], missing
assert not hasattr(conicoffset, "no_such_name")
namespace = {}
exec("from conicoffset import *", namespace)
assert set(conicoffset.__all__) <= set(namespace), conicoffset.__all__
listed = dir(conicoffset)
assert set(conicoffset.__all__) | {"curve", "mesh"} <= set(listed)
assert listed == sorted(listed)
print("ok")
"""


def test_public_names_resolve_in_a_fresh_interpreter():
    out = _python("-W", "error", "-c", CONTRACT)
    assert (out.returncode, out.stdout, out.stderr) == (0, "ok\n", "")


def test_package_name_follows_a_patched_submodule(monkeypatch):
    original = curve.trace_implicit

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(curve, "trace_implicit", wrapper)
        assert conicoffset.trace_implicit is wrapper
    assert conicoffset.trace_implicit is curve.trace_implicit is original

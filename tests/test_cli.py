"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import dataclasses
import hashlib
import io
import json
from fractions import Fraction

import pytest

from conicoffset import cli, reference, verify
from conicoffset.cli import main
from conicoffset.conics import ConicSpec, offset_poly_closed_form
from conicoffset.mesh import MeshSpec, generate_mesh, mesh_figure
from conicoffset.poly import (MultiPoly, format_poly, parse_poly, poly_from_dict,
                              poly_to_dict, substitute)
from conicoffset.verify import conic_from_case


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_offset_poly_closed_and_file(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, _ = run(capsys, "offset-poly", "--conic", "parabola",
                          "--p", "1/3", "--r", "1/4", "--out", str(out), "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["degree"] == 6 and doc["source"] == "closed-form"
    saved = json.loads(out.read_text())
    assert saved["vars"] == ["x", "y"]


def test_offset_poly_methods_agree(capsys):
    code, closed, _ = run(capsys, "offset-poly", "--conic", "ellipse", "--a", "3",
                          "--b", "3/2", "--r", "1/2", "--json")
    code2, elim, _ = run(capsys, "offset-poly", "--conic", "ellipse", "--a", "3",
                         "--b", "3/2", "--r", "1/2", "--method", "elim", "--json")
    assert code == code2 == 0
    assert json.loads(closed)["g"] == json.loads(elim)["g"]


def test_singular_json(capsys):
    code, stdout, _ = run(capsys, "singular", "--conic", "ellipse", "--a", "3",
                          "--b", "3/2", "--r", "4/3", "--format", "json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["count"] == 6 and doc["regime"] == "supercritical"
    assert doc["r_crit"] == "3/4"


# recorded again when residuals came to be taken exactly at the rounded
# point, not through a 60-digit evaluation: only the residual digits moved
# (5.98e-62 -> 3.39e-62, 7.47e-63 -> 1.58e-63)
SINGULAR_TEXT = """\
r_crit = 3/4  regime = supercritical  6 real point(s), 2 complex
  (-0.27684418911358416, -1.7450940736957248)  [split]  |grad| residual 3.39e-62
  (0.27684418911358416, -1.7450940736957248)  [split]  |grad| residual 3.39e-62
  (0, -1.1902380714238083)  [on-curve]  |grad| residual 1.58e-63
  (0, 1.1902380714238083)  [on-curve]  |grad| residual 1.58e-63
  (-0.27684418911358416, 1.7450940736957248)  [split]  |grad| residual 3.39e-62
  (0.27684418911358416, 1.7450940736957248)  [split]  |grad| residual 3.39e-62
"""


def test_singular_json_spellings(capsys):
    # --json is an alias of --format json; text stays the default
    conic = ("singular", "--conic", "ellipse", "--a", "3", "--b", "3/2",
             "--r", "4/3")
    outs = [run(capsys, *conic, *flags) for flags in
            (("--format", "json"), ("--json",), ("--format", "text"), ())]
    assert [code for code, _, _ in outs] == [0, 0, 0, 0]
    assert outs[0][1] == outs[1][1]
    assert json.loads(outs[1][1])["count"] == 6
    assert outs[2][1] == outs[3][1] == SINGULAR_TEXT


def test_singular_elimination_method(capsys):
    code, stdout, _ = run(capsys, "singular", "--conic", "parabola", "--p", "1/3",
                          "--r", "3/2", "--method", "elimination",
                          "--format", "json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["count"] == 3 and doc["source"] == "elimination"


def test_singular_far_point_by_elimination(capsys):
    # parabola(10^300) at r = 10^-300: the elimination route reports the
    # closed route's one point, judged against its terms' size at the point
    argv = ("singular", "--conic", "parabola", "--p", "1e300", "--r", "1e-300",
            "--format", "json", "--method")
    code_c, closed, _ = run(capsys, *argv, "closed")
    code_e, elim, _ = run(capsys, *argv, "elimination")
    assert code_c == code_e == 0
    assert json.loads(elim)["points"] == json.loads(closed)["points"]
    assert json.loads(elim)["count"] == 1


def test_classify(capsys):
    code, stdout, _ = run(capsys, "classify", "--conic", "parabola", "--p", "1/3",
                          "--r", "2/3", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["regime"] == "critical" and doc["r_crit"] == "2/3"
    assert doc["counts"] == {"real": 1, "complex": 2}


def test_groebner_subcommand(tmp_path, capsys):
    polys = [poly_to_dict(parse_poly(t, ("x", "y")))
             for t in ("x^2-y", "x*y-1")]
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps(polys))
    code, stdout, _ = run(capsys, "groebner", "--in", str(src),
                          "--vars", "x,y", "--order", "lex", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["stats"]["basis_size"] == 2
    assert doc["stats"]["degree_multiset"] == [3, 2]
    assert {"pairs_considered", "pairs_skipped_criteria",
            "reductions"} <= set(doc["stats"])


def test_trace_subcommand(tmp_path, capsys):
    gshape = tmp_path / "g.json"
    run(capsys, "offset-poly", "--conic", "parabola", "--p", "1/3", "--r", "3/2",
        "--out", str(gshape))
    svg = tmp_path / "fig.svg"
    code, stdout, _ = run(capsys, "trace", "--g", str(gshape),
                          "--bbox=-3,3,-1.5,4", "--res", "256",
                          "--svg", str(svg), "--mark-singular", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["polylines"] >= 1
    assert len(doc["singular_vertices"]) == 3
    assert svg.read_text().count("<circle") == 3


def test_trace_pins_past_the_float_range(tmp_path, capsys):
    # g = x^2 - (y/10^400 - 1)^2 + x^3 has its node at (0, 10^400): the pin
    # is compared with the bbox exactly and left out, not rounded to a float
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(poly_to_dict(
        x ** 2 - (y * Fraction(1, 10 ** 400) - 1) ** 2 + x ** 3)))
    code, stdout, _ = run(capsys, "trace", "--g", str(gpath),
                          "--bbox=-2,2,-2,2", "--res", "64", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["polylines"] == 1 and doc["singular_vertices"] == []


def test_mesh_subcommand(tmp_path, capsys):
    out = tmp_path / "mesh.json"
    code, stdout, _ = run(capsys, "mesh", "--a", "4", "--b", "2",
                          "--offsets", "0.2,0.4,0.6",
                          "--stations", "3.75,3,2,1,0,-1,-2,-3,-3.75",
                          "--out", str(out), "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert (doc["rows"], doc["cols"], doc["nodes"]) == (7, 20, 140)
    assert (doc["quad4"], doc["quad9"]) == (120, 30)
    saved = json.loads(out.read_text())
    assert len(saved["nodes"]) == 140


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "offset-poly", "--conic", "parabola", "--p", "0",
                       "--r", "1/4")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "classify", "--conic", "ellipse", "--a", "1",
                     "--b", "2", "--r", "1/4")
    assert code == 2
    code, _, _ = run(capsys, "offset-poly", "--conic", "parabola", "--r", "1/4")
    assert code == 2  # missing --p


@pytest.mark.parametrize("argv,flag", [
    (("classify", "--conic", "ellipse", "--a=1/0", "--b", "1", "--r", "1/4"), "--a"),
    (("classify", "--conic", "ellipse", "--a=x", "--b", "1", "--r", "1/4"), "--a"),
    (("mesh", "--a", "4", "--b", "2", "--offsets", "abc", "--stations", "1"),
     "--offsets"),
])
def test_exit_code_malformed_number(capsys, argv, flag):
    # a value that does not parse is an argument error, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument {flag}: not a" in err


@pytest.mark.parametrize("before,flag,value,after,code", [
    (("classify", "--conic", "parabola"), "--p", "-1/2", ("--r", "1/4"), 0),
    (("classify", "--conic", "hyperbola", "--a", "2"), "--b", "-1",
     ("--r", "1/4"), 2),  # b < 0 is refused by ConicSpec, not by argparse
    (("mesh", "--a", "3", "--b", "2", "--offsets", "0.1"), "--stations",
     "-1.5,1", (), 2),  # ascending stations are refused by MeshSpec
    (("mesh", "--a", "3", "--b", "2", "--offsets", "0.1"), "--stations",
     "-.5,-1.5", ("--json",), 0),
    (("trace", "--g", "{g}"), "--bbox", "-3,3,-3,3", ("--res", "32", "--json"),
     0),
])
def test_negative_value_as_own_word(tmp_path, capsys, before, flag, value,
                                    after, code):
    # '--opt -1/2' means the same as '--opt=-1/2', not a missing value
    g = tmp_path / "g.json"
    run(capsys, "offset-poly", "--conic", "ellipse", "--a", "2", "--b", "1",
        "--r", "1/4", "--out", str(g))
    before = tuple(w.format(g=g) for w in before)
    joined = run(capsys, *before, f"{flag}={value}", *after)
    split = run(capsys, *before, flag, value, *after)
    assert split == joined
    assert joined[0] == code
    assert joined[1] if code == 0 else "error:" in joined[2]


# one polynomial each: not JSON, no "terms", an exponent vector of the wrong
# length, a zero denominator; then what the reader once misread and ran with,
# exit 0: an exponent vector given twice (x + 1 - x, read as 1 - x), a float
# exponent (x^2.7 - 1, read as x^2 - 1), a float numerator (1.5*x + 1, read
# as x + 1) and a bool denominator (read as 1)
BAD_POLY_JSON = {
    "not-json": '{"vars": ["x", "y"], "terms": [',
    "no-terms": '{"vars": ["x", "y"]}',
    "short-exponent": '{"vars": ["x", "y"], "terms": '
                      '[{"exp": [2], "num": "1", "den": "1"}]}',
    "zero-denominator": '{"vars": ["x", "y"], "terms": '
                        '[{"exp": [2, 0], "num": "1", "den": "0"}]}',
    "repeated-exponent": '{"vars": ["x", "y"], "terms": '
                         '[{"exp": [1, 0], "num": "1", "den": "1"}, '
                         '{"exp": [0, 0], "num": "1", "den": "1"}, '
                         '{"exp": [1, 0], "num": "-1", "den": "1"}]}',
    "float-exponent": '{"vars": ["x", "y"], "terms": '
                      '[{"exp": [2.7, 0], "num": "1", "den": "1"}, '
                      '{"exp": [0, 0], "num": "-1", "den": "1"}]}',
    "float-numerator": '{"vars": ["x", "y"], "terms": '
                       '[{"exp": [1, 0], "num": 1.5, "den": "1"}, '
                       '{"exp": [0, 0], "num": "1", "den": "1"}]}',
    "bool-denominator": '{"vars": ["x", "y"], "terms": '
                        '[{"exp": [1, 0], "num": "1", "den": true}]}',
    "repeated-vars": '{"vars": ["x", "x"], "terms": '
                     '[{"exp": [1, 0], "num": "1", "den": "1"}, '
                     '{"exp": [0, 1], "num": "1", "den": "1"}, '
                     '{"exp": [0, 0], "num": "-2", "den": "1"}]}',
    "string-vars": '{"vars": "xy", "terms": '
                   '[{"exp": [1, 0], "num": "1", "den": "1"}]}',
}


@pytest.mark.parametrize("command", ["trace", "groebner"])
@pytest.mark.parametrize("defect", sorted(BAD_POLY_JSON))
def test_malformed_polynomial_json_exits_2(tmp_path, capsys, command, defect):
    src = tmp_path / "g.json"
    if command == "trace":
        src.write_text(BAD_POLY_JSON[defect])
        argv = ("trace", "--g", str(src), "--bbox=-1,1,-1,1", "--res", "16")
    else:
        src.write_text(f"[{BAD_POLY_JSON[defect]}]")
        argv = ("groebner", "--in", str(src), "--vars", "x,y")
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error: malformed polynomial JSON")
    assert "Traceback" not in err


@pytest.mark.parametrize("text,ring,bbox", [
    ("x^2+y^2-1", ("x", "y"), "--bbox=-inf,inf,-1,1"),
    ("x^2+y^2-1", ("x", "y"), "--bbox=-1e308,1e308,-1,1"),
    ("x^2-1", ("x",), "--bbox=-2,2,-2,2"),
    ("x^2+y^2-r^2", ("x", "y", "r"), "--bbox=-2,2,-2,2"),
    ("x^2+y^2-r^2", ("x", "y", "r"), "--bbox=5,6,5,6"),
])
def test_trace_refuses_what_it_cannot_trace(tmp_path, capsys, text, ring,
                                            bbox):
    # a non-finite bounding box and a polynomial not over (x, y) are typed
    # errors (exit 2), with no traceback, warning or non-standard JSON
    src = tmp_path / "g.json"
    src.write_text(json.dumps(poly_to_dict(parse_poly(text, ring))))
    code, stdout, err = run(capsys, "trace", "--g", str(src), bbox,
                            "--res", "16", "--json")
    assert (code, stdout) == (2, "")
    assert err.startswith("error:")
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("offsets,stations", [("nan", "1"), ("0.2", "nan"),
                                              ("0.2,inf", "1")])
def test_mesh_refuses_non_finite_values(capsys, offsets, stations):
    # a NaN or infinite offset or station is a typed error (exit 2), not a
    # traceback or a failed refinement
    code, stdout, err = run(capsys, "mesh", "--a", "4", "--b", "2",
                            "--offsets", offsets, "--stations", stations)
    assert (code, stdout) == (2, "")
    assert err.startswith("error:") and "finite" in err
    assert "Traceback" not in err


def test_coefficients_past_the_float_range_exit_2(tmp_path, capsys):
    # an offset of 10^-320 gives integer coefficients near 10^640: the mesh
    # of that offset and the trace of that g are refused, not a traceback
    code, stdout, err = run(capsys, "mesh", "--a", "2", "--b", "1",
                            "--offsets", "1e-320", "--stations", "0.5")
    assert (code, stdout) == (2, "")
    assert err.startswith("error:") and "float range" in err
    code, stdout, _ = run(capsys, "offset-poly", "--conic", "ellipse", "--a",
                          "2", "--b", "1", "--r", f"1/{10 ** 320}", "--json")
    assert code == 0
    src = tmp_path / "g.json"
    src.write_text(json.dumps(json.loads(stdout)["g"]))
    code, stdout, err = run(capsys, "trace", "--g", str(src), "--bbox",
                            "-3,3,-3,3")
    assert (code, stdout) == (2, "")
    assert err.startswith("error:") and "float range" in err


def test_trace_resolution_above_the_cap_exits_3(tmp_path, capsys):
    src = tmp_path / "g.json"
    src.write_text(json.dumps(poly_to_dict(parse_poly("x^2+y^2-1", ("x", "y")))))
    code, stdout, err = run(capsys, "trace", "--g", str(src), "--bbox",
                            "0,1,0,1", "--res", "100000000")
    assert (code, stdout) == (3, "")
    assert err.startswith("resource limit:") and "8192" in err


@pytest.mark.parametrize("argv", [
    # the parabola's axis point (0, p + r^2/4p) lies past 1.8e308
    ("singular", "--conic", "parabola", "--p", "1/3", "--r", "1e200"),
    ("classify", "--conic", "parabola", "--p", "1/3", "--r", "1e1000"),
    # and so does the ellipse's r_crit = b^2/a
    ("mesh", "--a", "1e400", "--b", "1e399", "--offsets", "0.1",
     "--stations", "0.5"),
], ids=["singular", "classify", "mesh"])
def test_values_past_the_float_range_exit_2(capsys, argv):
    # a short typed error, not an OverflowError traceback or a long number
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err == "error: a value is past the float range\n"


def _cli_process(*args):
    # the CLI in a fresh interpreter on the package this process imports,
    # installed or not
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    import conicoffset

    package_root = str(Path(conicoffset.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + ([inherited] if inherited else [])))
    return subprocess.run([_sys.executable, "-m", "conicoffset.cli", *args],
                          capture_output=True, text=True, env=env, timeout=30)


@pytest.mark.parametrize("r", ["1e999999", "1e20000"])
def test_parameters_past_the_height_budget_exit_3(r):
    # 10^999999 once ran for minutes on r's powers, and 10^20000 for most of
    # a second before it reached an exit 2; the height budget refuses both
    # as soon as they are parsed
    out = _cli_process("classify", "--conic", "parabola", "--p", "1/3", "--r", r)
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr.startswith("resource limit: an exact parameter has ")
    assert "above the limit 3400" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("flags", [["--json"], [], ["--method", "elim", "--json"]],
                         ids=["json", "text", "elim"])
def test_coefficients_past_the_int_str_limit_print_in_full(tmp_path, flags):
    # r = 10^1000 is inside the height budget, and g's coefficients run to
    # 6,002 decimal digits, past Python's 4,300-digit limit on int-to-str
    # conversion (3.11, and 3.10.7 on): every digit is written and read
    # back, and the tracer reads the file without a traceback
    gfile = tmp_path / "g.json"
    out = _cli_process("offset-poly", "--conic", "parabola", "--p", "1/3",
                       "--r", "1e1000", "--out", str(gfile), *flags)
    assert out.returncode == 0 and out.stderr == ""
    g = offset_poly_closed_form(ConicSpec.parabola(Fraction(1, 3)),
                                Fraction(10) ** 1000).g
    assert poly_from_dict(json.loads(gfile.read_text())) == g
    if "--json" in flags:
        assert poly_from_dict(json.loads(out.stdout)["g"]) == g
    else:
        assert out.stdout == format_poly(g) + "\n"
    traced = _cli_process("trace", "--g", str(gfile), "--bbox=-6,6,-7,7",
                          "--res", "64", "--json")
    assert traced.returncode in (0, 2, 3) and "Traceback" not in traced.stderr


def test_int_str_limit_is_left_as_it_was(capsys):
    # the writers split long numbers themselves: an in-process call leaves
    # the interpreter-wide limit alone
    import sys
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, stdout, _ = run(capsys, "offset-poly", "--conic", "parabola", "--p",
                          "1/3", "--r", "1e1000", "--json")
    assert code == 0 and len(stdout) > 4300 and limit() == before


def test_offset_poly_has_no_elimination_order_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["offset-poly", "--conic", "parabola", "--p", "1/3", "--r", "1/4",
              "--method", "elim", "--elim-order", "lex"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --elim-order lex" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-pairs", "--max-degree"])
def test_offset_poly_has_no_budget_flags(capsys, flag):
    # the completion runs under buchberger's default budgets
    with pytest.raises(SystemExit) as exc:
        main(["offset-poly", "--conic", "parabola", "--p", "1/3", "--r", "1/4",
              "--method", "elim", flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_groebner_reads_stdin_by_default(tmp_path, capsys, monkeypatch):
    text = json.dumps([poly_to_dict(parse_poly(t, ("x", "y")))
                       for t in ("x^2-y", "x*y-1")])
    src = tmp_path / "ideal.json"
    src.write_text(text)
    argv = ("groebner", "--vars", "x,y", "--order", "lex", "--json")
    from_file = run(capsys, *argv, "--in", str(src))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, *argv) == from_file
    assert from_file[0] == 0


def test_missing_input_file_is_an_io_error(tmp_path, capsys):
    code, stdout, err = run(capsys, "trace", "--g", str(tmp_path / "missing.json"),
                            "--bbox", "0,1,0,1")
    assert (code, stdout) == (2, "")
    assert err.startswith("i/o error:") and "missing.json" in err


# inputs each refused where its check lives: the monomial order, the ideal,
# the reference catalogue, the block-size parse and the tracer's bbox
REFUSED_INPUTS = {
    "block-size-not-integer": ("groebner", "--in", "{ideal}", "--vars", "x,y",
                               "--order", "block:x"),
    "block-size-zero": ("groebner", "--in", "{ideal}", "--vars", "x,y",
                        "--order", "block:0"),
    "block-size-too-large": ("groebner", "--in", "{ideal}", "--vars", "x,y",
                             "--order", "block:5"),
    "repeated-variable": ("groebner", "--in", "{ideal}", "--vars", "x,y,x"),
    "no-generators": ("groebner", "--in", "{empty}", "--vars", "x,y"),
    "polys-object": ("groebner", "--in", "{polys}", "--vars", "x,y"),
    "unknown-reference-id": ("verify-paper", "42"),
    "reference-id-not-a-number": ("verify-paper", "abc"),
    "bbox-three-numbers": ("trace", "--g", "{g}", "--bbox=0,1,0"),
    "unknown-order": ("groebner", "--in", "{ideal}", "--vars", "x,y",
                      "--order", "foo"),
    "ellipse-without-b": ("offset-poly", "--conic", "ellipse", "--a", "3",
                          "--r", "1"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_INPUTS))
def test_refused_inputs_exit_2(tmp_path, capsys, name):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps([poly_to_dict(parse_poly(t, ("x", "y")))
                                 for t in ("x^2-y", "x*y-1")]))
    (tmp_path / "g.json").write_text(
        json.dumps(poly_to_dict(parse_poly("x^2-y", ("x", "y")))))
    (tmp_path / "empty.json").write_text("[]")
    (tmp_path / "polys.json").write_text(f'{{"polys": {ideal.read_text()}}}')
    files = {"ideal": ideal, "g": tmp_path / "g.json",
             "empty": tmp_path / "empty.json", "polys": tmp_path / "polys.json"}
    argv = [w.format(**files) for w in REFUSED_INPUTS[name]]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def _groebner_json(tmp_path, capsys, polys, variables):
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps([poly_to_dict(p) for p in polys]))
    return run(capsys, "groebner", "--in", str(src), "--vars", variables,
               "--order", "lex", "--json")


def test_groebner_embeds_inputs_into_vars(tmp_path, capsys):
    # polynomials over (x, y) read under --vars y,x give the basis of the
    # same polynomials written over (y, x)
    texts = ("x^2-y", "x*y-1")
    got = _groebner_json(tmp_path, capsys,
                         [parse_poly(t, ("x", "y")) for t in texts], "y,x")
    want = _groebner_json(tmp_path, capsys,
                          [parse_poly(t, ("y", "x")) for t in texts], "y,x")
    assert got == want and got[0] == 0
    assert json.loads(got[1])["vars"] == ["y", "x"]
    # a polynomial over (x,) alone is embedded into (x, y)
    got = _groebner_json(tmp_path, capsys, [parse_poly("x^2-1", ("x",)),
                                            parse_poly("x*y-1", ("x", "y"))],
                         "x,y")
    want = _groebner_json(tmp_path, capsys,
                          [parse_poly(t, ("x", "y")) for t in ("x^2-1", "x*y-1")],
                          "x,y")
    assert got == want and got[0] == 0


def test_groebner_variable_outside_vars_exits_2(tmp_path, capsys):
    code, stdout, err = _groebner_json(
        tmp_path, capsys, [parse_poly("x^2-z", ("x", "y", "z"))], "x,y")
    assert (code, stdout) == (2, "")
    assert err.startswith("error: variable 'z' not in --vars")


def test_groebner_out_writes_the_stdout_json(tmp_path, capsys):
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps([poly_to_dict(parse_poly(t, ("x", "y")))
                               for t in ("x^2-y", "x*y-1")]))
    out = tmp_path / "basis.json"
    code, stdout, _ = run(capsys, "groebner", "--in", str(src), "--vars", "x,y",
                          "--out", str(out), "--json")
    assert code == 0
    assert stdout == out.read_text() + "\n"


def test_mesh_svg_writes_the_mesh_figure(tmp_path, capsys):
    svg = tmp_path / "mesh.svg"
    code, stdout, _ = run(capsys, "mesh", "--a", "4", "--b", "2",
                          "--offsets", "0.3", "--stations", "3,0,-3",
                          "--svg", str(svg), "--json")
    assert code == 0 and json.loads(stdout)["svg"] == str(svg)
    spec = MeshSpec(ellipse=ConicSpec.ellipse(4, 2), offsets=(0.3,),
                    y_stations=(3.0, 0.0, -3.0))
    assert svg.read_text() == mesh_figure(spec, generate_mesh(spec))


@pytest.mark.parametrize("a,b,r", [("39/4", "9", "85/8"), ("39/4", "9", "12"),
                                   ("4/3", "1", "16/9"), ("5/3", "1", "25/9")])
def test_ellipse_offsets_at_and_beyond_a2_over_b(capsys, a, b, r):
    conic = ("--conic", "ellipse", "--a", a, "--b", b, "--r", r, "--json")
    code, stdout, err = run(capsys, "classify", *conic)
    assert (code, err) == (0, "")
    assert json.loads(stdout)["counts"]["real"] == 2
    docs = []
    for method in ("closed", "elimination"):
        code, stdout, err = run(capsys, "singular", *conic, "--method", method)
        assert (code, err) == (0, "")
        docs.append(json.loads(stdout))
    assert [d["count"] for d in docs] == [2, 2]
    assert docs[0]["complex_count"] == docs[1]["complex_count"]
    for pc, pe in zip(docs[0]["points"], docs[1]["points"]):
        assert abs(pc["x_float"] - pe["x_float"]) <= 1e-9


def _ideal_file(tmp_path, gens):
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps([poly_to_dict(parse_poly(t, ("x", "y")))
                               for t in gens]))
    return str(src)


def test_json_calls_build_no_text(tmp_path, capsys, monkeypatch):
    # under --json the text form is never printed, so it is never built
    calls = [("offset-poly", "--conic", "parabola", "--p", "1/3", "--r", "1/4",
              "--method", method, "--json") for method in ("closed", "elim")]
    calls.append(("groebner", "--in", _ideal_file(tmp_path, ["x^2-y", "x*y-1"]),
                  "--vars", "x,y", "--json"))
    before = [run(capsys, *argv) for argv in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("format_poly called under --json")

    monkeypatch.setattr(cli, "format_poly", refuse)
    assert [run(capsys, *argv) for argv in calls] == before
    assert all(code == 0 for code, _, _ in before)


def test_exit_code_resource_limit(tmp_path, capsys):
    code, _, err = run(capsys, "groebner", "--in",
                       _ideal_file(tmp_path, ["x^2-y", "x*y-1"]), "--vars",
                       "x,y", "--order", "lex", "--max-pairs", "2")
    assert code == 3 and "resource limit" in err


@pytest.mark.parametrize("flag", ["--max-pairs=-1", "--max-degree=-1"])
def test_negative_budgets_exit_2(tmp_path, capsys, flag):
    # a negative budget is a parameter error, whether or not any S-pair
    # would be processed: on one generator and on two; offset-poly has no
    # budget flags, so argparse refuses it there
    for gens in (["x^2-y"], ["x^2-y", "x*y-1"]):
        code, out, err = run(capsys, "groebner", "--in",
                             _ideal_file(tmp_path, gens), "--vars", "x,y",
                             "--order", "lex", flag)
        assert (code, out) == (2, "") and "ints >= 0" in err
    with pytest.raises(SystemExit) as exc:
        main(["offset-poly", "--conic", "ellipse", "--a", "3", "--b", "3/2",
              "--r", "1/2", "--method", "elim", flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_matches_fresh_parser(tmp_path, capsys, monkeypatch):
    # main reuses one parser per process; a sequence of calls through it,
    # failures included, prints and exits exactly as fresh parsers do
    ideal = _ideal_file(tmp_path, ["x^2-y", "x*y-1"])
    calls = [
        ("classify", "--conic", "parabola", "--p", "-1/2", "--r", "1/4"),
        ("classify", "--conic", "ellipse", "--a=1/0", "--b", "1", "--r", "1/4"),
        ("singular", "--conic", "hyperbola", "--a", "3/2", "--b", "1",
         "--r", "4/3", "--method", "elimination", "--format", "json"),
        ("classify", "--conic", "ellipse", "--a", "1", "--b", "2", "--r", "1/4"),
        ("groebner", "--in", ideal, "--vars", "x,y", "--order", "lex",
         "--max-pairs", "2"),
        ("offset-poly", "--conic", "ellipse", "--a", "3", "--b", "3/2",
         "--r", "1/2", "--json"),
        ("mesh", "--a", "4", "--b", "2", "--offsets", "abc", "--stations", "1"),
        ("classify", "--conic", "hyperbola", "--a", "2", "--b", "1",
         "--r", "1/4", "--json"),
        ("classify", "--conic", "parabola", "--p", "1/3", "--r", "1/4"),
    ]
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()
    shared = [_outcome(capsys, argv) for argv in calls]
    assert [c for c, _, _ in shared] == [0, 2, 0, 2, 3, 0, 2, 0, 0]
    assert shared[-1][1].startswith("r_crit = ")  # no --json carried over
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [_outcome(capsys, argv) for argv in calls]
    assert shared == fresh


# sha256 of `singular ... --format json` stdout for reference cases 1..9,
# both routes; recorded before the elimination route moved from two lex runs
# to one grevlex basis and compiled evaluators.  The closed-route hashes of
# cases 3, 6 and 9 were recorded again when the split points were derived
# from curvature: their residual digits moved, nothing else did.  The
# elimination-route hashes of the same cases were recorded again when the
# closed-form solvers took their smallest root from Vieta's product: again
# only residual digits moved.  The elimination-route hash of case 6 was
# recorded again when every eliminant root came to be correctly rounded: the
# split points' coordinates moved in their last digits, and their
# residual_grad with them (3.74e-62 -> 6.39e-62).  Cases 1-4 and 6-9 were
# recorded again when residuals came to be taken exactly at the rounded
# point: only residual_grad moved (GOLDEN_SINGULAR_POINTS, recorded before,
# still holds), and the rational points of cases 1, 2 and 8 now read 0;
# case 5's points are rational and read 0 before and after
GOLDEN_SINGULAR = {
    1: ("a2d7eab3efe77d465fdb6dadee43e8ca684323d0b54d386f98219add666743e4",
        "9f225137e474b2c8a6dcc81d0c550b3e0d1e82699477f409820a0306fb462bc6"),
    2: ("68515c34bee804bfd5b609b178a9f7985cc3a8609736815ebc93feafe7157e2a",
        "ce3fa2f683f769ba4e08241397960acd9bb99af263a3b7a0632e4f68db7549d2"),
    3: ("496857fb43c549b4c855b0e45b886ef31171146141ae3f4e508c73a6aae377f9",
        "1f66dec9085506f26dbe52bd0fc6c8ef608bb1b01a8e653632670d9b5738ff35"),
    4: ("decb642cff003b485c14dfdc5b5dccd059f20133361177aa4fdf10875ffc6562",
        "d83832f74cfeaca63a301e8658665824fd4084d0ad4c37218169a530da7125bc"),
    5: ("b1d36fc56d1210b533269701b0d1bfca6f4b7b4b90c539f7b96463c1c636c051",
        "0ca284aa975aa2d2ed5b41af244ac908c2a7dadd9e4d2921e9ac7176b659ae3a"),
    6: ("67293906dc64ad5d3522aa3bf2bc153566a379ae63f9b5c074226de056419e62",
        "e47c02bf8e52c8c339ff8482c014b5995aaf47b8b0d8378f25ca8664851ec2a2"),
    7: ("b1ec0b967ad44f2668cb71d97c22f45926b21d3ebfe14651a6447324ee7026f5",
        "050a8be32d4ccb866d322916fb7534f1484b9d6e472b0e32060e1cbb8973a953"),
    8: ("1bfbfebc5965c4a6b1ae45325d1c19629cc54b70bc448c0876fe69a8fd4d2d08",
        "e9e584312fe2800a3abcce8e3e88a2950ce87548712e8c3e9ff32f39a85fb37c"),
    9: ("fe4428beda21d6cf6d20db1a62d3f3a478e353cfa44084fb241762239c18c18d",
        "6a18d9f2768f1513c842139d3d5da7368cedf859a05281c66bc1ce46baaa8617"),
}


# sha256 of the same reports with every point's residual_grad removed, in
# the CLI's JSON form: the points, tags, counts and regime, which a change
# to how residuals are evaluated must leave as they are
GOLDEN_SINGULAR_POINTS = {
    1: ("b01effc759f226bb2a7acc4e49e94e779174625ee87678925233efd420929b5a",
        "3d3371cbbe3b4e43d1cac94be7cef9ba134f2d746b44097219272e81b9be1ab3"),
    2: ("450cfd137039a6048fc1d97c167449a1e687ec37088915441d0cea8877f7603d",
        "e300765184062c7f8cddf97a0bc9508d4d17ea29ccf699c8d1d960d3c4460e41"),
    3: ("c00d70d3915a145ffe0f9811efb40318be828273c1fe4f0df308523d687d4277",
        "79b25c8aac6f9ff96837d63aaddf6c0f327cde054cc70ffb34a47c15635c828d"),
    4: ("294d58274caabb6dd6709ff0b5acd2b255d0bc8312e4b9c4f4ba0406fc0bf6cc",
        "26d4a5605ccb9e409678d85c452042338c79147482961b4b9947453ab16a01ae"),
    5: ("48c32c3735bc25eae27954d46c3220e26d022117917e92c4b3936e4d9af6674d",
        "c736fd9845d1194be138982df8e8b5248f74ec24b7b684755a2dd429112b6389"),
    6: ("f794c3a96de803cea22b924f655065983cf45f34bf7c21e274e1002a23be5c6e",
        "2f88de0c81ee25e852f08771939827805932f36212fa3cd4cdeb142c9e09358c"),
    7: ("91672d3080af368f1c4623db312655f2ebcf40717a78c1744bc8215f2f9c33ba",
        "9413d71c6f17bebd27481b29f3e1a09db5efdf9016fb4917ffe1c9a62153b909"),
    8: ("f201e608f8e2bc5430a077ff89098888b3df68e3ac5b867f0fbb76d21a87d8b5",
        "2904a6edde51ab51da05e59d70db3cc17d0bf9d2a0a8df75129da40602b0c878"),
    9: ("ff24f91f165afe2ee0cf4164306f2c072be2249ea1ad033fb38f37e1ca7a714c",
        "3e255e21bb9704b882bf090f592e5266c380672d762d76a427f1ee7d17d523bc"),
}


# sha256 of `singular --method elimination --format json` stdout at height,
# the two 512-bit calls the CI also times: an ellipse of unrelated 512-bit
# a, b and r with b^2/a < r < b (6 points, even eliminants), and a
# supercritical parabola with p = b/3 (an eliminant in y not even)
_R_512 = ("771024833935643188899194047865326518706142285444891156766480075117462389"
           "737414861578182873770071338998115309539972343371870376321743581593989101"
           "0442734703/9206034525486771524609370512783124285992842017084689997868265"
           "487930811083912090260215522198967706005697090898284468240246202746665439"
           "985575208085058004074")
GOLDEN_SINGULAR_512 = {
    "ellipse": (
        ("--a=11479851613051394591753599638193309712564240198390353049607460260092"
         "083540013990198291106641279536954577481289841824908172217487950303269258"
         "277267674506253/11252902440338254723700328573479645349083170734400881577"
         "653369204697464713988437276558869933437016166244999435983888723181106995"
         "617257784120448400908638066",
         "--b=10266255729150507993713571318117070082221305162249524126623561281269"
         "333492243738450321877098919525267482013147150769087878587003580712842276"
         "860268778953599/11848990604599178847402871399850522678430065311746563682"
         "236234929863272460138425256985218966144907570334127998468282534310166670"
         "329686645436615587100229183"),
        "de383fc05e658923d210bece2e0276a9e9402732ef96e437db038ad4c8d4c214"),
    "parabola": (
        ("--p=10266255729150507993713571318117070082221305162249524126623561281269"
         "333492243738450321877098919525267482013147150769087878587003580712842276"
         "860268778953599/35546971813797536542208614199551568035290195935239691046"
         "708704789589817380415275770955656898434722711002383995404847602930500010"
         "989059936309846761300687549",),
        "af2e163913f29ac5c166eb14362959dc26dbbc5aee7518dbdcd63af241e2325b"),
}


def _singular_json_outputs(capsys, case_id):
    # `singular --format json` stdout of a reference case, closed route first
    c = reference.case(case_id)
    conic = conic_from_case(c)
    flags = [f"--{k}={v}" for k, v in conic.params]
    outs = []
    for method in ("closed", "elimination"):
        code, out, _ = run(capsys, "singular", "--conic", conic.kind, *flags,
                           f"--r={Fraction(c['r'])}", "--method", method,
                           "--format", "json")
        assert code == 0
        outs.append(out)
    return outs


@pytest.mark.parametrize("case_id", sorted(GOLDEN_SINGULAR))
def test_golden_singular_reports(capsys, case_id):
    got = tuple(hashlib.sha256(out.encode()).hexdigest()
                for out in _singular_json_outputs(capsys, case_id))
    assert got == GOLDEN_SINGULAR[case_id]


@pytest.mark.parametrize("case_id", sorted(GOLDEN_SINGULAR_POINTS))
def test_golden_singular_points(capsys, case_id):
    got = []
    for out in _singular_json_outputs(capsys, case_id):
        doc = json.loads(out)
        for point in doc["points"]:
            del point["residual_grad"]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        got.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(got) == GOLDEN_SINGULAR_POINTS[case_id]


@pytest.mark.parametrize("kind", sorted(GOLDEN_SINGULAR_512))
def test_golden_singular_by_elimination_at_512_bits(capsys, kind):
    flags, digest = GOLDEN_SINGULAR_512[kind]
    code, out, _ = run(capsys, "singular", "--conic", kind, *flags,
                       f"--r={_R_512}", "--method", "elimination",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_reports_a_wrong_point_count(monkeypatch):
    # a case whose singular points come back one short fails its count, and
    # its point error is inf rather than the error of a partial pairing
    solve = verify.singular_points

    def one_short(conic, r):
        rep = solve(conic, r)
        return dataclasses.replace(rep, points=rep.points[:-1])

    monkeypatch.setattr(verify, "singular_points", one_short)
    result = verify.verify_case(1)
    assert result["checks"]["singular_count"] is False
    assert result["checks"]["singular_max_abs_error"] == float("inf")
    assert result["passed"] is False


def test_verify_paper_subset(capsys):
    code, stdout, _ = run(capsys, "verify-paper", "1", "mesh", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["passed"] is True
    assert [r["id"] for r in doc["results"]] == ["1", "mesh"]


def test_verify_paper_determinism(capsys):
    code1, out1, _ = run(capsys, "verify-paper", "2", "5", "--json")
    code2, out2, _ = run(capsys, "verify-paper", "2", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_groebner_block_order(tmp_path, capsys):
    polys = [poly_to_dict(parse_poly(t, ("y0", "x")))
             for t in ("y0^2-x", "y0*x-1")]
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps(polys))
    code, stdout, _ = run(capsys, "groebner", "--in", str(src),
                          "--vars", "y0,x", "--order", "block:1", "--json")
    assert code == 0
    doc = json.loads(stdout)
    # block:1 eliminates y0: the basis contains a polynomial in x alone
    assert any(all(t["exp"][0] == 0 for t in p["terms"]) for p in doc["basis"])


# sha256 of `groebner --json` stdout, recorded with the signature-based
# completion; the reduced bases, without their stats, are the ones recorded
# before it.  Both ideals stop their lex call's grevlex stage over ring + h,
# so the lex stats add that stage's work to the direct completion's
GROEBNER_SYSTEMS = {
    "clo": ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x"),
    "frac": ("-3/2*x^2*y + 1/3*y^2 - x", "2/5*x*y^2 - 7*y + 1/4"),
}
GOLDEN_GROEBNER_JSON = {
    ("clo", "lex", False): "4b7ac18c8a53be4eaf15443e2f4fb82af54d1089d601a98524646242c5258de0",
    ("clo", "lex", True): "2cb4f4dc788e67433d00aa31c61d50c32da410a4cf8b93245f34838e28f24d62",
    ("clo", "grevlex", False): "b09234db6740b7f12a0586e7b7fa6323adaa3ca7841aea45cb1b81e5e625581a",
    ("clo", "grevlex", True): "81d554998b41bd41f657fed2ff60492d2cc3ee49972bcd1261af2e1ea80f5c4d",
    ("clo", "block:1", False): "7aff776dd2bcc25f5cb6b81f2e99345df0e27cc8e9750673737c608a9582a81b",
    ("clo", "block:1", True): "4d350facd661e933a79aff13e95fb238bb16dd3908c1e91d879bfd6eafabfccf",
    ("frac", "lex", False): "6a669d2f36daabd5f2b825911c75c73252094ff89f06495218970d59a8b556aa",
    ("frac", "lex", True): "d0393f30e43ce24c36c891244eaf06dd50eeffe53b982346f5e7e26d26f61d59",
    ("frac", "grevlex", False): "1b529e6844e56d82829b4e913c372fc666c75766da05ea4bfe55018edadbf0a6",
    ("frac", "grevlex", True): "3972e05fee34e8cb71dc808edfad668c774dbb9dce348aed99d7e7606583b8cb",
    ("frac", "block:1", False): "4d8d70666731cc0932508e4d56708a59690c20217a7aec587c3233213a768e97",
    ("frac", "block:1", True): "09cf22d50be8d8160ff8efd6f2570c264fab4eb879e3d0d0a1c797c38ca8a356",
}


@pytest.mark.parametrize("name", sorted(GROEBNER_SYSTEMS))
def test_golden_groebner_json(tmp_path, capsys, name):
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps([poly_to_dict(parse_poly(t, ("x", "y")))
                               for t in GROEBNER_SYSTEMS[name]]))
    base = ["groebner", "--in", str(src), "--vars", "x,y", "--json"]
    for (key, order, raw), want in GOLDEN_GROEBNER_JSON.items():
        if key == name:
            code, out, _ = run(capsys, *base, "--order", order,
                               *(["--no-reduce"] if raw else []))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want
    # exit 3 reports the partial statistics, with no basis-wide fields: the
    # pair budget runs out in the grevlex stage over ring + h, whose sizes
    # these are
    code, out, err = run(capsys, *base, "--order", "lex", "--max-pairs", "2")
    assert (code, out) == (3, "")
    assert err == ('resource limit: pair budget exceeded (2) (stats: {"basis_size":3,'
                   '"pairs_considered":3,"pairs_skipped_criteria":0,'
                   '"pending_pairs":1,"reductions":2,"zero_reductions":0})\n')


def test_groebner_lex_json_on_the_symbolic_ellipse(tmp_path, capsys):
    # the envelope ideal with a, b and r left symbolic is homogeneous, so
    # lex runs a grevlex stage first; the basis hash was recorded with the
    # direct lex completion, whose work counters read 2609, 2536 and 73
    from conicoffset.conics import build_ideal
    ideal = build_ideal("ellipse")
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps([poly_to_dict(g) for g in ideal.generators]))
    code, out, _ = run(capsys, "groebner", "--in", str(src), "--vars",
                       ",".join(ideal.ring), "--order", "lex", "--json")
    assert code == 0
    doc = json.loads(out)
    assert hashlib.sha256(json.dumps(doc["basis"]).encode()).hexdigest() == \
        "5e36bceebb398037179a5f72576f80e94b8a6efed821c8a2b834e42744e6424c"
    assert (doc["order"], doc["vars"]) == ("lex", list(ideal.ring))
    stats = doc["stats"]
    assert stats["basis_size"] == 34
    assert stats["degree_multiset"] == [27, 25, 23, 23, 23, 23, 21, 21, 20, 20,
                                        19, 18, 17, 16, 16, 15, 14, 13, 12, 11,
                                        10, 10, 9, 8, 8, 7, 7, 7, 6, 5, 5, 4, 4, 2]
    assert (stats["pairs_considered"], stats["pairs_skipped_criteria"],
            stats["reductions"]) == (959, 905, 57)


def test_groebner_lex_json_on_the_ellipse_with_r_fixed(tmp_path, capsys):
    # with r fixed the envelope ideal is inhomogeneous, and its homogenization
    # is saturated, so lex completes it over ring + h and sets h to 1; the
    # basis hash, size and degrees were recorded with the direct lex
    # completion, whose work counters read 2000, 1936 and 64
    from conicoffset.conics import build_ideal
    gens = [substitute(g, {"r": Fraction(9, 2)}) for g in build_ideal("ellipse").generators]
    ring = gens[0].ring
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps([poly_to_dict(g) for g in gens]))
    code, out, _ = run(capsys, "groebner", "--in", str(src), "--vars",
                       ",".join(ring), "--order", "lex", "--json")
    assert code == 0
    doc = json.loads(out)
    assert hashlib.sha256(json.dumps(doc["basis"]).encode()).hexdigest() == \
        "c82e3a942a6257b2f3ccc9db885486727da6478dcb936d00cfeec5568d0b9ac9"
    assert (doc["order"], doc["vars"]) == ("lex", list(ring))
    stats = doc["stats"]
    assert stats["basis_size"] == 31
    assert stats["degree_multiset"] == [27, 25, 25, 25, 25, 23, 23, 20, 20, 18,
                                        16, 16, 15, 14, 13, 12, 11, 10, 10, 10,
                                        9, 8, 7, 7, 7, 6, 5, 5, 4, 4, 2]
    assert (stats["pairs_considered"], stats["pairs_skipped_criteria"],
            stats["reductions"]) == (959, 905, 57)


def test_cross_process_determinism(tmp_path):
    # byte-identical stdout across separate interpreter processes (different
    # hash seeds), for a representative subcommand mix
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    import conicoffset

    # the child imports the same package as this process, installed or not
    package_root = str(Path(conicoffset.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([package_root] + ([inherited] if inherited else []))

    def run_proc(args, seed):
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
               "PYTHONPATH": pythonpath}
        out = subprocess.run([_sys.executable, "-m", "conicoffset.cli", *args],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        return out.stdout

    for args in (["verify-paper", "3", "6", "--json"],
                 ["offset-poly", "--conic", "hyperbola", "--a", "3/2",
                  "--b", "1", "--r", "4/3", "--method", "elim", "--json"],
                 ["singular", "--conic", "ellipse", "--a", "3", "--b", "3/2",
                  "--r", "4/3", "--format", "json"]):
        assert run_proc(args, "0") == run_proc(args, "12345")

    # the tracer: stdout and SVG bytes
    g = offset_poly_closed_form(ConicSpec.ellipse(3, Fraction(3, 2)),
                                Fraction(4, 3)).g
    gfile, svg = tmp_path / "g.json", tmp_path / "trace.svg"
    gfile.write_text(json.dumps(poly_to_dict(g)))
    args = ["trace", "--g", str(gfile), "--bbox=-4,4,-5,5", "--res", "128",
            "--mark-singular", "--svg", str(svg), "--json"]
    runs = [(run_proc(args, seed), svg.read_bytes()) for seed in ("0", "12345")]
    assert runs[0] == runs[1]

"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import hashlib
import json
from fractions import Fraction

import pytest

from conicoffset import cli, reference
from conicoffset.cli import main
from conicoffset.conics import ConicSpec, offset_poly_closed_form
from conicoffset.mesh import MeshSpec, generate_mesh, mesh_figure
from conicoffset.poly import parse_poly, poly_to_dict
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


SINGULAR_TEXT = """\
r_crit = 3/4  regime = supercritical  6 real point(s), 2 complex
  (-0.27684418911358416, -1.7450940736957248)  [split]  |grad| residual 5.98e-62
  (0.27684418911358416, -1.7450940736957248)  [split]  |grad| residual 5.98e-62
  (0, -1.1902380714238083)  [on-curve]  |grad| residual 7.47e-63
  (0, 1.1902380714238083)  [on-curve]  |grad| residual 7.47e-63
  (-0.27684418911358416, 1.7450940736957248)  [split]  |grad| residual 5.98e-62
  (0.27684418911358416, 1.7450940736957248)  [split]  |grad| residual 5.98e-62
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
# length, a zero denominator
BAD_POLY_JSON = {
    "not-json": '{"vars": ["x", "y"], "terms": [',
    "no-terms": '{"vars": ["x", "y"]}',
    "short-exponent": '{"vars": ["x", "y"], "terms": '
                      '[{"exp": [2], "num": "1", "den": "1"}]}',
    "zero-denominator": '{"vars": ["x", "y"], "terms": '
                        '[{"exp": [2, 0], "num": "1", "den": "0"}]}',
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
    "unknown-reference-id": ("verify-paper", "42"),
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
    files = {"ideal": ideal, "g": tmp_path / "g.json",
             "empty": tmp_path / "empty.json"}
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


def test_exit_code_resource_limit(capsys):
    code, _, err = run(capsys, "offset-poly", "--conic", "ellipse", "--a", "3",
                       "--b", "3/2", "--r", "1/2", "--method", "elim",
                       "--max-pairs", "2")
    assert code == 3 and "resource limit" in err


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_matches_fresh_parser(capsys, monkeypatch):
    # main reuses one parser per process; a sequence of calls through it,
    # failures included, prints and exits exactly as fresh parsers do
    calls = [
        ("classify", "--conic", "parabola", "--p", "-1/2", "--r", "1/4"),
        ("classify", "--conic", "ellipse", "--a=1/0", "--b", "1", "--r", "1/4"),
        ("singular", "--conic", "hyperbola", "--a", "3/2", "--b", "1",
         "--r", "4/3", "--method", "elimination", "--format", "json"),
        ("classify", "--conic", "ellipse", "--a", "1", "--b", "2", "--r", "1/4"),
        ("offset-poly", "--conic", "ellipse", "--a", "3", "--b", "3/2",
         "--r", "1/2", "--method", "elim", "--max-pairs", "2"),
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
# to one grevlex basis and compiled mp evaluators.  The closed-route hashes of
# cases 3, 6 and 9 were recorded again when the split points were derived
# from curvature: their residual digits moved, nothing else did.  The
# elimination-route hashes of the same cases were recorded again when the
# closed-form solvers took their smallest root from Vieta's product: again
# only residual digits moved
GOLDEN_SINGULAR = {
    1: ("4f9fddb063291d61b587ac0ee7f8f45f7ea80cc52a81cb0af56536afb9fbbbe2",
        "5acf3e3cc4a114bd25d34859d6553313ef09ba59f21ef6483ccfa56592e61d4a"),
    2: ("41640d659a04abee06d2e178cece0fba3042b81e0b2d50f19c4e9aab40a935e2",
        "976f7a2623c054190c5a99c0165b01523503f71ed2d4c6e604a5332606be7e74"),
    3: ("74d6d3e72fb4cbca65b14827033af14108ff9b3385e034dc0c078028c47e91a4",
        "dc7bb8a594acaa4448891102d1586b5fe6568859f55dde8f0281014c11311b65"),
    4: ("b97c28de754b2181d6fd099e1bcc914dae6ce65095c3bf97bb8b07070b18210e",
        "6340f552bfc461a497524b44630a774fb02029ee6ba0d77bef427dc8c97a6f5d"),
    5: ("b1d36fc56d1210b533269701b0d1bfca6f4b7b4b90c539f7b96463c1c636c051",
        "0ca284aa975aa2d2ed5b41af244ac908c2a7dadd9e4d2921e9ac7176b659ae3a"),
    6: ("d77d441d7a65bed3a03e575f9cb8c22403d6b3a7cca39ae9f32584dc1a4b1a67",
        "e8365b2221da7b53f999e70f95a6d7ea9468e1b213895f74034b89bbf6bfc348"),
    7: ("1728cdab981ed01a71d53126ce95715be293afc72d9307776df9ef65e69ca73a",
        "18a3f80316eb86a2a4e008aa404f101d6762fd82bb0a93969e4961ff6c6b704d"),
    8: ("a0a8ddc9601904c2357f4aff99cc2698e0172881d812daae4d85d8e5f0b04de7",
        "be1c24edeb6af497fdaf6bf83ca6927ea69468a949a6680f1fc9244a693d7fc3"),
    9: ("588d6e1137289cbed59d2fe4e57b7713f7f120c729e94dc99364001bba75584d",
        "9c6ef21658e74c4f63913bce34b437a5075d54af57e95266f5d19096122bc18d"),
}


@pytest.mark.parametrize("case_id", sorted(GOLDEN_SINGULAR))
def test_golden_singular_reports(capsys, case_id):
    c = reference.case(case_id)
    conic = conic_from_case(c)
    flags = [f"--{k}={v}" for k, v in conic.params]
    got = []
    for method in ("closed", "elimination"):
        code, out, _ = run(capsys, "singular", "--conic", conic.kind, *flags,
                           f"--r={Fraction(c['r'])}", "--method", method,
                           "--format", "json")
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == GOLDEN_SINGULAR[case_id]


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


# sha256 of `groebner --json` stdout, recorded before the basis stayed packed
# from completion through reduction
GROEBNER_SYSTEMS = {
    "clo": ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x"),
    "frac": ("-3/2*x^2*y + 1/3*y^2 - x", "2/5*x*y^2 - 7*y + 1/4"),
}
GOLDEN_GROEBNER_JSON = {
    ("clo", "lex", False): "474a5fb736a57dadd677d41dbdd04117e4986dbb24a17646ead4ec7ad6c057ad",
    ("clo", "lex", True): "aa0e66d1c62cd973324bd3146c6b2d63c02d506dca4a12e7ee50bf5604165edb",
    ("clo", "grevlex", False): "3cc7118f24fb600e28d12bdc3a5e41eab4b24f275c2f6bea4a20534c66333ad1",
    ("clo", "grevlex", True): "614d124ce0d1056f65bef67e772f45256051c131b24c0ad7ad05076adffc9085",
    ("clo", "block:1", False): "41664e95aac7ff043995e684d0f59490ea6411988127274dde0af0e0de6fe844",
    ("clo", "block:1", True): "2ffce4727b3152802e7cd8cbe3c65dbae6387033e1ddb7a442e98bf054e99153",
    ("frac", "lex", False): "07157655e3efd5712798384fa6a0fae22c3f500dea06500eae7e9759b42e8fa3",
    ("frac", "lex", True): "0da51033e3c72090424a1cba75f47a30a2a0d1576626d85f909bab9b7dc5ef07",
    ("frac", "grevlex", False): "b21992026fe1e4110a9b0fffc724032f18f428adc55c324fb7ffe74e8c193579",
    ("frac", "grevlex", True): "9d0f2a6400abf9100a9dfcbfef10f6f83363e3fdb65eb4202c5924543725a06e",
    ("frac", "block:1", False): "4056917431cd40bc21802f650ab7a72a09d6a214f7a9fa5819a6df9bd84dbb36",
    ("frac", "block:1", True): "b0322e7648b8460b298390d724e877f0025824583bac9cf25920d4db3893b567",
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
    # exit 3 reports the partial statistics, with no basis-wide fields
    code, out, err = run(capsys, *base, "--order", "lex", "--max-pairs", "2")
    assert (code, out) == (3, "")
    assert err == ('resource limit: pair budget exceeded (2) (stats: {"basis_size":4,'
                   '"pairs_considered":3,"pairs_skipped_criteria":0,'
                   '"pending_pairs":3,"reductions":2})\n')


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

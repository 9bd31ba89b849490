"""Command-line interface: one executable, one subcommand per capability.

Exit codes: 0 success, 2 precondition/parameter errors, 3 resource limits.
Every subcommand takes --json for machine-readable output; all output is
deterministic (sorted keys, no timestamps).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .conics import (ConicSpec, offset_poly_closed_form, offset_poly_elimination,
                     r_crit, singular_points, singular_points_via_elimination)
from .errors import ConicOffsetError, PreconditionError, ResourceLimitError
from .groebner import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_PAIRS, Ideal, buchberger,
                       reduce_basis)
from .mesh import MeshSpec, export_mesh, generate_mesh, mesh_figure
from .curve import plot_svg, trace_implicit
from .poly import (MultiPoly, block, grevlex, lex, poly_from_dict, poly_to_dict,
                   format_poly, rat)

EXIT_OK, EXIT_PRECONDITION, EXIT_RESOURCE = 0, 2, 3


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit(args, doc, text=None):
    if getattr(args, "json", False) or text is None:
        print(_dump(doc))
    else:
        print(text)


def _frac_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _rational(text: str) -> Fraction:
    """argparse type: an exact rational such as 3, -4 or 3/2."""
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from None


def _floats(text: str) -> tuple:
    """argparse type: comma-separated decimals."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


def _conic_from_args(args) -> ConicSpec:
    if args.conic == "parabola":
        if args.p is None:
            raise PreconditionError("--p is required for a parabola")
        return ConicSpec.parabola(args.p)
    if args.a is None or args.b is None:
        raise PreconditionError(f"--a and --b are required for a {args.conic}")
    maker = ConicSpec.ellipse if args.conic == "ellipse" else ConicSpec.hyperbola
    return maker(args.a, args.b)


def _add_conic_flags(sub):
    sub.add_argument("--conic", required=True,
                     choices=["parabola", "ellipse", "hyperbola"])
    sub.add_argument("--p", type=_rational,
                     help="parabola focal parameter (rational, e.g. 1/3)")
    sub.add_argument("--a", type=_rational,
                     help="major/transverse semi-axis (rational)")
    sub.add_argument("--b", type=_rational,
                     help="minor/conjugate semi-axis (rational)")
    sub.add_argument("--r", type=_rational, required=True,
                     help="offset distance (rational)")


def _load_polys(fh, parse):
    """``parse`` applied to the JSON document read from ``fh``.

    A file that is not JSON or does not describe polynomials (a missing key,
    a wrong type, an exponent vector of the wrong length, a zero
    denominator) raises PreconditionError instead of a traceback.
    """
    try:
        return parse(json.load(fh))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise PreconditionError(f"malformed polynomial JSON in {fh.name}: "
                                f"{type(exc).__name__}: {exc}") from None


def _point_json(s):
    def enc(v):
        return _frac_str(v) if isinstance(v, Fraction) else float(v)
    return {"x": enc(s.x), "y": enc(s.y), "x_float": float(s.x),
            "y_float": float(s.y), "tag": s.tag,
            "residual_grad": s.residual_grad}


def _report_json(rep):
    return {
        "conic": rep.conic.describe(),
        "r": _frac_str(rep.r),
        "r_crit": _frac_str(rep.r_crit),
        "regime": rep.regime,
        "count": len(rep.points),
        "complex_count": rep.complex_count,
        "outside_reference_range": rep.outside_reference_range,
        "source": rep.source,
        "points": [_point_json(s) for s in rep.points],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _poly_list(data) -> list:
    return [poly_from_dict(pd)
            for pd in (data if isinstance(data, list) else data["polys"])]


def cmd_groebner(args):
    if args.infile == "-":
        polys_in = _load_polys(sys.stdin, _poly_list)
    else:
        with open(args.infile) as fh:
            polys_in = _load_polys(fh, _poly_list)
    variables = tuple(args.vars.split(","))
    gens = []
    for p in polys_in:
        if tuple(p.ring) != variables:
            terms = {}
            for m, c in p.terms.items():
                exps = [0] * len(variables)
                for v, e in zip(p.ring, m):
                    if e:
                        if v not in variables:
                            raise PreconditionError(f"variable {v!r} not in --vars")
                        exps[variables.index(v)] = e
                terms[tuple(exps)] = c
            p = MultiPoly(variables, terms)
        gens.append(p)
    if args.order == "lex":
        order = lex(variables)
    elif args.order == "grevlex":
        order = grevlex(variables)
    elif args.order.startswith("block:"):
        try:
            size = int(args.order.split(":", 1)[1])
        except ValueError:
            raise PreconditionError(
                f"block size in {args.order!r} is not an integer") from None
        order = block(variables, size)
    else:
        raise PreconditionError(f"unknown order {args.order!r}")
    gb = buchberger(Ideal(variables, tuple(gens)), order,
                    max_pairs=args.max_pairs, max_degree=args.max_degree)
    if not args.no_reduce:
        gb = reduce_basis(gb)
    doc = {
        "order": args.order,
        "vars": list(variables),
        "basis": [poly_to_dict(p, order) for p in gb.polys],
        "stats": {
            "pairs_considered": gb.stats.get("pairs_considered", 0),
            "pairs_skipped_criteria": gb.stats.get("pairs_skipped_criteria", 0),
            "reductions": gb.stats.get("reductions", 0),
            "basis_size": len(gb.polys),
            "degree_multiset": gb.degree_multiset(),
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dump(doc))
    _emit(args, doc, text="\n".join(format_poly(p, order) for p in gb.polys)
          + "\n" + _dump(doc["stats"]))
    return EXIT_OK


def cmd_offset_poly(args):
    conic = _conic_from_args(args)
    r = args.r
    if args.method == "closed":
        curve = offset_poly_closed_form(conic, r)
    else:
        curve = offset_poly_elimination(conic, r, order=args.elim_order,
                                        max_pairs=args.max_pairs,
                                        max_degree=args.max_degree)
    doc = {
        "conic": conic.describe(),
        "r": _frac_str(curve.r),
        "source": curve.source,
        "g": poly_to_dict(curve.g),
        "terms": len(curve.g),
        "degree": curve.g.degree(),
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dump(poly_to_dict(curve.g)))
    _emit(args, doc, text=format_poly(curve.g))
    return EXIT_OK


def cmd_singular(args):
    conic = _conic_from_args(args)
    r = args.r
    if args.method == "elimination":
        rep = singular_points_via_elimination(conic, r)
    else:
        rep = singular_points(conic, r)
    doc = _report_json(rep)
    lines = [f"r_crit = {doc['r_crit']}  regime = {doc['regime']}  "
             f"{doc['count']} real point(s), {doc['complex_count']} complex"]
    for p in doc["points"]:
        lines.append(f"  ({p['x']}, {p['y']})  [{p['tag']}]  "
                     f"|grad| residual {p['residual_grad']:.2e}")
    _emit(args, doc, text=None if args.format == "json" else "\n".join(lines))
    return EXIT_OK


def cmd_classify(args):
    rep = _report_json(singular_points(_conic_from_args(args), args.r))
    doc = {k: rep[k] for k in ("conic", "r", "r_crit", "regime",
                               "outside_reference_range")}
    doc["counts"] = {"real": rep["count"], "complex": rep["complex_count"]}
    _emit(args, doc, text=f"r_crit = {doc['r_crit']}  regime = {doc['regime']}  "
                          f"real = {rep['count']}  complex = {rep['complex_count']}")
    return EXIT_OK


def cmd_trace(args):
    with open(args.g) as fh:
        g = _load_polys(fh, poly_from_dict)
    traced = trace_implicit(g, args.bbox, args.res)
    markers = list(traced.singular_vertices) if args.mark_singular else []
    if args.svg:
        plot_svg([traced], markers, path=args.svg)
    doc = {
        "polylines": len(traced.polylines),
        "vertices": traced.vertex_count(),
        "bbox": list(traced.bbox),
        "resolution": traced.resolution,
        "singular_vertices": [[p.x, p.y] for p in markers],
        "svg": args.svg or None,
    }
    _emit(args, doc, text=f"{doc['polylines']} polyline(s), {doc['vertices']} "
                          f"vertices" + (f", svg -> {args.svg}" if args.svg else ""))
    return EXIT_OK


def cmd_mesh(args):
    ellipse = ConicSpec.ellipse(args.a, args.b)
    spec = MeshSpec(ellipse=ellipse, offsets=args.offsets, y_stations=args.stations)
    mesh = generate_mesh(spec)
    text = export_mesh(mesh, path=args.out)
    if args.svg:
        mesh_figure(spec, mesh, path=args.svg)
    doc = {
        "rows": mesh.rows,
        "cols": mesh.cols,
        "nodes": mesh.rows * mesh.cols,
        "quad4": len(mesh.quad4),
        "quad9": len(mesh.quad9),
        "out": args.out or None,
        "svg": args.svg or None,
    }
    _emit(args, doc,
          text=f"{mesh.rows}x{mesh.cols} mesh, {mesh.rows * mesh.cols} nodes, "
               f"{len(mesh.quad4)} quad4, {len(mesh.quad9)} quad9"
               + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_verify_paper(args):
    from .verify import verify_case

    ids = args.ids or ["1", "2", "3", "4", "5", "6", "7", "8", "9", "mesh"]
    results = [verify_case(i) for i in ids]
    doc = {"results": results, "passed": all(r["passed"] for r in results)}
    lines = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"[{status}] {r['id']}: {r['summary']}")
    _emit(args, doc, text="\n".join(lines))
    return EXIT_OK if doc["passed"] else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conicoffset",
        description="Exact offset curves (parallel lines) of nondegenerate "
                    "conics: Groebner elimination, singular points, tracing, "
                    "layered meshes.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groebner", help="Groebner basis of an ideal from JSON")
    g.add_argument("--in", dest="infile", default="-",
                   help="JSON file with a list of polynomials (default stdin)")
    g.add_argument("--vars", required=True, help="comma-separated ring variables")
    g.add_argument("--order", default="grevlex",
                   help="lex | grevlex | block:k (default grevlex)")
    g.add_argument("--max-pairs", type=int, default=DEFAULT_MAX_PAIRS)
    g.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    g.add_argument("--no-reduce", action="store_true",
                   help="skip reduction to the unique reduced basis")
    g.add_argument("--out", help="write the basis JSON here as well")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_groebner)

    o = sub.add_parser("offset-poly", help="implicit polynomial of the parallel lines")
    _add_conic_flags(o)
    o.add_argument("--method", choices=["closed", "elim"], default="closed")
    o.add_argument("--elim-order", choices=["block", "lex"], default="block")
    o.add_argument("--max-pairs", type=int, default=DEFAULT_MAX_PAIRS)
    o.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    o.add_argument("--out", help="write polynomial JSON here")
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_offset_poly)

    s = sub.add_parser("singular", help="singular points of the offset variety")
    _add_conic_flags(s)
    s.add_argument("--method", choices=["closed", "elimination"], default="closed")
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.add_argument("--json", action="store_const", dest="format", const="json",
                   help="same as --format json")
    s.set_defaults(func=cmd_singular)

    c = sub.add_parser("classify", help="offset regime against the critical offset")
    _add_conic_flags(c)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    t = sub.add_parser("trace", help="marching-squares trace of a polynomial JSON")
    t.add_argument("--g", required=True, help="polynomial JSON file")
    t.add_argument("--bbox", type=_floats, required=True, help="x0,x1,y0,y1")
    t.add_argument("--res", type=int, default=512)
    t.add_argument("--svg", help="write an SVG figure here")
    t.add_argument("--mark-singular", action="store_true")
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_trace)

    m = sub.add_parser("mesh", help="layered FEM mesh over an ellipse")
    m.add_argument("--a", type=_rational, required=True)
    m.add_argument("--b", type=_rational, required=True)
    m.add_argument("--offsets", type=_floats, required=True,
                   help="comma-separated decimals")
    m.add_argument("--stations", type=_floats, required=True,
                   help="comma-separated y values")
    m.add_argument("--out", help="write mesh JSON here")
    m.add_argument("--svg", help="write an SVG overlay here")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_mesh)

    v = sub.add_parser("verify-paper",
                       help="run the bundled reference-case verification suite")
    v.add_argument("ids", nargs="*",
                   help="1..9, appendixA, appendixB, mesh (default: 1..9 mesh)")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify_paper)
    return ap


_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _bind_negative_values(argv) -> list:
    """Join a value such as -1/2 or -1.5,1 to the long option before it.

    argparse takes a word that starts with '-' for an option unless it is a
    plain negative number, so '--p -1/2' would leave --p without a value;
    '--p=-1/2' is what it means.
    """
    out = []
    for word in argv:
        if (out and _NEGATIVE_VALUE.match(word) and out[-1].startswith("--")
                and out[-1] != "--" and "=" not in out[-1]):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    ap = _shared_parser()
    args = ap.parse_args(_bind_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc} (stats: {_dump(exc.stats)})", file=sys.stderr)
        return EXIT_RESOURCE
    except ConicOffsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

"""Float services: evaluation, offset samples, tracing, curvature, SVG."""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from conicoffset.conics import (ConicSpec, offset_poly_closed_form, r_crit,
                                singular_points)
from conicoffset.curve import (Point2, conic_point_and_normal, curvature,
                               eval_poly, max_abs_coeff, max_curvature,
                               offset_figure, parametric_offset_samples,
                               plot_svg, trace_implicit, xy_evaluator,
                               _segment_distance)
from conicoffset.errors import ParamError, PreconditionError, VarError
from conicoffset.poly import gradient, parse_poly
from conicoffset.reference import case as ref_case
from conicoffset.verify import conic_from_case

CIRCLE = parse_poly("x^2+y^2-1", ("x", "y"))


def dist_to_trace(tc, px, py):
    best = float("inf")
    for pl in tc.polylines:
        for a, b in zip(pl, pl[1:]):
            best = min(best, _segment_distance(px, py, a, b))
    return best


def test_eval_poly():
    assert eval_poly(CIRCLE, (1.0, 0.0)) == 0.0
    assert eval_poly(CIRCLE, (2.0, 0.0)) == 3.0
    g1 = offset_poly_closed_form(ConicSpec.parabola(F(1, 3)), F(1, 4)).g
    v = eval_poly(g1, (0.0, 73.0 / 192.0))
    assert abs(v) <= 1e-9 * max_abs_coeff(g1)
    sym = parse_poly("x+y+r", ("x", "y", "r"))
    assert eval_poly(sym, (1, 2), r=3) == 6.0
    with pytest.raises(VarError):
        eval_poly(sym, (1, 2))


def test_parametric_samples_on_variety():
    for conic, rs in [
        (ConicSpec.parabola(F(1, 3)), (F(1, 4), F(2, 3), F(3, 2))),
        (ConicSpec.ellipse(3, F(3, 2)), (F(1, 2), F(3, 4), F(4, 3))),
        (ConicSpec.hyperbola(F(3, 2), 1), (F(1, 2), F(2, 3), F(4, 3))),
    ]:
        for r in rs:
            g = offset_poly_closed_form(conic, r).g
            scale = max_abs_coeff(g)
            pts = parametric_offset_samples(conic, float(r), 500)
            assert len(pts) == 1000
            assert max(abs(eval_poly(g, p)) for p in pts) <= 1e-7 * scale


def test_samples_structure_and_errors():
    conic = ConicSpec.parabola(F(1, 3))
    pts = parametric_offset_samples(conic, 0.25, 5)
    # odd n includes the vertex parameter; its two offsets sit on the y-axis
    mid = sorted(pts, key=lambda p: abs(p.x))[:2]
    assert {round(p.y, 12) for p in mid} == {0.25, -0.25}
    ell = ConicSpec.ellipse(3, F(3, 2))
    (x0, y0), (nx, ny) = conic_point_and_normal(ell, 0.0)
    assert (x0, y0) == (1.5, 0.0) and (nx, ny) == (1.0, 0.0)
    epts = parametric_offset_samples(ell, 0.5, 4)
    near = sorted(epts, key=lambda p: abs(p.y))[:2]
    assert {round(p.x, 12) for p in near} == {2.0, 1.0}
    with pytest.raises(ParamError):
        parametric_offset_samples(conic, 0.25, 1)
    with pytest.raises(ParamError):
        parametric_offset_samples(conic, -1.0, 5)


def test_trace_circle():
    tc = trace_implicit(CIRCLE, (-2, 2, -2, 2), 256)
    assert len(tc.polylines) == 1
    assert max(abs(math.hypot(p.x, p.y) - 1) for p in tc.polylines[0]) <= 1e-3
    closed = tc.polylines[0]
    assert math.hypot(closed[0].x - closed[-1].x, closed[0].y - closed[-1].y) < 0.05


def test_trace_constant_empty():
    one = parse_poly("1", ("x", "y"))
    assert trace_implicit(one, (-1, 1, -1, 1), 16).polylines == ()


def test_trace_resolution_precondition():
    with pytest.raises(ParamError):
        trace_implicit(CIRCLE, (-1, 1, -1, 1), 4)


def test_trace_vertex_residuals():
    # type invariant: every vertex within 1e-6 * max|coeff|, cusps included
    for conic, r, bbox, res in [
        (ConicSpec.ellipse(3, F(3, 2)), F(1, 2), (-3, 3, -4, 4), 256),
        (ConicSpec.parabola(F(1, 3)), F(3, 2), (-3, 3, -1.5, 4), 512),
    ]:
        g = offset_poly_closed_form(conic, r).g
        tc = trace_implicit(g, bbox, res)
        scale = max_abs_coeff(g)
        worst = max(abs(eval_poly(g, (p.x, p.y)))
                    for pl in tc.polylines for p in pl)
        assert worst <= 1e-6 * scale


def test_trace_passes_through_singular_points():
    case = ref_case(3)
    conic = conic_from_case(case)
    g = offset_poly_closed_form(conic, F(case["r"])).g
    tc = trace_implicit(g, (-3, 3, -1.5, 4), 512)
    rep = singular_points(conic, F(case["r"]))
    for s in rep.points:
        assert dist_to_trace(tc, *s.as_floats()) <= 1e-3
    assert len(tc.singular_vertices) == 3


def test_trace_determinism():
    a = trace_implicit(CIRCLE, (-2, 2, -2, 2), 128)
    b = trace_implicit(CIRCLE, (-2, 2, -2, 2), 128)
    assert a == b


def test_oracle_equivalence_hausdorff():
    # one-sided distance from parametric samples to the trace <= 2 grid cells
    for conic, r, bbox in [
        (ConicSpec.parabola(F(1, 3)), F(2, 3), (-4, 4, -2, 14)),
        (ConicSpec.ellipse(3, F(3, 2)), F(4, 3), (-4, 4, -5, 5)),
        (ConicSpec.hyperbola(F(3, 2), 1), F(1, 2), (-4, 4, -6, 6)),
    ]:
        g = offset_poly_closed_form(conic, r).g
        tc = trace_implicit(g, bbox, 512)
        cell = max(bbox[1] - bbox[0], bbox[3] - bbox[2]) / 512
        pts = [p for p in parametric_offset_samples(conic, float(r), 500)
               if bbox[0] + cell < p.x < bbox[1] - cell
               and bbox[2] + cell < p.y < bbox[3] - cell]
        worst = max(dist_to_trace(tc, p.x, p.y) for p in pts)
        assert worst <= 2 * cell, (conic.kind, worst, cell)


def test_virtual_point_isolation_shrinks():
    conic = ConicSpec.parabola(F(1, 3))
    rc = r_crit(conic)
    dists = []
    for k in (F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(17, 18)):
        r = rc * k
        g = offset_poly_closed_form(conic, r).g
        tc = trace_implicit(g, (-3, 3, -2, 3), 256)
        rep = singular_points(conic, r)
        (s,) = rep.points
        d = dist_to_trace(tc, *s.as_floats())
        assert d > 0
        dists.append(d)
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_virtual_point_reported_but_not_spliced():
    # the trace pins the virtual singular point as a marker, yet keeps it off
    # the polylines (it is an isolated zero, not part of the smooth curve)
    conic = ConicSpec.parabola(F(1, 3))
    r = r_crit(conic) * F(17, 18)
    g = offset_poly_closed_form(conic, r).g
    tc = trace_implicit(g, (-3, 3, -2, 3), 256)
    assert len(tc.singular_vertices) == 1
    (s,) = singular_points(conic, r).points
    d = dist_to_trace(tc, *s.as_floats())
    assert d > 5e-4


def test_curvature_link():
    for conic in (ConicSpec.parabola(F(1, 3)), ConicSpec.ellipse(3, F(3, 2)),
                  ConicSpec.hyperbola(F(3, 2), 1)):
        k = max_curvature(conic)
        assert abs(float(r_crit(conic)) * k - 1) <= 1e-9
    # spot value: parabola vertex curvature is 1/(2|p|)
    assert curvature(ConicSpec.parabola(F(1, 2)), 0.0) == pytest.approx(1.0)


def test_plot_svg():
    tc = trace_implicit(CIRCLE, (-2, 2, -2, 2), 64)
    svg = plot_svg([tc], [Point2(0.0, 0.0)])
    assert svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 1
    assert plot_svg([tc], [Point2(0, 0)]) == svg  # deterministic
    with pytest.raises(PreconditionError):
        plot_svg([], [])


@pytest.mark.parametrize("case_id,markers", [(1, 1), (6, 6)])
def test_offset_figure_marker_counts(case_id, markers, tmp_path):
    case = ref_case(case_id)
    conic = conic_from_case(case)
    out = tmp_path / "fig.svg"
    svg = offset_figure(conic, F(case["r"]), resolution=96, path=str(out))
    assert svg.count("<circle") == markers
    assert out.read_text() == svg


# ---------------------------------------------------------------------------
# Golden float outputs, recorded with the per-call evaluator that
# reference_eval_poly below copies.  They pin every float of the trace and
# the SVG (and, in test_mesh.py, of the mesh) bit for bit: a change in the
# order of floating-point operations changes them.
# ---------------------------------------------------------------------------

def figure_bbox(conic, r):
    # the default bbox of offset_figure, restated so the golden cases stay put
    rf = float(r)
    if conic.kind == "parabola":
        p4 = 4 * abs(float(conic.p))
        return (-2 * p4 - rf, 2 * p4 + rf, -p4 - rf, 3 * p4 + rf)
    a, b = float(conic.a), float(conic.b)
    return (-b - 3 * rf - 1, b + 3 * rf + 1, -a - 3 * rf - 1, a + 3 * rf + 1)


def trace_digest(tc):
    h = hashlib.sha256()
    for pl in tc.polylines:
        h.update(";".join(f"{float.hex(p.x)},{float.hex(p.y)}"
                          for p in pl).encode())
        h.update(b"|")
    h.update(b"#")
    h.update(";".join(f"{float.hex(p.x)},{float.hex(p.y)}"
                      for p in tc.singular_vertices).encode())
    return h.hexdigest()


GOLDEN_TRACE_256 = {
    1: "6c9066127d9835a28c2e93c74f4f7d824fc62b833ced1c9f64394988b8546255",
    2: "a3e5e97110eab52ed9ac95709c5be3b473f7ba04a0f28845b1bda4c8031bb563",
    3: "4de57b9c1d9db278e429055a81b7467558ca8539c26b56a3877adb4943c1daf3",
    4: "8b2e525783268de010d3bc2a66ef6e50ef308757e2943ec165f269cd685daa8e",
    5: "9a33ed4f451f3dad652d3d4c091c9e583b10843c5262799d8cf3c3d6b92a922c",
    6: "55479be88145beb0fe4801edf4250180df38b4b7a45ba7f9823b95b9b89c3945",
    7: "09682c216f824d5c41896a5d3599f19a8a5d838085cc86ef5c86fb7bc458ae02",
    8: "8c342c8294e0ecfaf33d52fda0f55366ad4b80c5f4349642124c205299101bae",
    9: "2016fa0920ff60e13ee0383b494c0d4d598e53b1e327a6ca8257f4504dfea7e9",
}

# one parabola (supercritical), one ellipse (critical), one hyperbola
GOLDEN_FIGURE_SVG = {
    3: "b19e399b91a78c35ca14131943d05b8e1e25fedd4b9b9d9c38e4f8bcffd66e5c",
    5: "4988649ba1e2dfb245b8b06e167dbda5f2cc435ba247910fa3b7ba6749c3e3ad",
    7: "be985ad55b6ecfe968e126a33c38c1da2ee70afa1d82aa609ca695f90b1028cc",
}


@pytest.mark.parametrize("case_id", range(1, 10))
def test_golden_trace_vertices(case_id):
    # cases 3, 6 and 9 are supercritical and go through the cusp snapping
    case = ref_case(case_id)
    conic = conic_from_case(case)
    r = F(case["r"])
    g = offset_poly_closed_form(conic, r).g
    tc = trace_implicit(g, figure_bbox(conic, r), 256)
    assert trace_digest(tc) == GOLDEN_TRACE_256[case_id]


@pytest.mark.parametrize("case_id", sorted(GOLDEN_FIGURE_SVG))
def test_golden_offset_figure_svg(case_id):
    case = ref_case(case_id)
    svg = offset_figure(conic_from_case(case), F(case["r"]), resolution=256)
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_FIGURE_SVG[case_id]


# ---------------------------------------------------------------------------
# Bit identity of the compiled evaluator against the evaluator it replaced
# ---------------------------------------------------------------------------

def reference_eval_poly(g, pt, **params):
    """The per-call evaluator as it was before the compile step, verbatim."""
    x, y = (pt.x, pt.y) if isinstance(pt, Point2) else (pt[0], pt[1])
    values = {"x": float(x), "y": float(y)}
    for k, v in params.items():
        values[k] = float(v)
    missing = [v for v in g.ring if v not in values]
    if missing:
        raise VarError(f"unassigned variables {missing}")
    ix = g.ring.index("x") if "x" in g.ring else None
    iy = g.ring.index("y") if "y" in g.ring else None
    by_xpow: dict = {}
    for m, c in g.terms.items():
        t = float(c)
        for k, e in enumerate(m):
            if e and k != ix and k != iy:
                t *= values[g.ring[k]] ** e
        key = m[ix] if ix is not None else 0
        ye = m[iy] if iy is not None else 0
        by_xpow.setdefault(key, {})
        by_xpow[key][ye] = by_xpow[key].get(ye, 0.0) + t
    total = 0.0
    yv = values.get("y", 0.0)
    for xe, ypows in by_xpow.items():
        acc = 0.0
        for e in range(max(ypows), -1, -1):
            acc = acc * yv + ypows.get(e, 0.0)
        total += acc * values.get("x", 1.0) ** xe
    return total


def _random_points(rng, bbox, n):
    xmin, xmax, ymin, ymax = bbox
    pts = [(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)) for _ in range(n)]
    # grid-like values, exact zeros and signed zeros as well
    return pts + [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.5, -0.25), (-1.0, 2.0)]


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b) \
        or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("case_id", range(1, 10))
def test_xy_evaluator_bit_identical(case_id):
    case = ref_case(case_id)
    conic = conic_from_case(case)
    r = F(case["r"])
    g = offset_poly_closed_form(conic, r).g
    gx, gy = gradient(g, ["x", "y"])
    gxx, gxy = gradient(gx, ["x", "y"])
    _, gyy = gradient(gy, ["x", "y"])
    rng = random.Random(1000 + case_id)
    pts = _random_points(rng, figure_bbox(conic, r), 200)
    for p in (g, gx, gy, gxx, gxy, gyy):
        ev = xy_evaluator(p)
        for x, y in pts:
            want = reference_eval_poly(p, (x, y))
            assert _same_float(ev(x, y), want)
            assert _same_float(eval_poly(p, (x, y)), want)
            assert _same_float(eval_poly(p, Point2(x, y)), want)


def test_xy_evaluator_keyword_parameters_bit_identical():
    # the symbolic ellipse offset polynomial: a, b and r stay ring variables
    from conicoffset.fixtures import general_offset_poly
    g = general_offset_poly("ellipse")
    params = {"a": 3.0, "b": F(3, 2), "r": 0.75}
    ev = xy_evaluator(g, **params)
    rng = random.Random(7)
    for x, y in _random_points(rng, (-4, 4, -5, 5), 200):
        want = reference_eval_poly(g, (x, y), **params)
        assert _same_float(ev(x, y), want)
        assert _same_float(eval_poly(g, (x, y), **params), want)
    # a ring without x or y evaluates like before
    only_r = parse_poly("2*r^2+1", ("r",))
    assert xy_evaluator(only_r, r=3)(5.0, 7.0) == \
        reference_eval_poly(only_r, (5.0, 7.0), r=3) == 19.0


def test_xy_evaluator_missing_variable():
    sym = parse_poly("x+y+r", ("x", "y", "r"))
    with pytest.raises(VarError):
        xy_evaluator(sym)
    with pytest.raises(VarError):
        xy_evaluator(sym, a=1.0)
    with pytest.raises(VarError):
        eval_poly(sym, (1.0, 2.0))
    assert xy_evaluator(sym, r=3)(1, 2) == 6.0

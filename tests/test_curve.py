"""Float services: evaluation, offset samples, tracing, curvature, SVG."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from conicoffset import curve
from conicoffset.cardano import real_roots_exact, to_mpf
from conicoffset.conics import (ConicSpec, hessian_definite,
                                offset_poly_closed_form, r_crit,
                                singular_locus, singular_points)
from conicoffset.curve import (Point2, bracketed_roots,
                               conic_point_and_normal, curvature, eval_poly,
                               max_abs_coeff, max_curvature, offset_figure,
                               parametric_offset_samples, plot_svg,
                               trace_implicit, xy_evaluator)
from conicoffset.errors import (EliminationError, ParamError,
                                PreconditionError, ResourceLimitError,
                                RingError, VarError)
from conicoffset.mesh import MeshSpec, generate_mesh, mesh_figure
from conicoffset.poly import MultiPoly, gradient, parse_poly
from conicoffset.reference import case as ref_case
from conicoffset.verify import conic_from_case

CIRCLE = parse_poly("x^2+y^2-1", ("x", "y"))


def _segment_distance(px, py, a, b):
    # the scalar distance from (px, py) to the segment from a to b: the
    # reference for dist_to_trace and for the tracer's splice
    vx, vy = b.x - a.x, b.y - a.y
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(px - a.x, py - a.y)
    t = max(0.0, min(1.0, ((px - a.x) * vx + (py - a.y) * vy) / L2))
    return math.hypot(px - (a.x + t * vx), py - (a.y + t * vy))


def dist_to_trace(tc, px, py):
    """Distance from (px, py) to the nearest segment of the trace, measured
    as ``_segment_distance`` does, in one numpy pass over all segments; with
    arrays px and py, one distance per point."""
    a = np.array([(p.x, p.y) for pl in tc.polylines for p in pl[:-1]])
    v = np.array([(q.x - p.x, q.y - p.y) for pl in tc.polylines
                  for p, q in zip(pl, pl[1:])])
    px, py = np.asarray(px, float)[..., None], np.asarray(py, float)[..., None]
    L2 = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    # a zero-length segment has t = 0: the distance to its end point
    t = ((px - a[:, 0]) * v[:, 0] + (py - a[:, 1]) * v[:, 1]) \
        / np.where(L2 == 0.0, 1.0, L2)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (a[:, 0] + t * v[:, 0]),
                    py - (a[:, 1] + t * v[:, 1])).min(axis=-1)


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
    for r in (-1.0, math.nan, math.inf):
        with pytest.raises(ParamError):
            parametric_offset_samples(conic, r, 5)


_BIG, _TINY = F(10) ** 400, F(1, 10 ** 400)
_FLOAT_CALLS = {
    "offset_figure": lambda c, r: offset_figure(c, r, resolution=64),
    "parametric_offset_samples": lambda c, r: parametric_offset_samples(c, r, 8),
    "conic_point_and_normal": lambda c, r: conic_point_and_normal(c, 0.5),
    "curvature": lambda c, r: curvature(c, 0.5),
    "max_curvature": lambda c, r: max_curvature(c),
}


@pytest.mark.parametrize("call,conic,r", [
    *((call, conic, r) for call in ("offset_figure", "parametric_offset_samples")
      for conic, r in ((ConicSpec.parabola(1), _BIG),
                       (ConicSpec.ellipse(_BIG, 1), F(1, 2)))),
    *((call, conic, F(1)) for call in ("conic_point_and_normal", "curvature",
                                       "max_curvature")
      for conic in (ConicSpec.parabola(_BIG), ConicSpec.ellipse(_BIG, 1),
                    ConicSpec.hyperbola(_BIG, 1))),
    # p rounds to 0.0 as a float, which divided by zero
    *((call, ConicSpec.parabola(_TINY), F(1)) for call in _FLOAT_CALLS),
    # p is a float but the parabola's sweep is not: its end 12|p| (4|p| in
    # max_curvature) is inf at p = 1.5e308, and its span 24|p| at p = 1e307
    *((call, ConicSpec.parabola(F("1.5e308")), F(1))
      for call in ("parametric_offset_samples", "max_curvature")),
    ("parametric_offset_samples", ConicSpec.parabola(F("1e307")), F(1)),
])
def test_float_layer_refuses_parameters_past_the_float_range(call, conic, r):
    # a conic parameter or r past the float range, or a parameter that
    # rounds to 0, is a ParamError, not an OverflowError or ZeroDivisionError
    with pytest.raises(ParamError):
        _FLOAT_CALLS[call](conic, r)


@pytest.mark.parametrize("call,conic,t,want", [
    # cosh t overflows past |t| of about 710, and the parabola's base point
    # y0 = t^2 / 4p and its speed cubed (1 + (t / 2p)^2)^1.5 pass the float
    # range; the true curvatures, near 1e-1042 and 4e-480, round to 0.0
    (curvature, ConicSpec.hyperbola(1, 1), 800.0, 0.0),
    (conic_point_and_normal, ConicSpec.hyperbola(1, 1), 800.0, ParamError),
    (curvature, ConicSpec.parabola(1), 1e160, 0.0),
    (conic_point_and_normal, ConicSpec.parabola(1), 1e160, ParamError),
    # a t that is not finite, and a curvature 1 / 2p past the float range
    (curvature, ConicSpec.ellipse(2, 1), math.inf, ParamError),
    (conic_point_and_normal, ConicSpec.ellipse(2, 1), math.nan, ParamError),
    (curvature, ConicSpec.parabola(F("1e-320")), 0.5, ParamError),
    # b / a rounds to 0.0, and the vertex curvature a / b^2 is past the range
    (curvature, ConicSpec.hyperbola(F("1e300"), F("1e-300")), 0.0, ParamError),
])
def test_float_layer_at_a_parameter_t_past_the_float_range(call, conic, t,
                                                           want):
    # a ParamError or the correctly rounded curvature, not an
    # OverflowError, a ValueError or an inf
    if want is ParamError:
        with pytest.raises(ParamError):
            call(conic, t)
    else:
        got = call(conic, t)
        assert got == want and math.copysign(1.0, got) == 1.0



@pytest.mark.parametrize("conic,t,want", [
    # b cosh t passes the float range, but the curvature is a subnormal
    (ConicSpec.hyperbola(F("1.7e308"), F("1.7e308")), 0.35,
     "4.18309539621842637877121524282e-309"),
    # b / a is tiny: a / b^2 at the vertex, and a speed that sinh t alone
    # holds, b / a being 0.0 as a float
    (ConicSpec.hyperbola(F("1e300"), 1), 0.0,
     "1.0000000000000000525047602552e+300"),
    (ConicSpec.hyperbola(2, F("5e-324")), 1e-200,
     "1.23516411460311642676876261857e+276"),
])
def test_curvature_of_a_hyperbola_near_the_ends_of_the_float_range(conic, t,
                                                                    want):
    # against a b / |beta'|^3 at 30 digits (mpmath) for the parameters as
    # floats; no absolute tolerance, so 0.0 does not pass for a subnormal
    assert math.isclose(curvature(conic, t), float(want), rel_tol=1e-12)


@pytest.mark.parametrize("k", [100, 150, 153, 154, 200, 300])
@pytest.mark.parametrize("kind", ["parabola", "ellipse", "hyperbola"])
def test_float_layer_oracles_at_height(kind, k):
    # p, a and b = 10^k: each float oracle returns finite values.  A square
    # of a parameter overflows from about 1.3e154 up, and the sweep's x0^2
    # from p of about 1.1e153: samples read y = inf, the normals 0/0, and
    # the curvatures raised OverflowError
    big = 10 ** k
    conic = {"parabola": lambda: ConicSpec.parabola(big),
             "ellipse": lambda: ConicSpec.ellipse(2 * big, big),
             "hyperbola": lambda: ConicSpec.hyperbola(big, big)}[kind]()
    pts = parametric_offset_samples(conic, 1, 8)
    assert len(pts) == 16
    assert all(math.isfinite(v) for p in pts for v in (p.x, p.y))
    (x0, y0), (nx, ny) = conic_point_and_normal(conic, 0.5)
    assert all(map(math.isfinite, (x0, y0)))
    assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-15)
    assert 0 < curvature(conic, 0.5) < math.inf
    assert float(r_crit(conic)) * max_curvature(conic) == pytest.approx(1.0, rel=1e-9)

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


@pytest.mark.parametrize("resolution", [256.0, "64", True, 7])
def test_trace_resolution_must_be_an_int(resolution):
    # a float, a string or a bool is refused, not cast or read as 1
    with pytest.raises(ParamError):
        trace_implicit(CIRCLE, (-1, 1, -1, 1), resolution)
    with pytest.raises(ParamError):
        offset_figure(ConicSpec.parabola(F(1, 3)), F(1, 4),
                      resolution=resolution)


def test_trace_vertex_residuals():
    # type invariant: every vertex within 1e-6 * max|coeff|, cusps included
    # the last two pass close to isolated zeros of g, which draw a vertex
    # that leaves its grid edge off the curve
    for conic, r, bbox, res in [
        (ConicSpec.ellipse(3, F(3, 2)), F(1, 2), (-3, 3, -4, 4), 256),
        (ConicSpec.parabola(F(1, 3)), F(3, 2), (-3, 3, -1.5, 4), 512),
        (ConicSpec.ellipse(F(41, 4), 9), F(7), None, 512),
        (ConicSpec.hyperbola(4, 2), F(17, 3), None, 256),
    ]:
        bbox = bbox or figure_bbox(conic, r)
        g = offset_poly_closed_form(conic, r).g
        tc = trace_implicit(g, bbox, res)
        scale = max_abs_coeff(g)
        worst = max(abs(eval_poly(g, (p.x, p.y)))
                    for pl in tc.polylines for p in pl)
        assert worst <= 1e-6 * scale


def test_trace_axis_vertices_exact():
    # ellipse(41/4, 9) at r = 7 < r_crit: on x = 0 the offsets cross at
    # y = +-(a - r) and +-(a + r), beside the virtual point (0, 3.0832)
    conic, r = ConicSpec.ellipse(F(41, 4), 9), F(7)
    g = offset_poly_closed_form(conic, r).g
    tc = trace_implicit(g, figure_bbox(conic, r), 512)
    on_axis = sorted(p.y for pl in tc.polylines for p in pl if p.x == 0.0)
    want = [-69 / 4, -13 / 4, 13 / 4, 69 / 4]
    assert sorted(set(on_axis)) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("case_id", range(1, 10))
def test_trace_vertices_on_grid_edges(case_id):
    # every vertex but a pinned singular point lies on its grid edge, and a
    # polyline is closed or ends on the bbox boundary at both ends; the pins
    # are the catalogue's singular points in the bbox (a cross-route check)
    case = ref_case(case_id)
    conic = conic_from_case(case)
    r = F(case["r"])
    g = offset_poly_closed_form(conic, r).g
    xmin, xmax, ymin, ymax = bbox = figure_bbox(conic, r)
    tc = trace_implicit(g, bbox, 256)
    want = sorted(s.as_floats() for s in singular_points(conic, r).points
                  if xmin <= s.x <= xmax and ymin <= s.y <= ymax)
    got = sorted(tuple(p) for p in tc.singular_vertices)
    assert len(got) == len(want)
    assert np.abs(np.subtract(got, want)).max(initial=0.0) <= 1e-9
    xs = set(np.linspace(xmin, xmax, 257).tolist())
    ys = set(np.linspace(ymin, ymax, 257).tolist())
    pinned = set(tc.singular_vertices)
    for pl in tc.polylines:
        for p in pl:
            assert p in pinned or p.x in xs or p.y in ys, p
        if pl[0] != pl[-1]:
            for p in (pl[0], pl[-1]):
                assert p.x in (xmin, xmax) or p.y in (ymin, ymax), p


@pytest.mark.parametrize("case_id", [4, 6])
def test_trace_no_alias_rings(case_id):
    # two closed curves each: the sign grid shows no small ring at the grid
    # node (1, 0) of case 4 or at the cusps of case 6
    case = ref_case(case_id)
    conic = conic_from_case(case)
    r = F(case["r"])
    g = offset_poly_closed_form(conic, r).g
    tc = trace_implicit(g, figure_bbox(conic, r), 256)
    assert len(tc.polylines) == 2
    assert all(pl[0] == pl[-1] and len(pl) > 12 for pl in tc.polylines)


def test_trace_passes_through_singular_points():
    # every pin here is on the curve and spliced into it: the node of case
    # 3, the cusps and nodes of case 6, and the degenerate points of two
    # critical offsets, whose Hessian is exactly zero; at (0, +-10/7) its
    # 60-digit value is rounding noise that must not read as definite
    hyp = ConicSpec.hyperbola(F(26, 3), F(2, 3))
    ell = ConicSpec.ellipse(F(7, 4), F(3, 4))
    for conic, r, bbox, res, tips in [
        (conic_from_case(ref_case(3)), F(ref_case(3)["r"]), (-3, 3, -1.5, 4),
         512, 3),
        (conic_from_case(ref_case(6)), F(ref_case(6)["r"]), None, 256, 6),
        (hyp, r_crit(hyp), None, 512, 2),
        (ell, r_crit(ell), None, 256, 2),
    ]:
        g = offset_poly_closed_form(conic, r).g
        tc = trace_implicit(g, bbox or figure_bbox(conic, r), res)
        rep = singular_points(conic, r)
        for s in rep.points:
            assert dist_to_trace(tc, *s.as_floats()) <= 1e-3
        assert len(tc.singular_vertices) == tips
        for t in tc.singular_vertices:
            assert any(t in pl for pl in tc.polylines), (conic, t)


@pytest.mark.parametrize("res", [96, 128])
def test_trace_pins_every_cusp_at_low_resolution(res):
    # reference case 6 has four cusps and two nodes; each is pinned and the
    # trace passes through it, however coarse the grid near the beaks
    case = ref_case(6)
    conic, r = conic_from_case(case), F(case["r"])
    g = offset_poly_closed_form(conic, r).g
    tc = trace_implicit(g, figure_bbox(conic, r), res)
    points = singular_points(conic, r).points
    assert len(points) == len(tc.singular_vertices) == 6
    for s in points:
        assert dist_to_trace(tc, *s.as_floats()) <= 1e-9


@pytest.mark.parametrize("res", [64, 96])
def test_trace_keeps_the_small_loop_through_degenerate_points(res):
    # ellipse(37/3, 11) at r_crit = 363/37: the inner line's degenerate
    # points (0, +-280/111) lie on a small real loop, which at resolution 64
    # has at most 12 vertices; the trace keeps it and splices both pins in
    conic = ConicSpec.ellipse(F(37, 3), 11)
    r = r_crit(conic)
    tc = trace_implicit(offset_poly_closed_form(conic, r).g,
                        figure_bbox(conic, r), res)
    points = singular_points(conic, r).points
    assert [(s.x, abs(s.y), s.tag) for s in points] == \
        [(0, F(280, 111), "on-curve")] * 2
    for s in points:
        assert dist_to_trace(tc, *s.as_floats()) <= 1e-9


def test_trace_keeps_the_rings_in_cusp_beaks():
    # parabola(-1) at r = 3: at resolution 512 the sign grid shows a closed
    # 6-vertex ring inside each cusp's beak, next to its split point; both
    # rings are kept and each gets its cusp pin spliced in
    conic, r = ConicSpec.parabola(F(-1)), F(3)
    tc = trace_implicit(offset_poly_closed_form(conic, r).g,
                        figure_bbox(conic, r), 512)
    assert len(tc.polylines) == 4
    rings = [pl for pl in tc.polylines if pl[0] == pl[-1]]
    assert [len(pl) for pl in rings] == [6, 6]
    split = [t for t in tc.singular_vertices if t.x != 0.0]
    assert len(split) == 2
    assert all(sum(t in pl for pl in rings) == 1 for t in split)
    assert all(any(t in pl for t in split) for pl in rings)


XY = ("x", "y")
X, Y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")


@pytest.mark.parametrize("f1,f2,crossings", [
    (Y - X ** 2, Y - X ** 5 + X - F(1, 3), 3),
    (X ** 2 + Y ** 2 - 1, Y - X ** 3 + F(1, 2) * X - F(1, 5), 2),
])
def test_trace_pins_crossings_of_two_curves(f1, f2, crossings):
    # the nodes of f1 * f2 are where the factor curves cross; their
    # eliminants have odd factors of degree 5 and more, found by isolation
    tc = trace_implicit(f1 * f2, (-2, 2, -2, 2), 256)
    assert len(tc.singular_vertices) == crossings
    for p in tc.singular_vertices:
        assert abs(eval_poly(f1, p)) <= 1e-12
        assert abs(eval_poly(f2, p)) <= 1e-12


def test_trace_repeated_factor_has_no_pins():
    # x^2 * y: the whole line x = 0 is singular, so nothing finite to pin;
    # the grid avoids x = 0 and y = 0, and the trace is the line y = 0
    tc = trace_implicit(X ** 2 * Y, (-2, 2, -2, 2), 63)
    assert tc.singular_vertices == ()
    (pl,) = tc.polylines
    assert {pl[0].x, pl[-1].x} == {-2.0, 2.0}
    assert max(abs(p.y) for p in pl) <= 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_trace_saddle_cells_keep_the_branches_apart(sign):
    # the cell around the origin is a saddle (code 10, and 5 for -g): its
    # center has the sign of its corners in quadrants 2 and 4 and joins
    # them, so each branch of the hyperbola keeps to its own quadrant
    tc = trace_implicit(sign * (X * Y - F(1, 1000)), (-1.1, 0.9, -1.1, 0.9), 8)
    assert len(tc.polylines) == 2
    for pl in tc.polylines:
        assert len({(p.x > 0, p.y > 0) for p in pl}) == 1, pl


@pytest.mark.parametrize("poly,bbox,error", [
    (CIRCLE, (-math.inf, math.inf, -1, 1), ParamError),
    (CIRCLE, (-1e308, 1e308, -1, 1), ParamError),
    (CIRCLE, (-1e200, 1e200, -1, 1), ParamError),  # g overflows on the grid
    (CIRCLE, (-1, math.nan, -1, 1), ParamError),
    (parse_poly("x^2-1", ("x",)), (-2, 2, -2, 2), RingError),
    (parse_poly("x^2+y^2-r^2", ("x", "y", "r")), (-2, 2, -2, 2), RingError),
    (parse_poly("x^2+y^2-r^2", ("x", "y", "r")), (5, 6, 5, 6), RingError),
    (CIRCLE, (0, 1, 0), ParamError),  # a bbox is four numbers
    (CIRCLE, (0, 1, 0, 1, 2), ParamError),
])
def test_trace_refuses_what_it_cannot_trace(poly, bbox, error):
    with pytest.raises(error):
        trace_implicit(poly, bbox, 16)


def test_coefficients_past_the_float_range_are_a_param_error():
    # ellipse(2, 1) at r = 10^-320: the closed form's integer coefficients
    # reach 10^640, which no float holds
    g = offset_poly_closed_form(ConicSpec.ellipse(2, 1), F(1, 10 ** 320)).g
    with pytest.raises(ParamError):
        trace_implicit(g, (-3, 3, -3, 3), 16)
    with pytest.raises(ParamError):
        max_abs_coeff(g)


@pytest.mark.parametrize("resolution", [curve.MAX_RESOLUTION + 1, 10 ** 8])
def test_trace_refuses_a_resolution_above_the_cap(resolution):
    # 10^8 would take two 800 MB axes before a 10^16-node grid; the cap is
    # checked before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            trace_implicit(CIRCLE, (0, 1, 0, 1), resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _trace_peak(resolution):
    tracemalloc.start()
    try:
        trace_implicit(CIRCLE, (-2, 2, -2, 2), resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_trace_memory_grows_with_the_resolution_not_its_square():
    # the grid is evaluated in bands of rows that keep only their crossing
    # cells; the whole grid, held at once, peaked at 4.2, 16.2 and 64.2 MiB
    trace_implicit(CIRCLE, (-2, 2, -2, 2), 64)  # lazy imports out of the way
    p512, p1024, p2048 = map(_trace_peak, (512, 1024, 2048))
    assert p1024 < 3 * p512 and p2048 < 3 * p1024
    assert p2048 < 8 << 20


def test_trace_at_the_cap_stays_under_32_mib():
    # the whole grid at MAX_RESOLUTION took about 1 GiB; in bands, 14 MiB
    trace_implicit(CIRCLE, (-2, 2, -2, 2), 64)
    assert _trace_peak(curve.MAX_RESOLUTION) < 32 << 20


@pytest.mark.parametrize("resolution", [512, curve.MAX_RESOLUTION])
def test_trace_evaluates_each_node_row_once(resolution, monkeypatch):
    # a band takes the signs of its first node row from the band before;
    # at the cap a band is one cell row, and evaluating both of its node
    # rows took every row twice
    x_pass, rows = curve._x_pass, []

    def counting(ypass, x, y):
        if np.ndim(x) == 2:  # node rows; the saddles and edges pass 1-D
            rows.append(len(x))
        return x_pass(ypass, x, y)
    monkeypatch.setattr(curve, "_x_pass", counting)
    trace_implicit(CIRCLE, (-2, 2, -2, 2), resolution)
    assert sum(rows) == resolution + 1


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
        worst = dist_to_trace(tc, [p.x for p in pts], [p.y for p in pts]).max()
        assert worst <= 2 * cell, (conic.kind, worst, cell)


# ---------------------------------------------------------------------------
# Exact crossing counts: a trace crosses an axis-parallel line as often as g
# has distinct real roots on it in the bbox, unless a feature of g is
# thinner than a cell (ROADMAP item 14)
# ---------------------------------------------------------------------------

def root_count(g, axis, c, lo, hi):
    """The distinct real roots in [lo, hi] of g on the line where coordinate
    `axis` (0 for x, 1 for y) is the rational c, by real_roots_exact."""
    cs = [F(0)] * (g.degree() + 1)
    for m, v in g.terms.items():
        cs[m[1 - axis]] += v * c ** m[axis]
    lo, hi = to_mpf(lo), to_mpf(hi)
    return sum(lo <= to_mpf(t) <= hi for t in real_roots_exact(cs))


def crossings(tc, axis, c):
    """The segments of the trace that cross that line, for a rational c that
    no float equals: a coordinate is below c exactly when it is at most
    float(c) < c, or below float(c) > c."""
    f = float(c)
    count = 0
    for pl in tc.polylines:
        v = np.array([tuple(p)[axis] for p in pl])
        below = v <= f if f < c else v < f
        count += np.count_nonzero(below[1:] != below[:-1])
    return count


def crossing_mismatches(g, bbox, resolution, lines=15):
    """(axis, c, roots, crossings) for each line where the trace of g at
    `resolution` crosses other than root_count says: `lines` lines x = c
    and as many y = c, spread evenly over the bbox.  Each c is a third of
    2^-21 off a dyadic, so it is no float, no grid value and no vertex's
    coordinate, and a line within 4 cells (the splice reach) of a pin is
    skipped.  The lines y = c run across every band of rows of the grid."""
    tc = trace_implicit(g, bbox, resolution)
    xmin, xmax, ymin, ymax = map(F, bbox)
    cell = min(xmax - xmin, ymax - ymin) / resolution
    out = []
    for axis, (lo, hi), (a, b) in ((0, (xmin, xmax), (ymin, ymax)),
                                   (1, (ymin, ymax), (xmin, xmax))):
        for k in range(lines):
            mid = lo + (hi - lo) * F(2 * k + 1, 2 * lines)
            c = F(round(mid * 2 ** 20), 2 ** 20) + F(1, 3 * 2 ** 21)
            if any(abs(c - F(tuple(p)[axis])) <= 4 * cell
                   for p in tc.singular_vertices):
                continue
            want, got = root_count(g, axis, c, a, b), crossings(tc, axis, c)
            if want != got:
                out.append((axis, c, want, got))
    return out


@pytest.mark.parametrize("case_id", range(1, 10))
def test_trace_crossings_match_exact_root_counts(case_id):
    case = ref_case(case_id)
    conic = conic_from_case(case)
    r = F(case["r"])
    g = offset_poly_closed_form(conic, r).g
    assert crossing_mismatches(g, figure_bbox(conic, r), 256) == []


def _regime_sweep():
    # each kind at offsets in every regime: below, at and above r_crit, and
    # for the central conics at and between b, a and a^2/b and beyond
    out = []
    for conic in (ConicSpec.parabola(F(1, 3)), ConicSpec.parabola(F(-3, 4))):
        rc = r_crit(conic)
        out += [(conic, r) for r in (rc / 3, rc, 2 * rc, 3 * rc)]
    for conic in (ConicSpec.ellipse(3, F(3, 2)),
                  ConicSpec.hyperbola(F(5, 2), F(3, 2))):
        a, b, rc = conic.a, conic.b, r_crit(conic)
        out += [(conic, r) for r in (rc / 2, rc, (rc + b) / 2, b, (b + a) / 2,
                                     a, a * a / b, 2 * a * a / b)]
    rect = ConicSpec.hyperbola(F(4, 3), F(4, 3))  # r_crit == a == b
    out += [(rect, r) for r in (rect.b / 2, rect.b, 2 * rect.b, 3 * rect.b)]
    return out


@pytest.mark.parametrize("conic,r", _regime_sweep())
def test_trace_crossings_match_exact_root_counts_in_every_regime(conic, r):
    g = offset_poly_closed_form(conic, r).g
    assert crossing_mismatches(g, figure_bbox(conic, r), 256) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: two arcs of the "
                   "swallowtail beside the node (0, 9.343), 0.054 apart, lie "
                   "inside one cell, so the trace has 6 of the 8 crossings")
def test_trace_keeps_the_swallowtail_arcs_inside_one_cell():
    g = offset_poly_closed_form(ConicSpec.hyperbola(F(17, 4), 4), 5).g
    tc = trace_implicit(g, (-20, 20, -20, 20), 512)
    c = F(-1, 20)
    assert root_count(g, 0, c, -20, 20) == 8
    assert crossings(tc, 0, c) == 8


def test_dist_to_trace_matches_segment_loop():
    # the numpy helper against the per-segment loop it replaced
    tc = trace_implicit(CIRCLE, (-2, 2, -2, 2), 64)
    rng = random.Random(5)
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(40)]
    got = dist_to_trace(tc, [x for x, _ in pts], [y for _, y in pts])
    for (x, y), d in zip(pts, got):
        want = min(_segment_distance(x, y, a, b)
                   for pl in tc.polylines for a, b in zip(pl, pl[1:]))
        assert abs(d - want) <= 1e-15
        assert dist_to_trace(tc, x, y) == d


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


def _curvature_foot(conic, r, lo, hi):
    # bisect for the parameter in [lo, hi] where the curvature is 1/r; the
    # curvature is monotone there and 1/r lies between its end values
    above = curvature(conic, lo) > 1 / r
    while lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        if (curvature(conic, mid) > 1 / r) == above:
            lo = mid
        else:
            hi = mid
    return lo


def _curvature_sweep():
    # seeded parabolas with p of both signs, ellipses with r in (1.05 r_crit,
    # 0.95 a^2/b), hyperbolas and rectangular hyperbolas, each at an r above
    # r_crit; with the quarter of parameters [lo, hi] on which the
    # curvature is monotone and takes the value 1/r
    rng = random.Random(1990)

    def q():
        return F(rng.randint(1, 30), rng.randint(1, 7))

    out = []
    while len(out) < 48:
        kind = ("parabola", "ellipse", "hyperbola", "rectangular")[len(out) % 4]
        u = F(rng.randint(1, 999), 1000)
        if kind == "parabola":
            conic = ConicSpec.parabola(q() * rng.choice((1, -1)))
            lo, hi, r = 0.0, 1.0, r_crit(conic) * (1 + 4 * u)
        elif kind == "ellipse":
            b = q()
            conic = ConicSpec.ellipse(b + q(), b)
            rlo, rhi = r_crit(conic) * F(105, 100), conic.a ** 2 / conic.b * F(95, 100)
            if not rlo < rhi:
                continue
            lo, hi, r = 0.0, math.pi / 2, rlo + (rhi - rlo) * u
        else:
            b = q()
            conic = ConicSpec.hyperbola(b + q() if kind == "hyperbola" else b, b)
            lo, hi, r = 0.0, 1.0, r_crit(conic) * (F(105, 100) + 4 * u)
        while kind != "ellipse" and curvature(conic, hi) > 1 / float(r):
            hi *= 2
        out.append((conic, r, lo, hi))
    return out


def test_split_points_are_where_the_radius_of_curvature_is_r():
    # the float layer's curvature and normals, independent of the catalogue:
    # the base point where the radius of curvature is r, moved by r toward
    # the concave side, is a cusp of the offset, one of the split points
    for conic, r, lo, hi in _curvature_sweep():
        rf = float(r)
        t = _curvature_foot(conic, rf, lo, hi)
        (x0, y0), (nx, ny) = conic_point_and_normal(conic, t)
        # the concave side: where the chord midpoints of the conic lie
        h = 1e-3 * (hi - lo)
        mid = [sum(v) / 2 for v in zip(conic_point_and_normal(conic, t - h)[0],
                                        conic_point_and_normal(conic, t + h)[0])]
        side = 1.0 if (mid[0] - x0) * nx + (mid[1] - y0) * ny > 0 else -1.0
        cusp = (x0 + side * rf * nx, y0 + side * rf * ny)
        split = [s.as_floats() for s in singular_points(conic, r).points
                 if s.tag == "split"]
        assert min(math.dist(cusp, p) for p in split) \
            <= 1e-9 * max(1.0, math.hypot(*cusp)), (conic, r, cusp, split)


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


def test_offset_figure_marks_its_trace_pins_inside_the_bbox(monkeypatch):
    # the catalogue of hyperbola(25/3, 4/3) at r = 96 also has the axis pair
    # (0, +-607.69), far outside the figure's bbox; the trace pins only the
    # six points inside it
    drawn = []

    def recording_plot_svg(curves, markers=(), **kwargs):
        drawn.append((curves, list(markers)))
        return plot_svg(curves, markers, **kwargs)

    monkeypatch.setattr(curve, "plot_svg", recording_plot_svg)
    svg = offset_figure(ConicSpec.hyperbola(F(25, 3), F(4, 3)), 96,
                        resolution=96)
    (offset_curve, _), markers = drawn[0]
    assert markers == sorted(offset_curve.singular_vertices,
                             key=lambda p: (p.y, p.x))
    assert svg.count("<circle") == len(markers) == 6
    xmin, xmax, ymin, ymax = offset_curve.bbox
    assert all(xmin <= p.x <= xmax and ymin <= p.y <= ymax for p in markers)


def _reference_offsets():
    return [(conic_from_case(ref_case(k)), F(ref_case(k)["r"]))
            for k in range(1, 10)]


@pytest.mark.parametrize("conic,r", _reference_offsets() + _regime_sweep())
def test_figure_markers_equal_the_elimination_route(conic, r, monkeypatch):
    # a figure pins the closed catalogue (ROADMAP item 18); its pins in the
    # bbox are singular_locus's points, in its order, each spliced unless
    # hessian_definite finds it isolated, so the offset trace is the one
    # the elimination route draws
    calls = []

    def recording(*args, **kwargs):
        out = trace_implicit(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out
    monkeypatch.setattr(curve, "trace_implicit", recording)
    offset_figure(conic, r, resolution=128)
    (args, kwargs, traced), _ = calls  # the offset's trace, the base's
    g, (xmin, xmax, ymin, ymax) = args[:2]
    locus = [(x, y) for x, y in singular_locus(g)
             if xmin <= x <= xmax and ymin <= y <= ymax]
    pins = [p for p in kwargs["pins"]
            if xmin <= p[0] <= xmax and ymin <= p[1] <= ymax]
    assert [(float(x), float(y)) for x, y, _ in pins] == \
        [(float(x), float(y)) for x, y in locus]
    assert [isolated for *_, isolated in pins] == hessian_definite(g, locus)
    assert traced.singular_vertices == \
        tuple(Point2(float(x), float(y)) for x, y in locus)
    assert traced == trace_implicit(g, args[1], 128)


def test_a_figure_runs_no_elimination(monkeypatch):
    # a figure pins the catalogue on its offset and nothing on its smooth
    # base conic, and a mesh figure nothing on its ellipse or its layers, so
    # neither reaches the elimination route; a bare trace of g, as
    # `conicoffset trace --g` draws it, still does
    class Eliminated(Exception):
        pass

    def refuse(*args):
        raise Eliminated

    monkeypatch.setattr(curve, "singular_locus", refuse)
    monkeypatch.setattr(curve, "hessian_definite", refuse)
    hyperbola = ConicSpec.hyperbola(F(25, 3), F(4, 3))
    for conic, r, markers in [
        (ConicSpec.parabola(F(1, 3)), F(1, 3), 1),  # a virtual point
        (ConicSpec.ellipse(3, F(3, 2)), F(4, 3), 6),
        (hyperbola, 96, 6),  # the axis pair lies outside the bbox
    ]:
        svg = offset_figure(conic, r, resolution=64)
        assert svg.count("<circle") == markers
    spec = MeshSpec(ellipse=ConicSpec.ellipse(4, 2), offsets=(0.2, 0.4, 0.6),
                    y_stations=(1, 0, -1))
    mesh = generate_mesh(spec)
    svg = mesh_figure(spec, mesh, resolution=64)
    assert svg.count("<circle") == mesh.rows * mesh.cols
    g = offset_poly_closed_form(hyperbola, 96).g
    with pytest.raises(Eliminated):
        trace_implicit(g, figure_bbox(hyperbola, 96), 64)


# ---------------------------------------------------------------------------
# Golden float outputs, recorded with vertices solved on their grid edges
# and the compiled evaluator.  They pin every float of the trace and the SVG
# (and, in test_mesh.py, of the mesh) bit for bit: a change in the order of
# floating-point operations changes them.
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


# case 6 was recorded again when the saddle cells were mended: its shorter
# polyline, 151 vertices before, now runs through 167
GOLDEN_TRACE_256 = {
    1: "90f382668b1a6321ba29f59a219cd6eee9e89fd32c654561741662b74b6e25aa",
    2: "11fe3f220a1b9130fa5c11776f1de6108659d586332f41f243cc683c12dbbab7",
    3: "70d7781ff1a51ac051f8c5f3fbc358bc872643eac06b0d11fae5e3af39cc595a",
    4: "49a7421a69cc917914f1245c83cce02dbd6480f1dc1b08ff68bca11251c194c1",
    5: "8a9b501d8cdaade0c4dc0c2c3b9447224248bae54c746cef50e2331694dff39c",
    6: "ffabc7b3b83a2e6e772a406352c5ffe3553fe5b598daaf2736d056757695f03c",
    7: "7a74a3ed251d88ec0f7878903099827b059258622a8898ecf689e322ae81cfd8",
    8: "ac98968e63522dc5a2444fa81237955a8a8fb2bfbfc1ff91be2c570a87df886a",
    9: "7d0d738337f695e6120db22c1a400c88c3d299378cc27e001ef4f8cb94d33471",
}

# one parabola (supercritical), one ellipse (critical), one hyperbola
GOLDEN_FIGURE_SVG = {
    3: "2ff2e87b8ab56102442938917d102fa67ce91d52ace56acf842511f9a131a4f0",
    5: "751e935d48130ab42865fc69ba332fd5e2910264721b1f85756b4ad09a88b92a",
    7: "d289ae469c1e020ae7cca501dfc34ad6e0b57b5b01d4ab37d39f2be5a6823e87",
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


@pytest.mark.parametrize("case_id", range(1, 10))
def test_the_scalar_tail_moves_no_vertex(case_id, monkeypatch):
    # both traces of offset_figure at resolution 512, the offset's and the
    # base conic's, give the same vertices and SVG with the edge solve's
    # scalar tail off and on, and the tail runs in each of them
    case = ref_case(case_id)
    conic, r = conic_from_case(case), F(case["r"])
    trace, solve = curve.trace_implicit, curve.bracketed_roots
    traces, tail_steps = [], []

    def traced(*args, **kwargs):
        traces.append(trace(*args, **kwargs))
        return traces[-1]

    def counted(phi, phi1, *args):
        tail_steps.append(0)

        def one(t, k):
            tail_steps[-1] += 1
            return phi1(t, k)
        return solve(phi, one, *args)
    monkeypatch.setattr(curve, "trace_implicit", traced)
    monkeypatch.setattr(curve, "bracketed_roots", counted)
    tail = curve._SCALAR_TAIL
    monkeypatch.setattr(curve, "_SCALAR_TAIL", 0)
    svg_off = offset_figure(conic, r)
    assert len(traces) == 2 and tail_steps == [0, 0]
    monkeypatch.setattr(curve, "_SCALAR_TAIL", tail)
    assert offset_figure(conic, r) == svg_off
    assert len(traces) == 4 and all(tail_steps[2:])
    assert [trace_digest(tc) for tc in traces[:2]] == \
        [trace_digest(tc) for tc in traces[2:]]


@pytest.mark.parametrize("case_id", range(1, 10))
def test_grid_is_xy_evaluator(case_id):
    # the trace's grid pass holds the scalar evaluator's floats node for
    # node, whatever SIMD loops numpy dispatches to on the host
    case = ref_case(case_id)
    conic = conic_from_case(case)
    r = F(case["r"])
    g = offset_poly_closed_form(conic, r).g
    xmin, xmax, ymin, ymax = figure_bbox(conic, r)
    xs, ys = np.linspace(xmin, xmax, 257), np.linspace(ymin, ymax, 257)
    grid = curve._array_eval(curve._xpow_groups(g), xs[:, None], ys[None, :])
    f = xy_evaluator(g)
    yl = ys.tolist()
    want = np.array([[f(x, y) for y in yl] for x in xs.tolist()])
    assert np.array_equal(grid.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("case_id", sorted(GOLDEN_FIGURE_SVG))
def test_golden_offset_figure_svg(case_id):
    case = ref_case(case_id)
    svg = offset_figure(conic_from_case(case), F(case["r"]), resolution=256)
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_FIGURE_SVG[case_id]


# ---------------------------------------------------------------------------
# The array chaining and the batched splice against the scalar code they
# replaced: tuple edge keys in a dict, a walk over them, and one distance
# call per segment
# ---------------------------------------------------------------------------

def reference_splice(pl, t, reach):
    """The segment index the per-segment scan splices the pin t into, or
    None: the first index of the smallest distance, within reach, unless t
    is a vertex already."""
    if t in pl:
        return None
    d, i = min((_segment_distance(t.x, t.y, a, b), i)
               for i, (a, b) in enumerate(zip(pl, pl[1:])))
    return i if d <= reach else None


def reference_trace(g, bbox, resolution):
    """trace_implicit with its chaining as it was: a per-cell loop makes each
    segment a pair of edge keys (the edge's two grid nodes, lower first), a
    dict lists the segments on each edge, and a walk takes the unused
    segment through the current edge; the pins are spliced by
    reference_splice.  The grid, the edge solve and the pins are the
    tracer's own."""
    xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    groups = curve._xpow_groups(g)
    xs = np.linspace(xmin, xmax, resolution + 1)
    ys = np.linspace(ymin, ymax, resolution + 1)
    vals = curve._array_eval(groups, xs[:, None], ys[None, :])
    neg = vals < 0.0
    codes = (neg[:-1, :-1].astype(np.int8)
             | (neg[1:, :-1].astype(np.int8) << 1)
             | (neg[1:, 1:].astype(np.int8) << 2)
             | (neg[:-1, 1:].astype(np.int8) << 3))
    segments = []
    for i, j in np.argwhere((codes != 0) & (codes != 15)).tolist():
        code = int(codes[i, j])
        center = False
        if code in (5, 10):
            center = bool(curve._array_eval(
                groups, (xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2) < 0.0)
        keys = (((i, j), (i + 1, j)), ((i + 1, j), (i + 1, j + 1)),
                ((i, j + 1), (i + 1, j + 1)), ((i, j), (i, j + 1)))
        segments.extend((keys[ea], keys[eb])
                        for ea, eb in curve._cell_segments(code)[center])
    if not segments:
        return curve.TracedCurve((), (xmin, xmax, ymin, ymax), resolution)
    by_edge = {}
    for idx, seg in enumerate(segments):
        for key in seg:
            by_edge.setdefault(key, []).append(idx)
    ia, ja, ib, jb = np.array(list(by_edge)).reshape(-1, 4).T
    xa, ya = xs[ia], ys[ja]
    dx, dy = xs[ib] - xa, ys[jb] - ya
    t = bracketed_roots(
        lambda u, k: curve._array_eval(groups, xa[k] + u * dx[k],
                                       ya[k] + u * dy[k]),
        lambda u, k: float(curve._array_eval(groups, xa[k] + u * dx[k],
                                             ya[k] + u * dy[k])),
        np.zeros(len(ia)), np.ones(len(ia)), vals[ia, ja], vals[ib, jb], 1e-13)
    vertex = dict(zip(by_edge, map(Point2, (xa + t * dx).tolist(),
                                   (ya + t * dy).tolist())))
    used = [False] * len(segments)

    def walk(key):
        passed = [key]
        while True:
            nxt = next((k for k in by_edge[key] if not used[k]), None)
            if nxt is None:
                return passed
            used[nxt] = True
            a, b = segments[nxt]
            key = b if a == key else a
            passed.append(key)

    polylines = []
    for start, (first, second) in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        forward = walk(second)
        backward = walk(first)
        polylines.append([vertex[k] for k in backward[::-1] + forward])

    try:
        locus = singular_locus(g)
    except EliminationError:
        locus = []
    pins = [(xv, yv) for xv, yv in locus
            if xmin <= float(xv) <= xmax and ymin <= float(yv) <= ymax]
    tips = [Point2(float(xv), float(yv)) for xv, yv in pins]
    cell = min(xmax - xmin, ymax - ymin) / resolution
    for pl in polylines:
        for tip, isolated in zip(tips, hessian_definite(g, pins)):
            i = None if isolated else reference_splice(pl, tip, 4 * cell)
            if i is not None:
                pl.insert(i + 1, tip)
    polylines = sorted(map(tuple, polylines),
                       key=lambda pl: (pl[0].x, pl[0].y, len(pl)))
    return curve.TracedCurve(tuple(polylines), (xmin, xmax, ymin, ymax),
                             resolution,
                             tuple(sorted(tips, key=lambda p: (p.x, p.y))))


def _chaining_sweep():
    out = []
    for case_id in range(1, 10):
        case = ref_case(case_id)
        conic, r = conic_from_case(case), F(case["r"])
        for res in (64, 256, 512):
            out.append(pytest.param(offset_poly_closed_form(conic, r).g,
                                    figure_bbox(conic, r), res,
                                    id=f"case{case_id}-{res}"))
    beak = ConicSpec.parabola(F(-1)), F(3)
    out += [
        pytest.param(CIRCLE, (-2, 2, -2, 2), 64, id="circle"),
        # the bbox boundary cuts the circle open, twice and four times
        pytest.param(CIRCLE, (-0.5, 1.5, -0.7, 0.3), 64, id="circle-cut"),
        pytest.param(CIRCLE, (-0.9, 0.9, -0.9, 0.9), 48, id="circle-corners"),
        pytest.param(X * Y - F(1, 1000), (-1.1, 0.9, -1.1, 0.9), 8,
                     id="saddle-10"),
        pytest.param(F(1, 1000) - X * Y, (-1.1, 0.9, -1.1, 0.9), 8,
                     id="saddle-5"),
        pytest.param((Y - X ** 2) * (Y - X ** 5 + X - F(1, 3)),
                     (-2, 2, -2, 2), 256, id="crossing-3"),
        pytest.param((X ** 2 + Y ** 2 - 1) * (Y - X ** 3 + F(1, 2) * X
                                              - F(1, 5)),
                     (-2, 2, -2, 2), 256, id="crossing-2"),
        pytest.param(X ** 2 * Y, (-2, 2, -2, 2), 63, id="repeated-factor"),
        pytest.param(offset_poly_closed_form(*beak).g, figure_bbox(*beak), 512,
                     id="cusp-beaks"),
    ]
    return out


@pytest.mark.parametrize("g,bbox,res", _chaining_sweep())
def test_chaining_matches_the_tuple_keyed_walk(g, bbox, res):
    # the same polylines with the same vertices in the same order, the same
    # closing vertex on every loop, and the same pins
    tc = trace_implicit(g, bbox, res)
    want = reference_trace(g, bbox, res)
    assert tc.polylines
    assert tc == want
    assert trace_digest(tc) == trace_digest(want)


def _hex_points(*coords):
    vals = [float.fromhex(c) for c in coords]
    return [Point2(x, y) for x, y in zip(vals[::2], vals[1::2])]


def _square():
    return [Point2(0.0, 0.0), Point2(2.0, 0.0), Point2(2.0, 2.0),
            Point2(0.0, 2.0)]


@pytest.mark.parametrize("pl,tip,reach,want", [
    # equally near to segments 1 and 2 (both at distance 1): the lower wins
    (_square()[:1] + [Point2(4.0, 0.0), Point2(4.0, 2.0), Point2(6.0, 2.0)],
     Point2(5.0, 1.0), 1.0, 1),
    (_square(), Point2(1.0, 1.0), 1.0, 0),
    # exactly 4 cells away (0.25 a cell) is spliced, a hair beyond is not
    (_square()[:2], Point2(1.0, 1.0), 4 * 0.25, 0),
    (_square()[:2], Point2(1.0, math.nextafter(1.0, 2.0)), 4 * 0.25, None),
    # a pin that is a vertex already
    (_square(), Point2(2.0, 2.0), 1.0, None),
    # zero-length segments: one on its own, and one first in a tie
    ([Point2(1.0, 0.0), Point2(1.0, 0.0)], Point2(1.0, 0.5), 1.0, 0),
    ([Point2(1.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 0.0)], Point2(0.0, 0.0),
     1.0, 0),
    ([Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 0.0)],
     Point2(1.0, -0.5), 1.0, 0),
    # polylines A, (2.5, 2.5), B whose nearest points to the pin are A and
    # B, at distances that np.hypot (glibc's hypot) and math.hypot round in
    # opposite order: the scalar scan's choice wins
    (_hex_points("0x1.175576debdaaap+1", "0x1.19d09fc91354cp+1",
                 "0x1.4p+1", "0x1.4p+1",
                 "0x1.31d8cc1a58ac4p+1", "0x1.f9967908628c6p+0"),
     Point2(0.0, 0.0), 10.0, 1),
    (_hex_points("0x1.12a914da0b730p+1", "0x1.c36859de07611p+0",
                 "0x1.4p+1", "0x1.4p+1",
                 "0x1.0fc1c08c65a04p+1", "0x1.ca621d83c1362p+0"),
     Point2(0.0, 0.0), 10.0, 0),
])
def test_splice_picks_the_scalar_segment(pl, tip, reach, want):
    assert reference_splice(pl, tip, reach) == want
    xs, ys = np.array([p.x for p in pl]), np.array([p.y for p in pl])
    assert curve._splice_segment(xs, ys, tip.x, tip.y, reach) == want


@pytest.mark.parametrize("case_id", [3, 6])
def test_splice_matches_the_segment_scan_near_a_trace(case_id):
    # points around real polylines, most of them nearest to a vertex, where
    # the two segments beside it tie up to rounding: the batched pass picks
    # what the scalar scan picks
    case = ref_case(case_id)
    conic, r = conic_from_case(case), F(case["r"])
    tc = trace_implicit(offset_poly_closed_form(conic, r).g,
                        figure_bbox(conic, r), 64)
    rng = random.Random(case_id)
    for pl in tc.polylines:
        xs, ys = np.array([p.x for p in pl]), np.array([p.y for p in pl])
        for _ in range(150):
            p = rng.choice(pl)
            tip = Point2(p.x + rng.uniform(-0.3, 0.3) * rng.choice((1, 1e-9)),
                         p.y + rng.uniform(-0.3, 0.3))
            reach = rng.uniform(0.0, 0.4)
            assert curve._splice_segment(xs, ys, tip.x, tip.y, reach) \
                == reference_splice(pl, tip, reach)


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


# ---------------------------------------------------------------------------
# The batched bracketed solver against the scalar loop it replaced
# ---------------------------------------------------------------------------

def bracketed_root(phi, lo, hi, flo, fhi, width):
    """The scalar solver that bracketed_roots replaced, verbatim."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    slo, shi = flo, fhi  # the stored end values, halved by the Illinois rule
    moved, run = 0, 0  # the end that moved last (-1 lo, +1 hi), and how often
    while hi - lo > width:
        if run >= 3:
            t = 0.5 * (lo + hi)
        else:
            t = min(hi, lo + (hi - lo) * (slo / (slo - shi)))
        ft = phi(t)
        if ft == 0.0:
            return t
        side = -1 if (ft < 0.0) == (flo < 0.0) else 1
        run = run + 1 if side == moved else 1
        moved = side
        if side < 0:
            lo, flo, slo = t, ft, ft
            if run >= 2:
                shi *= 0.5
        else:
            hi, fhi, shi = t, ft, ft
            if run >= 2:
                slo *= 0.5
    return lo if abs(flo) <= abs(fhi) else hi


def _horner(coeffs, t):
    acc = 0 * t
    for c in coeffs:
        acc = acc * t + c
    return acc


def _double_zero_beside(d, r):
    # (t - d)^2 (t - r), highest power first
    return [1.0, -(2 * d + r), d * d + 2 * d * r, -d * d * r]


# (coefficients from the highest power, lo, hi): a step lands on an exact
# zero; zeros at lo and at hi; a double zero beside the bracket, which makes
# the solver bisect; phi(lo) = inf, so the regula falsi point is NaN and
# min(hi, NaN) keeps hi; then seeded cubics and quintics with a sign change
SPECIAL_BRACKETS = [
    ([1.0, -0.5], 0.0, 1.0),
    ([1.0, -0.25], 0.25, 1.0),
    ([1.0, -0.75], 0.0, 0.75),
    (_double_zero_beside(0.2, 0.25), 0.21, 1.0),
    (_double_zero_beside(0.0, 0.001), 0.0001, 1.0),
    ([1e300, 0.0, 0.0, 0.0, -1e300], -1000.0, 0.0),
]


def _seeded_brackets(count):
    rng = random.Random(19)
    out = list(SPECIAL_BRACKETS)
    while len(out) < count:
        coeffs = [rng.uniform(-4, 4) for _ in range(rng.choice((4, 6)))]
        lo = rng.uniform(-3, 2)
        hi = lo + rng.uniform(1e-3, 3)
        if _horner(coeffs, lo) * _horner(coeffs, hi) < 0:
            out.append((coeffs, lo, hi))
    return out


def _steps(coeffs, lo, hi):
    """The points the scalar solver evaluates, and whether it bisects."""
    ts = []

    def phi(t):
        ts.append(t)
        return _horner(coeffs, t)
    flo, fhi = _horner(coeffs, lo), _horner(coeffs, hi)
    bracketed_root(phi, lo, hi, flo, fhi, 1e-13)
    bisects = False
    for t in ts:  # replay: is a point ever the midpoint of its bracket?
        bisects |= t == 0.5 * (lo + hi)
        if (_horner(coeffs, t) < 0.0) == (flo < 0.0):
            lo = t
        else:
            hi = t
    return ts, bisects


def test_special_brackets_cover_every_exit():
    hit, at_lo, at_hi, bisect_a, bisect_b, overflow = SPECIAL_BRACKETS
    ts, _ = _steps(*hit)
    assert ts == [0.5] and _horner(hit[0], 0.5) == 0.0
    assert _steps(*at_lo)[0] == [] and _steps(*at_hi)[0] == []
    assert _steps(*bisect_a)[1] and _steps(*bisect_b)[1]
    assert _horner(overflow[0], overflow[1]) == math.inf
    assert _steps(*overflow)[0][0] == overflow[2]


def _batched(brackets, width, make_array, steps=None):
    # steps, a dict, counts the array rounds ("phi") and scalar steps ("phi1")
    coeffs = [c for c, _, _ in brackets]
    steps = {} if steps is None else steps

    def phi(t, idx):
        steps["phi"] = steps.get("phi", 0) + 1
        return make_array([_horner(coeffs[k], v)
                           for k, v in zip(idx.tolist(), t.tolist())])

    def phi1(t, k):
        steps["phi1"] = steps.get("phi1", 0) + 1
        return _horner(coeffs[k], t)
    return bracketed_roots(
        phi, phi1,
        make_array([lo for _, lo, _ in brackets]),
        make_array([hi for _, _, hi in brackets]),
        make_array([_horner(c, lo) for c, lo, _ in brackets]),
        make_array([_horner(c, hi) for c, _, hi in brackets]), width)


def _tails(count):
    # array rounds only, the module's tail, and scalar steps from the start,
    # each with the steps it must take: array rounds, scalar steps or both
    return ((0, {"phi"}), (curve._SCALAR_TAIL, {"phi", "phi1"}),
            (count + 1, {"phi1"}))


def test_bracketed_roots_takes_the_scalar_steps_on_floats(monkeypatch):
    brackets = _seeded_brackets(60)
    want = [bracketed_root(lambda t, c=c: _horner(c, t), lo, hi,
                           _horner(c, lo), _horner(c, hi), 1e-13)
            for c, lo, hi in brackets]
    assert 0 < curve._SCALAR_TAIL < len(brackets)
    for tail, taken in _tails(len(brackets)):
        monkeypatch.setattr(curve, "_SCALAR_TAIL", tail)
        steps = {}
        got = _batched(brackets, 1e-13, np.array, steps)
        assert set(steps) == taken
        assert got.dtype == np.float64
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        for b, w in zip(brackets, want):
            (one,) = _batched([b], 1e-13, np.array).tolist()
            assert one.hex() == w.hex()


def test_bracketed_roots_takes_the_scalar_steps_on_mpf(monkeypatch):
    def mpfs(values):
        return np.array([mp.mpf(v) for v in values], dtype=object)

    with mp.workdps(60):
        brackets = [([mp.mpf(c) / 3 for c in cs], mp.mpf(lo), mp.mpf(hi))
                    for cs, lo, hi in _seeded_brackets(48)]
        widths = [8 * mp.eps * max(abs(lo), abs(hi)) for _, lo, hi in brackets]
        want = [bracketed_root(lambda t, c=c: _horner(c, t), lo, hi,
                               _horner(c, lo), _horner(c, hi), w)
                for (c, lo, hi), w in zip(brackets, widths)]
        assert 0 < curve._SCALAR_TAIL < len(brackets)
        for tail, taken in _tails(len(brackets)):
            monkeypatch.setattr(curve, "_SCALAR_TAIL", tail)
            steps = {}
            got = _batched(brackets, mpfs(widths), mpfs, steps)
            assert set(steps) == taken
            assert [v.man_exp for v in got] == [v.man_exp for v in want]
            for b, w, width in zip(brackets, want, widths):
                (one,) = _batched([b], mpfs([width]), mpfs)
                assert one.man_exp == w.man_exp

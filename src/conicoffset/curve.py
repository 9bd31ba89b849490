"""Floating-point services over the exact polynomials: evaluation, the
parametric offset oracle, implicit-curve tracing, and SVG figure output.

Everything downstream of the exact algebra lives here.  Tolerances are always
scaled by the largest absolute coefficient of the polynomial at hand, since
normalized offset polynomials carry coefficients anywhere between 1 and 1e8.

Point evaluation is compile once, evaluate many: xy_evaluator turns an exact
polynomial into a float closure once (coefficients converted and grouped by
x-power), and the mesh loops call that closure; eval_poly is its one-point
form.  The tracer runs the same groups over numpy arrays (_array_eval): the
grid as one outer product (each group's Horner once along the y nodes, times
the x nodes' powers), then its saddle centers and its edge solves in batches.
Bit identity is part of the contract: the closure's floating-point
operations and their order are fixed, and _array_eval performs them
elementwise, so its values are the closure's bit for bit, and traced
vertices, SVG text and exported meshes stay identical byte for byte; golden
hashes in tests/test_curve.py and tests/test_mesh.py pin them.  A dense or
numpy Horner would reorder the sums and change those bytes.  The powers of x
go through np.float_power, which calls the C pow that Python's ``x ** k``
calls; np.power is ruled out, because numpy squares by one product and
dispatches other integer powers to SIMD loops (AVX-512 where the host has
it) that differ from pow in the last bit, so the grid, and with it the
traced vertices, would depend on the host.

The tracer solves each vertex on its own grid edge: one bracketed 1-D
solver (Illinois regula falsi with a bisection fallback,
cardano.bracketed_roots) between the two grid nodes whose signs differ, run
once per trace over every crossing edge, so no vertex leaves its edge, and
segments are chained through the edges they share, with no float tolerance;
its singular points, and which are isolated, come from the exact layer (no
mpmath here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cardano import bracketed_roots
from .conics import (ConicSpec, ELLIPSE, PARABOLA, base_conic_poly,
                     hessian_definite, offset_poly_closed_form, singular_locus)
from .errors import (EliminationError, ParamError, PreconditionError,
                     RingError, VarError)
from .poly import MultiPoly


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass(frozen=True)
class TracedCurve:
    polylines: tuple  # tuple of tuples of Point2
    bbox: tuple  # (xmin, xmax, ymin, ymax)
    resolution: int
    singular_vertices: tuple = ()  # the real singular points of g in the bbox

    def vertex_count(self):
        return sum(len(p) for p in self.polylines)


def max_abs_coeff(g: MultiPoly) -> float:
    return max(abs(float(c)) for c in g.terms.values())


def _xpow_groups(g: MultiPoly, **params) -> tuple:
    """The compile step of the float evaluators: VarError for a ring variable
    other than x and y without a keyword value, ``float`` of every
    coefficient times the powers of the keyword parameters, and the terms
    grouped by x-power in term order, each group a tuple of float
    coefficients from the highest y-power down with 0.0 where one is missing.
    """
    values = {k: float(v) for k, v in params.items()}
    missing = [v for v in g.ring if v not in values and v not in ("x", "y")]
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
        ypows = by_xpow.setdefault(m[ix] if ix is not None else 0, {})
        ye = m[iy] if iy is not None else 0
        ypows[ye] = ypows.get(ye, 0.0) + t
    return tuple((xe, tuple(ypows.get(e, 0.0)
                            for e in range(max(ypows), -1, -1)))
                 for xe, ypows in by_xpow.items())


def xy_evaluator(g: MultiPoly, **params):
    """Compile g once (_xpow_groups) into a float evaluator (x, y) -> float:
    Horner in y per group from 0.0, each group times x to its power added in
    turn, the fixed order of the bit-identity contract (module docstring)."""
    groups = _xpow_groups(g, **params)

    def evaluate(x, y) -> float:
        xv, yv = float(x), float(y)
        total = 0.0
        for xe, coeffs in groups:
            acc = 0.0
            for c in coeffs:
                acc = acc * yv + c
            total += acc * xv ** xe
        return total
    return evaluate


def eval_poly(g: MultiPoly, pt, **params) -> float:
    """Evaluate a polynomial at one point: ``xy_evaluator(g, **params)(x, y)``.

    `pt` supplies x and y (a Point2 or a pair); any further ring variables
    must be given as keyword arguments, otherwise VarError.  Code that
    evaluates one polynomial at many points compiles it once with
    xy_evaluator instead; both give the same floats bit for bit.
    """
    x, y = (pt.x, pt.y) if isinstance(pt, Point2) else (pt[0], pt[1])
    return xy_evaluator(g, **params)(x, y)


def _array_eval(groups, x, y) -> np.ndarray:
    """xy_evaluator's closure over numpy arrays x and y, broadcast together:
    the same operations in the same order on every element, so each value
    is the closure's float bit for bit (module docstring).  Over an outer
    grid (x a column, y a row) each group's Horner runs once along y."""
    total = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    for xe, coeffs in groups:
        acc = 0.0
        for c in coeffs:
            acc = acc * y + c
        total = total + acc * np.float_power(x, xe)
    return total


def conic_point_and_normal(conic: ConicSpec, t: float):
    """Base point beta(t) on the conic and the unit normal there.

    Parameterizations: parabola by x0 = t (vertex at t=0); ellipse by the
    angle t; hyperbola by the hyperbolic parameter t on the upper branch
    (mirror for the lower one via t -> t + branch flag, handled by caller).
    """
    if conic.kind == PARABOLA:
        p = float(conic.p)
        x0, y0 = t, t * t / (4.0 * p)
        # gradient of x^2 - 4 p y, normalized; points to the convex side
        nx, ny = 2.0 * x0, -4.0 * p
    elif conic.kind == ELLIPSE:
        a, b = float(conic.a), float(conic.b)
        x0, y0 = b * math.cos(t), a * math.sin(t)
        nx, ny = x0 / (b * b), y0 / (a * a)
    else:
        a, b = float(conic.a), float(conic.b)
        x0, y0 = b * math.sinh(t), a * math.cosh(t)
        nx, ny = -x0 / (b * b), y0 / (a * a)
    norm = math.hypot(nx, ny)
    return (x0, y0), (nx / norm, ny / norm)


def parametric_offset_samples(conic: ConicSpec, r: float, n: int) -> list:
    """2n points at exact normal distance r from the conic (n per side).

    This is the package's independent oracle for the implicit offset
    polynomials: every returned point lies on the variety of g up to float
    rounding.  The sweeps are fixed: the parabola's x0 covers [-12|p|, 12|p|],
    the ellipse's angle the full turn, and the hyperbola's parameter
    |t| <= asinh(3) on both branches.
    """
    if n < 2:
        raise ParamError("need n >= 2 sample parameters")
    r = float(r)
    if not (r > 0 and math.isfinite(r)):
        raise ParamError("offset r must be positive and finite")
    pts = []

    def emit(t, mirror=False):
        (x0, y0), (nx, ny) = conic_point_and_normal(conic, float(t))
        if mirror:
            y0, ny = -y0, -ny
        for sgn in (1.0, -1.0):
            pts.append(Point2(x0 + sgn * r * nx, y0 + sgn * r * ny))

    if conic.kind == PARABOLA:
        width = 12.0 * abs(float(conic.p))
        for t in np.linspace(-width, width, n):
            emit(t)
    elif conic.kind == ELLIPSE:
        for t in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False):
            emit(t)
    else:
        # split the n parameters between the two branches (lower = mirror)
        n_up = (n + 1) // 2
        tmax = math.asinh(3.0)
        for t in np.linspace(-tmax, tmax, n_up):
            emit(t)
        if n > n_up:
            for t in np.linspace(-tmax, tmax, n - n_up):
                emit(t, mirror=True)
    return pts


def curvature(conic: ConicSpec, t: float) -> float:
    """|beta' x beta''| / |beta'|^3 for the standard parameterizations."""
    if conic.kind == PARABOLA:
        p = float(conic.p)
        cross = abs(1.0 / (2.0 * p))
        speed2 = 1.0 + (t / (2.0 * p)) ** 2
    elif conic.kind == ELLIPSE:
        a, b = float(conic.a), float(conic.b)
        cross = a * b
        speed2 = (b * math.sin(t)) ** 2 + (a * math.cos(t)) ** 2
    else:
        a, b = float(conic.a), float(conic.b)
        cross = a * b
        speed2 = (b * math.cosh(t)) ** 2 + (a * math.sinh(t)) ** 2
    return cross / speed2 ** 1.5


def max_curvature(conic: ConicSpec) -> float:
    """Numerically maximized curvature over a parametric sweep.

    Dense sampling (4096 parameters) brackets the maximum, then golden-section
    refinement polishes it to machine precision.  Independent of the closed-form
    critical-offset formula, which it reciprocates.
    """
    if conic.kind == PARABOLA:
        lo, hi = -4.0 * abs(float(conic.p)), 4.0 * abs(float(conic.p))
    elif conic.kind == ELLIPSE:
        lo, hi = 0.0, math.pi
    else:
        lo, hi = -1.5, 1.5
    ts = np.linspace(lo, hi, 4096)
    ks = [curvature(conic, float(t)) for t in ts]
    best = int(np.argmax(ks))
    a = ts[max(0, best - 1)]
    b = ts[min(len(ts) - 1, best + 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = curvature(conic, c), curvature(conic, d)
    for _ in range(200):
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = curvature(conic, c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = curvature(conic, d)
    return max(fc, fd, ks[best])


def _cell_segments(code):
    """The pairs of crossing edges that the segments of a cell join, first
    with the cell center not negative, then with it negative.  Bit k of the
    code is set when corner k is negative; the corners run counterclockwise
    from node (i, j), and edge k joins corner k to the next.  Only the
    saddles 5 and 10 depend on the center: it joins the two corners of its
    own sign, so each segment cuts off one of the other two."""
    if code == 5:  # corners 0 and 2 negative
        return ((0, 3), (1, 2)), ((0, 1), (2, 3))
    if code == 10:  # corners 1 and 3 negative
        return ((0, 1), (2, 3)), ((0, 3), (1, 2))
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))  # the corners of each edge
    crossing = tuple(e for e, (a, b) in enumerate(edges)
                     if (code >> a ^ code >> b) & 1)
    return (crossing,), (crossing,)


_CELL_SEGMENTS = tuple(_cell_segments(code) for code in range(16))


def trace_implicit(g: MultiPoly, bbox, resolution: int = 256) -> TracedCurve:
    """Marching-squares contour of g = 0 with each vertex solved on its edge.

    Cells are scanned row-major; saddle cells (two opposite sign pairs) are
    disambiguated by the sign at the cell center.  Every crossing grid edge
    gets one vertex, the root of g along that edge found by the bracketed
    solver (cardano.bracketed_roots, one call for all the edges of a trace),
    so the vertex lies on its edge: its x is a grid x-value or its y a grid
    y-value.  A segment joins two crossing edges of a cell, and segments are
    chained through the edges they share, so a closed curve comes back to
    its first vertex and an open polyline ends on the bbox boundary.  Output
    is a pure function of the inputs; every vertex satisfies
    |g| <= 1e-6 * max|coeff|.

    When any cell crosses, the trace pins every real singular point of g in
    the closed bbox: conics.singular_locus(g), rounded to float.  A pin with a
    definite Hessian (conics.hessian_definite) is a virtual point, reported
    only; nodes and cusps are spliced into the curve.  A locus that is not
    finite (g has a repeated factor, as x^2*y has) gives no pins.  The pins
    cost one exact Groebner completion of <g, g_x, g_y>: a few ms for a conic
    offset, seconds or more for a dense g of degree 8; ResourceLimitError
    propagates.  g must be over the ring ("x", "y") (RingError), the
    resolution an int (not a bool) of at least 8, the bbox four finite
    numbers and g finite on its grid (ParamError).
    """
    if g.ring != ("x", "y"):
        raise RingError(f"trace needs a polynomial over (x, y), not {g.ring}")
    if not isinstance(resolution, int) or isinstance(resolution, bool) \
            or resolution < 8:
        raise ParamError(f"resolution must be an int of at least 8, "
                         f"not {resolution!r}")
    try:
        xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    except (TypeError, ValueError) as exc:
        raise ParamError(f"bbox needs four numbers, got {bbox!r}") from exc
    if not (xmax > xmin and ymax > ymin):
        raise ParamError("empty bounding box")
    groups = _xpow_groups(g)
    with np.errstate(all="ignore"):
        xs = np.linspace(xmin, xmax, resolution + 1)
        ys = np.linspace(ymin, ymax, resolution + 1)
        vals = _array_eval(groups, xs[:, None], ys[None, :])
    if not all(np.isfinite(v).all() for v in (xs, ys, vals)):
        raise ParamError("bounding box or g not finite on the grid")

    neg = vals < 0.0
    codes = (neg[:-1, :-1].astype(np.int8)
             | (neg[1:, :-1].astype(np.int8) << 1)
             | (neg[1:, 1:].astype(np.int8) << 2)
             | (neg[:-1, 1:].astype(np.int8) << 3))
    crossing_cells = np.argwhere((codes != 0) & (codes != 15))
    if crossing_cells.size == 0:
        return TracedCurve(polylines=(), bbox=(xmin, xmax, ymin, ymax),
                           resolution=resolution)
    ci, cj = crossing_cells.T
    cell_codes = codes[ci, cj]
    # saddle cells (codes 5 and 10) are told apart by the sign at the center
    saddle = (cell_codes == 5) | (cell_codes == 10)
    neg_center = np.zeros(len(cell_codes), dtype=bool)
    si, sj = ci[saddle], cj[saddle]
    with np.errstate(all="ignore"):
        neg_center[saddle] = _array_eval(groups, (xs[si] + xs[si + 1]) / 2,
                                         (ys[sj] + ys[sj + 1]) / 2) < 0.0
    # a segment is a pair of edge keys; an edge key is the pair of its grid
    # nodes, lower index first, so the two cells beside an edge name it alike
    segments = []
    for i, j, code, center in zip(ci.tolist(), cj.tolist(),
                                  cell_codes.tolist(), neg_center.tolist()):
        keys = (((i, j), (i + 1, j)), ((i + 1, j), (i + 1, j + 1)),
                ((i, j + 1), (i + 1, j + 1)), ((i, j), (i, j + 1)))
        segments.extend((keys[ea], keys[eb])
                        for ea, eb in _CELL_SEGMENTS[code][center])

    by_edge: dict = {}
    for idx, seg in enumerate(segments):
        for key in seg:
            by_edge.setdefault(key, []).append(idx)

    # every crossing edge solved at once, t in edge units from its first node
    ia, ja, ib, jb = np.array(list(by_edge)).reshape(-1, 4).T
    xa, ya = xs[ia], ys[ja]
    dx, dy = xs[ib] - xa, ys[jb] - ya
    t = bracketed_roots(
        lambda u, k: _array_eval(groups, xa[k] + u * dx[k], ya[k] + u * dy[k]),
        np.zeros(len(ia)), np.ones(len(ia)), vals[ia, ja], vals[ib, jb],
        1e-13)  # the stop width, in edge units
    vertex = dict(zip(by_edge, map(Point2, (xa + t * dx).tolist(),
                                   (ya + t * dy).tolist())))

    used = [False] * len(segments)

    def walk(key):
        # the edges passed by taking, each time, the unused segment through
        # the current edge
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

    cell = min(xmax - xmin, ymax - ymin) / resolution
    polylines, tips = _snap_singular_vertices(polylines, g,
                                              (xmin, xmax, ymin, ymax), cell)
    polylines = [tuple(pl) for pl in polylines]
    polylines.sort(key=lambda pl: (pl[0].x, pl[0].y, len(pl)))
    tips = tuple(sorted(tips, key=lambda p: (p.x, p.y)))
    return TracedCurve(polylines=tuple(polylines),
                       bbox=(xmin, xmax, ymin, ymax), resolution=resolution,
                       singular_vertices=tips)


def _snap_singular_vertices(polylines, g, bbox, cell):
    """Pin the trace to the singular points of g (see trace_implicit).

    Each on-curve tip is spliced into the nearest segment of every polyline
    within 4 cells.  A tiny closed ring (at most 12 vertices, all within 4
    cells) around any tip is dropped: it is rounding aliasing, since near a
    cusp the beak is thinner than a cell and near an isolated zero g does
    not change sign.  `cell` is the grid step of the shorter bbox side.
    """
    xmin, xmax, ymin, ymax = bbox
    try:
        locus = singular_locus(g)
    except EliminationError:
        return polylines, []  # a repeated factor: no finite set to pin
    pins = [(xv, yv) for xv, yv in locus
            if xmin <= float(xv) <= xmax and ymin <= float(yv) <= ymax]
    tips = [Point2(float(xv), float(yv)) for xv, yv in pins]
    on_curve_tips = [t for t, isolated in zip(tips, hessian_definite(g, pins))
                     if not isolated]

    # drop tiny aliasing rings hugging any tip
    def is_ring_artifact(pl):
        if len(pl) > 12 or pl[0] != pl[-1]:
            return False
        return any(all(math.hypot(p.x - t.x, p.y - t.y) <= 4 * cell for p in pl)
                   for t in tips)

    polylines = [pl for pl in polylines if not is_ring_artifact(pl)]

    # splice each on-curve tip into every segment passing within reach
    out = []
    for pl in polylines:
        new_pl = list(pl)
        for t in on_curve_tips:
            if len(new_pl) < 2 or t in new_pl:
                continue
            d, i = min((_segment_distance(t.x, t.y, a, b), i)
                       for i, (a, b) in enumerate(zip(new_pl, new_pl[1:])))
            if d <= 4 * cell:
                new_pl.insert(i + 1, t)
        out.append(new_pl)
    return out, tips


def _segment_distance(px, py, a, b):
    vx, vy = b.x - a.x, b.y - a.y
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(px - a.x, py - a.y)
    t = max(0.0, min(1.0, ((px - a.x) * vx + (py - a.y) * vy) / L2))
    return math.hypot(px - (a.x + t * vx), py - (a.y + t * vy))


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------

_SVG_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">\n'
    '<rect width="{w}" height="{h}" fill="white"/>\n'
)


def plot_svg(curves, markers=(), path=None, styles=None, labels=True) -> str:
    """Render traced curves plus point markers as a standalone SVG string,
    640 units along its longer side.

    `styles` is an optional per-curve list of (stroke, dasharray-or-None).
    When `path` is given the SVG is also written there.  Output is
    deterministic for fixed inputs.
    """
    curves = list(curves)
    markers = list(markers)
    if not curves and not markers:
        raise PreconditionError("nothing to plot")
    xs, ys = [], []
    for c in curves:
        xs += [c.bbox[0], c.bbox[1]]
        ys += [c.bbox[2], c.bbox[3]]
    for m in markers:
        xs.append(m.x)
        ys.append(m.y)
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    xmin -= pad
    xmax += pad
    ymin -= pad
    ymax += pad
    scale = 640 / max(xmax - xmin, ymax - ymin)
    w = (xmax - xmin) * scale
    h = (ymax - ymin) * scale

    def sx(x):
        return (x - xmin) * scale

    def sy(y):
        return h - (y - ymin) * scale

    parts = [_SVG_HEADER.format(w=f"{w:.2f}", h=f"{h:.2f}")]
    # axes
    if xmin < 0 < xmax:
        parts.append(f'<line x1="{sx(0):.2f}" y1="0" x2="{sx(0):.2f}" y2="{h:.2f}" '
                     'stroke="#bbbbbb" stroke-width="1"/>\n')
    if ymin < 0 < ymax:
        parts.append(f'<line x1="0" y1="{sy(0):.2f}" x2="{w:.2f}" y2="{sy(0):.2f}" '
                     'stroke="#bbbbbb" stroke-width="1"/>\n')
    default_styles = [("#1f77b4", None), ("#d62728", None), ("#2ca02c", "6,4")]
    for ci, curve in enumerate(curves):
        stroke, dash = (styles[ci] if styles and ci < len(styles)
                        else default_styles[ci % len(default_styles)])
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        for pl in curve.polylines:
            coords = " ".join(f"{sx(p.x):.3f},{sy(p.y):.3f}" for p in pl)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{stroke}" stroke-width="1.5"{dash_attr}/>\n')
    for mi, m in enumerate(markers):
        parts.append(f'<circle cx="{sx(m.x):.3f}" cy="{sy(m.y):.3f}" r="4" '
                     'fill="#000000"/>\n')
        if labels:
            parts.append(f'<text x="{sx(m.x) + 6:.3f}" y="{sy(m.y) - 6:.3f}" '
                         f'font-size="12" font-family="sans-serif">S{mi + 1}</text>\n')
    parts.append("</svg>\n")
    svg = "".join(parts)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return svg


def offset_figure(conic: ConicSpec, r, bbox=None, resolution: int = 512,
                  path=None) -> str:
    """One-call reproduction of an offset-curve figure: base conic dashed,
    parallel lines solid, singular points marked.

    The markers are the offset trace's pins, its singular_vertices (the real
    singular points in the bbox), labelled S1..Sn in (y, x) order."""
    g = offset_poly_closed_form(conic, r).g
    if bbox is None:
        rf = float(r)
        if conic.kind == PARABOLA:
            p4 = 4 * abs(float(conic.p))
            bbox = (-2 * p4 - rf, 2 * p4 + rf, -p4 - rf, 3 * p4 + rf)
        else:
            a, b = float(conic.a), float(conic.b)
            bbox = (-b - 3 * rf - 1, b + 3 * rf + 1, -a - 3 * rf - 1, a + 3 * rf + 1)
    offset_curve = trace_implicit(g, bbox, resolution)
    base = base_conic_poly(conic.kind, conic.param_map())
    base_curve = trace_implicit(base, bbox, resolution)
    markers = sorted(offset_curve.singular_vertices, key=lambda p: (p.y, p.x))
    return plot_svg([offset_curve, base_curve], markers, path=path,
                    styles=[("#1f77b4", None), ("#777777", "6,4")])

"""Floating-point services over the exact polynomials: evaluation, the
parametric offset oracle, implicit-curve tracing, and SVG figure output.

Everything downstream of the exact algebra lives here.  Tolerances are always
scaled by the largest absolute coefficient of the polynomial at hand, since
normalized offset polynomials carry coefficients anywhere between 1 and 1e8.

Point evaluation is compile once, evaluate many: xy_evaluator turns an exact
polynomial into a float closure once (coefficients converted and grouped by
x-power), and the tracing, snapping and mesh loops call that closure.
eval_poly is the one-point form of the same path.  Bit identity is part of
the contract: the closure's floating-point operations and their order are
fixed, so traced vertices, SVG text and exported meshes stay identical byte
for byte; golden hashes in tests/test_curve.py and tests/test_mesh.py pin
them.  A dense or numpy Horner would reorder the sums and change those bytes.
_grid_eval, the vectorized sign pass of the trace, adds only the y-powers
present (a 0.0 filler there could turn a -0.0 into 0.0).

The tracer solves each vertex on its own grid edge: one bracketed 1-D
solver (Illinois regula falsi with a bisection fallback) between the two
grid nodes whose signs differ, so no vertex leaves its edge, and segments are
chained through the edges they share, with no float tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conics import (ConicSpec, ELLIPSE, PARABOLA, base_conic_poly,
                     offset_poly_closed_form, singular_points)
from .errors import ParamError, PreconditionError, VarError
from .poly import MultiPoly, gradient


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
    singular_vertices: tuple = ()  # variety singular points pinned by the trace

    def vertex_count(self):
        return sum(len(p) for p in self.polylines)


def max_abs_coeff(g: MultiPoly) -> float:
    return max(abs(float(c)) for c in g.terms.values())


def xy_evaluator(g: MultiPoly, **params):
    """Compile g once into a float evaluator ``(x, y) -> float``.

    Everything that does not depend on the point happens here, once: the
    check for ring variables other than x and y without a keyword value
    (VarError), ``float`` of every coefficient times the powers of the
    keyword parameters, and the grouping of terms by x-power in term order,
    each group a tuple of float coefficients from the highest y-power down
    with 0.0 where a power is missing.  The closure runs Horner in y inside
    each group, starting from 0.0, and adds each group times x to its power.
    That fixed order of operations is the bit-identity contract of the float
    layer (see the module docstring).
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
    groups = tuple((xe, tuple(ypows.get(e, 0.0)
                              for e in range(max(ypows), -1, -1)))
                   for xe, ypows in by_xpow.items())

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


def _grid_eval(g: MultiPoly, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on the tensor grid: Horner in y per x-power."""
    ix, iy = g.ring.index("x"), g.ring.index("y")
    by_xpow: dict = {}
    for m, c in g.terms.items():
        by_xpow.setdefault(m[ix], {})[m[iy]] = float(c)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    out = np.zeros_like(X)
    for xe, ypows in by_xpow.items():
        deg = max(ypows)
        acc = np.zeros_like(Y)
        for e in range(deg, -1, -1):
            acc *= Y
            if e in ypows:
                acc += ypows[e]
        out += acc * np.power(X, xe)
    return out


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


def parametric_offset_samples(conic: ConicSpec, r: float, n: int,
                              span: float = 3.0) -> list:
    """2n points at exact normal distance r from the conic (n per side).

    This is the package's independent oracle for the implicit offset
    polynomials: every returned point lies on the variety of g up to float
    rounding.  The parabola sweeps x0 over [-span*4p', span*4p'], the ellipse
    sweeps the full angle range, the hyperbola sweeps |t| <= asinh(span) on
    both branches.
    """
    if n < 2:
        raise ParamError("need n >= 2 sample parameters")
    r = float(r)
    if r <= 0:
        raise ParamError("offset r must be positive")
    pts = []

    def emit(t, mirror=False):
        (x0, y0), (nx, ny) = conic_point_and_normal(conic, float(t))
        if mirror:
            y0, ny = -y0, -ny
        for sgn in (1.0, -1.0):
            pts.append(Point2(x0 + sgn * r * nx, y0 + sgn * r * ny))

    if conic.kind == PARABOLA:
        width = 4.0 * abs(float(conic.p)) * span
        for t in np.linspace(-width, width, n):
            emit(t)
    elif conic.kind == ELLIPSE:
        for t in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False):
            emit(t)
    else:
        # split the n parameters between the two branches (lower = mirror)
        n_up = (n + 1) // 2
        tmax = math.asinh(span)
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


def max_curvature(conic: ConicSpec, samples: int = 4096) -> float:
    """Numerically maximized curvature over a parametric sweep.

    Dense sampling brackets the maximum, then golden-section refinement
    polishes it to machine precision.  Independent of the closed-form
    critical-offset formula, which it reciprocates.
    """
    if conic.kind == PARABOLA:
        lo, hi = -4.0 * abs(float(conic.p)), 4.0 * abs(float(conic.p))
    elif conic.kind == ELLIPSE:
        lo, hi = 0.0, math.pi
    else:
        lo, hi = -1.5, 1.5
    ts = np.linspace(lo, hi, samples)
    ks = [curvature(conic, float(t)) for t in ts]
    best = int(np.argmax(ks))
    a = ts[max(0, best - 1)]
    b = ts[min(samples - 1, best + 1)]
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


_BRACKET_WIDTH = 1e-13  # stop width, in edge units


def _bracketed_root(phi, lo, hi, flo, fhi):
    """Root of phi on [lo, hi], given flo = phi(lo) and fhi = phi(hi) of
    opposite signs.

    Illinois regula falsi (Dowell & Jarratt, BIT 1971): when the same end
    moves twice running, the other end's stored value is halved.  When it has
    moved three times running the step is a bisection instead: near a double
    zero of phi beside the bracket (a virtual singular point) regula falsi
    alone walks into that zero until rounding fakes a sign change.  The
    bracket never widens, so the root stays between lo and hi.  Stops on an
    exact zero or once the bracket is narrower than _BRACKET_WIDTH, and
    returns the end with the smaller |phi|.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    slo, shi = flo, fhi  # the stored end values, halved by the Illinois rule
    moved, run = 0, 0  # the end that moved last (-1 lo, +1 hi), and how often
    while hi - lo > _BRACKET_WIDTH:
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


def trace_implicit(g: MultiPoly, bbox, resolution: int = 256) -> TracedCurve:
    """Marching-squares contour of g = 0 with each vertex solved on its edge.

    Cells are scanned row-major; saddle cells (two opposite sign pairs) are
    disambiguated by the sign at the cell center.  Every crossing grid edge
    gets one vertex, the root of g along that edge found by a bracketed
    solver (_bracketed_root), so the vertex lies on its edge: its x is a grid
    x-value or its y a grid y-value.  A segment joins two crossing edges of a
    cell, and segments are chained through the edges they share, so a closed
    curve comes back to its first vertex and an open polyline ends on the
    bbox boundary.  Singular points of the variety adjacent to the trace are
    pinned exactly (see _snap_singular_vertices).  Output is a pure function
    of the inputs; every vertex satisfies |g| <= 1e-6 * max|coeff|.
    """
    if resolution < 8:
        raise ParamError("resolution must be at least 8")
    xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    if not (xmax > xmin and ymax > ymin):
        raise ParamError("empty bounding box")
    xs = np.linspace(xmin, xmax, resolution + 1)
    ys = np.linspace(ymin, ymax, resolution + 1)
    vals = _grid_eval(g, xs, ys)

    neg = vals < 0.0
    codes = (neg[:-1, :-1].astype(np.int8)
             | (neg[1:, :-1].astype(np.int8) << 1)
             | (neg[1:, 1:].astype(np.int8) << 2)
             | (neg[:-1, 1:].astype(np.int8) << 3))
    crossing_cells = np.argwhere((codes != 0) & (codes != 15))

    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    if crossing_cells.size == 0:
        return TracedCurve(polylines=(), bbox=(xmin, xmax, ymin, ymax),
                           resolution=resolution)
    f = xy_evaluator(g)
    # a segment is a pair of edge keys; an edge key is the pair of its grid
    # nodes, lower index first, so the two cells beside an edge name it alike
    segments = []
    for i, j in crossing_cells.tolist():
        code = int(codes[i, j])
        if code in (5, 10):
            # saddle cell: resolve the pairing by the sign at the center
            center = f((xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2)
            neg_center = center < 0.0
            if code == 5:  # corners 0 and 2 negative
                pairs = [(0, 3), (1, 2)] if neg_center else [(0, 1), (2, 3)]
            else:  # corners 1 and 3 negative
                pairs = [(0, 1), (2, 3)] if neg_center else [(0, 3), (1, 2)]
        else:
            pairs = [tuple(e for e, (a, b) in enumerate(edges)
                           if (code >> a ^ code >> b) & 1)]
        keys = (((i, j), (i + 1, j)), ((i + 1, j), (i + 1, j + 1)),
                ((i, j + 1), (i + 1, j + 1)), ((i, j), (i, j + 1)))
        segments.extend((keys[ea], keys[eb]) for ea, eb in pairs)

    by_edge: dict = {}
    for idx, seg in enumerate(segments):
        for key in seg:
            by_edge.setdefault(key, []).append(idx)

    xl, yl = xs.tolist(), ys.tolist()

    def solve(key):
        (ia, ja), (ib, jb) = key
        xa, ya, xb, yb = xl[ia], yl[ja], xl[ib], yl[jb]
        dx, dy = xb - xa, yb - ya
        t = _bracketed_root(lambda u: f(xa + u * dx, ya + u * dy), 0.0, 1.0,
                            float(vals[ia, ja]), float(vals[ib, jb]))
        return Point2(xa + t * dx, ya + t * dy)

    vertex = {key: solve(key) for key in by_edge}

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
    """Pin the trace to nearby singular points of the variety.

    Marching squares cannot resolve a cusp tip (the beak is thinner than a
    grid cell near it) and places no vertex exactly on a node.  This pass
    seeds Newton iteration on the gradient system from the lowest-|grad g|
    vertices and keeps converged points that lie on the variety within a few
    cells.  It splices each tip on the closure of the curve (node or cusp)
    into the nearest passing segments; an isolated tip (a virtual singular
    point) is reported only.  A tiny closed ring (at most 12 vertices, all
    within 4 cells) around any tip is dropped: it is rounding aliasing, since
    near a cusp the beak is thinner than a cell and near an isolated zero g
    does not change sign.  `cell` is the grid step of the shorter bbox side.
    """
    xmin, xmax, ymin, ymax = bbox
    gx, gy = gradient(g, ["x", "y"])
    gxx, gxy = gradient(gx, ["x", "y"])
    _, gyy = gradient(gy, ["x", "y"])
    g_scale = max_abs_coeff(g)
    grad_scale = max(max_abs_coeff(gx), max_abs_coeff(gy))
    f, f_x, f_y = xy_evaluator(g), xy_evaluator(gx), xy_evaluator(gy)
    f_xx, f_xy, f_yy = xy_evaluator(gxx), xy_evaluator(gxy), xy_evaluator(gyy)

    def singular_newton(x, y):
        for _ in range(60):
            fx, fy = f_x(x, y), f_y(x, y)
            a11, a12 = f_xx(x, y), f_xy(x, y)
            a22 = f_yy(x, y)
            det = a11 * a22 - a12 * a12
            if det == 0.0 or not math.isfinite(det):
                return None
            dx = (-fx * a22 + fy * a12) / det
            dy = (-fy * a11 + fx * a12) / det
            x += dx
            y += dy
            if math.hypot(dx, dy) < 1e-14:
                break
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            return None
        if abs(f(x, y)) > 1e-9 * g_scale:
            return None
        if math.hypot(f_x(x, y), f_y(x, y)) > 1e-9 * grad_scale:
            return None
        return (x, y)

    def is_isolated(x, y):
        # definite Hessian => isolated real zero (a virtual singular point,
        # not on the closure of the curve); nodes are indefinite, cusps
        # degenerate.  A float cusp tip reads det/mag up to about 1e-5 either
        # side of 0 (the critical offsets' degenerate points the most), a
        # virtual point above 1e-3 even at 0.999 r_crit: 1e-4 parts them
        a11, a12 = f_xx(x, y), f_xy(x, y)
        a22 = f_yy(x, y)
        det = a11 * a22 - a12 * a12
        mag = (abs(a11) + abs(a12) + abs(a22)) ** 2
        return det > 1e-4 * mag

    # seeds: per-polyline local minima of the gradient magnitude
    seeds = []
    for pl in polylines:
        graded = [(math.hypot(f_x(p.x, p.y), f_y(p.x, p.y)) / grad_scale, p)
                  for p in pl]
        graded.sort(key=lambda t: t[0])
        seeds.extend(p for _, p in graded[:max(4, len(graded) // 25)])
        seeds.extend((pl[0], pl[-1]))

    tips = []
    for s in seeds:
        hit = singular_newton(s.x, s.y)
        if hit is None or math.hypot(hit[0] - s.x, hit[1] - s.y) > 6 * cell:
            continue
        if all(math.hypot(hit[0] - t.x, hit[1] - t.y) > cell for t in tips):
            tips.append(Point2(*hit))

    if not tips:
        return polylines, tips

    # only singular points on the closure of the curve (nodes, cusps) get
    # spliced into polylines; isolated virtual points are reported but must
    # stay off the trace
    on_curve_tips = [t for t in tips if not is_isolated(t.x, t.y)]

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
            best = None
            for i in range(len(new_pl) - 1):
                a, b = new_pl[i], new_pl[i + 1]
                d = _segment_distance(t.x, t.y, a, b)
                if best is None or d < best[0]:
                    best = (d, i)
            if best is not None and best[0] <= 4 * cell and \
                    all(q != t for q in new_pl):
                new_pl.insert(best[1] + 1, t)
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


def plot_svg(curves, markers=(), path=None, size=640, styles=None,
             labels=True) -> str:
    """Render traced curves plus point markers as a standalone SVG string.

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
    scale = size / max(xmax - xmin, ymax - ymin)
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
                  mark_singular: bool = True, path=None) -> str:
    """One-call reproduction of an offset-curve figure: base conic dashed,
    parallel lines solid, singular points marked."""
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
    markers = []
    if mark_singular:
        rep = singular_points(conic, r)
        markers = [Point2(*s.as_floats()) for s in rep.points]
    return plot_svg([offset_curve, base_curve], markers, path=path,
                    styles=[("#1f77b4", None), ("#777777", "6,4")])

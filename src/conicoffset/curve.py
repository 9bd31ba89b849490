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
once per trace over every crossing edge, so no vertex leaves its edge.
Segments are chained through the edges they share, with no float tolerance
and no per-cell Python: each grid edge has an integer id (node index times
2, plus 1 along y), a table gives every segment's two edge ids at once, one
sort of those ids pairs each segment end with its partner across the edge,
and the walk follows the partner ends.  Its singular points, and which are
isolated, come from the exact layer (no mpmath here); each on-curve one is
spliced into a polyline by one array pass over its segments, which picks
the segment a scalar distance scan picks, near ties decided by math.hypot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cardano import bracketed_roots
from .conics import (ConicSpec, ELLIPSE, PARABOLA, base_conic_poly,
                     hessian_definite, offset_poly_closed_form, singular_locus)
from .errors import (EliminationError, ParamError, PreconditionError,
                     ResourceLimitError, RingError, VarError)
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


def _coeff_float(c) -> float:
    try:
        return float(c)
    except OverflowError:
        raise ParamError("a coefficient is past the float range") from None


def max_abs_coeff(g: MultiPoly) -> float:
    return max(abs(_coeff_float(c)) for c in g.terms.values())


def _xpow_groups(g: MultiPoly, **params) -> tuple:
    """The compile step of the float evaluators: VarError for a ring variable
    other than x and y without a keyword value, ``float`` of every
    coefficient times the powers of the keyword parameters, and the terms
    grouped by x-power in term order, each group a tuple of float
    coefficients from the highest y-power down with 0.0 where one is missing.
    A coefficient past the float range is a ParamError.
    """
    values = {k: float(v) for k, v in params.items()}
    missing = [v for v in g.ring if v not in values and v not in ("x", "y")]
    if missing:
        raise VarError(f"unassigned variables {missing}")
    ix = g.ring.index("x") if "x" in g.ring else None
    iy = g.ring.index("y") if "y" in g.ring else None
    by_xpow: dict = {}
    for m, c in g.terms.items():
        t = _coeff_float(c)
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


def _segment_edges():
    """_cell_segments as one array: [code, center negative, segment, end] is
    the cell edge that the end of the segment lies on, -1 where the cell has
    no such segment (codes 0 and 15 have none, the saddles two)."""
    table = np.full((16, 2, 2, 2), -1)
    for code in range(1, 15):
        for center, segments in enumerate(_cell_segments(code)):
            table[code, center, :len(segments)] = segments
    return table


_SEGMENT_EDGES = _segment_edges()

# the largest trace resolution: 16 times offset_figure's default of 512
MAX_RESOLUTION = 2 ** 13


def trace_implicit(g: MultiPoly, bbox, resolution: int = 256) -> TracedCurve:
    """Marching-squares contour of g = 0 with each vertex solved on its edge.

    Cells are scanned row-major; saddle cells (two opposite sign pairs) are
    disambiguated by the sign at the cell center.  Every crossing grid edge
    gets one vertex, the root of g along that edge found by the bracketed
    solver (cardano.bracketed_roots, one call for all the edges of a trace),
    so the vertex lies on its edge: its x is a grid x-value or its y a grid
    y-value.  A segment joins two crossing edges of a cell, and segments are
    chained through the edges they share, so a closed curve comes back to
    its first vertex and an open polyline ends on the bbox boundary.  Each
    polyline starts from the lowest-numbered segment of its piece, runs back
    from that segment's first edge and on from its second.  Output is a pure
    function of the inputs; every vertex satisfies |g| <= 1e-6 * max|coeff|.

    The chaining is integer array work: a grid edge's id is its first node's
    index times 2, plus 1 when it runs along y, so the two cells beside an
    edge name it alike; _SEGMENT_EDGES gives every segment's two edge ids,
    one sort of the ids pairs each segment end with the end of the segment
    across its edge, and the walk follows those partner ends.

    When any cell crosses, the trace pins every real singular point of g in
    the closed bbox: conics.singular_locus(g), rounded to float.  A pin with a
    definite Hessian (conics.hessian_definite) is a virtual point, reported
    only; nodes and cusps are spliced into the nearest segment of each
    polyline within 4 cells, found by one array pass per polyline and pin
    (_splice_segment), and none is dropped.  A locus that is not finite (g
    has a repeated factor, as x^2*y has) gives no pins.  The pins cost one
    exact Groebner completion of <g, g_x, g_y>: a few ms for a conic offset,
    seconds or more for a dense g of degree 8; ResourceLimitError
    propagates.  g must be over the ring ("x", "y") (RingError), the
    resolution an int (not a bool) of at least 8, the bbox four finite
    numbers and g finite on its grid (ParamError).  A resolution above
    MAX_RESOLUTION raises ResourceLimitError before any grid is allocated.
    """
    if g.ring != ("x", "y"):
        raise RingError(f"trace needs a polynomial over (x, y), not {g.ring}")
    if not isinstance(resolution, int) or isinstance(resolution, bool) \
            or resolution < 8:
        raise ParamError(f"resolution must be an int of at least 8, "
                         f"not {resolution!r}")
    if resolution > MAX_RESOLUTION:
        raise ResourceLimitError(f"resolution {resolution} is above the "
                                 f"limit {MAX_RESOLUTION}")
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
    neg_center = np.zeros(len(cell_codes), dtype=int)  # a table index
    si, sj = ci[saddle], cj[saddle]
    with np.errstate(all="ignore"):
        neg_center[saddle] = _array_eval(groups, (xs[si] + xs[si + 1]) / 2,
                                         (ys[sj] + ys[sj + 1]) / 2) < 0.0
    # every segment's two edge ids, the cells in row-major order and each
    # cell's segments in table order; cell edges 0..3 are the edge along x
    # from node (i, j), along y from (i + 1, j), along x from (i, j + 1) and
    # along y from (i, j)
    n1 = resolution + 1
    cell_edges = _SEGMENT_EDGES[cell_codes, neg_center]
    seg_cell, seg_slot = np.nonzero(cell_edges[..., 0] >= 0)
    edge_offset = np.array([0, 2 * n1 + 1, 2, 1])
    ends = (2 * (ci * n1 + cj)[seg_cell, None]
            + edge_offset[cell_edges[seg_cell, seg_slot]]).ravel()
    # end 2s + k is end k of segment s; one sort of the edge ids pairs the
    # two ends on each edge that two cells share
    order = np.argsort(ends)
    ids = ends[order]
    same = ids[1:] == ids[:-1]
    shared = np.flatnonzero(same)
    partner = np.full(ends.size, -1)
    partner[order[shared]] = order[shared + 1]
    partner[order[shared + 1]] = order[shared]
    new_edge = np.r_[True, ~same]
    vertex_of = np.empty(ends.size, dtype=int)
    vertex_of[order] = np.cumsum(new_edge) - 1

    # every crossing edge solved at once, t in edge units from its first node
    edge_ids = ids[new_edge]
    ia, ja = np.divmod(edge_ids >> 1, n1)
    ib, jb = ia + 1 - (edge_ids & 1), ja + (edge_ids & 1)
    xa, ya = xs[ia], ys[ja]
    dx, dy = xs[ib] - xa, ys[jb] - ya
    t = bracketed_roots(
        lambda u, k: _array_eval(groups, xa[k] + u * dx[k], ya[k] + u * dy[k]),
        np.zeros(len(ia)), np.ones(len(ia)), vals[ia, ja], vals[ib, jb],
        1e-13)  # the stop width, in edge units
    px, py = xa + t * dx, ya + t * dy

    partner, vertex_of = partner.tolist(), vertex_of.tolist()
    used = [False] * (len(partner) // 2)

    def walk(end):
        # the vertices passed from this segment end on, each time crossing
        # to the partner end and leaving its segment by the other end
        passed = [vertex_of[end]]
        while True:
            nxt = partner[end]
            if nxt < 0 or used[nxt >> 1]:
                return passed
            used[nxt >> 1] = True
            end = nxt ^ 1
            passed.append(vertex_of[end])

    chains = []
    for start in range(len(used)):
        if used[start]:
            continue
        used[start] = True
        forward = walk(2 * start + 1)
        chains.append(walk(2 * start)[::-1] + forward)

    cell = min(xmax - xmin, ymax - ymin) / resolution
    tips = _snap_singular_vertices(chains, px, py, g,
                                   (xmin, xmax, ymin, ymax), cell)
    points = list(map(Point2, px.tolist(), py.tolist())) + tips
    polylines = [tuple(map(points.__getitem__, chain)) for chain in chains]
    polylines.sort(key=lambda pl: (pl[0].x, pl[0].y, len(pl)))
    tips = tuple(sorted(tips, key=lambda p: (p.x, p.y)))
    return TracedCurve(polylines=tuple(polylines),
                       bbox=(xmin, xmax, ymin, ymax), resolution=resolution,
                       singular_vertices=tips)


def _snap_singular_vertices(chains, px, py, g, bbox, cell):
    """Pin the trace to the singular points of g (see trace_implicit) and
    return them.

    `chains` are the polylines as lists of vertex numbers: vertex k is
    (px[k], py[k]) below len(px), and vertex len(px) + m is the m-th pin
    returned.  Each on-curve pin is spliced, in place, into the nearest
    segment of every chain within 4 cells (_splice_segment); no chain is
    dropped.  `cell` is the grid step of the shorter bbox side.
    """
    xmin, xmax, ymin, ymax = bbox
    try:
        locus = singular_locus(g)
    except EliminationError:
        return []  # a repeated factor: no finite set to pin
    pins = [(xv, yv) for xv, yv in locus
            if xmin <= float(xv) <= xmax and ymin <= float(yv) <= ymax]
    tips = [Point2(float(xv), float(yv)) for xv, yv in pins]
    on_curve = [n for n, isolated
                in enumerate(hessian_definite(g, pins), start=len(px))
                if not isolated]
    if not on_curve:
        return tips
    xs = np.append(px, [t.x for t in tips])
    ys = np.append(py, [t.y for t in tips])
    for chain in chains:
        k = np.array(chain)
        for n in on_curve:
            i = _splice_segment(xs[k], ys[k], xs[n], ys[n], 4 * cell)
            if i is not None:
                chain.insert(i + 1, n)
                k = np.insert(k, i + 1, n)
    return tips


def _splice_segment(xs, ys, px, py, reach):
    """The segment that the pin (px, py) is spliced into on the polyline
    with vertices (xs, ys): the number of the nearest one, the lowest among
    equally near ones, or None when it lies beyond `reach` or the pin is a
    vertex already.

    One array pass gives the distance from the pin to each segment (to its
    nearest point, clamped to the segment; to its end point when it has no
    length) by the same float operations a scalar loop would do.  Only the
    last step, the hypotenuse, may round differently in numpy, so the
    segments within a hair of the nearest are decided, and the reach is
    checked, with math.hypot.
    """
    if ((xs == px) & (ys == py)).any():
        return None
    ax, ay = xs[:-1], ys[:-1]
    vx, vy = xs[1:] - ax, ys[1:] - ay
    L2 = vx * vx + vy * vy
    with np.errstate(all="ignore"):
        t = np.clip(((px - ax) * vx + (py - ay) * vy) / L2, 0.0, 1.0)
    t[L2 == 0.0] = 0.0  # no length: the distance to the end point
    dx, dy = px - (ax + t * vx), py - (ay + t * vy)
    d = np.hypot(dx, dy)
    # np.hypot and math.hypot each round within an ulp; a 2**-40 margin (and
    # 2**-1000 for subnormal distances) keeps every candidate
    near = np.flatnonzero(d <= d.min() * (1 + 2.0 ** -40) + 2.0 ** -1000)
    dist, i = min(zip(map(math.hypot, dx[near].tolist(), dy[near].tolist()),
                      near.tolist()))
    return i if dist <= reach else None


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

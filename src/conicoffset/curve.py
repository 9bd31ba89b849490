"""Floating-point services over the exact polynomials: evaluation, the
parametric offset oracle, implicit-curve tracing, and SVG figure output.

Everything downstream of the exact algebra lives here.  Tolerances are always
scaled by the largest absolute coefficient of the polynomial at hand, since
normalized offset polynomials carry coefficients anywhere between 1 and 1e8.

Point evaluation is compile once, evaluate many: xy_evaluator turns an exact
polynomial into a float closure once (coefficients converted and grouped by
x-power), and the mesh loops call that closure; eval_poly is its one-point
form.  The tracer runs the same groups over numpy arrays (_array_eval): each
group's Horner once along the y nodes (_y_pass), then the grid in bands of
rows, each band those Horners times its x nodes' powers (_x_pass), then its
saddle centers and its edge solves in batches; the edge solve's last few
brackets call the closure itself (_group_evaluator), one point at a time.
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

The tracer solves each vertex on its own grid edge: this layer's bracketed
1-D solver, bracketed_roots (Illinois regula falsi with a bisection
fallback), between the two grid nodes whose signs differ, run once per
trace over every crossing edge, so no vertex leaves its edge.  It takes its
steps in array rounds over all the running brackets, and the last
_SCALAR_TAIL of them, mostly beside a double zero, in scalar steps, one
bracket at a time: the same steps, so each vertex is the same float.
Segments are chained through the edges they share, with no float tolerance
and no per-cell Python: each grid edge has an integer id (node index times
2, plus 1 along y), a table gives every segment's two edge ids at once, one
sort of those ids pairs each segment end with its partner across the edge,
and the walk follows the partner ends.  Its singular points, and which are
isolated, come from the exact layer (no mpmath here): the closed catalogue
for a figure, singular_locus for any other g; each on-curve one is
spliced into a polyline by one array pass over its segments, which picks
the segment a scalar distance scan picks, near ties decided by math.hypot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cardano import to_float
from .conics import (ConicSpec, ELLIPSE, PARABOLA, base_conic_poly,
                     catalogue_pins, hessian_definite, offset_poly_closed_form,
                     singular_locus)
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


def max_abs_coeff(g: MultiPoly) -> float:
    return max(abs(to_float(c)) for c in g.terms.values())


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
        t = to_float(c)
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
    """Compile g once (_xpow_groups) into a float evaluator (x, y) -> float
    (_group_evaluator)."""
    return _group_evaluator(_xpow_groups(g, **params))


def _group_evaluator(groups):
    """The float evaluator (x, y) -> float of compiled groups: Horner in y per
    group from 0.0, each group times x to its power added in turn, the fixed
    order of the bit-identity contract (module docstring)."""
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
    return _x_pass(_y_pass(groups, y), x, y)


def _y_pass(groups, y) -> list:
    """The first half of _array_eval: each group's x-power with its Horner
    in y.  The tracer runs it once along the y nodes for all its bands."""
    out = []
    for xe, coeffs in groups:
        acc = 0.0
        for c in coeffs:
            acc = acc * y + c
        out.append((xe, acc))
    return out


def _x_pass(ypass, x, y) -> np.ndarray:
    """The second half of _array_eval: from 0.0, each group's Horner in y
    times x to its power, added in group order."""
    total = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    for xe, acc in ypass:
        total = total + acc * np.float_power(x, xe)
    return total


def _floats(conic: ConicSpec, *rs) -> list:
    """The conic's parameters (p, or a and b), then rs, as floats; a ParamError
    where a parameter's float is 0 or infinite, or an r's is infinite."""
    params = [to_float(v) for v in conic.param_map().values()]
    if 0.0 in params:
        raise ParamError("a conic parameter rounds to 0 as a float")
    return params + [to_float(r) for r in rs]


def conic_point_and_normal(conic: ConicSpec, t: float):
    """Base point beta(t) on the conic and the unit normal there.

    Parameterizations: parabola by x0 = t (vertex at t=0); ellipse by the
    angle t; hyperbola by the hyperbolic parameter t on the upper branch
    (mirror for the lower one via t -> t + branch flag, handled by caller).
    A t, base point or normal past the float range is a ParamError.
    """
    if not math.isfinite(t):
        raise ParamError(f"the parameter t = {t!r} is not finite")
    if conic.kind == PARABOLA:
        (p,) = _floats(conic)
        x0, y0 = t, t / (4.0 * p) * t
        # gradient of x^2 - 4 p y, normalized; points to the convex side
        nx, ny = 2.0 * x0, -4.0 * p
    elif conic.kind == ELLIPSE:
        a, b = _floats(conic)
        x0, y0 = b * math.cos(t), a * math.sin(t)
        # a b (x0 / b^2, y0 / a^2), with no square of a or b to overflow
        nx, ny = a * math.cos(t), b * math.sin(t)
    else:
        a, b = _floats(conic)
        sh, ch = _sinh_cosh(t)
        x0, y0 = b * sh, a * ch
        nx, ny = -a * sh, b * ch
    norm = math.hypot(nx, ny)
    if not all(map(math.isfinite, (x0, y0, norm))):
        raise ParamError(f"the base point at t = {t!r} is past the float range")
    return (x0, y0), (nx / norm, ny / norm)


def _sinh_cosh(t: float):
    """sinh t and cosh t, each inf (sinh with the sign of t) past the float
    range, where math's raise OverflowError."""
    try:
        return math.sinh(t), math.cosh(t)
    except OverflowError:
        return math.copysign(math.inf, t), math.inf


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
    *params, r = _floats(conic, r)
    if not r > 0:
        raise ParamError("offset r must be positive and finite")
    pts = []

    def emit(t, mirror=False):
        (x0, y0), (nx, ny) = conic_point_and_normal(conic, float(t))
        if mirror:
            y0, ny = -y0, -ny
        for sgn in (1.0, -1.0):
            pts.append(Point2(x0 + sgn * r * nx, y0 + sgn * r * ny))

    if conic.kind == PARABOLA:
        width = 12.0 * abs(params[0])
        if math.isinf(2.0 * width):
            raise ParamError("the parabola's sweep passes the float range")
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
    """|beta' x beta''| / |beta'|^3 for the standard parameterizations.  A
    central conic's a b / |beta'|^3 is b / s / a / s / a / s with s =
    |beta'| / a (a >= b) from ``math.hypot``, so no square of a parameter
    and no speed past the float range is formed.  Where s or its cube passes
    the float range the curvature reads as a subnormal or 0.0 (a hyperbola's
    past |t| of about 710 is below 1e-600, so 0.0 is its correct rounding);
    a t or a curvature past the float range is a ParamError, as at s = 0
    (b / a is 0.0 at a hyperbola's vertex, where a / b^2 is past it)."""
    if not math.isfinite(t):
        raise ParamError(f"the parameter t = {t!r} is not finite")
    if conic.kind == PARABOLA:
        (p,) = _floats(conic)
        cross = abs(1.0 / (2.0 * p))
        u = t / (2.0 * p)
        try:
            k = cross / (1.0 + u ** 2) ** 1.5
        except OverflowError:
            # (1 + u^2)^1.5 past the float range, where 1 + u^2 is u^2 to
            # far below an ulp
            k = cross / abs(u) / abs(u) / abs(u)
    else:
        a, b = _floats(conic)
        if conic.kind == ELLIPSE:
            s = math.hypot(b / a * math.sin(t), math.cos(t))
        else:
            sh, ch = _sinh_cosh(t)
            s = math.hypot(b / a * ch, sh)
        k = b / s / a / s / a / s if s else math.inf
    if not math.isfinite(k):
        raise ParamError(f"the curvature at t = {t!r} is past the float range")
    return k


def max_curvature(conic: ConicSpec) -> float:
    """Numerically maximized curvature over a parametric sweep.

    Dense sampling (4096 parameters) brackets the maximum, then golden-section
    refinement polishes it to machine precision.  Independent of the closed-form
    critical-offset formula, which it reciprocates.
    """
    if conic.kind == PARABOLA:
        hi = 4.0 * abs(_floats(conic)[0])
        if math.isinf(2.0 * hi):
            raise ParamError("the parabola's sweep passes the float range")
        lo = -hi
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
# the grid nodes that one band of the tracer evaluates at once, about 128 KiB
# per float64 temporary
_BAND_NODES = 2 ** 14
# the running brackets at which bracketed_roots leaves its array rounds and
# finishes each bracket alone in scalar steps: an array round pays tens of
# microseconds of numpy calls whatever its size, a scalar step on an offset
# polynomial 2 or 3; 32 and 64 were the fastest of 8 to 128 on figures
_SCALAR_TAIL = 32


def bracketed_roots(phi, phi1, lo, hi, flo, fhi, width):
    """Roots of many brackets at once, as one array: bracket k holds the root
    of its function on [lo[k], hi[k]], floats or mpfs, given flo[k] and
    fhi[k], its values at the ends, of opposite signs.  phi(t, idx) returns
    the values at the points t of the brackets numbered idx, and phi1(t, k)
    the value at the one point t (a Python float or an mpf) of bracket k (an
    int), bit for bit what phi gives there; `width` is one stop width or one
    per bracket.

    Each bracket takes the steps of Illinois regula falsi (Dowell & Jarratt,
    BIT 1971) on its own: when the same end moves twice running, the other
    end's stored value is halved; when it has moved three times running the
    step is a bisection instead (near a double zero of phi beside the
    bracket, regula falsi alone walks into it until rounding fakes a sign
    change).  A bracket never widens.  It stops on an exact zero or once it
    is no wider than its width (a few ulps of lo and hi at least), and gives
    the end with the smaller |phi|.  While more than _SCALAR_TAIL brackets
    are running, each round evaluates phi once, on all of them, in
    elementwise array arithmetic; the last few, mostly brackets that bisect
    beside a double zero, then finish one at a time in scalar arithmetic
    through phi1 (_finish_bracket), where a step costs no fixed set of numpy
    calls.  Both are the same operations in the same order, so a bracket's
    steps and result depend neither on the others nor on where it finishes.
    Its caller is the tracer.
    """
    lo, hi, flo, fhi = (np.array(v) for v in (lo, hi, flo, fhi))
    out = np.where(flo == 0.0, lo, hi)  # an end that is a zero is the root
    idx = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    width = np.broadcast_to(width, lo.shape)
    n = idx.size
    # per running bracket: its ends, their values, the stored values that the
    # Illinois rule halves, the end that moved last (-1 lo, +1 hi), how often
    # it moved running, and the stop width
    state = (idx, lo[idx], hi[idx], flo[idx], fhi[idx], flo[idx], fhi[idx],
             np.zeros(n, int), np.zeros(n, int), width[idx])
    with np.errstate(all="ignore"):
        while state[0].size > _SCALAR_TAIL:
            idx, lo, hi, flo, fhi, slo, shi, moved, run, width = state
            going = hi - lo > width
            if not going.all():
                done = ~going
                out[idx[done]] = np.where(abs(flo[done]) <= abs(fhi[done]),
                                          lo[done], hi[done])
                state = tuple(v[going] for v in state)
                continue
            rf = lo + (hi - lo) * (slo / (slo - shi))
            t = np.where(run >= 3, 0.5 * (lo + hi), np.where(rf < hi, rf, hi))
            ft = phi(t, idx)
            hit = ft == 0.0
            out[idx[hit]] = t[hit]
            lo_moves = (ft < 0.0) == (flo < 0.0)
            side = np.where(lo_moves, -1, 1)
            run = np.where(side == moved, run + 1, 1)
            halve = run >= 2
            state = tuple(v[~hit] for v in (
                idx,
                np.where(lo_moves, t, lo), np.where(lo_moves, hi, t),
                np.where(lo_moves, ft, flo), np.where(lo_moves, fhi, ft),
                np.where(lo_moves, ft, np.where(halve, slo * 0.5, slo)),
                np.where(lo_moves, np.where(halve, shi * 0.5, shi), ft),
                side, run, width))
        for k, *rest in zip(*(v.tolist() for v in state)):
            out[k] = _finish_bracket(phi1, k, *rest)
    return out


def _finish_bracket(phi1, k, lo, hi, flo, fhi, slo, shi, moved, run, width):
    """Bracket k of bracketed_roots taken on from its running state, alone,
    by the array rounds' steps in scalar arithmetic (Python floats or mpfs)."""
    while hi - lo > width:
        if run >= 3:
            t = 0.5 * (lo + hi)
        else:
            rf = lo + (hi - lo) * (slo / (slo - shi))
            t = rf if rf < hi else hi  # a NaN keeps hi, as np.where does
        ft = phi1(t, k)
        if ft == 0.0:
            return t
        lo_moves = (ft < 0.0) == (flo < 0.0)
        side = -1 if lo_moves else 1
        run = run + 1 if side == moved else 1
        moved = side
        if lo_moves:
            lo, flo, slo = t, ft, ft
            if run >= 2:
                shi = shi * 0.5
        else:
            hi, fhi, shi = t, ft, ft
            if run >= 2:
                slo = slo * 0.5
    return lo if abs(flo) <= abs(fhi) else hi


def trace_implicit(g: MultiPoly, bbox, resolution: int = 256,
                   pins=None) -> TracedCurve:
    """Marching-squares contour of g = 0 with each vertex solved on its edge.

    Cells are scanned row-major; saddle cells (two opposite sign pairs) are
    disambiguated by the sign at the cell center.  Every crossing grid edge
    gets one vertex, the root of g along that edge found by the bracketed
    solver (bracketed_roots, one call for all the edges of a trace),
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
    the closed bbox, rounded to float.  A caller that knows them passes
    `pins`, exact (x, y, isolated) triples in the order to splice them, as
    offset_figure does from the closed catalogue; the trace keeps those in
    the bbox.  Without `pins` (None) they are conics.singular_locus(g), and
    a pin with a definite Hessian (conics.hessian_definite) is isolated.  An
    isolated pin is a virtual point, reported only; nodes and cusps are
    spliced into the nearest segment of each polyline within 4 cells, found
    by one array pass per polyline and pin (_splice_segment), and none is
    dropped.  A locus that is not finite (g has a repeated factor, as x^2*y
    has) gives no pins.  The locus costs one exact Groebner completion of
    <g, g_x, g_y>: a few ms for a conic offset, seconds or more for a dense
    g of degree 8; ResourceLimitError propagates.  g must be over the ring
    ("x", "y") (RingError), the resolution an int (not a bool) of at least
    8, the bbox four finite numbers and g finite on its grid (ParamError).
    A resolution above MAX_RESOLUTION raises ResourceLimitError before any
    grid is allocated.

    The grid is evaluated in bands of rows of about _BAND_NODES nodes, each
    node row once (a band takes the signs of its first row from the band
    before), and a band keeps only its crossing cells, with their global
    row-major indices, so the cells come out in the same order as from one
    grid, and the two values on a crossing edge are evaluated again
    (_array_eval gives a node's float whatever array it is in).  Memory
    grows with the resolution, not its square: a circle's trace peaks at
    about 0.6 MiB at resolution 512 and 14 MiB at MAX_RESOLUTION
    (tracemalloc), where the whole grid held at once took 4 MiB and 1 GiB.
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
    n1 = resolution + 1
    with np.errstate(all="ignore"):
        xs = np.linspace(xmin, xmax, n1)
        ys = np.linspace(ymin, ymax, n1)
        ypass = _y_pass(groups, ys)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ParamError("bounding box or g not finite on the grid")
    # the grid in bands of about _BAND_NODES nodes: the band of `band` cell
    # rows from i0 covers node rows i0 .. i0 + band, evaluates those after
    # the signs of row i0 carried from the band before, and keeps only its
    # crossing cells, in row-major order
    band = max(1, _BAND_NODES // n1 - 1)
    cells = []
    last = np.empty((0, n1), dtype=bool)
    for i0 in range(0, resolution, band):
        with np.errstate(all="ignore"):
            vals = _x_pass(ypass, xs[i0 + len(last):i0 + band + 1, None], ys)
        if not np.isfinite(vals).all():
            raise ParamError("bounding box or g not finite on the grid")
        neg = np.concatenate((last, vals < 0.0))
        last = neg[-1:]
        codes = (neg[:-1, :-1].astype(np.int8)
                 | (neg[1:, :-1].astype(np.int8) << 1)
                 | (neg[1:, 1:].astype(np.int8) << 2)
                 | (neg[:-1, 1:].astype(np.int8) << 3))
        bi, bj = np.nonzero((codes != 0) & (codes != 15))
        cells.append((bi + i0, bj, codes[bi, bj]))
    ci, cj, cell_codes = (np.concatenate(v) for v in zip(*cells))
    if ci.size == 0:
        return TracedCurve(polylines=(), bbox=(xmin, xmax, ymin, ymax),
                           resolution=resolution)
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
    evaluate = _group_evaluator(groups)
    t = bracketed_roots(
        lambda u, k: _array_eval(groups, xa[k] + u * dx[k], ya[k] + u * dy[k]),
        lambda u, k: evaluate(float(xa[k]) + u * float(dx[k]),
                              float(ya[k]) + u * float(dy[k])),
        np.zeros(len(ia)), np.ones(len(ia)), _array_eval(groups, xa, ya),
        _array_eval(groups, xs[ib], ys[jb]),
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
                                   (xmin, xmax, ymin, ymax), cell, pins)
    points = list(map(Point2, px.tolist(), py.tolist())) + tips
    polylines = [tuple(map(points.__getitem__, chain)) for chain in chains]
    polylines.sort(key=lambda pl: (pl[0].x, pl[0].y, len(pl)))
    tips = tuple(sorted(tips, key=lambda p: (p.x, p.y)))
    return TracedCurve(polylines=tuple(polylines),
                       bbox=(xmin, xmax, ymin, ymax), resolution=resolution,
                       singular_vertices=tips)


def _snap_singular_vertices(chains, px, py, g, bbox, cell, pins):
    """Pin the trace to the singular points of g (see trace_implicit) and
    return them: the caller's `pins` in the bbox, or with `pins` None the
    locus's, each isolated by its Hessian.

    `chains` are the polylines as lists of vertex numbers: vertex k is
    (px[k], py[k]) below len(px), and vertex len(px) + m is the m-th pin
    returned.  Each on-curve pin is spliced, in place, into the nearest
    segment of every chain within 4 cells (_splice_segment); no chain is
    dropped.  `cell` is the grid step of the shorter bbox side.
    """
    xmin, xmax, ymin, ymax = bbox

    def inside(points):
        # Fractions and mpfs compare with floats exactly, past the float
        # range too
        return [p for p in points
                if xmin <= p[0] <= xmax and ymin <= p[1] <= ymax]
    if pins is None:
        try:
            locus = inside(singular_locus(g))
        except EliminationError:
            return []  # a repeated factor: no finite set to pin
        pins = [(*pt, isolated) for pt, isolated
                in zip(locus, hessian_definite(g, locus))]
    else:
        pins = inside(pins)
    tips = [Point2(float(xv), float(yv)) for xv, yv, _ in pins]
    on_curve = [n for n, (*_, isolated) in enumerate(pins, start=len(px))
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

    The offset trace pins the closed catalogue's points
    (conics.catalogue_pins), a virtual one marked but not spliced, and the
    base conic's trace none, since a nondegenerate conic is smooth: a figure
    runs no Groebner completion and no Hessian test.  The markers
    are the offset trace's pins, its singular_vertices (the real singular
    points in the bbox), labelled S1..Sn in (y, x) order."""
    g = offset_poly_closed_form(conic, r).g
    if bbox is None:
        *params, rf = _floats(conic, r)
        if conic.kind == PARABOLA:
            p4 = 4 * abs(params[0])
            bbox = (-2 * p4 - rf, 2 * p4 + rf, -p4 - rf, 3 * p4 + rf)
        else:
            a, b = params
            bbox = (-b - 3 * rf - 1, b + 3 * rf + 1, -a - 3 * rf - 1, a + 3 * rf + 1)
    offset_curve = trace_implicit(g, bbox, resolution,
                                  pins=catalogue_pins(conic, r))
    base = base_conic_poly(conic.kind, conic.param_map())
    base_curve = trace_implicit(base, bbox, resolution, pins=())
    markers = sorted(offset_curve.singular_vertices, key=lambda p: (p.y, p.x))
    return plot_svg([offset_curve, base_curve], markers, path=path,
                    styles=[("#1f77b4", None), ("#777777", "6,4")])

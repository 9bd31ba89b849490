"""Layered quadrilateral mesh over an ellipse and its smooth parallel lines.

Rows of the node matrix are offset layers (signed offsets ascending, the base
ellipse in the middle), columns are stations around the ring.  Column order is
a counter-clockwise traversal: down the left branch through the given
y-stations, the bottom y-axis closure column, up the right branch (stations
mirrored), and the top closure column last.  The node matrix wraps around
column-wise, so element counts are (rows-1)*cols 4-node quads and
((rows-1)/2)*(cols/2) 9-node quads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .cardano import to_float
from .conics import (ConicSpec, ELLIPSE, base_conic_poly,
                     offset_poly_closed_form, r_crit)
from .curve import (Point2, max_abs_coeff, plot_svg, trace_implicit,
                    xy_evaluator)
from .errors import RootRefineError, SpecError
from .poly import gradient

COLUMN_ORDER_NOTE = (
    "columns counter-clockwise: left branch stations top to bottom, bottom "
    "y-axis closure, right branch stations bottom to top, top y-axis closure; "
    "rows by signed offset ascending (inner to outer), base ellipse centered"
)


def _as_fraction(v: float) -> Fraction:
    # decimal-faithful: mesh inputs are decimal data, so 0.2 means 1/5
    return Fraction(repr(v))


@dataclass(frozen=True)
class MeshSpec:
    """Validated layered-mesh request: base ellipse, offsets, y-stations."""

    ellipse: ConicSpec
    offsets: tuple  # ascending, each in (0, r_crit)
    y_stations: tuple  # descending, each in (-a, a)

    def __post_init__(self):
        if self.ellipse.kind != ELLIPSE:
            raise SpecError("mesh base must be an ellipse")
        offsets = tuple(float(o) for o in self.offsets)
        stations = tuple(float(s) for s in self.y_stations)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "y_stations", stations)
        if not all(map(math.isfinite, offsets + stations)):
            raise SpecError("offsets and y-stations must be finite")
        if not offsets:
            raise SpecError("need at least one offset layer")
        if list(offsets) != sorted(set(offsets)):
            raise SpecError("offsets must be strictly ascending")
        rc = to_float(r_crit(self.ellipse))
        if offsets[0] <= 0 or offsets[-1] >= rc:
            raise SpecError(
                f"offsets must lie strictly inside (0, r_crit={rc}): "
                "a singular layer breaks the smooth-composite construction")
        if not stations:
            raise SpecError("need at least one y-station")
        if list(stations) != sorted(set(stations), reverse=True):
            raise SpecError("y-stations must be strictly descending")
        a = to_float(self.ellipse.a)
        if stations[0] >= a or stations[-1] <= -a:
            raise SpecError(f"y-stations must lie strictly inside (-{a}, {a})")

    @property
    def rows(self) -> int:
        return 2 * len(self.offsets) + 1

    @property
    def cols(self) -> int:
        return 2 * len(self.y_stations) + 2


@dataclass(frozen=True)
class Mesh:
    nodes: tuple  # rows x cols matrix of Point2, row-major
    quad4: tuple  # 4-tuples of flat node indices, counter-clockwise
    quad9: tuple  # 9-tuples: corners, edge midpoints, center

    @property
    def rows(self) -> int:
        return len(self.nodes)

    @property
    def cols(self) -> int:
        return len(self.nodes[0])

    def flat_nodes(self):
        return [p for row in self.nodes for p in row]


def _signed_offsets(spec: MeshSpec):
    down = [-o for o in reversed(spec.offsets)]
    return down + [0.0] + list(spec.offsets)


def _refine_along_normal(g, f, base, normal, t0, scale):
    """Newton on g restricted to the normal line, seeded at distance t0, for
    at most 50 steps until |g| <= 1e-10 * scale.

    `f` is g compiled by xy_evaluator; g's gradient is compiled only once the
    seed misses, since the seed is the offset point itself.
    """
    bx, by = base
    nx, ny = normal
    t = t0
    fx = None
    for _ in range(50):
        x, y = bx + t * nx, by + t * ny
        v = f(x, y)
        if abs(v) <= 1e-10 * scale:
            return x, y
        if fx is None:
            fx, fy = (xy_evaluator(q) for q in gradient(g, ["x", "y"]))
        d = fx(x, y) * nx + fy(x, y) * ny
        if d == 0.0 or not math.isfinite(d):
            break
        t -= v / d
    raise RootRefineError(
        f"offset-layer projection did not reach 1e-10 at station {base}")


def generate_mesh(spec: MeshSpec) -> Mesh:
    """Build the node matrix and element lists.

    Station columns: the two ellipse points (+-x0, y0) of each y-station,
    intersected with every offset layer along the station normal.  The normal
    distance equals the offset exactly, so the offset itself seeds a Newton
    refinement on the layer polynomial (residual <= 1e-10 scaled).  Closure
    columns on the y-axis hold (0, +-(a + s)) for each signed offset s.
    """
    a, b = float(spec.ellipse.a), float(spec.ellipse.b)
    signed = _signed_offsets(spec)
    layers = {}
    for o in spec.offsets:
        g = offset_poly_closed_form(spec.ellipse, _as_fraction(o)).g
        layers[o] = (g, xy_evaluator(g), max_abs_coeff(g))

    def station_column(y0, branch):
        # branch -1 = left (x<0), +1 = right (x>0)
        x0 = branch * b * math.sqrt(max(0.0, 1.0 - (y0 / a) ** 2))
        nx, ny = x0 / (b * b), y0 / (a * a)
        nn = math.hypot(nx, ny)
        nx, ny = nx / nn, ny / nn
        col = []
        for s in signed:
            if s == 0.0:
                col.append(Point2(x0, y0))
                continue
            g, f, scale = layers[abs(s)]
            x, y = _refine_along_normal(g, f, (x0, y0), (nx, ny), s, scale)
            col.append(Point2(x, y))
        return col

    def closure_column(sign):
        # y-axis crossings of every layer: the normal at (0, sign*a) is vertical
        return [Point2(0.0, sign * (a + s)) for s in signed]

    columns = []
    for y0 in spec.y_stations:
        columns.append(station_column(y0, -1))
    columns.append(closure_column(-1))
    for y0 in reversed(spec.y_stations):
        columns.append(station_column(y0, +1))
    columns.append(closure_column(+1))

    rows, cols = spec.rows, spec.cols
    nodes = tuple(tuple(columns[c][i] for c in range(cols)) for i in range(rows))

    def idx(i, c):
        return i * cols + (c % cols)

    # columns advance counter-clockwise around the ring and rows advance
    # outward, so (row+, col+, row-, col-) traversal gives positive area
    quad4 = []
    for i in range(rows - 1):
        for c in range(cols):
            quad4.append((idx(i, c), idx(i + 1, c), idx(i + 1, c + 1), idx(i, c + 1)))
    quad9 = []
    for i in range(0, rows - 1, 2):
        for c in range(0, cols, 2):
            quad9.append((
                idx(i, c), idx(i + 2, c), idx(i + 2, c + 2), idx(i, c + 2),
                idx(i + 1, c), idx(i + 2, c + 1), idx(i + 1, c + 2), idx(i, c + 1),
                idx(i + 1, c + 1),
            ))
    return Mesh(nodes=nodes, quad4=tuple(quad4), quad9=tuple(quad9))


def export_mesh(mesh: Mesh, path=None) -> str:
    """Serialize the mesh as deterministic JSON; each coordinate is Python's
    shortest repr that reads back as the same double."""
    doc = {
        "header": COLUMN_ORDER_NOTE,
        "rows": mesh.rows,
        "cols": mesh.cols,
        "nodes": [[p.x, p.y] for row in mesh.nodes for p in row],
        "quad4": [list(e) for e in mesh.quad4],
        "quad9": [list(e) for e in mesh.quad9],
    }
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def load_mesh(source) -> Mesh:
    """Inverse of export_mesh; accepts a JSON string or a path."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    rows, cols = doc["rows"], doc["cols"]
    flat = [Point2(float(x), float(y)) for x, y in doc["nodes"]]
    nodes = tuple(tuple(flat[i * cols + c] for c in range(cols)) for i in range(rows))
    return Mesh(nodes=nodes,
                quad4=tuple(tuple(e) for e in doc["quad4"]),
                quad9=tuple(tuple(e) for e in doc["quad9"]))


def mesh_figure(spec: MeshSpec, mesh: Mesh, resolution: int = 384, path=None) -> str:
    """SVG overlay: the ellipse, its offset layers, and the mesh nodes.  The
    traces take no pins: below r_crit a layer's only real singular points
    are the virtual axis pair, which is never spliced, nor marked here."""
    a, b = float(spec.ellipse.a), float(spec.ellipse.b)
    margin = spec.offsets[-1] + 0.4
    bbox = (-b - margin, b + margin, -a - margin, a + margin)
    base = base_conic_poly(ELLIPSE, spec.ellipse.param_map())
    curves = [trace_implicit(base, bbox, resolution, pins=())]
    for o in spec.offsets:
        g = offset_poly_closed_form(spec.ellipse, _as_fraction(o)).g
        curves.append(trace_implicit(g, bbox, resolution, pins=()))
    markers = mesh.flat_nodes()
    styles = [("#555555", "6,4")] + [("#1f77b4", None)] * len(spec.offsets)
    return plot_svg(curves, markers, path=path, styles=styles, labels=False)

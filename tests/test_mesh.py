"""Layered mesh generation: counts, node accuracy, export, validation."""

import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from conicoffset.conics import ConicSpec, offset_poly_closed_form
from conicoffset.curve import eval_poly, max_abs_coeff
from conicoffset.errors import ParamError, RootRefineError, SpecError
from conicoffset.mesh import (MeshSpec, export_mesh, generate_mesh, load_mesh,
                              mesh_figure)
from conicoffset.reference import MESH_CASE

ELL42 = ConicSpec.ellipse(4, 2)
STATIONS = (3.75, 3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0, -3.75)


@pytest.fixture(scope="module")
def reference_mesh():
    spec = MeshSpec(ellipse=ELL42, offsets=(0.2, 0.4, 0.6), y_stations=STATIONS)
    return spec, generate_mesh(spec)


def test_reference_instance_counts(reference_mesh):
    spec, mesh = reference_mesh
    assert (mesh.rows, mesh.cols) == (7, 20)
    assert len(mesh.flat_nodes()) == 140
    assert len(mesh.quad4) == 120
    assert len(mesh.quad9) == 30


def test_rows_formula_minimal():
    spec = MeshSpec(ellipse=ELL42, offsets=(0.2,), y_stations=(0.0,))
    mesh = generate_mesh(spec)
    assert mesh.rows == 3
    assert mesh.cols == 4


def test_nodes_on_layers(reference_mesh):
    spec, mesh = reference_mesh
    signed = [-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6]
    for i, row in enumerate(mesh.nodes):
        s = signed[i]
        if s == 0.0:
            worst = max(abs((p.x / 2.0) ** 2 + (p.y / 4.0) ** 2 - 1) for p in row)
        else:
            g = offset_poly_closed_form(ELL42, F(repr(abs(s)))).g
            scale = max_abs_coeff(g)
            worst = max(abs(eval_poly(g, (p.x, p.y))) / scale for p in row)
        assert worst <= 1e-8


def test_normal_distance_law(reference_mesh):
    # independent oracle: nearest-point projection onto the ellipse
    def distance_to_ellipse(px, py, a=4.0, b=2.0):
        t = math.atan2(py / a, px / b) if (px, py) != (0.0, 0.0) else 0.0
        for _ in range(100):
            x, y = b * math.cos(t), a * math.sin(t)
            dx, dy = -b * math.sin(t), a * math.cos(t)
            f = (x - px) * dx + (y - py) * dy
            fp = dx * dx + dy * dy - (x - px) * x - (y - py) * y
            step = f / fp
            t -= step
            if abs(step) < 1e-15:
                break
        return math.hypot(px - b * math.cos(t), py - a * math.sin(t))

    spec, mesh = reference_mesh
    signed = [-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6]
    for i, row in enumerate(mesh.nodes):
        for p in row:
            d = distance_to_ellipse(p.x, p.y)
            assert abs(d - abs(signed[i])) <= 1e-8


def test_no_duplicate_nodes(reference_mesh):
    _, mesh = reference_mesh
    for row in mesh.nodes:
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                assert math.hypot(row[i].x - row[j].x,
                                  row[i].y - row[j].y) > 1e-9


def test_element_indices(reference_mesh):
    _, mesh = reference_mesh
    n = mesh.rows * mesh.cols
    for e in mesh.quad4:
        assert len(set(e)) == 4 and all(0 <= i < n for i in e)
    for e in mesh.quad9:
        assert len(set(e)) == 9 and all(0 <= i < n for i in e)
    # quad9 blocks tile the quad4 cells twice over
    assert len(mesh.quad4) == (mesh.rows - 1) * mesh.cols
    assert len(mesh.quad9) == (mesh.rows - 1) // 2 * (mesh.cols // 2)


def test_element_orientation(reference_mesh):
    # consistently counter-clockwise corners (positive Jacobian for FEM use)
    _, mesh = reference_mesh
    flat = mesh.flat_nodes()

    def signed_area(idxs):
        pts = [flat[i] for i in idxs]
        return sum(a.x * b.y - b.x * a.y
                   for a, b in zip(pts, pts[1:] + pts[:1])) / 2

    assert all(signed_area(e) > 0 for e in mesh.quad4)
    assert all(signed_area(e[:4]) > 0 for e in mesh.quad9)
    # quad9 edge midpoints sit between their corners
    for e in mesh.quad9:
        corners = [flat[i] for i in e[:4]]
        mids = [flat[i] for i in e[4:8]]
        for k, m in enumerate(mids):
            a, b = corners[k], corners[(k + 1) % 4]
            assert math.hypot(m.x - (a.x + b.x) / 2, m.y - (a.y + b.y) / 2) \
                <= 0.35 * math.hypot(b.x - a.x, b.y - a.y)


def test_export_roundtrip(reference_mesh, tmp_path):
    _, mesh = reference_mesh
    path = tmp_path / "mesh.json"
    text = export_mesh(mesh, path=str(path))
    doc = json.loads(text)
    assert doc["rows"] == 7 and doc["cols"] == 20
    assert len(doc["nodes"]) == 140
    assert len(doc["quad4"]) == 120 and len(doc["quad9"]) == 30
    again = load_mesh(str(path))
    assert export_mesh(again) == text  # bit-identical round trip
    from_text = load_mesh(text)  # JSON-string form is accepted too
    assert export_mesh(from_text) == text


def test_newton_moves_station_nodes_onto_their_layer():
    # at 4.472 on ellipse(23/4, 11/2) the seed base + s * normal misses the
    # layer's 1e-10 band at two of the four station nodes, so Newton moves them
    ell = ConicSpec.ellipse(F(23, 4), F(11, 2))
    spec = MeshSpec(ellipse=ell, offsets=(4.472,), y_stations=(0.92,))
    mesh = generate_mesh(spec)
    g = offset_poly_closed_form(ell, F("4.472")).g
    a, b = float(ell.a), float(ell.b)
    moved = 0
    for col, branch in ((0, -1), (2, 1)):
        y0 = 0.92
        x0 = branch * b * math.sqrt(max(0.0, 1.0 - (y0 / a) ** 2))
        nx, ny = x0 / (b * b), y0 / (a * a)
        nn = math.hypot(nx, ny)
        nx, ny = nx / nn, ny / nn
        for row, s in ((0, -4.472), (2, 4.472)):
            node = mesh.nodes[row][col]
            moved += (node.x, node.y) != (x0 + s * nx, y0 + s * ny)
            assert abs(eval_poly(g, node)) <= 1e-10 * max_abs_coeff(g)
    assert moved == 2


def test_gradient_compiled_only_for_a_newton_step(reference_mesh, monkeypatch):
    # every seed of the reference mesh meets its layer's 1e-10 band, so no
    # layer's gradient is built
    def no_gradient(*args):
        raise AssertionError("gradient built without a Newton step")

    monkeypatch.setattr("conicoffset.mesh.gradient", no_gradient)
    spec, mesh = reference_mesh
    assert export_mesh(generate_mesh(spec)) == export_mesh(mesh)


@pytest.mark.xfail(raises=RootRefineError, strict=True,
                   reason="ROADMAP item 3: the Newton step refuses a valid "
                          "MeshSpec near r_crit")
def test_newton_refusal_near_r_crit():
    # offset 10.7263 is 0.95 r_crit of ellipse(12, 291/25); Newton from the
    # seed at station 1.0 does not reach the 1e-10 band
    spec = MeshSpec(ellipse=ConicSpec.ellipse(12, F(291, 25)),
                    offsets=(10.7263,), y_stations=(1.0,))
    generate_mesh(spec)


def test_spec_validation():
    with pytest.raises(SpecError):
        MeshSpec(ellipse=ConicSpec.parabola(F(1, 3)), offsets=(0.2,),
                 y_stations=(0.0,))
    with pytest.raises(SpecError):  # offset at r_crit rejected
        MeshSpec(ellipse=ELL42, offsets=(0.2, 1.0), y_stations=(0.0,))
    with pytest.raises(SpecError):  # not ascending
        MeshSpec(ellipse=ELL42, offsets=(0.4, 0.2), y_stations=(0.0,))
    with pytest.raises(SpecError):  # station outside (-a, a)
        MeshSpec(ellipse=ELL42, offsets=(0.2,), y_stations=(4.0,))
    with pytest.raises(SpecError):  # stations must descend
        MeshSpec(ellipse=ELL42, offsets=(0.2,), y_stations=(-1.0, 1.0))
    with pytest.raises(SpecError):
        MeshSpec(ellipse=ELL42, offsets=(), y_stations=(0.0,))
    for offsets, stations in (((math.nan,), (1.0,)), ((0.2,), (math.nan,)),
                              ((0.2, math.nan), (1.0,)),
                              ((0.2,), (math.inf, 1.0))):
        with pytest.raises(SpecError):  # not finite
            MeshSpec(ellipse=ELL42, offsets=offsets, y_stations=stations)


def test_offset_past_the_float_range_is_a_param_error():
    # MeshSpec takes the subnormal offset 1e-320; its exact value makes g's
    # coefficients too large for a float, a typed error and no OverflowError
    spec = MeshSpec(ellipse=ConicSpec.ellipse(2, 1), offsets=(1e-320,),
                    y_stations=(0.5,))
    with pytest.raises(ParamError):
        generate_mesh(spec)


def test_determinism(reference_mesh):
    spec, mesh = reference_mesh
    again = generate_mesh(spec)
    assert export_mesh(again) == export_mesh(mesh)


def test_mesh_figure(reference_mesh, tmp_path):
    spec, mesh = reference_mesh
    out = tmp_path / "mesh.svg"
    svg = mesh_figure(spec, mesh, resolution=64, path=str(out))
    assert svg.count("<circle") == 140
    assert out.read_text() == svg


# Golden bytes of the reference mesh (see test_curve.py): export_mesh prints
# 17 significant digits and the figure every traced vertex, so any change in
# float order shows here.  The figure digest was recorded with the traced
# vertices solved on their grid edges.
GOLDEN_MESH_EXPORT = (
    "b6052af8463b07539685cc9edb9a0cd1461fa30fccce48235c64363d32e06873")
GOLDEN_MESH_FIGURE = (
    "d39c0514aa97a6690cd588c9aff8ea6c218f38f14197891b281f10cbf594e265")


def _mesh_case_spec():
    mc = MESH_CASE
    return MeshSpec(ellipse=ConicSpec.ellipse(F(mc["a"]), F(mc["b"])),
                    offsets=mc["offsets"], y_stations=mc["stations"])


def test_golden_mesh_export_and_figure():
    spec = _mesh_case_spec()
    mesh = generate_mesh(spec)
    assert hashlib.sha256(export_mesh(mesh).encode()).hexdigest() \
        == GOLDEN_MESH_EXPORT
    assert hashlib.sha256(mesh_figure(spec, mesh).encode()).hexdigest() \
        == GOLDEN_MESH_FIGURE

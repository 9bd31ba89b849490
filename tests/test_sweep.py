"""A seeded sweep over the accepted conic inputs (ROADMAP item 24(a)).

Each case is a conic of a random kind whose parameters have numerators and
denominators of 3 to 64 bits, drawn independently, at one offset: either a
random ratio of r_crit, or B * (1 + s * 10^-k) for every boundary B of its
kind (r_crit; for central conics also a, b and a^2/b), every k in
``NEAR_KS`` and a random sign s.  On every case the closed and the
eliminated g must agree, and both singular routes must give the same point
count, tags and complex count, with coordinates within 1e-9.
"""

import random
from fractions import Fraction as F

import pytest

from conicoffset.conics import (ConicSpec, offset_poly_closed_form,
                                offset_poly_elimination, r_crit, singular_points,
                                singular_points_via_elimination)
from conicoffset.errors import ConicOffsetError

NEAR_KS = (3, 6, 9, 15, 30, 90)


def _height(rng):
    bits = rng.randint(3, 64)
    return rng.getrandbits(bits - 1) | 1 << (bits - 1)


def _conic(rng, kind):
    def q():
        return F(_height(rng), _height(rng))

    if kind == "parabola":
        return ConicSpec.parabola(q() * rng.choice((1, -1)))
    while True:
        a, b = sorted((q(), q()), reverse=True)
        if a > b:
            return (ConicSpec.ellipse if kind == "ellipse" else ConicSpec.hyperbola)(a, b)


CENTRAL_BOUNDARIES = ("r_crit", "a", "b", "a^2/b")
RATIO_CASES = 30


def _boundary(conic, name):
    if name == "r_crit":
        return r_crit(conic)
    a, b = conic.a, conic.b
    return {"a": a, "b": b, "a^2/b": a * a / b}[name]


def _sweep_cases():
    """(case id, conic, r) triples, the same on every run: one near-boundary
    case per kind, boundary and k, each on a conic of its own, then
    ``RATIO_CASES`` offsets at r_crit times a random ratio of small ints."""
    rng = random.Random(2401)
    cases = []
    for kind in ("parabola", "ellipse", "hyperbola"):
        for name in ("r_crit",) if kind == "parabola" else CENTRAL_BOUNDARIES:
            for k in NEAR_KS:
                conic = _conic(rng, kind)
                sign = rng.choice((1, -1))
                r = _boundary(conic, name) * (1 + sign * F(1, 10 ** k))
                cases.append((f"{kind}-{name}{'+' if sign > 0 else '-'}{k}", conic, r))
    for i in range(RATIO_CASES):
        conic = _conic(rng, rng.choice(("parabola", "ellipse", "hyperbola")))
        r = r_crit(conic) * F(rng.randint(1, 31), rng.randint(1, 15))
        cases.append((f"{conic.kind}-ratio{i}", conic, r))
    return cases


CASES = _sweep_cases()

# the cases whose elimination route reports more points than the closed one
# today: singular_locus pairs every x root with every y root, and keeps a
# cross-pair that lies close to a true singular point, as it does next to a
# regime boundary and on central conics whose a/b is large, where the
# points lie close together relative to their size
CROSS_PAIRED = frozenset({
    "ellipse-a^2/b+15", "ellipse-a^2/b+3", "ellipse-a^2/b-6",
    "ellipse-a^2/b-9", "ellipse-r_crit+3", "ellipse-r_crit+9",
    "ellipse-r_crit-15", "ellipse-r_crit-30", "ellipse-r_crit-6",
    "ellipse-ratio1", "ellipse-ratio10", "ellipse-ratio12", "ellipse-ratio25",
    "ellipse-ratio7", "hyperbola-a-90", "hyperbola-a^2/b+9",
    "hyperbola-a^2/b+90", "hyperbola-a^2/b-30", "hyperbola-a^2/b-6",
    "hyperbola-b+9", "hyperbola-r_crit+15", "hyperbola-r_crit+3",
    "hyperbola-r_crit+9", "hyperbola-ratio11", "hyperbola-ratio2",
    "hyperbola-ratio5", "parabola-r_crit+30", "parabola-r_crit+9",
    "parabola-r_crit-15", "parabola-r_crit-90",
})


def _disagreement(conic, r):
    """None when both singular routes agree on (conic, r), else what differs."""
    closed = singular_points(conic, r)
    try:
        elim = singular_points_via_elimination(conic, r)
    except ConicOffsetError as exc:  # a refusal is a disagreement too
        return type(exc).__name__
    if len(closed.points) != len(elim.points):
        return f"count {len(closed.points)} != {len(elim.points)}"
    if [s.tag for s in closed.points] != [s.tag for s in elim.points]:
        return "tags"
    if closed.complex_count != elim.complex_count:
        return "complex count"
    for sc, se in zip(closed.points, elim.points):
        if abs(float(sc.x) - float(se.x)) > 1e-9 or abs(float(sc.y) - float(se.y)) > 1e-9:
            return "coordinates"
    return None


def test_sweep_covers_every_boundary_and_k():
    ids = [cid for cid, _, _ in CASES]
    assert len(set(ids)) == len(ids) == 9 * len(NEAR_KS) + RATIO_CASES
    assert CROSS_PAIRED <= set(ids)


def test_closed_and_eliminated_g_agree_over_the_sweep():
    for cid, conic, r in CASES:
        assert offset_poly_closed_form(conic, r).g == \
            offset_poly_elimination(conic, r).g, cid


def test_singular_routes_agree_over_the_sweep():
    bad = {}
    for cid, conic, r in CASES:
        if cid not in CROSS_PAIRED:
            why = _disagreement(conic, r)
            if why:
                bad[cid] = why
    assert bad == {}


NEAR_CROSS_PAIRED = sum("ratio" not in cid for cid in CROSS_PAIRED)


@pytest.mark.xfail(strict=True, reason=(
    f"ROADMAP item 1: singular_locus keeps cross-pairs, so the elimination "
    f"route reports extra points on {len(CROSS_PAIRED)} of {len(CASES)} sweep "
    f"cases ({NEAR_CROSS_PAIRED} of {len(CASES) - RATIO_CASES} near a boundary, "
    f"{len(CROSS_PAIRED) - NEAR_CROSS_PAIRED} of {RATIO_CASES} at ratios of r_crit)"))
def test_singular_routes_agree_on_the_cross_paired_cases():
    for cid, conic, r in CASES:
        if cid in CROSS_PAIRED:
            assert _disagreement(conic, r) is None, cid

"""Conic machinery: ideals, offset polynomials, critical offsets, singular points."""

import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import mpmath as mp
import pytest

from conicoffset import cardano, conics, reference
from conicoffset.cardano import to_mpf
from conicoffset.conics import (ConicSpec, build_ideal, offset_poly_closed_form,
                                offset_poly_elimination, r_crit, singular_points,
                                singular_points_via_elimination)
from conicoffset.errors import ParamError, ResourceLimitError
from conicoffset.fixtures import general_offset_poly
from conicoffset.groebner import buchberger, elimination_ideal, reduce_basis
from conicoffset.poly import (MultiPoly, block, content_normalize, gradient,
                              lex, parse_poly, poly_dumps, substitute)
from conicoffset.verify import conic_from_case, expected_points, proportional


def test_conic_spec_validation():
    with pytest.raises(ParamError):
        ConicSpec.parabola(0)
    with pytest.raises(ParamError):
        ConicSpec.ellipse(2, 2)  # circle
    with pytest.raises(ParamError):
        ConicSpec.ellipse(1, 2)
    with pytest.raises(ParamError):
        ConicSpec.hyperbola(1, 2)
    assert ConicSpec.hyperbola(1, 1).a == 1  # rectangular allowed
    assert ConicSpec.parabola(F(-1, 2)).p == F(-1, 2)


ELLIPSE_3 = ConicSpec.ellipse(3, F(3, 2))
TAKES_A_RATIONAL = {
    "parabola": ConicSpec.parabola,
    "ellipse-a": lambda v: ConicSpec.ellipse(v, 1),
    "ellipse-b": lambda v: ConicSpec.ellipse(3, v),
    "hyperbola-a": lambda v: ConicSpec.hyperbola(v, 1),
    "hyperbola-b": lambda v: ConicSpec.hyperbola(3, v),
    "build_ideal": lambda v: build_ideal(ELLIPSE_3, v),
    "offset_poly_closed_form": lambda v: offset_poly_closed_form(ELLIPSE_3, v),
    "singular_points": lambda v: singular_points(ELLIPSE_3, v),
}


@pytest.mark.parametrize("value", ["1/0", float("inf"), float("-inf")],
                         ids=["1/0", "inf", "-inf"])
@pytest.mark.parametrize("call", sorted(TAKES_A_RATIONAL))
def test_non_rational_input_is_a_param_error(call, value):
    # Fraction raises ZeroDivisionError on "1/0" and OverflowError on an
    # infinite float; both reach the caller as the typed ParamError
    with pytest.raises(ParamError, match="expected an exact rational"):
        TAKES_A_RATIONAL[call](value)


@pytest.mark.parametrize("call", sorted(TAKES_A_RATIONAL))
def test_parameters_past_the_height_budget_are_refused(call):
    # a numerator or denominator above MAX_PARAM_BITS is refused before any
    # power of it is taken
    top = 1 << conics.MAX_PARAM_BITS
    for value in (F(top), F(1, top), F(top + 1, top), str(top)):
        with pytest.raises(ResourceLimitError, match="bits, above the limit 3400"):
            TAKES_A_RATIONAL[call](value)


def test_parameters_at_the_height_budget_are_admitted():
    top = (1 << conics.MAX_PARAM_BITS) - 1
    assert ConicSpec.parabola(F(top, top - 2)).p == F(top, top - 2)
    assert ConicSpec.ellipse(F(top, 2), F(1, top)).a == F(top, 2)


def test_conic_spec_parameter_lookup():
    e = ConicSpec.ellipse(2, 1)
    assert (e.a, e.b) == (F(2), F(1))
    assert ConicSpec.parabola(F(-1, 2)).p == F(-1, 2)
    with pytest.raises(AttributeError):
        e.p
    with pytest.raises(AttributeError):
        ConicSpec.parabola(1).a
    assert not hasattr(e, "r")
    assert repr(e) == ("ConicSpec(kind='ellipse', params=(('a', Fraction(2, 1)), "
                       "('b', Fraction(1, 1))))")
    assert e == ConicSpec("ellipse", (("a", F(2)), ("b", F(1))))
    assert hash(e) == hash(ConicSpec.ellipse(2, 1))
    assert e != ConicSpec.hyperbola(2, 1)
    h = dataclasses.replace(e, kind="hyperbola")
    assert h == ConicSpec.hyperbola(2, 1) and h.a == 2
    assert pickle.loads(pickle.dumps(e)) == e
    assert pickle.loads(pickle.dumps(e)).b == 1
    assert e.describe() == "ellipse(a=2, b=1)"
    assert e.param_map() == {"a": 2, "b": 1}


def test_r_crit_values():
    assert r_crit(ConicSpec.parabola(F(1, 3))) == F(2, 3)
    assert r_crit(ConicSpec.parabola(F(-1, 3))) == F(2, 3)
    assert r_crit(ConicSpec.ellipse(3, F(3, 2))) == F(3, 4)
    assert r_crit(ConicSpec.hyperbola(F(3, 2), 1)) == F(2, 3)


DISPLAYED_TRIPLES = {
    1: ("4*y0-3*x0^2",
        "16*y^2-32*y*y0+16*y0^2+16*x^2-32*x*x0+16*x0^2-1",
        "2*x-2*x0+3*x0*y-3*x0*y0"),
    6: ("y0^2+4*x0^2-9",
        "9*y^2-18*y*y0+9*y0^2+9*x^2-18*x*x0+9*x0^2-16",
        "y0*x+3*y0*x0-4*x0*y"),
    8: ("4*y0^2-9*x0^2-9",
        "9*y^2-18*y*y0+9*y0^2+9*x^2-18*x*x0+9*x0^2-4",
        "4*x*y0-13*x0*y0+9*x0*y"),
}


@pytest.mark.parametrize("case_id", sorted(DISPLAYED_TRIPLES))
def test_build_ideal_matches_displayed_triples(case_id):
    case = reference.case(case_id)
    conic = conic_from_case(case)
    ideal = build_ideal(conic, F(case["r"]))
    ring = ideal.ring
    for gen, shown in zip(ideal.generators, DISPLAYED_TRIPLES[case_id]):
        assert proportional(gen, parse_poly(shown, ring))


@pytest.mark.parametrize("r", [0, -1])
@pytest.mark.parametrize("call", [offset_poly_closed_form, singular_points,
                                  singular_points_via_elimination])
def test_non_positive_offset_is_a_param_error(call, r):
    with pytest.raises(ParamError, match="offset r must be positive"):
        call(ConicSpec.ellipse(3, F(3, 2)), r)


def test_build_ideal_errors():
    with pytest.raises(ParamError):
        build_ideal(ConicSpec.parabola(F(1, 3)), 0)
    with pytest.raises(ParamError):
        build_ideal("not-a-conic")


def test_specialized_ideal_needs_a_conic_spec():
    with pytest.raises(ParamError, match="ConicSpec"):
        build_ideal("ellipse", F(1, 2))


def test_symbolic_ideal_rings():
    assert build_ideal("parabola").ring == ("y0", "x0", "x", "y", "r", "p")
    assert build_ideal("ellipse").ring == ("y0", "x0", "x", "y", "a", "b", "r")
    assert build_ideal(ConicSpec.hyperbola(2, 1)).ring[-3:] == ("a", "b", "r")


@pytest.mark.parametrize("case_id", list(range(1, 10)))
def test_nine_reference_polynomials(case_id):
    case = reference.case(case_id)
    conic = conic_from_case(case)
    r = F(case["r"])
    shown = content_normalize(
        parse_poly(case["offset_poly"].replace("\n", ""), ("x", "y")))
    closed = offset_poly_closed_form(conic, r)
    elim = offset_poly_elimination(conic, r)
    assert proportional(closed.g, shown)
    assert proportional(elim.g, shown)
    assert closed.g == elim.g  # both content-normalized


def test_elimination_orders_agree():
    # the block-order route against the classic lex run built from the
    # public primitives: every elimination order gives the same generator
    conic = ConicSpec.ellipse(3, F(3, 2))
    r = F(1, 2)
    ideal = build_ideal(conic, r)
    (kept,) = elimination_ideal(reduce_basis(buchberger(ideal, lex(ideal.ring))),
                                {"x", "y"})
    assert offset_poly_elimination(conic, r).g == \
        content_normalize(substitute(kept, {"y0": 0, "x0": 0}))


@pytest.mark.parametrize("case_id", list(range(1, 10)))
def test_the_eliminations_reduce_only_what_they_return(monkeypatch, case_id):
    # offset_poly_elimination reduces only the members of its completion in
    # Q[x, y], which reduce to the Q[x, y] members of the reduced basis, and
    # singular_locus reads its eliminants from the unreduced completion
    calls = []

    def spy(gb):
        out = reduce_basis(gb)
        calls.append((gb.polys, out.polys))
        return out
    monkeypatch.setattr(conics, "reduce_basis", spy)
    case = reference.case(case_id)
    conic, r = conic_from_case(case), F(case["r"])
    curve = offset_poly_elimination(conic, r)
    ((given, reduced),) = calls
    assert given and all(m[:2] == (0, 0) for p in given for m in p.terms)
    ideal = build_ideal(conic, r)
    full = reduce_basis(buchberger(ideal, block(ideal.ring, 2)))
    assert list(reduced) == elimination_ideal(full, {"x", "y"})
    calls.clear()
    assert conics.singular_locus(curve.g)
    assert calls == []


def random_conics(kind, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if kind == "parabola":
            p = F(rng.randint(1, 6), rng.randint(1, 6)) * rng.choice((1, -1))
            if p != 0:
                out.append(ConicSpec.parabola(p))
        else:
            a = F(rng.randint(2, 8), rng.randint(1, 3))
            b = F(rng.randint(1, 6), rng.randint(1, 4))
            if a > b > 0:
                out.append(ConicSpec.ellipse(a, b) if kind == "ellipse"
                           else ConicSpec.hyperbola(a, b))
    return out


def _substituted_closed_form(conic, r):
    # the Fraction route the integer specialization replaced; assigning every
    # parameter leaves the ring ("x", "y")
    values = dict(conic.params)
    values["r"] = r
    return content_normalize(substitute(general_offset_poly(conic.kind), values))


# a monomial's partial sum cancels and a later term brings it back
REAPPEARING_TERM_CASES = [(ConicSpec.ellipse(2, 1), F(1)),
                          (ConicSpec.hyperbola(2, 1), F(3))]


def _closed_form_cases():
    cases = list(REAPPEARING_TERM_CASES)
    rng = random.Random(4242)

    def q(big=False):
        den = rng.randint(10 ** 8, 10 ** 9) if big else rng.randint(1, 9)
        return F(rng.randint(1, 12 * den), den)

    for k in range(24):
        big = k % 3 == 0
        conics_here = [ConicSpec.parabola(-q(big)), ConicSpec.parabola(q(big))]
        b = q(big)
        conics_here += [ConicSpec.ellipse(b + q(big), b),
                        ConicSpec.hyperbola(b, b),
                        ConicSpec.hyperbola(b + q(big), b)]
        for conic in conics_here:
            rc = r_crit(conic)
            rs = [rc / 3, rc, rc * 2, q(big)]
            if conic.kind != "parabola":
                a, b_ = conic.a, conic.b
                rs += [b_, a, a * a / b_, a * a / b_ + q(big)]
            cases.extend((conic, r) for r in rs)
    return cases


def test_closed_form_fixture_coefficients_are_integers():
    for kind in ("parabola", "ellipse", "hyperbola"):
        assert all(c.denominator == 1
                   for c in general_offset_poly(kind).terms.values())


def test_closed_form_matches_substitution_term_for_term():
    for conic, r in _closed_form_cases():
        got = offset_poly_closed_form(conic, r).g
        want = _substituted_closed_form(conic, r)
        assert list(got.terms.items()) == list(want.terms.items()), (conic, r)
        assert poly_dumps(got) == poly_dumps(want)
    # the returning monomial moves to the end: the order differs from the
    # order of first sight, so summing per monomial would get it wrong
    for conic, r in REAPPEARING_TERM_CASES:
        general = general_offset_poly(conic.kind)
        ix, iy = general.ring.index("x"), general.ring.index("y")
        got = list(offset_poly_closed_form(conic, r).g.terms)
        first_seen = [m for m in dict.fromkeys((e[ix], e[iy])
                                               for e in general.terms)
                      if m in got]
        assert sorted(got) == sorted(first_seen) and got != first_seen


def _hyperbola_term_order_cases():
    # reference cases 7-9, then seeded hyperbolas (one rectangular) at
    # r_crit/2, r_crit, between r_crit and b, b, a and 2a
    cases = []
    for case_id in (7, 8, 9):
        case = reference.case(case_id)
        cases.append((conic_from_case(case), F(case["r"])))
    rng = random.Random(2718)

    def q(hi):
        return F(rng.randint(1, hi), rng.randint(1, 6))

    hyperbolas = []
    for _ in range(6):
        b = q(12)
        hyperbolas.append(ConicSpec.hyperbola(b + q(8), b))
    b = q(12)
    hyperbolas.append(ConicSpec.hyperbola(b, b))
    for conic in hyperbolas:
        rc, a, b = r_crit(conic), conic.a, conic.b
        cases += [(conic, r) for r in (rc / 2, rc, (rc + b) / 2, b, a, 2 * a)]
    return cases


# sha256 over the hyperbola closed forms' terms in dict order, recorded when
# the hyperbola fixture was still stored as text of its own
HYPERBOLA_TERM_ORDER_SHA256 = (
    "3473f1a38677742921f7a5dae166df8fb042136c7654f990d3e96d1545f41a7f")


def test_hyperbola_closed_form_term_order_golden():
    # the float evaluators sum terms in this order, so it fixes their
    # rounding; poly_dumps sorts the terms and would not see a change
    h = hashlib.sha256()
    for conic, r in _hyperbola_term_order_cases():
        g = offset_poly_closed_form(conic, r).g
        h.update(repr(list(g.terms.items())).encode())
    assert h.hexdigest() == HYPERBOLA_TERM_ORDER_SHA256


@pytest.mark.parametrize("kind", ["parabola", "ellipse", "hyperbola"])
def test_closed_form_agrees_with_elimination_randomized(kind):
    rng = random.Random(sum(map(ord, kind)))
    for conic in random_conics(kind, 12, seed=len(kind)):
        rc = r_crit(conic)
        r = rc * F(rng.randint(1, 12), 8)
        if r <= 0:
            continue
        assert offset_poly_closed_form(conic, r).g == \
            offset_poly_elimination(conic, r).g


@pytest.mark.parametrize("case_id", list(range(1, 10)))
def test_singular_points_reference(case_id):
    case = reference.case(case_id)
    conic = conic_from_case(case)
    rep = singular_points(conic, F(case["r"]))
    assert rep.regime == case["regime"]
    expect = expected_points(case)
    got = sorted((s.as_floats() for s in rep.points), key=lambda t: (t[1], t[0]))
    assert len(got) == len(expect)
    for (gx, gy), (ex, ey) in zip(got, expect):
        assert abs(gx - float(ex)) <= 1e-9
        assert abs(gy - float(ey)) <= 1e-9
    for s in rep.points:
        assert s.residual_grad <= 1e-9


def test_singular_float_residuals_both_polynomial_and_gradient():
    # type invariant: |g| and |grad g| <= 1e-9 scaled after float evaluation
    from conicoffset.curve import eval_poly, max_abs_coeff

    for cid in (1, 3, 4, 6, 9):
        case = reference.case(cid)
        conic = conic_from_case(case)
        r = F(case["r"])
        g = offset_poly_closed_form(conic, r).g
        gx, gy = gradient(g, ["x", "y"])
        scale = max(max_abs_coeff(q) for q in (g, gx, gy))
        rep = singular_points(conic, r)
        for s in rep.points:
            fx, fy = s.as_floats()
            assert abs(eval_poly(g, (fx, fy))) <= 1e-9 * scale
            gnorm = (eval_poly(gx, (fx, fy)) ** 2
                     + eval_poly(gy, (fx, fy)) ** 2) ** 0.5
            assert gnorm <= 1e-9 * scale


def test_singular_exactness_flags():
    rep = singular_points(ConicSpec.parabola(F(1, 3)), F(1, 4))
    (s,) = rep.points
    assert isinstance(s.x, F) and isinstance(s.y, F)
    assert s.y == F(73, 192)
    rep5 = singular_points(ConicSpec.ellipse(3, F(3, 2)), F(3, 4))
    assert {s.y for s in rep5.points} == {F(9, 4), F(-9, 4)}
    rep4 = singular_points(ConicSpec.ellipse(3, F(3, 2)), F(1, 2))
    assert all(isinstance(s.y, float) for s in rep4.points)  # sqrt(6) irrational


def test_singular_tags_and_regimes():
    conic = ConicSpec.ellipse(3, F(3, 2))
    sub = singular_points(conic, F(1, 2))
    assert {s.tag for s in sub.points} == {"virtual"}
    crit = singular_points(conic, F(3, 4))
    assert {s.tag for s in crit.points} == {"on-curve"}
    sup = singular_points(conic, F(4, 3))
    assert {s.tag for s in sup.points} == {"on-curve", "split"}
    assert sum(1 for s in sup.points if s.tag == "split") == 4


def test_regime_law_randomized():
    for kind in ("parabola", "ellipse", "hyperbola"):
        for conic in random_conics(kind, 6, seed=101):
            rc = r_crit(conic)
            for num, den in ((1, 3), (1, 1), (9, 8)):
                r = rc * F(num, den)
                if kind != "parabola" and not conic.b > r:
                    continue  # stay within the standard a > b > r range
                rep = singular_points(conic, r)
                want = (1 if r <= rc else 3) if kind == "parabola" \
                    else (2 if r <= rc else 6)
                assert len(rep.points) == want, (conic, r)


def test_collapse_at_criticality():
    conic = ConicSpec.ellipse(F(7, 2), F(3, 2))
    rc = r_crit(conic)
    rep = singular_points(conic, rc)
    a, b = conic.a, conic.b
    target = (a * a - b * b) / a
    ys = sorted(s.y for s in rep.points)
    assert ys == [-target, target]
    hyp = ConicSpec.hyperbola(F(5, 2), F(3, 2))
    rch = r_crit(hyp)
    reph = singular_points(hyp, rch)
    th = (hyp.a * hyp.a + hyp.b * hyp.b) / hyp.a
    assert sorted(s.y for s in reph.points) == [-th, th]
    # approach from above: split points converge to the collapse points
    eps_rows = []
    for k in (60, 240, 960):
        rep2 = singular_points(conic, rc + F(1, k))
        split_pts = [s for s in rep2.points if s.tag == "split"]
        d = max(min(abs(float(s.x)) + abs(float(s.y) - float(t)) for t in (target, -target))
                for s in split_pts)
        eps_rows.append(d)
    assert eps_rows[0] > eps_rows[1] > eps_rows[2]


def test_split_formulas_collapse_at_criticality():
    # evaluated exactly at r_crit, the split closed forms land on the
    # collapse points (x = 0, |y| = (a^2 -+ b^2)/a)
    from conicoffset.conics import RADICAL_DPS, _split_squares
    with mp.workdps(RADICAL_DPS):
        a, b = F(3), F(3, 2)
        ell = ConicSpec.ellipse(a, b)
        xs, ys = map(mp.sqrt, _split_squares(ell, r_crit(ell)))
        want = (a * a - b * b) / a
        assert abs(xs) < mp.mpf("1e-55")
        assert abs(ys - mp.mpf(want.numerator) / want.denominator) < mp.mpf("1e-55")
        ah, bh = F(3, 2), F(1)
        hyp = ConicSpec.hyperbola(ah, bh)
        xs, ys = map(mp.sqrt, _split_squares(hyp, r_crit(hyp)))
        wanth = (ah * ah + bh * bh) / ah
        assert abs(xs) < mp.mpf("1e-55")
        assert abs(ys - mp.mpf(wanth.numerator) / wanth.denominator) < mp.mpf("1e-55")


NEAR = F(1, 10 ** 90)
NEAR_BOUNDARY_CASES = [  # (conic, r, expected real points)
    (ConicSpec.parabola(F(-1, 3)), r_crit(ConicSpec.parabola(F(-1, 3))) + NEAR, 3),
    (ELLIPSE_3, r_crit(ELLIPSE_3) + NEAR, 6),
    (ConicSpec.ellipse(F(199, 15), F(8, 5)), F(199, 15) ** 2 / F(8, 5) - NEAR, 6),
    (ConicSpec.hyperbola(F(287, 55), F(12, 5)),
     r_crit(ConicSpec.hyperbola(F(287, 55), F(12, 5))) + NEAR, 6),
]


def _assert_split_points_near_boundary(rep, conic, count):
    assert len(rep.points) == count
    assert len({s.as_floats() for s in rep.points}) == count
    assert all(s.residual_grad <= 1e-9 for s in rep.points)
    split = [s for s in rep.points if s.tag == "split" and s.x != 0 and s.y != 0]
    assert len(split) == count - (1 if conic.kind == "parabola" else 2)
    assert all(0 < min(abs(float(s.x)), abs(float(s.y))) < 1e-100 for s in split)


@pytest.mark.parametrize("conic,r,count", NEAR_BOUNDARY_CASES)
def test_split_points_next_to_a_regime_boundary(conic, r, count):
    # 10^-90 past r_crit or short of a^2/b the split points are still real
    # and distinct from the axis or equator points they tend to, so the
    # differences of nearly equal radicals in their formulas must keep their
    # digits (x^2 or y^2 is as small as 10^-270 here)
    _assert_split_points_near_boundary(singular_points(conic, r), conic, count)


CROSS_PAIRING = pytest.mark.xfail(strict=True, reason="cross-pairing, ROADMAP 1")


@pytest.mark.parametrize("conic,r,count", [
    pytest.param(*case, marks=CROSS_PAIRING) if k == 0 else case
    for k, case in enumerate(NEAR_BOUNDARY_CASES)])
def test_split_points_next_to_a_regime_boundary_by_elimination(conic, r,
                                                               count):
    # the same points from the eliminants, whose roots must keep a root of
    # size 10^-135 or 10^-270 beside roots of size 1.  For ellipse(199/15,
    # 8/5) the equator pair's x and the split points' x are roots of two
    # square-free factors under 10^-90 apart: correctly rounded, they are
    # one mpf, so 3 x roots give the 6 points.  The parabola still gives 6
    # points for 3: a Fraction y and an mpf y 10^-90 apart pair across
    _assert_split_points_near_boundary(
        singular_points_via_elimination(conic, r), conic, count)


# (conic, r) where the catalogue holds the equator pair tagged split: the
# ellipse with a < r < a^2/b and the hyperbola with r > a; and reference
# cases 3, 6 and 9, whose split points are all cusps
SPLIT_TAG_CASES = [(ELLIPSE_3, F(4)), (ELLIPSE_3, F(5)),
                   (ConicSpec.hyperbola(F(3, 2), 1), F(2)),
                   *((conic_from_case(reference.case(i)), F(reference.case(i)["r"]))
                     for i in (3, 6, 9))]


@pytest.mark.parametrize("conic,r", SPLIT_TAG_CASES)
def test_split_tag_covers_the_cusps_and_the_equator_node(conic, r):
    # g's Hessian, exactly at the rounded catalogue points: det/size reads -1
    # at the equator pair (a node: g_xx g_yy <= 0) and 0 at every other split
    # point (a cusp: the Hessian has rank 1), size being |g_xx g_yy| + g_xy^2
    g = offset_poly_closed_form(conic, r).g
    gx, gy = gradient(g, ["x", "y"])
    hessian = conics._exact_evaluator(*gradient(gx, ["x", "y"]),
                                      *gradient(gy, ["y"]))
    regime = conics._regime(conic, r)
    kinds = []
    for x, y in conics._catalogue(conic, r, regime):
        if conics._tag(conic, r, regime, x, y) != "split":
            continue
        a11, a12, a22 = (v for v, _ in hessian(x, y)[1])
        det, size = a11 * a22 - a12 * a12, abs(a11 * a22) + a12 * a12
        if y == 0:
            assert F(det, size) < F(-1, 2), (x, y)
        else:
            assert abs(det) * 10 ** 30 <= size, (x, y)
        kinds.append(y == 0)
    cusps = 2 if conic.kind == "parabola" else 4
    nodes = 2 if conic.kind != "parabola" and r > conic.a else 0
    assert (kinds.count(False), kinds.count(True)) == (cusps, nodes)


def _closed_route_sweep():
    # seeded conics of every kind: parabolas with p of both signs, ellipses,
    # hyperbolas and rectangular hyperbolas (a == b); each at the offsets of
    # _property_offsets and at four random offsets up to twice the largest
    rng = random.Random(2020)

    def q():
        return F(rng.randint(1, 40), rng.randint(1, 9))

    for _ in range(8):
        b = q()
        for conic in (ConicSpec.parabola(q() * rng.choice((1, -1))),
                      ConicSpec.ellipse(b + q(), b),
                      ConicSpec.hyperbola(b + q(), b), ConicSpec.hyperbola(b, b)):
            rs = _property_offsets(conic)
            top = 2 * rs[-1]
            yield conic, rs + [top * F(rng.randint(1, 997), 997) for _ in range(4)]


# recorded before the split points were derived from curvature: the closed
# route's floats, tags, counts, complex counts and regimes must not move
CLOSED_ROUTE_SWEEP_SHA256 = \
    "97f559631016a47328b227f05c4c77b7582e63c5195cf4378caf9e3f537255f4"


def test_closed_route_coordinates_do_not_move():
    h = hashlib.sha256()
    for conic, rs in _closed_route_sweep():
        for r in rs:
            rep = singular_points(conic, r)
            h.update(f"{conic.describe()} {r} {rep.regime} {len(rep.points)} "
                     f"{rep.complex_count}|".encode())
            for s in rep.points:
                h.update(f"{float.hex(float(s.x))},{float.hex(float(s.y))},"
                         f"{s.tag};".encode())
    assert h.hexdigest() == CLOSED_ROUTE_SWEEP_SHA256


def test_degenerate_r_equals_b_and_r_above_a():
    # r == b: the axis pair coincides at the origin (a node of the inner line)
    rep = singular_points(ConicSpec.ellipse(3, F(3, 2)), F(3, 2))
    assert rep.outside_reference_range
    assert sum(1 for s in rep.points if (float(s.x), float(s.y)) == (0.0, 0.0)) == 1
    assert len(rep.points) == 5
    # rectangular hyperbola with r > a: the equator pair becomes real too
    rep8 = singular_points(ConicSpec.hyperbola(1, 1), F(3, 2))
    assert len(rep8.points) == 8
    assert all(s.residual_grad <= 1e-9 for s in rep8.points)


def test_parabola_negative_p_symmetry():
    rep_pos = singular_points(ConicSpec.parabola(F(1, 3)), F(3, 2))
    rep_neg = singular_points(ConicSpec.parabola(F(-1, 3)), F(3, 2))
    got = sorted((float(s.x), float(s.y)) for s in rep_neg.points)
    want = sorted((float(s.x), -float(s.y)) for s in rep_pos.points)
    for (gx, gy), (wx, wy) in zip(got, want):
        assert abs(gx - wx) < 1e-12 and abs(gy - wy) < 1e-12
    assert all(s.residual_grad <= 1e-9 for s in rep_neg.points)


def test_gradient_matches_displayed_reference():
    # the worked critical-parabola case displays its gradient explicitly
    case = reference.case(2)
    g = content_normalize(
        parse_poly(case["offset_poly"].replace("\n", ""), ("x", "y")))
    gx, gy = gradient(g, ["x", "y"])
    shown_x = parse_poly(
        "-32*x+216*x*y^2-198*x^3-540*x^3*y-216*y^3*x+162*x^3*y^2+243*x^5",
        ("x", "y"))
    shown_y = parse_poly(
        "128-864*y^2+648*x^2*y-405*x^4-972*x^2*y^2+864*y^3+243*x^4*y",
        ("x", "y"))
    assert proportional(gx, shown_x)
    assert proportional(gy, shown_y)


@pytest.mark.parametrize("case_id", [1, 3, 5, 6, 8, 9])
def test_via_elimination_agrees(case_id):
    case = reference.case(case_id)
    conic = conic_from_case(case)
    r = F(case["r"])
    rep_e = singular_points_via_elimination(conic, r)
    rep_c = singular_points(conic, r)
    ge = sorted((s.as_floats() for s in rep_e.points), key=lambda t: (t[1], t[0]))
    gc = sorted((s.as_floats() for s in rep_c.points), key=lambda t: (t[1], t[0]))
    assert len(ge) == len(gc)
    for (ax, ay), (bx, by) in zip(ge, gc):
        assert abs(ax - bx) <= 1e-9 and abs(ay - by) <= 1e-9


def test_via_elimination_one_grevlex_completion(monkeypatch):
    # one Buchberger completion per call (no lex runs), one closed form, and
    # no call into the closed-form catalogue
    orders, closed = [], []
    real_bb, real_cf = conics.buchberger, conics.offset_poly_closed_form

    def counting_bb(ideal, order, **kw):
        orders.append(order.kind)
        return real_bb(ideal, order, **kw)

    def counting_cf(*args):
        closed.append(args)
        return real_cf(*args)

    monkeypatch.setattr(conics, "buchberger", counting_bb)
    monkeypatch.setattr(conics, "offset_poly_closed_form", counting_cf)

    def no_catalogue(*args):
        raise AssertionError("the elimination route read the catalogue")

    monkeypatch.setattr(conics, "singular_points", no_catalogue)
    case = reference.case(6)
    singular_points_via_elimination(conic_from_case(case), F(case["r"]))
    assert orders == ["grevlex"]
    assert len(closed) == 1


def test_via_elimination_honours_limits(monkeypatch):
    conic = ConicSpec.ellipse(3, F(3, 2))
    with monkeypatch.context() as m:
        m.setattr(conics, "LOCUS_MAX_PAIRS", 5)
        with pytest.raises(ResourceLimitError):
            singular_points_via_elimination(conic, F(3, 4))
    with monkeypatch.context() as m:
        m.setattr(conics, "LOCUS_MAX_DEGREE", 4)
        with pytest.raises(ResourceLimitError):
            singular_points_via_elimination(conic, F(3, 4))


def _reference_eval_mp(poly, coords):
    # term by term at the working precision; coordinates may be mpcs
    vals = [coords[name] for name in poly.ring]
    total = mp.mpf(0)
    for m, c in poly.terms.items():
        term = to_mpf(c)
        for v, e in zip(vals, m):
            if e:
                term *= v ** e
        total += term
    return total


def _fraction_sums(poly, x, y):
    # the value of poly at exact (x, y) and its terms' summed size, as
    # Fraction sums of c x^i y^j and of |c x^i y^j|
    terms = [c * x ** i * y ** j for (i, j), c in poly.terms.items()]
    return sum(terms, F(0)), sum(map(abs, terms), F(0))


def _exact_coords(x, y):
    # the exact value of a point whose coordinates are Fractions or mpfs
    return [F(*mp.libmp.to_rational(v._mpf_)) if isinstance(v, mp.mpf) else v
            for v in (x, y)]


@pytest.mark.parametrize("case_id", range(1, 10))
def test_mp_evaluator_bit_identical(case_id):
    # eight polynomials compiled into one evaluator: at 40 seeded rationals
    # and at RADICAL_DPS mpfs of either sign and of either sign of exponent,
    # over the common denominator each value is the Fraction value of its
    # polynomial at the point's exact value, and a consumer that stops early
    # gets the same leading values
    case = reference.case(case_id)
    g = offset_poly_closed_form(conic_from_case(case), F(case["r"])).g
    gx, gy = gradient(g, ["x", "y"])
    gxx, gxy = gradient(gx, ["x", "y"])
    _, gyy = gradient(gy, ["x", "y"])
    polys = (g, gx, gy, content_normalize(gx), content_normalize(gy),
             gxx, gxy, gyy, g * F(-5, 3))
    rng = random.Random(2000 + case_id)
    pts = [(F(rng.randint(-400, 400), rng.randint(1, 97)),
            F(rng.randint(-400, 400), rng.randint(1, 97))) for _ in range(40)]
    with mp.workdps(conics.RADICAL_DPS):
        pts += [(mp.sqrt(2), -mp.cbrt(3)), (mp.mpf(0), mp.mpf(-1) / 3),
                (mp.mpf(5) / 7, mp.mpf(0)), (mp.mpf(0), mp.mpf(0)),
                (mp.mpf(-3) * 2 ** 70, mp.mpf(12))]
    evaluate = conics._exact_evaluator(*polys)
    for x, y in pts:
        exact = _exact_coords(x, y)
        want = [_fraction_sums(p, *exact)[0] for p in polys]
        den, got = evaluate(x, y)
        assert [F(v, den) for v, _ in got] == want, (x, y)
        for k in range(1, len(polys)):
            den, got = evaluate(x, y)
            head = [F(v, den) for v, _ in itertools.islice(got, k)]
            assert head == want[:k], (x, y, k)


@pytest.mark.parametrize("case_id", range(1, 10))
def test_mp_evaluator_sizes_are_the_abs_polynomial_at_abs_point(case_id):
    # the size of each value, summed in the evaluator's one pass, is over
    # the common denominator the polynomial with |coefficients| at (|x|, |y|),
    # for Fraction and mpf coordinates of either sign (man_exp gives the
    # mantissa without its sign)
    case = reference.case(case_id)
    g = offset_poly_closed_form(conic_from_case(case), F(case["r"])).g
    gx, gy = gradient(g, ["x", "y"])
    polys = (g, gx, gy, *gradient(gx, ["x", "y"]), gradient(gy, ["y"])[0])
    absolute = [MultiPoly(p.ring, {m: abs(c) for m, c in p.terms.items()})
                for p in polys]
    rng = random.Random(3000 + case_id)
    pts = [(F(rng.randint(-400, 400), rng.randint(1, 97)),
            F(rng.randint(-400, 400), rng.randint(1, 97))) for _ in range(40)]
    with mp.workdps(conics.RADICAL_DPS):
        pts += [(-mp.sqrt(2), mp.cbrt(3)), (-mp.sqrt(2), -mp.cbrt(3)),
                (mp.mpf(0), mp.mpf(-1) / 3), (mp.mpf(-5) / 7, mp.mpf(0)),
                (mp.mpf(0), mp.mpf(0)), (mp.mpf(-3) * 2 ** 70, mp.mpf(12))]
    evaluate = conics._exact_evaluator(*polys)
    for x, y in pts:
        at = [abs(v) for v in _exact_coords(x, y)]
        want = [_fraction_sums(p, *at)[0] for p in absolute]
        den, got = evaluate(x, y)
        assert [F(size, den) for _, size in got] == want, (x, y)
        # and it is the sum of the terms' absolute values at the point
        assert want == [_fraction_sums(p, *_exact_coords(x, y))[1] for p in polys]


def test_root_ratio_rounds_once_and_reads_inf_past_the_float_range():
    # sqrt(n)/d as the residual takes it: the correctly rounded float, for
    # n of up to 2000 bits and d of up to 1000; 0 reads 0.0, and past the
    # float range inf, never OverflowError
    rng = random.Random(41)
    with mp.workdps(100):
        for _ in range(300):
            n = rng.getrandbits(rng.randint(1, 2000))
            d = rng.getrandbits(rng.randint(1, 1000)) | 1
            assert conics._root_ratio(n, d) == float(mp.sqrt(n) / d), (n, d)
    assert conics._root_ratio(0, 7) == 0.0
    assert conics._root_ratio(4 ** 1100, 3) == math.inf


def test_via_elimination_subcritical_parabola_axis_only():
    rep = singular_points_via_elimination(ConicSpec.parabola(F(1, 3)), F(1, 4))
    assert len(rep.points) == 1
    assert float(rep.points[0].x) == 0.0


def test_via_elimination_split_coordinate_value():
    # supercritical ellipse: x^2 of the split points solves the stored sextic
    case = reference.case(6)
    conic = conic_from_case(case)
    rep = singular_points_via_elimination(conic, F(case["r"]))
    splits = [s for s in rep.points if float(s.x) != 0.0]
    x2 = float(splits[0].x) ** 2
    want = float(reference.eval_radical(
        "(525 + 324*cbrt(6)**2 - 864*cbrt(6))/324"))
    assert abs(x2 - want) < 1e-12
    # and the stored general sextic in x vanishes there
    gx6 = parse_poly(reference.ELLIPSE_SINGULAR_SEXTIC_X.replace("\n", ""),
                     ("x", "a", "b", "r"))
    spec = substitute(gx6, {"a": F(3), "b": F(3, 2), "r": F(4, 3)})
    val = sum(float(c) * float(splits[0].x) ** m[0] for m, c in spec.terms.items())
    scale = max(abs(float(c)) for c in spec.terms.values())
    assert abs(val) / scale < 1e-10


# Above a^2/b, the ellipse's largest radius of curvature, its four split
# points are complex (real x, imaginary y); at a^2/b they are the equator pair
# (+-(a^2 - b^2)/b, 0).  Either way the real points are that pair alone: split
# at a^2/b, virtual (an isolated real zero of g) above it.
BEYOND_SPLIT_CASES = [
    (ConicSpec.ellipse(F(39, 4), 9), F(85, 8), None, 6),
    (ConicSpec.ellipse(F(39, 4), 9), F(12), None, 6),
    (ConicSpec.ellipse(F(39, 4), 9), F(169, 16), F(25, 16), 2),
    (ConicSpec.ellipse(F(4, 3), 1), F(16, 9), F(7, 9), 2),
    (ConicSpec.ellipse(F(5, 3), 1), F(25, 9), F(16, 9), 2),
]


@pytest.mark.parametrize("conic,r,x_exact,complex_count", BEYOND_SPLIT_CASES)
def test_ellipse_split_points_at_and_beyond_largest_curvature_radius(
        conic, r, x_exact, complex_count):
    a, b = conic.a, conic.b
    t34 = (a * a - b * b) * (r * r - a * a) / (a * a)  # x^2 of the equator pair
    rep_c = singular_points(conic, r)
    rep_e = singular_points_via_elimination(conic, r)
    tag = "virtual" if r * b > a * a else "split"
    for rep in (rep_c, rep_e):
        assert rep.complex_count == complex_count
        assert [s.tag for s in rep.points] == [tag, tag]
        assert [s.y for s in rep.points] == [0, 0]
        assert abs(float(rep.points[1].x) - float(t34) ** 0.5) <= 1e-9
        assert all(s.residual_grad <= 1e-9 for s in rep.points)
    for sc, se in zip(rep_c.points, rep_e.points):
        assert abs(float(sc.x) - float(se.x)) <= 1e-9
    if x_exact is not None:
        assert [s.x for s in rep_c.points] == [-x_exact, x_exact]
        assert all(isinstance(s.x, F) for s in rep_c.points)


def _system_residual(g):
    # at the working precision, term by term: g with its content-normalized
    # gradient, and a point's residual, max |q(x, y)| over them over the
    # largest coefficient
    system = [g] + [content_normalize(q) for q in gradient(g, ["x", "y"])]
    scale = max(abs(to_mpf(c)) for q in system for c in q.terms.values())
    return system, lambda x, y: max(
        abs(_reference_eval_mp(q, {"x": x, "y": y})) for q in system) / scale


def _independent_complex_count(g):
    # the common zeros of g, g_x, g_y from mp.polyroots of the square-free
    # parts of the two eliminants, paired by residual; counted: the non-real
    # ones whose x^2 and y^2 are both real
    with mp.workdps(conics.RADICAL_DPS):
        system, residual = _system_residual(g)
        roots = []
        for cs in conics._singular_eliminants(system):
            roots.append([t for _, f in cardano.squarefree_decomposition(cs)
                          if len(f) > 1
                          for t in mp.polyroots([to_mpf(c) for c in f[::-1]],
                                                maxsteps=200, extraprec=200)])
        tol = mp.mpf("1e-30")
        count = 0
        for x in roots[0]:
            for y in roots[1]:
                if residual(x, y) >= tol:
                    continue
                real = abs(mp.im(x)) < tol and abs(mp.im(y)) < tol
                if (not real and abs(mp.im(x * x)) < tol
                        and abs(mp.im(y * y)) < tol):
                    count += 1
        return count


def test_real_roots_exact_orders_a_fraction_and_an_mpf_exactly():
    # parabola(-1/3) 10^-90 past r_crit: its y-eliminant has a Fraction root
    # and an mpf root 10^-90 apart, which the working precision alone cannot
    # order; the roots come out ascending by their exact values
    conic, r, _ = NEAR_BOUNDARY_CASES[0]
    g = offset_poly_closed_form(conic, r).g
    with mp.workdps(conics.RADICAL_DPS):
        system, _ = _system_residual(g)
        _, ys = conics._singular_eliminants(system)
        roots = cardano.real_roots_exact(ys)
    assert {type(v) for v in roots} == {F, mp.mpf}
    exact = [cardano.to_fraction(v) for v in roots]
    assert exact == sorted(exact) and len(set(exact)) == len(exact)


# Inputs where a cross-pairing of eliminant roots has a residual between
# 1e-35 and 1e-12, nearer a true point's than any other surveyed cross-pairing
# (singular_locus once judged that band again at twice RADICAL_DPS); found in
# a survey of benchmark `exact` inputs.  One judgement at RADICAL_DPS against
# 10^-30 drops them, and the two routes still agree
GRAY_ZONE_CASES = [
    (ConicSpec.ellipse(F(9, 2), F(1, 2)), F(1, 19)),
    (ConicSpec.ellipse(F(26, 3), F(2, 3)), F(1, 22)),
    (ConicSpec.hyperbola(F(37, 4), F(5, 4)), F(1, 6)),
    (ConicSpec.ellipse(9, 1), F(77)),
]


@pytest.mark.parametrize("conic,r", GRAY_ZONE_CASES)
def test_gray_zone_pairs_and_routes_agree(conic, r):
    g = offset_poly_closed_form(conic, r).g
    with mp.workdps(conics.RADICAL_DPS):
        system, residual = _system_residual(g)
        xs, ys = (cardano.real_roots_exact(cs)
                  for cs in conics._singular_eliminants(system))
        assert any(mp.mpf("1e-35") <= residual(to_mpf(x), to_mpf(y))
                   < mp.mpf("1e-12") for x in xs for y in ys)
    rep_c = singular_points(conic, r)
    rep_e = singular_points_via_elimination(conic, r)
    assert len(rep_c.points) == len(rep_e.points)
    for sc, se in zip(rep_c.points, rep_e.points):
        assert abs(float(sc.x) - float(se.x)) <= 1e-9
        assert abs(float(sc.y) - float(se.y)) <= 1e-9


def _property_offsets(conic):
    # r below, at and above r_crit; for central conics also at b, at a, at
    # a^2/b (the ellipse's largest radius of curvature) and beyond it
    rc = r_crit(conic)
    if conic.kind == "parabola":
        return [rc / 2, rc, rc * 3 / 2, rc * 3]
    a, b = conic.a, conic.b
    return sorted({rc / 2, rc, (rc + b) / 2, b, a, a * a / b, 2 * a * a / b})


def _parameter_space_conics():
    # seeded random rationals: parabolas with p < 0 and p > 0, ellipses,
    # hyperbolas, and a rectangular hyperbola (a == b)
    rng = random.Random(9001)

    def q(hi):
        return F(rng.randint(1, hi), rng.randint(1, 6))

    out = [ConicSpec.parabola(-q(8)), ConicSpec.parabola(q(8)),
           ConicSpec.parabola(-q(8))]
    for _ in range(3):
        b = q(12)
        out += [ConicSpec.ellipse(b + q(8), b), ConicSpec.hyperbola(b + q(8), b)]
    return out + [ConicSpec.hyperbola(b, b)]


# (conic, offset) positions whose complex count is also checked against the
# independent polyroots count: p < 0 below and above r_crit; an ellipse at
# r_crit/2, b, a^2/b and 2a^2/b; the rectangular hyperbola at r_crit/2, 2a
INDEPENDENT_COUNT = {0: (0, 3), 3: (0, 3, 5, 6), 9: (0, 2)}


def test_singular_routes_agree_over_parameter_space():
    for i, conic in enumerate(_parameter_space_conics()):
        for k, r in enumerate(_property_offsets(conic)):
            g = offset_poly_closed_form(conic, r).g
            assert g == offset_poly_elimination(conic, r).g, (conic, r)
            rep_c = singular_points(conic, r)
            rep_e = singular_points_via_elimination(conic, r)
            assert len(rep_c.points) == len(rep_e.points), (conic, r)
            assert [s.tag for s in rep_c.points] == \
                [s.tag for s in rep_e.points], (conic, r)
            assert rep_c.complex_count == rep_e.complex_count, (conic, r)
            for sc, se in zip(rep_c.points, rep_e.points):
                assert abs(float(sc.x) - float(se.x)) <= 1e-9, (conic, r)
                assert abs(float(sc.y) - float(se.y)) <= 1e-9, (conic, r)
            assert all(s.residual_grad <= 1e-9
                       for s in rep_c.points + rep_e.points), (conic, r)
            if k in INDEPENDENT_COUNT.get(i, ()):
                assert rep_c.complex_count == _independent_complex_count(g), \
                    (conic, r)


def _pairing_gap_inputs():
    # 74 inputs: the parameter-space conics at their property offsets, the
    # gray-zone cases, reference cases 1-9 and the near-boundary cases
    for conic in _parameter_space_conics():
        for r in _property_offsets(conic):
            yield conic, r
    yield from GRAY_ZONE_CASES
    for i in range(1, 10):
        yield conic_from_case(reference.case(i)), F(reference.case(i)["r"])
    for conic, r, _ in NEAR_BOUNDARY_CASES:
        yield conic, r


def test_pair_residuals_keep_clear_of_the_pairing_bound():
    # singular_locus judges each (x root, y root) pair once: it keeps a pair
    # when every polynomial of the system is at most 10^-30, half of
    # RADICAL_DPS, times the summed size of its terms there.  By that rule,
    # and by the largest coefficient as it judged before, both taken here at
    # RADICAL_DPS, every pair reads at least 10 orders of magnitude from the
    # bound (when this was written, kept at most 1.7e-61 and dropped at
    # least 5.9e-14 by term size, kept at most 1.7e-59 and dropped at least
    # 3.9e-16 by largest coefficient).  Both keep the same pairs, exactly
    # its points, in order; a root solver that loses digits shows up here
    # first
    inputs = list(_pairing_gap_inputs())
    assert len(inputs) == 74
    for conic, r in inputs:
        g = offset_poly_closed_form(conic, r).g
        with mp.workdps(conics.RADICAL_DPS):
            system, residual = _system_residual(g)
            absolute = [MultiPoly(q.ring, {m: abs(c) for m, c in q.terms.items()})
                        for q in system]
            xs, ys = (cardano.real_roots_exact(cs)
                      for cs in conics._singular_eliminants(system))
            kept = []
            for x, y in itertools.product(xs, ys):
                pt = (to_mpf(x), to_mpf(y))
                res = residual(*pt)
                assert res < mp.mpf("1e-45") or res > mp.mpf("1e-20"), \
                    (conic, r, res)
                at = {"x": pt[0], "y": pt[1]}
                sizes = {"x": abs(pt[0]), "y": abs(pt[1])}
                # an all-zero size (g_x at an axis point) has a zero value
                rel = max(abs(v) / size if size else abs(v) for v, size in
                          ((_reference_eval_mp(q, at), _reference_eval_mp(a, sizes))
                           for q, a in zip(system, absolute)))
                assert rel < mp.mpf("1e-45") or rel > mp.mpf("1e-20"), \
                    (conic, r, rel)
                assert (res < mp.mpf("1e-45")) == (rel < mp.mpf("1e-45"))
                if rel < mp.mpf("1e-45"):
                    kept.append(repr((x, y)))
            assert kept == [repr(p) for p in conics.singular_locus(g)], (conic, r)


def test_far_points_are_judged_at_their_own_scale():
    # a singular point far from the origin reads a residual far above 10^-30
    # times the system's largest coefficient, but far below 10^-30 times its
    # terms' summed size.  parabola(10^300) at r = 10^-300 has one point,
    # (0, p + r^2/4p), on both routes
    conic, r = ConicSpec.parabola(F(10) ** 300), F(1, 10 ** 300)
    rep_c = singular_points(conic, r)
    rep_e = singular_points_via_elimination(conic, r)
    assert [(s.x, s.y, s.tag) for s in rep_c.points] == \
        [(s.x, s.y, s.tag) for s in rep_e.points] == \
        [(0, conic.p + r * r / (4 * conic.p), "virtual")]
    # the point is rational and its residual is taken exactly: 0 (it read
    # 2.4e239 through a 60-digit evaluation)
    assert [s.residual_grad for s in rep_c.points + rep_e.points] == [0.0, 0.0]
    # parabola(1/3) at r = 10^200: the axis point (0, 7.5e399) joins the two
    # split points, and past the float range both routes refuse to report
    conic, r = ConicSpec.parabola(F(1, 3)), F(10) ** 200
    locus = conics.singular_locus(offset_poly_closed_form(conic, r).g)
    assert len(locus) == 3
    assert (0, conic.p + r * r / (4 * conic.p)) in locus
    for route in (singular_points, singular_points_via_elimination):
        with pytest.raises(ParamError, match="past the float range"):
            route(conic, r)


def test_singular_locus_ignores_a_constant_factor():
    # each value is judged against its own terms' size and the completion
    # makes every generator primitive, so -3/7 g has g's locus, bit for bit:
    # the nine reference offsets and the product of two conics of CI's trace
    ring = ("x", "y")
    polys = [offset_poly_closed_form(conic_from_case(reference.case(i)),
                                     F(reference.case(i)["r"])).g
             for i in range(1, 10)]
    polys.append(parse_poly("x^2 + 2*y^2 - 3 + 1/5*x", ring)
                 * parse_poly("2*x^2 + y^2 - 4 + 1/7*y + 1/3*x*y", ring))
    for g in polys:
        locus = conics.singular_locus(g)
        assert locus and conics.singular_locus(g * F(-3, 7)) == locus


def test_hessian_definite_without_points_compiles_nothing(monkeypatch):
    # a base-conic trace has no pins; it must not differentiate g twice
    def no_gradient(*args):
        raise AssertionError("hessian_definite differentiated g")

    monkeypatch.setattr(conics, "gradient", no_gradient)
    g = offset_poly_closed_form(ELLIPSE_3, F(4, 3)).g
    assert conics.hessian_definite(g, []) == []


def test_hessian_definite_matches_catalogue_tags():
    # the tracer's isolation rule against the catalogue's tags, on the nine
    # reference cases and on the seeded parameter-space conics at every
    # offset of _property_offsets and midway between them: definite holds
    # for the virtual points alone, including the ellipse's equator pair
    # above a^2/b, e.g. ellipse(9/2, 4) at r = 16/3.
    cases = [(conic_from_case(reference.case(i)), F(reference.case(i)["r"]))
             for i in range(1, 10)]
    for conic in _parameter_space_conics():
        rs = _property_offsets(conic)
        cases += [(conic, r)
                  for r in rs + [(u + v) / 2 for u, v in zip(rs, rs[1:])]]
    cases.append((ConicSpec.ellipse(F(9, 2), 4), F(16, 3)))
    seen = set()
    for conic, r in cases:
        g = offset_poly_closed_form(conic, r).g
        locus = conics.singular_locus(g)
        definite = conics.hessian_definite(g, locus)
        rep = singular_points(conic, r)
        assert len(rep.points) == len(locus), (conic, r)
        for s in rep.points:
            (isolated,) = [d for (x, y), d in zip(locus, definite)
                           if abs(float(x) - float(s.x)) <= 1e-9
                           and abs(float(y) - float(s.y)) <= 1e-9]
            seen.add((s.tag, isolated))
            assert isolated == (s.tag == "virtual"), (conic, r, s)
    assert seen == {("virtual", True), ("on-curve", False), ("split", False)}


def _no_parity_g():
    # the line pairs (x - 1)^2 = y^2 and 4 (x + 1)^2 = (y - 1)^2: g has no
    # parity in x or in y; its nodes (1, 0), (-1, 1) and (0, -1) share
    # coordinates with (-1, 0), (1, 1), (0, 1), (-1, -1) and (1, -1), which
    # are not singular
    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    return ((x - 1) ** 2 - y ** 2) * (4 * (x + 1) ** 2 - (y - 1) ** 2)


def test_g_without_parity_matches_the_oracle():
    # a g of no parity: its locus is its three nodes and the three crossings
    # of its line pairs, and none of them has a definite Hessian; the
    # coordinates' other pairings, e.g. (-1, 0) and (0, 1), are no points
    g = _no_parity_g()
    locus = conics.singular_locus(g)
    assert [tuple(map(float, pt)) for pt in locus] == \
        [(-4, -5), (-2, 3), (-1, 1), (float(F(-2, 3)), float(F(5, 3))), (0, -1), (1, 0)]
    assert conics.hessian_definite(g, locus) == [False] * 6


def test_a_zero_hessian_reads_exactly_zero():
    # ellipse(7/4, 3/4) at r_crit = 9/28: the on-curve points (0, +-10/7) are
    # rational, and every Hessian entry of g is exactly 0 there (a 60-digit
    # evaluation read 1.7e-49), so the Hessian is not definite
    conic = ConicSpec.ellipse(F(7, 4), F(3, 4))
    r = r_crit(conic)
    assert r == F(9, 28)
    g = offset_poly_closed_form(conic, r).g
    locus = conics.singular_locus(g)
    assert locus == [(0, F(-10, 7)), (0, F(10, 7))]
    assert all(type(v) is F for pt in locus for v in pt)
    gx, gy = gradient(g, ["x", "y"])
    hessian = conics._exact_evaluator(*gradient(gx, ["x", "y"]), *gradient(gy, ["y"]))
    for x, y in locus:
        assert [v for v, _ in hessian(x, y)[1]] == [0, 0, 0]
    assert conics.hessian_definite(g, locus) == [False, False]


def test_ellipse_outside_reference_range_flag():
    conic = ConicSpec.ellipse(3, F(3, 2))
    assert singular_points(conic, F(1, 2)).outside_reference_range is False
    assert singular_points(conic, F(8, 5)).outside_reference_range is True
    # r >= a makes the equator pair real
    rep = singular_points(conic, F(7, 2))
    assert any(float(s.y) == 0.0 and float(s.x) != 0.0 for s in rep.points)


def test_offset_curve_metadata():
    conic = ConicSpec.parabola(F(1, 3))
    oc = offset_poly_closed_form(conic, F(1, 4))
    assert oc.source == "closed-form" and oc.g.ring == ("x", "y")
    oe = offset_poly_elimination(conic, F(1, 4))
    assert oe.source == "elimination"


def test_singular_routes_and_radicals_are_thread_safe():
    # mpmath's precision is process-global: 4 threads, 5 rounds each, run
    # both singular-point routes, the catalogue's pins and the reference
    # radicals at once, and every result equals the serial one; a thread
    # whose precision another thread's scope reset would round differently
    jobs = [(f, conic_from_case(reference.case(i)), F(reference.case(i)["r"]))
            for i in (3, 6, 9) for f in (singular_points,
                                         singular_points_via_elimination,
                                         conics.catalogue_pins)]
    radicals = [e for pair in reference.case(6)["singular_points"] for e in pair]

    def run():
        return ([f(conic, r) for f, conic, r in jobs],
                [reference.eval_radical(e) for e in radicals])

    serial = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda: [run() for _ in range(5)])
                       for _ in range(4)]
            rounds = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(got == serial for thread in rounds for got in thread)

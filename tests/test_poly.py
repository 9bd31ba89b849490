"""Polynomial substrate: arithmetic, orders, division, normalization, wire forms."""

import json
import random
from fractions import Fraction as F

import pytest

from conicoffset.conics import build_ideal
from conicoffset.errors import OrderError, RingError, VarError, ZeroPolyError
from conicoffset.groebner import buchberger, reduce_basis
from conicoffset.poly import (MonomialOrder, MultiPoly, add, block,
                              content_normalize, format_poly, frac_str,
                              gradient, grevlex, int_to_str, leading_term, lex,
                              mul, parse_poly, poly_dumps, poly_from_dict,
                              poly_loads, poly_to_dict, rat, reduce,
                              str_to_int, substitute)

R2 = ("x", "y")
X = MultiPoly.variable(R2, "x")
Y = MultiPoly.variable(R2, "y")


def rand_poly(rng, ring, max_terms=6, max_exp=4, max_coef=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in ring)
        c = F(rng.randint(-max_coef, max_coef), rng.randint(1, max_coef))
        terms[m] = terms.get(m, 0) + c
    return MultiPoly(ring, terms)


def test_add_examples():
    assert (X + Y) + (X - Y) == 2 * X
    p = rand_poly(random.Random(0), R2)
    assert add(p, MultiPoly.zero(R2)) == p
    ring = ("x0", "y0", "p")
    x0 = MultiPoly.variable(ring, "x0")
    y0 = MultiPoly.variable(ring, "y0")
    pv = MultiPoly.variable(ring, "p")
    assert (4 * pv * y0 - x0 ** 2) + x0 ** 2 == 4 * pv * y0


def test_mul_examples():
    assert mul(X + Y, X - Y) == X * X - Y * Y
    p = rand_poly(random.Random(1), R2)
    assert p * MultiPoly.const(R2, 1) == p
    # (r - 2p)^4 * r expands to the expected degree-5 polynomial
    ring = ("r", "p")
    r = MultiPoly.variable(ring, "r")
    p_ = MultiPoly.variable(ring, "p")
    got = (r - 2 * p_) ** 4 * r
    want = parse_poly("r^5 - 8*r^4*p + 24*r^3*p^2 - 32*r^2*p^3 + 16*r*p^4", ring)
    assert got == want


def test_ring_mismatch():
    other = MultiPoly.variable(("x", "z"), "x")
    with pytest.raises(RingError):
        add(X, other)
    with pytest.raises(RingError):
        mul(X, other)


def test_input_validation():
    with pytest.raises(OrderError, match="unknown order kind"):
        MonomialOrder("deglex", R2)
    with pytest.raises(VarError):
        MultiPoly.variable(R2, "z")
    with pytest.raises(ValueError, match="negative power"):
        X ** -1
    with pytest.raises(ZeroPolyError, match="division basis"):
        reduce(X * Y, [Y, MultiPoly(R2)], lex(R2))
    with pytest.raises(ValueError, match="empty"):
        parse_poly("", R2)
    with pytest.raises(VarError, match="unknown variable 'z'"):
        parse_poly("x^2 - 3*z", R2)


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (rand_poly(rng, R2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_leading_term():
    o = lex(R2)
    assert leading_term(X ** 2 * Y + X * Y ** 2, o) == ((2, 1), F(1))
    ring = ("y0", "x0", "x", "y", "p")
    y0 = MultiPoly.variable(ring, "y0")
    x0 = MultiPoly.variable(ring, "x0")
    p = MultiPoly.variable(ring, "p")
    m, c = leading_term(4 * p * y0 - x0 ** 2, lex(ring))
    assert m == (1, 0, 0, 0, 1) and c == 4
    with pytest.raises(ZeroPolyError):
        leading_term(3 * X - 3 * X, o)


def test_reduce_examples():
    o = lex(R2)
    rem, _ = reduce(X ** 2, [X], o)
    assert rem.is_zero()
    p = rand_poly(random.Random(3), R2)
    rem, qs = reduce(p, [], o)
    assert rem == p and qs == []
    rem, _ = reduce(X ** 2 * Y + 1, [X * Y - 1], o)
    assert rem == X + 1


def test_reduce_reconstruction_and_irreducibility():
    rng = random.Random(7)
    o = grevlex(R2)
    for _ in range(60):
        p = rand_poly(rng, R2)
        basis = [q for q in (rand_poly(rng, R2, 3, 2), rand_poly(rng, R2, 3, 2))
                 if not q.is_zero()]
        if not basis:
            continue
        rem, qs = reduce(p, basis, o)
        recon = rem
        for q, b in zip(qs, basis):
            recon = recon + q * b
        assert recon == p
        lts = [leading_term(b, o)[0] for b in basis]
        for m in rem.terms:
            assert not any(all(e >= f for e, f in zip(m, lt)) for lt in lts)


def test_substitute():
    got = substitute(X + Y, {"x": 1})
    assert got.ring == ("y",)
    assert got == MultiPoly.variable(("y",), "y") + 1
    with pytest.raises(VarError):
        substitute(X, {"nope": 1})
    # full evaluation leaves a constant in the empty ring
    const = substitute(X * Y + 2, {"x": F(1, 2), "y": 4})
    assert const.ring == () and const.coeff(()) == 4


def test_content_normalize():
    assert content_normalize(2 * X + 4 * Y) == X + 2 * Y
    assert content_normalize(-3 * X ** 2) == X ** 2
    assert content_normalize(F(1, 2) * X + F(1, 3) * Y) == 3 * X + 2 * Y
    rng = random.Random(11)
    for _ in range(50):
        p = rand_poly(rng, R2)
        if p.is_zero():
            with pytest.raises(ZeroPolyError):
                content_normalize(p)
            continue
        cn = content_normalize(p)
        assert content_normalize(cn) == cn  # idempotent
        # proportionality: cn == q * p for one rational q
        m0 = next(iter(p.terms))
        q = cn.terms[m0] / p.terms[m0]
        assert all(cn.terms[m] == q * c for m, c in p.terms.items())


def test_order_laws_random():
    rng = random.Random(13)
    ring4 = ("a", "b", "c", "d")
    orders = [lex(ring4), grevlex(ring4), block(ring4, 2)]
    one = (0, 0, 0, 0)
    for o in orders:
        for _ in range(300):
            u = tuple(rng.randint(0, 5) for _ in ring4)
            v = tuple(rng.randint(0, 5) for _ in ring4)
            w = tuple(rng.randint(0, 3) for _ in ring4)
            cu, cv = o.key(u), o.key(v)
            # totality with consistency
            assert (cu < cv) + (cu > cv) + (cu == cv) == 1
            # multiplicative
            if cu < cv:
                uw = tuple(x + y for x, y in zip(u, w))
                vw = tuple(x + y for x, y in zip(v, w))
                assert o.key(uw) < o.key(vw)
            # 1 is minimal
            if u != one:
                assert o.key(u) > o.key(one)


def test_block_order_eliminates():
    ring = ("y0", "x0", "x", "y")
    o = block(ring, 2)
    # any monomial containing y0 or x0 exceeds any free of them
    assert o.key((0, 1, 0, 0)) > o.key((0, 0, 9, 9))
    assert o.eliminates({"y0", "x0"})
    assert not o.eliminates({"x"})
    assert lex(ring).eliminates({"y0"})
    assert lex(ring).eliminates({"y0", "x0"})
    assert not lex(ring).eliminates({"x0"})


def test_gradient():
    gx, gy = gradient(X ** 2 * Y, ["x", "y"])
    assert gx == 2 * X * Y and gy == X ** 2
    zx, zy = gradient(MultiPoly.const(R2, 5), ["x", "y"])
    assert zx.is_zero() and zy.is_zero()
    with pytest.raises(VarError):
        gradient(X, ["q"])


def test_parse_format_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        p = rand_poly(rng, R2)
        if p.is_zero():
            assert format_poly(p) == "0"
            continue
        assert parse_poly(format_poly(p), R2) == p


def test_json_roundtrip_and_shape():
    p = F(3, 7) * X ** 2 - 2 * Y + 5
    text = poly_dumps(p)
    assert '"vars":["x","y"]' in text
    assert '"num":"3"' in text and '"den":"7"' in text
    assert poly_loads(text) == p


def test_numbers_past_the_int_str_limit_keep_every_digit():
    # Python refuses str() and int() past 4,300 decimal digits (3.11, and
    # 3.10.7 on); the wire and text forms split such numbers instead, and
    # numbers below the limit read as str() gives them
    rng = random.Random(43)
    big = [10 ** 4300, 10 ** 4300 - 1, -(10 ** 9000), 10 ** 20000 + 7]
    big += [rng.choice((1, -1)) * rng.getrandbits(rng.randint(14_000, 70_000))
            for _ in range(20)]
    texts = [int_to_str(n) for n in big]
    assert [str_to_int(t) for t in texts] == big
    assert [len(t.lstrip("-")) for t in texts[:4]] == [4301, 4300, 9001, 20001]
    assert texts[0] == "1" + "0" * 4300 and texts[2] == "-1" + "0" * 9000
    for n in (0, -7, 10 ** 4000, -(3 ** 8000)):
        assert int_to_str(n) == str(n) and str_to_int(str(n)) == n
    for bad in ("", "--5", "+-" + "1" * 5000, "1" * 5000 + "x", "1_" * 3000):
        with pytest.raises(ValueError):
            str_to_int(bad)
    p = F(big[0], 3) * X - F(-7, big[3])
    assert poly_loads(poly_dumps(p)) == p
    assert format_poly(p) == f"{texts[0]}/3*x + 7/{texts[3]}"
    assert parse_poly(format_poly(p), R2) == p
    assert frac_str(F(-5, 3)) == "-5/3" and frac_str(F(big[2])) == texts[2]


def _dumps_of_dict(p, order):
    return json.dumps(poly_to_dict(p, order), separators=(",", ":"))


def test_poly_dumps_writes_the_bytes_of_its_dict():
    # poly_dumps formats its text directly; it must equal json.dumps of
    # poly_to_dict under every order, for the zero polynomial, negative and
    # non-integer coefficients, variable names JSON escapes, and numbers past
    # the int-to-str limit, which take the fallback
    rng = random.Random(47)
    for ring in (R2, ("a", "b", "c"), ("\u00e9", 'q"', "t")):
        n = len(ring)
        polys = [MultiPoly.zero(ring), MultiPoly.const(ring, F(-3, 7))]
        polys += [rand_poly(rng, ring, max_terms=12, max_coef=10 ** 30)
                  for _ in range(30)]
        big = MultiPoly(ring, {(1,) * n: F(10 ** 4300 + 7, 3),
                               (0,) * n: F(-1, 10 ** 5000 + 1)})
        polys += [big + q for q in polys[-5:]]
        assert any(c < 0 for p in polys for c in p.terms.values())
        assert any(c.denominator > 1 for p in polys for c in p.terms.values())
        for p in polys:
            for order in (lex(ring), grevlex(ring), block(ring, 1), None):
                assert poly_dumps(p, order) == _dumps_of_dict(p, order)


@pytest.mark.parametrize("kind", ["parabola", "ellipse", "hyperbola"])
def test_poly_dumps_of_every_symbolic_basis_member(kind):
    ideal = build_ideal(kind)
    order = lex(ideal.ring)
    gb = reduce_basis(buchberger(ideal, order, max_degree=60))
    for p in gb.polys:
        for o in (order, grevlex(ideal.ring), None):
            assert poly_dumps(p, o) == _dumps_of_dict(p, o)


def _wire(*terms):
    return {"vars": ["x"], "terms": [{"exp": e, "num": num, "den": den}
                                     for e, num, den in terms]}


def test_wire_reader_rejects_what_it_would_misread():
    # x + 1 - x once read as 1 - x: the last of a repeated exponent won
    with pytest.raises(ValueError, match="given twice"):
        poly_from_dict(_wire(([1], "1", "1"), ([0], "1", "1"), ([1], "-1", "1")))
    # x^2.7 - 1 once read as x^2 - 1 and 1.5*x + 1 as x + 1: int() truncated
    for bad in (([2.7], "1", "1"), ([2.0], "1", "1"), ([True], "1", "1"),
                ([1], 1.5, "1"), ([1], 3.0, "1"), ([1], False, "1"),
                ([1], "1", 2.0), ([1], "1", True)):
        with pytest.raises(TypeError, match="int or a decimal string"):
            poly_from_dict(_wire(bad, ([0], "-1", "1")))
    # x + x - 2 over vars (x, x) once read as x - 2, and vars "xy" as (x, y)
    for ring in (["x", "x"], "xy", ["x", 1]):
        with pytest.raises(ValueError, match="list of distinct names"):
            poly_from_dict({"vars": ring, "terms": [
                {"exp": [1, 0], "num": "1", "den": "1"},
                {"exp": [0, 1], "num": "1", "den": "1"},
                {"exp": [0, 0], "num": "-2", "den": "1"}]})
    # ints and decimal strings still read, past the int-to-str limit too
    big = "7" * 5000
    p = poly_from_dict(_wire(([2], 3, 4), (["1"], "-5", 1), ([0], big, "3")))
    assert p == MultiPoly(("x",), {(2,): F(3, 4), (1,): -5,
                                   (0,): F(str_to_int(big), 3)})


def test_rat():
    assert rat("3/2") == F(3, 2)
    assert rat(-4) == -4
    assert rat(1, 3) == F(1, 3)

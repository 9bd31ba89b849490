"""Buchberger pipeline: completion, reduction, elimination, limits."""

import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conicoffset import conics, reference
from conicoffset.conics import ConicSpec, build_ideal, offset_poly_closed_form
from conicoffset.errors import (ConicOffsetError, EliminationError, OrderError,
                               ResourceLimitError, ZeroPolyError)
from conicoffset.groebner import (GroebnerBasis, Ideal, _normal_form_int,
                                  _Packing, buchberger, elimination_ideal,
                                  minimal_polynomials, minimalize, reduce_basis,
                                  s_polynomial)
from conicoffset.poly import (MultiPoly, block, content_normalize, format_poly,
                              gradient, grevlex, leading_term, lex,
                              monomial_divides, monomial_mul, parse_poly,
                              poly_dumps, reduce)
from conicoffset.verify import conic_from_case

R2 = ("x", "y")
X = MultiPoly.variable(R2, "x")
Y = MultiPoly.variable(R2, "y")


def test_s_polynomial():
    o = lex(R2)
    assert s_polynomial(X, X, o).is_zero()
    ring = ("y0", "x0", "p")
    f1 = parse_poly("4*p*y0 - x0^2", ring)
    assert s_polynomial(f1, f1, lex(ring)).is_zero()
    assert s_polynomial(X ** 2 - Y, X * Y - 1, o) == X - Y ** 2
    with pytest.raises(ZeroPolyError):
        s_polynomial(X, MultiPoly.zero(R2), o)


def test_buchberger_textbook():
    o = lex(R2)
    gb = reduce_basis(buchberger(Ideal(R2, (X ** 2 - Y, X * Y - 1)), o))
    assert {format_poly(q, o) for q in gb.polys} == {"x - y^2", "y^3 - 1"}
    gb1 = reduce_basis(buchberger(Ideal(R2, (X,)), o))
    assert [format_poly(q) for q in gb1.polys] == ["x"]


def test_all_spairs_reduce_and_membership():
    rng = random.Random(5)
    o = grevlex(R2)
    for _ in range(10):
        gens = []
        while len(gens) < 2:
            terms = {tuple(rng.randint(0, 3) for _ in R2): F(rng.randint(-4, 4))
                     for _ in range(rng.randint(1, 4))}
            p = MultiPoly(R2, terms)
            if not p.is_zero():
                gens.append(p)
        gb = buchberger(Ideal(R2, tuple(gens)), o)
        for p, q in itertools.combinations(gb.polys, 2):
            s = s_polynomial(p, q, o)
            if not s.is_zero():
                rem, _ = reduce(s, list(gb.polys), o)
                assert rem.is_zero()
        for g in gens:
            rem, _ = reduce(g, list(gb.polys), o)
            assert rem.is_zero()


def test_reduce_basis_examples_and_uniqueness():
    o = lex(R2)
    gb = reduce_basis(buchberger(Ideal(R2, (X, 2 * X, X + Y)), o))
    assert {format_poly(q, o) for q in gb.polys} == {"x", "y"}
    assert gb.reduced
    # invariance under generator permutation
    gens = (X ** 2 - Y, X * Y - 1, X ** 3 - X)
    bases = []
    for perm in itertools.permutations(gens):
        rb = reduce_basis(buchberger(Ideal(R2, perm), o))
        bases.append(tuple(rb.polys))
    assert len(set(bases)) == 1


def test_example1_pipeline_counts():
    conic = ConicSpec.parabola(F(1, 3))
    ideal = build_ideal(conic, F(1, 4))
    o = lex(ideal.ring)
    gb = buchberger(ideal, o)
    # the classic run yields sixteen polynomials before minimization
    assert len(gb.polys) == 16
    gm = minimalize(gb)
    assert len(gm.polys) in (6, 8)
    gr = reduce_basis(gb)
    assert len(gr.polys) == len(gm.polys)
    kept = elimination_ideal(gr, {"x", "y"})
    assert len(kept) == 1
    assert gr.stats["pairs_considered"] > 0
    assert set(gr.stats) >= {"pairs_considered", "pairs_skipped_criteria",
                             "reductions", "basis_size"}


@pytest.mark.parametrize("r,expected_reduced", [
    (F(1, 4), 6), (F(2, 3), 8), (F(3, 2), 6),
])
def test_parabola_reduced_sizes(r, expected_reduced):
    # critical offsets enlarge the reduced basis: 6 / 8 / 6 across the regimes
    ideal = build_ideal(ConicSpec.parabola(F(1, 3)), r)
    gr = reduce_basis(buchberger(ideal, lex(ideal.ring)))
    assert len(gr.polys) == expected_reduced


@pytest.mark.parametrize("kind,a,b,r,expected", [
    ("ellipse", 3, F(3, 2), F(1, 2), 9),
    ("ellipse", 3, F(3, 2), F(3, 4), 11),
    ("ellipse", 3, F(3, 2), F(4, 3), 9),
    ("hyperbola", 1, 1, F(1, 2), 9),
    ("hyperbola", F(3, 2), 1, F(2, 3), 11),
    ("hyperbola", F(3, 2), 1, F(4, 3), 9),
])
def test_central_reduced_sizes(kind, a, b, r, expected):
    conic = (ConicSpec.ellipse(a, b) if kind == "ellipse"
             else ConicSpec.hyperbola(a, b))
    ideal = build_ideal(conic, r)
    gr = reduce_basis(buchberger(ideal, lex(ideal.ring)))
    assert len(gr.polys) == expected


def test_elimination_full_and_errors():
    o = lex(R2)
    gb = reduce_basis(buchberger(Ideal(R2, (X ** 2 - Y, X * Y - 1)), o))
    assert elimination_ideal(gb, {"x", "y"}) == list(gb.polys)
    assert [format_poly(q) for q in elimination_ideal(gb, {"y"})] == ["y^3 - 1"]
    with pytest.raises(OrderError):
        elimination_ideal(gb, {"x"})  # lex(x>y) does not eliminate y
    gb2 = reduce_basis(buchberger(Ideal(R2, (X ** 2 - Y,)), grevlex(R2)))
    with pytest.raises(OrderError):
        elimination_ideal(gb2, {"y"})


def test_elimination_soundness_on_variety_samples():
    # every eliminated-basis member vanishes at sampled variety points
    conic = ConicSpec.ellipse(3, F(3, 2))
    r = F(1, 2)
    ideal = build_ideal(conic, r)
    gb = reduce_basis(buchberger(ideal, block(ideal.ring, 2)))
    kept = elimination_ideal(gb, {"x", "y"})
    a, b, rf = 3.0, 1.5, 0.5
    rng = random.Random(23)
    for _ in range(50):
        t = rng.uniform(0, 2 * math.pi)
        x0, y0 = b * math.cos(t), a * math.sin(t)
        nx, ny = x0 / b ** 2, y0 / a ** 2
        nn = math.hypot(nx, ny)
        sgn = rng.choice((1.0, -1.0))
        x, y = x0 + sgn * rf * nx / nn, y0 + sgn * rf * ny / nn
        for q in kept:
            total = 0.0
            scale = max(abs(float(c)) for c in q.terms.values())
            for m, c in q.terms.items():
                ix, iy = q.ring.index("x"), q.ring.index("y")
                total += float(c) * x ** m[ix] * y ** m[iy]
            assert abs(total) / scale <= 1e-9


def test_resource_limits():
    ideal = build_ideal(ConicSpec.parabola(F(1, 3)), F(1, 4))
    with pytest.raises(ResourceLimitError) as exc:
        buchberger(ideal, lex(ideal.ring), max_pairs=3)
    assert exc.value.stats.get("pairs_considered", 0) >= 3
    with pytest.raises(ResourceLimitError):
        buchberger(ideal, lex(ideal.ring), max_degree=2)


def test_symbolic_parabola_basis_shape():
    ideal = build_ideal("parabola")
    gr = reduce_basis(buchberger(ideal, lex(ideal.ring)))
    assert len(gr.polys) == 14
    assert gr.degree_multiset() == [7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 3, 2, 2, 2]


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

R5 = ("v", "w", "x", "y", "z")
PACK_ORDERS = [lex(R5), grevlex(R5), block(R5, 2)]


def _random_monomials(seed, count=300, top=(1 << 15) - 1):
    # mostly small exponents, so divisibility and ties are frequent, plus
    # some near the top of a 16-bit field
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        hi = rng.choice((2, 4, 4, 4, top // 2, top))
        out.append(tuple(rng.randint(0, hi) for _ in R5))
    return out


def _same_degree_partner(rng, u):
    # move part of one exponent to another variable: equal total degree, so
    # the comparison is decided by the lower key fields
    i, j = rng.sample(range(len(u)), 2)
    room = min(u[i], (1 << 16) - 1 - u[j])
    shift = rng.randint(0, room)
    v = list(u)
    v[i] -= shift
    v[j] += shift
    return tuple(v)


@pytest.mark.parametrize("order", PACK_ORDERS, ids=lambda o: o.kind)
def test_packed_comparison_matches_order_key(order):
    pk = _Packing(order, 40)
    rng = random.Random(14)
    mons = _random_monomials(11, top=(1 << 16) - 1)
    pairs = list(zip(mons, mons[1:] + mons[:1]))
    pairs += [(u, _same_degree_partner(rng, u)) for u in mons]
    for u, v in pairs:
        assert (pk.pack(u) < pk.pack(v)) == (order.key(u) < order.key(v))
        assert (pk.pack(u) == pk.pack(v)) == (u == v)
    assert max(mons, key=pk.pack) == max(mons, key=order.key)


@pytest.mark.parametrize("order", PACK_ORDERS, ids=lambda o: o.kind)
def test_packed_divisibility_matches_monomial_divides(order):
    pk = _Packing(order, 40)
    g = pk.guard
    mons = _random_monomials(12, top=(1 << 16) - 1)
    hits = 0
    for n, m in itertools.product(mons[:60], mons[:60]):
        packed = ((pk.pack(m) | g) - pk.pack(n)) & g == g
        assert packed == monomial_divides(n, m)
        if packed:
            hits += 1
            assert pk.pack(m) - pk.pack(n) == pk.pack(
                tuple(a - b for a, b in zip(m, n)))
    assert hits > 100


@pytest.mark.parametrize("order", PACK_ORDERS, ids=lambda o: o.kind)
def test_packed_addition_matches_monomial_mul(order):
    pk = _Packing(order, 40)
    mons = _random_monomials(13)
    for u, v in zip(mons, reversed(mons)):
        assert pk.unpack(pk.pack(u)) == u
        assert pk.pack(u) + pk.pack(v) == pk.pack(monomial_mul(u, v))
    top = (1 << pk.width) - 1
    assert (pk.pack((top, 0, 0, 0, 0)) + pk.pack((1, 0, 0, 0, 0))) & pk.guard


@pytest.mark.parametrize("order", PACK_ORDERS, ids=lambda o: o.kind)
def test_packed_degree_matches_total_degree(order):
    pk = _Packing(order, 40)
    for u in _random_monomials(15, top=(1 << 16) - 1):
        assert pk.degree(pk.pack(u)) == sum(u)


def test_exponent_overflow_raises():
    o = lex(R2)
    wide = 1 << _Packing(o, 40).width
    with pytest.raises(ResourceLimitError) as exc:
        buchberger(Ideal(R2, (X ** wide - Y, X * Y - 1)), o)
    assert "overflow" in str(exc.value)
    assert exc.value.stats["pairs_considered"] == 0
    # y^40000 fits a field, but reducing x^2 by x - y^40000 forms y^80000
    with pytest.raises(ResourceLimitError) as exc:
        buchberger(Ideal(R2, (X - Y ** 40000, X ** 2)), o)
    assert "overflow" in str(exc.value)
    assert exc.value.stats["reductions"] == 1


# ---------------------------------------------------------------------------
# golden bases: sha256 of the poly_dumps of each reduced basis plus the
# completion counters (pairs_considered, pairs_skipped_criteria, reductions,
# basis_size), recorded with the tuple-monomial engine that preceded packing
# ---------------------------------------------------------------------------

def _fingerprint(gb):
    text = "\n".join(poly_dumps(p, gb.order) for p in gb.polys)
    s = gb.stats
    return (hashlib.sha256(text.encode()).hexdigest(), s["pairs_considered"],
            s["pairs_skipped_criteria"], s["reductions"], s["basis_size"])


GOLDEN_SMALL = {
    ("textbook", "lex"): (
        "8184753b008788e53e71bf47432f82d1d8e59cbf038dcc12893e8d15b237add0", 6, 2, 4, 4),
    ("textbook", "grevlex"): (
        "fd09c32d46c5899520267971d959672b7d62c58d6d160978171d4a50c801a7a9", 3, 1, 2, 3),
    ("textbook", "block"): (
        "8184753b008788e53e71bf47432f82d1d8e59cbf038dcc12893e8d15b237add0", 6, 2, 4, 4),
    ("clo", "lex"): (
        "dd8a6d9eae4cddc4f1d00aa3003120d7e5c9166aebfd4878ff37611fd924cab7", 15, 8, 7, 6),
    ("clo", "grevlex"): (
        "13aecab0a5608f5be93892d00bf547cb35debf8643fa0a628dbdc69f213fc0f7", 10, 5, 5, 5),
    ("case4", "grevlex"): (
        "e2346c20e11e1e4b913c3f5ee45e16a7357a61ec6fe341fb2ac0d732b7a5b7c0", 21, 12, 9, 7),
    ("parabola-symbolic", "lex"): (
        "4815cb8d5c2df500c508d53fc0e5ba7c8c920512c94acae91d72d56ec464a424", 91, 57, 34, 14),
}

GOLDEN_BLOCK_CASES = {
    1: ("b457f392b1efb0aac97cd87d68eb770d9ecce56a96544605b7c273dadd9a99c9", 78, 58, 20, 13),
    2: ("d0857b5a330f1cf038192e76123968044bc6c4bc24b421036ed7c85705a39d75", 45, 25, 20, 10),
    3: ("9b67f2d30dea1f9791666a665426994cef1699a1dd0af7624ccedb9b8fe214b3", 78, 58, 20, 13),
    4: ("bd1dfbf6b9186a571418ec4be3363c590a76c70a731141a3cc4726b468254f57", 78, 53, 25, 13),
    5: ("fa0a85e66271215eb85b64b4a823363dc81e32413a5d49cf0fe067a9b220f5bd", 66, 42, 24, 12),
    6: ("4c21cf42b0be31f87816cbe2fe69adbb4e609a95284630634f0e4a8affa52e3a", 78, 53, 25, 13),
    7: ("c8610a6e6db3addbcee289c0c25e0b98f1a424053aefa2d3d6c04a0cd75c5ab6", 78, 53, 25, 13),
    8: ("1f52aaab6dc0ad2d3f4194d079f636c0ac721b7052d5755bffa9655b015ec767", 66, 42, 24, 12),
    9: ("bc8c3a70e3f6a5cf97d751003b7239c93b4de7f7ed0ebdd60ff27bb09b4c419e", 78, 53, 25, 13),
}

# the two lex runs of the elimination singular-point route on case 5
# (ellipse a=3, b=3/2, r=3/4): keep x (ring y>x), then keep y (ring x>y)
GOLDEN_UNIVARIATE = [
    ("82473089ef5840cad07868686e16c8bfc88cf6c76025a22e924e0464cb4e241f", 300, 269, 31, 25),
    ("fb8da81c41343f336557a038f874fd9f421c318945c85751a737af401a961c9f", 406, 367, 39, 29),
]


def _small_ideal(name):
    if name == "textbook":
        return Ideal(R2, (parse_poly("x^2 - y", R2), parse_poly("x*y - 1", R2)))
    if name == "clo":
        return Ideal(R2, (parse_poly("x^3 - 2*x*y", R2),
                          parse_poly("x^2*y - 2*y^2 + x", R2)))
    if name == "case4":
        c = reference.case(4)
        return build_ideal(conic_from_case(c), F(c["r"]))
    return build_ideal("parabola")


@pytest.mark.parametrize("name,kind", sorted(GOLDEN_SMALL))
def test_golden_small_bases(name, kind):
    ideal = _small_ideal(name)
    order = {"lex": lex, "grevlex": grevlex}.get(kind)
    order = order(ideal.ring) if order else block(ideal.ring, 1)
    gb = reduce_basis(buchberger(ideal, order))
    assert _fingerprint(gb) == GOLDEN_SMALL[(name, kind)]


@pytest.mark.parametrize("case_id", sorted(GOLDEN_BLOCK_CASES))
def test_golden_block_elimination_cases(case_id):
    c = reference.case(case_id)
    ideal = build_ideal(conic_from_case(c), F(c["r"]))
    gb = reduce_basis(buchberger(ideal, block(ideal.ring, 2)))
    assert _fingerprint(gb) == GOLDEN_BLOCK_CASES[case_id]


def _lex_univariate(system, keep, drop):
    """The lex elimination the singular-point route used before it computed
    minimal polynomials, kept as the oracle: ring (drop, keep), lex order,
    max_pairs=200_000, max_degree=200; returns the reduced basis and the
    ascending coefficient list of its univariate member."""
    ring = (drop, keep)

    def remap(p):
        iy, ix = p.ring.index(drop), p.ring.index(keep)
        return MultiPoly(ring, {(m[iy], m[ix]): c for m, c in p.terms.items()})

    ideal = Ideal(ring, tuple(remap(q) for q in system))
    gb = reduce_basis(buchberger(ideal, lex(ring), max_pairs=200_000,
                                 max_degree=200))
    kept = elimination_ideal(gb, {keep})
    if len(kept) != 1:
        raise EliminationError(
            f"expected one univariate generator in {keep}, got {len(kept)}")
    cs = [F(0)] * (kept[0].degree() + 1)
    for m, c in kept[0].terms.items():
        cs[m[1]] = c
    return gb, cs


def _singular_system(conic, r):
    g = offset_poly_closed_form(conic, r).g
    return (g, *(content_normalize(q) for q in gradient(g, ["x", "y"])))


def test_golden_univariate_lex_runs():
    c = reference.case(5)
    system = _singular_system(conic_from_case(c), F(c["r"]))
    runs = [_lex_univariate(system, "x", "y"), _lex_univariate(system, "y", "x")]
    assert [_fingerprint(gb) for gb, _ in runs] == GOLDEN_UNIVARIATE
    # the grevlex basis and its minimal polynomials give the univariate
    # members of those two lex bases, coefficient for coefficient
    assert conics._singular_eliminants(system) == [cs for _, cs in runs]


def _rand_q(rng, lo, hi):
    """A rational strictly between lo and hi with a small denominator."""
    den = rng.randint(1, 9)
    return lo + (hi - lo) * F(rng.randint(1, 8 * den - 1), 8 * den)


def _eliminant_cases(seed):
    """Seeded random rational conics, each with offsets below, at and above
    r_crit and, for the central conics, at b, a, a^2/b and beyond."""
    rng = random.Random(seed)
    p = _rand_q(rng, F(1, 4), F(3))
    a = _rand_q(rng, F(1), F(5))
    b = _rand_q(rng, a / 3, a)
    for conic in (ConicSpec.parabola(p), ConicSpec.parabola(-p)):
        rc = 2 * p
        for r in (rc / 3, rc, _rand_q(rng, rc, 2 * rc), 3 * rc):
            yield conic, r
    for conic in (ConicSpec.ellipse(a, b), ConicSpec.hyperbola(a, b)):
        rc = b * b / a
        for r in (rc / 2, rc, (rc + b) / 2, b, (b + a) / 2, a, a * a / b,
                  _rand_q(rng, a * a / b, 2 * a * a / b), 3 * a * a / b):
            yield conic, r
    rect = ConicSpec.hyperbola(b, b)  # a == b: r_crit == a == b
    for r in (b / 2, b, _rand_q(rng, b, 2 * b), 3 * b):
        yield rect, r


def _outcome(fn):
    try:
        return fn(), None
    except ConicOffsetError as exc:
        return None, type(exc)


@pytest.mark.parametrize("seed", [3, 17])
def test_eliminants_match_lex_oracle(seed):
    for conic, r in _eliminant_cases(seed):
        system = _singular_system(conic, r)
        got, got_err = _outcome(lambda: conics._singular_eliminants(system))
        want, want_err = _outcome(lambda: [_lex_univariate(system, "x", "y")[1],
                                           _lex_univariate(system, "y", "x")[1]])
        assert (got, got_err) == (want, want_err), (conic.describe(), r)


def test_eliminants_not_finite_raise_like_lex():
    # g = h^2 is singular along all of h = 0: no finite eliminant exists
    h = X ** 2 + Y ** 2 - 1
    system = (h ** 2, *(content_normalize(q) for q in gradient(h ** 2, ["x", "y"])))
    with pytest.raises(EliminationError):
        conics._singular_eliminants(system)
    with pytest.raises(EliminationError):
        _lex_univariate(system, "x", "y")


@pytest.mark.parametrize("name", ["textbook", "clo"])
@pytest.mark.parametrize("kind", ["lex", "grevlex"])
def test_minimal_polynomials_generate_elimination_ideals(name, kind):
    ideal = _small_ideal(name)
    gb = reduce_basis(buchberger(ideal, {"lex": lex, "grevlex": grevlex}[kind](R2)))
    mx, my = minimal_polynomials(gb, ("x", "y"))
    # the univariate members of the two lex bases, with x last and y last
    lex_y = reduce_basis(buchberger(ideal, lex(R2)))
    yx = Ideal(("y", "x"), tuple(MultiPoly(("y", "x"), {(m[1], m[0]): c
                                                         for m, c in q.terms.items()})
                                 for q in ideal.generators))
    lex_x = reduce_basis(buchberger(yx, lex(("y", "x"))))
    (uy,) = elimination_ideal(lex_y, {"y"})
    (ux,) = elimination_ideal(lex_x, {"x"})
    assert my == uy
    assert mx == MultiPoly(R2, {(m[1], 0): c for m, c in ux.terms.items()})
    assert my.support_vars() == {"y"} and mx.support_vars() == {"x"}


def test_minimal_polynomials_edge_cases():
    gb = reduce_basis(buchberger(Ideal(R2, (X - 2, X - 3)), grevlex(R2)))
    assert minimal_polynomials(gb, ["y"]) == [MultiPoly.const(R2, 1)]
    gb = reduce_basis(buchberger(Ideal(R2, (X ** 2 - 2, Y - X)), grevlex(R2)))
    assert minimal_polynomials(gb, ["y"]) == [Y ** 2 - 2]
    with pytest.raises(EliminationError):
        minimal_polynomials(reduce_basis(buchberger(Ideal(R2, (X * Y,)),
                                                    grevlex(R2))), ["x"])
    with pytest.raises(OrderError):
        minimal_polynomials(gb, ["z"])


# ---------------------------------------------------------------------------
# packed hand-off: buchberger -> reduce_basis -> minimal_polynomials
# ---------------------------------------------------------------------------

def _dumps(polys, order):
    return [poly_dumps(p, order) for p in polys]


def _orders(ring):
    return {"lex": lex(ring), "grevlex": grevlex(ring), "block": block(ring, 1)}


def _hand_built(gb):
    """gb's polys without their packed form, and as non-primitive Fraction
    multiples with negative leading coefficients plus a redundant member."""
    first = gb.polys[0]
    x = MultiPoly.variable(first.ring, first.ring[0])
    plain = GroebnerBasis(gb.order, gb.polys)
    scaled = GroebnerBasis(gb.order, tuple(F(-3, 7) * p for p in gb.polys)
                           + (F(5, 2) * x * first,))
    assert all(leading_term(p, gb.order)[1] < 0 for p in scaled.polys[:-1])
    return plain, scaled


@pytest.mark.parametrize("name,kind", [
    (n, k) for n in ("textbook", "clo") for k in ("lex", "grevlex", "block")
] + [("case4", "grevlex"), ("case4", "block")])
def test_reduce_basis_same_from_packed_and_hand_built(name, kind):
    ideal = _small_ideal(name)
    gb = buchberger(ideal, _orders(ideal.ring)[kind])
    want = _dumps(reduce_basis(gb).polys, gb.order)
    for hand in _hand_built(gb):
        assert _dumps(reduce_basis(hand).polys, gb.order) == want


@pytest.mark.parametrize("name", ["textbook", "clo"])
@pytest.mark.parametrize("kind", ["lex", "grevlex", "block"])
def test_minimal_polynomials_same_from_packed_and_hand_built(name, kind):
    gb = buchberger(_small_ideal(name), _orders(R2)[kind])
    reduced = reduce_basis(gb)
    want = _dumps(minimal_polynomials(reduced, R2), gb.order)
    plain, scaled = _hand_built(gb)
    for basis in (gb, plain, scaled, reduce_basis(plain), reduce_basis(scaled),
                  GroebnerBasis(gb.order, reduced.polys)):
        assert _dumps(minimal_polynomials(basis, R2), gb.order) == want


def test_replaced_basis_is_reduced_from_its_new_polys():
    o = grevlex(R2)
    gb = buchberger(_small_ideal("textbook"), o)
    other = buchberger(_small_ideal("clo"), o)
    swapped = dataclasses.replace(gb, polys=other.polys)
    assert _dumps(reduce_basis(swapped).polys, o) == _dumps(reduce_basis(other).polys, o)
    assert minimal_polynomials(swapped, R2) == minimal_polynomials(other, R2)
    reduced = reduce_basis(gb)
    swapped = dataclasses.replace(reduced, polys=reduce_basis(other).polys)
    assert minimal_polynomials(swapped, R2) == minimal_polynomials(other, R2)


def test_reduce_basis_widens_a_narrow_packed_form():
    # y^2 reduces by y - z^40000 to z^80000, which needs a field wider than
    # the one buchberger packs into for max_degree 40; the pair is coprime,
    # so only reduce_basis forms it
    r3 = ("x", "y", "z")
    x, y, z = (MultiPoly.variable(r3, v) for v in r3)
    o = lex(r3)
    gb = buchberger(Ideal(r3, (x ** 2 + y ** 2, y - z ** 40000)), o)
    assert gb.stats["reductions"] == 0
    reduced = reduce_basis(gb)
    assert reduced.polys == (x ** 2 + z ** 80000, y - z ** 40000)
    assert _dumps(reduce_basis(GroebnerBasis(o, gb.polys)).polys, o) == \
        _dumps(reduced.polys, o)


@pytest.mark.parametrize("name,kind", sorted(GOLDEN_SMALL))
def test_normal_form_factor_is_exact(name, kind):
    # the integer normal form is primitive and equals its returned factor
    # num/den times the Fraction remainder of poly.reduce, term for term,
    # with and without a first-divisor cache shared across the inputs
    ideal = _small_ideal(name)
    order = _orders(ideal.ring)[kind]
    gb = reduce_basis(buchberger(ideal, order))
    packing, entries = gb._packed
    ring = ideal.ring
    rng = random.Random(f"{name}:{kind}")
    inputs = []
    for k in range(9):
        # degrees up to 9, enough for case4 to strip content mid-reduction
        p = MultiPoly(ring, {tuple(rng.randint(0, k + 1) for _ in ring):
                             F(rng.randint(-50, 50)) for _ in range(rng.randint(1, 6))})
        if k % 3:  # an ideal member (normal form 0), or one plus the constant k
            p = p * ideal.generators[k % len(ideal.generators)] + (k % 3 - 1) * k
        if not p.is_zero():
            inputs.append(p)
    first: dict = {}
    for p in inputs:
        want, _ = reduce(p, list(gb.polys), order)
        terms = {packing.pack(m): int(c) for m, c in p.terms.items()}
        for cache in (None, first):
            rem, num, den = _normal_form_int(terms, entries, packing.guard, cache)
            assert num > 0 and den > 0
            assert math.gcd(*rem.values()) in (0, 1)
            assert packing.to_poly(ring, rem) == F(num, den) * want


@pytest.mark.parametrize("name,kind", sorted(GOLDEN_SMALL))
def test_engine_polys_are_canonical(name, kind):
    ideal = _small_ideal(name)
    order = _orders(ideal.ring)[kind]
    gb = buchberger(ideal, order)
    for p in gb.polys + reduce_basis(gb).polys:
        fresh = MultiPoly(p.ring, dict(p.terms))
        assert p == fresh and fresh == p and hash(p) == hash(fresh)
        assert type(p.ring) is tuple and p.ring == ideal.ring
        for m, c in p.terms.items():
            assert type(m) is tuple and len(m) == len(p.ring)
            assert all(type(e) is int and e >= 0 for e in m)
            assert type(c) is F and c != 0


def _coeff_bits(polys):
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


@pytest.mark.parametrize("name,kind", sorted(GOLDEN_SMALL))
def test_coeff_bits_max_matches_polys(name, kind):
    ideal = _small_ideal(name)
    gb = buchberger(ideal, _orders(ideal.ring)[kind])
    reduced = reduce_basis(gb)
    assert gb.stats["coeff_bits_max"] == _coeff_bits(gb.polys)
    assert reduced.stats["coeff_bits_max"] == _coeff_bits(reduced.polys)
    hand = reduce_basis(_hand_built(gb)[1])
    assert hand.stats["coeff_bits_max"] == _coeff_bits(hand.polys)


def test_partial_stats_have_no_coeff_bits():
    ideal = build_ideal(ConicSpec.parabola(F(1, 3)), F(1, 4))
    with pytest.raises(ResourceLimitError) as exc:
        buchberger(ideal, lex(ideal.ring), max_pairs=3)
    assert "coeff_bits_max" not in exc.value.stats
    # reducing x^3 y^3 z^40000 by x*y - z^40000 three times forms z^160000
    r3 = ("x", "y", "z")
    x, y, z = (MultiPoly.variable(r3, v) for v in r3)
    gb = GroebnerBasis(lex(r3), (x * y - z ** 40000, x ** 4 + x ** 3 * y ** 3 * z ** 40000),
                       stats={"pairs_considered": 1, "coeff_bits_max": 1})
    with pytest.raises(ResourceLimitError) as exc:
        reduce_basis(gb)
    assert "overflow" in str(exc.value)
    assert exc.value.stats == {"pairs_considered": 1}

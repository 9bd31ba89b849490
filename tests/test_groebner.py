"""Buchberger pipeline: completion, reduction, elimination, limits."""

import dataclasses
import hashlib
import heapq
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from itertools import chain, islice
from math import gcd

import pytest

from conicoffset import conics, reference
from conicoffset.conics import ConicSpec, build_ideal, offset_poly_closed_form
from conicoffset.errors import (ConicOffsetError, EliminationError, OrderError,
                               PreconditionError, ResourceLimitError,
                               RingError, ZeroPolyError)
from conicoffset.fixtures import general_offset_poly
from conicoffset.groebner import (GroebnerBasis, Ideal, _content, _make_entry,
                                  _normal_form_int, _Packing, buchberger,
                                  elimination_ideal, minimal_polynomials,
                                  minimalize, reduce_basis, s_polynomial)
from conicoffset.poly import (MultiPoly, block, content_normalize, format_poly,
                              gradient, grevlex, leading_term, lex,
                              monomial_divides, monomial_mul, parse_poly,
                              poly_dumps, reduce, substitute)
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
    # the signature-based run yields twelve polynomials before minimization
    # (the classic pair loop yielded sixteen)
    assert len(gb.polys) == 12
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


def test_elimination_ideal_converts_only_the_members_it_keeps():
    # a packed basis converts the kept member alone, and a later read of
    # polys gives an equal member, converted from the same entry as the rest;
    # once polys are read, the basis hands out its own members
    ideal = build_ideal(ConicSpec.ellipse(3, F(3, 2)), F(1, 2))
    gb = reduce_basis(buchberger(ideal, block(ideal.ring, 2)))
    kept = elimination_ideal(gb, {"x", "y"})
    assert "polys" not in vars(gb) and len(kept) == 1
    members = [p for p in gb.polys if p.support_vars() <= {"x", "y"}]
    assert len(members) == 1 and members[0] == kept[0] and len(gb.polys) > 1
    packing, entries = gb._packed
    assert list(gb.polys) == [packing.to_poly(ideal.ring, e[2]) for e in entries]
    again = elimination_ideal(gb, {"x", "y"})
    assert len(again) == 1 and again[0] == kept[0] and again[0] is members[0]


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


@pytest.mark.parametrize("budget", [{"max_pairs": -1}, {"max_degree": -1},
                                    {"max_pairs": 2.5}, {"max_degree": None}],
                         ids=["pairs-negative", "degree-negative",
                              "pairs-float", "degree-none"])
def test_bad_budgets_are_preconditions(budget):
    # a budget is an int >= 0, for one generator as for two; 0 stays valid
    for gens in ((X ** 2 - Y,), (X ** 2 - Y, X * Y - 1)):
        with pytest.raises(PreconditionError, match="ints >= 0"):
            buchberger(Ideal(R2, gens), lex(R2), **budget)
    assert buchberger(Ideal(R2, (X ** 2 - Y,)), lex(R2), max_pairs=0,
                      max_degree=0).polys


def test_input_validation():
    with pytest.raises(RingError):
        Ideal(R2, (X, MultiPoly.variable(("x", "z"), "z")))
    with pytest.raises(ZeroPolyError):
        Ideal(R2, (X, MultiPoly(R2)))
    ideal = Ideal(R2, (X * Y - 1, X ** 2 - Y))
    with pytest.raises(OrderError, match="do not match"):
        buchberger(ideal, lex(("y", "x")))
    with pytest.raises(OrderError, match="unknown variables"):
        elimination_ideal(buchberger(ideal, lex(R2)), {"y", "z"})


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


def test_packing_with_h_is_lex_with_h_last():
    # R5's last variable plays h: lex over the first four packed with h
    # compares, divides and multiplies like lex over all five, reads the
    # degree with h set to 1, and shifts by one field to the ring's packing
    ring = R5[:-1]
    pk, base = _Packing(lex(ring), 40, h=True), _Packing(lex(ring), 40)
    order, g, slot = lex(R5), pk.guard, pk.width + 1
    rng = random.Random(18)
    mons = _random_monomials(18)
    mons += [_same_degree_partner(rng, u) for u in mons[:20]]
    hits = 0
    for u, v in itertools.product(mons[:60], repeat=2):
        m, n = pk.pack(u), pk.pack(v)
        assert (m < n) == (order.key(u) < order.key(v))
        hits += ((m | g) - n) & g == g
        assert (((m | g) - n) & g == g) == monomial_divides(v, u)
    assert hits > 100
    for u, v in zip(mons, reversed(mons)):
        m = pk.pack(u)
        assert pk.unpack(m) == u and m >> slot == base.pack(u[:-1])
        assert m + pk.pack(v) == pk.pack(monomial_mul(u, v))
        assert pk.degree(m) == sum(u[:-1])
    terms = [pk.pack(u) for u in mons[:8]]
    assert pk.top_degree(terms) == max(sum(u[:-1]) for u in mons[:8])


def _to_poly_per_term(packing, terms):
    """The per-term build that ``to_poly`` unpacks by field, kept as its
    oracle: one exponent tuple and one Fraction per term, in term order."""
    mask, shifts = packing.mask, packing.shifts
    return {tuple([m >> s & mask for s in shifts]): F(c)
            for m, c in terms.items()}


def _same_items(p, want):
    items = list(p.terms.items())
    assert items == list(want.items())
    assert all(type(m) is tuple and all(type(e) is int for e in m)
               and type(c) is F for m, c in items)


def _like(order, ring):
    # the same kind of order over another ring, a block one eliminating half
    return dataclasses.replace(order, variables=ring,
                               elim_count=order.elim_count and len(ring) // 2)


@pytest.mark.parametrize("order", PACK_ORDERS, ids=lambda o: o.kind)
def test_to_poly_matches_the_per_term_build(order):
    # keys, Fraction values and insertion order are those of the per-term
    # build, for random packed terms in no particular order and for every
    # member of a reduced basis; the float evaluators sum in that order
    pk = _Packing(order, 40)
    rng = random.Random(47)
    mons = _random_monomials(47, top=(1 << 16) - 1)
    terms = {pk.pack(u): rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 300))
             or 1 for u in mons}
    _same_items(pk.to_poly(R5, terms), _to_poly_per_term(pk, terms))
    _same_items(pk.to_poly(R5, {}), {})
    ideal = build_ideal(ConicSpec.ellipse(3, F(3, 2)), F(1, 2))
    for gb in (reduce_basis(buchberger(ideal, _like(order, ideal.ring))),
               reduce_basis(buchberger(Ideal(R2, (X, X - 1)), _like(order, R2)))):
        packing, entries = gb._packed
        assert len(entries) == len(gb.polys)
        for p, e in zip(gb.polys, entries):
            _same_items(p, _to_poly_per_term(packing, e[2]))
    assert gb.polys == (MultiPoly.const(R2, 1),)


def test_exponent_overflow_raises():
    o = lex(R2)
    wide = 1 << _Packing(o, 40).width
    with pytest.raises(ResourceLimitError) as exc:
        buchberger(Ideal(R2, (X ** wide - Y, X * Y - 1)), o)
    assert "overflow" in str(exc.value)
    assert exc.value.stats["pairs_considered"] == 0
    # y^40000 fits a field, but reducing x^2 by x - y^40000 forms y^80000;
    # the homogenized path's lex stage meets the degree cap first, after one
    # reduction, and the direct completion goes on from its counters
    with pytest.raises(ResourceLimitError) as exc:
        buchberger(Ideal(R2, (X - Y ** 40000, X ** 2)), o)
    assert "overflow" in str(exc.value)
    assert exc.value.stats["reductions"] == 2


@pytest.mark.parametrize("gens", [
    # the completion queues an S-pair whose signature is past its fields
    (X ** 32768 * Y ** 2 - X, X ** 3 * Y - Y),
    # the S-pair of x*y - 1 and x - y^65535 multiplies the second by y, and
    # its term y^65536 past its field; unchecked it would end at the degree cap
    (X * Y - 1, X - Y ** 65535),
], ids=["signature", "multiplied-terms"])
def test_completion_overflow_guards(gens):
    with pytest.raises(ResourceLimitError, match="overflow") as exc:
        buchberger(Ideal(R2, gens), lex(R2))
    assert {"basis_size", "pending_pairs"} <= set(exc.value.stats)


def test_koszul_signature_past_its_fields_is_no_syzygy():
    # x^2 y^40000 - x^2 + x top-reduces by y^40000 - 1 to x, keeping the
    # signature x^2 y^40000; their Koszul syzygy's signature, y^40000 times
    # that, is past its fields, so it is not kept; their leading monomials are
    # coprime, so no S-pair is formed and the completion ends
    gb = buchberger(Ideal(R2, (Y ** 40000 - 1, X ** 2 * Y ** 40000 - X ** 2 + X)),
                    lex(R2))
    assert gb.stats["pairs_considered"] == 0 and gb.stats["basis_size"] == 2
    assert reduce_basis(gb).polys == (X, Y ** 40000 - 1)


# ---------------------------------------------------------------------------
# golden bases: sha256 of the poly_dumps of each reduced basis plus the
# completion counters (pairs_considered, pairs_skipped_criteria, reductions,
# basis_size); the hashes were recorded with the tuple-monomial engine that
# preceded packing, the counters with the signature-based completion
# ---------------------------------------------------------------------------

def _fingerprint(gb):
    text = "\n".join(poly_dumps(p, gb.order) for p in gb.polys)
    s = gb.stats
    return (hashlib.sha256(text.encode()).hexdigest(), s["pairs_considered"],
            s["pairs_skipped_criteria"], s["reductions"], s["basis_size"])


# The textbook and clo ideals stop their grevlex stage over ring + h at a
# member divisible by h, so their lex counters add that stopped stage's work
# to the direct completion's (4, 2, 2 and 7, 4, 3 directly).
GOLDEN_SMALL = {
    ("textbook", "lex"): (
        "8184753b008788e53e71bf47432f82d1d8e59cbf038dcc12893e8d15b237add0", 5, 2, 3, 4),
    ("textbook", "grevlex"): (
        "fd09c32d46c5899520267971d959672b7d62c58d6d160978171d4a50c801a7a9", 2, 1, 1, 3),
    ("textbook", "block"): (
        "8184753b008788e53e71bf47432f82d1d8e59cbf038dcc12893e8d15b237add0", 4, 2, 2, 4),
    ("clo", "lex"): (
        "dd8a6d9eae4cddc4f1d00aa3003120d7e5c9166aebfd4878ff37611fd924cab7", 8, 4, 4, 5),
    ("clo", "grevlex"): (
        "13aecab0a5608f5be93892d00bf547cb35debf8643fa0a628dbdc69f213fc0f7", 7, 4, 3, 5),
    ("case4", "grevlex"): (
        "e2346c20e11e1e4b913c3f5ee45e16a7357a61ec6fe341fb2ac0d732b7a5b7c0", 9, 6, 4, 6),
    # homogeneous, so h is absent and its path never stops: its counters
    # sum a grevlex stage and a lex stage started from the reduced grevlex
    # basis (219, 198, 21, 23 directly)
    ("parabola-symbolic", "lex"): (
        "4815cb8d5c2df500c508d53fc0e5ba7c8c920512c94acae91d72d56ec464a424", 83, 63, 24, 14),
}

GOLDEN_BLOCK_CASES = {
    1: ("b457f392b1efb0aac97cd87d68eb770d9ecce56a96544605b7c273dadd9a99c9", 43, 34, 9, 12),
    2: ("d0857b5a330f1cf038192e76123968044bc6c4bc24b421036ed7c85705a39d75", 31, 24, 7, 10),
    3: ("9b67f2d30dea1f9791666a665426994cef1699a1dd0af7624ccedb9b8fe214b3", 43, 34, 9, 12),
    4: ("bd1dfbf6b9186a571418ec4be3363c590a76c70a731141a3cc4726b468254f57", 59, 49, 11, 13),
    5: ("fa0a85e66271215eb85b64b4a823363dc81e32413a5d49cf0fe067a9b220f5bd", 49, 40, 10, 12),
    6: ("4c21cf42b0be31f87816cbe2fe69adbb4e609a95284630634f0e4a8affa52e3a", 59, 49, 11, 13),
    7: ("c8610a6e6db3addbcee289c0c25e0b98f1a424053aefa2d3d6c04a0cd75c5ab6", 40, 32, 9, 11),
    8: ("1f52aaab6dc0ad2d3f4194d079f636c0ac721b7052d5755bffa9655b015ec767", 49, 40, 10, 12),
    9: ("bc8c3a70e3f6a5cf97d751003b7239c93b4de7f7ed0ebdd60ff27bb09b4c419e", 59, 49, 11, 13),
}

# the two lex runs of the elimination singular-point route on case 5
# (ellipse a=3, b=3/2, r=3/4): keep x (ring y>x), then keep y (ring x>y);
# both stop their grevlex stage over ring + h, whose work the counters add
# (166, 147, 19 and 267, 243, 24 directly)
GOLDEN_UNIVARIATE = [
    ("82473089ef5840cad07868686e16c8bfc88cf6c76025a22e924e0464cb4e241f", 168, 147, 21, 19),
    ("fb8da81c41343f336557a038f874fd9f421c318945c85751a737af401a961c9f", 269, 243, 26, 24),
]


# the lex families of the perfbench symbolic workload with parameters fixed,
# at seed 7's round-0 draws: r fixed, then r and b fixed (max_degree=60);
# recorded with the divisor-cache engine that preceded the order-prefix lookup.
# The r-fixed ideals homogenize to saturated ideals, so their counters sum a
# grevlex stage and a lex stage over ring + h (2000, 1936, 64, 65 directly);
# the r-and-b ones stop that grevlex stage and complete directly, and their
# counters add the stopped stage's work (453, 422, 32 directly).
GOLDEN_SYMBOLIC = {
    ("ellipse", (("r", F(9, 2)),)): (
        "b6e61ae6bce17c7fb4ea75a87e322cae5f7a1ebe95dff5a67cefbd487786cf95", 959, 905, 57, 45),
    ("hyperbola", (("r", F(3)),)): (
        "ca89f934068212cf30f95bbfe04d2e3bef1b5c30bc2afa2c15a6ae79b698b9ee", 959, 905, 57, 45),
    ("ellipse", (("r", F(1, 2)), ("b", F(6)))): (
        "7882433c3669c0d4c679b0f63a95eeccbbbf39e57053f5a6fa8f5ad46df92767", 454, 422, 33, 32),
    ("hyperbola", (("r", F(8, 3)), ("b", F(7, 4)))): (
        "c108af5d63876018605783e397409af5295008c933c4306ef323fa5e1974403c", 454, 422, 33, 32),
}


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


@pytest.mark.parametrize("kind,fixed", sorted(GOLDEN_SYMBOLIC))
def test_golden_symbolic_lex_families(kind, fixed):
    ideal = build_ideal(kind)
    gens = [substitute(g, dict(fixed)) for g in ideal.generators]
    ring = gens[0].ring
    gb = reduce_basis(buchberger(Ideal(ring, gens), lex(ring), max_degree=60))
    assert _fingerprint(gb) == GOLDEN_SYMBOLIC[(kind, fixed)]


def _ascending(p, pos):
    """The coefficients of p, univariate in the variable at ``pos``, as an
    ascending list."""
    cs = [F(0)] * (p.degree() + 1)
    for m, c in p.terms.items():
        assert sum(m) == m[pos]
        cs[m[pos]] = c
    return cs


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
    return gb, _ascending(kept[0], 1)


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
    eliminants = conics._singular_eliminants(system)
    assert eliminants == [cs for _, cs in runs]
    assert all(type(c) is int for cs in eliminants for c in cs)


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


@pytest.mark.parametrize("seed", [3, 5, 17])
def test_locus_completes_the_euler_reduced_system(seed, monkeypatch):
    # singular_locus completes <h, grad g> with h = d g - x g_x - y g_y, of
    # degree below g's d: the ideal <g, grad g>, so the same eliminants and
    # the same errors as the system of g itself
    complete = conics._singular_eliminants
    seen = []
    monkeypatch.setattr(conics, "_singular_eliminants",
                        lambda system: seen.append(system) or complete(system))
    for conic, r in _eliminant_cases(seed):
        g = offset_poly_closed_form(conic, r).g
        gx, gy = gradient(g, ["x", "y"])
        partials = tuple(q for q in (gx, gy) if not q.is_zero())
        h = g.degree() * g - X * gx - Y * gy
        _outcome(lambda: conics.singular_locus(g))
        assert seen.pop() == (h, *partials)
        assert h.degree() < g.degree()
        assert _outcome(lambda: complete((h, *partials))) == \
            _outcome(lambda: complete((g, *partials))), (conic.describe(), r)


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
    assert my == _ascending(uy, 1)
    assert mx == _ascending(ux, 1)
    assert all(type(c) is int for c in mx + my)


def test_minimal_polynomials_edge_cases():
    gb = reduce_basis(buchberger(Ideal(R2, (X - 2, X - 3)), grevlex(R2)))
    assert minimal_polynomials(gb, ["y"]) == [[1]]
    gb = reduce_basis(buchberger(Ideal(R2, (X ** 2 - 2, Y - X)), grevlex(R2)))
    assert minimal_polynomials(gb, ["y"]) == [_ascending(Y ** 2 - 2, 1)] == [[-2, 0, 1]]
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
    want = minimal_polynomials(reduced, R2)
    assert all(type(c) is int for cs in want for c in cs)
    plain, scaled = _hand_built(gb)
    for basis in (gb, plain, scaled, reduce_basis(plain), reduce_basis(scaled),
                  GroebnerBasis(gb.order, reduced.polys)):
        got = minimal_polynomials(basis, R2)
        assert got == want
        assert all(type(c) is int for cs in got for c in cs)


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
    # num/den times the Fraction remainder of poly.reduce, term for term
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
    for p in inputs:
        want, _ = reduce(p, list(gb.polys), order)
        terms = {packing.pack(m): int(c) for m, c in p.terms.items()}
        rem, num, den = _normal_form_int(terms, entries, packing.guard)
        assert num > 0 and den > 0
        assert math.gcd(*rem.values()) in (0, 1)
        assert packing.to_poly(ring, rem) == F(num, den) * want


def test_normal_form_takes_the_first_divisor_in_basis_order():
    # both leading monomials divide xy; the smaller one, y, is not taken
    # first unless it comes first in the basis
    pk = _Packing(lex(R2), 40)
    x, y = pk.units
    a = _make_entry({x + y: 1, 0: 1})  # xy + 1
    b = _make_entry({y: 1, 0: -2})  # y - 2
    assert _normal_form_int({x + y: 1}, [a, b], pk.guard) == ({0: -1}, 1, 1)
    assert _normal_form_int({x + y: 1}, [b, a], pk.guard) == ({x: 1}, 1, 2)


@pytest.mark.parametrize("kind", ["lex", "grevlex", "block"])
def test_degree_cap_boundary(kind):
    # S(x^2, f) reduces by f = x y^(d-2) + y^(d-1) to -y^d, a new member of
    # total degree d: kept under max_degree d, refused under d - 1
    d = 12
    order = _orders(R2)[kind]
    gens = (X ** 2, X * Y ** (d - 2) + Y ** (d - 1))
    gb = buchberger(Ideal(R2, gens), order, max_degree=d)
    assert max(p.degree() for p in gb.polys) == d
    # the generators are homogeneous, so lex adds a stage started from the
    # reduced grevlex basis, whose two reductions come to zero
    assert gb.stats["reductions"] == (3 if kind == "lex" else 1)
    with pytest.raises(ResourceLimitError, match=rf"cap exceeded \({d} > {d - 1}\)"):
        buchberger(Ideal(R2, gens), order, max_degree=d - 1)
    # generators are exempt, taken as they are or reduced; lex homogenizes
    # these, and its lex stage starts from the reduced grevlex basis
    # {x, y^30}, whose members are exempt as well
    gb = buchberger(Ideal(R2, (X, X + Y ** 50, X ** 30 + Y ** 30)), order, max_degree=d)
    assert max(p.degree() for p in gb.polys) == (30 if kind == "lex" else 50)


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


# ---------------------------------------------------------------------------
# signature-based completion
# ---------------------------------------------------------------------------

def test_reduce_basis_never_converts_the_unreduced_members(monkeypatch):
    ideal = _small_ideal("case4")
    order = grevlex(ideal.ring)
    packing, entries = buchberger(ideal, order)._packed
    eager = tuple(packing.to_poly(ideal.ring, e[2]) for e in entries)
    built = []
    to_poly = _Packing.to_poly
    monkeypatch.setattr(_Packing, "to_poly", lambda self, ring, terms:
                        built.append(1) or to_poly(self, ring, terms))
    gb = buchberger(ideal, order)
    reduced = reduce_basis(gb)
    assert built == []
    # polys are built on first read, once, and equal the eager conversion
    assert len(reduced.polys) == len(built) == reduced.stats["reduced_size"]
    assert gb.polys == eager and gb.polys is gb.polys
    assert len(built) == len(reduced.polys) + len(eager)
    assert gb == buchberger(ideal, order)


def test_dense_singular_system_keeps_coefficients_small():
    # g is the product of two random quartics; on <g, g_x, g_y> the unreduced
    # members of the classic pair loop reached 75,526-bit coefficients.  The
    # reduced basis hash was recorded with that loop.
    rng = random.Random(1)

    def quartic():
        return MultiPoly(R2, {(i, j): F(rng.randint(-9, 9))
                              for i in range(5) for j in range(5 - i)})

    g = quartic() * quartic()
    gb = buchberger(Ideal(R2, (g, *gradient(g, ["x", "y"]))), grevlex(R2))
    assert gb.stats["coeff_bits_max"] <= 1000
    assert _fingerprint(reduce_basis(gb))[0] == \
        "0e6235942ebc4823f32fbda8a594ecfe7971898a626c40718f475059f42cc04a"


def test_ellipse_with_fixed_a_and_symbolic_b_and_r():
    # the lex family that perfbench/workloads.py leaves out because the
    # classic pair loop did not finish it.  Its basis hash was recorded with
    # the signature-based loop.
    ideal = build_ideal("ellipse")
    gens = [substitute(g, {"a": F(5, 2)}) for g in ideal.generators]
    ring = gens[0].ring
    gb = reduce_basis(buchberger(Ideal(ring, gens), lex(ring), max_degree=60))
    assert len(gb.polys) == 22
    assert _fingerprint(gb)[0] == \
        "f3b916b076230d286cc25530fb7c8e0966b0e306c5089c4ca78bb211777235c1"
    # the generators reduce to zero through the unbounded integer normal form
    packing, entries = gb._packed
    for gen in gens:
        den = math.lcm(*(c.denominator for c in gen.terms.values()))
        terms = {packing.pack(m): int(c * den) for m, c in gen.terms.items()}
        assert _normal_form_int(terms, entries, packing.guard)[0] == {}
    # the closed-form fixture at a = 5/2, times a^2 b^2, lies in the ideal
    fixture = substitute(general_offset_poly("ellipse"), {"a": F(5, 2)})
    lifted = MultiPoly(ring, {tuple(m[fixture.ring.index(v)] if v in fixture.ring
                                    else 0 for v in ring): c * F(25, 4)
                              for m, c in fixture.terms.items()})
    lifted = lifted * MultiPoly.variable(ring, "b") ** 2
    assert reduce(lifted, list(gb.polys), gb.order)[0].is_zero()


def _oracle_cases():
    """Small random ideals in 2 and 3 variables under lex, grevlex and a block
    order, each made non-regular one of three ways."""
    for nv, kind, extra, k in itertools.product((2, 3), ("lex", "grevlex", "block"),
                                                ("more", "dup", "member"), range(2)):
        rng = random.Random(f"{nv}:{kind}:{extra}:{k}")
        ring = ("x", "y", "z")[:nv]

        def rand(top, count):
            while True:
                p = MultiPoly(ring, {tuple(rng.randint(0, top) for _ in ring):
                                     F(rng.randint(-5, 5), rng.randint(1, 3))
                                     for _ in range(count)})
                if not p.is_zero():
                    return p

        top, most = (3, 4) if nv == 2 else (2, 3)
        gens = [rand(top, rng.randint(2, most)) for _ in range(nv)]
        if extra == "more":  # more generators than variables
            gens.append(rand(top, 3))
        elif extra == "dup":  # a duplicate generator
            gens.append(gens[rng.randrange(nv)])
        else:  # a generator already in the ideal
            gens.append(rand(1, 2) * gens[0] + gens[1])
        rng.shuffle(gens)
        order = (block(ring, 1) if kind == "block"
                 else {"lex": lex, "grevlex": grevlex}[kind](ring))
        yield ring, gens, kind, order


def test_completion_matches_sympy_on_non_regular_ideals():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder
    zero_reductions = 0
    for ring, gens, kind, order in _oracle_cases():
        gb = buchberger(Ideal(ring, tuple(gens)), order)
        zero_reductions += gb.stats["zero_reductions"]
        # the unreduced output passes Buchberger's criterion over Fractions
        for p, q in itertools.combinations(gb.polys, 2):
            s = s_polynomial(p, q, order)
            assert s.is_zero() or reduce(s, list(gb.polys), order)[0].is_zero()
        for g in gens:
            assert reduce(g, list(gb.polys), order)[0].is_zero()
        # and its reduced basis is sympy's
        sorder = kind if kind != "block" else ProductOrder(
            (sympy.polys.orderings.grevlex, lambda m: m[:1]),
            (sympy.polys.orderings.grevlex, lambda m: m[1:]))
        assert {content_normalize(p) for p in reduce_basis(gb).polys} == \
            _sympy_reduced(sympy, ring, gens, sorder), (kind, gens)
    # the non-regular inputs do run the zero-reduction -> syzygy path
    assert zero_reductions >= 20


def _sympy_reduced(sympy, ring, gens, sorder, method="buchberger"):
    """sympy's reduced basis of gens under sorder, content-normalized."""
    syms = sympy.symbols(ring)
    theirs = sympy.groebner(
        [sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                               for m, c in g.terms.items()}, *syms) for g in gens],
        *syms, order=sorder, method=method)
    return {content_normalize(MultiPoly(ring, {
        m: F(int(c.p), int(c.q)) for m, c in sympy.Poly(p, *syms).terms()}))
        for p in theirs.exprs}


# ---------------------------------------------------------------------------
# homogeneous lex: a grevlex stage, then lex from its reduced basis
# ---------------------------------------------------------------------------

def _random_homogeneous_ideals(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        ring = ("w", "x", "y", "z")[:rng.choice((3, 4))]
        gens = []
        for _ in range(rng.randint(2, len(ring))):
            degree, terms = rng.randint(1, 3), {}
            for _ in range(rng.randint(2, 4)):
                exps = [0] * len(ring)
                for _ in range(degree):
                    exps[rng.randrange(len(ring))] += 1
                terms[tuple(exps)] = F(rng.choice((-1, 1)) * rng.randint(1, 9),
                                       rng.randint(1, 4))
            gens.append(MultiPoly(ring, terms))
        yield ring, gens


def test_homogeneous_lex_matches_sympy():
    # sympy's default Buchberger takes 12 s on one of these ideals, f5b 1.4 s
    sympy = pytest.importorskip("sympy")
    for ring, gens in _random_homogeneous_ideals(44, 30):
        gb = reduce_basis(buchberger(Ideal(ring, tuple(gens)), lex(ring)))
        assert {content_normalize(p) for p in gb.polys} == \
            _sympy_reduced(sympy, ring, gens, "lex", "f5b"), gens


def _random_inhomogeneous_ideals(seed, count):
    """Seeded inhomogeneous ideals of two kinds, alternating.  Odd ones are
    random homogeneous ideals in ring + h with h set to 1, where the h-free
    part of generator i is x_i^d plus terms in the variables after x_i: those
    parts make a regular sequence, so homogenizing gives the ideal back
    saturated in h.  Even ones have random sparse generators, whose grevlex
    stage over ring + h mostly meets a member divisible by h."""
    rng = random.Random(seed)

    def coeff():
        return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    for k in range(count):
        ring = ("w", "x", "y", "z")[:rng.choice((3, 4))]
        gens = []
        if k % 2:
            n = len(ring) - 1  # the last variable is h
            for i in sorted(rng.sample(range(n), rng.randint(2, n))):
                degree, later = rng.randint(1, 3), range(i + 1, n)
                terms = {}
                for _ in range(rng.randint(2, 4)):
                    exps = [0] * len(ring)
                    if later and rng.random() < 0.5:
                        pool = later  # h-free, in the variables after x_i
                    else:
                        exps[-1], pool = 1, range(len(ring))  # h times any term
                    for _ in range(degree - exps[-1]):
                        exps[rng.choice(pool)] += 1
                    terms[tuple(exps)] = coeff()
                terms[tuple(degree if j == i else 0 for j in range(len(ring)))] = coeff()
                gens.append(substitute(MultiPoly(ring, terms), {ring[-1]: 1}))
        else:
            ring = ring[:-1]
            for _ in range(rng.randint(2, len(ring))):
                gens.append(MultiPoly(ring, {tuple(rng.randint(0, 2) for _ in ring):
                                             coeff() for _ in range(rng.randint(2, 4))}))
        yield gens[0].ring, gens


def test_inhomogeneous_lex_matches_sympy(monkeypatch):
    from conicoffset import groebner
    sympy = pytest.importorskip("sympy")
    complete = groebner._complete
    runs = []

    def recording(packing, gens, *rest):
        basis = complete(packing, gens, *rest)
        runs.append((len(packing.units), basis is None))
        return basis

    monkeypatch.setattr(groebner, "_complete", recording)
    through_h = stopped = 0
    for ring, gens in _random_inhomogeneous_ideals(45, 30):
        runs.clear()
        gb = reduce_basis(buchberger(Ideal(ring, tuple(gens)), lex(ring)))
        assert {content_normalize(p) for p in gb.polys} == \
            _sympy_reduced(sympy, ring, gens, "lex", "f5b"), gens
        h = len(ring) + 1
        through_h += runs == [(h, False), (h, False)]
        stopped += runs == [(h, True), (h - 1, False)]
    # both sides of the saturation test are covered
    assert through_h >= 5 and stopped >= 5


def test_which_lex_calls_run_a_grevlex_stage(monkeypatch):
    from conicoffset import groebner
    runs = []
    stopped = []
    complete = groebner._complete

    def recording(packing, gens, *rest):
        runs.append((packing, gens))
        basis = complete(packing, gens, *rest)
        stopped.append(basis is None)
        return basis

    monkeypatch.setattr(groebner, "_complete", recording)
    ideal = build_ideal("parabola")
    ring = ideal.ring
    for order in (grevlex(ring), block(ring, 2)):
        buchberger(ideal, order)
        assert len(runs) == 1
        runs.clear()
    stopped.clear()
    # an inhomogeneous ideal whose homogenization is saturated runs a grevlex
    # stage and a lex stage, both over ring + h
    inhomogeneous = Ideal(ring, (ideal.generators[0] + 1, *ideal.generators[1:]))
    buchberger(inhomogeneous, lex(ring))
    assert [p.units for p, _ in runs] == [_Packing(grevlex((*ring, "h")), 40).units,
                                          _Packing(lex(ring), 40, h=True).units]
    assert stopped == [False, False]
    runs.clear()
    stopped.clear()
    # the textbook ideal's grevlex stage meets a member divisible by h: it
    # stops there, and one direct completion of the generators follows
    textbook = _small_ideal("textbook")
    buchberger(textbook, lex(R2))
    (first, _), (direct, gens) = runs
    assert first.units == _Packing(grevlex((*R2, "h")), 40).units
    assert direct.units == _Packing(lex(R2), 40).units
    assert [direct.to_poly(R2, e[2]) for e in gens] == list(textbook.generators)
    assert stopped == [True, False]
    runs.clear()
    stopped.clear()
    # a homogeneous ideal takes the same path over ring + h, with h absent,
    # so its grevlex stage never stops
    buchberger(ideal, lex(ring))
    (first, _), (second, gens) = runs
    assert first.units == _Packing(grevlex((*ring, "h")), 40).units
    assert second.units == _Packing(lex(ring), 40, h=True).units
    assert stopped == [False, False]
    # the lex stage starts from the reduced grevlex basis, lowest lm first,
    # each member signed for a positive lex leading coefficient
    want = reduce_basis(buchberger(ideal, grevlex(ring))).polys[::-1]
    slot = second.width + 1
    got = [_Packing(lex(ring), 40).to_poly(ring, {m >> slot: c for m, c in e[2].items()})
           for e in gens]
    assert not any(m & second.mask for e in gens for m in e[2])
    assert len(got) == len(want)
    assert all(p in (q, -q) for p, q in zip(got, want))


def test_homogeneous_lex_budgets_span_both_stages():
    ideal = build_ideal("parabola")
    order = lex(ideal.ring)
    first = buchberger(ideal, grevlex(ideal.ring)).stats
    both = buchberger(ideal, order).stats
    assert both["pairs_considered"] > first["pairs_considered"]
    # a pair budget the grevlex stage runs out of: that stage's partial stats
    n = first["pairs_considered"]
    with pytest.raises(ResourceLimitError,
                       match=rf"^pair budget exceeded \({n - 1}\)$") as exc:
        buchberger(ideal, order, max_pairs=n - 1)
    partial = exc.value.stats
    assert partial["pairs_considered"] == n
    assert partial["reductions"] == first["reductions"]
    assert partial["basis_size"] == first["basis_size"]
    assert "coeff_bits_max" not in partial
    # enough for the grevlex stage only: the lex stage stops at its first
    # pair, with the grevlex stage's counters added in
    with pytest.raises(ResourceLimitError) as exc:
        buchberger(ideal, order, max_pairs=n)
    partial = exc.value.stats
    assert partial["pairs_considered"] == n + 1
    assert partial["reductions"] > first["reductions"]
    # the budget counts the pairs of both stages
    with pytest.raises(ResourceLimitError):
        buchberger(ideal, order, max_pairs=both["pairs_considered"] - 1)
    assert buchberger(ideal, order, max_pairs=both["pairs_considered"]).stats == both
    # a degree cap the lex stage passes hands the call to the direct
    # completion, which meets it too; the grevlex members are of degree 4, so
    # the cap was not hit there
    with pytest.raises(ResourceLimitError) as exc:
        buchberger(ideal, order, max_degree=6)
    assert str(exc.value) == "degree cap exceeded (7 > 6)"
    assert exc.value.stats["pairs_considered"] > n


def _ellipse_with_r_fixed():
    # the envelope ideal of the ellipse with r = 9/2, as CI's timed groebner
    # step writes it: inhomogeneous, and saturated once homogenized
    gens = [substitute(g, {"r": F(9, 2)}) for g in build_ideal("ellipse").generators]
    return Ideal(gens[0].ring, tuple(gens))


def test_one_pair_budget_bounds_the_whole_lex_call(monkeypatch):
    from conicoffset import groebner
    complete = groebner._complete
    added = []  # what each completion run adds to pairs_considered

    def counting(packing, gens, stats, *rest):
        before = stats["pairs_considered"]
        try:
            return complete(packing, gens, stats, *rest)
        finally:
            added.append(stats["pairs_considered"] - before)

    monkeypatch.setattr(groebner, "_complete", counting)
    ideal = _ellipse_with_r_fixed()
    # the budget runs out on the homogenized path and is raised there, with
    # no direct completion after it
    with pytest.raises(ResourceLimitError,
                       match=r"^pair budget exceeded \(900\)$") as exc:
        buchberger(ideal, lex(ideal.ring), max_pairs=900)
    assert exc.value.stats["pairs_considered"] == 901
    assert sum(added) <= 901
    gb = reduce_basis(buchberger(ideal, lex(ideal.ring), max_pairs=1500))
    assert _fingerprint(gb)[0] == GOLDEN_SYMBOLIC[("ellipse", (("r", F(9, 2)),))][0]
    # a stopped call counts its stopped stage and its direct completion
    added.clear()
    stats = buchberger(_small_ideal("textbook"), lex(R2)).stats
    assert len(added) == 2 and stats["pairs_considered"] == sum(added)


def test_lex_budgets_return_the_basis_or_raise():
    # seeded budgets on random ideals of both kinds: each lex call returns the
    # reduced basis of the default-budget call or raises, and its counters
    # stay within its pair budget
    rng = random.Random(46)
    ideals = chain(_random_homogeneous_ideals(46, 20),
                   _random_inhomogeneous_ideals(47, 20))
    outcomes = Counter()
    for ring, gens in ideals:
        ideal, order = Ideal(ring, tuple(gens)), lex(ring)
        full = buchberger(ideal, order)
        want = reduce_basis(full).polys
        pairs = full.stats["pairs_considered"]
        degree = max(p.degree() for p in full.polys)
        for _ in range(8):
            max_pairs, max_degree = rng.randint(0, pairs + 2), rng.randint(0, degree + 2)
            try:
                gb = buchberger(ideal, order, max_pairs=max_pairs, max_degree=max_degree)
            except ResourceLimitError as exc:
                spent = exc.stats["pairs_considered"]
                if str(exc).startswith("pair budget"):
                    assert spent == max_pairs + 1
                    outcomes["pair budget"] += 1
                else:
                    assert spent <= max_pairs
                    outcomes["other limit"] += 1
                continue
            assert gb.stats["pairs_considered"] <= max_pairs
            assert reduce_basis(gb).polys == want, (gens, max_pairs, max_degree)
            outcomes["returned"] += 1
    assert sum(outcomes.values()) == 320
    assert min(outcomes.values()) >= 30, outcomes


# ---------------------------------------------------------------------------
# normal-form drain and the one-field degree read
# ---------------------------------------------------------------------------

def _normal_form_before_drain(terms, basis, guard, bound=None, sigs=()):
    # _normal_form_int as it was before it drained the terms below every
    # leading monomial: each popped term is tested for a divisor
    work = dict(terms)
    done: dict = {}
    by_lm = sorted((e[0], j) for j, e in enumerate(basis))
    sorted_lms = [lm for lm, _ in by_lm]
    heap = [-m for m in work]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    scalings = 0
    num = den = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if c == 0:
            continue
        mg = m | guard
        hits = [j for lm, j in islice(by_lm, bisect_right(sorted_lms, m))
                if (mg - lm) & guard == guard]
        for j in sorted(hits):
            if bound is None or (sigs[j][0] + m - basis[j][0], sigs[j][1]) < bound:
                break
        else:
            done[m] = c
            continue
        lm, lc, _, tail = basis[j]
        q = m - lm
        g = gcd(c, lc) if c > 0 else gcd(-c, lc)
        scale, factor = lc // g, c // g
        if scale != 1:
            for k in work:
                work[k] *= scale
            for k in done:
                done[k] *= scale
            num *= scale
            scalings += 1
        for bm, bc in tail:
            t = q + bm
            v = work.get(t)
            if v is None:
                if t & guard:
                    raise ResourceLimitError("overflow")
                heappush(heap, -t)
                work[t] = -factor * bc
            else:
                v -= factor * bc
                if v:
                    work[t] = v
                else:
                    del work[t]
        if scalings >= 24:
            g = _content(chain(done.values(), work.values()))
            if g > 1:
                for k in work:
                    work[k] //= g
                for k in done:
                    done[k] //= g
                den *= g
            scalings = 0
    g = _content(done.values())
    if g > 1:
        return {m: c // g for m, c in done.items()}, num, den * g
    return done, num, den


R3 = ("x", "y", "z")
DRAIN_ORDERS = [lex(R3), grevlex(R3), block(R3, 1)]


def _random_terms(rng, pk, top, count):
    # primitive integer terms of a random polynomial, packed
    while True:
        terms = {pk.pack(tuple(rng.randint(0, top) for _ in R3)): rng.randint(-9, 9)
                 for _ in range(count)}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            g = math.gcd(*terms.values())
            return {m: c // g for m, c in terms.items()}


def _drain_cases(order, seed):
    # (terms, basis) pairs: random bases of 1-4 members, and inputs that mix
    # random terms with multiples of the members, leading monomials included
    pk = _Packing(order, 40)
    rng = random.Random(f"drain:{order.kind}:{seed}")
    for _ in range(40):
        basis = [_make_entry(_random_terms(rng, pk, 2, rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))]
        terms = _random_terms(rng, pk, 3, rng.randint(1, 6))
        for e in rng.sample(basis, rng.randint(0, len(basis))):
            u = pk.pack(tuple(rng.randint(0, 1) for _ in R3))
            k = rng.randint(-3, 3)
            for m, c in e[2].items():
                terms[m + u] = terms.get(m + u, 0) + k * c
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            yield pk, terms, basis


@pytest.mark.parametrize("order", DRAIN_ORDERS, ids=lambda o: o.kind)
def test_drained_normal_form_matches_the_undrained_one(order):
    drained = irregular = regular = 0
    for pk, terms, basis in _drain_cases(order, 1):
        lowest = min(e[0] for e in basis)
        drained += any(m < lowest for m in terms)
        want = _normal_form_before_drain(terms, basis, pk.guard)
        got = _normal_form_int(terms, basis, pk.guard)
        assert got == want and list(got[0]) == list(want[0])
        # a signature bound under which some reducers are irregular
        rng = random.Random(len(terms) + 10 * len(basis))
        sigs = [(pk.pack(tuple(rng.randint(0, 2) for _ in R3)), rng.randint(0, 2))
                for _ in basis]
        bound = (pk.pack(tuple(rng.randint(0, 3) for _ in R3)), 1)
        want_b = _normal_form_before_drain(terms, basis, pk.guard, bound, sigs)
        got_b = _normal_form_int(terms, basis, pk.guard, bound, sigs)
        assert got_b == want_b and list(got_b[0]) == list(want_b[0])
        irregular += got_b != got  # the bound refused some reducer
        regular += got_b[0] != terms  # and allowed another
        # an empty basis leaves the primitive terms as they are, in order
        assert _normal_form_int(terms, [], pk.guard) == (
            dict(sorted(terms.items(), reverse=True)), 1, 1)
        assert list(_normal_form_int(terms, [], pk.guard)[0]) == \
            sorted(terms, reverse=True)
    assert drained > 10 and irregular > 5 and regular > 5


@pytest.mark.parametrize("order", DRAIN_ORDERS, ids=lambda o: o.kind)
def test_term_at_the_lowest_leading_monomial_is_reduced(order):
    # the drain starts strictly below the lowest leading monomial: the
    # member with that leading monomial divides a term equal to it
    pk = _Packing(order, 40)
    x, y, z = pk.units
    basis = [_make_entry({x + y: 1, 0: 1}), _make_entry({z: 1, 0: -2})]
    assert min(e[0] for e in basis) == z
    assert _normal_form_int({z: 1}, basis, pk.guard) == ({0: 1}, 1, 2)
    rem, num, den = _normal_form_int({x + y + z: 3, z: 1, 0: 5}, basis, pk.guard)
    assert (rem, num, den) == ({0: 1}, 1, 1)


@pytest.mark.parametrize("order", PACK_ORDERS, ids=lambda o: o.kind)
def test_top_degree_reads_the_degree_field(order):
    pk = _Packing(order, 40)
    mons = [pk.pack(u) for u in _random_monomials(16)]
    rng = random.Random(17)
    lead_is_not_highest = 0
    for _ in range(200):
        terms = rng.sample(mons, rng.randint(1, 8))
        assert pk.top_degree(terms) == max(map(pk.degree, terms))
        lead_is_not_highest += pk.degree(max(terms)) < pk.top_degree(terms)
    if order.kind == "lex":
        # v + w^5: the leading term has degree 1, the remainder degree 5
        v, w = pk.units[:2]
        assert pk.top_degree({v: 1, 5 * w: 1}) == 5
        assert lead_is_not_highest > 20
    elif order.kind == "grevlex":
        assert lead_is_not_highest == 0

"""Buchberger's algorithm with basis reduction and elimination-ideal extraction.

The public surface works with :class:`~conicoffset.poly.MultiPoly`.  Inside
``buchberger`` and ``reduce_basis`` every monomial is one Python int, the
packed exponent vector of Monagan & Pearce ("Sparse polynomial division using
a heap", JSC 2011), and a polynomial is a ``{packed-monomial: int}`` dict kept
primitive (coprime integer coefficients, positive leading coefficient), so the
completion runs on exact integer pseudo-reduction with no rational arithmetic
in the hot loop.

Packed layout (see :class:`_Packing`).  Each exponent gets a raw field of
``width`` bits plus one guard bit above it; the first variable is most
significant.  Grevlex puts its order-key fields above the raw fields, most
significant first: the prefix sums S_n, ..., S_1 (S_k = e_1 + ... + e_k); the
block order has one such set per block.  Lex has one key field, the total
degree, below the raw fields, where it never decides a comparison (equal raw
fields mean equal monomials) and makes the degree one shift and mask.  Every
field is linear in the exponents, so comparing two packed ints compares the
monomials in the order, a product is ``a + b``, a quotient is ``m - lm``, and
``lm | m`` is ``((m | G) - lm) & G == G`` with G the raw guard bits; a borrow
out of the lex degree field (deg lm > deg m) can clear a guard bit only where
lm does not divide m anyway.  ``width`` is 16 bits, or more when twice the
bound needs them: ``max_degree`` in ``buchberger``, the largest input exponent
when a basis is packed afresh.  A packed form handed on is reused only where
it is no narrower than that.  Lex elimination can form exponents above
``max_degree`` before the degree cap sees a remainder, hence the headroom.  An
exponent that does not fit (in a generator, or in any product formed during
completion or reduction) sets a guard bit and raises ResourceLimitError with
the partial statistics; it never wraps.

Completion is signature-based, in the SB/GVW form (Roune & Stillman, ISSAC
2012; Eder & Faugere, JSC 2017).  Each member carries a signature u*e_i: it
is u times generator i plus multiples of the other generators below that
signature.  Signatures are compared in the Schreyer order, u*LM(f_i) first
and the generator index i second, so a signature is kept as the pair
(packed u*LM(f_i), i), its Schreyer key; on one index, divisibility and
quotients of signatures are those of their keys.  One min-heap yields every
signature once, in increasing order: each generator's e_i, and the signature
of each S-pair whose two sides differ.  For a signature T the element reduced
is u*g, where g is the member with sig(g) | T whose u*LM(g) is smallest (the
newest on ties).  T is skipped when a known syzygy signature divides it (the
Koszul syzygy of every member pair, and T of every zero reduction), or when
no member reduces the leading term of u*g regularly, that is as v*h with
v*sig(h) below T; u*g then restates g.  Otherwise every term of u*g is
reduced, each only by a member whose multiplied signature is below T; a
nonzero remainder joins the basis with signature T, and a zero one is a new
syzygy signature.  A generator whose leading term no member reduces
regularly joins as it is.  A coprime pair's signature is its Koszul
syzygy's, so it is never queued, and no other pair criterion is needed.
Every choice above is fixed, so runs are deterministic.

A normal form finds a term's reducers by the order: lm | m implies lm <= m in
every monomial order (Cox, Little & O'Shea, ch. 2), and packed ints compare
like their monomials, so with the leading monomials sorted once per call, only
those up to ``bisect_right`` of m are tested for divisibility.  That prefix is
short, since most leading monomials of a basis lie above the terms it reduces.
Among the divisors found, the reducer is chosen in basis order.  Terms are
popped in descending order, so once one lies below the lowest leading
monomial, no member divides it or any term still to come, and no later step
scales them: it and the rest are moved to the remainder at once, in
descending order, as the pops would have put them.  Completion's test for a
regular reducer of a leading term scans the same prefix, of a list kept
sorted as members join.  Its degree cap reads a new member's degree from the
packing's one degree field where the order has one (see ``_Packing``).

The basis stays packed from completion through reduction.  ``buchberger``
and ``reduce_basis`` leave their packed entries on the ``GroebnerBasis`` they
return (a private field that ``dataclasses.replace`` and hand-built bases do
not carry), and ``reduce_basis`` and ``minimal_polynomials`` start from them,
so no ``Fraction`` round trip sits between the stages.  A basis without them
is packed from its polys.  The ``MultiPoly`` outputs are built from the
entries on the first read of ``polys``, through a constructor that skips
re-validation, so the unreduced members that ``reduce_basis(buchberger(...))``
drops are never converted.  A member is unpacked one exponent field at a time
over all of its monomials, and the fields are zipped into exponent tuples in
term order, with no Python call per term beyond its ``Fraction``.  The
eliminants of ``minimal_polynomials`` leave as integer coefficient lists.

A lex completion has two stages in one ``buchberger`` call, the order change
behind Traverso's Hilbert-driven Buchberger (JSC 1996) in its simplest form:
the ideal is completed and reduced under grevlex, where its basis is small,
and the lex completion starts from that reduced basis, its members repacked
for lex straight from their grevlex entries and taken lowest grevlex leading
monomial first, in place of the generators.  Both stages run on the
generators homogenized by a new last variable h (whose exponents are all 0
in a homogeneous ideal), packed straight into the packing of ring + h, and
the lex basis found there gives the ideal's with h set to 1, by dropping h's
packed field.  That pays only when the homogenized ideal is saturated in h,
which by Bayer's criterion (Bayer & Stillman, Invent. Math. 1987) holds when
no member of its reduced grevlex basis, h last, is divisible by h: the
symbolic central conics with r fixed halve, while those with r and b fixed
would double.  So the grevlex stage stops at the first member that joins
divisible by h, and such a call, like one whose path meets a limit other
than the pair budget, goes on to complete its generators directly, as every
other order does.  Stats and the pair budget run across all stages.

For a zero-dimensional ideal, ``minimal_polynomials`` gets the univariate
eliminants from a basis in any order (typically a cheap grevlex one) by
linear algebra in the quotient ring, in place of a lex completion.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import (EliminationError, OrderError, PreconditionError,
                     ResourceLimitError, RingError, ZeroPolyError)
from .poly import (MonomialOrder, MultiPoly, grevlex, lex, leading_term,
                   monomial_div, monomial_divides, monomial_lcm)

DEFAULT_MAX_PAIRS = 200_000
DEFAULT_MAX_DEGREE = 40
MIN_FIELD_BITS = 16
_OVERFLOW = "exponent overflow: an exponent does not fit its packed field"


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal: shared ring plus nonzero generators."""

    ring: tuple
    generators: tuple

    def __init__(self, ring, generators):
        ring = tuple(ring)
        gens = tuple(generators)
        if not gens:
            raise PreconditionError("ideal needs at least one generator")
        for g in gens:
            if not isinstance(g, MultiPoly) or g.ring != ring:
                raise RingError("generator ring mismatch")
            if g.is_zero():
                raise ZeroPolyError("zero polynomial among ideal generators")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    polys: tuple
    reduced: bool = False
    stats: dict = field(default_factory=dict)
    # (packing, entries) behind ``polys``, set only by the function that
    # made them; ``dataclasses.replace`` and hand-built bases start without
    _packed: tuple | None = field(default=None, init=False, compare=False,
                                  repr=False)

    @classmethod
    def _from_packed(cls, order, reduced, stats, packing, entries):
        """A basis whose ``polys`` are built from its packed entries on first
        read, so a stage that only hands the entries on never converts."""
        gb = object.__new__(cls)
        for name, value in (("order", order), ("reduced", reduced),
                            ("stats", stats), ("_packed", (packing, entries))):
            object.__setattr__(gb, name, value)
        return gb

    def __getattr__(self, name):
        # reached only when ``polys`` of a ``_from_packed`` basis is unset
        if name != "polys" or "_packed" not in self.__dict__:
            raise AttributeError(name)
        packing, entries = self._packed
        polys = tuple(packing.to_poly(self.order.variables, e[2]) for e in entries)
        object.__setattr__(self, "polys", polys)
        return polys

    def degree_multiset(self):
        return sorted((p.degree() for p in self.polys), reverse=True)


def s_polynomial(p: MultiPoly, q: MultiPoly, order: MonomialOrder) -> MultiPoly:
    """S(p,q) = (lcm/LT(p)) p - (lcm/LT(q)) q; the leading terms cancel."""
    lm_p, lc_p = leading_term(p, order)
    lm_q, lc_q = leading_term(q, order)
    lcm_m = monomial_lcm(lm_p, lm_q)
    up = MultiPoly(p.ring, {monomial_div(lcm_m, lm_p): Fraction(1) / lc_p})
    uq = MultiPoly(q.ring, {monomial_div(lcm_m, lm_q): Fraction(1) / lc_q})
    return up * p - uq * q


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

class _Packing:
    """Packed-int monomials for one order; see the module docstring.

    ``units[i]`` is the packed form of the i-th variable, so a monomial packs
    to ``sum(e_i * units[i])``.  Key fields are wide enough to hold the sum of
    two in-range monomials, so only the raw guard bits can flag an overflow.
    ``degree_fields`` are the (shift, mask) fields whose sum is the total
    degree: the one degree field for lex and grevlex, one per block for the
    block order.  With one field, ``top_degree`` of a polynomial's terms is
    that field of its largest monomial (grevlex) or one mask per term (lex),
    with no per-term Python call.

    With ``h`` (lex only) one more variable, h, is packed after the ring's:
    the ring's layout moves up by one field and h's raw field, with its guard
    bit, takes the bottom.  Packed ints still compare like lex with h last,
    the degree field holds the degree with h set to 1, and setting h to 1 is
    one right shift by a field, to the ring's own packing.
    """

    __slots__ = ("width", "mask", "guard", "units", "shifts", "degree_fields",
                 "graded")

    def __init__(self, order: MonomialOrder, bound: int, h: bool = False):
        n = len(order.variables)
        self.width = width = max(MIN_FIELD_BITS, (2 * bound).bit_length())
        self.mask = (1 << width) - 1
        slot = width + 1
        key_bits = width + 1 + n.bit_length()
        # lex's one key field, the total degree, lies below the raw fields
        low = key_bits if order.kind == "lex" else 0
        self.shifts = [low + slot * (n - 1 - i) for i in range(n)]
        self.guard = sum(1 << (s + width) for s in self.shifts)
        units = [(1 << s) + (1 if low else 0) for s in self.shifts]
        degree_fields = [(0, (1 << key_bits) - 1)] if low else []
        if order.kind == "lex":
            blocks = []
        elif order.kind == "grevlex":
            blocks = [range(n)]
        else:
            blocks = [range(order.elim_count), range(order.elim_count, n)]
        # prefix-sum fields S_len..S_1 of each block, most significant first;
        # a block's S_len field is its share of the total degree
        fields = [(blk[:k], k == len(blk)) for blk in blocks
                  for k in range(len(blk), 0, -1)]
        shift = low + slot * n
        for members, whole in reversed(fields):
            for i in members:
                units[i] += 1 << shift
            if whole:
                degree_fields.append((shift, (1 << key_bits) - 1))
            shift += key_bits
        self.units = units
        self.degree_fields = degree_fields
        self.graded = not low
        if h:
            self.shifts = [s + slot for s in self.shifts] + [0]
            self.guard = self.guard << slot | 1 << width
            self.units = [u << slot for u in units] + [1]
            self.degree_fields = [(s + slot, k) for s, k in degree_fields]

    def pack(self, exps) -> int:
        if any(e >> self.width for e in exps):
            raise ResourceLimitError(_OVERFLOW)
        return sum(e * u for e, u in zip(exps, self.units))

    def unpack(self, m: int) -> tuple:
        mask = self.mask
        return tuple((m >> s) & mask for s in self.shifts)

    def degree(self, m: int) -> int:
        """Total degree of a packed monomial."""
        d = 0
        for s, k in self.degree_fields:
            d += (m >> s) & k
        return d

    def top_degree(self, terms) -> int:
        """Largest total degree among some packed monomials.

        With one degree field it is read from that field alone: under lex it
        lies below every raw field, so one mask per term; under grevlex it is
        the most significant, so the largest monomial has the largest degree.
        The block order sums its two fields per term.
        """
        if len(self.degree_fields) > 1:
            return max(map(self.degree, terms))
        shift, k = self.degree_fields[0]
        if self.graded:
            return max(terms) >> shift & k
        return max(map((k << shift).__and__, terms)) >> shift

    def to_poly(self, ring: tuple, terms: dict) -> MultiPoly:
        """The MultiPoly of packed terms, in their order: each exponent is
        unpacked as one field over all monomials, and the fields are zipped
        into the exponent tuples."""
        mask = self.mask
        fields = [[m >> s & mask for m in terms] for s in self.shifts]
        return MultiPoly._trusted(
            ring, dict(zip(zip(*fields), map(Fraction, terms.values()))))


# ---------------------------------------------------------------------------
# integer engine
# ---------------------------------------------------------------------------
# A basis entry is the tuple (lm, lc, terms, tail): packed leading monomial,
# positive integer leading coefficient, the primitive term dict, and the
# (monomial, coefficient) items of the terms other than the leading one.

def _int_terms(packing: _Packing, p: MultiPoly, homogenize: bool = False) -> dict:
    """Primitive integer terms of p, keyed by packed monomial: p times the
    lcm of its denominators, divided by the gcd of the results.  With
    ``homogenize``, each monomial m gets one more exponent, deg p - deg m,
    that of the last variable of ``packing``'s ring."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    top = p.degree() if homogenize else None
    terms = {packing.pack(m if top is None else (*m, top - sum(m))):
             c.numerator * (den // c.denominator) for m, c in p.terms.items()}
    g = _content(terms.values())
    return {m: c // g for m, c in terms.items()} if g > 1 else terms


def _content(coeffs) -> int:
    """The gcd of some ints, stopping at the first 1; 0 when there are none."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _make_entry(terms: dict):
    lm = max(terms)
    if terms[lm] < 0:
        terms = {m: -c for m, c in terms.items()}
    return (lm, terms[lm], terms, [(m, c) for m, c in terms.items() if m != lm])


def _coeff_bits(entries) -> int:
    """Largest coefficient bit length among the entries' terms."""
    return max((max(map(int.bit_length, e[2].values())) for e in entries),
               default=0)


def _normal_form_int(terms: dict, basis: Sequence, guard: int,
                     bound: tuple | None = None, sigs: Sequence = ()) -> tuple:
    """Full normal form of an integer polynomial against basis entries.

    Returns ``(rem, num, den)``: the primitive remainder and the positive
    factor num/den by which it differs from the true normal form, so
    ``rem == num/den * NF(terms)`` exactly.  The reduction is integer
    pseudo-division: num gathers the scalings that clear a leading
    coefficient and den the contents stripped off the remainder, the only
    steps that change the factor.  The heap holds negated packed monomials,
    so it pops the order-largest live term first.

    Without ``bound`` each term is reduced by the first member, in basis
    order, whose leading monomial divides it.  With ``bound``, a signature
    ``(key, index)`` (see ``buchberger``), and ``sigs``, the members'
    signatures, a term m is reduced only regularly: by the first member j,
    in basis order, whose multiplied signature ``(m - lm_j + key_j,
    index_j)`` is below ``bound``; a term with no such member stays in the
    remainder.  Only the members whose leading monomials are at most m, a
    prefix of them sorted once by leading monomial, are tested as divisors.
    A popped term below every leading monomial (any term, for an empty
    basis) drains the loop: it and every term left go to the remainder in
    descending order, which is the order and the factor the pops would give,
    since no member divides any of them.
    """
    work = dict(terms)
    done: dict = {}
    by_lm = sorted((e[0], j) for j, e in enumerate(basis))
    sorted_lms = [lm for lm, _ in by_lm]
    lowest = sorted_lms[0] if sorted_lms else None
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
        if lowest is None or m < lowest:
            # no member divides m or any smaller term: the rest is remainder
            done[m] = c
            for k in sorted(work, reverse=True):
                done[k] = work[k]
            break
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
                    raise ResourceLimitError(_OVERFLOW)
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


def _packed_basis(gb: GroebnerBasis):
    """``(packing, entries)`` for ``gb.polys``.

    Reuses the packed form the producing function left on ``gb`` when its
    fields are no narrower than a fresh packing's would be (no exponent sets
    a field's top bit).  Otherwise, and for a basis without one, the polys
    are packed afresh, made primitive.
    """
    if gb._packed is not None:
        packing, entries = gb._packed
        top = packing.guard >> 1  # the highest raw bit of every field
        if not any(m & top for e in entries for m in e[2]):
            return packing, entries
    bound = max((e for p in gb.polys for m in p.terms for e in m), default=0)
    packing = _Packing(gb.order, bound)
    entries = [_make_entry(_int_terms(packing, p)) for p in gb.polys]
    return packing, entries


# ---------------------------------------------------------------------------
# Buchberger completion
# ---------------------------------------------------------------------------

_COUNTERS = ("pairs_considered", "pairs_skipped_criteria", "reductions",
             "zero_reductions")


def buchberger(ideal: Ideal, order: MonomialOrder,
               max_pairs: int = DEFAULT_MAX_PAIRS,
               max_degree: int = DEFAULT_MAX_DEGREE) -> GroebnerBasis:
    """Complete the ideal's generators to a (non-reduced) Groebner basis.

    Signature-based completion; see the module docstring.  Under lex the call
    first tries two stages on the generators homogenized by a new last
    variable h: the ideal is completed and reduced under grevlex, stopping
    at the first member that joins divisible by h, and the lex completion
    starts from that reduced basis, its members taken in ascending grevlex
    order of their leading monomials, in place of the generators; the lex
    basis returned is the lex stage's with h set to 1.  Such a stop, or a
    limit other than the pair budget on that path, hands the call to the
    direct completion of the generators, which goes on from the same
    counters; grevlex and the block order complete their generators
    directly.  The stats count, summed over every stage that ran:

    - ``pairs_considered``: S-pair signatures taken from the queue;
    - ``pairs_skipped_criteria``: those that led to no reduction, being the
      signature just processed, divisible by a syzygy signature, or without
      a regular reducer of their leading term;
    - ``reductions``: normal forms computed, generators' included;
    - ``zero_reductions``: those that came to zero (each a syzygy);
    - ``basis_size`` and ``coeff_bits_max``: members of the returned basis,
      and their largest coefficient in bits.

    Raises ResourceLimitError, whose stats hold the counters so far, the
    ``basis_size`` and the ``pending_pairs`` (signatures still queued) of the
    stage that stopped, when more than ``max_pairs`` S-pairs are processed
    over all its stages, a member made from an S-pair exceeds total degree
    ``max_degree``, or an exponent overflows its packed field.  Generators
    are exempt from the degree cap, and so are the grevlex stage's members
    where the lex stage starts from them.  Over ring + h the cap reads a
    grevlex member's degree with h and a lex member's degree with h set to
    1, and h's exponent has a field of its own; a cap or an overflow met
    there is not raised, since the direct completion then runs.  A budget
    that is not an int >= 0 raises PreconditionError.
    """
    if tuple(order.variables) != ideal.ring:
        raise OrderError("order variables do not match the ideal ring")
    if not all(isinstance(v, int) and v >= 0 for v in (max_pairs, max_degree)):
        raise PreconditionError("max_pairs and max_degree must be ints >= 0")
    packing = _Packing(order, max_degree)
    stats = dict.fromkeys(_COUNTERS, 0)
    basis = (_through_grevlex(ideal, stats, max_pairs, max_degree)
             if order.kind == "lex" else None)
    if basis is None:
        basis = _complete(packing, _pack_generators(packing, ideal, stats), stats,
                          max_pairs, max_degree)
    stats["basis_size"] = len(basis)
    stats["coeff_bits_max"] = _coeff_bits(basis)
    return GroebnerBasis._from_packed(order, False, stats, packing, basis)


def _through_grevlex(ideal: Ideal, stats: dict, max_pairs: int,
                     max_degree: int) -> list | None:
    """The two-stage lex completion that ``buchberger`` describes: the lex
    basis entries under the ring's lex packing, or None when its grevlex
    stage meets a member divisible by h or a limit other than the pair
    budget stops it.

    Bayer's criterion picks where homogenizing pays (see the module
    docstring); correctness does not rest on saturation: for f in the ideal,
    some h^k f^h lies in the homogenized ideal, and since h is the lowest
    lex variable, setting h to 1 merges no terms of a homogeneous member and
    keeps its leading term, so the lex basis with h set to 1 is a lex basis
    of the ideal.
    """
    ring = ideal.ring
    # a name longer than every variable's is not one of them
    hring = (*ring, "h" * (1 + max(map(len, ring))))
    first = _Packing(grevlex(hring), max_degree)
    second = _Packing(lex(ring), max_degree, h=True)
    try:
        gens = _pack_generators(first, ideal, stats, homogenize=True)
        basis = _complete(first, gens, stats, max_pairs, max_degree,
                          first.mask << first.shifts[-1])  # h's raw field
        if basis is None:
            return None
        _, reduced = _reduce_entries(basis, first.guard)
        # same field width, so every exponent repacks; ascending grevlex lm
        gens = [_make_entry({second.pack(first.unpack(m)): c
                             for m, c in e[2].items()}) for e in reversed(reduced)]
        basis = _complete(second, gens, stats, max_pairs, max_degree)
    except ResourceLimitError:
        if stats["pairs_considered"] > max_pairs:
            raise
        return None
    # h = 1: shift h's raw field out, leaving the ring's packing
    slot = second.width + 1
    return [(lm >> slot, lc, {m >> slot: c for m, c in terms.items()},
             [(m >> slot, c) for m, c in tail]) for lm, lc, terms, tail in basis]


def _limit(msg: str, stats: dict, basis_size: int, pending_pairs: int = 0):
    """ResourceLimitError with the counters so far and a stage's sizes."""
    return ResourceLimitError(msg, stats={**stats, "basis_size": basis_size,
                                          "pending_pairs": pending_pairs})


def _pack_generators(packing: _Packing, ideal: Ideal, stats: dict,
                     homogenize: bool = False) -> list:
    try:
        return [_make_entry(_int_terms(packing, g, homogenize))
                for g in ideal.generators]
    except ResourceLimitError as exc:
        raise _limit(str(exc), stats, 0) from None


def _complete(packing: _Packing, gens: list, stats: dict,
              max_pairs: int, max_degree: int, stop: int = 0) -> list | None:
    """The signature-based completion of the entries ``gens`` under
    ``packing``'s order: the basis entries, with the counters added to
    ``stats``; ``max_pairs`` bounds ``stats["pairs_considered"]``, counted
    from what it holds on entry.  None, at once, when a member would join
    whose leading monomial sets a bit of ``stop``."""
    guard, units = packing.guard, packing.units
    basis: list = []
    lms: list = []  # packed leading monomials, parallel to basis
    lm_exps: list = []  # their exponent tuples, for pair lcms
    sigs: list = []  # signatures (Schreyer key, generator index), parallel
    rewriters: list = [[] for _ in gens]  # index -> (key, lm, member) by age
    by_lm: list = []  # (leading monomial, signature) of every member, by lm
    sorted_lms: list = []  # the leading monomials of by_lm, for bisect
    syz: dict = {}  # generator index -> keys of the minimal syzygy signatures
    queue: list = []  # min-heap of signatures still to process

    def fail(msg):
        return _limit(msg, stats, len(basis), len(queue))

    def add_syzygy(key, i):
        # keep the set minimal; a key past its fields divides no signature
        if key & guard:
            return
        keys = syz.setdefault(i, [])
        kg = key | guard
        for s in keys:
            if (kg - s) & guard == guard:
                return
        keys[:] = [s for s in keys if ((s | guard) - key) & guard != guard]
        keys.append(key)

    def add_member(entry, sig):
        lm, e_n = entry[0], packing.unpack(entry[0])
        key_n, i_n = sig
        for j, e_j in enumerate(lm_exps):
            lm_j = lms[j]
            key_j, i_j = sigs[j]
            # the Koszul syzygy lm_j * [member n] - lm_n * [member j]
            k_n, k_j = (lm_j + key_n, i_n), (lm + key_j, i_j)
            if k_n != k_j:
                add_syzygy(*max(k_n, k_j))
            # the S-pair's signature, unless both sides carry the same one; on
            # coprime leading monomials it is the Koszul signature above
            lcm_m = sum(map(mul, map(max, e_j, e_n), units))
            if lcm_m != lm + lm_j:
                s_n, s_j = (lcm_m - lm + key_n, i_n), (lcm_m - lm_j + key_j, i_j)
                if s_n != s_j:
                    heapq.heappush(queue, max(s_n, s_j))
        rewriters[i_n].append((key_n, lm, len(basis)))
        basis.append(entry)
        lms.append(lm)
        lm_exps.append(e_n)
        sigs.append(sig)
        at = bisect_right(sorted_lms, lm)
        sorted_lms.insert(at, lm)
        by_lm.insert(at, (lm, sig))

    def has_regular_reducer(m, sig):
        """Whether a member reduces the term m of signature sig regularly;
        only members with lm <= m can divide m, as in _normal_form_int."""
        mg = m | guard
        below = islice(by_lm, bisect_right(sorted_lms, m))
        return any((mg - lm_j) & guard == guard
                   and (m - lm_j + sig_j[0], sig_j[1]) < sig
                   for lm_j, sig_j in below)

    # generator i has signature e_i, whose Schreyer key is its leading monomial
    for i, gen in enumerate(gens):
        heapq.heappush(queue, (gen[0], i))

    last = None
    while queue:
        sig = heapq.heappop(queue)
        key, i = sig
        is_gen = key == gens[i][0]
        if is_gen:
            # generator i, taken as it is unless its leading term reduces
            entry, u = gens[i], 0
        else:
            stats["pairs_considered"] += 1
            if stats["pairs_considered"] > max_pairs:
                raise fail(f"pair budget exceeded ({max_pairs})")
            if key & guard:
                raise fail(_OVERFLOW)
            kg = key | guard
            if sig == last or any((kg - s) & guard == guard for s in syz.get(i, ())):
                stats["pairs_skipped_criteria"] += 1
                continue
            # the member of index i whose signature divides sig with the
            # smallest multiplied leading monomial, the newest on ties
            best = None
            for key_j, lm_j, j in rewriters[i]:
                if (kg - key_j) & guard == guard:
                    lead = key - key_j + lm_j
                    if best is None or lead <= best:
                        best, w = lead, j
            entry, u = basis[w], key - sigs[w][0]
        last = sig
        m = entry[0] + u
        if m & guard:
            raise fail(_OVERFLOW)
        if not has_regular_reducer(m, sig):
            if is_gen:
                add_member(entry, sig)
            else:
                stats["pairs_skipped_criteria"] += 1
            continue
        stats["reductions"] += 1
        terms = {t + u: c for t, c in entry[2].items()}
        if any(t & guard for t in terms):
            raise fail(_OVERFLOW)
        try:
            rem, _, _ = _normal_form_int(terms, basis, guard, sig, sigs)
        except ResourceLimitError as exc:
            raise fail(str(exc)) from None
        if not rem:
            stats["zero_reductions"] += 1
            add_syzygy(key, i)
            continue
        if not is_gen:
            deg = packing.top_degree(rem)
            if deg > max_degree:
                raise fail(f"degree cap exceeded ({deg} > {max_degree})")
        entry = _make_entry(rem)
        if entry[0] & stop:
            return None
        add_member(entry, sig)
    return basis


def minimalize(gb: GroebnerBasis) -> GroebnerBasis:
    """Drop members whose leading term is divisible by another member's."""
    keyfn = gb.order.key
    entries = sorted(gb.polys, key=lambda p: keyfn(leading_term(p, gb.order)[0]))
    kept: list = []
    kept_lms: list = []
    for p in entries:
        lm = leading_term(p, gb.order)[0]
        if any(monomial_divides(k, lm) for k in kept_lms):
            continue
        kept.append(p)
        kept_lms.append(lm)
    return GroebnerBasis(gb.order, tuple(kept), reduced=False, stats=dict(gb.stats))


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """Minimalize, fully inter-reduce tails, and content-normalize.

    The result is the unique reduced basis for the ideal and order (up to the
    monic-vs-primitive normalization, fixed here as primitive integer
    coefficients with positive leading coefficient), sorted with the largest
    leading monomial first.

    The work is done on packed integer entries: the ones ``buchberger`` (or
    an earlier ``reduce_basis``) left on ``gb`` when present, else
    ``gb.polys`` packed and made primitive, so the usual
    ``reduce_basis(buchberger(...))`` chain never goes through ``Fraction``.
    Minimalizing is a stable sort by packed leading monomial, which is the
    order key, and each member's tail is reduced against the others, each
    term by the first of them, in that sorted order, whose leading monomial
    divides it.  The result keeps its own entries for ``minimal_polynomials``.
    """
    packing, entries = _packed_basis(gb)
    try:
        minimal_size, reduced_entries = _reduce_entries(entries, packing.guard)
    except ResourceLimitError as exc:
        partial = {k: v for k, v in gb.stats.items() if k != "coeff_bits_max"}
        raise ResourceLimitError(str(exc), stats=partial) from None
    stats = dict(gb.stats)
    stats["minimal_size"] = minimal_size
    stats["reduced_size"] = len(reduced_entries)
    stats["coeff_bits_max"] = _coeff_bits(reduced_entries)
    return GroebnerBasis._from_packed(gb.order, True, stats, packing, reduced_entries)


def _reduce_entries(entries: list, guard: int) -> tuple:
    """``(minimal_size, reduced)``: the entries minimalized and inter-reduced
    as ``reduce_basis`` describes, largest leading monomial first."""
    kept: list = []
    for entry in sorted(entries, key=lambda e: e[0]):
        mg = entry[0] | guard
        if all((mg - k[0]) & guard != guard for k in kept):
            kept.append(entry)
    reduced = []
    for idx, entry in enumerate(kept):
        others = [e for k, e in enumerate(kept) if k != idx]
        rem, _, _ = _normal_form_int(entry[2], others, guard)
        if rem:
            new = _make_entry(rem)
            reduced.append(new)
            kept[idx] = new
    reduced.sort(key=lambda e: e[0], reverse=True)
    return len(kept), reduced


def elimination_ideal(gb: GroebnerBasis, keep) -> list:
    """Basis members supported only on `keep` variables.

    By the Elimination Theorem these generate (as a Groebner basis) the
    intersection of the ideal with the subring on `keep`, provided the basis
    order ranks every dropped variable above every kept one.  Support is
    read from the packed entries: a member is kept when none of its terms
    sets a raw field of a dropped variable.  A basis whose ``polys`` are set
    gives its own members; otherwise only the kept members are converted,
    afresh, and a later read of ``gb.polys`` converts them again.
    """
    keep = set(keep)
    ring = gb.order.variables
    unknown = keep - set(ring)
    if unknown:
        raise OrderError(f"unknown variables {sorted(unknown)}")
    dropped = set(ring) - keep
    if dropped and not gb.order.eliminates(dropped):
        raise OrderError(
            f"order {gb.order.kind} over {ring} does not eliminate {sorted(dropped)}")
    packing, entries = _packed_basis(gb)
    fields = sum(packing.mask << packing.shifts[ring.index(v)] for v in dropped)
    kept = [i for i, e in enumerate(entries) if not any(m & fields for m in e[2])]
    if "polys" in gb.__dict__:
        return [gb.polys[i] for i in kept]
    return [packing.to_poly(ring, entries[i][2]) for i in kept]


# ---------------------------------------------------------------------------
# minimal polynomials in a zero-dimensional quotient
# ---------------------------------------------------------------------------

def _staircase(lms: list, units: list, guard: int) -> dict:
    """Standard monomials under the packed leading monomials ``lms``, each
    mapped to its index; grown from 1, so finite only when every variable
    has a pure power among ``lms``."""
    def standard(m):
        mg = m | guard
        return all((mg - lm) & guard != guard for lm in lms)

    index: dict = {}
    todo = [0] if standard(0) else []
    while todo:
        m = todo.pop()
        if m not in index:
            index[m] = len(index)
            todo.extend(t for t in (m + u for u in units)
                        if t not in index and standard(t))
    return index


def _krylov_relation(index: dict, unit: int, entries: list, guard: int) -> list:
    """Coefficients c_0..c_n (ascending) of the first linear relation
    sum c_k NF(v^k) = 0, v the variable packed as ``unit``: coprime ints
    with c_n > 0, cleared of the relation's rational scales at the end."""
    # integer matrix N of multiplication by v on the standard monomials, as
    # columns of (row, value) pairs; the rational matrix is N / den.  A border
    # monomial's NF is its primitive remainder over the factor that
    # _normal_form_int returns, so den is the lcm of those factors' numerators
    images = [index.get(m + unit) for m in index]
    border = {}
    for i, m in enumerate(index):
        if images[i] is None:
            rem, num, d = _normal_form_int({m + unit: 1}, entries, guard)
            border[i] = rem, Fraction(d, num)  # NF = rem * d / num
    den = lcm(*(inv.denominator for _, inv in border.values()))
    cols = []
    for i, j in enumerate(images):
        if j is None:
            rem, inv = border[i]
            k = inv.numerator * (den // inv.denominator)
            cols.append([(index[t], c * k) for t, c in rem.items()])
        else:
            cols.append([(j, den)])
    # Krylov vectors u = scale * NF(v^k) stay primitive integer lists; each
    # echelon row carries the combination of the u_k it stands for
    u = [0] * len(index)
    u[index[0]] = 1
    scale = Fraction(1)
    scales, rows = [], []
    while True:
        vec, combo = u, [0] * len(scales) + [1]
        scales.append(scale)
        for piv, row, rcombo in rows:
            c = vec[piv]
            if c:
                g = gcd(row[piv], c)
                a, b = row[piv] // g, c // g
                vec = [a * x - b * y for x, y in zip(vec, row)]
                combo = ([a * x - b * y for x, y in zip(combo, rcombo)]
                         + [a * x for x in combo[len(rcombo):]])
        if not any(vec):
            rel = [c * s for c, s in zip(combo, scales)]
            den = lcm(*(c.denominator for c in rel))
            rel = [c.numerator * (den // c.denominator) for c in rel]
            g = gcd(*rel) if rel[-1] > 0 else -gcd(*rel)
            return [c // g for c in rel]
        g = gcd(*vec, *combo)
        rows.append((next(i for i, x in enumerate(vec) if x),
                     [x // g for x in vec], [x // g for x in combo]))
        nxt = [0] * len(index)
        for c, col in zip(u, cols):
            if c:
                for j, val in col:
                    nxt[j] += c * val
        g = gcd(*nxt) or 1  # 0 when v is nilpotent: v^k lies in I
        u = [x // g for x in nxt]
        scale = scale * den / g


def minimal_polynomials(gb: GroebnerBasis, variables) -> list:
    """Minimal polynomial of multiplication by each variable on Q[ring]/I.

    ``gb`` is a Groebner basis, in any order, of a zero-dimensional ideal I.
    The standard monomials (those no leading monomial divides) are a basis of
    the quotient.  For each variable v the Krylov sequence of normal forms
    1, v, v^2, ... is followed, through the integer matrix of multiplication
    by v, until its first linear dependency over Q.  That relation is the
    monic generator of the intersection of I with Q[v]: the univariate member
    a reduced lex basis with v last would hold (the change of order of
    Faugere, Gianni, Lazard & Mora, JSC 1993).  The matrix's columns at the
    border of the staircase are ``_normal_form_int`` remainders, brought to
    one integer scale by the exact factor each one returns.  Each result is
    the ascending coefficient list of that generator, c_0 first: primitive
    ``int`` entries with a positive leading coefficient.  The unit ideal
    gives ``[1]`` for every variable.

    Raises EliminationError when I is not zero-dimensional, that is when some
    variable has no pure power among the leading monomials.
    """
    ring = gb.order.variables
    unknown = set(variables) - set(ring)
    if unknown:
        raise OrderError(f"unknown variables {sorted(unknown)}")
    packing, entries = _packed_basis(gb)
    lm_exps = [packing.unpack(e[0]) for e in entries]
    for i, name in enumerate(ring):
        if not any(sum(lm) == lm[i] for lm in lm_exps):
            raise EliminationError(
                f"ideal is not zero-dimensional: no leading monomial is a "
                f"pure power of {name}")
    index = _staircase([e[0] for e in entries], packing.units, packing.guard)
    if not index:  # I is the whole ring
        return [[1] for _ in variables]
    return [_krylov_relation(index, packing.units[ring.index(name)], entries,
                             packing.guard) for name in variables]

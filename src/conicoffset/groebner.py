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
significant.  Above the raw fields sit the order-key fields, most significant
first: none for lex; the prefix sums S_n, ..., S_1 (S_k = e_1 + ... + e_k) for
grevlex; one such set per block for the block order.  Every field is linear in
the exponents, so comparing two packed ints compares the monomials in the
order, a product is ``a + b``, a quotient is ``m - lm``, and ``lm | m`` is
``((m | G) - lm) & G == G`` with G the raw guard bits.  ``width`` is 16 bits,
or more when twice the bound needs them: ``max_degree`` in ``buchberger``, the
largest input exponent when a basis is packed afresh.  A packed form handed
on is reused only where it is no narrower than that.  Lex elimination can form
exponents above ``max_degree`` before the degree cap sees a remainder, hence
the headroom.  An exponent that does not fit (in a generator, or in any
product formed during completion or reduction) sets a guard bit and raises
ResourceLimitError with the partial statistics; it never wraps.

Pair selection is the normal strategy: a min-heap keyed by (lcm total degree,
insertion index), which makes runs deterministic.  The classic
coprime-leading-term and chain criteria prune useless pairs.  Each term is
reduced by the first basis member whose leading monomial divides it.  Since
a completion only appends members, ``buchberger`` keeps a first-divisor cache
for its normal forms: a packed monomial maps to that member's index, or to
"none among the first k", so a term already proved irreducible is rescanned
only against the members added since.

The basis stays packed from completion through reduction.  ``buchberger``
and ``reduce_basis`` leave their packed entries on the ``GroebnerBasis`` they
return (a private field that ``dataclasses.replace`` and hand-built bases do
not carry), and ``reduce_basis`` and ``minimal_polynomials`` start from them,
so no ``Fraction`` round trip sits between the stages.  A basis without them
is packed from its polys.  The ``MultiPoly`` outputs are built once, through
a constructor that skips re-validation.

For a zero-dimensional ideal, ``minimal_polynomials`` gets the univariate
eliminants from a basis in any order (typically a cheap grevlex one) by
linear algebra in the quotient ring, in place of a lex completion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Sequence

from .errors import (EliminationError, OrderError, ResourceLimitError,
                     RingError, ZeroPolyError)
from .poly import (MonomialOrder, MultiPoly, content_normalize, leading_term,
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
            raise ValueError("ideal needs at least one generator")
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
    degree: one per block for grevlex and block orders, every raw field for
    lex.
    """

    __slots__ = ("width", "mask", "guard", "units", "shifts", "degree_fields")

    def __init__(self, order: MonomialOrder, bound: int):
        n = len(order.variables)
        self.width = width = max(MIN_FIELD_BITS, (2 * bound).bit_length())
        self.mask = (1 << width) - 1
        slot = width + 1
        self.shifts = [slot * (n - 1 - i) for i in range(n)]
        self.guard = sum(1 << (s + width) for s in self.shifts)
        units = [1 << s for s in self.shifts]
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
        key_bits = width + 1 + n.bit_length()
        shift = slot * n
        degree_fields = [] if blocks else [(s, self.mask) for s in self.shifts]
        for members, whole in reversed(fields):
            for i in members:
                units[i] += 1 << shift
            if whole:
                degree_fields.append((shift, (1 << key_bits) - 1))
            shift += key_bits
        self.units = units
        self.degree_fields = degree_fields

    def pack(self, exps) -> int:
        if any(e >> self.width for e in exps):
            raise ResourceLimitError(_OVERFLOW)
        return sum(e * u for e, u in zip(exps, self.units))

    def unpack(self, m: int) -> tuple:
        mask = self.mask
        return tuple((m >> s) & mask for s in self.shifts)

    def degree(self, m: int) -> int:
        """Total degree of a packed monomial."""
        return sum((m >> s) & k for s, k in self.degree_fields)

    def to_poly(self, ring: tuple, terms: dict) -> MultiPoly:
        return MultiPoly._trusted(
            ring, {self.unpack(m): Fraction(c) for m, c in terms.items()})


# ---------------------------------------------------------------------------
# integer engine
# ---------------------------------------------------------------------------
# A basis entry is the tuple (lm, lc, terms, tail): packed leading monomial,
# positive integer leading coefficient, the primitive term dict, and the
# (monomial, coefficient) items of the terms other than the leading one.

def _int_terms(packing: _Packing, p: MultiPoly) -> dict:
    """Primitive integer terms of p, keyed by packed monomial: p times the
    lcm of its denominators, divided by the gcd of the results."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    terms = {packing.pack(m): c.numerator * (den // c.denominator)
             for m, c in p.terms.items()}
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
    return max((c.bit_length() for e in entries for c in e[2].values()), default=0)


def _spair_terms(e1, e2, lcm_m: int, guard: int) -> dict:
    """Integer S-polynomial of two primitive entries with lcm ``lcm_m``."""
    lm1, lc1, _, tail1 = e1
    lm2, lc2, _, tail2 = e2
    g = gcd(lc1, lc2)
    c1, c2 = lc2 // g, lc1 // g
    q1, q2 = lcm_m - lm1, lcm_m - lm2
    out: dict = {}
    for m, c in tail1:
        t = q1 + m
        if t & guard:
            raise ResourceLimitError(_OVERFLOW)
        out[t] = c1 * c
    for m, c in tail2:
        t = q2 + m
        v = out.get(t)
        if v is None:
            if t & guard:
                raise ResourceLimitError(_OVERFLOW)
            out[t] = -c2 * c
        else:
            v -= c2 * c
            if v:
                out[t] = v
            else:
                del out[t]
    return out


def _normal_form_int(terms: dict, basis: Sequence, guard: int,
                     first: dict | None = None) -> tuple:
    """Full normal form of an integer polynomial against basis entries.

    Returns ``(rem, num, den)``: the primitive remainder and the positive
    factor num/den by which it differs from the true normal form, so
    ``rem == num/den * NF(terms)`` exactly.  The reduction is integer
    pseudo-division: num gathers the scalings that clear a leading
    coefficient and den the contents stripped off the remainder, the only
    steps that change the factor.  The heap holds negated packed monomials,
    so it pops the order-largest live term first.  Each term is reduced by
    the first member, in basis order, whose leading monomial divides it.

    ``first`` is an optional first-divisor cache for a basis that only grows
    by appending, as during one completion.  It maps a packed monomial to the
    index of its first divisor, or to ``~k`` when none of the first k members
    divides it; a miss then rescans only the members added since.  Either
    way the divisor is the one the full scan would choose.
    """
    work = dict(terms)
    done: dict = {}
    lms = [e[0] for e in basis]
    nlms = len(lms)
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
        idx = -1 if first is None else first.get(m, -1)
        if idx < 0:
            start = ~idx
            mg = m | guard
            for idx, lm in enumerate(lms[start:] if start else lms, start):
                if (mg - lm) & guard == guard:
                    break
            else:
                idx = ~nlms
            if first is not None:
                first[m] = idx
            if idx < 0:
                done[m] = c
                continue
        _, lc, _, tail = basis[idx]
        q = m - lms[idx]
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


def _with_packed(gb: GroebnerBasis, packing: _Packing, entries: list) -> GroebnerBasis:
    object.__setattr__(gb, "_packed", (packing, entries))
    return gb


def _packed_basis(gb: GroebnerBasis):
    """``(packing, entries)`` for ``gb.polys``.

    Reuses the packed form the producing function left on ``gb`` when its
    fields are no narrower than a fresh packing's would be (no exponent sets
    a field's top bit), and widens it otherwise.  A basis without one is
    packed from its polys, made primitive.
    """
    if gb._packed is not None:
        packing, entries = gb._packed
        top = packing.guard >> 1  # the highest raw bit of every field
        if not any(m & top for e in entries for m in e[2]):
            return packing, entries
        bound = max(x for e in entries for m in e[2] for x in packing.unpack(m))
        wide = _Packing(gb.order, bound)
        return wide, [_make_entry({wide.pack(packing.unpack(m)): c
                                   for m, c in e[2].items()}) for e in entries]
    bound = max((e for p in gb.polys for m in p.terms for e in m), default=0)
    packing = _Packing(gb.order, bound)
    entries = [_make_entry(_int_terms(packing, p)) for p in gb.polys]
    return packing, entries


# ---------------------------------------------------------------------------
# Buchberger completion
# ---------------------------------------------------------------------------

def buchberger(ideal: Ideal, order: MonomialOrder,
               max_pairs: int = DEFAULT_MAX_PAIRS,
               max_degree: int = DEFAULT_MAX_DEGREE) -> GroebnerBasis:
    """Complete the ideal's generators to a (non-reduced) Groebner basis.

    Raises ResourceLimitError (carrying partial statistics) when more than
    ``max_pairs`` S-pairs are processed, a remainder exceeds total degree
    ``max_degree``, or an exponent overflows its packed field.
    """
    if tuple(order.variables) != ideal.ring:
        raise OrderError("order variables do not match the ideal ring")
    packing = _Packing(order, max_degree)
    guard = packing.guard
    stats = {"pairs_considered": 0, "pairs_skipped_criteria": 0, "reductions": 0}
    basis: list = []
    lms: list = []  # packed leading monomials, parallel to basis
    lm_exps: list = []  # their exponent tuples, for pair lcms
    heap: list = []
    pending: set = set()
    first: dict = {}  # first-divisor cache of _normal_form_int
    counter = 0

    def fail(msg):
        stats["basis_size"] = len(basis)
        stats["pending_pairs"] = len(pending)
        return ResourceLimitError(msg, stats=dict(stats))

    def add_member(terms):
        entry = _make_entry(terms)
        basis.append(entry)
        lms.append(entry[0])
        lm_exps.append(packing.unpack(entry[0]))

    def push_pairs(j):
        nonlocal counter
        e_j = lm_exps[j]
        for i in range(j):
            lcm_e = tuple(a if a > b else b for a, b in zip(lm_exps[i], e_j))
            heapq.heappush(heap, (sum(lcm_e), counter, i, j, packing.pack(lcm_e)))
            pending.add((i, j))
            counter += 1

    try:
        for gen in ideal.generators:
            add_member(_int_terms(packing, gen))
    except ResourceLimitError as exc:
        raise fail(str(exc)) from None
    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, _, i, j, lcm_m = heapq.heappop(heap)
        pending.discard((i, j))
        stats["pairs_considered"] += 1
        if stats["pairs_considered"] > max_pairs:
            raise fail(f"pair budget exceeded ({max_pairs})")
        # coprime leading terms: S-pair reduces to zero, skip
        if lms[i] + lms[j] == lcm_m:
            stats["pairs_skipped_criteria"] += 1
            continue
        # chain criterion: some other basis member divides the lcm and both
        # its pairs with i and j are already settled
        skip = False
        lcm_g = lcm_m | guard
        for k, lm_k in enumerate(lms):
            if (lcm_g - lm_k) & guard == guard and k != i and k != j:
                pik = (i, k) if i < k else (k, i)
                pjk = (j, k) if j < k else (k, j)
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            stats["pairs_skipped_criteria"] += 1
            continue
        stats["reductions"] += 1
        try:
            rem, _, _ = _normal_form_int(
                _spair_terms(basis[i], basis[j], lcm_m, guard), basis, guard, first)
        except ResourceLimitError as exc:
            raise fail(str(exc)) from None
        if rem:
            deg = max(map(packing.degree, rem))
            if deg > max_degree:
                raise fail(f"degree cap exceeded ({deg} > {max_degree})")
            add_member(rem)
            push_pairs(len(basis) - 1)

    polys = tuple(packing.to_poly(ideal.ring, terms) for (_, _, terms, _) in basis)
    stats["basis_size"] = len(polys)
    stats["degree_multiset"] = sorted((p.degree() for p in polys), reverse=True)
    stats["coeff_bits_max"] = _coeff_bits(basis)
    return _with_packed(GroebnerBasis(order=order, polys=polys, reduced=False,
                                      stats=stats), packing, basis)


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
    order key, and each member is reduced against the others with no
    first-divisor cache, since its reducer list differs per member.  The
    result keeps its own entries for ``minimal_polynomials``.
    """
    packing, entries = _packed_basis(gb)
    guard = packing.guard
    kept: list = []
    for entry in sorted(entries, key=lambda e: e[0]):
        mg = entry[0] | guard
        if all((mg - k[0]) & guard != guard for k in kept):
            kept.append(entry)
    reduced_entries = []
    try:
        for idx, entry in enumerate(kept):
            others = [e for k, e in enumerate(kept) if k != idx]
            rem, _, _ = _normal_form_int(entry[2], others, guard)
            if rem:
                new = _make_entry(rem)
                reduced_entries.append(new)
                kept[idx] = new
    except ResourceLimitError as exc:
        partial = {k: v for k, v in gb.stats.items() if k != "coeff_bits_max"}
        raise ResourceLimitError(str(exc), stats=partial) from None
    reduced_entries.sort(key=lambda e: e[0], reverse=True)
    polys = tuple(packing.to_poly(gb.order.variables, terms)
                  for (_, _, terms, _) in reduced_entries)
    stats = dict(gb.stats)
    stats["minimal_size"] = len(kept)
    stats["reduced_size"] = len(polys)
    stats["coeff_bits_max"] = _coeff_bits(reduced_entries)
    return _with_packed(GroebnerBasis(gb.order, polys, reduced=True, stats=stats),
                        packing, reduced_entries)


def elimination_ideal(gb: GroebnerBasis, keep) -> list:
    """Basis members supported only on `keep` variables.

    By the Elimination Theorem these generate (as a Groebner basis) the
    intersection of the ideal with the subring on `keep`, provided the basis
    order ranks every dropped variable above every kept one.
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
    return [p for p in gb.polys if p.support_vars() <= keep]


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
    """Coefficients c_0..c_n (ascending, rational) of the first linear
    relation sum c_k NF(v^k) = 0, v the variable packed as ``unit``."""
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
            return [c * s for c, s in zip(combo, scales)]
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
    one integer scale by the exact factor each one returns.  Each result is a
    MultiPoly of the basis ring, primitive with a positive leading
    coefficient.

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
    out = []
    for name in variables:
        pos = ring.index(name)
        if not index:  # I is the whole ring
            out.append(MultiPoly.const(ring, 1))
            continue
        coeffs = _krylov_relation(index, packing.units[pos], entries, packing.guard)
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                exps = [0] * len(ring)
                exps[pos] = k
                terms[tuple(exps)] = c
        out.append(content_normalize(MultiPoly(ring, terms)))
    return out

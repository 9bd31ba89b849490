"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from monomials to nonzero rational coefficients.
Monomials are plain exponent tuples, one slot per ring variable, so that all
monomial operations are cheap tuple arithmetic.  Coefficients are
``fractions.Fraction`` values (aliased as :data:`BigRational`): exact,
arbitrary precision, always in canonical form (positive denominator, reduced).

Everything here is immutable after construction and safe to share between
threads; every operation returns a fresh value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce as _functools_reduce
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import OrderError, RingError, VarError, ZeroPolyError

BigRational = Fraction

Monomial = tuple  # exponent vector, one non-negative int per ring variable


def rat(value, den=None) -> Fraction:
    """Build a BigRational from an int, string ("3/2", "-4"), or Fraction."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, str):
        return Fraction(value.strip())
    return Fraction(value)


# ---------------------------------------------------------------------------
# Monomial helpers
# ---------------------------------------------------------------------------

def monomial_mul(m: Monomial, n: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(m, n))


def monomial_div(m: Monomial, n: Monomial) -> Monomial | None:
    """Return m/n as a monomial, or None when n does not divide m."""
    out = []
    for a, b in zip(m, n):
        if a < b:
            return None
        out.append(a - b)
    return tuple(out)


def monomial_divides(n: Monomial, m: Monomial) -> bool:
    return all(b <= a for a, b in zip(m, n))


def monomial_lcm(m: Monomial, n: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m, n))


def total_degree(m: Monomial) -> int:
    return sum(m)


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------

def _grevlex_key(exps: Sequence[int]):
    # flat int tuple so keys can be compared and negated componentwise
    return (sum(exps), *(-e for e in reversed(exps)))


@dataclass(frozen=True)
class MonomialOrder:
    """A total, multiplicative well-order on monomials of a fixed ring.

    kind:
      * ``"lex"``     -- lexicographic, first listed variable largest;
      * ``"grevlex"`` -- graded reverse lexicographic;
      * ``"block"``   -- grevlex on the first ``elim_count`` variables, ties
        broken by grevlex on the rest.  Any monomial containing one of the
        leading-block variables exceeds every monomial free of them, which is
        what makes it an elimination order for that block.
    """

    kind: str
    variables: tuple
    elim_count: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise OrderError(f"unknown order kind {self.kind!r}")
        if len(set(self.variables)) != len(self.variables):
            raise OrderError(f"repeated variable in {self.variables}")
        if self.kind == "block" and not (0 < self.elim_count < len(self.variables)):
            raise OrderError("block order needs 0 < elim_count < #variables")

    def key(self, m: Monomial):
        """Sort key: key(u) < key(v) iff u < v in this order."""
        if self.kind == "lex":
            return m
        if self.kind == "grevlex":
            return _grevlex_key(m)
        k = self.elim_count
        return _grevlex_key(m[:k]) + _grevlex_key(m[k:])

    def eliminates(self, dropped: frozenset | set) -> bool:
        """True when this order ranks every monomial containing a dropped
        variable above every monomial free of them (Elimination Theorem)."""
        names = list(self.variables)
        k = len(dropped)
        if not dropped.issubset(names):
            return False
        if self.kind == "lex":
            return set(names[:k]) == set(dropped)
        if self.kind == "block":
            return self.elim_count == k and set(names[:k]) == set(dropped)
        return False


def lex(variables) -> MonomialOrder:
    return MonomialOrder("lex", tuple(variables))


def grevlex(variables) -> MonomialOrder:
    return MonomialOrder("grevlex", tuple(variables))


def block(variables, elim_count: int) -> MonomialOrder:
    return MonomialOrder("block", tuple(variables), elim_count)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Immutable sparse polynomial over BigRational in a named ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: Mapping[Monomial, object] | None = None):
        object.__setattr__(self, "ring", tuple(ring))
        clean = {}
        if terms:
            n = len(self.ring)
            for m, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                m = tuple(m)
                if len(m) != n or any(e < 0 for e in m):
                    raise ValueError(f"bad exponent vector {m} for ring {self.ring}")
                clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring) -> "MultiPoly":
        return cls(ring, {})

    @classmethod
    def const(cls, ring, value) -> "MultiPoly":
        ring = tuple(ring)
        return cls(ring, {(0,) * len(ring): Fraction(value)})

    @classmethod
    def variable(cls, ring, name) -> "MultiPoly":
        ring = tuple(ring)
        if name not in ring:
            raise VarError(f"variable {name!r} not in ring {ring}")
        exp = [0] * len(ring)
        exp[ring.index(name)] = 1
        return cls(ring, {tuple(exp): Fraction(1)})

    @classmethod
    def _trusted(cls, ring: tuple, terms: dict) -> "MultiPoly":
        """Wrap terms already in canonical form without re-validating them:
        ``ring`` a tuple, every monomial an int tuple of its length, every
        coefficient a nonzero Fraction.  Takes ownership of ``terms``."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", terms)
        return p

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(total_degree(m) for m in self.terms)

    def support_vars(self) -> set:
        """Names of the variables that actually occur."""
        used = set()
        for m in self.terms:
            for name, e in zip(self.ring, m):
                if e:
                    used.add(name)
        return used

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(tuple(m), Fraction(0))

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r}, ring={self.ring})"

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.ring, other)
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MultiPoly(self.ring, {m: c * v for m, v in self.terms.items()})
        self._check_ring(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


# ---------------------------------------------------------------------------
# Spec operations (thin functional surface over MultiPoly)
# ---------------------------------------------------------------------------

def add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact term-wise sum; RingError on ring mismatch."""
    return p + q


def mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact convolution product; RingError on ring mismatch."""
    return p * q


def leading_term(p: MultiPoly, order: MonomialOrder):
    """The order-maximal (monomial, coefficient) pair of a nonzero p."""
    if p.is_zero():
        raise ZeroPolyError("leading term of the zero polynomial")
    m = max(p.terms, key=order.key)
    return m, p.terms[m]


def reduce(p: MultiPoly, basis: Sequence[MultiPoly], order: MonomialOrder):
    """Multivariate division of p by an ordered list of divisors.

    Returns ``(remainder, quotients)`` with the exact reconstruction identity
    ``p == sum(q_i * basis_i) + remainder`` and no remainder term divisible by
    any divisor's leading term.  Ties between divisors go to the first list
    entry whose leading term divides (deterministic).
    """
    for b in basis:
        p._check_ring(b)
        if b.is_zero():
            raise ZeroPolyError("zero polynomial in division basis")
    lts = [leading_term(b, order) for b in basis]
    quotients = [dict() for _ in basis]
    remainder: dict = {}
    work = dict(p.terms)
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for i, (lm, lc) in enumerate(lts):
            q = monomial_div(m, lm)
            if q is not None:
                factor = c / lc
                quotients[i][q] = quotients[i].get(q, 0) + factor
                for bm, bc in basis[i].terms.items():
                    if bm == lm:
                        continue
                    t = monomial_mul(q, bm)
                    s = work.get(t, 0) - factor * bc
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = c
    ring = p.ring
    return MultiPoly(ring, remainder), [MultiPoly(ring, q) for q in quotients]


def substitute(p: MultiPoly, assignments: Mapping[str, object]) -> MultiPoly:
    """Exact partial evaluation.

    The result lives in the ring restricted to the unassigned variables (in
    their original order).  Unknown variable names raise VarError.
    """
    for name in assignments:
        if name not in p.ring:
            raise VarError(f"variable {name!r} not in ring {p.ring}")
    values = {p.ring.index(k): Fraction(v) for k, v in assignments.items()}
    keep = [i for i in range(len(p.ring)) if i not in values]
    new_ring = tuple(p.ring[i] for i in keep)
    out: dict = {}
    for m, c in p.terms.items():
        for i, v in values.items():
            if m[i]:
                c = c * v ** m[i]
        if c == 0:
            continue
        nm = tuple(m[i] for i in keep)
        s = out.get(nm, 0) + c
        if s:
            out[nm] = s
        else:
            out.pop(nm, None)
    return MultiPoly(new_ring, out)


def content_normalize(p: MultiPoly) -> MultiPoly:
    """Divide by the rational content: coprime integer coefficients and a
    positive grevlex-leading coefficient.  Idempotent; preserves zero sets."""
    if p.is_zero():
        raise ZeroPolyError("content of the zero polynomial")
    den = lcm(*(c.denominator for c in p.terms.values()))
    nums = [int(c * den) for c in p.terms.values()]
    g = _functools_reduce(gcd, (abs(n) for n in nums))
    lead = max(p.terms, key=grevlex(p.ring).key)
    sign = 1 if p.terms[lead] > 0 else -1
    scale = Fraction(sign * den, g)
    return MultiPoly(p.ring, {m: c * scale for m, c in p.terms.items()})


def gradient(p: MultiPoly, variables: Sequence[str] | None = None) -> list:
    """Exact formal partial derivatives with respect to the given variables
    (defaults to every ring variable, in ring order)."""
    if variables is None:
        variables = p.ring
    out = []
    for name in variables:
        if name not in p.ring:
            raise VarError(f"variable {name!r} not in ring {p.ring}")
        i = p.ring.index(name)
        terms: dict = {}
        for m, c in p.terms.items():
            if m[i]:
                nm = list(m)
                nm[i] -= 1
                terms[tuple(nm)] = c * m[i]
        out.append(MultiPoly(p.ring, terms))
    return out


# ---------------------------------------------------------------------------
# Text form:  "4*p*y0 - x0^2 + 3/2*x*y^3"
# ---------------------------------------------------------------------------

# Python (3.11, and 3.10.7 on) refuses to convert an int of more than 4,300
# decimal digits to or from a string; coefficients of offset polynomials at
# admitted parameter heights pass that.  These split such a number in two
# halves of digits instead, without touching the interpreter-wide limit.

def int_to_str(n: int) -> str:
    """str(n) with every digit, past the int-to-str limit too."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half of n's decimal digits
        q, r = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + int_to_str(q) + int_to_str(r).zfill(k)


def str_to_int(text) -> int:
    """int(text), also for a decimal string past the int-to-str limit."""
    try:
        return int(text)
    except ValueError:
        digits = text.lstrip("+-") if isinstance(text, str) else ""
        if not (digits.isascii() and digits.isdigit()) or len(text) - len(digits) > 1:
            raise
        head, tail = digits[:len(digits) // 2], digits[len(digits) // 2:]
        v = str_to_int(head) * 10 ** len(tail) + str_to_int(tail)
        return -v if text.startswith("-") else v


def frac_str(v: Fraction) -> str:
    """str(v) of a rational, "n" or "n/d", with every digit."""
    num = int_to_str(v.numerator)
    return num if v.denominator == 1 else f"{num}/{int_to_str(v.denominator)}"


def parse_poly(text: str, ring) -> MultiPoly:
    """Parse a sum of rational-coefficient monomial terms.

    Accepts the conventional computer-algebra text form: ``*`` for products,
    ``^`` (or ``**``) for powers, integer or ``n/d`` coefficients, and ``+``/
    ``-`` separating terms.  No parentheses.
    """
    ring = tuple(ring)
    index = {name: i for i, name in enumerate(ring)}
    s = text.replace("**", "^").replace(" ", "").replace("\n", "")
    if not s:
        raise ValueError("empty polynomial text")
    # split into signed terms
    terms_text = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > start and s[i - 1] not in "+-/^*":
            terms_text.append(s[start:i])
            start = i
    terms_text.append(s[start:])
    out: dict = {}
    for term in terms_text:
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeff = sign
        exps = [0] * len(ring)
        for factor in term.split("*"):
            if not factor:
                continue
            if factor[0].isdigit():
                num, _, den = factor.partition("/")
                coeff *= Fraction(str_to_int(num), str_to_int(den or "1"))
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise VarError(f"unknown variable {name!r} in {factor!r}")
            exps[index[name]] += int(power) if power else 1
        m = tuple(exps)
        prev = out.get(m, 0) + coeff
        if prev:
            out[m] = prev
        else:
            out.pop(m, None)
    return MultiPoly(ring, out)


def format_poly(p: MultiPoly, order: MonomialOrder | None = None) -> str:
    """Deterministic text form, terms descending under `order` (grevlex default)."""
    if p.is_zero():
        return "0"
    if order is None:
        order = grevlex(p.ring)
    pieces = []
    for m in sorted(p.terms, key=order.key, reverse=True):
        c = p.terms[m]
        factors = []
        for name, e in zip(p.ring, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(c)
        if not mono:
            body = frac_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{frac_str(mag)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# JSON wire form
# ---------------------------------------------------------------------------

def _descending_terms(p: MultiPoly, order: MonomialOrder | None) -> list:
    """The (monomial, coefficient) items of p, descending under `order`
    (grevlex by default)."""
    if order is None:
        order = grevlex(p.ring)
    if order.kind == "lex":
        # the order key is the exponent tuple itself, and no two are equal
        return sorted(p.terms.items(), reverse=True)
    key = order.key
    return sorted(p.terms.items(), key=lambda t: key(t[0]), reverse=True)


def poly_to_dict(p: MultiPoly, order: MonomialOrder | None = None) -> dict:
    """JSON-ready form: variables plus terms (descending under `order`)."""
    items = _descending_terms(p, order)

    def terms(digits):
        return [{"exp": list(m), "num": digits(c.numerator),
                 "den": digits(c.denominator)} for m, c in items]
    try:
        return {"vars": list(p.ring), "terms": terms(str)}
    except ValueError:  # a number past the int-to-str limit, rarely met
        return {"vars": list(p.ring), "terms": terms(int_to_str)}


def _wire_int(value) -> int:
    """An exponent, numerator or denominator of the wire form: an int or a
    decimal string.  A float or a bool would be truncated, so it raises."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an int or a decimal string, not {value!r}")
    return str_to_int(value)


def poly_from_dict(data: Mapping) -> MultiPoly:
    """The inverse of ``poly_to_dict``.  ``vars`` other than a list of
    distinct strings, or an exponent vector given twice, raises ValueError;
    a float or bool number raises TypeError."""
    ring = data["vars"]
    if not (isinstance(ring, list) and all(isinstance(v, str) for v in ring)
            and len(set(ring)) == len(ring)):
        raise ValueError(f"vars must be a list of distinct names, not {ring!r}")
    ring = tuple(ring)
    terms = {}
    for t in data["terms"]:
        m = tuple(map(_wire_int, t["exp"]))
        if m in terms:
            raise ValueError(f"exponent vector {list(m)} given twice")
        terms[m] = Fraction(_wire_int(t["num"]), _wire_int(t["den"]))
    return MultiPoly(ring, terms)


def poly_dumps(p: MultiPoly, order: MonomialOrder | None = None) -> str:
    """Compact JSON text of ``poly_to_dict(p, order)``, byte for byte what
    ``json.dumps(..., separators=(",", ":"))`` writes of it.

    The text is formatted directly, one ``%`` template per term, since
    exponents and digits need no JSON escaping.  A number past the
    int-to-str limit makes ``%d`` raise, and only then is the dict built
    and dumped.
    """
    term = '{"exp":[%s],"num":"%%d","den":"%%d"}' % ",".join(["%d"] * len(p.ring))
    head = json.dumps(list(p.ring), separators=(",", ":"))
    try:
        body = ",".join([term % (*m, c.numerator, c.denominator)
                         for m, c in _descending_terms(p, order)])
    except ValueError:  # a number past the int-to-str limit, rarely met
        return json.dumps(poly_to_dict(p, order), separators=(",", ":"))
    return f'{{"vars":{head},"terms":[{body}]}}'


def poly_loads(text: str) -> MultiPoly:
    return poly_from_dict(json.loads(text))

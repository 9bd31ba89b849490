"""Exact univariate helpers, real cubic solving by Cardano's formulas, and
real-root isolation for any square-free factor.

Polynomials here are ascending lists of Fractions.  The square-free split
and ``poly_gcd`` clear denominators once and run over the integers, on
primitive coefficient lists with pseudo-remainder gcds and exact integer
division; only the factors they return become monic Fractions again.
Discriminant signs are decided exactly on rationals; only the final radicals
are evaluated numerically, with mpmath at the caller's working precision
(``conics.RADICAL_DPS`` digits), entered through ``to_mpf``.  Any other
square-free factor has its real roots isolated by a Sturm sequence and
bisected until they are correctly rounded, all at dyadic points n/2^k, where
every sign is that of one integer (``_dyadic_value``).

mpmath is imported inside the functions that compute with it, and numpy
not at all, so a process that only builds offset polynomials or Groebner
bases loads neither.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isinf, isqrt, lcm

from .errors import ParamError


# ---------------------------------------------------------------------------
# exact coefficient-list arithmetic
# ---------------------------------------------------------------------------

def normalize(cs):
    """Drop trailing zeros; [] is the zero polynomial."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_divmod(a, b):
    a = list(a)
    b = normalize(b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
        a.pop()
    return normalize(q), normalize(a)


def poly_gcd(a, b):
    """The monic gcd of two rational polynomials ([] when both are zero)."""
    return _monic(_int_gcd(_primitive(a), _primitive(b)))


def derivative(cs):
    return normalize([c * i for i, c in enumerate(cs)][1:])


def to_mpf(v) -> mp.mpf:
    import mpmath as mp
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


def to_float(v) -> float:
    """float(v) of an exact value or an mpf; a value past the float range,
    an mpf that rounds to inf included, is a ParamError."""
    try:
        if not isinf(f := float(v)):
            return f
    except OverflowError:
        pass
    raise ParamError("a value is past the float range")


def squarefree_decomposition(cs):
    """Yun's algorithm: [(multiplicity, monic square-free factor), ...].

    Runs on the primitive integer form of `cs`; the factors are unique up
    to a scalar, so they equal the split computed over the rationals.
    """
    p = _primitive(cs)
    if len(p) <= 1:
        return []
    out = []
    c = _int_gcd(p, _primitive(derivative(p)))
    w = _int_exact_div(p, c)
    i = 1
    while len(w) > 1:
        y = _int_gcd(w, c)
        qi = _int_exact_div(w, y)
        if len(qi) > 1:
            out.append((i, _monic(qi)))
        w = y
        c = _int_exact_div(c, y)
        i += 1
    return out


# integer coefficient lists: primitive means coprime integer coefficients
# with a positive leading one; [] is the zero polynomial

def _primitive(cs):
    """The primitive integer list proportional to the rational list `cs`."""
    cs = normalize(cs)
    if not cs:
        return cs
    den = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    content = gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [v // content for v in ints]


def _monic(ints):
    return [Fraction(v, ints[-1]) for v in ints] if ints else []


def _pseudo_rem(a, b):
    """The pseudo-remainder: lc(b)**(deg a - deg b + 1) * a mod b over the
    integers, for deg a >= deg b."""
    a = list(a)
    lead, n = b[-1], len(b)
    while len(a) >= n:
        top, k = a.pop(), len(a) - n + 1
        a = [lead * v for v in a]
        for i, bv in enumerate(b[:-1]):
            a[i + k] -= top * bv
        a = normalize(a)
    return a


def _int_gcd(a, b):
    """Primitive gcd of two primitive integer lists (primitive PRS)."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a


def _int_exact_div(a, b):
    """The quotient of primitive integer lists where b divides a: by Gauss's
    lemma it is itself an integer list, so every step divides exactly."""
    a = list(a)
    lead, n = b[-1], len(b)
    q = [0] * (len(a) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        v = q[k] = a[k + n - 1] // lead
        for i, bv in enumerate(b):
            a[i + k] -= v * bv
    return q


def real_cbrt(x):
    """Real cube root (mpmath's cbrt takes the principal complex branch)."""
    import mpmath as mp
    x = mp.mpf(x)
    return mp.cbrt(x) if x >= 0 else -mp.cbrt(-x)


def fraction_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return Fraction(n, d)
    return None


def sqrt_exact(q: Fraction):
    """sqrt of a nonnegative rational: Fraction when perfect, else mpf."""
    import mpmath as mp
    s = fraction_sqrt(q)
    return s if s is not None else mp.sqrt(to_mpf(q))


# ---------------------------------------------------------------------------
# closed-form real roots, degree <= 3
# ---------------------------------------------------------------------------

def real_roots_quadratic(cs):
    c0, c1, c2 = cs
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    s = sqrt_exact(disc)
    if not isinstance(s, Fraction):
        c0, c1, c2 = map(to_mpf, cs)
    # -c1 and s taken with the sign of -c1 add with no cancellation; the
    # other root is c0/c2 over that one (Vieta), or its negative when c1 is 0
    big = (-c1 - s if c1 > 0 else s - c1) / (2 * c2)
    return sorted({big, c0 / (c2 * big) if c1 else -big})


def real_roots_cubic(cs):
    """Real roots of an exact cubic, by Cardano with exact discriminant logic.

    Multiple roots (discriminant zero) come out as exact rationals; otherwise
    the one-real-root case uses real cube roots and the three-real-root case
    the trigonometric form, both at the current mpmath precision.  Their
    error is absolute, of the largest root's size, so the smallest root is
    taken again from the product -d of all three (Vieta).
    """
    import mpmath as mp
    c0, c1, c2, c3 = cs
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    p = c - b * b / 3
    q = 2 * b**3 / 27 - b * c / 3 + d
    shift = -b / 3
    disc = -4 * p**3 - 27 * q * q  # > 0: three distinct real roots
    if disc == 0:
        if p == 0:
            return [shift]  # triple root
        double = -3 * q / (2 * p)
        simple = 3 * q / p
        return sorted({double + shift, simple + shift})
    pf, qf, sf = to_mpf(p), to_mpf(q), to_mpf(shift)
    if disc < 0:
        # one real root r0 by real cube roots; with m the complex pair's
        # squared modulus, z^3 + b z^2 + c z + d = (z - r0)(z^2 + (b + r0) z
        # + m), and r0 = -d/m is the smallest root when r0^2 <= m
        rad = mp.sqrt(qf * qf / 4 + pf**3 / 27)
        r0 = real_cbrt(-qf / 2 + rad) + real_cbrt(-qf / 2 - rad) + sf
        m = to_mpf(c) + r0 * (to_mpf(b) + r0)
        return [-to_mpf(d) / m if r0 * r0 <= m else r0]
    # three distinct real roots: trigonometric form; the smallest in size is
    # -d over the product of the other two
    m = 2 * mp.sqrt(-pf / 3)
    theta = mp.acos(3 * qf / (pf * m)) / 3
    _, r1, r2 = sorted((m * mp.cos(theta - 2 * mp.pi * k / 3) + sf
                        for k in range(3)), key=abs)
    return sorted([-to_mpf(d) / (r1 * r2), r1, r2])


def real_roots_exact(cs):
    """All real roots of an exact univariate polynomial.

    Strategy: strip the root at zero, exploit evenness by substituting
    z = t^2, split into square-free factors (Yun), and finish each factor of
    degree <= 3 in closed form; any other factor goes to Sturm isolation
    (_real_roots_sturm).  The conic offsets' eliminants always split into
    closed-form factors, so their reports keep their exact values.

    Returns a sorted list of roots, exact Fractions where they are found
    rational and mpmath floats at the working precision otherwise: Cardano's
    radicals, and Sturm roots correctly rounded.
    """
    import mpmath as mp
    cs = normalize([Fraction(c) for c in cs])
    if not cs:
        raise ValueError("zero polynomial has every root")
    roots = set()
    while cs[0] == 0:
        cs = cs[1:]
        roots = {Fraction(0)}
    if len(cs) == 1:
        return sorted(roots, key=to_mpf)
    if all(c == 0 for i, c in enumerate(cs) if i % 2 == 1) and len(cs) > 4:
        for z in real_roots_exact(cs[::2]):
            if z > 0:
                v = sqrt_exact(z) if isinstance(z, Fraction) else mp.sqrt(z)
                roots.update({v, -v})
        return sorted(roots, key=to_mpf)
    for _, factor in squarefree_decomposition(cs):
        deg = len(factor) - 1
        if deg == 1:
            roots.add(-factor[0] / factor[1])
        elif deg == 2:
            roots.update(real_roots_quadratic(factor))
        elif deg == 3:
            roots.update(real_roots_cubic(factor))
        else:
            roots.update(_real_roots_sturm(_primitive(factor)))
    return sorted(roots, key=to_mpf)


# ---------------------------------------------------------------------------
# any square-free factor: Sturm isolation, then bisection, on dyadics
# ---------------------------------------------------------------------------

def _dyadic_value(p, n, k):
    """2^(kd) p(n/2^k), of the sign of p at n/2^k, for an integer list p:
    the sum of c_i n^i 2^(k(d-i)) by Horner's rule, from the top down."""
    v = 0
    for i, c in enumerate(reversed(p)):
        v = v * n + (c << k * i)
    return v


def _real_roots_sturm(p):
    """The real roots of a square-free primitive integer list p, degree >= 1.

    The Sturm sequence (p, p', then negated pseudo-remainders by positive-led
    divisors over their positive contents, so no sign flips) counts the roots
    in (a, b] as the drop in its sign changes from a to b, each sign read
    from ``_dyadic_value``.  Bisection splits (-bound, bound] (Cauchy's
    bound, rounded up to a power of two), as integer ends n at a shared k
    for n/2^k, until each interval holds one root; then _round_root bisects
    each to its correctly rounded mpf.  A midpoint that is a root is kept as
    a Fraction and divided out, and the search starts over on the quotient.
    """
    seq = [p, derivative(p)]
    while len(seq[-1]) > 1:
        b = seq[-1] if seq[-1][-1] > 0 else [-v for v in seq[-1]]
        rem = _pseudo_rem(seq[-2], b)
        content = gcd(*rem)
        seq.append([-v // content for v in rem])

    def changes(n, k):
        signs = [v > 0 for v in (_dyadic_value(s, n, k) for s in seq) if v]
        return sum(u != w for u, w in zip(signs, signs[1:]))

    bound = 1 << (2 + max(map(abs, p)) // p[-1]).bit_length()
    todo = [(-bound, bound, 0, changes(-bound, 0), changes(bound, 0))]
    brackets = []
    while todo:
        lo, hi, k, va, vb = todo.pop()
        if va - vb == 1:
            brackets.append((lo, hi, k))
        elif va > vb:
            mid, k = lo + hi, k + 1
            if not _dyadic_value(p, mid, k):
                m = Fraction(mid, 1 << k)
                rest = _int_exact_div(p, [-m.numerator, m.denominator])
                return [m] + (_real_roots_sturm(rest) if len(rest) > 1 else [])
            vm = changes(mid, k)
            todo += [(2 * lo, mid, k, va, vm), (mid, 2 * hi, k, vm, vb)]

    return [_round_root(p, lo, hi, k) for lo, hi, k in brackets]


def _round_root(p, lo, hi, k):
    """The one root of the integer list p in (lo/2^k, hi/2^k), at whose ends
    p has opposite signs: correctly rounded to an mpf at the working
    precision, or a Fraction if it is a dyadic midpoint.  Each step halves
    the interval by the sign of ``_dyadic_value`` at its midpoint until both
    ends round to one mpf, which the root rounds to too, as rounding is
    monotone; the ends become mpfs only once they lie within an ulp of the
    larger.  The ends stay aligned dyadics, so a root on a rounding boundary
    is met as a midpoint.
    """
    import mpmath as mp
    prec, lo_positive = mp.mp.prec, _dyadic_value(p, lo, k) > 0
    while ((hi - lo).bit_length() + prec > max(-lo, hi).bit_length() + 1
           or mp.mpf((lo, -k)) != mp.mpf((hi, -k))):
        mid, k = lo + hi, k + 1
        v = _dyadic_value(p, mid, k)
        if not v:
            return Fraction(mid, 1 << k)
        lo, hi = (mid, 2 * hi) if (v > 0) == lo_positive else (2 * lo, mid)
    return mp.mpf((lo, -k))

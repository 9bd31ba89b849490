"""Exact univariate helpers, the real roots of exact polynomials by Sturm
isolation, and the closed catalogue's radicals.

Polynomials here are ascending coefficient lists.  The square-free split
clears denominators once and runs over the integers, on primitive
coefficient lists with pseudo-remainder gcds and exact integer division,
and its factors stay primitive integer lists.  ``real_roots_exact`` uses
no root formula: it isolates every root by Sturm sequences and refines it
by quadratic interval refinement, at dyadic points n/2^k where each sign
is that of one integer (``_dyadic_value``), until it is correctly rounded
at the caller's working precision (``conics.RADICAL_DPS`` digits).
``real_cbrt`` and ``sqrt_exact`` are the closed catalogue's radicals, and
``real_roots_cubic`` is Cardano's cubic, which no route calls.  Exact
values enter mpmath through ``to_mpf``, and an mpf leaves it exactly
through ``to_fraction``.

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


def derivative(cs):
    return normalize([c * i for i, c in enumerate(cs)][1:])


def to_mpf(v) -> mp.mpf:
    import mpmath as mp
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


def to_fraction(v) -> Fraction:
    """v as an exact rational: an int or a Fraction as it is, an mpf as its
    dyadic value, read without importing mpmath (``man_exp`` gives the
    mantissa without its sign)."""
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    man, exp = v.man_exp
    if v < 0:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


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
    """Yun's algorithm: [(multiplicity, square-free factor), ...], each
    factor a primitive integer list.

    Runs on the primitive integer form of `cs`; the factors are unique up
    to a scalar, so they are the split computed over the rationals, made
    primitive.
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
            out.append((i, qi))
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


# ---------------------------------------------------------------------------
# every real root: Sturm isolation, then quadratic interval refinement
# ---------------------------------------------------------------------------

def real_roots_exact(cs):
    """All real roots of an exact univariate polynomial, sorted exactly
    (``to_fraction``): Fractions where they are found rational, otherwise
    mpmath floats correctly rounded at the working precision.

    The root at zero is stripped, and each square-free factor (Yun), a
    primitive integer list as it comes, has its roots isolated by its Sturm
    sequence (``_isolate``) and rounded once (``_round_root``).  An even
    polynomial is split in z = t^2, and each factor q(z) goes back to
    q(t^2), isolated on its positive roots only; -t is t's exact negation,
    since rounding to nearest is symmetric.  No root formula is used, so
    these roots check the closed catalogue's.
    """
    cs = normalize([Fraction(c) for c in cs])
    if not cs:
        raise ValueError("zero polynomial has every root")
    roots = set()
    while cs[0] == 0:
        cs = cs[1:]
        roots = {Fraction(0)}
    even = not any(cs[1::2])
    for _, q in squarefree_decomposition(cs[::2] if even else cs):
        if even:
            q = [c for v in q for c in (v, 0)][:-1]
        for z in _isolate(q, even):
            t = _round_root(*z)
            roots.update((t, -t) if even else (t,))
    return sorted(roots, key=to_fraction)


def _dyadic_value(p, n, k):
    """2^(kd) p(n/2^k), of the sign of p at n/2^k, for an integer list p:
    the sum of c_i n^i 2^(k(d-i)) by Horner's rule, from the top down."""
    v = 0
    for i, c in enumerate(reversed(p)):
        v = v * n + (c << k * i)
    return v


def _isolate(p, positive=False):
    """The real roots of a square-free primitive integer list p, degree >= 1,
    or only its positive ones (those of an even p, whose negative roots are
    their negations), as isolating intervals (q, lo, hi, k): q, p or a
    factor of it, has opposite signs at the ends n/2^k and its one root
    between them, and hi - lo is a power of two.

    The Sturm sequence (p, p', then negated pseudo-remainders by positive-led
    divisors over their positive contents, so no sign flips) counts the
    roots in (a, b] as the drop in its sign changes from a to b.  Bisection
    splits (-bound, bound], or (0, bound] (Cauchy's bound, rounded up to a
    power of two), until each interval holds one root.  A midpoint that is
    a root is isolated by its linear factor, which is divided out of p.
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
    start = 0 if positive else -bound
    todo = [(start, bound, 0, changes(start, 0), changes(bound, 0))]
    brackets = []
    while todo:
        lo, hi, k, va, vb = todo.pop()
        if va - vb == 1:
            brackets.append((p, lo, hi, k))
        elif va > vb:
            mid, k = lo + hi, k + 1
            if not _dyadic_value(p, mid, k):
                m = Fraction(mid, 1 << k)
                linear = [-m.numerator, m.denominator]
                return [(linear, 2 * lo, 2 * hi, k)] + _isolate(
                    _int_exact_div(p, linear), positive)
            vm = changes(mid, k)
            todo += [(2 * lo, mid, k, va, vm), (mid, 2 * hi, k, vm, vb)]
    return brackets


def _round_root(p, lo, hi, k):
    """The one root of the integer list p in (lo/2^k, hi/2^k), at whose ends
    p has opposite signs: a Fraction where it is found rational, otherwise
    correctly rounded to an mpf at the working precision, once both ends
    round to one mpf (built only once they lie within an ulp of the larger).

    Quadratic interval refinement (Abbott 2014): the secant through the
    cached end values picks the point of a grid of 2^s cells nearest its
    zero, and the sign there picks the cell beside it toward the root.
    When p changes sign across that cell it is the new interval and s
    doubles; otherwise s halves.  At s = 1 the grid point is the midpoint,
    so the step is a bisection and always succeeds.  Every interval has
    integer ends and a power-of-two width, so every dyadic inside it is
    met as a grid point in time, a root on a rounding boundary included,
    and returned exactly.  A rational root n/d has d dividing p's leading
    coefficient lc, so the fraction of denominator at most lc nearest the
    last interval's midpoint is its one candidate, tested exactly.
    """
    import mpmath as mp
    if len(p) == 2:
        return Fraction(-p[0], p[1])
    prec, deg, s = mp.mp.prec, len(p) - 1, 1
    f_lo, f_hi = _dyadic_value(p, lo, k), _dyadic_value(p, hi, k)
    while not ((hi - lo).bit_length() + prec <= max(-lo, hi).bit_length() + 1
               and mp.mpf((lo, -k)) == mp.mpf((hi, -k))):
        # the grid (lo << s, hi << s) at scale 2^-(k + s) has cells of width
        # hi - lo, and i is the inner grid point nearest the secant's zero
        den = f_lo - f_hi
        i = min(max(((f_lo << s + 1) + den) // (2 * den), 1), (1 << s) - 1)
        w, ks = hi - lo, k + s
        m = (lo << s) + i * w
        v = _dyadic_value(p, m, ks)
        if not v:
            return Fraction(m, 1 << ks)
        # e ends the cell beside m toward the root; the ends keep their values
        e = m + w if (v > 0) == (f_lo > 0) else m - w
        u = (f_lo << s * deg if e == lo << s else f_hi << s * deg
             if e == hi << s else _dyadic_value(p, e, ks))
        if not u:
            return Fraction(e, 1 << ks)
        if (u > 0) == (v > 0):  # s > 1 here: a bisection always lands
            s //= 2
            continue
        (lo, f_lo), (hi, f_hi) = sorted([(m, v), (e, u)])
        k, s = ks, 2 * s
    m = Fraction(lo + hi, 1 << k + 1).limit_denominator(p[-1])
    n, d = m.numerator, m.denominator
    if lo * d < n << k < hi * d and not sum(
            c * n ** i * d ** (len(p) - 1 - i) for i, c in enumerate(p)):
        return m
    return mp.mpf((lo, -k))

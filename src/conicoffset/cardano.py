"""Exact univariate helpers and real cubic solving by Cardano's formulas.

Polynomials here are ascending lists of Fractions.  The square-free split
and ``poly_gcd`` clear denominators once and run over the integers, on
primitive coefficient lists with pseudo-remainder gcds and exact integer
division; only the factors they return become monic Fractions again.
Discriminant signs are decided exactly on rationals; only the final radicals
are evaluated numerically, with mpmath at the caller's working precision
(the package convention is 60 decimal digits, i.e. 50 guard digits past a
float).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import mpmath as mp

from .errors import RootPairingError


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


def eval_poly_at(cs, t):
    acc = mp.mpf(0) if not isinstance(t, Fraction) else Fraction(0)
    for c in reversed(cs):
        acc = acc * t + (c if isinstance(t, Fraction) else mp.mpf(c.numerator) / c.denominator)
    return acc


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


# ---------------------------------------------------------------------------
# closed-form real roots, degree <= 3
# ---------------------------------------------------------------------------

def real_roots_linear(cs):
    return [Fraction(-cs[0], 1) / cs[1]]


def real_roots_quadratic(cs):
    c0, c1, c2 = cs
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    s = fraction_sqrt(disc)
    if s is not None:
        return sorted({(-c1 + s) / (2 * c2), (-c1 - s) / (2 * c2)})
    sd = mp.sqrt(mp.mpf(disc.numerator) / disc.denominator)
    c1f = mp.mpf(c1.numerator) / c1.denominator
    c2f = mp.mpf(c2.numerator) / c2.denominator
    return sorted([(-c1f + sd) / (2 * c2f), (-c1f - sd) / (2 * c2f)])


def real_roots_cubic(cs):
    """Real roots of an exact cubic, by Cardano with exact discriminant logic.

    Multiple roots (discriminant zero) come out as exact rationals; otherwise
    the one-real-root case uses real cube roots and the three-real-root case
    the trigonometric form, both at the current mpmath precision.
    """
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
    pf = mp.mpf(p.numerator) / p.denominator
    qf = mp.mpf(q.numerator) / q.denominator
    sf = mp.mpf(shift.numerator) / shift.denominator
    if disc < 0:
        # one real root: Cardano with real cube roots
        rad = mp.sqrt(qf * qf / 4 + pf**3 / 27)
        t = real_cbrt(-qf / 2 + rad) + real_cbrt(-qf / 2 - rad)
        return [t + sf]
    # three distinct real roots: trigonometric form
    m = 2 * mp.sqrt(-pf / 3)
    theta = mp.acos(3 * qf / (pf * m)) / 3
    return sorted(m * mp.cos(theta - 2 * mp.pi * k / 3) + sf for k in range(3))


def real_roots_exact(cs):
    """All real roots of an exact univariate polynomial.

    Strategy: strip the root at zero, exploit evenness by substituting
    z = t^2, split into square-free factors (Yun), and finish each factor of
    degree <= 3 in closed form.  The elimination univariates this package
    produces always decompose into such factors; anything else raises
    RootPairingError rather than guessing.

    Returns a sorted list of roots, exact Fractions where the closed forms
    are rational and mpmath floats otherwise.
    """
    cs = normalize([Fraction(c) for c in cs])
    if not cs:
        raise ValueError("zero polynomial has every root")
    roots = set()
    mult0 = 0
    while cs[0] == 0:
        cs = cs[1:]
        mult0 += 1
    if mult0:
        roots.add(Fraction(0))
    if len(cs) == 1:
        return sorted(roots, key=_root_key)
    if all(c == 0 for i, c in enumerate(cs) if i % 2 == 1) and len(cs) > 4:
        for z in real_roots_exact(cs[::2]):
            if isinstance(z, Fraction):
                if z > 0:
                    s = fraction_sqrt(z)
                    v = s if s is not None else mp.sqrt(mp.mpf(z.numerator) / z.denominator)
                    roots.update({v, -v})
                elif z == 0:
                    roots.add(Fraction(0))
            elif z > 0:
                v = mp.sqrt(z)
                roots.update({v, -v})
            elif z == 0:
                roots.add(Fraction(0))
        return sorted(roots, key=_root_key)
    for _, factor in squarefree_decomposition(cs):
        deg = len(factor) - 1
        if deg == 1:
            roots.update(real_roots_linear(factor))
        elif deg == 2:
            roots.update(real_roots_quadratic(factor))
        elif deg == 3:
            roots.update(real_roots_cubic(factor))
        elif all(c == 0 for i, c in enumerate(factor) if i % 2 == 1):
            roots.update(real_roots_exact(factor))
        else:
            raise RootPairingError(
                f"irreducible factor of degree {deg} exceeds closed-form range")
    return sorted(roots, key=_root_key)


def _root_key(v):
    return mp.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else v

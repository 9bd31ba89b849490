"""Exact univariate helpers, real cubic solving by Cardano's formulas, and
real-root isolation for any square-free factor.

Polynomials here are ascending lists of Fractions.  The square-free split
and ``poly_gcd`` clear denominators once and run over the integers, on
primitive coefficient lists with pseudo-remainder gcds and exact integer
division; only the factors they return become monic Fractions again.
Discriminant signs are decided exactly on rationals; only the final radicals
are evaluated numerically, with mpmath at the caller's working precision
(``conics.RADICAL_DPS`` digits), entered through ``to_mpf``.  Any other
square-free factor has its real roots isolated exactly by a Sturm sequence,
then narrowed by ``bracketed_roots``, the package's one bracketed 1-D
solver.  It advances a whole array of brackets together, each by the steps
a scalar Illinois loop would take, so its callers hand it all their brackets
at once: the Sturm search one object array of mpf intervals per factor, the
tracer one float array of its crossing grid edges per trace.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import mpmath as mp
import numpy as np


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
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


def eval_poly_at(cs, t):
    acc = mp.mpf(0) if not isinstance(t, Fraction) else Fraction(0)
    for c in reversed(cs):
        acc = acc * t + (c if isinstance(t, Fraction) else to_mpf(c))
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


def sqrt_exact(q: Fraction):
    """sqrt of a nonnegative rational: Fraction when perfect, else mpf."""
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
    rational and mpmath floats at the working precision otherwise.
    """
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
            elif z == 0:
                roots.add(Fraction(0))
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
# any square-free factor: Sturm isolation, then bracketed refinement
# ---------------------------------------------------------------------------

def bracketed_roots(phi, lo, hi, flo, fhi, width):
    """Roots of many brackets at once, as one array: bracket k holds the root
    of its function on [lo[k], hi[k]], floats or mpfs, given flo[k] and
    fhi[k], its values at the ends, of opposite signs.  phi(t, idx) returns
    the values at the points t of the brackets numbered idx; `width` is one
    stop width or one per bracket.

    Each bracket takes the steps of Illinois regula falsi (Dowell & Jarratt,
    BIT 1971) on its own: when the same end moves twice running, the other
    end's stored value is halved; when it has moved three times running the
    step is a bisection instead (near a double zero of phi beside the
    bracket, regula falsi alone walks into it until rounding fakes a sign
    change).  A bracket never widens.  It stops on an exact zero or once it
    is no wider than its width (a few ulps of lo and hi at least), and gives
    the end with the smaller |phi|.  Every round evaluates phi once, on the
    brackets still running; the arithmetic is elementwise, so a bracket's
    steps and result do not depend on the others.
    """
    lo, hi, flo, fhi = (np.array(v) for v in (lo, hi, flo, fhi))
    out = np.where(flo == 0.0, lo, hi)  # an end that is a zero is the root
    idx = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    width = np.broadcast_to(width, lo.shape)
    n = idx.size
    # per running bracket: its ends, their values, the stored values that the
    # Illinois rule halves, the end that moved last (-1 lo, +1 hi), how often
    # it moved running, and the stop width
    state = (idx, lo[idx], hi[idx], flo[idx], fhi[idx], flo[idx], fhi[idx],
             np.zeros(n, int), np.zeros(n, int), width[idx])
    with np.errstate(all="ignore"):
        while state[0].size:
            idx, lo, hi, flo, fhi, slo, shi, moved, run, width = state
            going = hi - lo > width
            if not going.all():
                done = ~going
                out[idx[done]] = np.where(abs(flo[done]) <= abs(fhi[done]),
                                          lo[done], hi[done])
                state = tuple(v[going] for v in state)
                continue
            rf = lo + (hi - lo) * (slo / (slo - shi))
            t = np.where(run >= 3, 0.5 * (lo + hi), np.where(rf < hi, rf, hi))
            ft = phi(t, idx)
            hit = ft == 0.0
            out[idx[hit]] = t[hit]
            lo_moves = (ft < 0.0) == (flo < 0.0)
            side = np.where(lo_moves, -1, 1)
            run = np.where(side == moved, run + 1, 1)
            halve = run >= 2
            state = tuple(v[~hit] for v in (
                idx,
                np.where(lo_moves, t, lo), np.where(lo_moves, hi, t),
                np.where(lo_moves, ft, flo), np.where(lo_moves, fhi, ft),
                np.where(lo_moves, ft, np.where(halve, slo * 0.5, slo)),
                np.where(lo_moves, np.where(halve, shi * 0.5, shi), ft),
                side, run, width))
    return out


def _real_roots_sturm(p):
    """The real roots of a square-free primitive integer list p, degree >= 1.

    The Sturm sequence (p, p', then negated pseudo-remainders by positive-led
    divisors over their positive contents, so no sign flips) counts the roots
    in (a, b] as the drop in its sign changes from a to b.  Bisection at
    dyadic midpoints splits (-bound, bound] (Cauchy's bound, rounded up to a
    power of two) until each interval holds one root; then one
    bracketed_roots call narrows them all at the working precision.  A
    midpoint that is a root is kept as a Fraction and divided out, and the
    search starts over on the quotient.
    """
    seq = [p, derivative(p)]
    while len(seq[-1]) > 1:
        b = seq[-1] if seq[-1][-1] > 0 else [-v for v in seq[-1]]
        rem = _pseudo_rem(seq[-2], b)
        content = gcd(*rem)
        seq.append([-v // content for v in rem])

    def changes(t):
        signs = [v > 0 for v in (eval_poly_at(s, t) for s in seq) if v]
        return sum(u != w for u, w in zip(signs, signs[1:]))

    bound = Fraction(2 ** (2 + max(map(abs, p)) // p[-1]).bit_length())
    todo, brackets = [(-bound, bound, changes(-bound), changes(bound))], []
    while todo:
        a, b, va, vb = todo.pop()
        if va - vb == 1:
            brackets.append((a, b))
        elif va > vb:
            m = (a + b) / 2
            if eval_poly_at(p, m) == 0:
                rest = _int_exact_div(p, [-m.numerator, m.denominator])
                return [m] + (_real_roots_sturm(rest) if len(rest) > 1 else [])
            vm = changes(m)
            todo += [(a, m, va, vm), (m, b, vm, vb)]

    def mpfs(values):
        return np.array([to_mpf(v) for v in values], dtype=object)

    def narrow(ends):
        # the roots in the brackets (a, b] of ends, each to 8 eps of its
        # larger end, and the brackets and stop widths as mpf arrays
        lo, hi = mpfs(a for a, _ in ends), mpfs(b for _, b in ends)
        width = mpfs(8 * mp.eps * max(abs(u), abs(v)) for u, v in zip(lo, hi))
        return bracketed_roots(
            lambda t, _: mpfs(eval_poly_at(p, v) for v in t), lo, hi,
            mpfs(eval_poly_at(p, a) for a, _ in ends),
            mpfs(eval_poly_at(p, b) for _, b in ends), width), lo, hi, width

    roots, lo, hi, width = narrow(brackets)
    # a root below half its bracket's larger end (only a bracket reaching
    # to 0 has one) is not resolved by that end's width: narrow again to
    # within twice the width around it, until the width follows the root
    again = np.arange(len(roots))
    while True:
        again = again[[w > 16 * mp.eps * abs(r)
                       for r, w in zip(roots[again], width[again])]]
        if not again.size:
            return list(roots)
        roots[again], lo[again], hi[again], width[again] = narrow(
            [(max(a, r - 2 * w), min(b, r + 2 * w)) for a, b, r, w
             in zip(lo[again], hi[again], roots[again], width[again])])

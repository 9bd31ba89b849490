"""Exact univariate helpers and Cardano-based real root extraction."""

import hashlib
import math
import random
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from conicoffset import conics, reference
from conicoffset.cardano import (_primitive, _real_roots_sturm,
                                 bracketed_roots, derivative, eval_poly_at,
                                 fraction_sqrt, normalize, poly_divmod,
                                 poly_gcd, real_cbrt, real_roots_cubic,
                                 real_roots_exact, real_roots_quadratic,
                                 squarefree_decomposition, to_mpf)
from conicoffset.poly import content_normalize, gradient
from conicoffset.verify import conic_from_case


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_fraction_sqrt():
    assert fraction_sqrt(F(9, 4)) == F(3, 2)
    assert fraction_sqrt(F(2)) is None
    assert fraction_sqrt(F(-1)) is None
    assert fraction_sqrt(F(0)) == 0


def test_real_cbrt():
    assert abs(real_cbrt(-8) + 2) < 1e-15
    assert abs(real_cbrt(27) - 3) < 1e-15


def test_divmod_gcd():
    a = poly_mul([F(-1), F(1)], [F(2), F(1)])  # (t-1)(t+2)
    q, r = poly_divmod(a, [F(-1), F(1)])
    assert q == [F(2), F(1)] and r == []
    g = poly_gcd(poly_mul(a, a), a)
    assert g == [F(-2), F(-1), F(1)] or g == [c / g[-1] for c in g]  # monic
    assert poly_gcd([F(1)], [F(3), F(1)]) == [F(1)]


def test_squarefree_decomposition():
    # (t-1)^2 (t+2)^3
    p = poly_mul(poly_mul([F(-1), F(1)], [F(-1), F(1)]),
                 poly_mul(poly_mul([F(2), F(1)], [F(2), F(1)]), [F(2), F(1)]))
    parts = squarefree_decomposition(p)
    assert [(m, len(q) - 1) for m, q in parts] == [(2, 1), (3, 1)]


def test_cubic_three_real():
    roots = real_roots_cubic([F(-6), F(11), F(-6), F(1)])
    assert [float(r) for r in roots] == pytest.approx([1, 2, 3], abs=1e-12)


def test_cubic_one_real():
    cs = [F(1), F(1), F(0), F(1)]  # t^3 + t + 1
    with mp.workdps(50):
        (root,) = real_roots_cubic(cs)
        assert abs(eval_poly_at(cs, root)) < mp.mpf("1e-45")


def test_cubic_multiple_roots_exact():
    # (t-2)^2 (t+1): double root must come back as an exact rational
    roots = real_roots_cubic([F(4), F(0), F(-3), F(1)])
    assert roots == [F(-1), F(2)]
    # triple root
    assert real_roots_cubic([F(-1), F(3), F(-3), F(1)]) == [F(1)]


@pytest.mark.parametrize("solve,cs,tiny", [
    # z^2 + z + 2/3 10^-200: -c1 + sqrt(disc) cancels to the tiny root
    (real_roots_quadratic, [F(2, 3) / 10 ** 200, F(1), F(1)],
     -F(2, 3) / 10 ** 200),
    # one real root, 4/9 10^-270, beside a complex pair of modulus 4/3:
    # Cardano's shift -b/3 = 4/3 10^-90 cancels
    (real_roots_cubic, [-F(64, 27) / 10 ** 270, F(16, 3), -4 / F(10 ** 90),
                        F(1)], F(4, 9) / 10 ** 270),
    (real_roots_cubic, [-2 / F(10 ** 100), F(1), F(0), F(1)], 2 / F(10 ** 100)),
    # three real roots, the middle one near 10^-50/2
    (real_roots_cubic, [1 / F(10 ** 50), F(-2), F(0), F(1)], None),
])
def test_closed_form_roots_keep_a_tiny_root(solve, cs, tiny):
    # a root far smaller than the others keeps full relative precision
    with mp.workdps(60):
        roots = solve(cs)
        small = min(roots, key=abs)
        if tiny is None:  # the root itself, to 60 digits, by Newton from 0
            tiny = mp.mpf(0)
            for _ in range(4):
                tiny -= eval_poly_at(cs, tiny) / eval_poly_at(derivative(cs),
                                                              tiny)
        assert small != 0
        assert abs(small / to_mpf(tiny) - 1) < mp.mpf("1e-55")


def test_sturm_keeps_a_tiny_root():
    # the cubic above has the root 4/9 10^-270 (to about 360 digits) in an
    # isolating bracket that reaches to 0, wider than the root by far; its
    # stop width follows the root, alone and beside the root 5
    cubic = [-F(64, 27) / 10 ** 270, F(16, 3), -4 / F(10 ** 90), F(1)]
    with mp.workdps(60):
        tiny = to_mpf(F(4, 9) / 10 ** 270)
        (alone,) = _real_roots_sturm(_primitive(cubic))
        beside, five = real_roots_exact(poly_mul(cubic, [F(-5), F(1)]))
        assert five == 5
        for got in (alone, beside):
            assert abs(got - tiny) <= 16 * mp.eps * tiny


def test_real_roots_exact_even_square_structure():
    # t^2 (t^2-2)^2 (t^2-3): the elimination-univariate shape
    p = [F(0), F(0), F(1)]
    for factor in ([F(-2), F(0), F(1)], [F(-2), F(0), F(1)], [F(-3), F(0), F(1)]):
        p = poly_mul(p, factor)
    with mp.workdps(50):
        roots = [float(r) for r in real_roots_exact(p)]
    assert roots == pytest.approx(
        [-3 ** 0.5, -2 ** 0.5, 0.0, 2 ** 0.5, 3 ** 0.5], abs=1e-14)


@pytest.mark.parametrize("linear_power", [1, 2])
@pytest.mark.parametrize("quartic,linear,radicals", [
    ([-2, 0, 0, 0, 1], [-1, 1],
     lambda: [-mp.root(2, 4), mp.mpf(1), mp.root(2, 4)]),
    ([1, 0, -3, 0, 1], [2, 1],
     lambda: [mp.mpf(-2), -(mp.sqrt(5) + 1) / 2, -(mp.sqrt(5) - 1) / 2,
              (mp.sqrt(5) - 1) / 2, (mp.sqrt(5) + 1) / 2]),
], ids=["t^4-2", "t^4-3t^2+1"])
def test_real_roots_exact_even_factor_meets_its_radicals(quartic, linear,
                                                         radicals,
                                                         linear_power):
    # an even quartic times a rational linear factor: with the linear factor
    # squared, the square-free split hands the even quartic on alone, and
    # Sturm isolation finds its roots at the working precision
    p = [F(c) for c in quartic]
    for _ in range(linear_power):
        p = poly_mul(p, [F(c) for c in linear])
    with mp.workdps(60):
        got = real_roots_exact(p)
        want = radicals()
        assert len(got) == len(want)
        for r, w in zip(got, want):
            assert abs(to_mpf(r) - w) < mp.mpf("1e-55")


def test_real_roots_exact_rational():
    p = poly_mul(poly_mul([F(-1), F(1)], [F(-1), F(1)]), [F(2), F(1)])
    assert real_roots_exact(p) == [F(-2), F(1)]


# verbatim copy of the Fraction-based square-free split the integer one
# replaced, with the helpers it used
def _old_monic(cs):
    cs = normalize(cs)
    if not cs:
        return cs
    lead = cs[-1]
    return [c / lead for c in cs]


def _old_poly_gcd(a, b):
    a, b = _old_monic(a), _old_monic(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, _old_monic(r)
    return a


def _old_squarefree_decomposition(cs):
    p = _old_monic(cs)
    if len(p) <= 1:
        return []
    out = []
    c = _old_poly_gcd(p, derivative(p))
    w, _ = poly_divmod(p, c)
    i = 1
    while len(w) > 1:
        y = _old_poly_gcd(w, c)
        qi, _ = poly_divmod(w, y)
        if len(qi) > 1:
            out.append((i, _old_monic(qi)))
        w = y
        c, _ = poly_divmod(c, y)
        i += 1
    return out


def _reference_eliminants():
    out = []
    for case_id in range(1, 10):
        case = reference.case(case_id)
        g = conics.offset_poly_closed_form(conic_from_case(case), F(case["r"])).g
        system = (g, *(content_normalize(q) for q in gradient(g, ["x", "y"])))
        out.extend(conics._singular_eliminants(system))
    return out


def _random_products(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = [F(rng.randint(-50, 50) or 1, rng.randint(1, 40))]
        for _ in range(rng.randint(1, 4)):
            factor = [F(rng.randint(-30, 30), rng.randint(1, 30))
                      for _ in range(rng.randint(1, 3))]
            factor.append(F(rng.choice([-1, 1]) * rng.randint(1, 25),
                            rng.randint(1, 25)))
            for _ in range(rng.randint(1, 3)):
                p = poly_mul(p, factor)
        out.append(p)
    return out


def test_squarefree_matches_rational_oracle():
    inputs = _reference_eliminants() + _random_products(91, 300)
    for cs in inputs:
        assert squarefree_decomposition(cs) == _old_squarefree_decomposition(cs)
    products = _random_products(92, 60)
    for a, b, c in zip(products, products[1:], products[2:]):
        ab, bc = poly_mul(a, b), poly_mul(b, c)
        assert poly_gcd(ab, bc) == _old_poly_gcd(ab, bc)


def _isolation_inputs():
    """Square-free integer polynomials whose one square-free factor is odd,
    of degree 5, 7 or 9, beyond Cardano and the even substitution; the last
    one also has the rational roots -1/3 and 1/2."""
    rng = random.Random(2006)
    out = []
    for deg in (5, 7, 9):
        found = 0
        while found < 3:
            p = [F(rng.randint(-20, 20)) for _ in range(deg)]
            p.append(F(rng.randint(1, 9)))
            parts = squarefree_decomposition(p)
            if p[0] and len(parts) == 1 and parts[0][0] == 1:
                out.append(p)
                found += 1
    out.append(poly_mul(poly_mul(out[0], [F(1), F(3)]), [F(-1), F(2)]))
    return out


def test_real_roots_exact_isolates_any_square_free_factor():
    # the roots of factors no closed form solves, against mpmath's polyroots
    with mp.workdps(60):
        for p in _isolation_inputs():
            got = real_roots_exact(p)
            found = mp.polyroots([mp.mpf(c.numerator) for c in reversed(p)],
                                 maxsteps=200, extraprec=200)
            want = sorted(mp.re(z) for z in found
                          if abs(mp.im(z)) < mp.mpf("1e-30"))
            assert len(got) == len(want), p
            for r, w in zip(got, want):
                v = mp.mpf(r.numerator) / r.denominator \
                    if isinstance(r, F) else r
                assert abs(v - w) < mp.mpf("1e-40"), (p, r, w)
    # a midpoint of the bisection that is a root comes back exact
    assert F(1, 2) in real_roots_exact(_isolation_inputs()[-1])


# ---------------------------------------------------------------------------
# The batched bracketed solver against the scalar loop it replaced
# ---------------------------------------------------------------------------

def bracketed_root(phi, lo, hi, flo, fhi, width):
    """The scalar solver that bracketed_roots replaced, verbatim."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    slo, shi = flo, fhi  # the stored end values, halved by the Illinois rule
    moved, run = 0, 0  # the end that moved last (-1 lo, +1 hi), and how often
    while hi - lo > width:
        if run >= 3:
            t = 0.5 * (lo + hi)
        else:
            t = min(hi, lo + (hi - lo) * (slo / (slo - shi)))
        ft = phi(t)
        if ft == 0.0:
            return t
        side = -1 if (ft < 0.0) == (flo < 0.0) else 1
        run = run + 1 if side == moved else 1
        moved = side
        if side < 0:
            lo, flo, slo = t, ft, ft
            if run >= 2:
                shi *= 0.5
        else:
            hi, fhi, shi = t, ft, ft
            if run >= 2:
                slo *= 0.5
    return lo if abs(flo) <= abs(fhi) else hi


def _horner(coeffs, t):
    acc = 0 * t
    for c in coeffs:
        acc = acc * t + c
    return acc


def _double_zero_beside(d, r):
    # (t - d)^2 (t - r), highest power first
    return [1.0, -(2 * d + r), d * d + 2 * d * r, -d * d * r]


# (coefficients from the highest power, lo, hi): a step lands on an exact
# zero; zeros at lo and at hi; a double zero beside the bracket, which makes
# the solver bisect; phi(lo) = inf, so the regula falsi point is NaN and
# min(hi, NaN) keeps hi; then seeded cubics and quintics with a sign change
SPECIAL_BRACKETS = [
    ([1.0, -0.5], 0.0, 1.0),
    ([1.0, -0.25], 0.25, 1.0),
    ([1.0, -0.75], 0.0, 0.75),
    (_double_zero_beside(0.2, 0.25), 0.21, 1.0),
    (_double_zero_beside(0.0, 0.001), 0.0001, 1.0),
    ([1e300, 0.0, 0.0, 0.0, -1e300], -1000.0, 0.0),
]


def _seeded_brackets(count):
    rng = random.Random(19)
    out = list(SPECIAL_BRACKETS)
    while len(out) < count:
        coeffs = [rng.uniform(-4, 4) for _ in range(rng.choice((4, 6)))]
        lo = rng.uniform(-3, 2)
        hi = lo + rng.uniform(1e-3, 3)
        if _horner(coeffs, lo) * _horner(coeffs, hi) < 0:
            out.append((coeffs, lo, hi))
    return out


def _steps(coeffs, lo, hi):
    """The points the scalar solver evaluates, and whether it bisects."""
    ts = []

    def phi(t):
        ts.append(t)
        return _horner(coeffs, t)
    flo, fhi = _horner(coeffs, lo), _horner(coeffs, hi)
    bracketed_root(phi, lo, hi, flo, fhi, 1e-13)
    bisects = False
    for t in ts:  # replay: is a point ever the midpoint of its bracket?
        bisects |= t == 0.5 * (lo + hi)
        if (_horner(coeffs, t) < 0.0) == (flo < 0.0):
            lo = t
        else:
            hi = t
    return ts, bisects


def test_special_brackets_cover_every_exit():
    hit, at_lo, at_hi, bisect_a, bisect_b, overflow = SPECIAL_BRACKETS
    ts, _ = _steps(*hit)
    assert ts == [0.5] and _horner(hit[0], 0.5) == 0.0
    assert _steps(*at_lo)[0] == [] and _steps(*at_hi)[0] == []
    assert _steps(*bisect_a)[1] and _steps(*bisect_b)[1]
    assert _horner(overflow[0], overflow[1]) == math.inf
    assert _steps(*overflow)[0][0] == overflow[2]


def _batched(brackets, width, make_array):
    coeffs = [c for c, _, _ in brackets]
    return bracketed_roots(
        lambda t, idx: make_array([_horner(coeffs[k], v)
                                   for k, v in zip(idx.tolist(), t.tolist())]),
        make_array([lo for _, lo, _ in brackets]),
        make_array([hi for _, _, hi in brackets]),
        make_array([_horner(c, lo) for c, lo, _ in brackets]),
        make_array([_horner(c, hi) for c, _, hi in brackets]), width)


def test_bracketed_roots_takes_the_scalar_steps_on_floats():
    brackets = _seeded_brackets(60)
    want = [bracketed_root(lambda t, c=c: _horner(c, t), lo, hi,
                           _horner(c, lo), _horner(c, hi), 1e-13)
            for c, lo, hi in brackets]
    got = _batched(brackets, 1e-13, np.array)
    assert got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    for b, w in zip(brackets, want):
        (one,) = _batched([b], 1e-13, np.array).tolist()
        assert one.hex() == w.hex()


def test_bracketed_roots_takes_the_scalar_steps_on_mpf():
    def mpfs(values):
        return np.array([mp.mpf(v) for v in values], dtype=object)

    with mp.workdps(60):
        brackets = [([mp.mpf(c) / 3 for c in cs], mp.mpf(lo), mp.mpf(hi))
                    for cs, lo, hi in _seeded_brackets(24)]
        widths = [8 * mp.eps * max(abs(lo), abs(hi)) for _, lo, hi in brackets]
        want = [bracketed_root(lambda t, c=c: _horner(c, t), lo, hi,
                               _horner(c, lo), _horner(c, hi), w)
                for (c, lo, hi), w in zip(brackets, widths)]
        got = _batched(brackets, mpfs(widths), mpfs)
        assert [v.man_exp for v in got] == [v.man_exp for v in want]
        for b, w, width in zip(brackets, want, widths):
            (one,) = _batched([b], mpfs([width]), mpfs)
            assert one.man_exp == w.man_exp


def _sturm_sweep():
    """Seeded integer polynomials of degree 4 to 7, each with a square-free
    factor of degree 4 or more, which Sturm isolation solves."""
    rng = random.Random(4077)
    out = []
    while len(out) < 60:
        p = [F(rng.randint(-30, 30)) for _ in range(4 + len(out) % 4)]
        p.append(F(rng.randint(1, 9)))
        if any(len(q) > 4 for _, q in squarefree_decomposition(p)):
            out.append(p)
    return out


def test_sturm_roots_pinned():
    # recorded with the scalar solver, the batched one giving every root of
    # the sweep (120 of them mpf) bit for bit; recorded again when the stop
    # width came to follow the root: 7 roots in brackets reaching to 0 moved,
    # three of them from 8.6-28.5 eps of the true root to within 1 eps, the
    # other four by under an eps
    h = hashlib.sha256()
    with mp.workdps(60):
        for p in _sturm_sweep():
            for r in real_roots_exact(p):
                h.update(f"{r if isinstance(r, F) else r.man_exp};".encode())
            h.update(b"|")
    assert h.hexdigest() == \
        "9db088c436f7af8956899900b4a7ee6d02861b73a4505f823eb1f412fe55db0c"

"""Exact univariate helpers and Cardano-based real root extraction."""

import hashlib
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from conicoffset import cardano, conics, reference
from conicoffset.cardano import (_dyadic_value, _int_gcd, _primitive,
                                 derivative, fraction_sqrt, normalize,
                                 poly_divmod, real_cbrt, real_roots_cubic,
                                 real_roots_exact, squarefree_decomposition,
                                 to_mpf)
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
    # the integer gcd of primitive lists is primitive, positive-led
    assert _int_gcd(_primitive(poly_mul(a, a)), _primitive(a)) == [-2, 1, 1]
    assert _int_gcd([1], [3, 1]) == [1]


def test_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divmod([F(1), F(2)], [])
    with pytest.raises(ZeroDivisionError):
        poly_divmod([F(1), F(2)], [F(0)])
    with pytest.raises(ValueError, match="every root"):
        real_roots_exact([])


def test_squarefree_decomposition():
    # (t-1)^2 (t+2)^3
    p = poly_mul(poly_mul([F(-1), F(1)], [F(-1), F(1)]),
                 poly_mul(poly_mul([F(2), F(1)], [F(2), F(1)]), [F(2), F(1)]))
    parts = squarefree_decomposition(p)
    assert parts == [(2, [-1, 1]), (3, [2, 1])]
    # the factors are primitive integer lists, not Fractions
    assert all(type(c) is int for _, q in parts for c in q)


def test_cubic_three_real():
    roots = real_roots_cubic([F(-6), F(11), F(-6), F(1)])
    assert [float(r) for r in roots] == pytest.approx([1, 2, 3], abs=1e-12)


def test_cubic_one_real():
    cs = [F(1), F(1), F(0), F(1)]  # t^3 + t + 1
    with mp.workdps(50):
        (root,) = real_roots_cubic(cs)
        assert abs(mp.polyval(cs[::-1], root)) < mp.mpf("1e-45")


def test_cubic_multiple_roots_exact():
    # (t-2)^2 (t+1): double root must come back as an exact rational
    roots = real_roots_cubic([F(4), F(0), F(-3), F(1)])
    assert roots == [F(-1), F(2)]
    # triple root
    assert real_roots_cubic([F(-1), F(3), F(-3), F(1)]) == [F(1)]


@pytest.mark.parametrize("solve,cs,tiny", [
    # z^2 + z + 2/3 10^-200: the root -2/3 10^-200 beside -1, to which the
    # quadratic formula's -c1 + sqrt(disc) cancels
    (real_roots_exact, [F(2, 3) / 10 ** 200, F(1), F(1)],
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
                tiny -= mp.polyval(cs[::-1], tiny) / mp.polyval(
                    derivative(cs)[::-1], tiny)
        assert small != 0
        assert abs(small / to_mpf(tiny) - 1) < mp.mpf("1e-55")


def test_sturm_keeps_a_tiny_root():
    # the cubic above has the root 4/9 10^-270 (to about 360 digits) in an
    # isolating bracket that reaches to 0, wider than the root by far; its
    # stop width follows the root, alone and beside the root 5
    cubic = [-F(64, 27) / 10 ** 270, F(16, 3), -4 / F(10 ** 90), F(1)]
    with mp.workdps(60):
        tiny = to_mpf(F(4, 9) / 10 ** 270)
        (alone,) = real_roots_exact(cubic)
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
        # the oracle divides with /, so it is given Fraction coefficients
        out.extend([F(c) for c in cs] for cs in conics._singular_eliminants(system))
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
        # the oracle's factors are monic, so they agree once made primitive
        assert squarefree_decomposition(cs) == [
            (m, _primitive(q)) for m, q in _old_squarefree_decomposition(cs)]
    products = _random_products(92, 60)
    for a, b, c in zip(products, products[1:], products[2:]):
        ab, bc = poly_mul(a, b), poly_mul(b, c)
        assert _int_gcd(_primitive(ab), _primitive(bc)) == \
            _primitive(_old_poly_gcd(ab, bc))


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
    # other four by under an eps; recorded again when exact dyadic bisection
    # came to return each root correctly rounded: 22 of the 122 roots moved,
    # and none moved farther from the true root (a 300-digit polyroots)
    h = hashlib.sha256()
    with mp.workdps(60):
        for p in _sturm_sweep():
            for r in real_roots_exact(p):
                h.update(f"{r if isinstance(r, F) else r.man_exp};".encode())
            h.update(b"|")
    assert h.hexdigest() == \
        "e7e2201a9d62768ddf86a692133566edf3bd0c7339387c72d829ab3ddd8cdf0e"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=12),
       st.integers(-10 ** 40, 10 ** 40), st.integers(0, 300))
def test_dyadic_value_is_the_plain_sum(p, n, k):
    # Horner's rule over the integers gives 2^(kd) p(n/2^k) as the plain
    # sum of c_i n^i 2^(k(d-i)), each term with its own power of n
    d = len(p) - 1
    assert _dyadic_value(p, n, k) == sum(c * n ** i * 2 ** (k * (d - i))
                                         for i, c in enumerate(p))


def _sign_at(cs, t):
    v = sum(c * t**i for i, c in enumerate(cs))
    return (v > 0) - (v < 0)


def _correctly_rounded(p, r):
    """Is the root r of p (square-free) a Fraction root, or an mpf whose
    rounding cell at the working precision holds its true root?  The cell
    runs from r - ulp/2 to r + ulp/2, and p changes sign across it; below a
    power of two the ulp is half as wide."""
    if isinstance(r, F):
        return _sign_at(p, r) == 0
    sign, man, exp, bc = r._mpf_
    x = F((-1) ** sign * man) * F(2) ** exp
    half = F(2) ** (exp + bc - mp.mp.prec - 1)
    below = half / 2 if man == 1 else half
    return _sign_at(p, x - below) != _sign_at(p, x + half)


@pytest.mark.parametrize("dps", [15, 60, 120])
def test_sturm_roots_are_correctly_rounded(dps):
    # every mpf root of a square-free factor is correctly rounded; one root
    # of the sweep, -1/3 of its last isolation input, is rational and comes
    # back as a Fraction, tested in integers from its final interval
    cubic = [-F(64, 27) / 10 ** 270, F(16, 3), -4 / F(10 ** 90), F(1)]
    count = 0
    with mp.workdps(dps):
        for cs in _sturm_sweep() + _isolation_inputs() + [cubic]:
            for _, factor in squarefree_decomposition(cs):
                p = _primitive(factor)
                for r in real_roots_exact(factor):
                    assert _correctly_rounded(p, r), (p, r)
                    count += not isinstance(r, F)
    assert count == 143


def _even_sweep():
    """Seeded even polynomials of degree 6 and 8 in t, cubics and quartics
    in z = t^2, some times a rational square (9t^2 - 4) and some squared;
    first (4t^2 - 1)(2t^2 - 1 - 2 10^-200), whose root t = 1/2 is rational
    and whose root sqrt(1/2 + 10^-200) agrees with sqrt(1/2) to 200
    digits."""
    rng = random.Random(1217)
    z = poly_mul([F(-1), F(4)], [-1 - F(2, 10 ** 200), F(2)])
    out = [[c for v in z for c in (v, F(0))][:-1]]
    for n in range(40):
        z = [F(rng.randint(-30, 30)) for _ in range(3 + n % 2)]
        z.append(F(rng.randint(1, 9)))
        if n % 5 == 1:
            z = poly_mul(z, [F(-4), F(9)])
        if n % 5 == 2:
            z = poly_mul(z, z)
        out.append([c for v in z for c in (v, F(0))][:-1])
    return out


def _squarefree_part(cs):
    p = [F(1)]
    for _, factor in squarefree_decomposition(cs):
        p = poly_mul(p, factor)
    return _primitive(p)


def _height_sweep():
    """Seeded polynomials the sweeps above lack: even ones of degree 20 to
    36 in t with integer coefficients up to 10^30, and products of a cubic
    or quartic with a leading coefficient up to 9 and t - c/2^j, whose
    dyadic root has a denominator 2^j of 2^4 to 2^64, larger than that
    leading coefficient."""
    rng = random.Random(3817)
    out = []
    for n in range(10):
        z = [F(rng.randint(-10 ** 30, 10 ** 30)) for _ in range(10 + n % 9)]
        z.append(F(rng.randint(1, 10 ** 30)))
        out.append([c for v in z for c in (v, F(0))][:-1])
    for n in range(10):
        q = [F(rng.randint(-30, 30)) for _ in range(3 + n % 2)]
        q.append(F(rng.randint(1, 9)))
        j = rng.randint(4, 64)
        c = rng.choice([-1, 1]) * rng.randrange(1, 1 << j + 2, 2)
        out.append(poly_mul(q, [F(-c, 1 << j), F(1)]))
    return out


@pytest.mark.parametrize("dps", [15, 60, 120])
def test_real_roots_exact_are_correctly_rounded(dps):
    # every root real_roots_exact returns, of an even polynomial or not, is
    # an exact Fraction root or correctly rounded, and t and -t are one
    # value and its exact negation; the count was 226 before the height
    # sweep added its 43 irrational roots
    count = 0
    with mp.workdps(dps):
        for cs in (_sturm_sweep() + _even_sweep() + _height_sweep()
                   + _reference_eliminants()):
            p = _squarefree_part(cs)
            roots = real_roots_exact(cs)
            for r in roots:
                assert _correctly_rounded(p, r), (cs, r)
                count += not isinstance(r, F)
            if not any(cs[1::2]):
                assert roots == [-r for r in reversed(roots)]
    assert count == 269


def test_rounding_cost_grows_with_the_log_of_the_digits(monkeypatch):
    # quadratic interval refinement doubles the bits it gains per step, so
    # eight times the digits costs a few more sign evaluations, not eight
    # times as many: plain bisection took 937 at 15 digits and 4,779 at 120
    calls = 0

    def counted(p, n, k):
        nonlocal calls
        calls += 1
        return _dyadic_value(p, n, k)

    monkeypatch.setattr(cardano, "_dyadic_value", counted)
    eliminants, counts = _reference_eliminants(), []
    for dps in (15, 120):
        calls = 0
        with mp.workdps(dps):
            for cs in eliminants:
                real_roots_exact(cs)
        counts.append(calls)
    assert counts[1] < 1.5 * counts[0], counts


@pytest.mark.parametrize("factors,rational,irrational", [
    ([[-1, 3], [2, 5]], [F(-2, 5), F(1, 3)], 0),
    # the trigonometric form gave 0.19999999999999998 and 0.33333333333333337
    ([[-1, 2], [-1, 3], [-1, 5]], [F(1, 5), F(1, 3), F(1, 2)], 0),
    # the root (sqrt(13) - 3)/2 = 0.30 has 1/3, a root of the same factor,
    # as its nearest fraction of denominator at most 3: the candidate lies
    # outside its interval, and the root stays irrational
    ([[-1, 3], [-1, 3, 1]], [F(1, 3)], 2),
    # even: z = 4/9, 2 and -1 in z = t^2; t = 2/3 is exact, and sqrt(2) was
    # rounded twice, 1.4142135623730949 at 15 digits
    ([[-4, 0, 9], [-2, 0, -1, 0, 1]], [F(-2, 3), F(2, 3)], 2),
    # t = 1 + 2^-53 lies halfway between two 53-bit floats, so at 15 digits
    # no interval around it rounds to one float: its refinement ends only
    # by meeting t as a grid point, beside the root sqrt(3 2^68 + 1)
    ([[-(1 + F(1, 2 ** 53)) ** 2, 0, 1], [-3 * 2 ** 68 - 1, 0, 1]],
     [-1 - F(1, 2 ** 53), 1 + F(1, 2 ** 53)], 2),
])
@pytest.mark.parametrize("dps", [15, 60])
def test_rational_roots_of_any_factor_stay_fractions(factors, rational,
                                                     irrational, dps):
    p = [F(1)]
    for factor in factors:
        p = poly_mul(p, [F(c) for c in factor])
    with mp.workdps(dps):
        roots = real_roots_exact(p)
        assert [r for r in roots if isinstance(r, F)] == rational
        assert len(roots) == len(rational) + irrational
        assert all(_correctly_rounded(_primitive(p), r) for r in roots)

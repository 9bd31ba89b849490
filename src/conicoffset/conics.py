"""Conic-specific machinery: variety ideals, offset-curve polynomials via
closed form and via Groebner elimination, critical offsets, and singular
points of the offset varieties.

Conventions (fixed throughout the package): the parabola has its vertex at
the origin with vertical axis and focal distance |p|; the ellipse and
hyperbola are centered at the origin with the major (resp. transverse)
semi-axis a along the y-axis and a >= b > 0.  The offset curve at distance
r > 0 is the zero set of a single polynomial g(x, y) containing both parallel
lines, one on each side of the base conic.

Singular points have two independent routes.  ``singular_points`` reads the
closed-form catalogue, and a figure pins its bare points
(``catalogue_pins``).  ``singular_points_via_elimination`` reports
``singular_locus``, which serves any g (the tracer pins it for a g of no
known conic): one grevlex completion of <g, g_x, g_y>, unreduced, the
minimal polynomials of multiplication by x and by y on the quotient ring
(the generators of the elimination ideals in x alone and in y alone), their
exact real roots, and one pass over the (x root, y root) pairs that keeps
a pair where every polynomial of the system reads 0 (by the rule below); no
Newton iteration is involved.  Each route only
finds bare points; one report path tags them, and one complex-point rule
counts the non-real singular points whose coordinates are each real or
purely imaginary.  The tag rule: a point on the axis (x = 0) is virtual
below r_crit and on-curve from r_crit up, the ellipse's equator pair
(y = 0) is virtual above a^2/b, and every other point is split.  An
ellipse's catalogue changes shape at b^2/a (r_crit), b, a and a^2/b, its
smallest and largest radii of curvature (the paper ties critical offsets to
curvature); above a^2/b the four split points are complex and the equator
pair is an isolated real zero of g, and comparing r*b with a^2 decides that
exactly.

The split tag covers the offset's cusps, and the equator pair, a node of g,
for the ellipse when a < r < a^2/b and for the hyperbola when r > a.  A cusp
is the conic's point where its radius of curvature equals r, moved by r
along the normal toward the concave side (``_split_squares``).  There
|beta'|^2 = (a b r)^(2/3) in the standard parameterization, so the cusps are
real exactly when (a b r)^(2/3) >= b^2, and for the ellipse <= a^2 as well:
for r_crit <= r <= a^2/b (ellipse) or r >= r_crit (hyperbola).

Only ``_catalogue``, ``singular_locus`` and ``reference.eval_radical``, which
make 60-digit values, set mpmath's precision (to RADICAL_DPS, under
``_RADICAL_LOCK``); every other decision and ordering is exact.
``hessian_definite`` tells the tracer which points of a locus are isolated
(a figure's pins take ``_tag``'s verdict instead); it and
``singular_locus`` read a value as 0 unless it exceeds 10^-(RADICAL_DPS/2)
times its terms' summed size.  Every such value, and every gradient residual
of a report, is taken exactly, in integers, at the rounded point
(``_exact_evaluator``); a float appears only in the residual's last step.
mpmath is imported by the functions that compute radicals or roots, so
building ideals and offset polynomials does not load it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, inf, isqrt, lcm

from . import cardano
from .cardano import to_float, to_fraction, to_mpf
from .errors import (EliminationError, ParamError, ResourceLimitError,
                     RootPairingError)
from .fixtures import CENTRAL_RING, PARABOLA_RING, general_offset_poly
from .groebner import (DEFAULT_MAX_PAIRS, GroebnerBasis, Ideal, buchberger,
                       elimination_ideal, minimal_polynomials, reduce_basis)
from .poly import (MultiPoly, block, content_normalize, gradient, grevlex,
                   substitute)

VARIETY_RING = ("y0", "x0", "x", "y")
PARABOLA_SYMBOLIC_RING = ("y0", "x0") + PARABOLA_RING
CENTRAL_SYMBOLIC_RING = ("y0", "x0") + CENTRAL_RING

RADICAL_DPS = 60  # 50 guard digits past double precision
# a value reads 0 when |value| * _ZERO_RATIO <= its terms' summed size
_ZERO_RATIO = 10 ** (RADICAL_DPS // 2)
# the most bits in the numerator or the denominator of an exact parameter.  It
# admits 10^1000 (3,322 bits).  At this height, with a, b and r of unrelated
# denominators, the elimination route of `singular` took 85 s on a 2-core
# Xeon and every other subcommand under 5 s; parameters past it are refused
# before any power of them is taken
MAX_PARAM_BITS = 3400
# the buchberger limits of singular_locus's completion of <g, g_x, g_y>
LOCUS_MAX_PAIRS, LOCUS_MAX_DEGREE = DEFAULT_MAX_PAIRS, 200

# mpmath's working precision is process-global; _catalogue, singular_locus and
# reference.eval_radical, the only functions that set it, hold this lock there
_RADICAL_LOCK = threading.RLock()

PARABOLA, ELLIPSE, HYPERBOLA = "parabola", "ellipse", "hyperbola"


def _frac(v) -> Fraction:
    """v as an exact rational: a ParamError when it is none, and a
    ResourceLimitError, before any power of it is taken, when its numerator
    or denominator has more than MAX_PARAM_BITS bits."""
    try:
        v = Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParamError(f"expected an exact rational, got {v!r}") from exc
    bits = max(v.numerator.bit_length(), v.denominator.bit_length())
    if bits > MAX_PARAM_BITS:
        raise ResourceLimitError(f"an exact parameter has {bits} bits, above "
                                 f"the limit {MAX_PARAM_BITS}")
    return v


def _offset(r) -> Fraction:
    """The offset r as an exact rational; r <= 0 is a ParamError."""
    r = _frac(r)
    if r <= 0:
        raise ParamError("offset r must be positive")
    return r


@dataclass(frozen=True)
class ConicSpec:
    """A validated nondegenerate conic: Parabola{p}, Ellipse{a,b}, Hyperbola{a,b}."""

    kind: str
    params: tuple

    @classmethod
    def parabola(cls, p) -> "ConicSpec":
        p = _frac(p)
        if p == 0:
            raise ParamError("parabola needs p != 0")
        return cls(PARABOLA, (("p", p),))

    @classmethod
    def ellipse(cls, a, b) -> "ConicSpec":
        a, b = _frac(a), _frac(b)
        if not a > b > 0:
            raise ParamError("ellipse needs a > b > 0 (circles excluded)")
        return cls(ELLIPSE, (("a", a), ("b", b)))

    @classmethod
    def hyperbola(cls, a, b) -> "ConicSpec":
        # a == b (rectangular hyperbola) is allowed: the worked subcritical
        # reference case uses a = b = 1 and every formula stays valid there
        a, b = _frac(a), _frac(b)
        if not a >= b > 0:
            raise ParamError("hyperbola needs a >= b > 0")
        return cls(HYPERBOLA, (("a", a), ("b", b)))

    def param_map(self) -> dict:
        return dict(self.params)

    # p, a and b by name; a parameter the kind lacks raises AttributeError
    def _param(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise AttributeError(name)

    p = property(lambda self: self._param("p"))
    a = property(lambda self: self._param("a"))
    b = property(lambda self: self._param("b"))

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"


def r_crit(conic: ConicSpec) -> Fraction:
    """Critical offset: the semi-latus rectum, 2|p| or b^2/a.

    Below it the two parallel lines are smooth; at it a cusp appears on the
    concave side; above it the singular point splits into three.
    """
    if conic.kind == PARABOLA:
        return 2 * abs(conic.p)
    return conic.b ** 2 / conic.a


def base_conic_poly(kind, params, x=None, y=None) -> MultiPoly:
    """The base conic's polynomial: 4 p y - x^2, or b^2 y^2 +- a^2 x^2 - a^2 b^2
    (+ for the ellipse, - for the hyperbola).

    `params` maps p, or a and b, to rationals or to polynomials over the ring
    of `x` and `y`; x and y default to the variables of the ring ("x", "y").
    The float layer sums terms in the order of the result's terms, so the
    expression below fixes that order.
    """
    if x is None:
        ring = ("x", "y")
        x, y = MultiPoly.variable(ring, "x"), MultiPoly.variable(ring, "y")
    if kind == PARABOLA:
        return 4 * params["p"] * y - x ** 2
    a, b = params["a"], params["b"]
    sign = 1 if kind == ELLIPSE else -1
    return b ** 2 * y ** 2 + sign * a ** 2 * x ** 2 - a ** 2 * b ** 2


@lru_cache(maxsize=None)
def _generators(kind):
    """The envelope generators f1, f2, f3 of `kind` with the offset and the
    conic parameters as ring variables: ``(ring, (f1, f2, f3))``.  Built on
    first use and kept, one entry per kind."""
    ring = PARABOLA_SYMBOLIC_RING if kind == PARABOLA else CENTRAL_SYMBOLIC_RING
    v = {name: MultiPoly.variable(ring, name) for name in ring}
    y0, x0, x, y, r = v["y0"], v["x0"], v["x"], v["y"], v["r"]
    if kind == PARABOLA:
        p = v["p"]
        f1 = base_conic_poly(kind, {"p": p}, x0, y0)
        f3 = 2 * x * p - 2 * x0 * p + x0 * y - x0 * y0
    else:
        a, b = v["a"], v["b"]
        sign = 1 if kind == ELLIPSE else -1
        f1 = base_conic_poly(kind, {"a": a, "b": b}, x0, y0)
        f3 = b ** 2 * (x - x0) * y0 - sign * a ** 2 * (y - y0) * x0
    f2 = (y - y0) ** 2 + (x - x0) ** 2 - r ** 2
    return ring, (f1, f2, f3)


def build_ideal(conic, r=None) -> Ideal:
    """The envelope variety ideal <f1, f2, f3>.

    With ``r`` given (exact rational > 0) the generators are specialized to
    the conic's parameters and cleared of denominators, in the ring
    (y0, x0, x, y).  With ``r=None`` the offset and the conic parameters stay
    symbolic ring variables; ``conic`` may then be a bare kind string.
    """
    kind = conic if isinstance(conic, str) else conic.kind
    if kind not in (PARABOLA, ELLIPSE, HYPERBOLA):
        raise ParamError(f"unknown conic kind {kind!r}")
    ring, gens = _generators(kind)
    if r is not None:
        if not isinstance(conic, ConicSpec):
            raise ParamError("a ConicSpec is required for a specialized ideal")
        values = conic.param_map() | {"r": _offset(r)}
        gens = tuple(substitute(f, values) for f in gens)
        ring = VARIETY_RING
    return Ideal(ring, tuple(content_normalize(f) for f in gens))


@dataclass(frozen=True)
class OffsetCurve:
    """The implicit polynomial of both parallel lines at offset r."""

    conic: ConicSpec
    r: Fraction
    g: MultiPoly  # content-normalized, ring ("x", "y")
    source: str  # "closed-form" or "elimination"


@lru_cache(maxsize=None)
def _closed_form_program(kind: str):
    """The stored general offset polynomial of `kind` as an integer program.

    Returns ``(names, tops, terms, ranked)``: the parameters in fixture ring
    order; each one's largest exponent; for every fixture term, in fixture
    term order, ``(integer coefficient, slots, (ex, ey))``, where ``slots``
    index one power per parameter in the list of the tables of powers
    0..top of each parameter in turn; and the distinct (ex, ey) monomials in
    descending grevlex order.  Built on first use and kept, one entry per
    kind.
    """
    general = general_offset_poly(kind)
    ix, iy = general.ring.index("x"), general.ring.index("y")
    params = [i for i in range(len(general.ring)) if i not in (ix, iy)]
    tops = tuple(max(m[i] for m in general.terms) for i in params)
    starts = [sum(tops[:j]) + j for j in range(len(params))]
    terms = tuple((c.numerator, tuple(s + m[i] for s, i in zip(starts, params)),
                   (m[ix], m[iy]))
                  for m, c in general.terms.items())
    ranked = tuple(sorted({t[2] for t in terms}, key=grevlex(("x", "y")).key,
                          reverse=True))
    return tuple(general.ring[i] for i in params), tops, terms, ranked


def offset_poly_closed_form(conic: ConicSpec, r) -> OffsetCurve:
    """Specialize the stored general offset polynomial; exact and immediate.

    The work is in integers.  With each parameter v = n/d of top degree T in
    the fixture, a term's factor v**e becomes n**e * d**(T - e): every term is
    scaled by the same positive integer, the product of the d**T.  Terms are
    summed per (x, y) monomial in fixture order, a monomial leaving the sum
    when its partial sum cancels and re-entering at the end when a later term
    brings it back, then the integer content is divided out and the sign set
    by the grevlex-leading term.  That is term for term what
    ``content_normalize`` gives for the ``Fraction`` substitution, in the same
    term order.  Only the float evaluators depend on that order: they sum
    terms in it, so it fixes their rounding (at r = a, r = b or r = r_crit
    some monomials cancel and come back, e.g. ellipse(2, 1) at r = 1).
    """
    r = _offset(r)
    names, tops, program, ranked = _closed_form_program(conic.kind)
    values = dict(conic.params)
    values["r"] = r
    powers = []
    for name, top in zip(names, tops):
        n, d = values[name].numerator, values[name].denominator
        powers += [n ** e * d ** (top - e) for e in range(top + 1)]
    out: dict = {}
    for c, slots, m in program:
        for k in slots:
            c *= powers[k]
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    content = gcd(*out.values())
    if out[next(m for m in ranked if m in out)] < 0:
        content = -content
    g = MultiPoly._trusted(("x", "y"),
                           {m: Fraction(c // content) for m, c in out.items()})
    return OffsetCurve(conic=conic, r=r, g=g, source="closed-form")


def offset_poly_elimination(conic: ConicSpec, r) -> OffsetCurve:
    """Derive the offset polynomial by Groebner elimination of (y0, x0): one
    grevlex/grevlex block-order completion under ``buchberger``'s default
    budgets, whose members in Q[x, y] alone are reduced (by the Elimination
    Theorem, a Groebner basis of the elimination ideal).  Every elimination
    order gives this generator (a lex run: ``buchberger`` under ``lex``,
    ``reduce_basis``, ``elimination_ideal``); it agrees up to a rational
    scalar with the closed form, and the test suite enforces both."""
    ideal = build_ideal(conic, r)
    order = block(ideal.ring, 2)
    members = elimination_ideal(buchberger(ideal, order), {"x", "y"})
    kept = reduce_basis(GroebnerBasis(order, tuple(members))).polys
    if len(kept) != 1:
        raise EliminationError(
            f"expected one surviving generator, found {len(kept)}")
    g = content_normalize(substitute(kept[0], {"y0": 0, "x0": 0}))
    return OffsetCurve(conic=conic, r=_frac(r), g=g, source="elimination")


# ---------------------------------------------------------------------------
# singular points
# ---------------------------------------------------------------------------

SUBCRITICAL, CRITICAL, SUPERCRITICAL = "subcritical", "critical", "supercritical"
VIRTUAL, ON_CURVE, SPLIT = "virtual", "on-curve", "split"


@dataclass(frozen=True)
class SingularPoint:
    x: object  # Fraction when exact, float otherwise
    y: object
    tag: str
    residual_grad: float

    def as_floats(self):
        return float(self.x), float(self.y)


@dataclass(frozen=True)
class SingularPointReport:
    conic: ConicSpec
    r: Fraction
    r_crit: Fraction
    regime: str
    points: tuple
    complex_count: int
    outside_reference_range: bool
    source: str


def _exact_evaluator(*polys):
    """Compile polys over ("x", "y") for exact evaluation at a point.

    ``evaluate(x, y)``, each coordinate a Fraction or an mpf taken at its
    dyadic value (``to_fraction``), returns ``den`` and an iterator of each
    polynomial's ``(value, size)`` in turn, so a caller that stops early
    evaluates no more.  All are integers: at the point, a polynomial reads
    value/den, and the sum of its terms' absolute values (Higham, Accuracy
    and Stability of Numerical Algorithms, 5.1) reads size/den.  The
    coefficients are cleared of denominators by one common multiple, and
    each power x^i is taken as n^i d^(top - i) for x = n/d, top being the
    largest exponent of x in the polys (so for y); both change no sign and
    no ratio between any two of these numbers.  The power of two in d is
    applied to each term as one shift, so a dyadic point (every mpf) costs
    no multiplication by it.
    """
    mult = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    tops = [max((m[k] for p in polys for m in p.terms), default=0) for k in (0, 1)]
    program = [[(c.numerator * (mult // c.denominator), i, j)
                for (i, j), c in p.terms.items()] for p in polys]

    def evaluate(x, y):
        den, powers = mult, []
        for v, top in zip((x, y), tops):
            v = to_fraction(v)
            n, d = v.numerator, v.denominator
            k = (d & -d).bit_length() - 1  # d = q 2^k with q odd
            q = d >> k
            powers.append([(n ** e * q ** (top - e), k * (top - e))
                           for e in range(top + 1)])
            den *= d ** top
        px, py = powers

        def values():
            for terms in program:
                value = size = 0
                for c, i, j in terms:
                    (u, a), (w, b) = px[i], py[j]
                    term = c * u * w << a + b
                    value += term
                    size += abs(term)
                yield value, size
        return den, values()

    return evaluate


def _root_ratio(n: int, d: int) -> float:
    """sqrt(n)/d for integers n >= 0 and d > 0, as a float: the root is
    taken as isqrt(n 4^k) / 2^k with isqrt(n 4^k) >= 2^119 (unless n is 0),
    so its floor moves it by under 2^-119 relatively, and the quotient is
    rounded once by integer true division; inf past the float range."""
    k = max(0, 120 - n.bit_length() // 2)
    try:
        return isqrt(n << 2 * k) / (d << k)
    except OverflowError:
        return inf


def _signed_squares(conic: ConicSpec):
    """(A, B) = (a^2, b^2) of an ellipse and (a^2, -b^2) of a hyperbola.  The
    central formulas here are the ellipse's; B carries b^2 -> -b^2."""
    b2 = conic.b ** 2
    return conic.a ** 2, b2 if conic.kind == ELLIPSE else -b2


def _axis_squares(conic: ConicSpec, r: Fraction):
    """(t12, t34) of a central conic: the squares y^2 of the axis pair
    (0, +-sqrt(t12)) and x^2 of the equator pair (+-sqrt(t34), 0)."""
    A, B = _signed_squares(conic)
    return (A - B) * (B - r * r) / B, (A - B) * (r * r - A) / A


def _beyond_largest_radius(conic: ConicSpec, r: Fraction) -> bool:
    """An ellipse offset past a^2/b, its largest radius of curvature; r*b
    against a^2 decides it exactly."""
    return conic.kind == ELLIPSE and r * conic.b > conic.a ** 2


def _complex_count(conic: ConicSpec, r: Fraction, regime: str) -> int:
    """The complex singular points a report names, counted exactly.

    They are the non-real common zeros of g, g_x and g_y whose coordinates
    are each real or purely imaginary; the 4 (parabola) or 8 (central conic)
    zeros with both coordinates non-real are not counted.  The parabola's
    pair is complex up to r_crit.  A central conic's axis and equator pairs
    are complex while t12 resp. t34 < 0, and its 4 split points below r_crit,
    where x is imaginary, and, for the ellipse, above a^2/b, where y is
    (the signs of x^2 and y^2 in ``_split_squares``).
    """
    if conic.kind == PARABOLA:
        return 0 if regime == SUPERCRITICAL else 2
    t12, t34 = _axis_squares(conic, r)
    split_complex = regime == SUBCRITICAL or _beyond_largest_radius(conic, r)
    return 2 * (t12 < 0) + 2 * (t34 < 0) + 4 * split_complex


def _cbrt_minus(c: Fraction, v: Fraction):
    """cbrt(c) - v for exact rationals c and v, as an mpf: (c - v^3) /
    (w^2 + w v + v^2) with w = cbrt(c).  The numerator is exact, so the
    difference keeps its digits and its sign however close w is to v."""
    w, vf = cardano.real_cbrt(to_mpf(c)), to_mpf(v)
    return to_mpf(c - v ** 3) / (w * w + w * vf + vf * vf)


def _split_squares(conic: ConicSpec, r: Fraction):
    """(x^2, y^2) of a central conic's split points, as mpfs: the cusps of
    the offset, where the conic's radius of curvature equals r.

    With (A, B) from ``_signed_squares``, let W = B sin^2 t + A cos^2 t.  On
    the ellipse beta(t) = (b cos t, a sin t), W = |beta'(t)|^2, the curvature
    is ab / W^(3/2) and the radius equals r where W^3 = A B r^2; then
    cos^2 t = (W - B)/(A - B) and sin^2 t = (A - W)/(A - B).  Moving beta(t)
    by r along the unit normal toward the concave side, -(a cos t, b sin t)
    / sqrt(W), gives (cos t (B - W)/b, sin t (A - W)/a), hence
    x^2 = (W - B)^3 / (B (A - B)) and y^2 = (A - W)^3 / (A (A - B)).  The
    hyperbola (b sinh t, a cosh t) is the same algebra with cos^2 t ->
    -sinh^2 t, sin^2 t -> cosh^2 t and W = -|beta'(t)|^2.

    W - B and W - A come from ``_cbrt_minus``, so their signs are exact and
    change exactly at the regime boundaries: x^2 >= 0 from r_crit up, and
    y^2 >= 0 up to a^2/b for the ellipse and always for the hyperbola.
    """
    A, B = _signed_squares(conic)
    c = A * B * r * r
    return (_cbrt_minus(c, B) ** 3 / to_mpf(B * (A - B)),
            -_cbrt_minus(c, A) ** 3 / to_mpf(A * (A - B)))


def _tag(conic: ConicSpec, r: Fraction, regime: str, x, y) -> str:
    """The one tag rule.  An axis point (x = 0) is virtual below r_crit and
    on-curve from r_crit up; the ellipse's equator pair (y = 0) is virtual
    above a^2/b, an isolated real zero of g; every other point is split."""
    if x == 0:
        return VIRTUAL if regime == SUBCRITICAL else ON_CURVE
    if y == 0 and _beyond_largest_radius(conic, r):
        return VIRTUAL
    return SPLIT


def _catalogue(conic: ConicSpec, r: Fraction, regime: str) -> list:
    """The closed form's real singular points as (x, y) pairs, each
    coordinate a Fraction or a RADICAL_DPS mpf.  Each +- group is a set, so
    a zero square gives one point."""
    import mpmath as mp
    with _RADICAL_LOCK, mp.workdps(RADICAL_DPS):
        if conic.kind == PARABOLA:
            # beta(t) = (t, t^2/(4p)) has radius of curvature 2|p| s^3 with
            # s^2 = 1 + (t/2p)^2, so s^2 = cbrt((r/2p)^2) at the cusp; moved
            # by r toward the concave side it is (t (1 - s^2), p (3 s^2 - 1))
            p = conic.p
            points = [(Fraction(0), p + r * r / (4 * p))]
            if regime == SUPERCRITICAL:
                s2_1 = _cbrt_minus((r / (2 * p)) ** 2, Fraction(1))  # s^2 - 1
                xs = mp.sqrt(to_mpf(4 * p * p) * s2_1 ** 3)
                points += [(x, to_mpf(p) * (3 * s2_1 + 2)) for x in {xs, -xs}]
            return points
        a, b = conic.a, conic.b
        t12, t34 = _axis_squares(conic, r)
        points = []
        if t12 >= 0:
            yv = cardano.sqrt_exact(t12)
            points += [(Fraction(0), y) for y in {yv, -yv}]
        if t34 >= 0:
            xv = cardano.sqrt_exact(t34)
            points += [(x, Fraction(0)) for x in {xv, -xv}]
        # the ellipse's cusps are real only below a^2/b; at a^2/b they are
        # the equator pair, above it they are complex
        if regime == SUPERCRITICAL and (conic.kind == HYPERBOLA or r * b < a * a):
            xs, ys = map(mp.sqrt, _split_squares(conic, r))
            points += product({xs, -xs}, {ys, -ys})
        return points


def _regime(conic: ConicSpec, r: Fraction) -> str:
    """r against r_crit: SUBCRITICAL below it, CRITICAL at it, SUPERCRITICAL
    above it."""
    rc = r_crit(conic)
    return SUBCRITICAL if r < rc else CRITICAL if r == rc else SUPERCRITICAL


def _report(conic: ConicSpec, r, source: str, points_of) -> SingularPointReport:
    """Validate r, find the points with ``points_of(r, regime, g)``, tag them
    (``_tag``), attach gradient residuals, sort by (y, x), count the complex
    points and freeze the report.

    ``g`` is the closed-form offset polynomial, whose coefficients are
    integers; the residuals use its raw (not content-normalized) gradient.
    ``points_of`` gives Fraction or RADICAL_DPS mpf coordinates.  A point's
    residual sqrt(g_x^2 + g_y^2)/scale, scale being the largest |coefficient|
    of g, g_x and g_y, is taken exactly at the reported (rounded) point and
    rounded to a float once (``_root_ratio``), so a rational point reads 0.
    """
    r = _offset(r)
    regime = _regime(conic, r)
    g = offset_poly_closed_form(conic, r).g
    gx, gy = gradient(g, ["x", "y"])
    scale = max(abs(c.numerator) for q in (g, gx, gy) for c in q.terms.values())
    grad = _exact_evaluator(gx, gy)
    points = []
    for xv, yv in points_of(r, regime, g):
        den, ((vx, _), (vy, _)) = grad(xv, yv)
        x, y = (v if isinstance(v, Fraction) else to_float(v) for v in (xv, yv))
        points.append(SingularPoint(x=x, y=y, tag=_tag(conic, r, regime, xv, yv),
                                    residual_grad=_root_ratio(vx * vx + vy * vy,
                                                              den * scale)))
    points.sort(key=lambda s: (to_float(s.y), to_float(s.x)))
    outside = conic.kind != PARABOLA and not (conic.a > conic.b > r)
    return SingularPointReport(conic=conic, r=r, r_crit=r_crit(conic),
                               regime=regime, points=tuple(points),
                               complex_count=_complex_count(conic, r, regime),
                               outside_reference_range=outside, source=source)


def singular_points(conic: ConicSpec, r) -> SingularPointReport:
    """Singular points of the offset variety from the closed-form catalogue.

    Points are reported with exact rational coordinates where the closed form
    is rational and 50-guard-digit float rounding otherwise; every point
    carries its scaled gradient residual and its ``_tag``.
    """
    return _report(conic, r, "closed-form",
                   lambda r, regime, g: _catalogue(conic, r, regime))


def catalogue_pins(conic: ConicSpec, r) -> list:
    """The catalogue's real singular points at offset r as the tracer's pins:
    (x, y, isolated) triples sorted exactly by (x, y), the order of
    ``singular_locus``, each coordinate a Fraction or a RADICAL_DPS mpf.  A
    point is isolated when ``_tag`` calls it virtual; nodes and cusps are
    not.  No residuals: ``offset_figure`` passes these to its trace."""
    r = _offset(r)
    regime = _regime(conic, r)
    return sorted(((x, y, _tag(conic, r, regime, x, y) == VIRTUAL)
                   for x, y in _catalogue(conic, r, regime)),
                  key=lambda p: (to_fraction(p[0]), to_fraction(p[1])))


def _singular_eliminants(system) -> list:
    """The generators of the intersections of I = <system> with Q[x] and
    with Q[y], in the ring (x, y).

    The minimal polynomials of multiplication by x and by y on Q[x, y]/I
    (``groebner.minimal_polynomials``), read from one grevlex completion of
    I, unreduced: the staircase and every normal form are those of any
    Groebner basis of I.  Each is returned as ``minimal_polynomials`` gives
    it, the ascending list of its primitive ``int`` coefficients with a
    positive leading one, which ``cardano.real_roots_exact`` reads as it is.
    Raises EliminationError when the common zeros of the system are not
    finite.
    """
    ring = ("x", "y")
    gb = buchberger(Ideal(ring, tuple(system)), grevlex(ring),
                    max_pairs=LOCUS_MAX_PAIRS, max_degree=LOCUS_MAX_DEGREE)
    return minimal_polynomials(gb, ring)


def singular_locus(g: MultiPoly) -> list:
    """The real common zeros of g, g_x and g_y, for any g over ("x", "y"), as
    (x, y) pairs in pairing order, each a Fraction or a RADICAL_DPS mpf.

    The eliminants of <g, grad g> (zero gradient components left out) are
    solved by ``real_roots_exact``.  They are completed from Euler's
    h = d g - x g_x - y g_y, d being g's total degree: d g = h + x g_x +
    y g_y, so <h, grad g> is the same ideal, and h has degree below d (g
    itself where h is 0, as for a constant or homogeneous g).  Every
    (x root, y root) pair is judged once, exactly at the rounded roots
    (``_exact_evaluator``): it is a point when g and each nonzero partial
    read 0 there, by the module's rule, which weighs each value against its
    own terms' size, so a point far from the origin is judged at its own
    scale and a constant factor of g changes nothing (at an axis point g_x's
    terms are all 0, and 0 reads 0).  The roots are correctly rounded at
    RADICAL_DPS, so true points read far below the rule's bound and
    cross-pairings of coordinates from two different points far above it.
    Raises EliminationError when the zeros are not finite (g has a repeated
    factor), and ResourceLimitError when the Groebner completion of <g, grad
    g> processes more than LOCUS_MAX_PAIRS S-pairs or meets a remainder of
    total degree above LOCUS_MAX_DEGREE.
    """
    import mpmath as mp
    system = (g, *(q for q in gradient(g, ["x", "y"]) if not q.is_zero()))
    d = g.degree()
    h = MultiPoly(g.ring, {m: (d - sum(m)) * c for m, c in g.terms.items()
                           if sum(m) < d})
    eliminants = _singular_eliminants((h or g, *system[1:]))
    with _RADICAL_LOCK, mp.workdps(RADICAL_DPS):
        xs, ys = map(cardano.real_roots_exact, eliminants)
    evaluate = _exact_evaluator(*system)
    return [(xv, yv) for xv, yv in product(xs, ys)
            if all(abs(v) * _ZERO_RATIO <= size for v, size in evaluate(xv, yv)[1])]


def hessian_definite(g: MultiPoly, points) -> list:
    """Per point of ``singular_locus(g)``: is g's Hessian definite (an isolated
    zero, not a node or cusp)?  The entries are taken exactly at the point
    (``_exact_evaluator``; no mpmath is involved).  By the module's rule for
    0, an entry that reads 0 is 0 (at (0, 10/7) on ellipse(7/4, 3/4) at
    r_crit all three are exactly 0), and det = a11 a22 - a12^2 must be
    positive and not read 0 against its terms' size |a11 a22| + a12^2.
    """
    if not points:
        return []
    gx, gy = gradient(g, ["x", "y"])
    hessian = _exact_evaluator(*gradient(gx, ["x", "y"]), *gradient(gy, ["y"]))

    def definite(x, y):
        a11, a12, a22 = (v if abs(v) * _ZERO_RATIO > s else 0
                         for v, s in hessian(x, y)[1])
        det = a11 * a22 - a12 * a12
        return det * _ZERO_RATIO > abs(a11 * a22) + a12 * a12
    return [definite(x, y) for x, y in points]


def singular_points_via_elimination(conic: ConicSpec, r) -> SingularPointReport:
    """Independent singular-point route: ``singular_locus`` of the offset
    polynomial through the shared report path, tagged by ``_tag``.

    Coordinates come out at RADICAL_DPS digits, and each candidate pair is
    judged once, exactly at those digits (see ``singular_locus``).  Raises
    RootPairingError when no pair passes the module's exact zero rule, and
    ResourceLimitError past singular_locus's limits."""
    rep = _report(conic, r, "elimination", lambda r, regime, g: singular_locus(g))
    if not rep.points:
        raise RootPairingError("no root pair passed the exact zero rule")
    return rep

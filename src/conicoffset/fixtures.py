"""Closed-form offset-curve polynomials, stored once as text fixtures.

Each constant is the implicit polynomial of the two parallel lines at
offset r from the conic, with the conic parameters kept symbolic; every
coefficient is an integer.  Two forms are stored, the parabola's and the
ellipse's.  With the axes used here the hyperbola b^2 y^2 - a^2 x^2 = a^2 b^2
is the ellipse with b^2 replaced by -b^2, so its form is derived from the
ellipse's, term for term and in the same term order.  Each form is built
once on first use and cached.  ``conics.offset_poly_closed_form`` turns each
form, once per kind, into an integer program that it specializes per call,
and the form's term order is the order in which that program sums terms.
These forms are validated against the elimination pipeline by the test
suite, so a transcription slip cannot survive unnoticed.
"""

from functools import lru_cache

from .poly import MultiPoly, parse_poly

PARABOLA_RING = ("x", "y", "r", "p")
CENTRAL_RING = ("x", "y", "a", "b", "r")

# degree-6 form; vertex at the origin, axis vertical, focal distance |p|
PARABOLA_OFFSET = """\
-x^6 - x^4*y^2 + 3*x^4*r^2 + 2*x^2*y^2*r^2 - 3*x^2*r^4 - y^2*r^4 + r^6 + 10*x^4*y*p
+ 8*x^2*y^3*p - 2*x^2*y*r^2*p + 8*y^3*r^2*p - 8*y*r^4*p - x^4*p^2 - 32*x^2*y^2*p^2 -
16*y^4*p^2 + 20*x^2*r^2*p^2 + 8*y^2*r^2*p^2 + 8*r^4*p^2 + 8*x^2*y*p^3 + 32*y^3*p^3 -
32*y*r^2*p^3 - 16*y^2*p^4 + 16*r^2*p^4"""

# degree-12 form; center at the origin, major semi-axis a along y, a > b
ELLIPSE_OFFSET = """\
x^8*a^4 + 2*x^6*y^2*a^4 + x^4*y^4*a^4 + 2*x^6*a^6 - 2*x^4*y^2*a^6 + x^4*a^8 +
2*x^6*y^2*a^2*b^2 + 4*x^4*y^4*a^2*b^2 + 2*x^2*y^6*a^2*b^2 - 4*x^6*a^4*b^2 +
2*x^4*y^2*a^4*b^2 - 6*x^2*y^4*a^4*b^2 - 6*x^4*a^6*b^2 + 6*x^2*y^2*a^6*b^2 -
2*x^2*a^8*b^2 + x^4*y^4*b^4 + 2*x^2*y^6*b^4 + y^8*b^4 - 6*x^4*y^2*a^2*b^4 +
2*x^2*y^4*a^2*b^4 - 4*y^6*a^2*b^4 + 6*x^4*a^4*b^4 - 10*x^2*y^2*a^4*b^4 +
6*y^4*a^4*b^4 + 6*x^2*a^6*b^4 - 4*y^2*a^6*b^4 + a^8*b^4 - 2*x^2*y^4*b^6 + 2*y^6*b^6
+ 6*x^2*y^2*a^2*b^6 - 6*y^4*a^2*b^6 - 4*x^2*a^4*b^6 + 6*y^2*a^4*b^6 - 2*a^6*b^6 +
y^4*b^8 - 2*y^2*a^2*b^8 + a^4*b^8 - 4*x^6*a^4*r^2 - 6*x^4*y^2*a^4*r^2 -
2*x^2*y^4*a^4*r^2 - 6*x^4*a^6*r^2 + 4*x^2*y^2*a^6*r^2 - 2*x^2*a^8*r^2 +
2*x^6*a^2*b^2*r^2 + 2*x^4*y^2*a^2*b^2*r^2 + 2*x^2*y^4*a^2*b^2*r^2 +
2*y^6*a^2*b^2*r^2 + 10*x^4*a^4*b^2*r^2 - 6*x^2*y^2*a^4*b^2*r^2 - 6*y^4*a^4*b^2*r^2 +
4*x^2*a^6*b^2*r^2 + 6*y^2*a^6*b^2*r^2 - 2*a^8*b^2*r^2 - 2*x^4*y^2*b^4*r^2 -
6*x^2*y^4*b^4*r^2 - 4*y^6*b^4*r^2 - 6*x^4*a^2*b^4*r^2 - 6*x^2*y^2*a^2*b^4*r^2 +
10*y^4*a^2*b^4*r^2 - 8*x^2*a^4*b^4*r^2 - 8*y^2*a^4*b^4*r^2 + 2*a^6*b^4*r^2 +
4*x^2*y^2*b^6*r^2 - 6*y^4*b^6*r^2 + 6*x^2*a^2*b^6*r^2 + 4*y^2*a^2*b^6*r^2 +
2*a^4*b^6*r^2 - 2*y^2*b^8*r^2 - 2*a^2*b^8*r^2 + 6*x^4*a^4*r^4 + 6*x^2*y^2*a^4*r^4 +
y^4*a^4*r^4 + 6*x^2*a^6*r^4 - 2*y^2*a^6*r^4 + a^8*r^4 - 6*x^4*a^2*b^2*r^4 -
10*x^2*y^2*a^2*b^2*r^4 - 6*y^4*a^2*b^2*r^4 - 8*x^2*a^4*b^2*r^4 + 4*y^2*a^4*b^2*r^4 +
2*a^6*b^2*r^4 + x^4*b^4*r^4 + 6*x^2*y^2*b^4*r^4 + 6*y^4*b^4*r^4 + 4*x^2*a^2*b^4*r^4
- 8*y^2*a^2*b^4*r^4 - 6*a^4*b^4*r^4 - 2*x^2*b^6*r^4 + 6*y^2*b^6*r^4 + 2*a^2*b^6*r^4
+ b^8*r^4 - 4*x^2*a^4*r^6 - 2*y^2*a^4*r^6 - 2*a^6*r^6 + 6*x^2*a^2*b^2*r^6 +
6*y^2*a^2*b^2*r^6 + 2*a^4*b^2*r^6 - 2*x^2*b^4*r^6 - 4*y^2*b^4*r^6 + 2*a^2*b^4*r^6 -
2*b^6*r^6 + a^4*r^8 - 2*a^2*b^2*r^8 + b^4*r^8"""

_TEXTS = {
    "parabola": (PARABOLA_OFFSET, PARABOLA_RING),
    "ellipse": (ELLIPSE_OFFSET, CENTRAL_RING),
}


@lru_cache(maxsize=None)
def general_offset_poly(kind: str) -> MultiPoly:
    """The symbolic offset polynomial for a conic kind, in its fixture ring."""
    if kind == "hyperbola":
        # the ellipse's form with b^2 -> -b^2: every b exponent there is even,
        # so a term changes sign when its exponent is 2 mod 4, in term order
        ellipse = general_offset_poly("ellipse").terms
        ib = CENTRAL_RING.index("b")
        return MultiPoly._trusted(
            CENTRAL_RING, {m: -c if m[ib] % 4 else c for m, c in ellipse.items()})
    text, ring = _TEXTS[kind]
    return parse_poly(text.replace("\n", ""), ring)

"""Singular points of the parallel lines across the three offset regimes.

Below the critical offset r_crit (the semi-latus rectum, = 1/max curvature)
the parallel lines are smooth and the variety carries an isolated "virtual"
singular point.  At r_crit the point lands on the inner line as a cusp; above
it, it splits into three (one per conic half for central conics).  The
tag "split" covers the offset's cusps: the conic's points where its radius
of curvature equals r, moved by r toward the concave side.  It also covers
the equator pair on the x-axis, a node, for the ellipse when a < r < a^2/b
and for the hyperbola when r > a.  An ellipse has a second such offset,
a^2/b = 1/min curvature, where the cusps meet the x-axis and leave the real
plane.
"""

from fractions import Fraction as F

from conicoffset import (ConicSpec, r_crit, singular_points,
                         singular_points_via_elimination)


def show(conic, r):
    rep = singular_points(conic, r)
    print(f"\n{conic.describe()}, r = {r}  ->  {rep.regime}"
          f"  (r_crit = {rep.r_crit})")
    for s in rep.points:
        print(f"    ({float(s.x):+.12f}, {float(s.y):+.12f})  {s.tag:8s}"
              f"  |grad g| residual {s.residual_grad:.1e}")
    if rep.complex_count:
        print(f"    ... plus {rep.complex_count} complex companion(s)")
    return rep


parabola = ConicSpec.parabola(F(1, 3))
print("critical offset of the parabola:", r_crit(parabola))
show(parabola, F(1, 4))     # one virtual point above the focus
show(parabola, F(2, 3))     # the cusp sits on the inner line
show(parabola, F(3, 2))     # split: a node on the axis plus two cusps

ellipse = ConicSpec.ellipse(3, F(3, 2))
show(ellipse, F(1, 2))
show(ellipse, F(4, 3))

# Beyond a^2/b, the ellipse's largest radius of curvature, the four cusps
# leave the real plane (real x, imaginary y): only the equator pair on the
# x-axis stays real, now an isolated (virtual) point, and the cusps join the
# complex count.
show(ConicSpec.ellipse(F(39, 4), 9), F(12))

hyperbola = ConicSpec.hyperbola(F(3, 2), 1)
rep = show(hyperbola, F(4, 3))

# The closed forms are cross-checked by an independent route: eliminate each
# coordinate from <g, grad g>, isolate the eliminants' real roots exactly, and
# keep each (x, y) pair where g and its gradient read 0, evaluated exactly at
# the rounded roots.
alt = singular_points_via_elimination(hyperbola, F(4, 3))
pairs = zip(sorted(s.as_floats() for s in rep.points),
            sorted(s.as_floats() for s in alt.points))
worst = max(max(abs(a - c), abs(b - d)) for (a, b), (c, d) in pairs)
print(f"\nelimination route reproduces the closed forms to {worst:.1e}")

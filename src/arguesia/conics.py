"""Conics as symmetric matrices over exact rationals.

A conic is the canonical integer 6-tuple (m00, m01, m02, m11, m12, m22) of
its symmetric matrix; a point lies on it iff p.M.p = 0.  The module covers
the member of a pencil through a given point (the pencil spanned by two
line pairs through its four base points, opposite bornales of a
``theorems.quadrangle_figure``), the rational points of a chord, the binary
form a conic induces on a charted line (which decides a chord without
rational points by its symmetric functions, with no square root), and the
rational parametrization used to generate exact instances, with the unit
circle and its parametrization built once, at import.  The power of a
point (Euclid III.35/36) is ``projective_core.chord_product``, which the
Pascal circle replay uses.
"""

from __future__ import annotations

from math import isqrt

from arguesia._frozen import Frozen
from arguesia._kernel import conic_eval, conic_polar, det3, dot3
from arguesia.exact_scalar import InternalError
from arguesia.projective_core import (
    AffineChart,
    GeometryError,
    PLine,
    PPoint,
    _canonical,
)


class ConicError(GeometryError):
    """Ill-posed conic construction or query."""


class Conic(Frozen):
    """Symmetric conic matrix, canonical up to scale.

    Entries are the upper triangle row-major: (m00, m01, m02, m11, m12, m22).
    The form at a point is the one kernel ``conic_eval``, for ``evaluate``
    and ``contains`` alike.
    """

    _fields = ("m",)

    def __init__(self, m00, m01, m02, m11, m12, m22):
        object.__setattr__(self, "m", _canonical((m00, m01, m02, m11, m12, m22)))

    def rows(self):
        m00, m01, m02, m11, m12, m22 = self.m
        return ((m00, m01, m02), (m01, m11, m12), (m02, m12, m22))

    def evaluate(self, p: PPoint) -> int:
        return conic_eval(self.m, p.coords)

    def contains(self, p: PPoint) -> bool:
        return conic_eval(self.m, p.coords) == 0

    def det(self) -> int:
        return det3(*self.rows())

    def is_degenerate(self) -> bool:
        return self.det() == 0

    def is_circle(self) -> bool:
        m00, m01, m02, m11, m12, m22 = self.m
        return m00 == m11 and m01 == 0 and m00 != 0

    def polar_line(self, p: PPoint) -> PLine:
        """Polar of p; for p on the conic this is the tangent there."""
        u, v, w = conic_polar(self.m, p.coords)
        return PLine(u, v, w)

    def to_json(self) -> list[str]:
        return [f"{e}/1" for e in self.m]

    @staticmethod
    def from_lines(l: PLine, m: PLine) -> "Conic":
        """Degenerate conic that is the union of two lines."""
        (u1, v1, w1), (u2, v2, w2) = l.coeffs, m.coeffs
        return Conic(
            2 * u1 * u2,
            u1 * v2 + v1 * u2,
            u1 * w2 + w1 * u2,
            2 * v1 * v2,
            v1 * w2 + w1 * v2,
            2 * w1 * w2,
        )


# ---------------------------------------------------------------------------
# pencils


def pencil_member(gen1: Conic, gen2: Conic, through: PPoint) -> Conic:
    """The unique member of the pencil spanned by gen1 and gen2 through one
    extra point: v1*gen2 - v2*gen1, with v1 and v2 the two generators'
    values there."""
    v1 = gen1.evaluate(through)
    v2 = gen2.evaluate(through)
    if v1 == 0 and v2 == 0:
        raise ConicError("every member passes through a base point: ambiguous")
    return Conic(*(v1 * y - v2 * x for x, y in zip(gen1.m, gen2.m)))


# ---------------------------------------------------------------------------
# line intersection


def _line_span(l: PLine):
    u, v, w = l.coeffs
    candidates = [(0, w, -v), (-w, 0, u), (v, -u, 0)]
    pts = []
    for cand in candidates:
        if cand != (0, 0, 0):
            p = PPoint(*cand)
            if p not in pts:
                pts.append(p)
        if len(pts) == 2:
            return pts
    raise ConicError("degenerate line span")


def conic_line_intersection(c: Conic, l: PLine) -> tuple[int, tuple[PPoint, ...]]:
    """(discriminant, points): the rational points of a nondegenerate conic
    on a line, exactly.

    The line is parametrized by two canonical points and the form
    restricted to the binary quadratic a*s**2 + 2*b*s*t + cc*t**2.  Its
    integer discriminant b*b - a*cc decides: negative, no real point; zero,
    a tangent, and ``points`` is its one double point; a nonzero square,
    two rational points.  A positive non-square gives two conjugate
    irrational points, which are not returned: ``points`` is empty, as for
    a line that misses the conic, and the discriminant tells the two apart.
    """
    if c.is_degenerate():
        raise ConicError("degenerate conic: split it into its two lines")
    p0, p1 = _line_span(l)
    a = c.evaluate(p0)
    m = conic_polar(c.m, p1.coords)
    b, cc = dot3(p0.coords, m), dot3(p1.coords, m)
    disc = b * b - a * cc
    root = isqrt(disc) if disc > 0 else 0
    if disc < 0 or root * root != disc:
        return disc, ()
    if a == 0:
        # p0 is on the conic; with b = 0 the line is tangent there
        roots = [(1, 0), (-cc, 2 * b)]
    else:
        roots = [(-b + root, a), (-b - root, a)]
    (x0, y0, z0), (x1, y1, z1) = p0.coords, p1.coords
    pts = []
    for s, t in roots[: 1 if disc == 0 else 2]:
        pt = PPoint(s * x0 + t * x1, s * y0 + t * y1, s * z0 + t * z1)
        if not c.contains(pt):
            raise InternalError("rational intersection failed exactness check")
        pts.append(pt)
    return disc, tuple(pts)


def chord_quadratic(c: Conic, chart: AffineChart) -> tuple[int, int, int]:
    """(A, B, C) with A*u**2 + B*u*v + C*v**2 the form of c on the point
    ``chart.point_at_pair((u, v))``.

    That point is u*X1 + v*X0 for ``(X1, X0) = chart.basis()``, so A and C
    are the form at X1 and X0 and B is twice their polar product.  The
    chord's two parameters are the roots, real or not, and A, B, C are
    their symmetric functions up to scale.
    """
    x1, x0 = chart.basis()
    m = conic_polar(c.m, x0)
    return conic_eval(c.m, x1), 2 * dot3(x1, m), dot3(x0, m)


def second_intersection(c: Conic, on_point: PPoint, other: PPoint) -> PPoint:
    """Second meeting of the conic with line(on_point, other).

    on_point must lie on the conic; returns on_point itself when the line
    is tangent there.
    """
    if not c.contains(on_point):
        raise ConicError("base point of the chord is not on the conic")
    if on_point == other:
        raise ConicError("chord needs two distinct points")
    m = conic_polar(c.m, other.coords)
    b, cc = dot3(on_point.coords, m), dot3(other.coords, m)
    if b == 0 and cc == 0:
        raise ConicError("degenerate chord")
    (x0, y0, z0), (x1, y1, z1) = on_point.coords, other.coords
    b2 = 2 * b
    x, y, z = b2 * x1 - cc * x0, b2 * y1 - cc * y0, b2 * z1 - cc * z0
    if x == 0 and y == 0 and z == 0:
        return on_point
    pt = PPoint(x, y, z)
    if not c.contains(pt):
        raise InternalError("second intersection failed exactness check")
    return pt


# ---------------------------------------------------------------------------
# rational parametrization


class ConicParametrization(Frozen):
    """Slope parametrization of a nondegenerate conic from a rational point.

    The parameter is the slope of the chord through the seed as an integer
    pair (num, den), with (1, 0) for the vertical chord, as
    ``AffineChart.point_at_pair`` takes its parameter; the tangent slope
    returns the seed itself, so the map covers every point of the conic
    exactly once.
    """

    _fields = ("conic", "seed")

    def __init__(self, conic: Conic, seed: PPoint):
        object.__setattr__(self, "conic", conic)
        object.__setattr__(self, "seed", seed)
        if conic.is_degenerate():
            raise ConicError("parametrization needs a nondegenerate conic")
        if not conic.contains(seed):
            raise ConicError("seed point is not on the conic")

    def point_at(self, slope: tuple[int, int]) -> PPoint:
        num, den = slope
        direction = PPoint(den, num, 0)
        if direction == self.seed:
            return self.seed
        return second_intersection(self.conic, self.seed, direction)


# x**2 + y**2 = z**2 and its slope parametrization from (-1, 0), on which
# every conic instance is drawn; built and checked once, here
UNIT_CIRCLE = Conic(1, 0, 0, 1, 0, -1)
UNIT_CIRCLE_PAR = ConicParametrization(UNIT_CIRCLE, PPoint(-1, 0, 1))

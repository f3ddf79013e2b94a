"""Test oracles: arithmetic in Q(sqrt(d)), ``Fraction`` values of the
library's integer parameter forms, and points built from rationals.

x + y*sqrt(d) is the pair (x, y) of Fractions, with d passed to each
operation; the library's ``QuadExt`` (p + q*sqrt(d))/r is a value without
arithmetic, and ``pair`` reads one (or a rational) into this form.  A line
parameter is, in the library, an integer pair (u, v) with (u, 0) for the
point at infinity; ``rat`` reads one as a Fraction or ``INF``, ``param``
writes a Fraction, ``INF`` or a pair as a canonical pair, and ``move``
maps any of them, or a ``QuadExt``, by a ``LineMap`` through the library's
own ``apply_pair`` and ``_apply_quad``.  The library builds every point
from integers; ``affine_point``, ``point_at`` and ``from_json`` clear the
denominators of rational coordinates, parameters and JSON text first.
``line_pairs`` gives the three degenerate members of the pencil through
the bornes of a ``quadrangle_figure``.
"""

from fractions import Fraction
from math import lcm

from arguesia.conics import Conic
from arguesia.exact_scalar import QuadExt
from arguesia.projective_core import PPoint, _apply_quad, _canonical

INF = "inf"  # the oracle's point at infinity, printed as the library prints it


def rat(t):
    """The Fraction u/v of a parameter pair, or INF for (u, 0)."""
    u, v = t
    return INF if v == 0 else Fraction(u, v)


def param(t) -> tuple[int, int]:
    """The canonical parameter pair of a rational, INF or a pair."""
    if t == INF:
        return (1, 0)
    if isinstance(t, tuple):
        return _canonical(t)
    t = Fraction(t)
    return _canonical((t.numerator, t.denominator))


def affine_point(x, y) -> PPoint:
    """The finite point with the rational coordinates (x, y)."""
    x, y = Fraction(x), Fraction(y)
    return PPoint(x.numerator * y.denominator, y.numerator * x.denominator,
                  x.denominator * y.denominator)


def point_at(chart, t) -> PPoint:
    """The point of an AffineChart at t (a rational, INF or a pair)."""
    return chart.point_at_pair(param(t))


def from_json(data) -> PPoint:
    """The point of ``PPoint.to_json``'s three ``p/q`` strings."""
    xs = [Fraction(c) for c in data]
    den = lcm(*(x.denominator for x in xs))
    return PPoint(*(x.numerator * (den // x.denominator) for x in xs))


def move(m, t):
    """The image of t (a rational, INF, a pair or a QuadExt) under the
    LineMap m: a QuadExt, else a rational or INF."""
    if isinstance(t, QuadExt):
        return _apply_quad(m.matrix, t)
    return rat(m.apply_pair(param(t)))


def pair(t):
    if isinstance(t, QuadExt):
        return (Fraction(t.p, t.r), Fraction(t.q, t.r))
    return (Fraction(t), Fraction(0))


def add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def mul(p, q, d):
    return (p[0] * q[0] + p[1] * q[1] * d, p[0] * q[1] + p[1] * q[0])


def div(p, q, d):
    n = q[0] * q[0] - q[1] * q[1] * d
    return mul(p, (q[0] / n, -q[1] / n), d)


def homography(matrix, p, d):
    """(a*t + b)/(c*t + e) for the matrix (a, b, c, e) and t = p."""
    a, b, c, e = matrix
    return div((a * p[0] + b, a * p[1]), (c * p[0] + e, c * p[1]), d)


def line_pairs(q: dict) -> dict:
    """BC+ED, BE+DC and BD+CE of a quadrangle figure, keyed by the couple
    each cuts on the transversal: IK, PQ and GH."""
    ln = q["bornales"]
    return {
        "IK": Conic.from_lines(ln["BC"], ln["ED"]),
        "PQ": Conic.from_lines(ln["BE"], ln["DC"]),
        "GH": Conic.from_lines(ln["BD"], ln["CE"]),
    }

"""Arithmetic in Q(sqrt(d)) as a test oracle.

x + y*sqrt(d) is the pair (x, y) of Fractions, with d passed to each
operation; the library's ``QuadExt`` is a value without arithmetic, and
``pair`` reads one (or a rational) into this form.
"""

from fractions import Fraction

from arguesia.exact_scalar import QuadExt


def pair(t):
    if isinstance(t, QuadExt):
        return (t.a, t.b)
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

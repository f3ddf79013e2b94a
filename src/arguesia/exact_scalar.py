"""Exact scalars: arbitrary-precision rationals and quadratic irrationals.

``Rat`` is the standard-library :class:`fractions.Fraction`, which already
maintains the canonical reduced form (positive denominator, coprime
numerator/denominator) and exact field arithmetic.  This module adds the
strict textual form used in configs and reports, and the value ``QuadExt``
for the square roots that appear at involution fixed points.  Conic chords
need none: a chord is rational or is decided by its symmetric functions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from arguesia._frozen import Frozen

Rat = Fraction

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


class ScalarError(ValueError):
    """Raised for malformed rational text or an impossible square root."""


class InternalError(Exception):
    """An arithmetic self-check failed: a fault of the program, never a
    precondition of its input, so it is not a ``GeometryError``."""


def rat_parse(text: str) -> Rat:
    """Parse ``digits`` or ``digits/digits`` (optional leading minus).

    The result is canonical: reduced, denominator positive, zero as 0/1.
    """
    if not isinstance(text, str) or not _RAT_RE.match(text.strip()):
        raise ScalarError(f"malformed rational: {text!r}")
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ScalarError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text), 1)


def rat_str(x: Rat) -> str:
    """Canonical ``p/q`` form, always with the denominator."""
    return f"{x.numerator}/{x.denominator}"


def pair_str(num: int, den: int) -> str:
    """``rat_str(Fraction(num, den))`` for an integer pair, den nonzero and
    of either sign, reduced by one gcd without building the Fraction."""
    if den == 0:
        raise ZeroDivisionError(f"pair {num}/0")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return f"{num // g}/{den // g}"


def square_free_decomposition(n: int) -> tuple[int, int]:
    """Write n > 0 as s**2 * d with no prime below 2**14 dividing d twice.

    Trial division runs over p < 2**14 and only while p**3 <= n, the
    cofactor that shrinks as primes are divided out, so no n takes more
    than 2**13 steps.  Stopping at the cube root is exact: every prime below
    p is gone from the cofactor and p**3 exceeds it, so it is 1, q, q*q' or
    q*q, and isqrt recognises q*q; d is then squarefree.  This is the
    classical split (Cohen, *A Course in Computational Algebraic Number
    Theory*, 1993, section 1.7).  A cofactor the prime bound leaves, at
    least 2**42, joins d whole unless it is a square: d is never a square.
    """
    if n <= 0:
        raise ScalarError("square_free_decomposition needs a positive integer")
    s, d = 1, 1
    r = isqrt(n)
    if r * r == n:
        return r, 1
    p = 2
    while p * p * p <= n and p < 1 << 14:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:
        s *= r
    else:
        d *= n
    return s, d


class QuadExt(Frozen):
    """Exact value a + b*sqrt(d) with a, b rational and d an int > 1 that
    is not a perfect square and is free of the squares of primes below 2**14.

    A value, not a field: it is built only for an involution's irrational
    fixed points (:func:`quad_sqrt` and ``involution.classify``), moved only
    by a line homography (``projective_core._apply_quad``), and compared,
    hashed and printed.  Values with b = 0 are never built, so an
    irrational value never equals a rational one.

    Every d is split by :func:`square_free_decomposition` in
    :func:`quad_sqrt` and carried unchanged from there, so the constructor
    does not factor it again.  A fixed point's image is compared only with
    its partner, moved from the same d, so a d that keeps a large prime's
    square stays sound.
    """

    __slots__ = _fields = ("a", "b", "d")

    def __init__(self, a: Rat, b: Rat, d: int):
        if b == 0:
            raise ScalarError("QuadExt with b = 0 must be a plain Rat")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


def quad_sqrt(x: Rat):
    """Exact square root of a nonnegative rational.

    Returns a ``Rat`` when x is a perfect square, otherwise ``QuadExt``
    b*sqrt(d) with d from :func:`square_free_decomposition`.  A negative
    argument signals the elliptic case: there is no real root, and we
    refuse rather than approximate.
    """
    x = Fraction(x)
    if x < 0:
        raise ScalarError("negative radicand: elliptic case, no real root")
    if x == 0:
        return Fraction(0)
    # sqrt(n/m) = sqrt(n*m)/m
    n = x.numerator * x.denominator
    s, d = square_free_decomposition(n)
    b = Fraction(s, x.denominator)
    if b * b * d != x:  # decomposition is checked, never trusted
        raise InternalError(f"square root extraction failed for {x}")
    return b if d == 1 else QuadExt(Fraction(0), b, d)


def scalar_str(x) -> str:
    """Canonical string for Rat or QuadExt report fields."""
    if isinstance(x, QuadExt):
        return f"{rat_str(x.a)}+{rat_str(x.b)}*sqrt({x.d})"
    return rat_str(Fraction(x))

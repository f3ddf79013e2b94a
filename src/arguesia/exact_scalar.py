"""Exact scalars: arbitrary-precision rationals and one quadratic extension.

``Rat`` is the standard-library :class:`fractions.Fraction`, which already
maintains the canonical reduced form (positive denominator, coprime
numerator/denominator) and exact field arithmetic.  This module adds the
strict textual form used in configs and reports, and a quadratic extension
``QuadExt`` for the square roots that appear at involution fixed points and
conic chords.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from arguesia._frozen import Frozen

Rat = Fraction

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


class ScalarError(ValueError):
    """Raised for malformed rational text or an impossible square root."""


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


def square_free_decomposition(n: int) -> tuple[int, int]:
    """Write n > 0 as s**2 * d with d squarefree; returns (s, d).

    Trial division runs only while p**3 <= n, over the cofactor n that
    shrinks as primes are divided out, so an 80-bit n takes at most about
    2**26 steps instead of 2**39.  Stopping there is exact: every prime below
    p is gone from the cofactor and p**3 exceeds it, so it has at most two
    prime factors and is 1, q, q*q' or q*q.  Only q*q is not squarefree,
    and isqrt recognises it.  This is the classical split (Cohen, *A Course
    in Computational Algebraic Number Theory*, 1993, section 1.7).
    """
    if n <= 0:
        raise ScalarError("square_free_decomposition needs a positive integer")
    s, d = 1, 1
    r = isqrt(n)
    if r * r == n:
        return r, 1
    p = 2
    while p * p * p <= n:
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
    """Exact value a + b*sqrt(d) with a, b rational and d a squarefree int > 1.

    Arithmetic is closed within one radicand; mixing distinct radicands is
    rejected rather than coerced.  Values with b = 0 are never built: the
    public constructor rejects them, and arithmetic results collapse to a
    plain ``Rat`` through :func:`_make`, so an embedded rational compares
    as a ``Rat``.

    A radicand is checked where it enters: the public constructor rejects
    a d that is not squarefree, and :func:`quad_sqrt` produces d by the
    square-free split itself.
    Arithmetic results take d from an operand that was already checked, so
    they are built by :func:`_quad` without factoring d again.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rat, b: Rat, d: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        if b == 0:
            raise ScalarError("QuadExt with b = 0 must be a plain Rat")
        if d <= 1 or square_free_decomposition(d)[1] != d:
            raise ScalarError(f"radicand must be squarefree > 1, got {d}")

    def conjugate(self) -> "QuadExt":
        return _quad(self.a, -self.b, self.d)

    def norm(self) -> Rat:
        return self.a * self.a - self.b * self.b * self.d

    def __add__(self, other):
        if isinstance(other, QuadExt):
            _same_radicand(self, other)
            return _make(self.a + other.a, self.b + other.b, self.d)
        return _quad(self.a + Fraction(other), self.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadExt) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            _same_radicand(self, other)
            return _make(
                self.a * other.a + self.b * other.b * self.d,
                self.a * other.b + self.b * other.a,
                self.d,
            )
        other = Fraction(other)
        return _make(self.a * other, self.b * other, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            _same_radicand(self, other)
            n = other.norm()
            if n == 0:
                raise ZeroDivisionError("division by zero QuadExt")
            return (self * other.conjugate()) / n
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError
        return _quad(self.a / other, self.b / other, self.d)

    def __rtruediv__(self, other):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero-norm QuadExt")
        return (self.conjugate() * Fraction(other)) / n

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


def _quad(a: Rat, b: Rat, d: int) -> QuadExt:
    """a + b*sqrt(d) for b != 0 and a d already known squarefree > 1."""
    q = object.__new__(QuadExt)
    object.__setattr__(q, "a", a)
    object.__setattr__(q, "b", b)
    object.__setattr__(q, "d", d)
    return q


def _make(a: Rat, b: Rat, d: int):
    """a + b*sqrt(d), collapsed to the Rat a when b = 0; d is already
    known squarefree > 1."""
    return a if b == 0 else _quad(a, b, d)


def _same_radicand(x: QuadExt, y: QuadExt) -> None:
    if x.d != y.d:
        raise ScalarError("mixed radicands")


def quad_sqrt(x: Rat):
    """Exact square root of a nonnegative rational.

    Returns a ``Rat`` when x is a perfect square, otherwise ``QuadExt``
    b*sqrt(d) with d squarefree.  A negative argument signals the elliptic
    case: there is no real root, and we refuse rather than approximate.
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
    root = b if d == 1 else _quad(Fraction(0), b, d)
    if root * root != x:  # decomposition is checked, never trusted
        raise ScalarError(f"square root extraction failed for {x}")
    return root


def scalar_str(x) -> str:
    """Canonical string for Rat or QuadExt report fields."""
    if isinstance(x, QuadExt):
        return f"{rat_str(x.a)}+{rat_str(x.b)}*sqrt({x.d})"
    return rat_str(Fraction(x))

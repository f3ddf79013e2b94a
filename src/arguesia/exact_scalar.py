"""Exact scalars: the textual rationals, integer pairs and quadratic
irrationals of configs and reports.

Every rational is an integer pair (num, den), read from text reduced
(:func:`rat_parse`, for ``construct``) and printed reduced by one gcd
(:func:`pair_str`, and two compared ones by :func:`pair_record`); no
module builds a ``Fraction``.  ``QuadExt`` is the integer form
(p + q*sqrt(d))/r of the square roots that appear at involution fixed
points, with :func:`quad_sqrt` the checked split of an integer radicand.
Conic chords need none: a chord is rational or is decided by its
symmetric functions.
"""

from __future__ import annotations

from math import gcd, isqrt

from arguesia._frozen import Frozen

class ScalarError(ValueError):
    """Raised for malformed rational text or an impossible square root."""


class InternalError(Exception):
    """An arithmetic self-check failed: a fault of the program, never a
    precondition of its input, so it is not a ``GeometryError``."""


def rat_parse(text: str) -> tuple[int, int]:
    """Parse ``digits`` or ``digits/digits`` (optional leading minus), in
    ASCII digits with nothing around them, as ``--seed`` is read.

    The result is the canonical pair (num, den): reduced, den > 0, and
    zero as (0, 1), so equal values give equal pairs.
    """
    num, slash, den = text.partition("/")
    digits = (num.removeprefix("-"), den) if slash else (num.removeprefix("-"),)
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise ScalarError(f"malformed rational: {text!r}")
    num, den = int(num), int(den or 1)
    if den == 0:
        raise ScalarError(f"zero denominator: {text!r}")
    g = gcd(num, den)
    return num // g, den // g


def pair_str(num: int, den: int) -> str:
    """``p/q`` for an integer pair, den nonzero and of either sign,
    reduced by one gcd, with q > 0."""
    if den == 0:
        raise ZeroDivisionError(f"pair {num}/0")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return f"{num // g}/{den // g}"


def pair_record(label: str, lhs: tuple[int, int], rhs: tuple[int, int]) -> dict:
    """The printed record ``{label, lhs, rhs, equal}`` of two integer pairs
    (num, den), compared by cross-multiplying; equal sides print once.  A
    side (u, 0) prints ``inf``; a side (0, 0), equal to anything, raises."""
    (a, b), (c, d) = lhs, rhs
    if not (a or b) or not (c or d):
        raise ZeroDivisionError(f"{label}: a side 0/0 has no value")
    equal = a * d == c * b
    lhs_text = pair_str(a, b) if b else "inf"
    rhs_text = lhs_text if equal else pair_str(c, d) if d else "inf"
    return {"label": label, "lhs": lhs_text, "rhs": rhs_text, "equal": equal}


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
    """Exact value (p + q*sqrt(d))/r over the integers, with q and r
    nonzero and d > 1 not a perfect square and free of the squares of primes below
    2**14; canonical by one gcd, with gcd(p, q, r) = 1 and r > 0, so equal
    values have equal fields.

    A value, not a field: it is built only for an involution's irrational
    fixed points (``involution.classify``), moved only by a line
    homography (``projective_core._apply_quad``), and compared, hashed and
    printed.  Values with q = 0 are never built, so an irrational value
    never equals a rational one.

    Every d is split by :func:`square_free_decomposition` in
    :func:`quad_sqrt` and carried unchanged from there, so the constructor
    does not factor it again.  A fixed point's image is compared only with
    its partner, moved from the same d, so a d that keeps a large prime's
    square stays sound.
    """

    __slots__ = _fields = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        if q == 0:
            raise ScalarError("QuadExt with q = 0 must be a rational pair")
        g = gcd(p, q, r)
        if r < 0:
            g = -g
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)
        object.__setattr__(self, "r", r // g)
        object.__setattr__(self, "d", d)

    def __repr__(self):
        # str(Fraction) of each part: no "/1" on integers
        a = pair_str(self.p, self.r).removesuffix("/1")
        b = pair_str(self.q, self.r).removesuffix("/1")
        return f"({a} + {b}*sqrt({self.d}))"


def quad_sqrt(n: int) -> tuple[int, int]:
    """sqrt(n) = s*sqrt(d) for an integer n >= 0, as the pair (s, d).

    d comes from :func:`square_free_decomposition` and is 1 exactly when n
    is a perfect square; the split is checked, never trusted.  A negative
    argument signals the elliptic case: there is no real root, and we
    refuse rather than approximate.
    """
    if n < 0:
        raise ScalarError("negative radicand: elliptic case, no real root")
    if n == 0:
        return 0, 1
    s, d = square_free_decomposition(n)
    if s * s * d != n:
        raise InternalError(f"square root extraction failed for {n}")
    return s, d


def scalar_str(x: QuadExt) -> str:
    """Canonical report string of a QuadExt, each part with its denominator."""
    return f"{pair_str(x.p, x.r)}+{pair_str(x.q, x.r)}*sqrt({x.d})"

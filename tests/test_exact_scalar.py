from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arguesia import exact_scalar
from arguesia.exact_scalar import (
    QuadExt,
    ScalarError,
    pair_str,
    quad_sqrt,
    rat_parse,
    scalar_str,
    square_free_decomposition,
)
from arguesia.rng import SplitMix64
from quadfield import mul, pair


def test_rat_parse_reduction():
    assert rat_parse("3/6") == (1, 2)


def test_rat_parse_sign_normalization():
    v = rat_parse("-4/2")
    assert v == (-2, 1)
    assert pair_str(*v) == "-2/1"


def test_rat_parse_zero_canonical():
    assert rat_parse("0/7") == (0, 1)


@st.composite
def _rational_text(draw):
    """A signed rational spelled with leading zeros and, when it has a
    denominator, a common factor left in."""
    zeros = st.integers(0, 3).map(lambda n: "0" * n)
    num = draw(st.integers(0, 2**70) | st.just(0))
    text = draw(st.sampled_from(("", "-"))) + draw(zeros)
    if draw(st.booleans()):
        return text + str(num)
    k = draw(st.integers(1, 1000))
    return f"{text}{num * k}/{draw(zeros)}{draw(st.integers(1, 2**40)) * k}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_rational_text())
@example("-0")
@example("-007/0014")
def test_rat_parse_is_the_reduced_fraction_pair(text):
    oracle = Fraction(text)
    pair = rat_parse(text)
    assert pair == (oracle.numerator, oracle.denominator)
    assert all(type(e) is int for e in pair)
    assert pair_str(*pair) == f"{oracle.numerator}/{oracle.denominator}"


# then non-ASCII digits and padding, refused as --seed refuses them, and
# empty digit runs
@pytest.mark.parametrize("bad", ["", "1/0", "a/2", "1.5", "2/-3", "--1", "1/2/3",
                                 "\u0663", "1/\u0662", " 3 ", "3\n", "-", "1/"])
def test_rat_parse_rejects_malformed(bad):
    with pytest.raises(ScalarError):
        rat_parse(bad)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(-(2**70), 2**70) | st.sampled_from((0, 1, -1)),
    st.integers(-(2**70), 2**70).filter(bool) | st.sampled_from((1, -1, 2, -6)),
    st.integers(1, 2**40),
)
@example(3, -6, 1)  # negative denominator
@example(0, -5, 1)  # zero numerator
@example(-4, -2, 1)  # an integer
@example(10, 15, 7)  # unreduced
def test_pair_str_is_the_fraction_text(num, den, scale):
    # a printed side is pair_str of its integer pair; the images note drops
    # the "/1" of an integer, as str(Fraction) does
    num, den = num * scale, den * scale
    oracle = Fraction(num, den)
    assert pair_str(num, den) == f"{oracle.numerator}/{oracle.denominator}"
    assert pair_str(num, den).removesuffix("/1") == str(oracle)


def test_pair_str_rejects_zero_denominator():
    for num in (0, 3):
        with pytest.raises(ZeroDivisionError):
            pair_str(num, 0)


def _root_of(x: Fraction):
    """sqrt(x) as the oracle pair (a, b) of a + b*sqrt(d), and d, from
    quad_sqrt(n*m) for x = n/m: sqrt(n/m) = sqrt(n*m)/m."""
    s, d = quad_sqrt(x.numerator * x.denominator)
    b = Fraction(s, x.denominator)
    return ((0, b) if d > 1 else (b, 0)), d


def test_quad_sqrt_perfect_square():
    assert quad_sqrt(9 * 4) == (6, 1)
    assert _root_of(Fraction(9, 4)) == ((Fraction(3, 2), 0), 1)


def test_quad_sqrt_eight():
    s, d = quad_sqrt(8)
    assert (s, d) == (2, 2)
    r = QuadExt(0, s, 1, d)
    assert mul(pair(r), pair(r), r.d) == (8, 0)


def test_quad_sqrt_zero():
    assert quad_sqrt(0) == (0, 1)


def test_quad_sqrt_negative_is_elliptic_error():
    with pytest.raises(ScalarError):
        quad_sqrt(-1)


def test_quad_sqrt_squares_back_property():
    rng = SplitMix64.for_kind("sqrt-prop", 7)
    for _ in range(300):
        x = Fraction(rng.below(10**6), rng.below(10**6) + 1)
        r, d = _root_of(x)
        assert mul(r, r, d) == (x, 0)


def test_square_free_decomposition():
    assert square_free_decomposition(1) == (1, 1)
    assert square_free_decomposition(8) == (2, 2)
    assert square_free_decomposition(360) == (6, 10)
    assert square_free_decomposition(10**6) == (1000, 1)


def _brute_square_free(n):
    """Largest s with s*s dividing n, by trying every s up to sqrt(n)."""
    s = max(k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
    return s, n // (s * s)


def _is_squarefree(d):
    return all(d % (k * k) for k in range(2, isqrt(d) + 1))


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, isqrt(n) + 1))


def _primes_from(n, count):
    out = []
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 1
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=2 * 10**6))
def test_square_free_decomposition_matches_brute_force(n):
    s, d = square_free_decomposition(n)
    assert s * s * d == n
    assert _is_squarefree(d)
    assert (s, d) == _brute_square_free(n)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 65521, 65537, 65539, 1048573)
PRIME_BOUND = 2**14


def _assert_split(n, s, d):
    """The split's contract: s*s*d = n, and no prime below 2**14 divides d
    twice (checked over every k below 2**14: a square k*k divides d only
    if the square of one of k's primes does)."""
    assert s * s * d == n
    assert all(d % (k * k) for k in range(2, PRIME_BOUND))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_SMALL_PRIMES), st.integers(1, 3)),
                min_size=1, max_size=4))
def test_square_free_decomposition_of_known_factorizations(factors):
    # primes below 2**14 split by their exponents; the product L of the
    # larger ones (all above the prime bound) is left whole unless a square
    exps = {}
    for p, e in factors:
        exps[p] = exps.get(p, 0) + e
    n, s, d, large = 1, 1, 1, 1
    for p, e in exps.items():
        n *= p**e
        if p < PRIME_BOUND:
            s *= p ** (e // 2)
            d *= p ** (e % 2)
        else:
            large *= p**e
    root = isqrt(large)
    if root * root == large:
        s *= root
    else:
        d *= large
    assert square_free_decomposition(n) == (s, d)
    _assert_split(n, s, d)


# Primes near 2**12, 2**16 and 2**24: their products sit on either side of
# the cube-root cutoff and of the prime bound 2**14 at sizes up to about 50
# bits.  A cofactor of 2**42 or more with no prime factor below 2**14 is
# left whole unless it is a square, so the squares of the 16-bit primes stay
# in d.
P12 = _primes_from(2**12 - 40, 2)
P16 = _primes_from(2**16 - 40, 3)
P24 = _primes_from(2**24 - 40, 2)
Q13 = _primes_from(2**13, 1)[0]  # below the prime bound: still divided out


@pytest.mark.parametrize("n, expected", [
    (6 * P24[0] ** 2, (P24[0], 6)),  # p*p left above the cutoff: found by isqrt
    (P24[0] * P24[1], (1, P24[0] * P24[1])),  # p*q left above the cutoff
    (P16[0] ** 2 * P16[1], (1, P16[0] ** 2 * P16[1])),  # p*p*q above the prime bound
    (P16[1] ** 2 * P16[0], (1, P16[1] ** 2 * P16[0])),
    (P16[0] ** 3, (1, P16[0] ** 3)),  # q**3: the prime bound stops first
    (P16[0] ** 3 * 2, (1, 2 * P16[0] ** 3)),
    (P16[0] * P16[1] * P16[2], (1, P16[0] * P16[1] * P16[2])),  # three primes near the cube root
    (P12[0] ** 2 * P24[0], (P12[0], P24[0])),
    (P12[0] * P12[1] * P24[0], (1, P12[0] * P12[1] * P24[0])),
    (Q13**3, (Q13, Q13)),
    (Q13**2 * P12[0], (Q13, P12[0])),
])
def test_square_free_decomposition_near_cube_root_cutoff(n, expected):
    assert n < 2**51
    assert square_free_decomposition(n) == expected
    _assert_split(n, *expected)


def _count_square_free_calls(monkeypatch):
    calls = []
    original = exact_scalar.square_free_decomposition

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(exact_scalar, "square_free_decomposition", counting)
    return calls


def test_quadext_arithmetic_does_not_refactor_radicand(monkeypatch):
    # the only operations that build a QuadExt from another one, the
    # fixed points of classify and their transport by a homography, reuse
    # the radicand they were given
    from arguesia.involution import Involution, classify
    from arguesia.projective_core import LineMap, PLine, _apply_quad, default_chart

    d = P24[0] * P24[1]
    chart = default_chart(PLine(0, 1, 0))
    inv = Involution(LineMap((0, d, 1, 0), chart, chart))  # t -> d/t
    calls = _count_square_free_calls(monkeypatch)
    f1, f2 = classify(inv)["fixed_points"]
    assert len(calls) == 1  # quad_sqrt's single split of the discriminant
    x = QuadExt(1, 6, 3, d)  # 1/3 + 2*sqrt(d)
    del calls[:]
    images = [_apply_quad(LineMap(m, chart, chart).matrix, x) for m in ((1, 2, 3, 4), (0, 1, 1, 0))]
    images.append(_apply_quad(inv.map.matrix, f1))
    assert calls == []
    assert all(isinstance(r, QuadExt) and r.d == d for r in images + [f1, f2])
    assert images[-1] == f1  # a fixed point stays fixed
    assert hash(f2) == hash(QuadExt(0, -1, 1, d))  # same value as a checked build


def test_quad_sqrt_splits_once(monkeypatch):
    expected = ((0, Fraction(3, 2)), P24[0] * P24[1])
    calls = _count_square_free_calls(monkeypatch)
    r = _root_of(Fraction(P24[0] * P24[1] * 9, 4))
    assert len(calls) == 1
    assert r == expected


def test_quadext_requires_squarefree_radicand():
    with pytest.raises(ScalarError):
        QuadExt(1, 0, 1, 2)


def _random_rat(rng, span=10**6):
    num = rng.int_between(-span, span)
    den = rng.int_between(1, span)
    return Fraction(num, den)


def test_field_axioms_on_random_rats():
    # 1000 random pairs: Fraction really is an exact field
    rng = SplitMix64.for_kind("field-axioms", 1)
    for _ in range(1000):
        a = _random_rat(rng)
        b = _random_rat(rng)
        c = _random_rat(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_canonical_uniqueness():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert (Fraction(2, 4).numerator, Fraction(2, 4).denominator) == (1, 2)
    v = QuadExt(2, 6, 4, 3)  # 2/4 + (6/4)*sqrt(3)
    w = QuadExt(1, 3, 2, 3)
    assert v == w and hash(v) == hash(w)
    assert QuadExt(-1, -3, -2, 3) == w and (w.p, w.q, w.r) == (1, 3, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**70), 2**70).filter(bool),
    st.integers(-(2**40), 2**40).filter(bool),
    st.sampled_from((2, 3, 5, 7, 10, 2**61 - 1)),
)
@example(0, 4, -2, 2)  # an integer part 0 and an integer coefficient -2
def test_quadext_prints_the_fraction_text(p, q, r, d):
    # repr and scalar_str print (p + q*sqrt(d))/r as str and as p/q text of
    # the Fractions p/r and q/r
    x = QuadExt(p, q, r, d)
    a, b = Fraction(p, r), Fraction(q, r)
    assert repr(x) == f"({a} + {b}*sqrt({d}))"
    assert scalar_str(x) == (f"{a.numerator}/{a.denominator}+"
                             f"{b.numerator}/{b.denominator}*sqrt({d})")
    assert pair(x) == (a, b)

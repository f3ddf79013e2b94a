from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arguesia._kernel import (
    conic_eval,
    conic_polar,
    cross3,
    det3,
    dot3,
    kernel_backend,
)
from arguesia.projective_core import _canonical

BIG = st.integers(-10**9, 10**9)
TRIPLE = st.tuples(BIG, BIG, BIG)
NONZERO = BIG.filter(lambda k: k != 0)


def _is_canonical(t):
    lead = next(e for e in t if e != 0)
    return gcd(*t) == 1 and lead > 0


@settings(max_examples=500, deadline=None, derandomize=True)
@given(TRIPLE, TRIPLE, TRIPLE)
def test_det3_is_the_triple_product(a, b, c):
    assert det3(a, b, c) == dot3(cross3(a, b), c)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(TRIPLE, TRIPLE)
def test_cross3_is_orthogonal_to_both_factors(a, b):
    n = cross3(a, b)
    assert dot3(n, a) == 0
    assert dot3(n, b) == 0


# _canonical is the one normalizer for points, lines and 2x2 line maps; the
# kernel products above feed it integer tuples of these three lengths.
@settings(max_examples=500, deadline=None, derandomize=True)
@given(TRIPLE, st.tuples(BIG, BIG), st.tuples(BIG, BIG, BIG, BIG), NONZERO)
def test_norms_are_scale_invariant_and_canonical(t, p, m, k):
    for x in (t, p, m):
        if not any(x):
            continue
        n = _canonical(x)
        assert n == _canonical(tuple(k * e for e in x))
        assert _is_canonical(n)
        # n is x up to a nonzero scale: every 2x2 minor of (x, n) vanishes
        assert all(x[i] * n[j] == x[j] * n[i] for i in range(len(x)) for j in range(i))


def test_norms_reject_all_zeros():
    for zeros in ((0, 0, 0), (0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            _canonical(zeros)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(BIG, BIG, BIG, BIG, BIG, BIG), TRIPLE)
def test_conic_eval_is_p_dot_its_polar(m6, p):
    m00, m01, m02, m11, m12, m22 = m6
    x, y, z = p
    q = (m00 * x * x + m11 * y * y + m22 * z * z
         + 2 * (m01 * x * y + m02 * x * z + m12 * y * z))
    assert conic_eval(m6, p) == dot3(p, conic_polar(m6, p)) == q


def test_backend_reports_name():
    assert kernel_backend() == "python"

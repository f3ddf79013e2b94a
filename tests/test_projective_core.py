import copy
import pickle
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arguesia.projective_core import (
    CHART_CACHE_SIZE,
    AffineChart,
    GeometryError,
    LineMap,
    P3Plane,
    P3Point,
    PLine,
    PPoint,
    apply_mat3,
    chord_product,
    cross_ratio,
    cross_ratio_pairs,
    default_chart,
    harmonic_partner_param,
    incident,
    infinity_point_of,
    join,
    meet,
    midpoint,
    perspective_map,
    plane_basis,
    plane_perspectivity,
    project_point,
    _apply_quad,
    _canonical,
    _canonical_pair,
)
from arguesia._kernel import det3
from arguesia.conics import Conic
from arguesia.exact_scalar import QuadExt, quad_sqrt
from arguesia.menelaus_engine import NonGenericError, ratio
from arguesia.rng import SplitMix64
from quadfield import INF, homography, move, pair, point_at, rat
from quadfield import affine_point as A

X_AXIS = PLine(0, 1, 0)


def rand_point(rng, bounds=20):
    return A(F(*rng.fraction_pair(bounds)), F(*rng.fraction_pair(bounds)))


# -- the canonical form ------------------------------------------------------

# The per-length normalizers that _canonical replaced, kept as its oracle.


def _old_norm3(x, y, z):
    g = gcd(gcd(abs(x), abs(y)), abs(z))
    x, y, z = x // g, y // g, z // g
    lead = x if x != 0 else (y if y != 0 else z)
    return (-x, -y, -z) if lead < 0 else (x, y, z)


def _old_norm2(u, v):
    g = gcd(abs(u), abs(v))
    u, v = u // g, v // g
    lead = u if u != 0 else v
    return (-u, -v) if lead < 0 else (u, v)


def _old_norm_any(t):  # norm_mat2, _norm4 and _norm6 had this one shape
    g = 0
    for c in t:
        g = gcd(g, abs(c))
    t = [c // g for c in t]
    lead = next(c for c in t if c != 0)
    return tuple(-c for c in t) if lead < 0 else tuple(t)


_OLD_NORMS = {2: lambda t: _old_norm2(*t), 3: lambda t: _old_norm3(*t),
              4: _old_norm_any, 6: _old_norm_any}
_INT = st.integers(-10**6, 10**6)
_HOMOGENEOUS = st.sampled_from(sorted(_OLD_NORMS)).flatmap(lambda n: st.tuples(*[_INT] * n))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_HOMOGENEOUS, _INT.filter(bool))
@example((True, False, 4), -2)
@example((0, 0, 0, 0, 0, 0), 1)
def test_canonical_is_one_scale_free_form(t, k):
    with pytest.raises(GeometryError):
        _canonical(tuple(0 * e for e in t))
    # a rational entry is refused, not cleared: every value is built from integers
    with pytest.raises(TypeError):
        _canonical(t[:-1] + (F(1, 2),))
    if not any(t):
        return
    n = _canonical(t)
    assert all(type(e) is int for e in n)
    assert n == _canonical(tuple(k * e for e in t))
    assert gcd(*n) == 1 and next(e for e in n if e != 0) > 0
    assert n == _OLD_NORMS[len(t)](t)


_X_CHART = default_chart(X_AXIS)


# The 3-entry form written out in PPoint and PLine, and _canonical_pair, on
# tuples with zeros anywhere, negative leading entries and bool entries.
_ENTRY = st.one_of(st.just(0), _INT, st.booleans())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(_ENTRY, _ENTRY, _ENTRY))
@example((0, 0, -3))
@example((0, -4, 6))
@example((-2, 0, 0))
@example((True, False, True))
@example((False, False, False))
@example((0, 0, 0))
def test_point_and_line_forms_equal_canonical(t):
    if not any(t):
        for build in (PPoint, PLine):
            with pytest.raises(GeometryError, match="^zero homogeneous tuple$"):
                build(*t)
        return
    n = _canonical(t)
    for coords in (PPoint(*t).coords, PLine(*t).coeffs):
        assert coords == n and [type(e) for e in coords] == [int] * 3
    with pytest.raises(TypeError):
        PPoint(*t[:2], F(1, 2))


# The 4-entry form written out in LineMap, on the same entries: the zero
# tuple is refused before a singular map.
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY))
@example((0, 0, 0, -3))
@example((-2, 4, 6, 0))
@example((2, -4, -1, 2))
@example((True, False, False, True))
@example((False, False, False, False))
def test_line_map_form_equals_canonical(t):
    if not any(t):
        with pytest.raises(GeometryError, match="^zero homogeneous tuple$"):
            LineMap(t, _X_CHART, _X_CHART)
        return
    a, b, c, d = n = _canonical(t)
    if a * d == b * c:
        with pytest.raises(GeometryError, match="^singular line map$"):
            LineMap(t, _X_CHART, _X_CHART)
        return
    matrix = LineMap(t, _X_CHART, _X_CHART).matrix
    assert matrix == n and [type(e) for e in matrix] == [int] * 4


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(_ENTRY, _ENTRY))
@example((0, -3))
@example((-5, 0))
@example((True, False))
@example((False, False))
def test_pair_form_equals_canonical(t):
    if not any(t):
        with pytest.raises(GeometryError, match="^zero homogeneous tuple$"):
            _canonical_pair(*t)
        return
    pair = _canonical_pair(*t)
    assert pair == _canonical(t) and [type(e) for e in pair] == [int, int]
    # the pairs a line map returns: the identity map gives the canonical pair
    assert LineMap((1, 0, 0, 1), _X_CHART, _X_CHART).apply_pair(t) == pair


def _project_by_meet_join(center, p, target):
    """project_point as meet(join(center, p), target), with its two guards."""
    if incident(center, target):
        raise GeometryError("projection center on the target line")
    if p == center:
        raise GeometryError("cannot project the center itself")
    return meet(join(center, p), target)


_TRIPLE = st.tuples(_INT, _INT, _INT).filter(any)
_SMALL = st.integers(-3, 3)
_SMALL_TRIPLE = st.tuples(_SMALL, _SMALL, _SMALL).filter(any)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(_TRIPLE, _TRIPLE, _TRIPLE),
                 st.tuples(_SMALL_TRIPLE, _SMALL_TRIPLE, _SMALL_TRIPLE)))
@example(((0, 0, 1), (1, 2, 0), (0, 1, 0)))    # p at infinity
@example(((1, 1, 0), (3, 2, 1), (0, 1, 0)))    # center at infinity
@example(((0, 0, 1), (5, 0, 1), (0, 1, 0)))    # p on the target
@example(((0, 0, 1), (0, 0, 1), (0, 1, 0)))    # p == center
@example(((0, 0, 2), (1, 1, 1), (0, 0, 1)))    # onto the line at infinity
@example(((3, 0, 1), (1, 1, 1), (1, 0, -3)))   # center on the target
@example(((3, 0, 1), (3, 0, 1), (1, 0, -3)))   # both
def test_project_point_equals_meet_of_join(data):
    k, x, l = data
    center, p, target = PPoint(*k), PPoint(*x), PLine(*l)
    try:
        expected = _project_by_meet_join(center, p, target)
    except GeometryError as exc:
        with pytest.raises(GeometryError, match=f"^{exc}$"):
            project_point(center, p, target)
        return
    image = project_point(center, p, target)
    assert image.coords == expected.coords and incident(image, target)
    # a point on the target is its own image
    assert project_point(center, image, target).coords == image.coords


@pytest.mark.parametrize("build, args", [
    (PPoint, (3, -6, 9)),
    (PLine, (1, 0, -8)),
    (P3Point, (0, -6, 4, 18)),
    (P3Plane, (5, 10, 0, -15)),
    (Conic, (2, 0, -1, 2, 0, -6)),
    (lambda *m: LineMap(m, _X_CHART, _X_CHART), (6, -1, 12, 15)),
], ids=["PPoint", "PLine", "P3Point", "P3Plane", "Conic", "LineMap"])
@pytest.mark.parametrize("k", [F(-3, 7), 5, F(1, 6)])
def test_value_equals_itself_built_from_a_rational_multiple(build, args, k):
    # k = p/q times an integer tuple, in integer form: q * args against p * args
    p, q = F(k).numerator, F(k).denominator
    a, b = build(*(q * e for e in args)), build(*(p * e for e in args))
    assert a == b == build(*args) and hash(a) == hash(b)


# -- join / meet -------------------------------------------------------------


def test_join_examples():
    assert join(PPoint(1, 0, 1), PPoint(0, 1, 1)) == PLine(1, 1, -1)
    assert join(PPoint(1, 0, 0), PPoint(0, 1, 0)) == PLine(0, 0, 1)
    assert join(PPoint(0, 0, 1), PPoint(1, 0, 1)) == PLine(0, 1, 0)


def test_join_equal_points_rejected():
    with pytest.raises(GeometryError):
        join(PPoint(2, 4, 2), PPoint(1, 2, 1))


def test_meet_examples():
    assert meet(PLine(1, 0, 0), PLine(0, 1, 0)) == PPoint(0, 0, 1)
    assert meet(PLine(0, 1, -1), PLine(0, 1, -2)) == PPoint(1, 0, 0)
    assert meet(PLine(1, 1, -1), PLine(1, -1, 0)) == PPoint(1, 1, 2)


def test_join_meet_duality():
    rng = SplitMix64.for_kind("duality", 3)
    for _ in range(200):
        p, q, r = (rand_point(rng) for _ in range(3))
        if p == q or p == r or q == r or incident(r, join(p, q)):
            continue
        assert meet(join(p, q), join(p, r)) == p


def test_projective_equality_is_canonical():
    assert PPoint(2, 4, 6) == PPoint(1, 2, 3)
    assert PPoint(-1, -2, -3) == PPoint(1, 2, 3)
    assert len({PPoint(2, 4, 6), PPoint(1, 2, 3)}) == 1


# -- charts and cross-ratio ---------------------------------------------------


def test_chart_roundtrip():
    ch = default_chart(PLine(3, -2, 5))
    for t in (F(0), F(1), F(-7, 3), F(22, 5)):
        assert rat(ch.param_pair(point_at(ch, t))) == t
    assert rat(ch.param_pair(infinity_point_of(ch.line))) is INF
    assert ch.point_at_pair((1, 0)) == infinity_point_of(ch.line)


def test_chart_requires_finite_base_points():
    with pytest.raises(GeometryError):
        AffineChart(PLine(0, 1, 0), PPoint(1, 0, 0), PPoint(0, 0, 1))


def test_cross_ratio_examples():
    ch = default_chart(X_AXIS)
    pts = [point_at(ch, t) for t in (0, 1, 2, 3)]
    assert rat(cross_ratio(*pts)) == F(4, 3)
    a, b, c = (point_at(ch, t) for t in (0, 1, 2))
    assert rat(cross_ratio(a, b, c, c)) == 1
    pts = [point_at(ch, t) for t in (F(0), F(2), F(3), F(3, 2))]
    assert rat(cross_ratio(*pts)) == -1


def test_cross_ratio_infinite_value_when_d_equals_a():
    ch = default_chart(X_AXIS)
    a, b, c = (point_at(ch, t) for t in (0, 1, 2))
    assert rat(cross_ratio(a, b, c, a)) is INF


def test_cross_ratio_rejects_bad_input():
    ch = default_chart(X_AXIS)
    a, b, c = (point_at(ch, t) for t in (0, 1, 2))
    with pytest.raises(GeometryError):
        cross_ratio(a, a, b, c)
    with pytest.raises(GeometryError):
        cross_ratio(a, b, A(5, 5), c)


def test_cross_ratio_params_with_infinity():
    # parameters as projective pairs (u, v) = u/v; (1, 0) is the point at infinity
    assert rat(cross_ratio_pairs((0, 1), (1, 1), (2, 1), (1, 0))) == F(2)
    assert rat(cross_ratio_pairs((1, 0), (0, 1), (1, 1), (2, 1))) == F(2)


def test_harmonic_partner_param():
    assert harmonic_partner_param((0, 1), (2, 1), (3, 1)) == (3, 2)
    assert harmonic_partner_param((0, 1), (2, 1), (1, 1)) == (1, 0)


# -- line maps ----------------------------------------------------------------


def test_perspective_identity_when_lines_equal():
    ch = default_chart(X_AXIS)
    m = perspective_map(A(0, 5), ch, ch)
    assert m.matrix == (1, 0, 0, 1)


def test_line_map_keeps_rational_entries_exact():
    # t -> (3/2 t + 1) and t -> (1/2 t + 1/3) with their denominators
    # cleared: the maps act exactly, and a Fraction entry is refused
    ch = default_chart(X_AXIS)
    assert move(LineMap((3, 2, 0, 2), ch, ch), 2) == 4
    m = LineMap((3, 2, 0, 6), ch, ch)
    assert m.matrix == (3, 2, 0, 6)
    assert move(m, F(1)) == F(5, 6)
    with pytest.raises(TypeError):
        LineMap((F(1, 2), F(1, 3), 0, 1), ch, ch)


def test_perspective_vertical_projection():
    src = default_chart(PLine(0, 1, 0))
    dst = default_chart(PLine(0, 1, -1))
    m = perspective_map(PPoint(0, 1, 0), src, dst)
    for t in (F(0), F(5), F(-3, 2)):
        assert move(m, t) == t


_SMALL = st.integers(-9, 9)
_MATRICES = st.one_of(
    st.tuples(_SMALL, _SMALL, _SMALL, _SMALL),
    st.tuples(_SMALL, _SMALL, _SMALL).map(lambda m: (m[0], m[1], 0, m[2])),  # c = 0
)
_QUAD_PARTS = st.tuples(
    st.builds(F, st.integers(-50, 50), st.integers(1, 9)),
    st.builds(F, st.integers(-50, 50).filter(bool), st.integers(1, 9)),
    st.builds(F, st.integers(1, 10**6), st.integers(1, 50)),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_MATRICES, _QUAD_PARTS)
@example((0, 2, 1, 0), (F(0), F(1), F(2)))
@example((3, -1, 0, 2), (F(1, 2), F(-3), F(5, 7)))
@example((1, 2, 3, -1), (F(1, 3), F(1, 3), F(7)))
def test_apply_quad_matches_generic_arithmetic(matrix, parts):
    x, y, n = parts
    # sqrt(n) = (s/den)*sqrt(rad) for n = num/den
    s, rad = quad_sqrt(n.numerator * n.denominator)
    assume(rad > 1)
    a, b, c, d = matrix
    assume(a * d - b * c != 0)
    y = y * F(s, n.denominator)
    t = QuadExt(x.numerator * y.denominator, y.numerator * x.denominator,
                x.denominator * y.denominator, rad)
    got = _apply_quad(LineMap(matrix, default_chart(X_AXIS), default_chart(X_AXIS)).matrix, t)
    assert isinstance(got, QuadExt) and got.d == t.d
    assert pair(got) == homography(matrix, pair(t), t.d)


def test_perspective_matches_pointwise_meet_join():
    rng = SplitMix64.for_kind("persp-pointwise", 11)
    for trial in range(100):
        p1, p2, q1, q2, k = (rand_point(rng) for _ in range(5))
        try:
            src = default_chart(join(p1, p2))
            dst = default_chart(join(q1, q2))
            if src.line == dst.line or incident(k, src.line) or incident(k, dst.line):
                continue
            m = perspective_map(k, src, dst)
        except GeometryError:
            continue
        for t in (F(0), F(2), F(-1, 3)):
            p = point_at(src, t)
            assert m.apply_point(p) == project_point(k, p, dst.line)


def test_perspective_roundtrip_is_identity():
    rng = SplitMix64.for_kind("persp-roundtrip", 5)
    for _ in range(100):
        p1, p2, q1, q2, k = (rand_point(rng) for _ in range(5))
        try:
            src = default_chart(join(p1, p2))
            dst = default_chart(join(q1, q2))
            if src.line == dst.line or incident(k, src.line) or incident(k, dst.line):
                continue
            fwd = perspective_map(k, src, dst)
            back = perspective_map(k, dst, src)
        except GeometryError:
            continue
        assert back.compose(fwd).matrix == (1, 0, 0, 1)


def test_cross_ratio_invariant_under_maps():
    # 500 random instances, exact equality
    rng = SplitMix64.for_kind("cr-invariance", 1)
    done = 0
    for _ in range(1000):
        p1, p2, q1, q2, k = (rand_point(rng) for _ in range(5))
        try:
            src = default_chart(join(p1, p2))
            dst = default_chart(join(q1, q2))
            if src.line == dst.line or incident(k, src.line) or incident(k, dst.line):
                continue
            m = perspective_map(k, src, dst)
        except GeometryError:
            continue
        ts = []
        while len(ts) < 4:
            t = F(*rng.fraction_pair(20))
            if t not in ts:
                ts.append(t)
        pts = [point_at(src, t) for t in ts]
        imgs = [m.apply_point(p) for p in pts]
        try:
            assert rat(cross_ratio(*pts)) == rat(cross_ratio(*imgs))
        except GeometryError:
            continue
        done += 1
        if done == 500:
            break
    assert done == 500


def test_linemap_composition_matches_pointwise():
    rng = SplitMix64.for_kind("compose", 9)
    ch = default_chart(X_AXIS)
    for _ in range(100):
        m1 = _random_map(rng, ch)
        m2 = _random_map(rng, ch)
        m3 = _random_map(rng, ch)
        assert m3.compose(m2.compose(m1)).matrix == m3.compose(m2).compose(m1).matrix
        comp = m2.compose(m1)
        for t in (F(0), F(1), F(7, 2)):
            u = move(m1, t)
            v = move(m2, u)
            got = move(comp, t)
            assert got == v or (got is INF and v is INF)


def _random_map(rng, ch):
    while True:
        m = tuple(rng.int_between(-9, 9) for _ in range(4))
        if m[0] * m[3] - m[1] * m[2] != 0:
            return LineMap(m, ch, ch)


# -- minimal 3d ---------------------------------------------------------------


def _lift(plane, pp):
    """The point of 3-space with chart coordinates pp on the plane."""
    basis = [b.coords for b in plane_basis(plane)]
    return P3Point(*(sum(c * b[i] for c, b in zip(pp.coords, basis)) for i in range(4)))


def _chart_points(kind, n):
    rng = SplitMix64.for_kind(kind, 4)
    points = []
    for _ in range(n):
        x, y = F(*rng.fraction_pair(10)), F(*rng.fraction_pair(10))
        z = rng.int_between(1, 3)
        points.append(A(x / z, y / z))
    return points


BASE, CUT = P3Plane(0, 0, 1, 0), P3Plane(-1, 0, 2, -2)


def test_projection_fixes_points_of_the_plane():
    # base and cut meet in the line x = -2w, z = 0; every plane is fixed
    # pointwise by the perspectivity onto itself
    apex = P3Point(1, 2, 5, 1)
    to_cut = plane_perspectivity(apex, BASE, CUT)
    for y in range(-3, 4):
        common = P3Point(-2, y, 0, 1)
        assert _lift(CUT, apply_mat3(to_cut, PPoint(-2, y, 1))) == common
    for plane in (BASE, CUT):
        same = plane_perspectivity(apex, plane, plane)
        for pp in _chart_points("fixed", 20):
            assert apply_mat3(same, pp) == pp


def test_projection_drops_z_from_infinite_apex():
    # an apex at infinity in the z direction projects parallel to the z axis
    to_base = plane_perspectivity(P3Point(0, 0, 1, 0), CUT, BASE)
    for pp in _chart_points("parallel", 20):
        x, y, z, w = _lift(CUT, pp).coords
        assert _lift(BASE, apply_mat3(to_base, pp)) == P3Point(x, y, 0, w)


def test_projection_roundtrip_identity():
    # the two directions are built independently; their product is a
    # nonzero multiple of the identity
    for apex, src, dst in (
        (P3Point(1, 2, 5, 1), BASE, P3Plane(1, 1, 2, -3)),
        (P3Point(0, 0, 2, 1), BASE, CUT),
        (P3Point(3, -1, 0, 0), P3Plane(1, 1, 2, -3), CUT),
    ):
        there = plane_perspectivity(apex, src, dst)
        back = plane_perspectivity(apex, dst, src)
        product = [[sum(back[i][k] * there[k][j] for k in range(3)) for j in range(3)]
                   for i in range(3)]
        scale = product[0][0]
        assert scale != 0
        assert product == [[scale if i == j else 0 for j in range(3)] for i in range(3)]


def test_perspectivity_image_is_on_dst_and_on_the_line_through_the_apex():
    # oracle in 3-space: lift both points through plane_basis; the image is
    # on dst, and apex, source point and image have rank 2
    rng = SplitMix64.for_kind("perspectivity", 7)
    checked = 0
    for _ in range(200):
        apex = P3Point(*(rng.int_between(-5, 5) for _ in range(3)), rng.int_between(0, 1))
        src, dst = (P3Plane(*(rng.int_between(-4, 4) for _ in range(4))) for _ in range(2))
        if src.contains(apex) or dst.contains(apex):
            continue
        m = plane_perspectivity(apex, src, dst)
        for pp in _chart_points(f"perspectivity-{checked}", 5):
            x, y = _lift(src, pp), _lift(dst, apply_mat3(m, pp))
            assert dst.contains(y)
            rows = (apex.coords, x.coords, y.coords)
            for drop in range(4):
                assert det3(*(tuple(r[i] for i in range(4) if i != drop) for r in rows)) == 0
        checked += 1
        if checked == 40:
            break
    assert checked == 40


def test_projection_errors():
    apex = P3Point(0, 0, 1, 1)
    with pytest.raises(GeometryError, match="apex must be off both planes"):
        plane_perspectivity(apex, P3Plane(0, 0, 1, -1), BASE)
    with pytest.raises(GeometryError, match="apex must be off both planes"):
        plane_perspectivity(apex, BASE, P3Plane(0, 0, 1, -1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(_INT, _INT, _INT, _INT).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
       _INT.filter(bool), st.integers(1, 10**6))
def test_frozen_equality_reads_fields_for_distinct_instances(m, k, shift):
    # built twice from equal data, never the same object, always equal
    line = PLine(0, 1, -shift)
    o, u = PPoint(0, shift, 1), PPoint(k, shift, 1)
    chart, twin = AffineChart(line, o, u), AffineChart(PLine(0, -2, 2 * shift), o, u)
    first = LineMap(m, chart, chart)
    second = LineMap(tuple(k * e for e in m), twin, twin)
    for a, b in ((chart, twin), (first, second)):
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a == a and len({a, b}) == 1
    other = AffineChart(line, u, o)
    assert chart != other and not chart == other
    assert first.compose(second).src == twin


# -- misc helpers -------------------------------------------------------------


def test_midpoint_and_infinity_point():
    assert midpoint(A(0, 0), A(4, 2)) == A(2, 1)
    assert infinity_point_of(PLine(1, -1, 3)) == PPoint(-1, -1, 0)
    with pytest.raises(GeometryError):
        midpoint(A(0, 0), PPoint(1, 0, 0))


# -- chord products and ratios of parallel segments --------------------------------


def _affine(p):
    # the rational affine coordinates of a finite point
    if p.is_at_infinity():
        raise GeometryError(f"{p} has no affine coordinates")
    x, y, z = p.coords
    return F(x, z), F(y, z)


def _displacement(p, q):
    (px, py), (qx, qy) = _affine(p), _affine(q)
    return qx - px, qy - py


def _old_chord_product(origin, p, q):
    # the affine formula, kept as the oracle of the integer one
    v, w = _displacement(origin, p), _displacement(origin, q)
    return v[0] * w[0] + v[1] * w[1]


def _chord_value(origin, p, q):
    return F(*chord_product(origin, p, q))


def _affine_parallel_ratio(p1, p2, q1, q2):
    # t with vector(p1->p2) = t * vector(q1->q2), the oracle of ratio's
    # second-origin form; its errors are renamed by _RATIO_ERRORS
    v = _displacement(p1, p2)
    w = _displacement(q1, q2)
    if v[0] * w[1] != v[1] * w[0]:
        raise GeometryError("segments are not parallel")
    if w[0] != 0:
        return v[0] / w[0]
    if w[1] != 0:
        return v[1] / w[1]
    raise GeometryError("zero reference segment")


_RATIO_ERRORS = {
    "segments are not parallel": "ratio of non-parallel segments",
    "zero reference segment": "ratio with zero denominator segment",
}


def _outcome(f, *args):
    try:
        value = f(*args)
    except GeometryError as exc:
        return "error", str(exc)
    return type(value), value


def _points(z):
    return st.tuples(st.integers(-12, 12), st.integers(-12, 12), z).filter(any).map(
        lambda t: PPoint(*t)
    )


FINITE = _points(st.integers(-6, 6).filter(bool))  # mostly z != 1 after reduction
SOME_POINT = st.one_of(FINITE, FINITE, FINITE, _points(st.just(0)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(SOME_POINT, SOME_POINT, SOME_POINT)
@example(PPoint(1, 2, 3), PPoint(-4, 1, 6), PPoint(5, 5, -2))
@example(PPoint(1, 2, 0), PPoint(3, 1, 0), PPoint(1, 1, 1))
def test_chord_product_matches_affine_formula(origin, p, q):
    assert _outcome(_chord_value, origin, p, q) == _outcome(_old_chord_product, origin, p, q)


@st.composite
def parallel_data(draw):
    p1, p2, q1 = draw(SOME_POINT), draw(SOME_POINT), draw(SOME_POINT)
    if draw(st.booleans()) or any(p.is_at_infinity() for p in (p1, p2, q1)):
        return p1, p2, q1, draw(SOME_POINT)
    # q2 = q1 + t * (p2 - p1): parallel segments, t = 0 gives a zero one
    t = F(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    (x1, y1), (x2, y2), (qx, qy) = _affine(p1), _affine(p2), _affine(q1)
    q2 = A(qx + t * (x2 - x1), qy + t * (y2 - y1))
    return p1, p2, q1, q2


@settings(max_examples=400, deadline=None, derandomize=True)
@given(parallel_data())
@example((PPoint(1, 2, 3), PPoint(4, 1, 3), PPoint(0, 5, 2), PPoint(0, 5, 2)))
@example((PPoint(1, 2, 3), PPoint(1, 5, 3), PPoint(2, 1, 7), PPoint(2, 4, 7)))
def test_second_origin_ratio_matches_affine_formula(data):
    p1, p2, q1, q2 = data
    got = _outcome(lambda: F(*ratio(p1, p2, q2, q1)))
    want = _outcome(_affine_parallel_ratio, *data)
    if want[0] == "error":
        infinite = want[1].endswith("has no affine coordinates")
        want = "error", "ratio endpoint at infinity" if infinite else _RATIO_ERRORS[want[1]]
    assert got == want


def test_chord_products_name_the_first_point_at_infinity():
    finite = [PPoint(1, 2, 3), PPoint(-4, 1, 6), PPoint(5, 5, -2), PPoint(2, 7, 5)]
    far = [PPoint(1, 3, 0), PPoint(2, -1, 0)]
    for i in range(4):
        # the second-origin ratio has one error for every endpoint at infinity
        args = finite[:]
        args[i] = far[0]
        with pytest.raises(NonGenericError, match="^ratio endpoint at infinity$"):
            ratio(*args)
    for i in range(3):
        args = finite[:3]
        args[i] = far[0]
        with pytest.raises(GeometryError, match=r"^\(1:3:0\) has no affine"):
            chord_product(*args)
        assert _outcome(_chord_value, *args) == _outcome(_old_chord_product, *args)
        for j in range(i + 1, 3):
            args[j] = far[1]
            assert _outcome(_chord_value, *args) == _outcome(_old_chord_product, *args) == (
                "error", "(1:3:0) has no affine coordinates")


def test_default_chart_cache_is_bounded():
    default_chart.cache_clear()
    for k in range(CHART_CACHE_SIZE + 40):
        chart = default_chart(PLine(1, k + 1, 7))
        assert chart is default_chart(PLine(1, k + 1, 7))
    info = default_chart.cache_info()
    assert info.maxsize == CHART_CACHE_SIZE
    assert info.currsize <= CHART_CACHE_SIZE


def test_value_classes_compare_hash_and_freeze_by_value():
    from arguesia.exact_scalar import QuadExt

    p, q = PPoint(1, 2, 3), PPoint(4, 1, 3)
    line = PLine(*join(p, q).coeffs)
    chart = AffineChart(line, p, q)
    root = QuadExt(1, 6, 2, 5)  # 1/2 + 3*sqrt(5)
    twins = [
        (p, PPoint(2, 4, 6)),
        (p, A(F(1, 3), F(2, 3))),
        (join(p, q), line),
        (chart, AffineChart(join(q, p), PPoint(-1, -2, -3), q)),
        (LineMap((1, 2, 3, 4), chart, chart), LineMap((-2, -4, -6, -8), chart, chart)),
        (root, QuadExt(-2, -12, -4, 5)),
    ]
    for a, b in twins:
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    assert p != q and hash(PPoint(0, 0, 1)) == hash(((0, 0, 1),))
    for number in (0, 3, F(1, 2), F(root.p, root.r), (root.p, root.r)):
        assert (root == number) is False and (number == root) is False
    assert p != p.coords and (p == p.coords) is False

    default_chart.cache_clear()
    first = default_chart(join(p, q))
    assert default_chart(line) is first
    assert default_chart.cache_info().hits == 1

    for obj, field in ((p, "coords"), (line, "coeffs"), (chart, "origin"),
                       (twins[4][0], "matrix"), (root, "p")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1

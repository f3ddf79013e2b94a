from fractions import Fraction as F

import pytest

from arguesia import conics
from arguesia.conics import (
    UNIT_CIRCLE as UC,
    UNIT_CIRCLE_PAR as PAR,
    Conic,
    ConicError,
    ConicParametrization,
    chord_quadratic,
    conic_line_intersection,
    pencil_member,
    second_intersection,
)
from arguesia.exact_scalar import InternalError
from arguesia.menelaus_engine import NonGenericError
from arguesia.projective_core import PLine, PPoint, chord_product, default_chart, join, meet
from arguesia.rng import SplitMix64
from arguesia.theorems import quadrangle_figure
from collineation import apply_collineation, apply_collineation_point
from quadfield import affine_point as A
from quadfield import line_pairs


# -- pencils -------------------------------------------------------------------

SQUARE = (A(1, 0), A(0, 1), A(-1, 0), A(0, -1))
# y = 2x + 3 is parallel to no bornale of SQUARE and misses its bornes and
# diagonal points
SQUARE_TRANSVERSAL = default_chart(PLine(2, -1, 3))


def square_pencil():
    """The generators BC+ED and BE+DC of the pencil through SQUARE, and the
    third line pair BD+CE that they leave out."""
    pairs = line_pairs(quadrangle_figure(SQUARE, SQUARE_TRANSVERSAL))
    return pairs["IK"], pairs["PQ"], pairs["GH"]


def _combination(lam, g1, mu, g2):
    return Conic(*(lam * a + mu * b for a, b in zip(g1.m, g2.m)))


def test_pencil_member_through_circle_point_is_circle():
    gen1, gen2, _ = square_pencil()
    assert pencil_member(gen1, gen2, A(F(3, 5), F(4, 5))) == UC


def test_pencil_member_on_generator():
    gen1, gen2, _ = square_pencil()
    # a point on gen1's line pair (but not a base point) returns gen1
    probe = PPoint(2, -1, 1)
    assert gen1.contains(probe)
    assert pencil_member(gen1, gen2, probe) == gen1


def test_pencil_member_base_point_ambiguous():
    gen1, gen2, _ = square_pencil()
    with pytest.raises(ConicError):
        pencil_member(gen1, gen2, A(1, 0))


def test_pencil_rejects_collinear_base():
    # a pencil's base points are a quadrangle's bornes: no three collinear
    with pytest.raises(NonGenericError, match="three bornes are collinear"):
        quadrangle_figure((A(0, 0), A(1, 0), A(2, 0), A(0, 1)), SQUARE_TRANSVERSAL)


def test_members_all_pass_through_base():
    rng = SplitMix64.for_kind("pencil-base", 4)
    gen1, gen2, _ = square_pencil()
    for _ in range(50):
        probe = A(F(*rng.fraction_pair(9)), F(*rng.fraction_pair(9)))
        if probe in SQUARE:
            continue
        member = pencil_member(gen1, gen2, probe)
        for p in SQUARE + (probe,):
            assert member.contains(p)


def test_exactly_three_degenerate_members_on_100_quadrangles():
    # det(lam*gen1 + mu*gen2) = lam*mu*(b*lam + c*mu): the roots are
    # (1:0), (0:1) and one more, which must be the third bornale pair
    rng = SplitMix64.for_kind("three-degenerate", 9)
    done = 0
    for _ in range(300):
        pts = []
        while len(pts) < 4:
            t = rng.fraction_pair(10)
            p = PAR.point_at(t)
            if p not in pts:
                pts.append(p)
        try:
            pairs = line_pairs(quadrangle_figure(tuple(pts), SQUARE_TRANSVERSAL, strict=False))
        except NonGenericError:
            continue
        gen1, gen2, third = pairs["IK"], pairs["PQ"], pairs["GH"]
        assert gen1.det() == 0 and gen2.det() == 0 and third.det() == 0
        assert len({gen1, gen2, third}) == 3
        # the cubic lam*mu*(b*lam + c*mu): read b, c off two raw evaluations
        b_coef = (_pencil_det(gen1, gen2, 1, 1) - _pencil_det(gen1, gen2, 1, -1)) // 2
        c_coef = (_pencil_det(gen1, gen2, 1, 1) + _pencil_det(gen1, gen2, 1, -1)) // 2
        lam3, mu3 = -c_coef, b_coef
        assert lam3 != 0 and mu3 != 0
        assert _pencil_det(gen1, gen2, lam3, mu3) == 0
        assert _combination(lam3, gen1, mu3, gen2) == third
        # elsewhere the pencil member is nondegenerate
        for lam, mu in ((1, 1), (2, 3), (-1, 5)):
            if mu3 * lam != lam3 * mu:
                assert _pencil_det(gen1, gen2, lam, mu) != 0
        done += 1
        if done == 100:
            break
    assert done == 100


def _pencil_det(gen1, gen2, lam, mu):
    g1, g2 = gen1.rows(), gen2.rows()
    rows = [
        tuple(lam * g1[i][j] + mu * g2[i][j] for j in range(3)) for i in range(3)
    ]
    from arguesia._kernel import det3

    return det3(*rows)


def test_third_degenerate_is_in_the_pencil():
    gen1, gen2, third = square_pencil()
    # probe a point of the third line pair that is not a base point
    probe = A(2, 0)
    assert third.contains(probe) and probe not in SQUARE
    assert pencil_member(gen1, gen2, probe) == third


# -- line intersection -----------------------------------------------------------


def test_secant_line_two_rational_points():
    disc, chord = conic_line_intersection(UC, PLine(0, 5, -4))
    assert len(chord) == 2 and disc > 0
    assert set(chord) == {A(F(3, 5), F(4, 5)), A(F(-3, 5), F(4, 5))}


def test_tangent_line_double_point():
    disc, chord = conic_line_intersection(UC, PLine(1, 0, -1))
    assert disc == 0 and chord == (A(1, 0),)


def test_missing_line_empty():
    disc, chord = conic_line_intersection(UC, PLine(0, 1, -2))
    assert chord == () and disc < 0


def test_irrational_chord_has_no_rational_points():
    disc, chord = conic_line_intersection(UC, PLine(1, -1, 0))  # y = x meets at +-sqrt(1/2)
    assert chord == () and disc > 0


def test_chord_quadratic_is_the_form_on_chart_parameters():
    # A*u^2 + B*u*v + C*v^2 vanishes at the parameter pair of each rational
    # chord point, and its discriminant has the chord discriminant's sign
    rng = SplitMix64.for_kind("chord-form", 1)
    seen = {1: 0, 0: 0, -1: 0}
    rational = 0
    for i in range(300):
        # every third line passes through a rational point of the circle
        if i % 3 == 0:
            p = PAR.point_at(rng.fraction_pair(6))
        else:
            p = A(F(*rng.fraction_pair(6)), F(*rng.fraction_pair(6)))
        q = A(F(*rng.fraction_pair(6)), F(*rng.fraction_pair(6)))
        if p == q:
            continue
        chart = default_chart(join(p, q))
        big_a, big_b, big_c = chord_quadratic(UC, chart)
        disc, chord = conic_line_intersection(UC, chart.line)
        rational += len(chord)
        for pt in chord:
            u, v = chart.param_pair(pt)
            assert big_a * u * u + big_b * u * v + big_c * v * v == 0
        sign = (disc > 0) - (disc < 0)
        form_disc = big_b * big_b - 4 * big_a * big_c
        assert (form_disc > 0) - (form_disc < 0) == sign
        seen[sign] += 1
    assert seen[1] > 20 and seen[-1] > 20 and rational > 100


def test_tangency_iff_polar_line():
    rng = SplitMix64.for_kind("tangency", 2)
    for _ in range(50):
        t = rng.fraction_pair(9)
        p = PAR.point_at(t)
        tangent = UC.polar_line(p)
        disc, chord = conic_line_intersection(UC, tangent)
        assert disc == 0 and chord == (p,)


def test_degenerate_conic_rejected():
    pair = Conic.from_lines(PLine(1, 0, 0), PLine(0, 1, 0))
    with pytest.raises(ConicError):
        conic_line_intersection(pair, PLine(1, 1, -1))


# -- parametrization -------------------------------------------------------------


def test_classic_parametrization_values():
    assert PAR.point_at((1, 2)) == A(F(3, 5), F(4, 5))
    assert PAR.point_at((0, 1)) == A(1, 0)
    assert PAR.point_at((1, 0)) == A(-1, 0)


def test_parameter_recovery_on_100_points():
    # t is the slope of the chord from the seed (-1, 0) to point_at(t)
    rng = SplitMix64.for_kind("param-recovery", 1)
    for _ in range(100):
        t = rng.fraction_pair(40)
        p = PAR.point_at(t)
        px, py, pz = p.coords
        x, y = F(px, pz), F(py, pz)
        assert x != -1 and y / (x + 1) == F(*t)
    # the seed itself is the tangent slope, vertical at (-1, 0)
    assert PAR.point_at((1, 0)) == A(-1, 0)
    assert UC.polar_line(A(-1, 0)).coeffs[1] == 0


def test_parametrization_rejects_bad_seed():
    with pytest.raises(ConicError):
        ConicParametrization(UC, A(2, 0))


def test_second_intersection_tangent_returns_base():
    p = A(1, 0)
    direction = PPoint(0, 1, 0)  # vertical: tangent at (1,0)
    assert second_intersection(UC, p, direction) == p


def test_root_points_keep_their_exactness_self_check(monkeypatch):
    """A root point forced off the conic is an InternalError, a fault of the
    program: (x : y : z + 1) is never on x^2 + y^2 = z^2 when (x : y : z)
    is, as that would need 2z + 1 = 0."""
    line = PLine(0, 1, 0)  # y = 0 meets the circle in (1, 0) and (-1, 0)
    span = conics._line_span(line)
    monkeypatch.setattr(conics, "_line_span", lambda l: span)
    monkeypatch.setattr(conics, "PPoint", lambda x, y, z: PPoint(x, y, z + 1))
    with pytest.raises(InternalError, match="^rational intersection failed exactness check$"):
        conic_line_intersection(UC, line)
    with pytest.raises(InternalError, match="^second intersection failed exactness check$"):
        second_intersection(UC, A(-1, 0), PPoint(1, 1, 0))  # the chord y = x + 1


# -- power of a point (Euclid III.35/36) through chord_product ----------------------


def test_power_origin_symmetric_chords():
    o = A(0, 0)
    assert F(*chord_product(o, A(1, 0), A(-1, 0))) == F(-1)
    assert F(*chord_product(o, A(0, 1), A(0, -1))) == F(-1)


def test_power_exterior_point():
    p = A(F(5, 4), 0)
    q = A(F(3, 5), F(4, 5))
    assert F(*chord_product(p, A(1, 0), A(-1, 0))) == F(9, 16)
    assert F(*chord_product(p, q, second_intersection(UC, q, p))) == F(9, 16)


def test_power_random_chords_agree():
    rng = SplitMix64.for_kind("power", 5)
    done = 0
    while done < 50:
        t1, t2, t3, t4 = (rng.fraction_pair(10) for _ in range(4))
        if len({F(*t) for t in (t1, t2, t3, t4)}) != 4:
            continue
        a, b, c, d = (PAR.point_at(t) for t in (t1, t2, t3, t4))
        p = meet(join(a, b), join(c, d))
        if p.is_at_infinity() or UC.contains(p):
            continue
        assert F(*chord_product(p, a, b)) == F(*chord_product(p, c, d))
        done += 1


# -- collineation transport --------------------------------------------------------


def test_collineation_preserves_incidence():
    t_rows = ((2, 1, 0), (0, 1, 1), (1, 0, 3))
    image = apply_collineation(UC, t_rows)
    rng = SplitMix64.for_kind("collineation", 7)
    for _ in range(50):
        p = PAR.point_at(rng.fraction_pair(20))
        assert image.contains(apply_collineation_point(t_rows, p))

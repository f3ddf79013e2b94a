from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arguesia.exact_scalar import QuadExt
from arguesia.involution import (
    Involution,
    InvolutionError,
    NodeCouples,
    classify,
    classify_kind,
    equivalence_check,
    partner,
    rectangle_identity_check,
)
from arguesia.projective_core import (
    AffineChart,
    GeometryError,
    LineMap,
    PLine,
    PPoint,
    default_chart,
    perspective_map,
    incident,
    infinity_point_of,
    join,
)
from arguesia.rng import SplitMix64
from quadfield import INF, add, affine_point, move, mul, pair, param, point_at, rat

CH = default_chart(PLine(0, 1, 0))  # x-axis chart


def pt(v):
    return point_at(CH, v)


def couples(*vals):
    return NodeCouples(CH, tuple((pt(a), pt(b)) for a, b in vals))


FOUR_OVER_X = couples((1, 4), (8, (1, 2)), (-1, -4))


# -- rectangle identities -----------------------------------------------------


def rectangles_hold(nc):
    return all(lhs[0] * rhs[1] == rhs[0] * lhs[1] for _, lhs, rhs in rectangle_identity_check(nc))


def test_rectangle_identities_hold_for_4_over_x():
    report = rectangle_identity_check(FOUR_OVER_X)
    assert [label for label, _, _ in report] == [
        "GF.GD/(CF.CD) = GB.GH/(CB.CH)",
        "FC.FG/(DC.DG) = FB.FH/(DB.DH)",
        "HC.HG/(BC.BG) = HD.HF/(BD.BF)",
    ]
    _, lhs, rhs = report[0]
    assert F(*lhs) == F(*rhs) == F(1, 16)
    assert rectangles_hold(FOUR_OVER_X)


def test_rectangle_identities_fail_on_perturbation():
    assert not rectangles_hold(couples((1, 4), (8, (1, 2)), (-1, -5)))


def test_rectangle_identities_four_point_harmonic():
    assert rectangles_hold(couples((0, 0), (2, 2), (3, (3, 2))))


def _rect_side_oracle(e1, e2, w1, w2):
    """One side over Fraction chart parameters, the first form of the identities."""
    num = (w1 - e1) * (w2 - e1)
    den = (w1 - e2) * (w2 - e2)
    if den == 0:
        raise InvolutionError("zero denominator in rectangle identity")
    return num / den


def _rectangle_oracle(nc):
    params = [(rat(nc.chart.param_pair(p)), rat(nc.chart.param_pair(q))) for p, q in nc.pairs]
    for p, q in params:
        if p is INF or q is INF:
            raise InvolutionError(
                "rectangle identities need finite noeuds; use the homography form"
            )
    report = []
    for ev, lhs_c, rhs_c in ((1, 2, 0), (2, 1, 0), (0, 1, 2)):
        e2, e1 = params[ev]
        lhs = _rect_side_oracle(e1, e2, *params[lhs_c])
        rhs = _rect_side_oracle(e1, e2, *params[rhs_c])
        report.append((lhs, rhs))
    return report


def _unchecked_couples(chart, pairs):
    """NodeCouples without its validation, so shared noeuds and noeuds at
    infinity reach the identities."""
    nc = object.__new__(NodeCouples)
    object.__setattr__(nc, "chart", chart)
    object.__setattr__(nc, "pairs", pairs)
    object.__setattr__(nc, "param_pairs", tuple(
        (chart.param_pair(p), chart.param_pair(q)) for p, q in pairs))
    return nc


# a chart whose origin and unit are off z = 1
TILTED = AffineChart(join(PPoint(1, 2, 3), PPoint(-2, 1, 2)), PPoint(1, 2, 3), PPoint(-2, 1, 2))


@st.composite
def _charts(draw):
    coord, z = st.integers(-6, 6), st.integers(1, 5)
    origin = PPoint(draw(coord), draw(coord), draw(z))
    unit = PPoint(draw(coord), draw(coord), draw(z))
    assume(origin != unit)
    return AffineChart(join(origin, unit), origin, unit)


_PARAMS = st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 4)), min_size=6, max_size=6)
_MATRICES = st.one_of(st.none(), st.tuples(*[st.integers(-5, 5)] * 3))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(st.just(TILTED), _charts()),
    _PARAMS,
    st.lists(st.booleans(), min_size=3, max_size=3),
    _MATRICES,
    st.integers(0, 30),
)
@example(TILTED, [F(1), F(4), F(8), F(1, 2), F(-1), F(-4)], [False] * 3, None, 6)
@example(TILTED, [F(1), F(4), F(8), F(1, 2), F(3), F(3)], [False, False, True], None, 6)
@example(TILTED, [F(1), F(4), F(8), F(1, 2), F(8), F(3)], [False] * 3, None, 6)  # zero denominator
@example(TILTED, [F(1), F(4), F(8), F(1, 2), F(-1), F(-4)], [False] * 3, None, 1)  # noeud at infinity
def test_rectangle_identities_match_fraction_oracle(chart, params, doubled, matrix, inf_slot):
    """The integer identities against the Fraction oracle: on random couples,
    on couples of a random involution (second members are partners), with
    doubled couples, a noeud at infinity in slot inf_slot < 6, and shared
    noeuds that give a zero denominator."""
    if matrix is not None:
        a, b, c = matrix
        if a * a + b * c != 0:
            inv = LineMap((a, b, c, -a), chart, chart)
            params[1::2] = [move(inv, t) for t in params[0::2]]
    if inf_slot < 6:
        params[inf_slot] = INF
    points = [chart.point_at_pair(param(t)) for t in params]
    pairs = tuple(
        (points[2 * i], points[2 * i] if doubled[i] else points[2 * i + 1]) for i in range(3)
    )
    nc = _unchecked_couples(chart, pairs)
    try:
        expected = _rectangle_oracle(nc)
    except InvolutionError as exc:
        with pytest.raises(InvolutionError) as got:
            rectangle_identity_check(nc)
        assert str(got.value) == str(exc)
        return
    report = rectangle_identity_check(nc)
    assert [(F(*lhs), F(*rhs)) for _, lhs, rhs in report] == expected


def test_node_couples_validation():
    with pytest.raises(InvolutionError, match="^a point of one couple equals a point of another$"):
        couples((1, 4), (1, 5), (2, 3))  # shared point across couples
    with pytest.raises(InvolutionError):
        couples((1, 4), (4, 1), (2, 3))  # same unordered couple twice
    # a noeud off the tronc: param_pair's guard, the one incidence test
    with pytest.raises(GeometryError, match="not on chart line"):
        NodeCouples(CH, ((pt(1), pt(4)), (pt(2), PPoint(8, 1, 1)), (pt(3), pt(5))))


def test_node_couples_test_each_noeud_once(monkeypatch):
    import arguesia.involution as involution
    import arguesia.projective_core as projective_core

    pairs = ((pt(1), pt(4)), (pt(2), pt(2)), (pt(8), pt((1, 2))))
    calls = []

    def counting(p, line):
        calls.append(p)
        return incident(p, line)

    monkeypatch.setattr(projective_core, "incident", counting)
    monkeypatch.setattr(involution, "incident", counting)
    NodeCouples(CH, pairs)
    # each of the six noeuds once, when param_pair reads it
    assert calls == [p for pair in pairs for p in pair]


# -- construction of the involution -------------------------------------------


# x -> 4/x from the couple (1, 4) and the doubled couple (2, 2)
FOUR_OVER_X_DOUBLED = couples((2, 2), (1, 4), (8, (1, 2)))


def test_involution_from_pairs_4_over_x():
    # the non-doubled couples come first: (1, 4) and (8, 1/2) fix the
    # involution and the doubled (2, 2) is checked against it
    eq = equivalence_check(FOUR_OVER_X_DOUBLED)
    assert eq["equivalent"] and eq["involution"].map.matrix == (0, 4, 1, 0)


def test_involution_from_coincident_pairs_rejected():
    with pytest.raises(InvolutionError, match="couples must be pairwise distinct"):
        couples((1, 2), (2, 1), (3, 5))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.one_of(st.just(TILTED), _charts()),
    st.lists(st.one_of(st.just(INF), st.builds(F, st.integers(-4, 4), st.integers(1, 2))),
             min_size=6, max_size=6, unique=True),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
@example(CH, [F(1), F(2), F(1), F(3), F(5), F(7)], [False] * 3)  # a shared noeud
@example(CH, [F(1), F(2), F(2), F(1), F(5), F(7)], [False] * 3)  # one couple twice
@example(CH, [F(2), F(2), F(3), F(5), INF, F(0)], [True, False, False])
def test_validated_couples_always_determine_an_involution(chart, params, doubled):
    # A trace-zero matrix with a*a + b*c = 0 relates t and u exactly when t
    # or u is its one root r, so it is the only solution for two couples
    # only when both contain r or they are one pair twice; NodeCouples
    # forbids both: the first two examples are such couples.
    points = [chart.point_at_pair(param(t)) for t in params]
    pairs = tuple(
        (points[2 * i], points[2 * i] if doubled[i] else points[2 * i + 1]) for i in range(3)
    )
    try:
        nc = NodeCouples(chart, pairs)
    except InvolutionError:
        return
    if all(p == q for p, q in pairs):
        with pytest.raises(InvolutionError, match="three doubled couples"):
            equivalence_check(nc)
        return
    eq = equivalence_check(nc)
    assert isinstance(eq["involution"], Involution)
    # it swaps the two couples it is built from, and the third exactly
    # when the couples are in involution
    swapped = [partner(eq["involution"], p) == q for p, q in pairs]
    assert sum(swapped) >= 2 and all(swapped) == eq["equivalent"]


def test_partner_examples():
    inv = equivalence_check(FOUR_OVER_X_DOUBLED)["involution"]
    assert partner(inv, pt(1)) == pt(4)
    assert partner(inv, infinity_point_of(CH.line)) == pt(0)  # the souche
    assert partner(inv, pt(2)) == pt(2)
    assert partner(inv, partner(inv, pt(7))) == pt(7)


def test_partner_rejects_points_off_the_line():
    inv = equivalence_check(FOUR_OVER_X_DOUBLED)["involution"]
    with pytest.raises(InvolutionError):
        partner(inv, affine_point(0, 5))


def test_partner_is_involutive_on_random_points():
    rng = SplitMix64.for_kind("partner-invol", 3)
    inv = equivalence_check(FOUR_OVER_X_DOUBLED)["involution"]
    for _ in range(100):
        t = F(*rng.fraction_pair(50))
        u = move(inv.map, t)
        assert move(inv.map, u) == t


# -- classification -----------------------------------------------------------


def test_classify_hyperbolic_with_rational_fixed_points():
    inv = Involution(LineMap((0, 4, 1, 0), CH, CH))
    cls = classify(inv)
    assert cls["kind"] == "hyperbolic"
    assert set(cls["fixed_points"]) == {param(2), param(-2)}


def test_classify_fixed_point_at_infinity():
    # t -> -t - 2 (c = 0) fixes -b/(2a) = -1 and the point at infinity
    inv = Involution(LineMap((1, 2, 0, -1), CH, CH))
    assert classify(inv) == {"kind": "hyperbolic", "fixed_points": (param(-1), (1, 0))}
    for t in (-1, INF):
        assert move(inv.map, t) == t


def test_classify_elliptic():
    inv = Involution(LineMap((0, -1, 1, 0), CH, CH))
    assert classify(inv)["kind"] == "elliptic"
    assert classify(inv)["fixed_points"] == ()
    assert classify_kind(inv) == "elliptic"


def test_classify_quadext_fixed_points():
    inv = Involution(LineMap((0, 2, 1, 0), CH, CH))
    cls = classify(inv)
    assert cls["kind"] == "hyperbolic"
    f1, f2 = cls["fixed_points"]
    assert isinstance(f1, QuadExt) and f1.d == 2
    for t in (f1, f2):
        assert move(inv.map, t) == t


def test_classify_quadext_fixed_points_off_centre():
    # t -> (t + 2)/(3t - 1): a != 0 puts the roots (1 +- sqrt(7))/3 off
    # centre, and |c| > 1 tells dividing by c from multiplying by it
    inv = Involution(LineMap((1, 2, 3, -1), CH, CH))
    f1, f2 = classify(inv)["fixed_points"]
    assert isinstance(f1, QuadExt) and f1.d == 7
    assert f1 != f2
    for t in (f1, f2):
        assert move(inv.map, t) == t
    # the roots of c*t^2 - 2a*t - b = 0
    assert add(pair(f1), pair(f2)) == (F(2, 3), 0)  # 2a/c
    assert mul(pair(f1), pair(f2), 7) == (F(-2, 3), 0)  # -b/c


def test_involution_invariants_rejected():
    with pytest.raises(InvolutionError):
        Involution(LineMap((1, 1, 0, 1), CH, CH))  # nonzero trace
    with pytest.raises(InvolutionError):
        Involution(LineMap((2, 0, 0, 2), CH, CH))  # identity scaled


# -- equivalence --------------------------------------------------------------


def test_equivalence_check_positive_and_negative():
    # each route through its own function: the homography check and the
    # rectangle identities
    eq = equivalence_check(FOUR_OVER_X)
    assert set(eq) == {"equivalent", "involution"}
    assert eq["equivalent"] and eq["involution"].map.matrix == (0, 4, 1, 0)
    assert rectangles_hold(FOUR_OVER_X)
    bad = couples((1, 4), (8, (1, 2)), (-1, -5))
    assert not equivalence_check(bad)["equivalent"]
    assert not rectangles_hold(bad)


def test_equivalence_closure_by_construction():
    rng = SplitMix64.for_kind("closure", 5)
    for _ in range(50):
        m = tuple(rng.int_between(-9, 9) for _ in range(3))
        a, b, c = m
        if c == 0 or a * a + b * c == 0:
            continue
        inv = Involution(LineMap((a, b, c, -a), CH, CH))
        ts = []
        while len(ts) < 3:
            t = F(*rng.fraction_pair(30))
            u = move(inv.map, t)
            if u is INF or u == t or t in ts or any(t == x or u == x or t == y or u == y for x, y in ts):
                continue
            ts.append((t, u))
        nc = NodeCouples(CH, tuple((pt_from(t), pt_from(u)) for t, u in ts))
        assert equivalence_check(nc)["equivalent"]


def pt_from(t):
    return point_at(CH, t)


def test_equivalence_500_random_involutions():
    # the central exactness property: apply a random involution to get the
    # third couple, then both characterizations must agree, exactly
    rng = SplitMix64.for_kind("equiv-500", 1)
    done = 0
    while done < 500:
        a, b, c = (rng.int_between(-30, 30) for _ in range(3))
        if c == 0 or a * a + b * c == 0:
            continue
        inv = Involution(LineMap((a, b, c, -a), CH, CH))
        pts = []
        bad = False
        while len(pts) < 3 and not bad:
            t = F(*rng.fraction_pair(40))
            u = move(inv.map, t)
            if u is INF or u == t:
                continue
            if any(t in pr or u in pr for pr in pts):
                continue
            pts.append((t, u))
        nc = NodeCouples(CH, tuple((point_at(CH, t), point_at(CH, u)) for t, u in pts))
        assert equivalence_check(nc)["equivalent"], f"failed at trial {done}"
        assert rectangles_hold(nc), f"failed at trial {done}"
        done += 1


def test_degenerate_third_couple_requires_fixed_point():
    # (D, D) as third couple passes only when D is a fixed point
    inv = equivalence_check(FOUR_OVER_X)["involution"]
    cls = classify(inv)
    fp = cls["fixed_points"][0]
    nc = NodeCouples(CH, ((pt(1), pt(4)), (pt(8), pt((1, 2))), (CH.point_at_pair(fp), CH.point_at_pair(fp))))
    assert equivalence_check(nc)["equivalent"]
    nc_bad = NodeCouples(CH, ((pt(1), pt(4)), (pt(8), pt((1, 2))), (pt(7), pt(7))))
    assert not equivalence_check(nc_bad)["equivalent"]


def _with_doubled_couple(t):
    # t -> (2t - 3)/(t - 2) has the fixed points 1 and 3; its couples
    # (0, 3/2) and (4, 5/2) and a doubled couple (t, t), on TILTED
    inv = Involution(LineMap((2, -3, 1, -2), TILTED, TILTED))
    pairs = [
        (point_at(TILTED, s), point_at(TILTED, move(inv.map, s))) for s in (F(0), F(4))
    ]
    pairs.append((point_at(TILTED, t), point_at(TILTED, t)))
    return NodeCouples(TILTED, tuple(pairs))


def test_doubled_couple_at_a_fixed_point_is_in_involution():
    nc = _with_doubled_couple(F(3))
    assert equivalence_check(nc)["equivalent"] is True
    assert rectangles_hold(nc)


def test_doubled_couple_off_the_fixed_points_is_not_in_involution():
    nc = _with_doubled_couple(F(5))  # 5 -> 7/3
    assert equivalence_check(nc)["equivalent"] is False
    assert not rectangles_hold(nc)


def test_rectangle_and_homography_routes_agree_on_seeded_couples():
    # The two forms of Desargues' involution are checked apart; this is the
    # agreement they must keep.  Finite couples of a random involution on
    # TILTED (the third one doubled at a rational fixed point when there is
    # one), then the same couples with one point moved along the line.
    rng = SplitMix64.for_kind("routes-agree", 1)
    seen = {True: 0, False: 0}
    for _ in range(300):
        a, b, c = (rng.int_between(-12, 12) for _ in range(3))
        if c == 0 or a * a + b * c == 0:
            continue
        inv = Involution(LineMap((a, b, c, -a), TILTED, TILTED))
        fixed = [rat(t) for t in classify(inv)["fixed_points"] if isinstance(t, tuple)][:1]
        taken, params = set(fixed), []
        while len(params) < 6 - 2 * len(fixed):
            t = F(*rng.fraction_pair(20))
            u = move(inv.map, t)
            if u is INF or u == t or t in taken or u in taken:
                continue
            taken |= {t, u}
            params += [t, u]
        params += fixed * 2
        slot, shift = rng.below(6), F(0)
        while shift == 0:
            shift = F(*rng.fraction_pair(20))
        for flat in (params, params[:slot] + [params[slot] + shift] + params[slot + 1:]):
            pts = [point_at(TILTED, t) for t in flat]
            try:
                nc = NodeCouples(TILTED, tuple(zip(pts[0::2], pts[1::2])))
            except InvolutionError:
                continue  # the moved point landed on another couple's point
            agreed = equivalence_check(nc)["equivalent"]
            assert rectangles_hold(nc) == agreed, flat
            seen[agreed] += 1
    assert seen[True] >= 100 and seen[False] >= 100, seen


def test_involution_json_serialization():
    from arguesia.theorems import involution_json

    inv = Involution(LineMap((0, 2, 1, 0), CH, CH))  # x -> 2/x
    data = involution_json(inv)
    assert data == {"matrix": ["0", "2", "1", "0"], "kind": "hyperbolic", "souche": "0/1"}
    # the fixed points +-sqrt(2) stay out of the summary; classify finds them
    assert QuadExt(0, 1, 1, 2) in classify(inv)["fixed_points"]


def test_conjugation_preserves_involution_and_class():
    # pi o Phi o pi^(-1) is an involution of the image line with equal class
    rng = SplitMix64.for_kind("conj", 2)
    done = 0
    for _ in range(300):
        a, b, c = (rng.int_between(-20, 20) for _ in range(3))
        if c == 0 or a * a + b * c == 0:
            continue
        phi = Involution(LineMap((a, b, c, -a), CH, CH))
        k = affine_point(F(*rng.fraction_pair(15)), F(*rng.fraction_pair(15)))
        p1 = affine_point(F(*rng.fraction_pair(15)), F(*rng.fraction_pair(15)))
        p2 = affine_point(F(*rng.fraction_pair(15)), F(*rng.fraction_pair(15)))
        try:
            dst = default_chart(join(p1, p2))
            if dst.line == CH.line or incident(k, CH.line) or incident(k, dst.line):
                continue
            pi = perspective_map(k, CH, dst)
        except GeometryError:
            continue
        conj = Involution(pi.compose(phi.map).compose(pi.inverse()))
        assert classify_kind(conj) == classify_kind(phi)
        # fixed points transport to fixed points
        for t in classify(phi)["fixed_points"]:
            t_img = move(pi, t)
            assert move(conj.map, t_img) == t_img
        done += 1
        if done == 100:
            break
    assert done == 100

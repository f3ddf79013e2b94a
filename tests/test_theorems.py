from fractions import Fraction as F

import pytest

from arguesia.conics import (
    UNIT_CIRCLE as UC,
    UNIT_CIRCLE_PAR as PAR,
    Conic,
    ConicError,
    ConicParametrization,
    chord_quadratic,
    conic_line_intersection,
)
from arguesia.exact_scalar import QuadExt
from arguesia.instances import InstanceConfig, generate_instance
from arguesia.involution import Involution, NodeCouples, classify_kind, equivalence_check
from arguesia.menelaus_engine import NonGenericError, ProofTrace, check_ramee_replayable
from arguesia import projective_core
from arguesia.projective_core import (
    GeometryError,
    LineMap,
    P3Plane,
    P3Point,
    PLine,
    PPoint,
    cross_ratio,
    default_chart,
    incident,
    join,
    parallel_line_through,
)
from arguesia.rng import SplitMix64
from arguesia.theorems import (
    TheoremReport,
    beaugrand_points,
    beaugrand_replay,
    check_retablissement,
    construct_involution_p13,
    desargues_involution_by_perspectives,
    harmonic_figure,
    parallel_bornales_identities,
    pascal_collinear,
    pascal_figure,
    quadrangle_couples,
    quadrangle_figure,
    quadrangle_involution,
    retablissement_demo,
    verify_bisector_case,
    verify_midpoint_case,
    verify_pencil,
    verify_ramee,
)
from collineation import (
    apply_collineation,
    apply_collineation_line,
    apply_collineation_point,
    random_collineation,
)
from quadfield import from_json, line_pairs, param, point_at, rat
from quadfield import affine_point as A

CH = default_chart(PLine(0, 1, 0))


def pt(v):
    return point_at(CH, v)


# -- printed sides ------------------------------------------------------------


def test_report_prints_each_side_by_its_own_type():
    """A true claim prints one text for both sides only where both print
    alike: equal values of one type, or equal pairs.  A false claim prints
    both sides."""
    report = TheoremReport("sides", inputs={})
    report.claim("bool against int", True, 1)
    report.claim("int against bool", 0, False)
    report.claim("equal points", PPoint(2, 4, 6), PPoint(-1, -2, -3))
    report.claim("different points", PPoint(1, 2, 3), PPoint(1, 2, 4))
    report.claim("a str prints as it is", "hyperbolic", "elliptic")
    report.claim("a QuadExt prints by scalar_str", QuadExt(1, 2, 3, 5), QuadExt(-1, 2, 6, 5))
    report.claim_pair("false, non-reduced", (4, 6), (-10, 15))
    report.claim_pair("true, non-reduced", (4, -6), (-10, 15))
    report.claim_pair("both infinite", (3, 0), (-5, 0))
    report.claim_pair("infinite against a value", (3, 0), (3, 1))
    # (0, 0) cross-multiplies equal to any pair: it has no value and is refused
    with pytest.raises(ZeroDivisionError):
        report.claim_pair("zero pair against a value", (0, 0), (3, 1))
    assert [(c["lhs"], c["rhs"], c["equal"]) for c in report.claims] == [
        ("true", "1/1", True),
        ("0/1", "false", True),
        ("(1:2:3)", "(1:2:3)", True),
        ("(1:2:3)", "(1:2:4)", False),
        ("hyperbolic", "elliptic", False),
        ("1/3+2/3*sqrt(5)", "-1/6+1/3*sqrt(5)", False),
        ("2/3", "-2/3", False),
        ("-2/3", "-2/3", True),
        ("inf", "inf", True),
        ("inf", "3/1", False),
    ]


@pytest.mark.parametrize("lhs, rhs", [((0, 0), (3, 1)), ((3, 1), (0, 0)), ((1, 0), (0, 0)),
                                      ((0, 0), (1, 0)), ((0, 0), (0, 0))])
def test_a_side_with_no_value_is_refused_in_claims_and_steps(lhs, rhs):
    # one rule for a claim and a trace step: (0, 0) has no value; a step
    # refuses an infinite side (u, 0) as well, which a claim prints as inf
    report = TheoremReport("sides", inputs={})
    trace = ProofTrace("sides")
    with pytest.raises(ZeroDivisionError):
        report.claim_pair("no value", lhs, rhs)
    with pytest.raises(ZeroDivisionError):
        trace.add("no value", lhs, rhs, "c")
    assert report.claim_pair("both infinite", (1, 0), (-7, 0))
    with pytest.raises(ZeroDivisionError):
        trace.add("both infinite", (1, 0), (-7, 0), "c")
    assert report.claims == [
        {"label": "both infinite", "lhs": "inf", "rhs": "inf", "equal": True}]
    assert trace.steps == []


# -- verify_ramee -------------------------------------------------------------


def arbre_4_over_x():
    return NodeCouples(CH, ((pt(1), pt(4)), (pt(8), pt((1, 2))), (pt(-1), pt(-4))))


def test_verify_ramee_generic():
    rep = verify_ramee(
        check_ramee_replayable(arbre_4_over_x(), A(2, 3), default_chart(join(A(0, 1), A(5, 2))))
    )
    assert rep.verdict
    assert rep.trace is not None and len(rep.trace.steps) == 11
    labels = [c["label"] for c in rep.claims]
    assert "classification preserved" in labels


def _delta_parallel_to_rameau_dk():
    # the image line parallel to the rameau DK (D = -1, K = (2, 3)) sends
    # the image of D to infinity
    return default_chart(parallel_line_through(join(pt(-1), A(2, 3)), A(0, 7)))


@pytest.mark.parametrize("k, delta, message", [
    (PPoint(1, 2, 0), lambda: default_chart(join(A(0, 1), A(5, 2))),
     "projection point at infinity: Thales case, no Menelaus replay"),
    (A(2, 3), _delta_parallel_to_rameau_dk, "image d at infinity; configuration not generic"),
    (A(2, 3), lambda: default_chart(join(pt(8), A(0, 7))), "image line through a noeud"),
], ids=["k-at-infinity", "image-at-infinity", "image-line-through-noeud"])
def test_verify_ramee_rejects_what_the_replay_rejects(k, delta, message):
    # check_ramee_replayable is verify_ramee's only precondition: the
    # verifier and the replay take the figure it returns
    arbre, delta = arbre_4_over_x(), delta()
    with pytest.raises(NonGenericError) as want:
        check_ramee_replayable(arbre, k, delta)
    assert str(want.value) == message


def test_verify_ramee_rejects_k_on_carrier():
    with pytest.raises(GeometryError):
        check_ramee_replayable(arbre_4_over_x(), A(3, 0), default_chart(join(A(0, 1), A(5, 2))))


def test_verify_ramee_500_seed_property():
    for seed in range(1, 101):
        inst = generate_instance(InstanceConfig("ramee", seed))
        rep = verify_ramee(inst)
        assert rep.verdict


def _moved_ramee(figure, t_rows):
    # the data of a checked ramee figure under p -> T.p, checked again
    def move(p):
        return apply_collineation_point(t_rows, p)

    arbre, delta = figure["arbre"], figure["delta"]
    moved_arbre = NodeCouples(default_chart(apply_collineation_line(t_rows, arbre.chart.line)),
                              tuple((move(p), move(q)) for p, q in arbre.pairs))
    moved_delta = default_chart(apply_collineation_line(t_rows, delta.line))
    return check_ramee_replayable(moved_arbre, move(figure["k"]), moved_delta)


def _couple_cross_ratios(nc):
    # [X, Y; Z, W] of each couple (X, Y) with the next couple (Z, W)
    return [cross_ratio(*nc.pairs[i], *nc.pairs[(i + 1) % 3]) for i in range(3)]


def _image_kind(figure):
    return classify_kind(equivalence_check(figure["image"])["involution"])


RAMEE_MOVES = 100
RAMEE_MOVES_REJECTED_CAP = 5  # moves the check may refuse as not generic (none did when set)


def test_ramee_is_invariant_under_collineations():
    # The ramee is the invariance of the involution under perspective, and a
    # collineation of the whole plane commutes with every projection: the
    # moved data, checked again, give the moved images, a true report, an
    # image involution of the same kind and the same cross-ratios of the
    # source and image couples.  A move that sends a point the replay needs
    # finite to infinity is refused by the check, and counted.
    rng = SplitMix64.for_kind("ramee-collineation", 1)
    rejected = 0
    for i in range(RAMEE_MOVES):
        figure = generate_instance(InstanceConfig("ramee", 1 + i // 5))
        t_rows = random_collineation(rng)
        try:
            moved = _moved_ramee(figure, t_rows)
        except NonGenericError:
            rejected += 1
            continue
        assert moved["points"] == {nm: apply_collineation_point(t_rows, p)
                                   for nm, p in figure["points"].items()}
        assert verify_ramee(moved).verdict
        assert _image_kind(moved) == _image_kind(figure)
        for couples in ("arbre", "image"):
            before = _couple_cross_ratios(figure[couples])
            after = _couple_cross_ratios(moved[couples])
            assert all(a * d == b * c for (a, b), (c, d) in zip(before, after))
    assert rejected <= RAMEE_MOVES_REJECTED_CAP


def test_an_image_noeud_off_delta_fails_the_collineation_checks():
    # negative control: moved off the image line, the image b is no longer
    # the moved b, and the image couples refuse it as a noeud off their tronc
    figure = generate_instance(InstanceConfig("ramee", 1))
    t_rows = ((2, 1, 0), (0, 1, 1), (1, 0, 1))
    moved = _moved_ramee(figure, t_rows)
    u, v, w = moved["points"]["b"].coords
    off = PPoint(u + w, v, w)
    assert not incident(off, moved["delta"].line)
    assert off != apply_collineation_point(t_rows, figure["points"]["b"])
    pts = dict(moved["points"], b=off)
    with pytest.raises(GeometryError, match="not on chart line"):
        NodeCouples(moved["delta"], tuple((pts[x], pts[y]) for x, y in ("bh", "cg", "df")))


def _moved_quadrangle(q, t_rows):
    # the bornes and transversal of a checked quadrangle figure under
    # p -> T.p, checked again
    bornes = tuple(apply_collineation_point(t_rows, p) for p in q["bornes"])
    transversal = default_chart(apply_collineation_line(t_rows, q["transversal"].line))
    return quadrangle_figure(bornes, transversal)


def _quadrangle_kind(q):
    return classify_kind(equivalence_check(quadrangle_couples(q))["involution"])


QUADRANGLE_MOVES = 100
QUADRANGLE_MOVES_REJECTED_CAP = 5  # moves refused as not generic (none was when set)


def test_quadrangle_is_invariant_under_collineations():
    # Desargues' involution is projective: a collineation moves the
    # transversal couples onto the couples of the moved quadrangle, checked
    # again, which give a true report, an involution of the same kind and the
    # same cross-ratios of the couples.  A move that sends a cut or the pivot
    # to infinity is refused by the check or the replay, and counted.
    rng = SplitMix64.for_kind("quadrangle-collineation", 1)
    rejected = 0
    for i in range(QUADRANGLE_MOVES):
        q = generate_instance(InstanceConfig("quadrangle", 1 + i // 5))
        t_rows = random_collineation(rng)
        try:
            moved = _moved_quadrangle(q, t_rows)
            report = quadrangle_involution(moved)
        except NonGenericError:
            rejected += 1
            continue
        assert all(moved[nm] == apply_collineation_point(t_rows, q[nm]) for nm in "IKPQGH")
        assert report.verdict
        assert _quadrangle_kind(moved) == _quadrangle_kind(q)
        before = _couple_cross_ratios(quadrangle_couples(q))
        after = _couple_cross_ratios(quadrangle_couples(moved))
        assert all(a * d == b * c for (a, b), (c, d) in zip(before, after))
    assert rejected <= QUADRANGLE_MOVES_REJECTED_CAP


def test_a_moved_h_fails_the_quadrangle_collineation_checks():
    # negative control: H moved along the moved transversal is no longer the
    # image of H, G's partner or a point of the couples' cross-ratios
    q = generate_instance(InstanceConfig("quadrangle", 1))
    t_rows = ((2, 1, 0), (0, 1, 1), (1, 0, 1))
    moved = _moved_quadrangle(q, t_rows)
    delta = moved["transversal"]
    off = dict(moved, H=point_at(delta, rat(delta.param_pair(moved["H"])) + 1))
    report = quadrangle_involution(off)
    assert not report.verdict
    homography = next(c for c in report.claims if c["label"].startswith("couples (I,K)"))
    assert homography["equal"] is False
    before = _couple_cross_ratios(quadrangle_couples(q))
    after = _couple_cross_ratios(quadrangle_couples(off))
    assert not all(a * d == b * c for (a, b), (c, d) in zip(before, after))


def _moved_pencil(q, t_rows):
    # a pencil instance under p -> T.p: its quadrangle checked again, as the
    # generator checks it, with the moved members and tangency point
    bornes = tuple(apply_collineation_point(t_rows, p) for p in q["bornes"])
    transversal = default_chart(apply_collineation_line(t_rows, q["transversal"].line))
    moved = quadrangle_figure(bornes, transversal, strict=False)
    moved["members"] = [(nm, apply_collineation(m, t_rows)) for nm, m in q["members"]]
    moved["tangency"] = apply_collineation_point(t_rows, q["tangency"])
    return moved


PENCIL_MOVES = 100


def test_pencil_is_invariant_under_collineations():
    # Desargues' pencil theorem is projective: each moved member still cuts
    # the moved transversal in a couple of the moved quadrangle's involution,
    # and its report makes the same claims (line pair, tangency or chord)
    rng = SplitMix64.for_kind("pencil-collineation", 1)
    for i in range(PENCIL_MOVES):
        q = generate_instance(InstanceConfig("pencil", 1 + i // 5))
        t_rows = random_collineation(rng)
        result = verify_pencil(_moved_pencil(q, t_rows))
        assert result["verdict"], i
        assert _claim_labels(result) == _claim_labels(verify_pencil(q)), i


def _claim_labels(pencil_result):
    return [[c["label"] for c in m["report"]["claims"]] for m in pencil_result["members"]]


def test_a_member_off_a_borne_fails_the_pencil_collineation_checks():
    # negative control: one moved member, its constant term off by one,
    # misses a borne and the verdict is false
    q = generate_instance(InstanceConfig("pencil", 1))
    moved = _moved_pencil(q, ((2, 1, 0), (0, 1, 1), (1, 0, 1)))
    name, member = moved["members"][2]
    m00, m01, m02, m11, m12, m22 = member.m
    off = Conic(m00, m01, m02, m11, m12, m22 + 1)
    moved["members"][2] = (name, off)
    result = verify_pencil(moved)
    assert not result["verdict"]
    failed = [(m["member"], c["label"]) for m in result["members"]
              for c in m["report"]["claims"] if not c["equal"]]
    assert failed == [(name, "member passes through the four bornes")]


# -- harmonic conjugates --------------------------------------------------------


def test_harmonic_conjugate_example():
    f = harmonic_figure(CH, param(0), param(2), param(3))["f"]
    assert rat(CH.param_pair(f)) == F(3, 2)


def test_harmonic_conjugate_midpoint_gives_infinity():
    f = harmonic_figure(CH, param(0), param(2), param(1))["f"]
    assert f.is_at_infinity()


def test_harmonic_conjugate_involutive():
    f = harmonic_figure(CH, param(0), param(2), param(3))["f"]
    assert harmonic_figure(CH, param(0), param(2), CH.param_pair(f))["f"] == pt(3)


def test_harmonic_two_paths_agree_on_200_seeds():
    rng = SplitMix64.for_kind("harmonic-paths", 1)
    for _ in range(200):
        inst = generate_instance(InstanceConfig("harmonic", rng.below(10**9)))
        chart = inst["chart"]
        f = harmonic_figure(chart, *(chart.param_pair(inst[nm]) for nm in "bcd"))["f"]
        assert f == inst["f"]
        assert rat(cross_ratio(inst["b"], inst["c"], inst["d"], f)) == -1


# -- midpoint and bisector cases -------------------------------------------------


def bcdfk(*points):
    """The figure of the points b, c, d, f, k on the line of CH, as the
    verifiers read it."""
    return dict(zip("bcdfk", points), chart=CH)


def test_midpoint_case_example():
    rep = verify_midpoint_case(bcdfk(pt(0), pt(2), pt(3), pt((3, 2)), A(1, 2)))
    assert rep.verdict
    ratio_claim = next(c for c in rep.claims if "raison double" in c["label"])
    assert ratio_claim["lhs"] == "2/1"


def test_midpoint_case_rejects_non_harmonic():
    # F = C leaves the ratio FD/FC without a denominator segment
    with pytest.raises(GeometryError):
        verify_midpoint_case(bcdfk(pt(0), pt(2), pt(3), pt(2), A(1, 2)))


def _thales_k():
    # on the circle with diameter from (0,0) to (2,0), so KB is perpendicular to KC
    return ConicParametrization(Conic(1, 0, -1, 1, 0, 0), A(0, 0)).point_at((2, 1))


@pytest.mark.parametrize("verify, k, failing", [
    (verify_midpoint_case, lambda: A(1, 2), [
        "f is the midpoint of cb (metric)",
        "composed ratio (BC/BD)(FD/FC) is the raison double",
        "harmonic transported to the control line",
    ]),
    (verify_bisector_case, _thales_k, [
        "reflection across KC maps line KD to line KF",
        "reflection across KB maps line KD to line KF",
        "converse: KG bisects DKF iff KG perpendicular KB",
    ]),
], ids=["midpoint", "bisector"])
def test_four_point_case_non_harmonic_is_false(verify, k, failing):
    # F = 7/5 is not the harmonic conjugate 3/2 of D = 3 for B = 0, C = 2:
    # the verifier reports the failing claims, it does not raise
    rep = verify(bcdfk(pt(0), pt(2), pt(3), pt((7, 5)), k()))
    assert not rep.verdict
    assert [c["label"] for c in rep.claims if not c["equal"]] == failing


def test_bisector_case_example():
    rep = verify_bisector_case(bcdfk(pt(0), pt(2), pt(3), pt((3, 2)), _thales_k()))
    assert rep.verdict


def test_bisector_case_negative_control():
    rep = verify_bisector_case(bcdfk(pt(0), pt(2), pt(3), pt((3, 2)), A(1, 5)))
    assert not rep.verdict
    perp = next(c for c in rep.claims if "perpendicular KC" in c["label"])
    assert not perp["equal"]
    # K off z = 1, and B with a negative z: the claim prints the reduced
    # dot product KB.KC, the texts the rational dot product printed
    for b, f, k, lhs in (
        (pt(0), pt((3, 2)), PPoint(3, 11, 2), "59/2"),
        (pt((-1, 2)), pt((13, 9)), PPoint(7, -4, -3), "175/18"),
    ):
        rep = verify_bisector_case(bcdfk(b, pt(2), pt(3), f, k))
        assert not rep.verdict
        perp = next(c for c in rep.claims if "perpendicular KC" in c["label"])
        assert (perp["lhs"], perp["rhs"], perp["equal"]) == (lhs, "0/1", False)


# -- p13 construction -------------------------------------------------------------


def test_p13_construction_harmonic():
    _, rep = construct_involution_p13(A(0, 0), A(F(4, 3), 2), A(5, 1), A(2, 3))
    assert rep.verdict


def test_p13_rejects_g_on_bk():
    with pytest.raises(GeometryError):
        construct_involution_p13(A(0, 0), A(1, 1), A(2, 2), A(3, 3))


def test_p13_perturbed_midpoint_breaks_harmonicity():
    # replaying the construction with a fake midpoint destroys the cross-ratio
    from arguesia.projective_core import meet, midpoint, parallel_line_through

    b, k = A(0, 0), A(2, 3)
    h, g = A(F(4, 3), 2), A(5, 1)
    bad_f = midpoint(g, midpoint(g, h))  # not the midpoint of gh
    bg = join(b, g)
    big_f = meet(join(k, bad_f), bg)
    big_d = meet(parallel_line_through(join(g, h), k), bg)
    assert rat(cross_ratio(b, g, big_d, big_f)) != -1


# -- quadrangle suite --------------------------------------------------------------


def quad_config():
    return quadrangle_figure(
        (A(0, 0), A(4, 1), A(3, 5), A(-1, 3)), default_chart(PLine(1, -3, 1))
    )


def pencil_check(q, member):
    """The report ``verify_pencil`` gives one member of the pencil of q."""
    return verify_pencil(dict(q, members=[("member", member)]))["members"][0]["report"]


def test_quadrangle_involution_example():
    rep = quadrangle_involution(quad_config())
    assert rep.verdict and rep.trace is not None and len(rep.trace.steps) == 6
    assert [c["equal"] for c in rep.claims] == [True] * 6


def test_quadrangle_involution_square_needs_a_finite_pivot():
    # BE and DC are parallel, so the pivot F of the Menelaus replay is at
    # infinity: the replay's NonGenericError, as _make_quadrangle rejects it
    q = quadrangle_figure(
        (A(-1, -1), A(1, -1), A(1, 1), A(-1, 1)),
        default_chart(PLine(5, -15, 3)),
    )
    assert q["diagonals"]["F"].is_at_infinity()
    with pytest.raises(NonGenericError, match="^ratio endpoint at infinity$"):
        quadrangle_involution(q)


def test_quadrangle_and_perspectives_agree_200_seeds():
    for seed in range(1, 201):
        q = generate_instance(InstanceConfig("quadrangle", seed))
        assert quadrangle_involution(q).verdict
        inv = equivalence_check(quadrangle_couples(q))["involution"]
        other = desargues_involution_by_perspectives(q)
        assert other.map.matrix == inv.map.matrix
        assert other.map.compose(other.map).matrix == (1, 0, 0, 1)


def test_quadrangle_config_builds_its_geometry_once(monkeypatch):
    import arguesia.theorems as theorems

    calls = []

    def counting(f):
        def wrapped(*args):
            calls.append(f.__name__)
            return f(*args)

        return wrapped

    # projective_core.join too, which that module's own helpers call
    monkeypatch.setattr(projective_core, "join", counting(join))
    monkeypatch.setattr(theorems, "join", counting(join))
    monkeypatch.setattr(theorems, "meet", counting(theorems.meet))
    quad_config()
    # six bornales, on which no three bornes collinear is also tested (ten
    # joins when each triple joined two of its points); six transversal
    # cuts and three diagonal points
    assert calls.count("join") == 6
    assert calls.count("meet") == 9


@pytest.mark.parametrize("skip", range(4))
def test_quadrangle_config_rejects_each_collinear_triple(skip):
    # the three bornes other than bornes[skip] on the line y = 0
    line = [A(0, 0), A(1, 0), A(3, 0)]
    bornes = tuple(line.pop(0) if i != skip else A(1, 2) for i in range(4))
    with pytest.raises(NonGenericError, match="^three bornes are collinear$"):
        quadrangle_figure(bornes, default_chart(PLine(1, -3, 1)))


def test_pencil_builds_one_involution_per_quadrangle(monkeypatch):
    import arguesia.theorems as theorems
    from arguesia.cli import verify_one

    calls = []

    def counting_check(nc):
        calls.append(nc)
        return equivalence_check(nc)

    monkeypatch.setattr(theorems, "equivalence_check", counting_check)
    for seed in (1, 2, 3):
        calls.clear()
        out = verify_one("pencil", seed)
        assert out["verdict"] and len(out["members"]) == 5
        assert len(calls) == 1


def test_pencil_check_rejects_couples_not_in_involution():
    q = quad_config()
    # move H along the transversal: G's partner is no longer H
    moved = point_at(q["transversal"], rat(q["transversal"].param_pair(q["H"])) + 1)
    assert moved not in (q[nm] for nm in "IKPQG")
    member = line_pairs(q)["IK"]
    rep = pencil_check(dict(q, H=moved), member)
    assert rep["verdict"] is False
    assert rep["claims"] == [
        {"label": "couples in involution", "lhs": "false", "rhs": "true", "equal": False}
    ]


def test_perspectives_map_named_couples():
    q = quad_config()
    inv = desargues_involution_by_perspectives(q)
    from arguesia.involution import partner

    assert partner(inv, q["P"]) == q["Q"]
    assert partner(inv, q["K"]) == q["I"]
    assert partner(inv, q["G"]) == q["H"]
    assert partner(inv, q["H"]) == q["G"]


# -- pencil suite --------------------------------------------------------------------


def test_pencil_unit_circle_example():
    bornes = (A(1, 0), A(0, 1), A(-1, 0), A(0, -1))
    delta = default_chart(join(A(F(3, 5), F(4, 5)), A(F(-3, 5), F(4, 5))))
    q = quadrangle_figure(bornes, delta, strict=False)
    rep = pencil_check(q, UC)
    assert rep["verdict"]
    assert any("partner(L) = M" in c["label"] for c in rep["claims"])


def test_pencil_members_and_tangency():
    q = generate_instance(InstanceConfig("pencil", 3))
    for member in verify_pencil(q)["members"]:
        assert member["report"]["verdict"], member["member"]
    # the third line pair reproduces the (G, H) couple
    b, c, d, e = q["bornes"]
    third = Conic.from_lines(join(b, d), join(c, e))
    rep3 = pencil_check(q, third)
    assert rep3["verdict"]
    assert rep3["notes"]["member_kind"] == "line pair GH"
    assert any("couple GH" in c["label"] for c in rep3["claims"])
    # the tangency point is a fixed point of the involution
    from arguesia.involution import partner

    inv = equivalence_check(quadrangle_couples(q))["involution"]
    t = q["tangency"]
    assert partner(inv, t) == t


def test_pencil_member_not_through_bornes_rejected():
    q = quad_config()
    result = verify_pencil(dict(q, members=[("member", UC)]))
    assert result["verdict"] is False
    claims = result["members"][0]["report"]["claims"]
    assert [(c["label"], c["lhs"], c["equal"]) for c in claims] == [
        ("member passes through the four bornes", "false", False)]


CHORD_CLAIM = "chord couple in the involution: c*C + a*B - b*A = 0"


def test_pencil_empty_chord_reported_not_error():
    # a member that misses the transversal has its imaginary chord couple
    # decided by the integer identity, without a square root
    bornes = (A(1, 0), A(0, 1), A(-1, 0), A(0, -1))
    delta = default_chart(PLine(0, 1, -2))  # y = 2 misses the unit circle
    q = quadrangle_figure(bornes, delta, strict=False)
    rep = pencil_check(q, UC)
    assert rep["verdict"]
    assert rep["notes"]["discriminant"].startswith("-")
    assert [(c["label"], c["lhs"]) for c in rep["claims"]] == [(CHORD_CLAIM, "0/1")]


def test_pencil_quadext_chord():
    # a member meeting the transversal in two conjugate irrational points:
    # the same identity decides the couple
    bornes = (A(1, 0), A(0, 1), A(-1, 0), A(0, -1))
    delta = default_chart(join(A(F(1, 5), F(1, 2)), A(1, 3)))
    q = quadrangle_figure(bornes, delta, strict=False)
    rep = pencil_check(q, UC)
    assert rep["verdict"]
    assert int(rep["notes"]["discriminant"].split("/")[0]) > 0
    assert [c["label"] for c in rep["claims"]] == [CHORD_CLAIM]


def _irrational_chord_samples(seed, want=40):
    """Quadrangles with bornes on the unit circle and random nondegenerate
    pencil members whose chord on a random transversal has no rational
    point; yields (q, member, discriminant sign)."""
    rng = SplitMix64.for_kind("pencil-chord-identity", seed)
    seen = {1: 0, -1: 0}
    draws = 0
    while min(seen.values()) < want:
        draws += 1
        assert draws <= 25 * want, f"only {seen} samples in {25 * want} draws"
        bornes = tuple(PAR.point_at(rng.fraction_pair(12)) for _ in range(4))
        p, r = (A(F(*rng.fraction_pair(12)), F(*rng.fraction_pair(12))) for _ in range(2))
        try:
            q = quadrangle_figure(bornes, default_chart(join(p, r)))
        except GeometryError:
            continue
        # the member lam*IK + mu*PQ, lam and mu cleared of their denominators
        (ln, ld), (mn, md) = rng.fraction_pair(9), (0, 1)
        while mn == 0:
            mn, md = rng.fraction_pair(9)
        pairs = line_pairs(q)
        member = Conic(*(ln * md * x + mn * ld * y for x, y in zip(pairs["IK"].m, pairs["PQ"].m)))
        if member.is_degenerate():
            continue
        disc, chord = conic_line_intersection(member, q["transversal"].line)
        sign = 1 if disc > 0 else -1
        if chord or seen[sign] >= want:
            continue
        seen[sign] += 1
        yield q, member, sign


def test_pencil_chord_identity_true_on_members():
    for q, member, _ in _irrational_chord_samples(1):
        rep = pencil_check(q, member)
        assert rep["verdict"]
        assert [(c["label"], c["lhs"], c["equal"]) for c in rep["claims"]] == [
            (CHORD_CLAIM, "0/1", True)
        ]
        big_a, big_b, big_c = chord_quadratic(member, q["transversal"])
        assert big_a != 0 and big_c != 0  # both chord points are finite


def test_pencil_chord_identity_false_for_perturbed_involution(monkeypatch):
    import arguesia.theorems as theorems

    for q, member, _ in _irrational_chord_samples(2, want=20):
        inv = equivalence_check(quadrangle_couples(q))["involution"]
        a, b, c, _ = inv.map.matrix
        chart = inv.chart
        # one of b + 1, b + 2 keeps the perturbed matrix nondegenerate
        k = 1 if a * a + (b + 1) * c != 0 else 2
        wrong = Involution(LineMap((a, b + k, c, -a), chart, chart))
        monkeypatch.setattr(theorems, "equivalence_check",
                            lambda nc: {"equivalent": True, "involution": wrong})
        rep = pencil_check(q, member)
        monkeypatch.undo()
        assert not rep["verdict"]
        assert rep["claims"][0]["label"] == CHORD_CLAIM and rep["claims"][0]["equal"] is False


def test_pencil_chord_identity_false_for_conic_outside_pencil(monkeypatch):
    import arguesia.theorems as theorems

    done = 0
    for q, member, _ in _irrational_chord_samples(3, want=20):
        if equivalence_check(quadrangle_couples(q))["involution"].map.matrix[2] == 0:
            continue  # infinity is fixed: adding z^2 would not move the claim
        # member + z^2 passes through none of the bornes (z = 1 there)
        outside = Conic(*(m + (i == 5) for i, m in enumerate(member.m)))
        if outside.is_degenerate():
            continue
        assert not any(outside.contains(p) for p in q["bornes"])
        monkeypatch.setattr(theorems, "chord_quadratic", lambda m, ch: chord_quadratic(outside, ch))
        rep = pencil_check(q, member)
        monkeypatch.undo()
        assert not rep["verdict"]
        assert rep["claims"][0]["label"] == CHORD_CLAIM and rep["claims"][0]["equal"] is False
        done += 1
    assert done >= 20


def test_hyperbolic_iff_two_tangent_members():
    # sign of the involution discriminant agrees with the existence of real
    # tangency (double-root) members of the pencil
    for seed in range(1, 41):
        q = generate_instance(InstanceConfig("quadrangle", seed))
        inv = equivalence_check(quadrangle_couples(q))["involution"]
        kind = classify_kind(inv)
        pairs = line_pairs(q)
        disc = _tangency_discriminant(pairs["IK"], pairs["PQ"], q["transversal"].line)
        assert (disc > 0) == (kind == "hyperbolic")
        assert (disc < 0) == (kind == "elliptic")


def _tangency_discriminant(gen1, gen2, line):
    """Discriminant of the quadratic in (lam:mu) expressing tangency to line."""
    from arguesia._kernel import conic_polar, dot3
    from arguesia.conics import _line_span

    p0, p1 = _line_span(line)

    def restriction(conic):
        m = conic_polar(conic.m, p1.coords)
        return conic.evaluate(p0), dot3(p0.coords, m), dot3(p1.coords, m)

    a1, b1, c1 = restriction(gen1)
    a2, b2, c2 = restriction(gen2)
    # disc(lam, mu) = (lam*b1 + mu*b2)^2 - (lam*a1 + mu*a2)(lam*c1 + mu*c2)
    # as a quadratic q_ll*lam^2 + q_lm*lam*mu + q_mm*mu^2
    q_ll = b1 * b1 - a1 * c1
    q_lm = 2 * b1 * b2 - a1 * c2 - a2 * c1
    q_mm = b2 * b2 - a2 * c2
    return q_lm * q_lm - 4 * q_ll * q_mm


# -- parallel bornales ------------------------------------------------------------


def test_parallel_bornales_trapezoid():
    q = quadrangle_figure(
        (A(0, 0), A(0, 3), A(4, 5), A(4, -1)),
        default_chart(PLine(1, -3, -1)),
        strict=False,
    )
    rep = parallel_bornales_identities(q)
    assert rep.verdict
    assert len(rep.claims) == 4


def test_parallel_bornales_rejects_non_parallel():
    # the generator's E = D + lambda*(C - B) keeps BC parallel to ED; on
    # other data, here also the trapezoid with E moved off that parallel,
    # the Thales ratio IC/KD is the guard
    moved = quadrangle_figure(
        (A(0, 0), A(0, 3), A(4, 5), A(5, -1)),
        default_chart(PLine(1, -3, -1)),
        strict=False,
    )
    for q in (quad_config(), moved):
        with pytest.raises(GeometryError, match="^ratio of non-parallel segments$"):
            parallel_bornales_identities(q)


# -- beaugrand ----------------------------------------------------------------------


def beaugrand_instance():
    """K, N, O, V and the points q0, f0 on the auxiliary chord and the
    transversal, all on the unit circle."""
    return tuple(PAR.point_at(t) for t in ((0, 1), (1, 2), (2, 1), (-1, 3), (4, 1), (-3, 1)))


def test_beaugrand_trace_structure():
    trace = beaugrand_replay(beaugrand_points(UC, *beaugrand_instance()))
    assert trace.verdict
    kinds = [s["meta"]["kind"] for s in trace.steps]
    assert kinds.count("apollonius") == 2
    assert kinds.count("menelaus") == 2
    assert kinds.count("analogy") == 2
    assert kinds.count("final") == 1


def test_beaugrand_couples_in_involution():
    # the three analogies close into a genuine involution on the transversal
    figure = beaugrand_points(UC, *beaugrand_instance())
    trace = beaugrand_replay(figure)
    pts = {nm: from_json(val) for nm, val in trace.notes["points"].items()}
    chart = default_chart(figure["transversal"])
    nc = NodeCouples(
        chart,
        (
            (pts["A"], pts["C"]),
            (pts["B"], pts["E"]),
            (pts["F"], pts["G"]),
        ),
    )
    assert equivalence_check(nc)["equivalent"]


def test_beaugrand_rejects_point_off_conic():
    k, n, o, v, q0, f0 = beaugrand_instance()
    with pytest.raises(ConicError):
        beaugrand_points(UC, k, n, o, A(5, 5), q0, f0)


def test_beaugrand_rejects_irrational_transversal():
    # f0 = (0, 0) is off the circle, and the line through it and C cuts the
    # circle where the discriminant 91177 is not a square
    k, n, o, v, q0, _ = beaugrand_instance()
    with pytest.raises(NonGenericError, match="transversal chord is not two rational points"):
        beaugrand_points(UC, k, n, o, v, q0, A(0, 0))


# -- pascal ---------------------------------------------------------------------------


def test_pascal_params_0_to_5():
    pts = [PAR.point_at((t, 1)) for t in (0, 1, 2, 3, 4, 5)]
    rep = pascal_collinear(pascal_figure(UC, pts))
    assert rep.verdict
    assert rep.trace is not None and rep.trace.verdict


def test_pascal_joins_its_line_once(monkeypatch):
    import arguesia.theorems as theorems

    calls = []

    def counting(p, q):
        calls.append((p, q))
        return join(p, q)

    for seed in range(1, 11):
        figure = generate_instance(InstanceConfig("pascal", seed, 32))
        calls.clear()
        monkeypatch.setattr(projective_core, "join", counting)
        monkeypatch.setattr(theorems, "join", counting)
        rep = pascal_collinear(figure)
        monkeypatch.undo()
        pts = figure["points"]
        # the line MS carries the claim and the note; the replay joins
        # nothing twice
        assert rep.verdict and calls.count((pts["M"], pts["S"])) == 1, seed
        assert len(set(calls)) == len(calls), seed


@pytest.mark.parametrize(
    "params, reason",
    [
        (((-2, 1), (4, 1), (-5, 1), (13, 1), (-23, 7), (12, 7)), "auxiliary point at infinity"),
        (((26, 5), (-5, 4), (4, 1), (29, 2), (-2, 1), (-1, 1)), "auxiliary points merge"),
    ],
)
def test_pascal_circle_replay_skips_where_the_generator_resamples(params, reason):
    # hand-built hexagons the generator rejects: the one check, which the
    # maker asks and whose figure the replay takes, names the obstruction
    pts = [PAR.point_at(t) for t in params]
    with pytest.raises(NonGenericError, match=reason):
        pascal_figure(UC, pts)


def test_pascal_rejects_coincident_vertices():
    pts = [PAR.point_at((t, 1)) for t in (0, 1, 2, 3, 4, 4)]
    with pytest.raises(GeometryError):
        pascal_figure(UC, pts)


def test_pascal_collineation_images():
    pts = [PAR.point_at((t, 1)) for t in (0, 1, 2, 3, 4, 5)]
    rng = SplitMix64.for_kind("pascal-collineation", 1)
    for _ in range(20):
        t_rows = random_collineation(rng)
        image_conic = apply_collineation(UC, t_rows)
        image_pts = [apply_collineation_point(t_rows, p) for p in pts]
        try:
            rep = pascal_collinear(pascal_figure(image_conic, image_pts))
        except NonGenericError:
            continue
        assert rep.claims[0]["equal"]  # collinearity of M, S, X


# -- retablissement ----------------------------------------------------------------


def test_retablissement_cone_example():
    rep = retablissement_demo(check_retablissement(
        P3Point(0, 0, 2, 1),
        P3Plane(0, 0, 1, 0),
        P3Plane(-1, 0, 2, -2),
        [(0, 1), (1, 1), (-1, 2), (3, 1), (1, 5), (-4, 1)],
    ))
    assert rep.verdict


def test_retablissement_identity_transport():
    base = P3Plane(0, 0, 1, 0)
    rep = retablissement_demo(check_retablissement(
        P3Point(0, 0, 2, 1), base, base, [(0, 1), (1, 1), (-1, 2), (3, 1), (1, 5), (-4, 1)]
    ))
    assert rep.verdict


def test_retablissement_apex_on_plane_rejected():
    with pytest.raises(GeometryError):
        check_retablissement(
            P3Point(0, 0, 0, 1),
            P3Plane(0, 0, 1, 0),
            P3Plane(-1, 0, 2, -2),
            [(t, 1) for t in range(6)],
        )

from fractions import Fraction as F

import pytest

from arguesia.conics import (
    Conic,
    ConicError,
    ConicParametrization,
    chord_quadratic,
    conic_line_intersection,
)
from arguesia.instances import InstanceConfig, generate_instance
from arguesia.involution import Involution, NodeCouples, classify_kind, equivalence_check
from arguesia.menelaus_engine import NonGenericError, check_ramee_replayable
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
    join,
    parallel_line_through,
)
from arguesia.rng import SplitMix64
from arguesia.theorems import (
    QuadrangleConfig,
    beaugrand_points,
    beaugrand_replay,
    check_retablissement,
    construct_involution_p13,
    desargues_involution_by_perspectives,
    harmonic_conjugate,
    parallel_bornales_identities,
    pascal_collinear,
    pascal_figure,
    pencil_involution_check,
    quadrangle_involution,
    retablissement_demo,
    verify_bisector_case,
    verify_midpoint_case,
    verify_ramee,
)
from collineation import apply_collineation, apply_collineation_point, random_collineation
from quadfield import from_json, point_at, rat
from quadfield import affine_point as A

CH = default_chart(PLine(0, 1, 0))
UC = Conic.unit_circle()
PAR = ConicParametrization(UC, A(-1, 0))


def pt(v):
    return point_at(CH, v)


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
        rep = verify_ramee(inst["figure"])
        assert rep.verdict


# -- harmonic conjugates --------------------------------------------------------


def test_harmonic_conjugate_example():
    f = harmonic_conjugate(pt(0), pt(2), pt(3))
    assert rat(CH.param_pair(f)) == F(3, 2)


def test_harmonic_conjugate_midpoint_gives_infinity():
    f = harmonic_conjugate(pt(0), pt(2), pt(1))
    assert f.is_at_infinity()


def test_harmonic_conjugate_involutive():
    f = harmonic_conjugate(pt(0), pt(2), pt(3))
    assert harmonic_conjugate(pt(0), pt(2), f) == pt(3)


def test_harmonic_two_paths_agree_on_200_seeds():
    rng = SplitMix64.for_kind("harmonic-paths", 1)
    for _ in range(200):
        inst = generate_instance(InstanceConfig("harmonic", rng.below(10**9)))
        f = harmonic_conjugate(inst["b"], inst["c"], inst["d"])
        assert f == inst["f"]
        assert rat(cross_ratio(inst["b"], inst["c"], inst["d"], f)) == -1


# -- midpoint and bisector cases -------------------------------------------------


def test_midpoint_case_example():
    rep = verify_midpoint_case(pt(0), pt(2), pt(3), pt((3, 2)), A(1, 2))
    assert rep.verdict
    ratio_claim = next(c for c in rep.claims if "raison double" in c["label"])
    assert ratio_claim["lhs"] == "2/1"


def test_midpoint_case_rejects_non_harmonic():
    with pytest.raises(GeometryError):
        verify_midpoint_case(pt(0), pt(2), pt(3), pt(2), A(1, 2))
    with pytest.raises(GeometryError):
        verify_midpoint_case(pt(0), pt(2), pt(3), pt((7, 5)), A(1, 2))


def test_bisector_case_example():
    circ = Conic(1, 0, -1, 1, 0, 0)  # circle with diameter from (0,0) to (2,0)
    k = ConicParametrization(circ, A(0, 0)).point_at((2, 1))
    rep = verify_bisector_case(pt(0), pt(2), pt(3), pt((3, 2)), k)
    assert rep.verdict


def test_bisector_case_negative_control():
    rep = verify_bisector_case(pt(0), pt(2), pt(3), pt((3, 2)), A(1, 5))
    assert not rep.verdict
    perp = next(c for c in rep.claims if "perpendicular KC" in c["label"])
    assert not perp["equal"]
    # K off z = 1, and B with a negative z: the claim prints the reduced
    # dot product KB.KC, the texts the rational dot product printed
    for b, f, k, lhs in (
        (pt(0), pt((3, 2)), PPoint(3, 11, 2), "59/2"),
        (pt((-1, 2)), pt((13, 9)), PPoint(7, -4, -3), "175/18"),
    ):
        rep = verify_bisector_case(b, pt(2), pt(3), f, k)
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
    return QuadrangleConfig(
        (A(0, 0), A(4, 1), A(3, 5), A(-1, 3)), default_chart(PLine(1, -3, 1))
    )


def test_quadrangle_involution_example():
    _, rep = quadrangle_involution(quad_config())
    assert rep.verdict and rep.trace is not None and len(rep.trace.steps) == 6
    assert [c["equal"] for c in rep.claims] == [True] * 6


def test_quadrangle_involution_square_needs_a_finite_pivot():
    # BE and DC are parallel, so the pivot F of the Menelaus replay is at
    # infinity: the replay's NonGenericError, as _make_quadrangle rejects it
    q = QuadrangleConfig(
        (A(-1, -1), A(1, -1), A(1, 1), A(-1, 1)),
        default_chart(PLine(5, -15, 3)),
    )
    assert q.pivot.is_at_infinity()
    with pytest.raises(NonGenericError, match="^ratio endpoint at infinity$"):
        quadrangle_involution(q)


def test_quadrangle_and_perspectives_agree_200_seeds():
    for seed in range(1, 201):
        inst = generate_instance(InstanceConfig("quadrangle", seed))
        q = inst["quadrangle"]
        inv, rep = quadrangle_involution(q)
        assert rep.verdict
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

    # projective_core.join too: collinear() joins through it
    monkeypatch.setattr(projective_core, "join", counting(join))
    monkeypatch.setattr(theorems, "join", counting(join))
    monkeypatch.setattr(theorems, "meet", counting(theorems.meet))
    q = quad_config()
    for _ in range(3):
        q.bornales(), q.diagonal_points(), q.pivot, q.couples(), q.node_couples()
        q.I, q.K, q.P, q.Q, q.G, q.H
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
        QuadrangleConfig(bornes, default_chart(PLine(1, -3, 1)))


def test_quadrangle_config_hands_out_copies():
    q = quad_config()
    fresh = quad_config()
    q.bornales()["BC"] = q.bornales()["ED"]
    q.bornales().clear()
    q.diagonal_points()["F"] = q.diagonal_points()["N"]
    q.diagonal_points().clear()
    assert q.bornales() == fresh.bornales() and len(q.bornales()) == 6
    assert q.diagonal_points() == fresh.diagonal_points()
    assert q.pivot == fresh.pivot and q.couples() == fresh.couples()
    assert q == fresh and hash(q) == hash(fresh)


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
    from arguesia.involution import InvolutionError

    q = quad_config()
    # move H along the transversal: G's partner is no longer H
    moved = point_at(q.transversal, rat(q.transversal.param_pair(q.H)) + 1)
    assert moved not in (q.I, q.K, q.P, q.Q, q.G)
    object.__setattr__(q, "_cuts", dict(q._cuts, CE=moved))
    member = q.line_pairs["IK"]
    with pytest.raises(InvolutionError, match="couples are not in involution"):
        pencil_involution_check(q, member)


def test_perspectives_map_named_couples():
    q = quad_config()
    inv = desargues_involution_by_perspectives(q)
    from arguesia.involution import partner

    assert partner(inv, q.P) == q.Q
    assert partner(inv, q.K) == q.I
    assert partner(inv, q.G) == q.H
    assert partner(inv, q.H) == q.G


# -- pencil suite --------------------------------------------------------------------


def test_pencil_unit_circle_example():
    bornes = (A(1, 0), A(0, 1), A(-1, 0), A(0, -1))
    delta = default_chart(join(A(F(3, 5), F(4, 5)), A(F(-3, 5), F(4, 5))))
    q = QuadrangleConfig(bornes, delta, strict=False)
    rep = pencil_involution_check(q, UC)
    assert rep.verdict
    assert any("partner(L) = M" in c["label"] for c in rep.claims)


def test_pencil_members_and_tangency():
    inst = generate_instance(InstanceConfig("pencil", 3))
    q = inst["quadrangle"]
    for name, member in inst["members"]:
        rep = pencil_involution_check(q, member)
        assert rep.verdict, name
    # the third line pair reproduces the (G, H) couple
    b, c, d, e = q.bornes
    third = Conic.from_lines(join(b, d), join(c, e))
    rep3 = pencil_involution_check(q, third)
    assert rep3.verdict
    assert any("couple GH" in c["label"] for c in rep3.claims)
    # the tangency point is a fixed point of the involution
    from arguesia.theorems import nc_involution
    from arguesia.involution import partner

    inv = nc_involution(q.node_couples())
    t = inst["tangency"]
    assert partner(inv, t) == t


def test_pencil_member_not_through_bornes_rejected():
    q = quad_config()
    with pytest.raises(ConicError):
        pencil_involution_check(q, UC)


CHORD_CLAIM = "chord couple in the involution: c*C + a*B - b*A = 0"


def test_pencil_empty_chord_reported_not_error():
    # a member that misses the transversal has its imaginary chord couple
    # decided by the integer identity, without a square root
    bornes = (A(1, 0), A(0, 1), A(-1, 0), A(0, -1))
    delta = default_chart(PLine(0, 1, -2))  # y = 2 misses the unit circle
    q = QuadrangleConfig(bornes, delta, strict=False)
    rep = pencil_involution_check(q, UC)
    assert rep.verdict
    assert rep.notes["discriminant"].startswith("-")
    assert [(c["label"], c["lhs"]) for c in rep.claims] == [(CHORD_CLAIM, "0/1")]


def test_pencil_quadext_chord():
    # a member meeting the transversal in two conjugate irrational points:
    # the same identity decides the couple
    bornes = (A(1, 0), A(0, 1), A(-1, 0), A(0, -1))
    delta = default_chart(join(A(F(1, 5), F(1, 2)), A(1, 3)))
    q = QuadrangleConfig(bornes, delta, strict=False)
    rep = pencil_involution_check(q, UC)
    assert rep.verdict
    assert int(rep.notes["discriminant"].split("/")[0]) > 0
    assert [c["label"] for c in rep.claims] == [CHORD_CLAIM]


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
            q = QuadrangleConfig(bornes, default_chart(join(p, r)))
        except GeometryError:
            continue
        # the member lam*IK + mu*PQ, lam and mu cleared of their denominators
        (ln, ld), (mn, md) = rng.fraction_pair(9), (0, 1)
        while mn == 0:
            mn, md = rng.fraction_pair(9)
        pairs = q.line_pairs
        member = Conic(*(ln * md * x + mn * ld * y for x, y in zip(pairs["IK"].m, pairs["PQ"].m)))
        if member.is_degenerate():
            continue
        disc, chord = conic_line_intersection(member, q.transversal.line)
        sign = 1 if disc > 0 else -1
        if chord or seen[sign] >= want:
            continue
        seen[sign] += 1
        yield q, member, sign


def test_pencil_chord_identity_true_on_members():
    for q, member, _ in _irrational_chord_samples(1):
        rep = pencil_involution_check(q, member)
        assert rep.verdict
        assert [(c["label"], c["lhs"], c["equal"]) for c in rep.claims] == [
            (CHORD_CLAIM, "0/1", True)
        ]
        big_a, big_b, big_c = chord_quadratic(member, q.transversal)
        assert big_a != 0 and big_c != 0  # both chord points are finite


def test_pencil_chord_identity_false_for_perturbed_involution(monkeypatch):
    for q, member, _ in _irrational_chord_samples(2, want=20):
        a, b, c, _ = q.involution.map.matrix
        chart = q.involution.chart
        # one of b + 1, b + 2 keeps the perturbed matrix nondegenerate
        k = 1 if a * a + (b + 1) * c != 0 else 2
        wrong = Involution(LineMap((a, b + k, c, -a), chart, chart))
        monkeypatch.setattr(QuadrangleConfig, "involution", property(lambda self: wrong))
        rep = pencil_involution_check(q, member)
        monkeypatch.undo()
        assert not rep.verdict
        assert rep.claims[0]["label"] == CHORD_CLAIM and rep.claims[0]["equal"] is False


def test_pencil_chord_identity_false_for_conic_outside_pencil(monkeypatch):
    import arguesia.theorems as theorems

    done = 0
    for q, member, _ in _irrational_chord_samples(3, want=20):
        if q.involution.map.matrix[2] == 0:
            continue  # infinity is fixed: adding z^2 would not move the claim
        # member + z^2 passes through none of the bornes (z = 1 there)
        outside = Conic(*(m + (i == 5) for i, m in enumerate(member.m)))
        if outside.is_degenerate():
            continue
        assert not any(outside.contains(p) for p in q.bornes)
        monkeypatch.setattr(theorems, "chord_quadratic", lambda m, ch: chord_quadratic(outside, ch))
        rep = pencil_involution_check(q, member)
        monkeypatch.undo()
        assert not rep.verdict
        assert rep.claims[0]["label"] == CHORD_CLAIM and rep.claims[0]["equal"] is False
        done += 1
    assert done >= 20


def test_hyperbolic_iff_two_tangent_members():
    # sign of the involution discriminant agrees with the existence of real
    # tangency (double-root) members of the pencil
    for seed in range(1, 41):
        q = generate_instance(InstanceConfig("quadrangle", seed))["quadrangle"]
        from arguesia.theorems import nc_involution

        inv = nc_involution(q.node_couples())
        kind = classify_kind(inv)
        disc = _tangency_discriminant(q.line_pairs["IK"], q.line_pairs["PQ"], q.transversal.line)
        assert (disc > 0) == (kind == "hyperbolic")
        assert (disc < 0) == (kind == "elliptic")


def _tangency_discriminant(gen1, gen2, line):
    """Discriminant of the quadratic in (lam:mu) expressing tangency to line."""
    from arguesia.conics import _line_span, _bilinear

    p0, p1 = _line_span(line)

    def restriction(conic):
        a = conic.evaluate(p0)
        b = _bilinear(conic, p0.coords, p1.coords)
        c = conic.evaluate(p1)
        return a, b, c

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
    q = QuadrangleConfig(
        (A(0, 0), A(0, 3), A(4, 5), A(4, -1)),
        default_chart(PLine(1, -3, -1)),
        strict=False,
    )
    rep = parallel_bornales_identities(q)
    assert rep.verdict
    assert len(rep.claims) == 4


def test_parallel_bornales_rejects_non_parallel():
    with pytest.raises(GeometryError):
        parallel_bornales_identities(quad_config())


# -- beaugrand ----------------------------------------------------------------------


def beaugrand_instance():
    k, n, o, v = (PAR.point_at(t) for t in ((0, 1), (1, 2), (2, 1), (-1, 3)))
    from arguesia.projective_core import meet, parallel_line_through

    q0 = PAR.point_at((4, 1))
    mu = parallel_line_through(join(n, v), q0)
    c_pt = meet(mu, join(k, o))
    f_pt = PAR.point_at((-3, 1))
    return k, n, o, v, join(c_pt, f_pt)


def test_beaugrand_trace_structure():
    k, n, o, v, trans = beaugrand_instance()
    trace = beaugrand_replay(beaugrand_points(UC, k, n, o, v, trans))
    assert trace.verdict
    kinds = [s["meta"]["kind"] for s in trace.steps]
    assert kinds.count("apollonius") == 2
    assert kinds.count("menelaus") == 2
    assert kinds.count("analogy") == 2
    assert kinds.count("final") == 1


def test_beaugrand_couples_in_involution():
    # the three analogies close into a genuine involution on the transversal
    k, n, o, v, trans = beaugrand_instance()
    trace = beaugrand_replay(beaugrand_points(UC, k, n, o, v, trans))
    pts = {nm: from_json(val) for nm, val in trace.notes["points"].items()}
    chart = default_chart(trans)
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
    k, n, o, v, trans = beaugrand_instance()
    with pytest.raises(ConicError):
        beaugrand_points(UC, k, n, o, A(5, 5), trans)


def test_beaugrand_rejects_irrational_transversal():
    k, n, o, v, _ = beaugrand_instance()
    with pytest.raises(NonGenericError, match="transversal chord is not two rational points"):
        beaugrand_points(UC, k, n, o, v, PLine(3, -3, 1))


# -- pascal ---------------------------------------------------------------------------


def test_pascal_params_0_to_5():
    pts = [PAR.point_at((t, 1)) for t in (0, 1, 2, 3, 4, 5)]
    rep = pascal_collinear(pascal_figure(UC, pts))
    assert rep.verdict
    assert rep.trace is not None and rep.trace.verdict


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

from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arguesia.involution import NodeCouples
from arguesia.instances import InstanceConfig, generate_instance
from arguesia.menelaus_engine import (
    NonGenericError,
    ProofTrace,
    check_ramee_replayable,
    menelaus_ratios,
    menelaus_step,
    ratio,
    replay_quadrangle_proof,
    replay_ramee_proof,
    sector_figure,
)
from arguesia.projective_core import (
    GeometryError,
    PLine,
    PPoint,
    default_chart,
    incident,
    join,
    meet,
    project_point,
)
from arguesia.rng import SplitMix64
from arguesia.theorems import quadrangle_figure
from quadfield import INF, param, point_at, rat
from quadfield import affine_point as A


def _menelaus_steps(trace):
    return [s for s in trace.steps if s.get("meta", {}).get("kind") == "menelaus"]


CH = default_chart(PLine(0, 1, 0))


def x_axis_arbre(vals):
    """Couples on the x-axis from parameters: ints, (p, q) fractions or INF."""
    def at(t):
        return CH.point_at_pair(param(t))

    return NodeCouples(CH, tuple((at(a), at(b)) for a, b in vals))


ARBRE = x_axis_arbre([(1, 4), (8, (1, 2)), (-1, -4)])


def triangle_figure():
    return sector_figure(A(0, 0), A(4, 0), A(0, 4), PLine(1, -1, -1))


# -- menelaus product ----------------------------------------------------------


def test_menelaus_product_is_one_on_the_triangle():
    assert prod(map(rat, menelaus_ratios(triangle_figure()))) == 1


def test_menelaus_product_one_on_500_random_figures():
    for seed in range(1, 501):
        inst = generate_instance(InstanceConfig("menelaus", seed))
        assert prod(map(rat, menelaus_ratios(inst))) == 1


def test_sector_figure_builds_its_vertices_once(monkeypatch):
    import arguesia.menelaus_engine as menelaus_engine
    from arguesia.cli import verify_one

    calls = []

    def counting(f):
        def wrapped(*args):
            calls.append(f.__name__)
            return f(*args)

        return wrapped

    monkeypatch.setattr(menelaus_engine, "meet", counting(meet))
    monkeypatch.setattr(menelaus_engine, "join", counting(join))
    for seed in range(1, 21):
        calls.clear()
        assert verify_one("menelaus", seed)["verdict"]
        # three rays and three noeuds; the vertices are the triangle itself,
        # which the generator, the product and the converse read as they
        # are, and the converse reads the ray ab from the figure
        assert (calls.count("join"), calls.count("meet")) == (3, 3), seed


def test_verify_menelaus_computes_each_noeud_ratio_once(monkeypatch):
    # the product and the converse share ratio(N1;b,c) and ratio(N2;c,a), so
    # an op makes three ratio calls, whatever module binds ratio
    import sys

    import arguesia.theorems  # noqa: F401  (loaded, so its binding is wrapped too)
    from arguesia.cli import verify_one

    calls = []

    def counting(*args):
        calls.append(args)
        return ratio(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("arguesia") and getattr(module, "ratio", None) is ratio:
            monkeypatch.setattr(module, "ratio", counting)
    for seed in range(1, 21):
        calls.clear()
        assert verify_one("menelaus", seed)["verdict"]
        assert len(calls) == 3, seed


def test_menelaus_converse_perturbation_breaks_product():
    fig = triangle_figure()
    n1, n2, n3 = fig["nodes"]
    a, b, c = fig["vertices"]
    # move the third noeud along its ray, off the tronc: the signed product
    # of the same three ratios is then no longer 1
    ray_chart = default_chart(fig["rays"][2])
    moved = point_at(ray_chart, rat(ray_chart.param_pair(n3)) + 1)
    assert not incident(moved, fig["tronc"])
    product = F(*ratio(n1, b, c)) * F(*ratio(n2, c, a)) * F(*ratio(moved, a, b))
    assert product != 1


def test_classical_minus_one_convention_conversion():
    # vertex-anchored ratios give the classical -1; noeud-anchored give +1
    fig = triangle_figure()
    n1, n2, n3 = fig["nodes"]
    a, b, c = fig["vertices"]
    # (bN1/N1c)(cN2/N2a)(aN3/N3b) = -1 with signed ratios
    r1 = _span_ratio(b, n1, n1, c)
    r2 = _span_ratio(c, n2, n2, a)
    r3 = _span_ratio(a, n3, n3, b)
    assert r1 * r2 * r3 == -1
    assert prod(map(rat, menelaus_ratios(fig))) == 1


def _span_ratio(p, q, r, s):
    """(q - p)/(s - r) on a common line, via chart parameters."""
    chart = default_chart(join(p, s) if p != s else join(p, q))
    tp, tq, tr, ts = (rat(chart.param_pair(x)) for x in (p, q, r, s))
    return (tq - tp) / (ts - tr)


# -- decomposition ---------------------------------------------------------------


def _relabellings(fig):
    """The decomposition at noeud 1, 2 and 3 (cycling noeuds and vertices
    together), each direct and inverted (N2 with N3 and b with c swapped)."""
    nodes = [(f"N{i}", p) for i, p in enumerate(fig["nodes"], 1)]
    verts = list(zip("abc", fig["vertices"]))
    for r in range(3):
        n1, n2, n3 = nodes[r:] + nodes[:r]
        a, b, c = verts[r:] + verts[:r]
        yield n1, n2, n3, a, b, c
        yield n1, n3, n2, a, c, b


def _decompose(fig):
    """Run menelaus_step on the six relabellings of fig; check each step's
    label, anchors and returned ratio pairs, and return the trace."""
    trace = ProofTrace("decompose")
    for args in _relabellings(fig):
        brin, at_n3, at_n2 = menelaus_step(trace, *args, "cite", noeud=args[0][0])
        (l1, p1), (l2, p2), (l3, p3), (la, pa), (lb, pb), (lc, pc) = args
        step = trace.steps[-1]
        assert step["label"] == f"{l1}{lb}/{l1}{lc} = ({l3}{lb}/{l3}{la})({l2}{la}/{l2}{lc})"
        assert step["meta"] == {"kind": "menelaus", "noeud": l1}
        assert (brin, at_n3, at_n2) == (ratio(p1, pb, pc), ratio(p3, pb, pa), ratio(p2, pa, pc))
        assert F(*brin) == F(*at_n3) * F(*at_n2)
    return trace


def test_decompose_ratio_all_nodes_and_inverse():
    trace = _decompose(triangle_figure())
    assert trace.verdict and _menelaus_steps(trace) == trace.steps
    assert len(trace.steps) == 6
    # each inverted step's sides are the reciprocals of its direct step's
    for direct, inverted in zip(trace.steps[::2], trace.steps[1::2]):
        assert direct["equal"] and inverted["equal"]
        assert F(inverted["lhs"]) == 1 / F(direct["lhs"])
        assert F(inverted["rhs"]) == 1 / F(direct["rhs"])


def test_decompose_ratio_concrete_values():
    fig = triangle_figure()
    n1, n2, n3 = fig["nodes"]
    a, b, c = fig["vertices"]
    trace = ProofTrace("concrete")
    brin, at_n3, at_n2 = menelaus_step(
        trace, ("N1", n1), ("N2", n2), ("N3", n3), ("a", a), ("b", b), ("c", c), "cite"
    )
    (step,) = trace.steps
    assert step["label"] == "N1b/N1c = (N3b/N3a)(N2a/N2c)"
    assert step["equal"] and trace.verdict
    assert brin == ratio(n1, b, c)
    assert at_n3 == ratio(n3, b, a)
    assert at_n2 == ratio(n2, a, c)
    assert F(*brin) == F(*ratio(n3, b, a)) * F(*ratio(n2, a, c))


def test_decompose_ratio_is_chart_independent():
    # the identity is between ratio values, which do not depend on a chart
    rng = SplitMix64.for_kind("decompose", 6)
    for _ in range(50):
        fig = generate_instance(InstanceConfig("menelaus", rng.below(10**6)))
        trace = _decompose(fig)
        assert trace.verdict and len(trace.steps) == 6


def test_menelaus_step_with_a_moved_noeud_is_a_false_step():
    # A vertex lies on two rays, so moving one leaves a ratio of
    # non-collinear points; the move that keeps all three ratios defined
    # slides a noeud along its ray, off the tronc.  The identity is then
    # false, and the step says so instead of raising.
    fig = triangle_figure()
    n1, n2, n3 = fig["nodes"]
    a, b, c = fig["vertices"]
    ray_chart = default_chart(fig["rays"][2])
    moved = point_at(ray_chart, rat(ray_chart.param_pair(n3)) + 1)
    assert not incident(moved, fig["tronc"])
    trace = ProofTrace("moved")
    menelaus_step(trace, ("N1", n1), ("N2", n2), ("N3", moved), ("a", a), ("b", b), ("c", c), "cite")
    (step,) = trace.steps
    assert step["label"] == "N1b/N1c = (N3b/N3a)(N2a/N2c)"
    assert step["equal"] is False and step["lhs"] != step["rhs"]
    assert not trace.verdict


# -- the ramee replay ------------------------------------------------------------


def test_ramee_replay_eleven_steps():
    k = A(2, 3)
    delta = default_chart(join(A(0, 1), A(5, 2)))
    trace = replay_ramee_proof(check_ramee_replayable(ARBRE, k, delta))
    assert trace.verdict
    assert len(trace.steps) == 11
    assert len(_menelaus_steps(trace)) == 8
    series = [s["meta"]["series"] for s in _menelaus_steps(trace)]
    assert series == [1, 1, 1, 1, 2, 2, 2, 2]
    assert [s["cite"] for s in trace.steps[-3:]] == ["p.12 l.11", "p.12 l.7", "p.12 l.26"]


# the replay takes the figure of its precondition, which rejects the data


def test_ramee_replay_rejects_k_on_tronc():
    with pytest.raises(NonGenericError):
        check_ramee_replayable(ARBRE, A(2, 0), default_chart(join(A(0, 1), A(5, 2))))


def test_ramee_replay_rejects_infinite_k():
    with pytest.raises(NonGenericError):
        check_ramee_replayable(ARBRE, PPoint(1, 1, 0), default_chart(join(A(0, 1), A(5, 2))))


def test_ramee_replay_on_random_generic_instances():
    for seed in range(1, 51):
        inst = generate_instance(InstanceConfig("ramee", seed))
        trace = replay_ramee_proof(inst)
        assert trace.verdict and len(trace.steps) == 11


# -- the replay precondition ---------------------------------------------------


def _outcome(fn, *args):
    """("ok", None) or ("raise", message) for a call that may be non-generic."""
    try:
        fn(*args)
    except NonGenericError as exc:
        return ("raise", str(exc))
    return ("ok", None)


def _agree(arbre, k, delta):
    # the check raises, or the replay runs on the figure it returns
    pre = _outcome(check_ramee_replayable, arbre, k, delta)
    assert pre == _outcome(lambda: replay_ramee_proof(check_ramee_replayable(arbre, k, delta)))
    return pre


SMALL = st.integers(-4, 4)
# chart parameters on the tronc, the point at infinity among them
PARAMS = st.sampled_from((*range(-9, 10), INF))


@st.composite
def small_point(draw, z=st.integers(0, 2)):
    coords = (draw(SMALL), draw(SMALL), draw(z))
    assume(any(coords))
    return PPoint(*coords)


@st.composite
def ramee_data(draw):
    """Unfiltered (arbre, k, delta): any tronc, couples with infinite or
    doubled noeuds, any K (finite or not), and image lines through D half
    the time, which the precondition rejects."""
    p, q = draw(small_point(z=st.just(1))), draw(small_point(z=st.just(1)))
    assume(p != q)
    chart = default_chart(join(p, q))
    ts = draw(st.lists(PARAMS, min_size=6, max_size=6, unique=True))
    doubled = draw(st.sampled_from((None,) * 6 + (0, 1, 2)))
    if doubled is not None:
        ts[2 * doubled + 1] = ts[2 * doubled]
    pts = [chart.point_at_pair(param(t)) for t in ts]
    arbre = NodeCouples(chart, tuple(zip(pts[::2], pts[1::2])))
    k = draw(small_point(z=st.sampled_from((1, 1, 1, 2, 0))))
    a = draw(small_point(z=st.just(1)))
    d_pt = arbre.pairs[2][0]
    b = d_pt if draw(st.booleans()) and not d_pt.is_at_infinity() else draw(
        small_point(z=st.just(1))
    )
    assume(a != b)
    return arbre, k, default_chart(join(a, b))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ramee_data())
def test_replay_precondition_matches_replay(data):
    # the generator's probe raises, or the replay runs on its figure
    _agree(*data)


DELTA = default_chart(join(A(0, 1), A(5, 2)))


def test_replay_precondition_noeud_at_infinity():
    for pairs in (
        [(INF, 4), (8, 3), (-1, -4)],
        [(1, 4), (8, INF), (-1, -4)],
        [(1, 4), (INF, 3), (-1, -4)],
    ):
        assert _agree(x_axis_arbre(pairs), A(2, 3), DELTA) == (
            "raise", "ratio endpoint at infinity",
        )
    assert _agree(x_axis_arbre([(1, 4), (8, 3), (INF, -4)]), A(2, 3), DELTA) == (
        "raise", "mixed couple (D, F) must be finite for the replay",
    )


def test_replay_precondition_image_at_infinity():
    # the image line is parallel to KB (direction (1, 3)), so b is infinite
    parallel = default_chart(join(A(0, 5), A(1, 8)))
    assert _agree(ARBRE, A(2, 3), parallel) == (
        "raise", "image b at infinity; configuration not generic",
    )
    # an image line through D = -1 parallel to KC is rejected for D before
    # any projection reaches C
    through_d = default_chart(join(point_at(CH, -1), A(0, 3)))
    assert _agree(ARBRE, A(9, 3), through_d) == ("raise", "image line through a noeud")


def test_replay_precondition_shortcut():
    # an image line through D is rejected; the same data with a generic
    # image line replays
    delta = default_chart(join(point_at(CH, -1), A(0, 5)))
    assert _agree(ARBRE, A(2, 3), delta) == ("raise", "image line through a noeud")
    assert sorted(check_ramee_replayable(ARBRE, A(2, 3), DELTA)["points"]) == sorted("bhcgdf2345")
    # a doubled couple (B, B): rejected through D like any noeud, and off
    # the noeuds because it projects to b = h
    doubled = x_axis_arbre([(1, 1), (8, (1, 2)), (-1, -4)])
    assert _agree(doubled, A(2, 3), delta) == ("raise", "image line through a noeud")
    assert _agree(doubled, A(2, 3), DELTA) == (
        "raise", "image points are not pairwise distinct",
    )


@pytest.mark.parametrize("noeud", range(6))
def test_replay_precondition_rejects_image_line_through_each_noeud(noeud):
    # B H C G D F on the x-axis at 1 4 8 1/2 -1 -4; the image line runs from
    # the noeud to (0, 5), off K = (2, 3)
    pt = [p for pair in ARBRE.pairs for p in pair][noeud]
    delta = default_chart(join(pt, A(0, 5)))
    with pytest.raises(NonGenericError, match="image line through a noeud"):
        check_ramee_replayable(ARBRE, A(2, 3), delta)


def test_replay_precondition_k_on_intermediate_line():
    # K on join(D, f) would put f on line KD as well as on KF, so f = K; but
    # f is on the image line and K is not.  The check cannot fire: aiming K
    # at the intermediate line of one K moves f, and with it that line.
    d_pt, f_pt = ARBRE.pairs[2]
    f0 = project_point(A(2, 3), f_pt, DELTA.line)
    aimed = default_chart(join(d_pt, f0))
    for t in (F(-3), F(1, 2), F(2), F(7)):
        k = point_at(aimed, t)
        assert _agree(ARBRE, k, DELTA) == ("ok", None)
        f = project_point(k, f_pt, DELTA.line)
        assert f != f0 and not incident(k, join(d_pt, f))
    # the one point of that line that keeps f = f0 is f0, on the image line
    assert _agree(ARBRE, f0, DELTA) == (
        "raise", "projection point lies on a carrier line",
    )


# -- trace steps take integer pairs ---------------------------------------------


def test_trace_step_compares_pairs_by_cross_multiplying():
    # a canonical point's z may be negative, and so may a side's denominator
    trace = ProofTrace("pairs")
    trace.add("negative denominators", (3, -6), (-1, 2), "c")
    trace.add("non-reduced", (4, 6), (-10, -15), "c")
    trace.add("zero sides", (0, -5), (0, 7), "c")
    assert trace.verdict
    trace.add("opposite signs", (1, 2), (1, -2), "c")
    trace.add("zero against nonzero", (0, 3), (3, 3), "c")
    trace.add("false, non-reduced", (4, 6), (-10, 15), "c")
    assert [(s["lhs"], s["rhs"], s["equal"]) for s in trace.steps] == [
        ("-1/2", "-1/2", True),
        ("2/3", "2/3", True),
        ("0/1", "0/1", True),
        ("1/2", "-1/2", False),
        ("0/1", "1/1", False),
        ("2/3", "-2/3", False),
    ]
    assert not trace.verdict
    # a zero denominator on either side raises and adds no step, also where
    # cross-multiplying would call the sides equal: 2*0 == 0*3
    for lhs, rhs in (((1, 0), (2, 3)), ((2, 3), (1, 0)), ((2, 3), (0, 0)), ((0, 0), (2, 3))):
        with pytest.raises(ZeroDivisionError):
            trace.add("zero denominator", lhs, rhs, "c")
    assert len(trace.steps) == 6


# -- ratio against the chart formula ---------------------------------------------


def _chart_ratio(origin, num_end, den_end):
    """The ratio's value through chart parameters (the reference formula)."""
    chart = default_chart(join(origin, den_end))
    ts = []
    for p in (origin, num_end, den_end):
        t = rat(chart.param_pair(p))
        if t is INF:
            raise NonGenericError("ratio endpoint at infinity")
        ts.append(t)
    to, tn, td = ts
    return (tn - to) / (td - to)


LINE_COEFF = st.integers(-9, 9)


@st.composite
def small_line(draw):
    coeffs = (draw(LINE_COEFF), draw(LINE_COEFF), draw(LINE_COEFF))
    assume(coeffs[0] or coeffs[1])
    return PLine(*coeffs)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(small_line(), small_line(), small_line(), small_line())
@example(PLine(0, 1, 0), PLine(1, 0, 0), PLine(0, 1, 5), PLine(1, 0, -3))
def test_ratio_value_matches_chart_formula(carrier, m0, m1, m2):
    # meets give collinear points whose z is rarely 1, and at infinity when
    # a cutting line is parallel to the carrier
    try:
        pts = tuple(meet(carrier, m) for m in (m0, m1, m2))
    except GeometryError:
        assume(False)
    assume(pts[0] != pts[2])  # a zero denominator segment
    if any(p.is_at_infinity() for p in pts):
        with pytest.raises(NonGenericError, match="ratio endpoint at infinity"):
            ratio(*pts)
        with pytest.raises(NonGenericError, match="ratio endpoint at infinity"):
            _chart_ratio(*pts)
    else:
        assert F(*ratio(*pts)) == _chart_ratio(*pts)


RAT = st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(RAT, RAT, st.integers(-50, 50), st.integers(-50, 50), RAT, RAT, RAT)
@example(F(1), F(2), 0, 3, F(0), F(5), F(-1))  # vertical: the quotient is taken along y
def test_ratio_pair_is_the_chart_quotient(x0, y0, dx, dy, so, sn, sd):
    # three finite points x0 + s*dx, y0 + s*dy of one line
    assume((dx, dy) != (0, 0) and so != sd)
    origin, num_end, den_end = (A(x0 + s * dx, y0 + s * dy) for s in (so, sn, sd))
    num, den = ratio(origin, num_end, den_end)
    assert den != 0
    # the pair itself is the bracket quotient along the first coordinate
    # where den_end and origin differ affinely, unreduced
    o, n, d = origin.coords, num_end.coords, den_end.coords
    i = 0 if d[0] * o[2] != o[0] * d[2] else 1
    assert (num, den) == ((n[i] * o[2] - o[i] * n[2]) * d[2], (d[i] * o[2] - o[i] * d[2]) * n[2])
    assert F(num, den) == _chart_ratio(origin, num_end, den_end) == (sn - so) / (sd - so)


# -- the quadrangle replay --------------------------------------------------------


def quad_config():
    return quadrangle_figure((A(0, 0), A(4, 1), A(3, 5), A(-1, 3)),
                            default_chart(PLine(1, -3, 1)))


def test_quadrangle_replay_structure():
    trace = replay_quadrangle_proof(quad_config())
    assert trace.verdict
    assert len(trace.steps) == 6
    men = _menelaus_steps(trace)
    assert [s["meta"]["X"] for s in men] == ["I", "K", "G", "H"]
    assert [s["meta"]["couple"] for s in men] == [
        ("C", "B"), ("D", "E"), ("D", "B"), ("C", "E"),
    ]


@pytest.mark.parametrize("command, kind, ratios", [
    ("replay", "ramee", 24), ("verify", "ramee", 24), ("replay", "quadrangle", 12),
])
def test_each_menelaus_step_computes_its_three_ratios(monkeypatch, capsys, command, kind, ratios):
    # ramee: 8 Menelaus steps, quadrangle: 4; each step calls ratio for its
    # three factors and shares none with another step, so a rerun of the
    # same seed counts the same.
    import arguesia.menelaus_engine as menelaus_engine
    from arguesia.cli import main

    calls = []

    def counting(*args):
        calls.append(args)
        return ratio(*args)

    monkeypatch.setattr(menelaus_engine, "ratio", counting)
    for seed in (1, 2, 3, 1):
        calls.clear()
        assert main([command, kind, "--seed", str(seed), "--json"]) == 0
        assert len(calls) == ratios, seed
    capsys.readouterr()


def test_quadrangle_transversal_through_borne_rejected():
    bornes = (A(0, 0), A(4, 1), A(3, 5), A(-1, 3))
    through_b = join(A(0, 0), A(1, 7))
    with pytest.raises(NonGenericError):
        quadrangle_figure(bornes, default_chart(through_b))


def test_quadrangle_transversal_through_diagonal_point_rejected():
    bornes = (A(0, 0), A(4, 1), A(3, 5), A(-1, 3))
    q = quad_config()
    f_pt = q["diagonals"]["F"]
    bad = join(f_pt, A(100, 3))
    with pytest.raises(NonGenericError):
        quadrangle_figure(bornes, default_chart(bad))


def test_ratio_validation():
    with pytest.raises(NonGenericError, match="zero denominator segment"):
        ratio(A(0, 0), A(1, 1), A(0, 0))
    with pytest.raises(NonGenericError, match="non-collinear"):
        ratio(A(0, 0), A(1, 1), A(2, 0))
    assert F(*ratio(A(0, 0), A(2, 2), A(3, 3))) == F(2, 3)
    # representatives with z = 3, -7 and 7 (stored as z = -1)
    assert F(*ratio(PPoint(3, 6, 3), PPoint(-14, -28, -7), PPoint(-7, -14, 7))) == F(-1, 2)
    # on a vertical line the quotient is taken along y
    assert F(*ratio(PPoint(2, 1, 2), PPoint(3, 5, 3), PPoint(1, -2, 1))) == F(-7, 15)
    at_inf = PPoint(1, 1, 0)
    for pts in (
        (at_inf, A(1, 1), A(2, 2)),
        (A(0, 0), at_inf, A(2, 2)),
        (A(0, 0), A(1, 1), at_inf),
    ):
        with pytest.raises(NonGenericError, match="ratio endpoint at infinity"):
            ratio(*pts)

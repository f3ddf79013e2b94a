"""Menelaus' theorem the way Desargues wields it.

A sector figure is a tronc carrying three noeuds, each emitting a deployed
ray; the rays pairwise meet in the vertices a, b, c.  With all ratios
anchored at their noeud (the common-origin signed convention) the Menelaus
product is exactly 1, and the combinatorial decomposition of any brin ratio
into two ratios on the other rays is automatic: the missing vertex is
inserted, each factor anchored at the noeud whose ray carries its pair of
vertices.

``menelaus_step`` is that decomposition, and every Menelaus step of every
replay is one call of it: ``replay_ramee_proof`` and
``replay_quadrangle_proof`` here, the Beaugrand and Pascal replays in
``theorems``.  The replays evaluate every claimed identity exactly and log
it with its Brouillon citation tag.  Each ratio is a quotient of integer
brackets and stays an integer pair (``ratio``) through the products, as
does each chord product (``projective_core.chord_product``); a trace step
takes both sides as pairs with nonzero denominators and prints them by
``exact_scalar.pair_record``, the builder of every claim between pairs.
"""

from __future__ import annotations

from arguesia.exact_scalar import pair_record, pair_str
from arguesia.involution import NodeCouples
from arguesia.projective_core import (
    AffineChart,
    GeometryError,
    PLine,
    PPoint,
    default_chart,
    incident,
    join,
    meet,
    project_point,
)


class NonGenericError(GeometryError):
    """A required incidence or ratio is missing; the configuration is not
    generic for the requested replay."""


def sector_figure(p: PPoint, q: PPoint, r: PPoint, transversal: PLine) -> dict:
    """The checked sector figure (figure secteur) of a triangle cut by a
    transversal line, or NonGenericError.

    The tronc is the transversal; the rays r1, r2, r3 are the side lines
    QR, RP, PQ, and noeud i is ray i's intersection with the tronc.  The
    transversal must be no side line and the three noeuds pairwise
    distinct; then the rays are distinct and deployed and no vertex lies on
    the tronc, since a vertex there would be the noeud of both its rays.
    Returns {tronc, nodes, rays, vertices}, the vertices (a, b, c) =
    (r2^r3, r1^r3, r1^r2), which are (p, q, r) themselves.
    """
    rays = (join(q, r), join(r, p), join(p, q))
    if transversal in rays:
        raise NonGenericError("transversal is a side line")
    nodes = tuple(meet(ray, transversal) for ray in rays)
    if len(set(nodes)) != 3:
        raise NonGenericError("noeuds must be pairwise distinct")
    return {"tronc": transversal, "nodes": nodes, "rays": rays, "vertices": (p, q, r)}


def ratio(
    origin: PPoint, num_end: PPoint, den_end: PPoint, den_origin: PPoint | None = None
) -> tuple[int, int]:
    """Signed ratio origin->num_end : den_origin->den_end of two parallel
    segments, as an unreduced integer pair (num, den), den never 0, so
    products of ratios stay integer.  ``den_origin`` defaults to
    ``origin``: the noeud-anchored ratio of three points on one line.

    A quotient of the integer displacements v = n*o_z - o*n_z and
    w = d*e_z - e*d_z of the triples o, n, d, e (origin, num_end, den_end,
    den_origin), which carry the scales o_z*n_z and e_z*d_z: along a
    coordinate i with w_i != 0 it is v_i*d_z / (w_i*n_z) times e_z/o_z, a
    factor that is 1 for one origin and is then left out.
    NonGenericError for an endpoint at infinity, a zero denominator
    segment, or segments that are not parallel (points not collinear).
    """
    o, n, d = origin.coords, num_end.coords, den_end.coords
    e = o if den_origin is None else den_origin.coords
    oz, nz, dz, ez = o[2], n[2], d[2], e[2]
    if oz == 0 or nz == 0 or dz == 0 or ez == 0:
        raise NonGenericError("ratio endpoint at infinity")
    v0, v1 = n[0] * oz - o[0] * nz, n[1] * oz - o[1] * nz
    w0, w1 = d[0] * ez - e[0] * dz, d[1] * ez - e[1] * dz
    if w0 == 0 and w1 == 0:
        raise NonGenericError("ratio with zero denominator segment")
    if v0 * w1 != v1 * w0:
        raise NonGenericError("ratio of non-collinear points" if den_origin is None
                              else "ratio of non-parallel segments")
    num, den = (v0 * dz, w0 * nz) if w0 else (v1 * dz, w1 * nz)
    if den_origin is None:
        return num, den
    return num * ez, den * oz


def _times(*pairs: tuple[int, int]) -> tuple[int, int]:
    """Product of unreduced (num, den) pairs, itself unreduced."""
    num = den = 1
    for n, d in pairs:
        num *= n
        den *= d
    return num, den


def _over(num: tuple[int, int], den: tuple[int, int]) -> tuple[int, int]:
    """Quotient of two unreduced (num, den) pairs, itself unreduced."""
    return num[0] * den[1], num[1] * den[0]


class ProofTrace:
    """A replayed derivation.  Each step is the record it prints,
    ``{label, lhs, rhs, equal, cite, meta?}``, with both sides exact.

    ``add`` takes each side as an unreduced integer pair (num, den), den
    nonzero and of either sign, and records it by ``pair_record``: compared
    by cross-multiplying, printed reduced, a true step's left side once for
    both.  A side with den 0, which a claim would print as ``inf``, is
    refused: every step's sides are finite.
    """

    def __init__(self, name: str):
        self.name = name
        self.steps: list[dict] = []
        self.notes: dict = {}

    @property
    def verdict(self) -> bool:
        return all(s["equal"] for s in self.steps)

    def add(
        self, label: str, lhs: tuple[int, int], rhs: tuple[int, int], cite: str, **meta
    ) -> None:
        if not (lhs[1] and rhs[1]):
            raise ZeroDivisionError(f"{label}: a trace step side has denominator 0")
        step = pair_record(label, lhs, rhs)
        step["cite"] = cite
        if meta:
            step["meta"] = meta
        self.steps.append(step)

    def to_json(self) -> dict:
        return {"name": self.name, "verdict": self.verdict, "steps": self.steps, "notes": self.notes}


# ---------------------------------------------------------------------------
# the theorem and its combinatorics


def menelaus_product(sf: dict) -> tuple[int, int]:
    """ratio(N1;b,c) * ratio(N2;c,a) * ratio(N3;a,b), always exactly 1, as
    an unreduced integer pair."""
    n1, n2, n3 = sf["nodes"]
    a, b, c = sf["vertices"]
    return _times(ratio(n1, b, c), ratio(n2, c, a), ratio(n3, a, b))


def menelaus_converse(sf: dict) -> bool:
    """Reconstruct the third noeud from the unit-product constraint and
    check it is N3, the meet of its ray with the tronc, so it falls back on
    the tronc.

    On integer pairs: with ratio(N3; a, b) = n/d required and chart pairs
    (ua : va), (ub : vb) of a and b on their ray, the noeud's parameter t
    solves (ta - t)/(tb - t) = n/d, so t = (ua*vb*d - n*ub*va)/(va*vb*(d - n)).
    """
    n1, n2, n3 = sf["nodes"]
    a, b, c = sf["vertices"]
    # the required ratio(N3; a, b) is 1/(r1*r2): den/num of their product
    d, n = _times(ratio(n1, b, c), ratio(n2, c, a))
    if n == d:
        return False
    ray = default_chart(sf["rays"][2])
    (ua, va), (ub, vb) = ray.param_pair(a), ray.param_pair(b)
    candidate = ray.point_at_pair((ua * vb * d - n * ub * va, va * vb * (d - n)))
    return candidate == n3


def menelaus_step(
    trace: ProofTrace, n1, n2, n3, a, b, c, cite: str, **meta
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Desargues' decomposition of the brin ratio at noeud N1, logged as one
    step of ``trace``:  N1b/N1c = (N3b/N3a)(N2a/N2c).

    Each argument is a (name, point) pair: three noeuds and the three
    vertices of their sector figure, N1 on the ray bc, N2 on ac, N3 on ab.
    The missing vertex a is inserted, and each factor is anchored at the
    noeud whose ray carries its two vertices.  The decompositions at the
    other noeuds, and the inverted form, are the same call relabelled.  The
    label is spelled from the six names, and the step's meta is its kind,
    menelaus, then ``meta``.  A false identity is a false step.  Returns
    the integer pairs of N1b/N1c, N3b/N3a and N2a/N2c, three ``ratio``
    calls; a step shares nothing with the other steps of its trace.
    """
    (l1, p1), (l2, p2), (l3, p3), (la, pa), (lb, pb), (lc, pc) = n1, n2, n3, a, b, c
    brin = ratio(p1, pb, pc)
    at_n3 = ratio(p3, pb, pa)
    at_n2 = ratio(p2, pa, pc)
    trace.add(
        f"{l1}{lb}/{l1}{lc} = ({l3}{lb}/{l3}{la})({l2}{la}/{l2}{lc})",
        brin,
        _times(at_n3, at_n2),
        cite,
        kind="menelaus",
        **meta,
    )
    return brin, at_n3, at_n2


# ---------------------------------------------------------------------------
# the ramee replay


def _finite_projection(center: PPoint, p: PPoint, target: PLine, what: str) -> PPoint:
    q = project_point(center, p, target)
    if q.is_at_infinity():
        raise NonGenericError(f"image {what} at infinity; configuration not generic")
    return q


def check_ramee_replayable(arbre: NodeCouples, k: PPoint, delta: AffineChart) -> dict:
    """The checked figure of the data, or NonGenericError.

    This is the whole genericity precondition of the ramee path, run once
    per instance: the generator draws and calls it and keeps the figure,
    which ``replay_ramee_proof``, ``theorems.verify_ramee`` and the SVG
    figure take as it is.  K must be finite and off both carrier lines, and
    no noeud may lie on the image line (an image line equal to the tronc
    carries all six).  It needs no ratio: only the six projections from K
    onto the image line and the four onto the intermediate line join(D, f),
    with their finiteness and distinctness.  Returns {arbre, k, delta,
    points}, ``points`` the ten projections by name: b h c g d f, the
    images of B H C G D F on the image line, and 2 3 4 5, those of B C G H
    on join(D, f).
    """
    tronc = arbre.chart.line
    if incident(k, tronc) or incident(k, delta.line):
        raise NonGenericError("projection point lies on a carrier line")
    if k.is_at_infinity():
        raise NonGenericError(
            "projection point at infinity: Thales case, no Menelaus replay"
        )
    if any(incident(p, delta.line) for pair in arbre.pairs for p in pair):
        raise NonGenericError("image line through a noeud")
    (B, H), (C, G), (D, F) = arbre.pairs
    if D.is_at_infinity() or F.is_at_infinity():
        raise NonGenericError("mixed couple (D, F) must be finite for the replay")

    pts = {
        nm: _finite_projection(k, p, delta.line, nm)
        for p, nm in ((B, "b"), (H, "h"), (C, "c"), (G, "g"), (D, "d"), (F, "f"))
    }
    if len(set(pts.values())) != 6:
        raise NonGenericError("image points are not pairwise distinct")
    inter = join(D, pts["f"])
    if incident(k, inter):
        raise NonGenericError("projection point on the intermediate line")
    for p, nm in ((B, "2"), (C, "3"), (G, "4"), (H, "5")):
        pts[nm] = _finite_projection(k, p, inter, nm)
    # the replay's ratios X->D : X->F on the tronc need finite noeuds
    if any(p.is_at_infinity() for p in (B, H, C, G)):
        raise NonGenericError("ratio endpoint at infinity")
    return {"arbre": arbre, "k": k, "delta": delta, "points": pts}


def replay_ramee_proof(figure: dict) -> ProofTrace:
    """Machine-replay of the ramee derivation: two series of four Menelaus
    applications through the intermediate line of the mixed couple (D, f),
    then the alpha aggregations and the conclusion.

    Takes the figure ``check_ramee_replayable`` returned, with its
    projected points.  Each Menelaus step is one ``menelaus_step``, which
    computes its own three ratios, and alpha is built from the Kd/KD and
    KF/Kf that the last step of each series returns; products, alpha
    included, multiply the integer pairs the steps return, and each
    printed side, like each note, is formatted from an integer pair.
    """
    pts, delta = figure["points"], figure["delta"]
    (B, H), (C, G), (D, F) = figure["arbre"].pairs
    # name -> the (name, point) argument of menelaus_step
    named = {nm: (nm, p) for nm, p in
             dict(pts, B=B, H=H, C=C, G=G, D=D, F=F, K=figure["k"]).items()}

    trace = ProofTrace("ramee")
    # str(Fraction) of each image's chart coordinate: no "/1" on integers
    trace.notes["images"] = {
        nm: pair_str(*delta.param_pair(pts[nm])).removesuffix("/1") for nm in "bhcgdf"
    }
    trace.notes["shortcut"] = False  # always; kept for the printed bytes

    image = {}
    for x, n, cite in (
        ("g", "4", "p.11 l.38"),
        ("c", "3", "p.11 l.40"),
        ("b", "2", "p.11 l.42"),
        ("h", "5", "p.11 l.44"),
    ):
        image[x], kd_over_kD, _ = menelaus_step(
            trace, named[x], named[n], named["K"], named["D"], named["d"], named["f"], cite,
            series=1, tronc=f"{x}K{n}",
        )

    source = {}
    for x, n, cite in (
        ("G", "4", "p.11 l.45"),
        ("C", "3", "p.11 l.47"),
        ("B", "2", "p.11 l.49"),
        ("H", "5", "p.11 l.51"),
    ):
        _, source[x], kF_over_kf = menelaus_step(
            trace, named[n], named["K"], named[x], named["F"], named["D"], named["f"], cite,
            series=2, tronc=f"{n}K{x}",
        )

    alpha = _times(kd_over_kD, kd_over_kD, kF_over_kf, kF_over_kf)
    trace.notes["alpha"] = pair_str(*alpha)

    lhs_gc = _times(image["g"], image["c"])
    trace.add(
        "dg.dc/(fg.fc) = a.DG.DC/(FG.FC)",
        lhs_gc,
        _times(alpha, source["G"], source["C"]),
        "p.12 l.11",
        kind="aggregation",
    )
    lhs_bh = _times(image["b"], image["h"])
    trace.add(
        "db.dh/(fb.fh) = a.DB.DH/(FB.FH)",
        lhs_bh,
        _times(alpha, source["B"], source["H"]),
        "p.12 l.7",
        kind="aggregation",
    )
    trace.add(
        "dg.dc/(fg.fc) = db.dh/(fb.fh)",
        lhs_gc,
        lhs_bh,
        "p.12 l.26",
        kind="conclusion",
        couples="df, cg, bh",
    )
    return trace


# ---------------------------------------------------------------------------
# the quadrangle replay


def replay_quadrangle_proof(q: dict) -> ProofTrace:
    """Four Menelaus applications with pivot F, then the two aggregations.

    ``q`` is the figure ``theorems.quadrangle_figure`` returned: bornes
    B, C, D, E, the diagonal point F = BE^DC among its diagonals and the
    transversal intersections I, K, P, Q, G, H.  Each Menelaus step is one
    ``menelaus_step``; the common right side of both aggregations is the
    product of the I and K steps' right sides.
    """
    B, C, D, E = q["bornes"]
    F = q["diagonals"]["F"]
    I, K, P, Q, G, H = (q[nm] for nm in "IKPQGH")

    trace = ProofTrace("quadrangle")
    lhs, rhs = {}, {}
    for x, alpha, beta, cite in (
        (("I", I), ("C", C), ("B", B), "p.17 l.7"),
        (("K", K), ("D", D), ("E", E), "p.17 l.9"),
        (("G", G), ("D", D), ("B", B), "p.17 l.16"),
        (("H", H), ("C", C), ("E", E), "p.17 l.18"),
    ):
        brin, at_alpha, at_beta = menelaus_step(
            trace, x, beta, alpha, ("F", F), ("Q", Q), ("P", P), cite,
            X=x[0], couple=(alpha[0], beta[0]),
        )
        lhs[x[0]], rhs[x[0]] = brin, _times(at_alpha, at_beta)

    # (CQ/CF)(BF/BP)(DQ/DF)(EF/EP): the right sides at I and at K
    common = _times(rhs["I"], rhs["K"])
    trace.add(
        "QI.QK/(PI.PK) = (CQ/CF)(BF/BP)(DQ/DF)(EF/EP)",
        _times(lhs["I"], lhs["K"]),
        common,
        "p.17 l.11",
        kind="aggregation",
    )
    trace.add(
        "QG.QH/(PG.PH) = (CQ/CF)(BF/BP)(DQ/DF)(EF/EP)",
        _times(lhs["G"], lhs["H"]),
        common,
        "p.17 l.20",
        kind="aggregation",
    )
    return trace

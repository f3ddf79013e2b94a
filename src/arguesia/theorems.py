"""End-to-end verifiers for each theorem, special case and replayed proof.

Every operation returns a TheoremReport: the echoed inputs, a list of
claims with both sides evaluated exactly, an overall verdict, and an
optional step-by-step ProofTrace.  Verification never rounds; a claim is
either exactly true or the report says it is not.

Metric claims (midpoints, perpendicularity, bisectors, power of a point)
live in the standard euclidean chart z = 1 and are flagged by their
labels; everything else is projective.
"""

from __future__ import annotations

from functools import cached_property

from arguesia._frozen import Frozen
from arguesia.exact_scalar import InternalError, QuadExt, pair_str, scalar_str
from arguesia.conics import (
    Conic,
    ConicError,
    ConicParametrization,
    chord_quadratic,
    conic_line_intersection,
    second_intersection,
)
from arguesia.involution import (
    Involution,
    InvolutionError,
    NodeCouples,
    classify,
    classify_kind,
    equivalence_check,
    involution_json,
    partner,
    rectangle_identity_check,
)
from arguesia.menelaus_engine import (
    NonGenericError,
    ProofTrace,
    SectorFigure,
    _over,
    _times,
    menelaus_converse,
    menelaus_product,
    menelaus_step,
    ratio,
    replay_quadrangle_proof,
    replay_ramee_proof,
)
from arguesia.projective_core import (
    AffineChart,
    GeometryError,
    P3Plane,
    P3Point,
    PLine,
    PPoint,
    _apply_quad,
    _scaled_displacement,
    apply_mat3,
    chord_product,
    collinear,
    cross_ratio,
    default_chart,
    directions_parallel,
    harmonic_partner_param,
    incident,
    infinity_point_of,
    join,
    meet,
    midpoint,
    parallel_line_through,
    param_str,
    perspective_map,
    plane_perspectivity,
    project_point,
)


def _show(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return f"{v}/1"
    if isinstance(v, QuadExt):
        return scalar_str(v)
    if isinstance(v, PPoint):
        return repr(v)
    return str(v)


class TheoremReport:
    def __init__(self, name: str, inputs: dict):
        self.name = name
        self.inputs = inputs
        self.claims: list = []
        self.trace: ProofTrace | None = None
        self.notes: dict = {}

    def claim(self, label: str, lhs, rhs) -> bool:
        equal = lhs == rhs
        self.claims.append(
            {"label": label, "lhs": _show(lhs), "rhs": _show(rhs), "equal": equal}
        )
        return equal

    def claim_pair(self, label: str, lhs: tuple[int, int], rhs: tuple[int, int]) -> bool:
        """A claim between unreduced integer pairs (num, den), compared by
        cross-multiplying and printed by ``param_str``: reduced, as
        ``ProofTrace.add`` prints, and ``inf`` for a side (u, 0)."""
        equal = lhs[0] * rhs[1] == rhs[0] * lhs[1]
        self.claims.append(
            {"label": label, "lhs": param_str(lhs), "rhs": param_str(rhs), "equal": equal}
        )
        return equal

    def claim_true(self, label: str, value: bool) -> bool:
        return self.claim(label, value, True)

    @property
    def verdict(self) -> bool:
        ok = all(c["equal"] for c in self.claims)
        if self.trace is not None:
            ok = ok and self.trace.verdict
        return ok

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "inputs": self.inputs,
            "claims": self.claims,
            "verdict": self.verdict,
        }
        if self.notes:
            out["notes"] = self.notes
        if self.trace is not None:
            out["trace"] = self.trace.to_json()
        return out


def verify_menelaus(figure: SectorFigure, inputs: dict) -> TheoremReport:
    """Menelaus in sector form: the three noeud ratios multiply to 1, and
    conversely the unit product puts the third noeud back on the tronc."""
    report = TheoremReport("menelaus", inputs=inputs)
    report.claim_pair("menelaus product", menelaus_product(figure), (1, 1))
    report.claim_true("converse: unit product forces collinearity", menelaus_converse(figure))
    return report


# ---------------------------------------------------------------------------
# quadrangle configuration


class QuadrangleConfig(Frozen):
    """Complete quadrangle B, C, D, E with a generic transversal.

    Bornales come in the three opposite couples (BC, ED), (BE, DC),
    (BD, CE), meeting in the diagonal points N, F, R; the transversal cuts
    them in the couples (I, K), (P, Q), (G, H).  Generic means: no three
    bornes collinear, the transversal is parallel to no bornale and avoids
    the bornes and diagonal points.

    The derived geometry (six bornales, three diagonal points, six cuts) is
    computed once per instance, when it is built; ``bornales()`` and
    ``diagonal_points()`` return copies.  The three bornale line pairs and
    the involution of the three couples are built on first use and kept: by
    Desargues' theorem the involution is the one every conic of the pencil
    through the bornes, which two line pairs span, cuts on the transversal.
    """

    _fields = ("bornes", "transversal", "strict")

    def __init__(self, bornes: tuple[PPoint, ...], transversal: AffineChart, strict: bool = True):
        object.__setattr__(self, "bornes", bornes)
        object.__setattr__(self, "transversal", transversal)
        object.__setattr__(self, "strict", strict)
        b, c, d, e = bornes
        if len(set(bornes)) != 4:
            raise NonGenericError("bornes must be distinct")
        ln = {
            "BC": join(b, c),
            "ED": join(e, d),
            "BE": join(b, e),
            "DC": join(d, c),
            "BD": join(b, d),
            "CE": join(c, e),
        }
        # C, D, E; B, D, E; B, C, E; B, C, D, tested on the bornales
        if (incident(e, ln["DC"]) or incident(e, ln["BD"]) or incident(e, ln["BC"])
                or incident(d, ln["BC"])):
            raise NonGenericError("three bornes are collinear")
        delta = transversal.line
        cuts = {}
        for name, line in ln.items():
            if line == delta:
                raise NonGenericError(f"transversal equals bornale {name}")
            cuts[name] = meet(delta, line)
            if strict and cuts[name].is_at_infinity():
                raise NonGenericError(f"transversal parallel to bornale {name}")
        diagonals = {
            "N": meet(ln["BC"], ln["ED"]),
            "F": meet(ln["BE"], ln["DC"]),
            "R": meet(ln["BD"], ln["CE"]),
        }
        for p in bornes + tuple(diagonals.values()):
            if incident(p, delta):
                raise NonGenericError("transversal through a special point")
        object.__setattr__(self, "_bornales", ln)
        object.__setattr__(self, "_diagonals", diagonals)
        object.__setattr__(self, "_cuts", cuts)

    def bornales(self) -> dict[str, PLine]:
        return dict(self._bornales)

    def diagonal_points(self) -> dict[str, PPoint]:
        return dict(self._diagonals)

    @property
    def pivot(self) -> PPoint:
        return self._diagonals["F"]

    @property
    def I(self) -> PPoint:
        return self._cuts["BC"]

    @property
    def K(self) -> PPoint:
        return self._cuts["ED"]

    @property
    def P(self) -> PPoint:
        return self._cuts["BE"]

    @property
    def Q(self) -> PPoint:
        return self._cuts["DC"]

    @property
    def G(self) -> PPoint:
        return self._cuts["BD"]

    @property
    def H(self) -> PPoint:
        return self._cuts["CE"]

    def couples(self):
        return ((self.I, self.K), (self.P, self.Q), (self.G, self.H))

    def node_couples(self) -> NodeCouples:
        return NodeCouples(self.transversal, self.couples())

    @cached_property
    def line_pairs(self) -> dict[str, Conic]:
        """The degenerate members BC+ED, BE+DC and BD+CE of the pencil
        through the bornes, keyed by the couple each cuts on the
        transversal: IK, PQ and GH."""
        ln = self._bornales
        return {
            "IK": Conic.from_lines(ln["BC"], ln["ED"]),
            "PQ": Conic.from_lines(ln["BE"], ln["DC"]),
            "GH": Conic.from_lines(ln["BD"], ln["CE"]),
        }

    @cached_property
    def involution(self) -> Involution:
        """The involution swapping I, K and P, Q and G, H; InvolutionError
        when the couples are not in involution."""
        return nc_involution(self.node_couples())

    @cached_property
    def _json(self) -> dict:
        return {
            "bornes": [p.to_json() for p in self.bornes],
            "transversal": self.transversal.to_json(),
        }

    def to_json(self) -> dict:
        """The bornes and the transversal.  Built once per instance, as the
        pencil verifier asks for them once per member: each call returns a
        new dict over the same values, which no caller mutates."""
        return dict(self._json)


# ---------------------------------------------------------------------------
# the ramee theorem


def verify_ramee(figure: dict) -> TheoremReport:
    """Project the six noeuds from K and verify the images stay in involution.

    ``figure`` is what ``check_ramee_replayable`` returned, so K and the six
    images are finite.  Claims: the image couples pass the rectangle
    identities, and, as a separate claim, the homography check; the
    hyperbolic/elliptic class is preserved; each fixed point maps exactly
    to a fixed point.  The image couples are the check's projections, and
    the Menelaus trace of ``replay_ramee_proof`` is attached.
    """
    nc, k, delta, pts = figure["arbre"], figure["k"], figure["delta"], figure["points"]
    trace = replay_ramee_proof(figure)
    report = TheoremReport(
        "ramee",
        inputs={
            "couples": [[p.to_json(), q.to_json()] for p, q in nc.pairs],
            "k": k.to_json(),
            "delta": delta.to_json(),
        },
    )
    report.notes["k_at_infinity"] = False  # always; kept for the printed bytes

    pi = perspective_map(k, nc.chart, delta)
    image_nc = NodeCouples(
        delta, ((pts["b"], pts["h"]), (pts["c"], pts["g"]), (pts["d"], pts["f"]))
    )
    source_inv = nc_involution(nc)
    phi_conjugate = Involution(pi.compose(source_inv.map).compose(pi.inverse()))

    for ident in rectangle_identity_check(image_nc):
        report.claims.append(ident | {"label": "image " + ident["label"]})
    eq = equivalence_check(image_nc)
    report.claim_true("image couples in involution (homography)", eq["equivalent"])
    report.claim(
        "conjugate involution equals image involution",
        phi_conjugate.map.matrix,
        eq["involution"].map.matrix,
    )

    src_cls = classify(source_inv)
    report.claim(
        "classification preserved", src_cls["kind"], classify_kind(phi_conjugate)
    )
    phi = phi_conjugate.map
    for t in src_cls["fixed_points"]:
        label = f"fixed point {param_str(t)} transported to a fixed point"
        if isinstance(t, QuadExt):
            t_img = _apply_quad(pi.matrix, t)
            report.claim(label, _apply_quad(phi.matrix, t_img), t_img)
        else:
            t_img = pi.apply_pair(t)
            report.claim_pair(label, phi.apply_pair(t_img), t_img)
    report.trace = trace
    return report


def nc_involution(nc: NodeCouples) -> Involution:
    """The involution determined by a NodeCouples (must be consistent)."""
    eq = equivalence_check(nc)
    if not eq["equivalent"]:
        raise InvolutionError("couples are not in involution")
    return eq["involution"]


# ---------------------------------------------------------------------------
# harmonic conjugates and the four-point special cases


def harmonic_conjugate(b: PPoint, c: PPoint, d: PPoint) -> PPoint:
    """The point F with cross-ratio [B,C;D,F] = -1, computed two ways.

    Closed form from the cross-ratio equation, and the ruler construction:
    a secant through D carrying two points with D as midpoint, their joins
    to B and C meeting in K, then F on BC along the parallel to the secant
    through K.  Both must agree exactly (InternalError otherwise, a fault of
    the program); D at the midpoint of BC yields the point at infinity,
    which is a result, not an error.
    """
    if len({b, c, d}) != 3:
        raise GeometryError("harmonic conjugate needs three distinct points")
    if not collinear(b, c, d):
        raise GeometryError("harmonic conjugate needs collinear points")
    chart = default_chart(join(b, c))
    t = harmonic_partner_param(chart.param_pair(b), chart.param_pair(c), chart.param_pair(d))
    f_closed = chart.point_at_pair(t)
    f_built = _harmonic_by_construction(b, c, d)
    if f_built is not None and f_built != f_closed:
        raise InternalError("harmonic constructions disagree")
    return f_closed


def harmonic_construction_data(b: PPoint, c: PPoint, d: PPoint):
    """The ruler construction of the harmonic conjugate, with its pieces.

    Returns {secant, lo, hi, k, f} for a deterministic secant through D
    carrying two points with D as midpoint, or None when no listed secant
    direction works (never for finite inputs in practice).
    """
    if b.is_at_infinity() or c.is_at_infinity() or d.is_at_infinity():
        return None
    base = join(b, c)
    for direction in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2)):
        dir_pt = PPoint(direction[0], direction[1], 0)
        if incident(dir_pt, base):
            continue
        secant = join(d, dir_pt)
        lo = PPoint(d.x + direction[0] * d.z, d.y + direction[1] * d.z, d.z)
        hi = PPoint(d.x - direction[0] * d.z, d.y - direction[1] * d.z, d.z)
        if lo in (b, c) or hi in (b, c):
            continue
        try:
            k = meet(join(lo, b), join(hi, c))
            f = meet(base, parallel_line_through(secant, k))
        except GeometryError:
            continue
        return {"secant": secant, "lo": lo, "hi": hi, "k": k, "f": f}
    return None


def _harmonic_by_construction(b: PPoint, c: PPoint, d: PPoint):
    data = harmonic_construction_data(b, c, d)
    return None if data is None else data["f"]


def _four_point_case(name: str, b, c, d, f, k, finite) -> tuple[PLine, TheoremReport]:
    """The precondition the midpoint and bisector cases share: B, C, D, F
    collinear and harmonic, K off their line (the tronc) and the points of
    ``finite`` finite; GeometryError otherwise.  Returns the tronc and the
    case's empty report."""
    base = join(b, c)
    if not (incident(d, base) and incident(f, base)):
        raise GeometryError("the four points must be collinear")
    num, den = cross_ratio(b, c, d, f)
    if num != -den:
        raise GeometryError("input points are not harmonic")
    if incident(k, base):
        raise GeometryError("projection point on the tronc")
    if any(p.is_at_infinity() for p in finite):
        raise GeometryError("finite points required here")
    inputs = {p_name: p.to_json() for p_name, p in zip("BCDFK", (b, c, d, f, k))}
    return base, TheoremReport(name, inputs=inputs)


def verify_midpoint_case(b: PPoint, c: PPoint, d: PPoint, f: PPoint, k: PPoint) -> TheoremReport:
    """Four-point involution B=H, C=G, D, F projected onto the line through
    C parallel to the rameau DK: the image f must be the exact midpoint of
    cb, the composed ratio (BC/BD)(FD/FC) must be the raison double 2, and
    conversely the midpoint property must force d to infinity.
    """
    base, report = _four_point_case("midpoint_case", b, c, d, f, k, (b, c, d, f))
    rameau = join(d, k)
    image_line = parallel_line_through(rameau, c)
    c_img = project_point(k, c, image_line)
    b_img = project_point(k, b, image_line)
    f_img = project_point(k, f, image_line)
    d_img = project_point(k, d, image_line)
    report.claim("projection fixes c on the image line", c_img, c)
    report.claim("f is the midpoint of cb (metric)", f_img, midpoint(c_img, b_img))
    report.claim_pair(
        "composed ratio (BC/BD)(FD/FC) is the raison double",
        _times(ratio(b, c, d), ratio(f, d, c)),
        (2, 1),
    )
    report.claim_true("d at infinity (image line parallel to DK)", d_img.is_at_infinity())

    # converse on a control line through C not parallel to DK: the image
    # quadruple stays harmonic, so f' is the midpoint exactly when d' is
    # at infinity; on a non-parallel line both must fail together
    control = _control_line(c, k, rameau, base)
    cb2 = project_point(k, b, control)
    cf2 = project_point(k, f, control)
    cd2 = project_point(k, d, control)
    report.claim_pair(
        "harmonic transported to the control line", cross_ratio(cb2, c, cd2, cf2), (-1, 1)
    )
    mid_holds = (not cb2.is_at_infinity()) and cf2 == midpoint(c, cb2)
    report.claim(
        "converse: midpoint property iff image of D at infinity (control line)",
        mid_holds,
        cd2.is_at_infinity(),
    )
    return report


def _control_line(c: PPoint, k: PPoint, rameau: PLine, base: PLine) -> PLine:
    for direction in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)):
        dir_pt = PPoint(direction[0], direction[1], 0)
        cand = join(c, dir_pt)
        if cand in (base, rameau):
            continue
        if incident(k, cand) or incident(dir_pt, rameau):
            continue
        return cand
    raise GeometryError("no control line found")


def verify_bisector_case(b: PPoint, c: PPoint, d: PPoint, f: PPoint, k: PPoint) -> TheoremReport:
    """Perpendicular correspondent rameaux are the two bisectors (metric).

    With B=H, C=G doubled and (B,C;D,F) harmonic: if KB is perpendicular to
    KC then reflecting the direction KD across KC (and across KB) yields
    the direction KF exactly; conversely a bisecting KG is perpendicular to
    KB.  Non-perpendicular K is reported false, not rejected.

    Directions are the integer displacements from K, which are the true
    ones times the nonzero k.z * p.z, so parallelism and perpendicularity
    read the same on them; the reflection leaves out the division by the
    axis' squared length, which only rescales the reflected direction.
    """
    _, report = _four_point_case("bisector_case", b, c, d, f, k, (b, c, d, f, k))
    kb, kc, kd, kf = (_scaled_displacement(k, p) for p in (b, c, d, f))
    # KB.KC as chord_product's pair, the dot product over k.z**2 * b.z * c.z
    kb_kc = chord_product(k, b, c)
    perp = kb_kc[0] == 0
    report.claim_pair("KB perpendicular KC (metric)", kb_kc, (0, 1))

    def reflects_kd_to_kf(axis) -> bool:
        (ax, ay), (vx, vy) = axis, kd
        mirrored = (
            (ax * ax - ay * ay) * vx + 2 * ax * ay * vy,
            2 * ax * ay * vx + (ay * ay - ax * ax) * vy,
        )
        return directions_parallel(mirrored, kf)

    bisects_c = reflects_kd_to_kf(kc)
    bisects_b = reflects_kd_to_kf(kb)
    report.claim_true("reflection across KC maps line KD to line KF", bisects_c)
    report.claim_true("reflection across KB maps line KD to line KF", bisects_b)
    report.claim("converse: KG bisects DKF iff KG perpendicular KB", bisects_c, perp)
    return report


def construct_involution_p13(b: PPoint, h: PPoint, g: PPoint, k: PPoint):
    """The page-13 construction: h on BK, f the midpoint of Gh, F on Kf^BG
    and D on the parallel to Gh through K; then B, D, G, F are four points
    in involution (B and G doubled), i.e. [B,G;D,F] = -1.  Returns the
    constructed points (f, F, D) and the report.
    """
    if b == k:
        raise GeometryError("B and K must differ")
    bk = join(b, k)
    if not incident(h, bk):
        raise GeometryError("h must lie on the line BK")
    if h in (b, k):
        raise GeometryError("h must differ from B and K")
    if incident(g, bk):
        raise GeometryError("G on line BK: degenerate")
    for p in (b, h, g, k):
        if p.is_at_infinity():
            raise GeometryError("finite input points required")

    report = TheoremReport(
        "p13_construction",
        inputs={"B": b.to_json(), "h": h.to_json(), "G": g.to_json(), "K": k.to_json()},
    )
    f_mid = midpoint(g, h)
    gh = join(g, h)
    bg = join(b, g)
    big_f = meet(join(k, f_mid), bg)
    big_d = meet(parallel_line_through(gh, k), bg)
    report.notes["F"] = big_f.to_json()
    report.notes["D"] = big_d.to_json()
    report.claim_pair(
        "secant harmonic: [G,h; f, inf] = -1",
        cross_ratio(g, h, f_mid, infinity_point_of(gh)),
        (-1, 1),
    )
    report.claim_pair(
        "four points in involution: [B,G;D,F] = -1", cross_ratio(b, g, big_d, big_f), (-1, 1)
    )
    return (f_mid, big_f, big_d), report


# ---------------------------------------------------------------------------
# the quadrangle involution theorem


def quadrangle_involution(q: QuadrangleConfig):
    """The three transversal couples are in involution; returns the
    involution (built from two couples) plus a report carrying the
    rectangle identities, the homography check, the match with the
    three-perspective construction and the pivot-based Menelaus replay
    (NonGenericError for a pivot F at infinity)."""
    report = TheoremReport("quadrangle_involution", inputs=q.to_json())
    nc = q.node_couples()
    report.claims.extend(rectangle_identity_check(nc))
    eq = equivalence_check(nc)
    report.claim_true("couples (I,K), (P,Q), (G,H) in involution", eq["equivalent"])
    inv = eq["involution"]
    report.claim("involution swaps G and H", partner(inv, q.G), q.H)
    report.notes["involution"] = involution_json(inv)
    report.trace = replay_quadrangle_proof(q)
    by_persp = desargues_involution_by_perspectives(q)
    report.claim("three-perspective construction matches", by_persp.map.matrix, inv.map.matrix)
    return inv, report


def desargues_involution_by_perspectives(q: QuadrangleConfig) -> Involution:
    """The quadrangle involution as a composition of three perspectives:
    center D from the transversal to CE, center P from CE to BD, center C
    from BD back to the transversal."""
    b, c, d, e = q.bornes
    ce = default_chart(q._bornales["CE"])
    bd = default_chart(q._bornales["BD"])
    s1 = perspective_map(d, q.transversal, ce)
    s2 = perspective_map(q.P, ce, bd)
    s3 = perspective_map(c, bd, q.transversal)
    composed = s3.compose(s2.compose(s1))
    return Involution(composed)


def verify_pencil(q: QuadrangleConfig, members) -> dict:
    """The pencil theorem on each named member: one report per member, and
    the verdict is true when every report's is."""
    sub = [{"member": name, "report": pencil_involution_check(q, member).to_json()}
           for name, member in members]
    return {"name": "pencil", "members": sub, "verdict": all(s["report"]["verdict"] for s in sub)}


def pencil_involution_check(q: QuadrangleConfig, member: Conic) -> TheoremReport:
    """One conic of the pencil through the bornes cuts the transversal in a
    couple of the same involution; a tangent member's double point is a
    fixed point.  For a nondegenerate member with a rational chord the
    conic-induced map sigma (pencils at E and D) must satisfy sigma(P)=G,
    sigma(H)=Q and fix the chord points.  A chord with no rational point,
    irrational or imaginary, is the root couple of the member's form
    A*u**2 + B*u*v + C*v**2 on the transversal, and it is a couple of the
    involution ((a, b), (c, -a)) exactly when c*C + a*B - b*A = 0: the
    relation c*t*t' - a*(t + t') - b = 0 in the symmetric functions
    t + t' = -B/A and t*t' = C/A, so no square root is taken.
    """
    for p in q.bornes:
        if not member.contains(p):
            raise ConicError("member does not pass through all four bornes")
    report = TheoremReport(
        "pencil_involution",
        inputs=q.to_json() | {"member": member.to_json()},
    )
    inv = q.involution
    delta = q.transversal

    if member.is_degenerate():
        pair = _degenerate_chord(q, member)
        if pair is None:
            raise ConicError("degenerate member is not a bornale pair")
        name, (l_pt, m_pt) = pair
        report.notes["member_kind"] = f"line pair {name}"
        report.claim(f"line-pair chord = couple {name}", partner(inv, l_pt), m_pt)
        return report

    disc, chord = conic_line_intersection(member, delta.line)
    report.notes["discriminant"] = f"{disc}/1"
    if not chord:
        big_a, big_b, big_c = chord_quadratic(member, inv.chart)
        a, b, c, _ = inv.map.matrix
        report.claim(
            "chord couple in the involution: c*C + a*B - b*A = 0",
            c * big_c + a * big_b - b * big_a,
            0,
        )
        return report

    if disc == 0:
        (t_pt,) = chord
        report.claim("tangency double point is a fixed point", partner(inv, t_pt), t_pt)
    else:
        l_pt, m_pt = chord
        report.claim("chord couple swapped: partner(L) = M", partner(inv, l_pt), m_pt)
    b, c, d, e = q.bornes
    sigma = lambda x: meet(join(d, second_intersection(member, e, x)), delta.line)
    report.claim("sigma(a) = c  [sigma(P) = G]", sigma(q.P), q.G)
    report.claim("sigma(c') = a'  [sigma(H) = Q]", sigma(q.H), q.Q)
    for i, pt in enumerate(chord):
        report.claim(f"sigma fixes chord point {i + 1}", sigma(pt), pt)
    return report


def _degenerate_chord(q: QuadrangleConfig, member: Conic):
    for (name, pair), couple in zip(q.line_pairs.items(), q.couples()):
        if pair == member:
            return name, couple
    return None


def parallel_bornales_identities(q: QuadrangleConfig) -> TheoremReport:
    """The trapezoid case BC parallel to ED: the three Thales-derived
    rectangle identities, one per choice of the non-parallel line playing
    the tronc role.  Each side is an integer pair, a ratio of parallel
    segments or a quotient of chord products."""
    b, c, d, e = q.bornes
    if q._diagonals["N"] != infinity_point_of(q._bornales["BC"]):
        raise GeometryError("BC and ED must be parallel (N at infinity)")
    report = TheoremReport("parallel_bornales", inputs=q.to_json())
    i_pt, k_pt = q.I, q.K
    p_pt, q_pt = q.P, q.Q
    f_pt = q.pivot

    for label, lhs, rhs in (
        ("Thales at Q: IC/KD = IQ/KQ", ratio(i_pt, c, d, k_pt), ratio(i_pt, q_pt, q_pt, k_pt)),
        ("IC.IB/(KD.KE) = IQ.IP/(KQ.KP)",
         _over(chord_product(i_pt, c, b), chord_product(k_pt, d, e)),
         _over(chord_product(i_pt, q_pt, p_pt), chord_product(k_pt, q_pt, p_pt))),
        ("CI.CB/(DK.DE) = CQ.CF/(DQ.DF)",
         _over(chord_product(c, i_pt, b), chord_product(d, k_pt, e)),
         _over(chord_product(c, q_pt, f_pt), chord_product(d, q_pt, f_pt))),
        ("BI.BC/(EK.ED) = BF.BP/(EF.EP)",
         _over(chord_product(b, i_pt, c), chord_product(e, k_pt, d)),
         _over(chord_product(b, f_pt, p_pt), chord_product(e, f_pt, p_pt))),
    ):
        report.claim_pair(label, lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# Beaugrand's derivation


def beaugrand_points(
    conic: Conic, k: PPoint, n: PPoint, o: PPoint, v: PPoint, transversal: PLine
) -> dict:
    """The checked figure of Beaugrand's derivation, or NonGenericError.

    The bornes K, N, O, V must lie on the conic (ConicError otherwise).  The
    transversal must cut the conic in two rational points F, G, and the
    parallel to VN through C = KO^transversal in two rational points Q, R;
    with A = VN^transversal, B = KN^transversal, E = VO^transversal and
    P = KO^VN, all thirteen named points must be finite and pairwise
    distinct.  Returns {conic, transversal, points}, ``points`` the thirteen
    by name, which ``beaugrand_replay`` and the figure take as they are.
    """
    for p in (k, n, o, v):
        if not conic.contains(p):
            raise ConicError("the four bornes must lie on the conic")
    disc, chord = conic_line_intersection(conic, transversal)
    if len(chord) != 2:
        raise NonGenericError(f"transversal chord is not two rational points (disc {disc})")
    f_pt, g_pt = chord

    kn, ko, vn, vo = join(k, n), join(k, o), join(v, n), join(v, o)
    b_pt = meet(transversal, kn)
    e_pt = meet(transversal, vo)
    c_pt = meet(transversal, ko)
    a_pt = meet(transversal, vn)
    p_pt = meet(ko, vn)
    disc, chord = conic_line_intersection(conic, parallel_line_through(vn, c_pt))
    if len(chord) != 2:
        raise NonGenericError(
            f"auxiliary parallel chord is not two rational points (disc {disc})"
        )
    q_pt, r_pt = chord
    named = dict(K=k, N=n, O=o, V=v, F=f_pt, G=g_pt, A=a_pt, B=b_pt, C=c_pt, E=e_pt, P=p_pt,
                 Q=q_pt, R=r_pt)
    pts = named.values()
    if any(p.is_at_infinity() for p in pts):
        raise NonGenericError("a named point fell at infinity")
    if len(set(pts)) != len(named):
        raise NonGenericError("named points are not pairwise distinct")
    return {"conic": conic, "transversal": transversal, "points": named}


def beaugrand_replay(figure: dict) -> ProofTrace:
    """Beaugrand's proof of the involution theorem on a conic: two
    applications of Apollonius III.17, two of Menelaus, the final identity
    and the two remaining analogies he proved separately.

    Takes the figure ``beaugrand_points`` returned, with its named points.
    """
    named = figure["points"]
    trace = ProofTrace("beaugrand")
    trace.notes["points"] = {nm: named[nm].to_json() for nm in "FGABCEP"}

    # the 17 chord products, each built once: "PNV" is P->N . P->V
    product = {
        key: chord_product(*(named[x] for x in key))
        for key in ("PNV", "CQR", "PKO", "CKO", "ANV", "AFG", "CFG", "ABE", "CBE",
                    "BFG", "EFG", "BAC", "EAC", "FAC", "GAC", "FBE", "GBE")
    }

    def over(num: str, den: str) -> tuple[int, int]:
        return _over(product[num], product[den])

    trace.add("NP.PV/(QC.CR) = KP.PO/(KC.CO)", over("PNV", "CQR"), over("PKO", "CKO"),
              "Advis p.5 l.25", kind="apollonius")
    composed = _times(over("ANV", "PNV"), over("PKO", "CKO"))
    trace.add("AN.AV/(QC.CR) = (AN.AV/(PN.PV))(PK.PO/(CK.CO))", over("ANV", "CQR"), composed,
              "Advis p.5 l.26", kind="composition")
    trace.add("AN.AV/(AF.AG) = CQ.CR/(CF.CG)", over("ANV", "AFG"), over("CQR", "CFG"),
              "Advis p.5 l.28", kind="apollonius")
    sector = tuple((nm, named[nm]) for nm in "PAC")
    menelaus_step(trace, *((nm, named[nm]) for nm in "BKN"), *sector, "Advis p.5 l.33")
    menelaus_step(trace, *((nm, named[nm]) for nm in "EOV"), *sector, "Advis p.5 l.34")
    trace.add("(AN.AV/(PN.PV))(PK.PO/(CK.CO)) = BA.AE/(BC.CE)", composed, over("ABE", "CBE"),
              "Advis p.5 l.35", kind="composition")
    trace.add("FA.AG/(FC.CG) = BA.AE/(BC.CE)", over("AFG", "CFG"), over("ABE", "CBE"),
              "Advis p.5 l.38", kind="final")
    trace.add("BF.BG/(EF.EG) = BA.BC/(EA.EC)", over("BFG", "EFG"), over("BAC", "EAC"),
              "Advis p.5 l.40", kind="analogy")
    trace.add("FA.FC/(GA.GC) = FB.FE/(GB.GE)", over("FAC", "GAC"), over("FBE", "GBE"),
              "Advis p.6 l.20", kind="analogy")
    trace.notes["couples"] = "A,C; B,E; F,G"
    return trace


# ---------------------------------------------------------------------------
# Pascal's hexagram lemma


def pascal_figure(conic: Conic, hexagon) -> dict:
    """The checked figure of Pascal's Lemme I on the hexagon P, K, V, O, N, Q
    in the coupling (P,O; V,K; N,Q), or an error.

    The six vertices must be distinct (GeometryError) and on a
    nondegenerate conic (ConicError), and M = PK^VO, S = NK^VQ and
    X = NO^PQ distinct (NonGenericError).  On a circle the replay also needs
    alpha = NO^PK, beta = NO^QV and A = PK^QV, and these three with M and S
    finite and distinct (NonGenericError).  Returns {conic, hexagon,
    points}, ``points`` the named intersections, which ``pascal_collinear``
    and the figure take as they are.
    """
    p, k, v, o, n, q_pt = hexagon
    if len(set(hexagon)) != 6:
        raise GeometryError("hexagon needs six distinct points")
    for pt in hexagon:
        if not conic.contains(pt):
            raise ConicError("hexagon vertex not on the conic")
    if conic.is_degenerate():
        raise ConicError("hexagram needs a nondegenerate conic")

    pk_line, qv_line, no_line = join(p, k), join(v, q_pt), join(n, o)
    named = {
        "M": meet(pk_line, join(v, o)),
        "S": meet(join(n, k), qv_line),
        "X": meet(no_line, join(p, q_pt)),
    }
    if len(set(named.values())) < 3:
        raise NonGenericError("degenerate hexagon: two intersection points merge")
    if conic.is_circle():
        named.update(alpha=meet(no_line, pk_line), beta=meet(no_line, qv_line),
                     A=meet(pk_line, qv_line))
        replayed = [named[nm] for nm in ("alpha", "beta", "A", "M", "S")]
        if any(pt.is_at_infinity() for pt in replayed):
            raise NonGenericError("auxiliary point at infinity")
        if len(set(replayed)) != 5:
            raise NonGenericError("auxiliary points merge")
    return {"conic": conic, "hexagon": tuple(hexagon), "points": named}


def pascal_collinear(figure: dict) -> TheoremReport:
    """Pascal's Lemme I in the coupling (P,O; V,K; N,Q): the intersections
    M = PK^VO, S = NK^VQ, X = NO^PQ are exactly collinear.

    Takes the figure ``pascal_figure`` returned.  For a circle the
    historical proof is replayed: two Menelaus decompositions, three
    power-of-a-point identities, the substitution steps, and the
    cross-ratio equality that triggers Pappus collinearity.
    """
    conic, pts = figure["conic"], figure["points"]
    m_pt, s_pt, x_pt = pts["M"], pts["S"], pts["X"]
    report = TheoremReport(
        "pascal",
        inputs={"hexagon": [pt.to_json() for pt in figure["hexagon"]], "conic": conic.to_json()},
    )
    report.claim_true("M, S, X collinear", collinear(m_pt, s_pt, x_pt))
    report.notes["pascal_line"] = join(m_pt, s_pt).to_json()
    report.notes["M"] = m_pt.to_json()
    report.notes["S"] = s_pt.to_json()
    report.notes["X"] = x_pt.to_json()

    if conic.is_circle():
        _pascal_circle_replay(report, figure)
    return report


def _pascal_circle_replay(report, figure):
    p, k, v, o, n, q_pt = figure["hexagon"]
    pts = figure["points"]
    alpha, beta, a_pt, m_pt, s_pt = (pts[nm] for nm in ("alpha", "beta", "A", "M", "S"))
    trace = ProofTrace("pascal_circle")

    ma_over_malpha, va_over_vbeta, _ = menelaus_step(
        trace, ("M", m_pt), ("O", o), ("V", v), ("beta", beta), ("A", a_pt), ("alpha", alpha),
        "sector A,M,alpha,beta,O,V",
    )
    sa_over_sbeta, ka_over_kalpha, _ = menelaus_step(
        trace, ("S", s_pt), ("N", n), ("K", k), ("alpha", alpha), ("A", a_pt), ("beta", beta),
        "sector A,K,alpha,beta,N,S",
    )
    # the six chord products, each built once
    alpha_no, beta_no = chord_product(alpha, n, o), chord_product(beta, n, o)
    a_pk, a_qv = chord_product(a_pt, p, k), chord_product(a_pt, q_pt, v)
    trace.add("Kalpha.Palpha = Nalpha.Oalpha", chord_product(alpha, k, p), alpha_no,
              "Euclid III.35/36", kind="power")
    trace.add("Nbeta.Obeta = Vbeta.Qbeta", beta_no, chord_product(beta, v, q_pt),
              "Euclid III.35/36", kind="power")
    trace.add("PA.KA = QA.VA", a_pk, a_qv, "Euclid III.35/36", kind="power")
    palpha_over_pa = ratio(p, alpha, a_pt)
    qbeta_over_qa = ratio(q_pt, beta, a_pt)
    trace.add("Palpha/PA = (Nalpha/QA)(Oalpha/VA)(KA/Kalpha)", palpha_over_pa,
              _times(_over(alpha_no, a_qv), ka_over_kalpha), "substitution", kind="substitution")
    trace.add("Qbeta/QA = (Nbeta/PA)(Obeta/KA)(VA/Vbeta)", qbeta_over_qa,
              _times(_over(beta_no, a_pk), va_over_vbeta), "substitution", kind="substitution")
    # [A,alpha;M,P] = (MA/Malpha)/(PA/Palpha), the brin of the first sector
    # times the first substitution's left side; likewise at beta
    trace.add("[A,alpha,M,P] = [A,beta,S,Q]", _times(ma_over_malpha, palpha_over_pa),
              _times(sa_over_sbeta, qbeta_over_qa), "Pappus, Collection 142", kind="cross_ratio")
    report.trace = trace


# ---------------------------------------------------------------------------
# the 3d retablissement


def check_retablissement(apex: P3Point, base: P3Plane, cut: P3Plane, params) -> dict:
    """The checked figure of the rétablissement, or GeometryError.

    Builds the perspectivity matrix back to the base plane, the six points
    of ``params``, slope pairs in lowest terms, on the base conic (the unit
    circle in the base plane's chart) and their images in the cutting
    plane, and the quadrangle with transversal in each plane, which must
    be generic (NonGenericError otherwise).  Returns the inputs with
    {to_base, base_pts, cut_pts, base_q, cut_q}, which
    ``retablissement_demo`` and the figure take as they are.
    """
    if len(set(params)) != 6:
        raise GeometryError("six distinct parameters required")

    to_cut = plane_perspectivity(apex, base, cut)
    to_base = plane_perspectivity(apex, cut, base)
    par = ConicParametrization(Conic.unit_circle(), PPoint(-1, 0, 1))
    base_pts = [par.point_at(t) for t in params]
    cut_pts = [apply_mat3(to_cut, p) for p in base_pts]
    base_q, cut_q = (
        QuadrangleConfig(tuple(pts[:4]), default_chart(join(*pts[4:])))
        for pts in (base_pts, cut_pts)
    )
    return {"apex": apex, "base": base, "cut": cut, "params": params, "to_base": to_base,
            "base_pts": base_pts, "cut_pts": cut_pts, "base_q": base_q, "cut_q": cut_q}


def retablissement_demo(figure: dict) -> TheoremReport:
    """Transport a quadrangle-with-transversal configuration between the
    cutting plane of a cone and its base plane, through the apex.

    Takes the figure ``check_retablissement`` returned: its ``params`` are
    six distinct rational slopes as integer pairs, four bornes and the two
    transversal chord points, all on the base conic (the unit circle in the
    base plane's chart).  Claims: the cut-plane bornes project onto the base
    conic, bornale intersections project to bornale intersections, and the
    involution on the base transversal pulls back exactly to an involution
    on the cut transversal.
    """
    to_base, base_pts, cut_pts = figure["to_base"], figure["base_pts"], figure["cut_pts"]
    base_q, cut_q = figure["base_q"], figure["cut_q"]
    circle = Conic.unit_circle()

    report = TheoremReport(
        "retablissement",
        inputs={
            "apex": [str(c) for c in figure["apex"].coords],
            "base": [str(c) for c in figure["base"].coeffs],
            "cut": [str(c) for c in figure["cut"].coeffs],
            "params": [pair_str(*t) for t in figure["params"]],
        },
    )

    # round trip: cut-plane bornes project back onto the base conic
    for i, p in enumerate(cut_pts):
        back = apply_mat3(to_base, p)
        report.claim(f"borne {i + 1} projects onto the base conic", circle.evaluate(back), 0)

    l2, m2 = base_pts[4:]
    ll, mm = cut_pts[4:]
    base_diag, cut_diag = base_q.diagonal_points(), cut_q.diagonal_points()
    for name, diag in (("BC^ED", "N"), ("BE^DC", "F"), ("BD^CE", "R")):
        report.claim(
            f"bornale intersection {name} transports exactly",
            apply_mat3(to_base, cut_diag[diag]),
            base_diag[diag],
        )

    base_eq = equivalence_check(base_q.node_couples())
    report.claim_true("base couples in involution", base_eq["equivalent"])
    base_inv = base_eq["involution"]
    report.claim("base chord couple swapped", partner(base_inv, l2), m2)

    cut_eq = equivalence_check(cut_q.node_couples())
    report.claim_true("cut couples in involution (pullback)", cut_eq["equivalent"])
    cut_inv = cut_eq["involution"]
    report.claim("cut chord couple swapped", partner(cut_inv, ll), mm)

    report.claim(
        "classification transported",
        classify_kind(base_inv),
        classify_kind(cut_inv),
    )
    return report

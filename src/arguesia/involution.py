"""Desargues' involution on a line, in both historical and modern form.

Historical form: three couples of points (B,H), (C,G), (D,F) on a tronc
satisfy the three rectangle-product identities

    GF.GD/(CF.CD) = GB.GH/(CB.CH)
    FC.FG/(DC.DG) = FB.FH/(DB.DH)
    HC.HG/(BC.BG) = HD.HF/(BD.BF)

evaluated here with signed chart differences (each side is sign-invariant),
on the integer parameter pairs (u : v) of the noeuds: each side is a
quotient of integer brackets u*v' - u'*v, an integer pair that a verifier
records as a claim (``exact_scalar.pair_record``); this module prints
nothing.
Modern form: the couples are swapped by an involutive homography of the
line, which a trace-zero 2x2 matrix realizes; ``equivalence_check`` decides
this form.  Each form is its own check, and a verifier records each as its
own claim, so a faulty route shows as a false claim.  The fixed points of
a hyperbolic involution (``classify``) are integer forms as well: a
canonical parameter pair, (1, 0) for infinity, or an
``exact_scalar.QuadExt``.
"""

from __future__ import annotations

from arguesia._frozen import Frozen
from arguesia._kernel import cross3
from arguesia.exact_scalar import QuadExt, quad_sqrt
from arguesia.projective_core import (
    AffineChart,
    GeometryError,
    LineMap,
    PPoint,
    _canonical_pair,
    incident,
)


class InvolutionError(GeometryError):
    """Data does not determine (or violates) an involution."""


class NodeCouples(Frozen):
    """Three couples of noeuds on one charted tronc.

    A couple may be doubled (both members equal: a noeud moyen double), but
    the three couples must be pairwise distinct as unordered pairs and no
    point of one couple may equal a point of a different couple.
    ``param_pairs`` holds the canonical parameter pairs (u : v) of the six
    points, couple by couple, computed once, when the couples are checked;
    equal points have equal pairs.  Reading them is the check that every
    noeud lies on the tronc: ``param_pair`` raises ``GeometryError`` for a
    point off its line.
    """

    _fields = ("chart", "pairs")

    def __init__(self, chart: AffineChart, pairs: tuple[tuple[PPoint, PPoint], ...]):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "pairs", pairs)
        if len(pairs) != 3:
            raise InvolutionError("exactly three couples are required")
        params = tuple((chart.param_pair(p), chart.param_pair(q)) for p, q in pairs)
        object.__setattr__(self, "param_pairs", params)
        unordered = [frozenset(couple) for couple in params]
        if len(set(unordered)) != 3:
            raise InvolutionError("couples must be pairwise distinct")
        if len(frozenset().union(*unordered)) != sum(map(len, unordered)):
            raise InvolutionError("a point of one couple equals a point of another")


class Involution(Frozen):
    """An involutive homography of a line (trace zero, non-identity)."""

    _fields = ("map",)

    def __init__(self, map: LineMap):
        object.__setattr__(self, "map", map)
        if map.src != map.dst:
            raise InvolutionError("an involution maps a line to itself")
        if map.trace() != 0:
            raise InvolutionError("matrix is not involutive (nonzero trace)")

    @property
    def chart(self) -> AffineChart:
        return self.map.src


def partner(inv: Involution, p: PPoint) -> PPoint:
    """The couple partner of p; exact involution (partner(partner(p)) = p)."""
    if not incident(p, inv.chart.line):
        raise InvolutionError("point off the involution's line")
    return inv.map.apply_point(p)


# ---------------------------------------------------------------------------
# the rectangle identities


_IDENTITY_SCHEMES = (
    # (label, eval couple index, lhs couple index, rhs couple index)
    # identity 1: at G and C, products over (D,F) vs (B,H)
    ("GF.GD/(CF.CD) = GB.GH/(CB.CH)", 1, 2, 0),
    # identity 2: at F and D, products over (C,G) vs (B,H)
    ("FC.FG/(DC.DG) = FB.FH/(DB.DH)", 2, 1, 0),
    # identity 3: at H and B, products over (C,G) vs (D,F)
    ("HC.HG/(BC.BG) = HD.HF/(BD.BF)", 0, 1, 2),
)


def _rect_pair(e1, e2, w1, w2) -> tuple[int, int]:
    """(w1-e1)(w2-e1) / ((w1-e2)(w2-e2)) as an integer (numerator,
    denominator) pair, from the parameter pairs (u : v) of finite noeuds.

    With [w, e] = u_w*v_e - u_e*v_w, a difference is w - e = [w, e]/(v_w*v_e),
    so the side is [w1,e1][w2,e1]*v_e2**2 / ([w1,e2][w2,e2]*v_e1**2).
    """
    (ue1, ve1), (ue2, ve2) = e1, e2
    (uw1, vw1), (uw2, vw2) = w1, w2
    den = (uw1 * ve2 - ue2 * vw1) * (uw2 * ve2 - ue2 * vw2) * ve1 * ve1
    if den == 0:
        raise InvolutionError("zero denominator in rectangle identity")
    num = (uw1 * ve1 - ue1 * vw1) * (uw2 * ve1 - ue1 * vw2) * ve2 * ve2
    return num, den


def rectangle_identity_check(nc: NodeCouples) -> list[tuple]:
    """The three rectangle-product identities, exactly.

    Returns each identity as (label, lhs, rhs), each side an integer
    quotient of parameter-pair brackets, an unreduced (num, den) pair with
    den nonzero; the identity holds when the sides cross-multiply equal.
    Requires finite noeuds (a couple with a point at infinity is checked
    through the homography form instead).
    """
    pairs = nc.param_pairs
    for p, q in pairs:
        if p[1] == 0 or q[1] == 0:
            raise InvolutionError(
                "rectangle identities need finite noeuds; use the homography form"
            )
    identities = []
    for label, ev, lhs_c, rhs_c in _IDENTITY_SCHEMES:
        e2, e1 = pairs[ev]  # evaluate at the second member first (G before C)
        identities.append(
            (label, _rect_pair(e1, e2, *pairs[lhs_c]), _rect_pair(e1, e2, *pairs[rhs_c]))
        )
    return identities


def classify_kind(inv: Involution) -> str:
    """Hyperbolic or elliptic by the discriminant sign alone.

    With a trace-zero matrix ((a,b),(c,-a)) the discriminant a^2 + bc is
    -det, never 0 for an ``Involution``.  Avoids the square-root
    extraction, so it stays cheap for involutions whose matrices carry
    large composed coefficients.
    """
    a, b, c, d = inv.map.matrix
    return "hyperbolic" if a * a + b * c > 0 else "elliptic"


def classify(inv: Involution) -> dict:
    """Hyperbolic (two exact fixed points) or elliptic (none).

    For the matrix ((a, b), (c, -a)) the fixed points solve
    c*t^2 - 2*a*t - b = 0, whose discriminant's sign ``classify_kind``
    reads: t = (a +- sqrt(a^2 + bc))/c, or -b/(2a) and infinity when c = 0.
    A rational fixed point is a canonical parameter pair, (1, 0) for
    infinity, and an irrational one a ``QuadExt`` (a +- s*sqrt(d))/c.
    """
    kind = classify_kind(inv)
    if kind == "elliptic":
        return {"kind": kind, "fixed_points": ()}
    a, b, c, _ = inv.map.matrix
    s, d = quad_sqrt(a * a + b * c)
    if c == 0:
        fixed = (_canonical_pair(-b, 2 * a), (1, 0))
    elif d > 1:
        fixed = (QuadExt(a, s, c, d), QuadExt(a, -s, c, d))
    else:
        fixed = (_canonical_pair(a + s, c), _canonical_pair(a - s, c))
    return {"kind": kind, "fixed_points": fixed}


def equivalence_check(nc: NodeCouples) -> dict:
    """Desargues' equivalence in homography form: the couples are in
    involution when the involution of two of them swaps the third.
    Returns {"equivalent", "involution"}.

    The two are taken non-doubled first, so at most one is doubled, and
    ``NodeCouples`` keeps them on the line, distinct and without a shared
    point.  A couple (u1 : v1), (u2 : v2) puts the trace-zero matrix
    ((a, b), (c, -a)) on the plane (u1*v2 + v1*u2)*a + v1*v2*b - u1*u2*c = 0;
    the two planes meet in one line, whose direction is the cross product
    of their rows.  That direction is an involution: a*a + b*c = 0 would
    make the matrix relate t and u only when t or u is its one root r, so
    both couples would contain r, or be one pair twice, and
    ``NodeCouples`` forbids both.
    """
    params = nc.param_pairs
    doubled = sum(1 for p, q in params if p == q)
    if doubled >= 3:
        raise InvolutionError("three doubled couples cannot be in involution")
    c1, c2, (d, f) = sorted(params, key=lambda couple: couple[0] == couple[1])
    rows = [(u1 * v2 + v1 * u2, v1 * v2, -u1 * u2) for (u1, v1), (u2, v2) in (c1, c2)]
    a, b, c = cross3(*rows)
    inv = Involution(LineMap((a, b, c, -a), nc.chart, nc.chart))
    # canonical pairs: equal exactly when the points are
    return {"equivalent": inv.map.apply_pair(d) == f, "involution": inv}


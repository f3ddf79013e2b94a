"""Seeded instance generation for every verification suite.

``generate_instance`` maps an InstanceConfig (kind, seed, bounds) to a
concrete configuration that satisfies the target operation's
preconditions, by rejection-resampling from the kind's deterministic
SplitMix64 stream.  Every drawn rational is an integer pair (num, den) of
``SplitMix64.fraction_pair``, and a line or slope parameter is a canonical
projective pair, with (u, 0) for the point at infinity, so generation
builds no ``Fraction``.  A maker states each precondition as a
``NonGenericError``, and only that class is resampled; any other error
from a maker is a fault and propagates.  Every kind with a precondition
(menelaus ``sector_figure``, ramee ``check_ramee_replayable``, quadrangle,
pencil and parallel_bornales ``quadrangle_figure``, beaugrand
``beaugrand_points``, pascal ``pascal_figure``, retablissement
``check_retablissement``) runs it once: the maker keeps the checked figure,
a plain dict, as ``inst["figure"]``, and the verifier, the replay and the
SVG figure take it as it is.  What a check builds is in its figure and is
built nowhere else: the ramee figure's image couples, the beaugrand and
pascal figures' chords.  The same config always regenerates the
identical instance.  At bounds 8 and above no correct genericity test
rejects every draw, so an exhausted retry budget is an ``InternalError``
that reports the last failing precondition; ``InstanceConfig`` refuses
bounds below 8, so before any draw.
"""

from __future__ import annotations

from arguesia._frozen import Frozen
from arguesia.conics import (
    UNIT_CIRCLE,
    UNIT_CIRCLE_PAR,
    Conic,
    ConicParametrization,
    pencil_member,
)
from arguesia.exact_scalar import InternalError, pair_str
from arguesia.involution import Involution, NodeCouples
from arguesia.menelaus_engine import NonGenericError, check_ramee_replayable, sector_figure
from arguesia.projective_core import (
    AffineChart,
    LineMap,
    P3Plane,
    P3Point,
    PLine,
    PPoint,
    _canonical_pair,
    _scaled_displacement,
    default_chart,
    incident,
    join,
    meet,
    parallel_line_through,
)
from arguesia.rng import SplitMix64
from arguesia.theorems import (
    beaugrand_points,
    check_retablissement,
    harmonic_conjugate,
    pascal_figure,
    quadrangle_figure,
)

MAX_RETRIES = 400


class InstanceError(ValueError):
    """A configuration refused before any draw: a bad kind, seed, bounds
    or trial count."""


class InstanceConfig(Frozen):
    _fields = ("kind", "seed", "bounds")

    def __init__(self, kind: str, seed: int, bounds: int = 32):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "bounds", bounds)
        if kind not in KINDS:
            raise InstanceError(f"unknown instance kind {kind!r}")
        if not 0 <= seed < (1 << 64):
            raise InstanceError(f"seed must fit in 64 bits, got {seed}")
        if bounds < 8:
            raise InstanceError(
                f"--bounds must be at least 8, got {bounds} "
                "(coordinate bounds below 8 cannot clear the genericity checks)"
            )

    def to_json(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "bounds": self.bounds}


def generate_instance(cfg: InstanceConfig) -> dict:
    """Deterministic, generic instance for the named theorem suite."""
    rng = SplitMix64.for_kind(cfg.kind, cfg.seed)
    maker = _MAKERS[cfg.kind]
    last_error = "no attempt made"
    for _ in range(MAX_RETRIES):
        try:
            inst = maker(rng, cfg.bounds)
        except NonGenericError as exc:
            last_error = str(exc)
            continue
        inst["config"] = cfg.to_json()
        return inst
    raise InternalError(
        f"retry budget exhausted for kind {cfg.kind!r}: last failure: {last_error}"
    )


# ---------------------------------------------------------------------------
# draw helpers


def _point(rng: SplitMix64, bounds: int) -> PPoint:
    """The point (x, y) of two ``rng.fraction_pair`` draws, built from
    their integer numerators and denominators."""
    xn, xd = rng.fraction_pair(bounds)
    yn, yd = rng.fraction_pair(bounds)
    return PPoint(xn * yd, yn * xd, xd * yd)


def _distinct_points(rng: SplitMix64, bounds: int, n: int) -> list[PPoint]:
    pts: list[PPoint] = []
    while len(pts) < n:
        p = _point(rng, bounds)
        if p not in pts:
            pts.append(p)
    return pts


def _line(rng: SplitMix64, bounds: int) -> PLine:
    p, q = _distinct_points(rng, bounds, 2)
    return join(p, q)


def _chart(rng: SplitMix64, bounds: int) -> AffineChart:
    return default_chart(_line(rng, bounds))


def _distinct_params(rng: SplitMix64, bounds: int, n: int) -> list[tuple[int, int]]:
    """n distinct drawn rationals as canonical pairs, so equal values are
    equal pairs."""
    vals: list[tuple[int, int]] = []
    while len(vals) < n:
        t = _canonical_pair(*rng.fraction_pair(bounds))
        if t not in vals:
            vals.append(t)
    return vals


def _shifted(p: PPoint, a: PPoint, b: PPoint, t: tuple[int, int]) -> PPoint:
    """The point p + t*(b - a) for finite p, a, b and the rational t = tn/td,
    in homogeneous integers: b - a is ``_scaled_displacement(a, b)`` over
    a.z * b.z."""
    tn, td = t
    vx, vy = _scaled_displacement(a, b)
    px, py, pz = p.coords
    scale = td * a.coords[2] * b.coords[2]
    return PPoint(px * scale + tn * pz * vx, py * scale + tn * pz * vy, pz * scale)


# ---------------------------------------------------------------------------
# kind makers


def _make_menelaus(rng: SplitMix64, bounds: int) -> dict:
    p, q, r = _distinct_points(rng, bounds, 3)
    transversal = _line(rng, bounds)
    figure = sector_figure(p, q, r, transversal)
    for node in figure["nodes"]:
        if node.is_at_infinity():
            raise NonGenericError("noeud at infinity")
    return {"figure": figure}


def _make_ramee(rng: SplitMix64, bounds: int) -> dict:
    """A generic ramee couple: everything is drawn first, then
    ``check_ramee_replayable``, the precondition of ``replay_ramee_proof``,
    decides genericity, and the instance is the checked figure it returns.
    Only the involution and its couples are checked here."""
    chart = _chart(rng, bounds)
    a = rng.int_between(-bounds, bounds)
    b = rng.int_between(-bounds, bounds)
    c = rng.int_between(-bounds, bounds)
    if c == 0 or a * a + b * c == 0:
        raise NonGenericError("degenerate involution matrix")
    inv = Involution(LineMap((a, b, c, -a), chart, chart))
    params = _distinct_params(rng, bounds, 3)
    pairs = []
    for t in params:
        u = inv.map.apply_pair(t)
        if u[1] == 0 or u == t:
            raise NonGenericError("couple hit infinity or a fixed point")
        if u in params:
            raise NonGenericError("two drawn parameters make one couple")
        pairs.append((chart.point_at_pair(t), chart.point_at_pair(u)))
    arbre = NodeCouples(chart, tuple(pairs))
    k = _point(rng, bounds)
    delta = _chart(rng, bounds)
    return {"figure": check_ramee_replayable(arbre, k, delta)}


def _make_quadrangle(rng: SplitMix64, bounds: int) -> dict:
    bornes = tuple(_distinct_points(rng, bounds, 4))
    transversal = default_chart(_line(rng, bounds))
    q = quadrangle_figure(bornes, transversal)
    if q["diagonals"]["F"].is_at_infinity():
        raise NonGenericError("pivot F at infinity")
    if q["diagonals"]["R"].is_at_infinity():
        raise NonGenericError("diagonal point R at infinity")
    return {"figure": q}


def _make_parallel_bornales(rng: SplitMix64, bounds: int) -> dict:
    b, c, d = _distinct_points(rng, bounds, 3)
    bc = join(b, c)
    if incident(d, bc):
        raise NonGenericError("D on line BC")
    lam = rng.fraction_pair(bounds)
    while lam[0] == 0:
        lam = rng.fraction_pair(bounds)
    e = _shifted(d, b, c, lam)
    transversal = default_chart(_line(rng, bounds))
    q = quadrangle_figure((b, c, d, e), transversal, strict=False)
    if q["diagonals"]["F"].is_at_infinity():
        raise NonGenericError("pivot at infinity")
    for nm in "IKPQ":
        if q[nm].is_at_infinity():
            raise NonGenericError("couple point at infinity")
    return {"figure": q}


def _make_pencil(rng: SplitMix64, bounds: int) -> dict:
    par = UNIT_CIRCLE_PAR
    t0, t1, t2, t3, t4 = _distinct_params(rng, bounds, 5)
    tangency = par.point_at(t0)
    delta_line = UNIT_CIRCLE.polar_line(tangency)
    bornes = tuple(par.point_at(t) for t in (t1, t2, t3, t4))
    chart = default_chart(delta_line)
    q = quadrangle_figure(bornes, chart, strict=False)
    ln = q["bornales"]
    gen1 = Conic.from_lines(ln["BC"], ln["ED"])
    gen2 = Conic.from_lines(ln["BE"], ln["DC"])
    members = [("line pair IK", gen1), ("line pair PQ", gen2)]
    w_params = _distinct_params(rng, bounds, 2)
    for wt in w_params:
        w = chart.point_at_pair(wt)
        # the tangency point and the bornes lie on the circle too
        if UNIT_CIRCLE.contains(w):
            raise NonGenericError("bad through-point for a generic member")
        member = pencil_member(gen1, gen2, w)
        if member.is_degenerate():
            raise NonGenericError("generic member degenerated")
        members.append((f"member through t={pair_str(*wt).removesuffix('/1')}", member))
    members.append(("tangent member", UNIT_CIRCLE))
    return {"figure": q, "members": members, "tangency": tangency}


def _make_pascal(rng: SplitMix64, bounds: int) -> dict:
    params = _distinct_params(rng, bounds, 6)
    pts = tuple(UNIT_CIRCLE_PAR.point_at(t) for t in params)
    return {"figure": pascal_figure(UNIT_CIRCLE, pts)}


def _make_beaugrand(rng: SplitMix64, bounds: int) -> dict:
    par = UNIT_CIRCLE_PAR
    tk, tn, to_, tv, tq, tf = _distinct_params(rng, bounds, 6)
    k, n, o, v = (par.point_at(t) for t in (tk, tn, to_, tv))
    q0 = par.point_at(tq)
    f_pt = par.point_at(tf)
    nv, ko = join(n, v), join(k, o)
    mu = parallel_line_through(nv, q0)
    c_pt = meet(mu, ko)
    if c_pt.is_at_infinity() or c_pt == f_pt:
        raise NonGenericError("auxiliary point C degenerate")
    # the check's auxiliary chord, the parallel to NV through C, is mu,
    # rational through q0
    return {"figure": beaugrand_points(UNIT_CIRCLE, k, n, o, v, join(c_pt, f_pt))}


def _harmonic_draw(rng: SplitMix64, bounds: int):
    """A chart, B, C, D at three distinct drawn parameters, and F, their
    harmonic conjugate: the draw the harmonic and bisector instances share.
    A finite parameter gives a finite point, and rejecting D at the
    midpoint of BC keeps F finite."""
    chart = _chart(rng, bounds)
    params = _distinct_params(rng, bounds, 3)
    (nb, db), (nc, dc), (nd, dd) = params
    if 2 * nd * db * dc == dd * (nb * dc + nc * db):
        raise NonGenericError("D at the midpoint: F would be infinite")
    b, c, d = (chart.point_at_pair(t) for t in params)
    return chart, b, c, d, harmonic_conjugate(b, c, d)


def _make_harmonic(rng: SplitMix64, bounds: int) -> dict:
    chart, b, c, d, f = _harmonic_draw(rng, bounds)
    k = _point(rng, bounds)
    if incident(k, chart.line):
        raise NonGenericError("K on the carrier line")
    return {"b": b, "c": c, "d": d, "f": f, "k": k}


def _make_bisector(rng: SplitMix64, bounds: int) -> dict:
    chart, b, c, d, f = _harmonic_draw(rng, bounds)
    # the circle on the diameter BC: (X - B).(X - C) = 0, times 2*bz*cz
    (bx, by, bz), (cx, cy, cz) = b.coords, c.coords
    diag = 2 * bz * cz
    thales = Conic(
        diag, 0, -(bz * cx + bx * cz), diag, -(bz * cy + by * cz), 2 * (bx * cx + by * cy)
    )
    par = ConicParametrization(thales, b)
    k = par.point_at(rng.fraction_pair(bounds))
    # K = B or C lies on the line too, and the circle has no real point at
    # infinity
    if incident(k, chart.line):
        raise NonGenericError("K degenerate on the Thales circle")
    return {"b": b, "c": c, "d": d, "f": f, "k": k}


def _make_retablissement(rng: SplitMix64, bounds: int) -> dict:
    (xn, xd), (yn, yd) = rng.fraction_pair(bounds), rng.fraction_pair(bounds)
    den = xd * yd
    apex = P3Point(xn * yd, yn * xd, rng.int_between(1, bounds) * den, den)
    base = P3Plane(0, 0, 1, 0)
    cut = P3Plane(
        rng.int_between(-4, 4),
        rng.int_between(-4, 4),
        rng.int_between(1, 4),
        rng.int_between(-bounds, bounds),
    )
    if base.contains(apex) or cut.contains(apex):
        raise NonGenericError("apex on a plane")
    if cut.coeffs == base.coeffs:
        raise NonGenericError("cut equals base")
    params = tuple(_distinct_params(rng, bounds, 6))
    return {"figure": check_retablissement(apex, base, cut, params)}


def _make_p13(rng: SplitMix64, bounds: int) -> dict:
    b, k = _distinct_points(rng, bounds, 2)
    t = rng.fraction_pair(bounds)
    if t[0] == 0 or t[0] == t[1]:
        raise NonGenericError("h coincides with B or K")
    h = _shifted(b, b, k, t)
    g = _point(rng, bounds)
    if incident(g, join(b, k)):
        raise NonGenericError("G on line BK")
    return {"b": b, "h": h, "g": g, "k": k}


_MAKERS = {
    "menelaus": _make_menelaus,
    "ramee": _make_ramee,
    "quadrangle": _make_quadrangle,
    "pencil": _make_pencil,
    "pascal": _make_pascal,
    "beaugrand": _make_beaugrand,
    "harmonic": _make_harmonic,
    "bisector": _make_bisector,
    "parallel_bornales": _make_parallel_bornales,
    "retablissement": _make_retablissement,
    "p13": _make_p13,
}
KINDS = tuple(_MAKERS)

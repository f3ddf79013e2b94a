"""Deterministic SVG rendering of theorem configurations.

The viewport maps the rational bounding box of the finite labeled points,
plus a 10 percent margin, onto a fixed canvas.  Full lines are clipped to
the viewport, conics are sampled adaptively through their slope
parametrization, and points at infinity are drawn as boundary arrows.
Identical input produces byte-identical output: floats are formatted with
fixed precision and there is no randomness or timestamping.
"""

from __future__ import annotations

import math

from arguesia.conics import UNIT_CIRCLE, UNIT_CIRCLE_PAR, Conic
from arguesia.projective_core import PLine, PPoint, join, parallel_line_through
from arguesia.theorems import construct_involution_p13, harmonic_construction_data

CANVAS_W = 800.0
CANVAS_H = 600.0

_STYLE = {
    "carrier": 'stroke="#333333" stroke-width="1.8"',
    "construction": 'stroke="#1f77b4" stroke-width="1.1" stroke-dasharray="6,3"',
    "chord": 'stroke="#777777" stroke-width="1.0"',
    "pascal": 'stroke="#d62728" stroke-width="2.0"',
    "conic": 'stroke="#2ca02c" stroke-width="1.6" fill="none"',
}


class FigureError(ValueError):
    """Raised when a configuration cannot be drawn."""


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _floats(coords) -> tuple[float, ...]:
    """The floats of a homogeneous tuple's entries.  When one is beyond
    float range, the tuple is first divided by the power of two at its
    largest entry, which changes no scale-free quantity; tuples in range
    are left as they are, because the conic sampler's threshold is not
    scale-free."""
    try:
        return tuple(float(c) for c in coords)
    except OverflowError:
        scale = 1 << (max(abs(c) for c in coords).bit_length() - 1)
        return tuple(c / scale for c in coords)


class SvgDoc:
    """Collects labeled points, lines and conic paths, then renders."""

    def __init__(self):
        self.labeled_points: list = []
        self.exact_points: set = set()  # canonical coords of the finite labeled points
        self.lines: list = []
        self.conics: list = []
        self.infinities: list = []

    def add_point(self, p: PPoint, label: str):
        x, y, z = p.coords
        if z == 0:
            self.infinities.append(_floats((x, y)) + (label,))
            return
        # int true division is correctly rounded: the float nearest the quotient
        try:
            self.labeled_points.append((x / z, y / z, label))
        except OverflowError:
            raise FigureError(f"point {label} lies beyond float range") from None
        self.exact_points.add(p.coords)

    def add_line(self, l: PLine, cls: str = "carrier"):
        self.lines.append((_floats(l.coeffs), cls))

    def add_conic(self, conic: Conic, seed: PPoint, cls: str = "conic"):
        self.conics.append((conic.m, seed.coords, cls))

    # -- rendering ---------------------------------------------------------

    def _mapper(self):
        """The labeled points' box with a 10% margin, and its canvas map."""
        if not self.labeled_points:
            raise FigureError("unbounded configuration: no finite labeled points")
        xs = [p[0] for p in self.labeled_points]
        ys = [p[1] for p in self.labeled_points]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        w = x1 - x0 or 1.0
        h = y1 - y0 or 1.0
        x0, x1, y0, y1 = x0 - 0.1 * w, x1 + 0.1 * w, y0 - 0.1 * h, y1 + 0.1 * h
        sx = CANVAS_W / (x1 - x0)
        sy = CANVAS_H / (y1 - y0)
        s = min(sx, sy)
        cx = (x0 + x1) / 2.0
        cy = (y0 + y1) / 2.0

        def to_canvas(x, y):
            return (
                CANVAS_W / 2.0 + (x - cx) * s,
                CANVAS_H / 2.0 - (y - cy) * s,
            )

        return (x0, x1, y0, y1), to_canvas

    @staticmethod
    def _clip_line(coeffs, box):
        u, v, w = coeffs
        x0, x1, y0, y1 = box
        hits = []
        if abs(v) > 1e-12:
            for x in (x0, x1):
                y = -(u * x + w) / v
                if y0 - 1e-9 <= y <= y1 + 1e-9:
                    hits.append((x, y))
        if abs(u) > 1e-12:
            for y in (y0, y1):
                x = -(v * y + w) / u
                if x0 - 1e-9 <= x <= x1 + 1e-9:
                    hits.append((x, y))
        dedup = []
        for h in hits:
            if all(abs(h[0] - g[0]) + abs(h[1] - g[1]) > 1e-9 for g in dedup):
                dedup.append(h)
        if len(dedup) < 2:
            return None
        dedup.sort()
        return dedup[0], dedup[-1]

    @staticmethod
    def _conic_samples(m, seed_coords, box, to_canvas, n=64):
        """The drawable pieces (two or more canvas points) of an adaptive
        sweep over chord slopes through the seed point.

        A coarse angular grid of second intersections is refined by
        bisection wherever the chord between consecutive samples is long
        relative to the viewport, so tight bends get more points; a piece
        ends at a branch through infinity or far outside the viewport.
        """
        m00, m01, m02, m11, m12, m22 = _floats(m)
        sx, sy, sz = _floats(seed_coords)
        x0, x1, y0, y1 = box
        diag = math.hypot(x1 - x0, y1 - y0)
        tol = diag * 0.015

        def at(theta):
            dx, dy = math.cos(theta), math.sin(theta)
            gx = m00 * dx + m01 * dy
            gy = m01 * dx + m11 * dy
            gz = m02 * dx + m12 * dy
            b = sx * gx + sy * gy + sz * gz
            c = dx * gx + dy * gy
            px = -c * sx + 2 * b * dx
            py = -c * sy + 2 * b * dy
            pz = -c * sz
            if abs(pz) < 1e-12 * (abs(px) + abs(py) + 1.0):
                return None
            return (px / pz, py / pz)

        stretch_x = (x1 - x0) * 4
        stretch_y = (y1 - y0) * 4
        pieces = [[]]

        def push(p):
            if p is not None and (x0 - stretch_x <= p[0] <= x1 + stretch_x
                                  and y0 - stretch_y <= p[1] <= y1 + stretch_y):
                pieces[-1].append(to_canvas(*p))
            elif pieces[-1]:
                pieces.append([])

        def near_box(p):
            return (x0 - 2 * (x1 - x0) <= p[0] <= x1 + 2 * (x1 - x0)
                    and y0 - 2 * (y1 - y0) <= p[1] <= y1 + 2 * (y1 - y0))

        def emit(t0, p0, t1, p1, depth):
            if p0 is None or p1 is None:
                push(None)
                if p1 is not None:
                    push(p1)
                return
            chord = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
            if depth < 8 and chord > tol and (near_box(p0) or near_box(p1)):
                tm = (t0 + t1) / 2
                pm = at(tm)
                emit(t0, p0, tm, pm, depth + 1)
                if pm is not None:
                    emit(tm, pm, t1, p1, depth + 1)
                else:
                    push(None)
                    emit(tm + 1e-9, at(tm + 1e-9), t1, p1, depth + 1)
            else:
                push(p1)

        thetas = [-math.pi / 2 + math.pi * (i + 0.5) / n for i in range(n)]
        prev_t, prev_p = thetas[0], at(thetas[0])
        if prev_p is not None:
            push(prev_p)
        for t in thetas[1:]:
            p = at(t)
            emit(prev_t, prev_p, t, p, 0)
            prev_t, prev_p = t, p
        return [piece for piece in pieces if len(piece) > 1]

    def to_bytes(self) -> bytes:
        box, to_canvas = self._mapper()
        marks = []
        for x, y, label in self.labeled_points:
            cx, cy = to_canvas(x, y)
            marks.append((cx, cy, _fmt(cx), _fmt(cy), label))
        # points too close for floats to part would be drawn as one dot
        if len(self.exact_points) > 1 and len({m[2:4] for m in marks}) == 1:
            raise FigureError("distinct labeled points fall on one canvas point")
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(CANVAS_W)}" height="{_fmt(CANVAS_H)}" '
            f'viewBox="0 0 {_fmt(CANVAS_W)} {_fmt(CANVAS_H)}">',
            f'<rect x="0" y="0" width="{_fmt(CANVAS_W)}" height="{_fmt(CANVAS_H)}" fill="#ffffff"/>',
        ]
        for coeffs, cls in self.lines:
            seg = self._clip_line(coeffs, box)
            if seg is None:
                continue
            (ax, ay), (bx, by) = seg
            ax, ay = to_canvas(ax, ay)
            bx, by = to_canvas(bx, by)
            parts.append(
                f'<line class="{cls}" x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                f'x2="{_fmt(bx)}" y2="{_fmt(by)}" {_STYLE[cls]}/>'
            )
        for m, seed_coords, cls in self.conics:
            for piece in self._conic_samples(m, seed_coords, box, to_canvas):
                d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in piece)
                parts.append(f'<path class="{cls}" d="{d}" {_STYLE[cls]}/>')
        for cx, cy, fx, fy, label in marks:
            parts.append(
                f'<circle class="point" cx="{fx}" cy="{fy}" r="3.2" fill="#000000"/>'
            )
            parts.append(
                f'<text class="label" x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" '
                f'font-family="serif" font-size="15" fill="#000000">{label}</text>'
            )
        for dx, dy, label in self.infinities:
            norm = math.hypot(dx, dy) or 1.0
            ux, uy = dx / norm, -dy / norm
            ex = CANVAS_W / 2.0 + ux * (CANVAS_W / 2.0 - 30)
            ey = CANVAS_H / 2.0 + uy * (CANVAS_H / 2.0 - 30)
            parts.append(
                f'<line class="arrow" x1="{_fmt(ex - 12 * ux)}" y1="{_fmt(ey - 12 * uy)}" '
                f'x2="{_fmt(ex)}" y2="{_fmt(ey)}" stroke="#9467bd" stroke-width="2.0"/>'
            )
            parts.append(
                f'<text class="label" x="{_fmt(ex + 4)}" y="{_fmt(ey - 4)}" '
                f'font-family="serif" font-size="14" fill="#9467bd">{label} (inf)</text>'
            )
        parts.append("</svg>\n")
        return "\n".join(parts).encode("utf-8")


# ---------------------------------------------------------------------------
# per-kind figures


def render_figure(kind: str, instance: dict) -> bytes:
    return _FIGURES[kind](instance).to_bytes()


def _fig_harmonic(inst) -> SvgDoc:
    doc = SvgDoc()
    b, c, d, f = inst["b"], inst["c"], inst["d"], inst["f"]
    for p, nm in ((b, "B"), (c, "C"), (d, "D"), (f, "F")):
        doc.add_point(p, nm)
    doc.add_line(join(b, c), "carrier")
    data = harmonic_construction_data(b, c, d)
    if data is not None:
        doc.add_line(data["secant"], "carrier")
        doc.add_line(join(data["lo"], b), "construction")
        doc.add_line(join(data["hi"], c), "construction")
        doc.add_line(parallel_line_through(data["secant"], data["k"]), "construction")
    return doc


def _fig_menelaus(inst) -> SvgDoc:
    doc = SvgDoc()
    figure = inst["figure"]
    for ray in figure["rays"]:
        doc.add_line(ray, "chord")
    doc.add_line(figure["tronc"], "carrier")
    for p, nm in zip(figure["nodes"], ("N1", "N2", "N3")):
        doc.add_point(p, nm)
    for p, nm in zip(figure["vertices"], ("a", "b", "c")):
        doc.add_point(p, nm)
    return doc


def _fig_ramee(inst) -> SvgDoc:
    doc = SvgDoc()
    figure = inst["figure"]
    arbre, k, delta = figure["arbre"], figure["k"], figure["delta"]
    doc.add_line(arbre.chart.line, "carrier")
    doc.add_line(delta.line, "carrier")
    doc.add_point(k, "K")
    names = (("B", "H"), ("C", "G"), ("D", "F"))
    for (p, q), (np_, nq) in zip(arbre.pairs, names):
        doc.add_point(p, np_)
        doc.add_point(q, nq)
        for pt, nm in ((p, np_), (q, nq)):
            doc.add_line(join(k, pt), "construction")
            doc.add_point(figure["points"][nm.lower()], nm.lower())
    return doc


def _fig_quadrangle(inst) -> SvgDoc:
    doc = SvgDoc()
    q = inst["figure"]
    for p, nm in zip(q["bornes"], "BCDE"):
        doc.add_point(p, nm)
    for line in q["bornales"].values():
        doc.add_line(line, "chord")
    doc.add_line(q["transversal"].line, "carrier")
    for nm in "IKPQGH":
        doc.add_point(q[nm], nm)
    return doc


def _fig_pencil(inst) -> SvgDoc:
    doc = _fig_quadrangle(inst)
    for name, member in inst["members"]:
        if not member.is_degenerate():
            doc.add_conic(member, inst["figure"]["bornes"][0], "conic")
    doc.add_point(inst["tangency"], "T")
    return doc


def _fig_pascal(inst) -> SvgDoc:
    doc = SvgDoc()
    figure = inst["figure"]
    pts = figure["points"]
    doc.add_conic(figure["conic"], figure["hexagon"][0], "conic")
    for pt, nm in zip(figure["hexagon"], ("P", "K", "V", "O", "N", "Q")):
        doc.add_point(pt, nm)
    # PK, VO, NK, VQ, NO, PQ, as the check built them
    for l in figure["lines"].values():
        doc.add_line(l, "chord")
    for nm in "MSX":
        doc.add_point(pts[nm], nm)
    doc.add_line(join(pts["M"], pts["S"]), "pascal")
    return doc


def _fig_beaugrand(inst) -> SvgDoc:
    doc = SvgDoc()
    figure = inst["figure"]
    pts, lines = figure["points"], figure["lines"]
    doc.add_conic(figure["conic"], pts["K"], "conic")
    for nm in "KNOV":
        doc.add_point(pts[nm], nm)
    # KN, KO, VN, VO, as the check built them
    for l in lines.values():
        doc.add_line(l, "chord")
    doc.add_line(figure["transversal"], "carrier")
    doc.add_point(pts["C"], "C")
    doc.add_line(parallel_line_through(lines["VN"], pts["C"]), "construction")
    return doc


def _fig_bisector(inst) -> SvgDoc:
    doc = SvgDoc()
    b, c, d, f, k = inst["b"], inst["c"], inst["d"], inst["f"], inst["k"]
    doc.add_line(join(b, c), "carrier")
    for p, nm in ((b, "B"), (c, "C"), (d, "D"), (f, "F"), (k, "K")):
        doc.add_point(p, nm)
    for p in (b, c, d, f):
        doc.add_line(join(k, p), "construction")
    return doc


def _fig_retablissement(inst) -> SvgDoc:
    doc = SvgDoc()
    figure = inst["figure"]
    base_q = figure["base_q"]
    doc.add_conic(UNIT_CIRCLE, UNIT_CIRCLE_PAR.seed, "conic")
    for p, nm in zip(figure["base_pts"], ("B", "C", "D", "E", "L", "M")):
        doc.add_point(p, nm)
    # BC, ED, BE, DC, BD, CE and LM, as the check's base quadrangle built them
    for l in base_q["bornales"].values():
        doc.add_line(l, "chord")
    doc.add_line(base_q["transversal"].line, "carrier")
    return doc


def _fig_p13(inst) -> SvgDoc:
    doc = SvgDoc()
    b, h, g, k = inst["b"], inst["h"], inst["g"], inst["k"]
    (f_mid, big_f, big_d), _ = construct_involution_p13(b, h, g, k)
    for p, nm in ((b, "B"), (h, "h"), (g, "G"), (k, "K"), (f_mid, "f"), (big_f, "F"), (big_d, "D")):
        doc.add_point(p, nm)
    doc.add_line(join(b, k), "carrier")
    doc.add_line(join(b, g), "carrier")
    doc.add_line(join(g, h), "construction")
    doc.add_line(join(k, f_mid), "construction")
    doc.add_line(parallel_line_through(join(g, h), k), "construction")
    return doc


_FIGURES = {
    "harmonic": _fig_harmonic,
    "menelaus": _fig_menelaus,
    "ramee": _fig_ramee,
    "quadrangle": _fig_quadrangle,
    "pencil": _fig_pencil,
    "pascal": _fig_pascal,
    "beaugrand": _fig_beaugrand,
    "bisector": _fig_bisector,
    "parallel_bornales": _fig_quadrangle,
    "retablissement": _fig_retablissement,
    "p13": _fig_p13,
}

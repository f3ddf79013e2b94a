"""The projective plane over exact rationals.

Every homogeneous value (points and lines, parameter pairs, 2x2 line
maps, 3-space points and planes, and the conics built on them) is one
canonical integer tuple, made by :func:`_canonical` (written out for the
3-entry points and lines, the 4-entry line maps and, as
:func:`_canonical_pair`, for pairs), so projective equality is tuple
equality and everything hashes.  A parameter on a charted line is an
integer pair (u : v), with (1 : 0) for the line's point at infinity, read
by one linear form (:meth:`AffineChart._linear_pair`), and homographies
of a line act on pairs through 2x2 integer matrices, which makes the
limit cases exact rather than special-cased; an irrational fixed point,
an ``exact_scalar.QuadExt``, moves by the same matrix
(:func:`_apply_quad`).  A cross-ratio is an unreduced integer pair, with
den 0 for infinity, printed by :func:`param_str`; euclidean tests use the
integer displacements of :func:`_scaled_displacement`.  Every value is
built from integers: a rational read as text is an integer pair placed by
:meth:`AffineChart.point_at_pair`, and no ``Fraction`` is built.

Perspectivities are linear maps in closed form: the central projection
between two charted lines is one 2x2 integer matrix,
:func:`perspective_map`, and a minimal projective 3-space (points and
planes as integer quadruples, a deterministic chart on each plane) carries
configurations between the base and cutting planes of a cone by one 3x3
integer matrix, :func:`plane_perspectivity`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from arguesia._kernel import cross3, det3, dot3, mat2_mul
from arguesia._frozen import Frozen
from arguesia.exact_scalar import QuadExt, pair_str


class GeometryError(ValueError):
    """Construction impossible for the given data (coincident points,
    point off a line, degenerate map, ...)."""


def param_str(t) -> str:
    """A parameter as printed: an integer pair (u, v) reduced by one gcd,
    ``inf`` for (u, 0), and a QuadExt by its repr."""
    if isinstance(t, QuadExt):
        return repr(t)
    u, v = t
    return "inf" if v == 0 else pair_str(u, v)


def _canonical(coords: tuple) -> tuple[int, ...]:
    """The canonical form of a homogeneous tuple of integers.

    The tuple is divided by the gcd of its entries and the sign is chosen
    so the first nonzero entry is positive.  Two homogeneous values are
    then equal iff their canonical tuples are.  A tuple with a non-integer
    entry, which ``math.gcd`` refuses, raises ``TypeError``.  This is the
    generic form, for the 3-space points and planes and the conics; the hot
    tuples take the same steps written out for their length: the 3-entry
    ``PPoint`` and ``PLine``, the 4-entry ``LineMap`` matrix, and the pairs
    (:func:`_canonical_pair`).
    """
    g = gcd(*coords)
    if g == 0:
        raise GeometryError("zero homogeneous tuple")
    for c in coords:
        if c:
            break
    if c < 0:
        g = -g
    return tuple([c // g for c in coords])


def _canonical_pair(u, v) -> tuple[int, int]:
    """``_canonical((u, v))``: one gcd, the sign of the first nonzero
    entry, two floor divisions."""
    g = gcd(u, v)
    if g == 0:
        raise GeometryError("zero homogeneous tuple")
    if (u or v) < 0:
        g = -g
    return u // g, v // g


class PPoint(Frozen):
    """Point (x : y : z); z = 0 marks a point at infinity."""

    __slots__ = ("coords",)

    def __init__(self, x, y, z):
        # _canonical((x, y, z)) written out: the most frequent construction
        g = gcd(x, y, z)
        if g == 0:
            raise GeometryError("zero homogeneous tuple")
        if (x or y or z) < 0:
            g = -g
        object.__setattr__(self, "coords", (x // g, y // g, z // g))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    @property
    def x(self):
        return self.coords[0]

    @property
    def y(self):
        return self.coords[1]

    @property
    def z(self):
        return self.coords[2]

    def is_at_infinity(self) -> bool:
        return self.coords[2] == 0

    def to_json(self) -> list[str]:
        return [f"{c}/1" for c in self.coords]

    def __repr__(self):
        x, y, z = self.coords
        return f"({x}:{y}:{z})"


class PLine(Frozen):
    """Line (u : v : w), incidence u*x + v*y + w*z = 0."""

    __slots__ = ("coeffs",)

    def __init__(self, u, v, w):
        # _canonical((u, v, w)) written out, as in PPoint
        g = gcd(u, v, w)
        if g == 0:
            raise GeometryError("zero homogeneous tuple")
        if (u or v or w) < 0:
            g = -g
        object.__setattr__(self, "coeffs", (u // g, v // g, w // g))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    def is_infinity_line(self) -> bool:
        return self.coeffs[0] == 0 and self.coeffs[1] == 0

    def to_json(self) -> list[str]:
        return [f"{c}/1" for c in self.coeffs]

    def __repr__(self):
        u, v, w = self.coeffs
        return f"[{u}:{v}:{w}]"


def _require_finite(*points: PPoint) -> None:
    """Raise for the first point at infinity, in argument order."""
    for p in points:
        if p.coords[2] == 0:
            raise GeometryError(f"{p} has no affine coordinates")


def incident(p: PPoint, l: PLine) -> bool:
    x, u = p.coords, l.coeffs
    return x[0] * u[0] + x[1] * u[1] + x[2] * u[2] == 0


def join(p: PPoint, q: PPoint) -> PLine:
    """Line through two distinct points."""
    if p.coords == q.coords:
        raise GeometryError(f"join of equal points {p}")
    return PLine(*cross3(p.coords, q.coords))


def meet(l: PLine, m: PLine) -> PPoint:
    """Common point of two distinct lines; parallels meet at z = 0."""
    if l.coeffs == m.coeffs:
        raise GeometryError(f"meet of equal lines {l}")
    return PPoint(*cross3(l.coeffs, m.coeffs))


def infinity_point_of(l: PLine) -> PPoint:
    """Where the line meets the line at infinity (its direction)."""
    if l.is_infinity_line():
        raise GeometryError("the infinity line has no single direction")
    u, v, w = l.coeffs
    return PPoint(v, -u, 0)


def parallel_line_through(l: PLine, p: PPoint) -> PLine:
    """The line through p with the direction of l."""
    return join(p, infinity_point_of(l))


def midpoint(p: PPoint, q: PPoint) -> PPoint:
    if p.is_at_infinity() or q.is_at_infinity():
        raise GeometryError("midpoint needs finite points")
    return PPoint(
        p.x * q.z + q.x * p.z,
        p.y * q.z + q.y * p.z,
        2 * p.z * q.z,
    )


# ---------------------------------------------------------------------------
# charts and parameters


class AffineChart(Frozen):
    """Affine coordinate on a line: origin at 0, unit at 1, infinity at (1 : 0).

    Origin and unit must be finite so the chart's infinity agrees with the
    geometric point at infinity; signed parameter differences then measure
    segment ratios along the line.  The basis and the linear form that
    reads a parameter pair are computed once, when the chart is built.
    """

    _fields = ("line", "origin", "unit")
    __slots__ = _fields + ("_basis", "_reader")

    def __init__(self, line: PLine, origin: PPoint, unit: PPoint):
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "unit", unit)
        if origin == unit:
            raise GeometryError("chart origin and unit coincide")
        if origin.is_at_infinity() or unit.is_at_infinity():
            raise GeometryError("chart origin and unit must be finite")
        if not (incident(origin, line) and incident(unit, line)):
            raise GeometryError("chart base points must lie on the chart line")
        o, u = origin.coords, unit.coords
        oz, uz = o[2], u[2]
        # X0 = U_z*O and X1 = O_z*U - U_z*O
        x0 = (uz * o[0], uz * o[1], uz * o[2])
        x1 = (oz * u[0] - x0[0], oz * u[1] - x0[1], oz * u[2] - x0[2])
        object.__setattr__(self, "_basis", (x1, x0))
        # x = a*O + b*U for a, b = (x × U)_i, (O × x)_i over (O × U)_i, at
        # the first i with (O × U)_i != 0, the first nonzero coefficient of
        # the line; the affine weights are a*O_z and b*U_z, and t is b's
        # share.  Both are linear in the coordinates j, k of x next to i.
        i = _first_nonzero(line.coeffs)
        j, k = (i + 1) % 3, (i + 2) % 3
        a_j, a_k = u[k] * oz, -u[j] * oz
        b_j, b_k = -o[k] * uz, o[j] * uz
        object.__setattr__(self, "_reader", (j, k, b_j, b_k, a_j + b_j, a_k + b_k))

    def param_pair(self, p: PPoint) -> tuple[int, int]:
        """Projective parameter pair (u : v) with t = u/v, infinity (1 : 0)."""
        if not incident(p, self.line):
            raise GeometryError(f"{p} not on chart line {self.line}")
        return _canonical_pair(*self._linear_pair(p.coords))

    def _linear_pair(self, x) -> tuple[int, int]:
        """The parameter pair of a vector x on the line, not normalized:
        linear in x, so a projection composed with it is a matrix."""
        j, k, bj, bk, vj, vk = self._reader
        xj, xk = x[j], x[k]
        return bj * xj + bk * xk, vj * xj + vk * xk

    def point_at_pair(self, pair: tuple[int, int]) -> PPoint:
        """The point at pair = (u, v), t = u/v; (1, 0) is the point at infinity."""
        u, v = pair
        if u == 0 and v == 0:
            raise GeometryError("zero parameter pair")
        x1, x0 = self._basis
        return PPoint(u * x1[0] + v * x0[0], u * x1[1] + v * x0[1], u * x1[2] + v * x0[2])

    def basis(self):
        """(X1, X0) with ``point_at_pair((u, v))`` the point u*X1 + v*X0:
        X0 = U_z*O and X1 = O_z*U - U_z*O for the origin O and the unit U."""
        return self._basis

    def to_json(self) -> dict:
        return {
            "line": self.line.to_json(),
            "origin": self.origin.to_json(),
            "unit": self.unit.to_json(),
        }


def _first_nonzero(t) -> int:
    for i, c in enumerate(t):
        if c != 0:
            return i
    raise GeometryError("degenerate span")


# Charts are cheap to rebuild and rarely asked for twice: the cache only
# catches repeats within one figure, so it keeps the most recent lines.
CHART_CACHE_SIZE = 256


@lru_cache(maxsize=CHART_CACHE_SIZE)
def default_chart(line: PLine) -> AffineChart:
    """Deterministic chart on any line that has finite points."""
    u, v, w = line.coeffs
    if line.is_infinity_line():
        raise GeometryError("no affine chart on the line at infinity")
    if v != 0:
        origin = PPoint(0, -w, v)
    else:
        origin = PPoint(-w, 0, u)
    x0, y0, z0 = origin.coords
    unit = PPoint(x0 + v * z0, y0 - u * z0, z0)
    return AffineChart(line, origin, unit)


# ---------------------------------------------------------------------------
# homographies of a line


class LineMap(Frozen):
    """Homography between charted lines: t -> (m00*t + m01)/(m10*t + m11)."""

    __slots__ = _fields = ("matrix", "src", "dst")

    def __init__(self, matrix, src: AffineChart, dst: AffineChart):
        # _canonical(matrix) written out for its four entries, as in PPoint
        a, b, c, d = matrix
        g = gcd(a, b, c, d)
        if g == 0:
            raise GeometryError("zero homogeneous tuple")
        if (a or b or c or d) < 0:
            g = -g
        a, b, c, d = a // g, b // g, c // g, d // g
        if a * d - b * c == 0:
            raise GeometryError("singular line map")
        object.__setattr__(self, "matrix", (a, b, c, d))
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    def apply_pair(self, pair: tuple[int, int]) -> tuple[int, int]:
        a, b, c, d = self.matrix
        u, v = pair
        return _canonical_pair(a * u + b * v, c * u + d * v)

    def apply_point(self, p: PPoint) -> PPoint:
        return self.dst.point_at_pair(self.apply_pair(self.src.param_pair(p)))

    def compose(self, inner: "LineMap") -> "LineMap":
        """self o inner; inner acts first."""
        if inner.dst != self.src:
            raise GeometryError("chart mismatch in composition")
        return LineMap(mat2_mul(self.matrix, inner.matrix), inner.src, self.dst)

    def inverse(self) -> "LineMap":
        a, b, c, d = self.matrix
        return LineMap((d, -b, -c, a), self.dst, self.src)

    def trace(self) -> int:
        return self.matrix[0] + self.matrix[3]


def _apply_quad(matrix, t: QuadExt) -> QuadExt:
    """(a*t + b)/(c*t + d) for t = (p + q*sqrt(D))/den, in closed form.

    The quotient is (X + Y*sqrt(D))/(Z + W*sqrt(D)) for X = a*p + b*den,
    Y = a*q, Z = c*p + d*den and W = c*q, that is
    ((XZ - YWD) + (YZ - XW)*sqrt(D))/(Z^2 - W^2*D).
    The norm Z^2 - W^2*D is never 0, because D is not a square and the
    determinant ad - bc is not 0: with W != 0 it would make D = (Z/W)^2, and
    W = c*q = 0 means c = 0, so Z = d*den with d != 0.  The sqrt(D) part
    YZ - XW = q*den*(ad - bc) is never 0 either, so the image is irrational
    like t.
    """
    a, b, c, d = matrix
    p, q, den, rad = t.p, t.q, t.r, t.d
    xx, yy = a * p + b * den, a * q
    zz, ww = c * p + d * den, c * q
    return QuadExt(xx * zz - yy * ww * rad, yy * zz - xx * ww, zz * zz - ww * ww * rad, rad)


def project_point(center: PPoint, p: PPoint, target: PLine) -> PPoint:
    """Central projection of one point onto a line, meet(join(center, p),
    target), built as (l.P)K - (l.K)P for the center K, the point P and
    the line l by the triple-product rule ``perspective_map`` cites, so no
    line through K and P is made.  It keeps that construction's two
    guards, a center on the target and p equal to the center; past them
    the vector is never 0.
    """
    if incident(center, target):
        raise GeometryError("projection center on the target line")
    k, x, l = center.coords, p.coords, target.coeffs
    if x == k:
        raise GeometryError("cannot project the center itself")
    lx = l[0] * x[0] + l[1] * x[1] + l[2] * x[2]
    lk = l[0] * k[0] + l[1] * k[1] + l[2] * k[2]
    return PPoint(lx * k[0] - lk * x[0], lx * k[1] - lk * x[1], lx * k[2] - lk * x[2])


def perspective_map(center: PPoint, src: AffineChart, dst: AffineChart) -> LineMap:
    """The projection of center K from one charted line to another.

    Projection onto the line m is x -> (m.x)K - (m.K)x, which is
    -meet(join(K, x), m) by the triple-product rule, and reading a
    parameter pair is linear too, so the matrix has one column per vector
    of ``src.basis()``.  It agrees pointwise with meet(join(center, P),
    dst.line) and therefore preserves cross-ratios.
    """
    if incident(center, src.line) or incident(center, dst.line):
        raise GeometryError("perspective center lies on a carrier line")
    k0, k1, k2 = center.coords
    m0, m1, m2 = dst.line.coeffs
    (p0, p1, p2), (q0, q1, q2) = src.basis()  # X1 and X0
    mk = m0 * k0 + m1 * k1 + m2 * k2
    mp = m0 * p0 + m1 * p1 + m2 * p2
    mq = m0 * q0 + m1 * q1 + m2 * q2
    a, c = dst._linear_pair((mp * k0 - mk * p0, mp * k1 - mk * p1, mp * k2 - mk * p2))
    b, d = dst._linear_pair((mq * k0 - mk * q0, mq * k1 - mk * q1, mq * k2 - mk * q2))
    return LineMap((a, b, c, d), src, dst)


# ---------------------------------------------------------------------------
# cross-ratio


def _pair_det(x, y) -> int:
    return x[0] * y[1] - x[1] * y[0]


def cross_ratio_pairs(a, b, c, d) -> tuple[int, int]:
    """[a,b;c,d] from projective parameter pairs, as an unreduced integer
    pair (num, den), den 0 for infinity."""
    return _pair_det(c, a) * _pair_det(d, b), _pair_det(c, b) * _pair_det(d, a)


def cross_ratio(a: PPoint, b: PPoint, c: PPoint, d: PPoint) -> tuple[int, int]:
    """Cross-ratio [a,b;c,d] = ((c-a)/(c-b)) / ((d-a)/(d-b)), as an
    unreduced integer pair (num, den), as ``menelaus_engine.ratio`` gives.

    Needs four collinear points with a, b, c pairwise distinct, so num and
    den are never both 0; den is 0, the value infinity, exactly when d = a.
    """
    if a == b or a == c or b == c:
        raise GeometryError("cross-ratio needs a, b, c pairwise distinct")
    # param_pair raises GeometryError for a c or d off the line ab
    chart = default_chart(join(a, b))
    pa, pb, pc, pd = (chart.param_pair(p) for p in (a, b, c, d))
    return cross_ratio_pairs(pa, pb, pc, pd)


def harmonic_partner_param(pa, pb, pc) -> tuple[int, int]:
    """The parameter pair d with [a,b;c,d] = -1, for the pairs of three
    distinct parameters; canonical, with (1, 0) for infinity."""
    # solve det(c,a)*det(d,b) + det(c,b)*det(d,a) = 0 for the pair d
    k1 = _pair_det(pc, pa)
    k2 = _pair_det(pc, pb)
    if k1 == 0 or k2 == 0:
        raise GeometryError("harmonic partner needs three distinct parameters")
    # d satisfies  u*(k1*pb[1] + k2*pa[1]) - v*(k1*pb[0] + k2*pa[0]) = 0;
    # with k1, k2 nonzero, k1*pb + k2*pa is never the zero pair
    u = k1 * pb[0] + k2 * pa[0]
    v = k1 * pb[1] + k2 * pa[1]
    return _canonical_pair(u, v)


# ---------------------------------------------------------------------------
# euclidean helpers (z = 1 chart) on integer vectors


def _scaled_displacement(p: PPoint, q: PPoint) -> tuple[int, int]:
    """Integer vector p->q times p.z * q.z (both points finite)."""
    px, py, pz = p.coords
    qx, qy, qz = q.coords
    return qx * pz - px * qz, qy * pz - py * qz


def chord_product(origin: PPoint, p: PPoint, q: PPoint) -> tuple[int, int]:
    """Signed euclidean product origin->p . origin->q, the dot product of
    the two vectors.

    For three collinear finite points this is the power-of-a-point style
    product of signed lengths times the (positive) squared direction scale,
    so equalities of such products are scale-consistent within one figure.
    Returned as the unreduced integer pair (v.w, oz**2 * pz * qz) of the
    scaled displacements v, w and the points' z, so quotients and products
    of chord products stay integer; the denominator is never 0 but may be
    negative.
    """
    _require_finite(origin, p, q)
    v = _scaled_displacement(origin, p)
    w = _scaled_displacement(origin, q)
    oz = origin.coords[2]
    return v[0] * w[0] + v[1] * w[1], oz * oz * p.coords[2] * q.coords[2]


def directions_parallel(v, w) -> bool:
    return v[0] * w[1] == v[1] * w[0]


# ---------------------------------------------------------------------------
# minimal projective 3-space


class P3Point(Frozen):
    _fields = ("coords",)

    def __init__(self, x, y, z, w):
        object.__setattr__(self, "coords", _canonical((x, y, z, w)))


class P3Plane(Frozen):
    _fields = ("coeffs",)

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "coeffs", _canonical((a, b, c, d)))

    def contains(self, p: P3Point) -> bool:
        return sum(a * x for a, x in zip(self.coeffs, p.coords)) == 0


def plane_basis(plane: P3Plane) -> tuple[P3Point, P3Point, P3Point]:
    """Three independent points spanning the plane, deterministically."""
    u = plane.coeffs
    k = _first_nonzero(u + (0,))
    basis = []
    for j in range(4):
        if j == k:
            continue
        vec = [0, 0, 0, 0]
        vec[j] = u[k]
        vec[k] = -u[j]
        basis.append(P3Point(*vec))
    return tuple(basis)


def plane_perspectivity(apex: P3Point, src: P3Plane, dst: P3Plane) -> tuple[tuple[int, ...], ...]:
    """Rows of the integer matrix of the central projection from the apex,
    from ``plane_basis(src)`` chart coordinates to ``plane_basis(dst)`` ones.

    Projection onto the plane t is x -> (t.x)A - (t.A)x, and reading a point
    of dst is Cramer's rule on three coordinates whose minor of the dst basis
    is nonzero; both are linear, so the matrix is their product on the
    source basis.  The minor leaves out t's first nonzero coordinate k: off
    k, the j-th basis point of dst is a nonzero multiple of the j-th unit
    vector, so that minor is diagonal and invertible.
    """
    if src.contains(apex) or dst.contains(apex):
        raise GeometryError("apex must be off both planes")
    a, t = apex.coords, dst.coeffs
    ta = sum(ti * ai for ti, ai in zip(t, a))
    k = _first_nonzero(t)
    rows = [i for i in range(4) if i != k]
    c0, c1, c2 = (tuple(b.coords[i] for i in rows) for b in plane_basis(dst))
    columns = []
    for s in plane_basis(src):
        x = s.coords
        tx = sum(ti * xi for ti, xi in zip(t, x))
        y = tuple(tx * a[i] - ta * x[i] for i in rows)
        columns.append((det3(y, c1, c2), det3(c0, y, c2), det3(c0, c1, y)))
    return tuple(zip(*columns))


def apply_mat3(m, p: PPoint) -> PPoint:
    return PPoint(*(dot3(row, p.coords) for row in m))

"""Transport oracle for projective-invariance tests.

A collineation p -> T.p (T an invertible integer 3x3 matrix, as rows)
sends a line l to the line adj(T)^t . l and a conic with matrix M to the
conic with matrix adj(T)^t . M . adj(T).  Theorems stated projectively
must survive the transport; the tests check that on random T.
"""

from arguesia.conics import Conic
from arguesia.projective_core import PLine, PPoint
from arguesia.rng import SplitMix64


def _transpose(m):
    return tuple(zip(*m))


def _mat3_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _adjugate(t):
    def minor(i, j):
        rows = [r for k, r in enumerate(t) if k != i]
        cols = [[e for k, e in enumerate(r) if k != j] for r in rows]
        return cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]

    return tuple(
        tuple((-1) ** (i + j) * minor(j, i) for j in range(3)) for i in range(3)
    )


def apply_collineation(conic: Conic, t_rows) -> Conic:
    """Image conic under p -> T.p."""
    a = _adjugate(t_rows)
    prod = _mat3_mul(_mat3_mul(_transpose(a), conic.rows()), a)
    return Conic(prod[0][0], prod[0][1], prod[0][2], prod[1][1], prod[1][2], prod[2][2])


def apply_collineation_point(t_rows, p: PPoint) -> PPoint:
    c = p.coords
    return PPoint(*(sum(t_rows[i][k] * c[k] for k in range(3)) for i in range(3)))


def apply_collineation_line(t_rows, l: PLine) -> PLine:
    """Image line under p -> T.p: (adj(T)^t . l) . (T.p) = det(T) * (l . p),
    so the image of every point of l lies on it."""
    a, c = _adjugate(t_rows), l.coeffs
    return PLine(*(sum(a[k][i] * c[k] for k in range(3)) for i in range(3)))


def random_collineation(rng: SplitMix64, bounds: int = 5):
    """Random invertible 3x3 integer matrix (rows)."""
    while True:
        rows = tuple(
            tuple(rng.int_between(-bounds, bounds) for _ in range(3)) for _ in range(3)
        )
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        if det != 0:
            return rows

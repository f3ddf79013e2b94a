"""Hot kernels for exact homogeneous-coordinate arithmetic.

All functions work on plain Python integers (arbitrary precision) and
tuples of them.
"""

import sys

# The module that holds the kernel functions; perfbench's tracer reads it.
_impl = sys.modules[__name__]


def kernel_backend() -> str:
    """Name of the kernel implementation: always "python"."""
    return "python"


def cross3(a, b):
    """Cross product of integer triples; join of points / meet of lines."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def det3(a, b, c):
    """Determinant of the 3x3 matrix with rows a, b, c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def mat2_mul(m, n):
    """Product of 2x2 matrices stored row-major as (a, b, c, d)."""
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def conic_eval(m6, p):
    """Evaluate the symmetric form (m00,m01,m02,m11,m12,m22) at a triple."""
    x, y, z = p
    m00, m01, m02, m11, m12, m22 = m6
    return (
        x * (m00 * x + m01 * y + m02 * z)
        + y * (m01 * x + m11 * y + m12 * z)
        + z * (m02 * x + m12 * y + m22 * z)
    )


def conic_polar(m6, p):
    """Matrix-vector product M.p, the polar line of p."""
    x, y, z = p
    m00, m01, m02, m11, m12, m22 = m6
    return (
        m00 * x + m01 * y + m02 * z,
        m01 * x + m11 * y + m12 * z,
        m02 * x + m12 * y + m22 * z,
    )

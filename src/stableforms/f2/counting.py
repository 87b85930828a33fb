"""Exact counting over finite fields: projective spaces, general linear
groups, and Grassmannians, with a duplicate-free RREF enumeration as the
brute-force cross-check over GF(2)."""

import operator
from fractions import Fraction

from ..errors import EnumerationLimitError
from ..exterior.scalar import _fraction
from . import kernels
from .linalg import F2Matrix

ENUM_CAP = 2_000_000
MAX_ENUM_DIM = 14


def q_pochhammer(a, q, n):
    """(a; q)_n = prod_{i=0..n-1} (1 - a q^i), exactly, for n >= 0."""
    a = _fraction(a)
    q = _fraction(q)
    if operator.index(n) < 0:
        raise ValueError(f"need n >= 0, got {n}")
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        out *= 1 - a * power
        power *= q
    return out


def projective_count(size, n):
    """Points of projective (n-1)-space over a field with `size` elements."""
    return grassmann_count(size, n, 1)


def general_linear_count(size, n):
    """Order of GL(n) over a field with `size` elements:
    q^(n(n-1)/2) * prod_{i=1..n} (q^i - 1) in integers."""
    size, n = operator.index(size), operator.index(n)
    if size < 2 or n < 1:
        raise ValueError("need a field size >= 2 and n >= 1")
    out = size ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= size**i - 1
    return out


def grassmann_count(size, n, k):
    """Number of k-dimensional subspaces of an n-space over a field with
    `size` elements: the Gaussian binomial
    prod_{i<k} (q^(n-i) - 1) / prod_{i<k} (q^(i+1) - 1), as one integer
    division at the end (k is replaced by min(k, n - k))."""
    size, n, k = map(operator.index, (size, n, k))
    if size < 2 or n < 0:
        raise ValueError("need a field size >= 2 and n >= 0")
    if not 0 <= k <= n:
        raise ValueError(f"subspace dimension {k} outside 0..{n}")
    k = min(k, n - k)
    num = den = 1
    for i in range(k):
        num *= size ** (n - i) - 1
        den *= size ** (i + 1) - 1
    return num // den


def grassmann_enumerate(n, k):
    """One canonical RREF matrix per k-dimensional subspace of F2^n, in
    the order of `kernels.enumerate_rref`; n must be at least 1, since an
    F2Matrix has at least one column."""
    if n < 1:
        raise ValueError(f"enumeration needs n >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"subspace dimension {k} outside 0..{n}")
    if n > MAX_ENUM_DIM:
        raise EnumerationLimitError(
            f"enumeration dimension {n} exceeds the cap {MAX_ENUM_DIM}"
        )
    expected = grassmann_count(2, n, k)
    if expected > ENUM_CAP:
        raise EnumerationLimitError(
            f"{expected} subspaces exceed the enumeration cap {ENUM_CAP}"
        )
    if k == 0:
        return [F2Matrix.zero(0, n)]
    trusted = F2Matrix._trusted
    return [trusted(n, rows) for rows in kernels.enumerate_rref(n, k)]


# -- the stabilizer group of a coordinate k-plane inside GL(n) ----------
# Elements are triples (A, B, C) with A in GL(k), B in GL(n-k) and C a
# k x (n-k) block; composition matches block-upper-triangular matrix
# multiplication after the change of variables C = D B^{-1}.


def plane_stabilizer_identity(n, k):
    return (
        F2Matrix.identity(k),
        F2Matrix.identity(n - k),
        F2Matrix.zero(k, n - k),
    )


def plane_stabilizer_mul(x, y):
    a1, b1, c1 = x
    a2, b2, c2 = y
    return (
        a1.mul(a2),
        b1.mul(b2),
        a1.mul(c2).mul(b1.inverse()).add(c1),
    )


def plane_stabilizer_elements(n, k):
    """Every (A, B, C) triple over GF(2); exhaustive, so keep n small."""
    outer = []
    for a_rows in _all_invertible(k):
        for b_rows in _all_invertible(n - k):
            for c_val in range(1 << (k * (n - k))):
                c_rows = [
                    (c_val >> (i * (n - k))) & ((1 << (n - k)) - 1)
                    for i in range(k)
                ]
                outer.append(
                    (
                        F2Matrix(k, a_rows),
                        F2Matrix(n - k, b_rows),
                        F2Matrix(n - k, c_rows),
                    )
                )
    return outer


def _all_invertible(n):
    out = []
    for val in range(1 << (n * n)):
        rows = [(val >> (i * n)) & ((1 << n) - 1) for i in range(n)]
        if kernels.rank(rows) == n:
            out.append(rows)
    return out

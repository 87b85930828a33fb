"""Symmetric bilinear forms, endomorphisms, and exact signatures."""

import operator
from typing import NamedTuple

from ..errors import DimensionError
from . import linalg
from ._minors import read_off, to_scalar
from .scalar import Scalar


class Signature(NamedTuple):
    pos: int
    neg: int
    null: int


class SymBilinear:
    """A symmetric bilinear form as an exact square matrix."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries):
        entries = linalg.coerce_matrix(entries)
        if len(entries) != dim or any(len(r) != dim for r in entries):
            raise DimensionError("matrix shape does not match dimension")
        for i in range(dim):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise DimensionError("matrix is not symmetric")
        self.dim = dim
        self.entries = entries

    @classmethod
    def diagonal(cls, values):
        n = len(values)
        vals = [Scalar.coerce(v) for v in values]
        return cls(
            n,
            [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zero(cls, n):
        return cls.diagonal([0] * n)

    def apply(self, u, v):
        return linalg.gram([u], self.entries, [v])[0][0]

    def restrict(self, vectors):
        """Gram matrix of the given vectors as a SymBilinear."""
        vecs = linalg.coerce_matrix(vectors)
        return SymBilinear(len(vecs), linalg.gram(vecs, self.entries, vecs))

    def transform(self, matrix):
        """Congruent form A^T B A for the square matrix A."""
        at = linalg.transpose(linalg.coerce_matrix(getattr(matrix, "entries", matrix)))
        return SymBilinear(self.dim, linalg.gram(at, self.entries, at))

    def __eq__(self, other):
        if not isinstance(other, SymBilinear):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self):
        return f"SymBilinear({self.entries!r})"


class Endo:
    """A linear endomorphism; columns are images of the basis vectors."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries):
        entries = linalg.coerce_matrix(entries)
        if len(entries) != dim or any(len(r) != dim for r in entries):
            raise DimensionError("matrix shape does not match dimension")
        self.dim = dim
        self.entries = entries

    @classmethod
    def diagonal(cls, values):
        n = len(values)
        vals = [Scalar.coerce(v) for v in values]
        return cls(
            n,
            [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)],
        )

    @classmethod
    def identity(cls, n):
        return cls(n, linalg.identity(n))

    @classmethod
    def from_columns(cls, cols):
        return cls(len(cols), linalg.transpose(linalg.coerce_matrix(cols)))

    def apply(self, v):
        return linalg.mat_vec(self.entries, v)

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.dim))

    def compose(self, other):
        return Endo(self.dim, linalg.mat_mul(self.entries, other.entries))

    def scale(self, s):
        s = Scalar.coerce(s)
        return Endo(self.dim, [[x * s for x in row] for row in self.entries])

    def det(self):
        return linalg.det(self.entries)

    def trace(self):
        return sum((self.entries[i][i] for i in range(self.dim)), Scalar(0))

    def __eq__(self, other):
        if not isinstance(other, Endo):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self):
        return f"Endo({self.entries!r})"


def signature(b):
    """Exact (pos, neg, null) of a symmetric bilinear form.

    Symmetric fraction-free elimination (Bareiss 1968) on the integer
    read-off A = L*B (L > 0 keeps every sign), in ints or in int pairs
    p + q sqrt(d).  Each step pivots on a non-zero diagonal entry p of the
    trailing block and updates it by (p a_ij - a_ik a_kj) / prev with
    `linalg._int_step` or `linalg._pair_step`, so the pivots are the
    leading principal minors of a symmetric permutation of A and every
    division is exact.  By Jacobi's rule each pivot adds one to pos when
    p and prev have the same sign, else to neg.  When the live diagonal is
    all zero but some a_kl = q is not, a 2 x 2 pivot [[0, q], [q, 0]]
    (Bunch and Parlett 1971) adds (1, 1).  It is taken as the unimodular
    congruence v_k += v_l, which makes a_kk = 2q, and then 1 x 1 steps:
    pivoting on k and then l gives 2q and -q^2 / prev, of opposite signs.
    Whatever is left once the trailing block is zero is the null part.
    Signs are taken on the pivots only.  The entries must share one
    radicand, else ScalarContextError.
    """
    n = b.dim
    x, y, d, _ = read_off([e for row in b.entries for e in row])
    if d:
        rows = linalg._int_rows(list(zip(x, y)), n, n)
        zero, prev, step = (0, 0), (1, 0), linalg._pair_step(d)

        def add(u, v):
            return u[0] + v[0], u[1] + v[1]

        def sign(p):
            return to_scalar(p[0], p[1], d, 1).sign()

    else:
        rows = linalg._int_rows(x, n, n)
        zero, prev, step, add = 0, 1, linalg._int_step, operator.add

        def sign(p):
            return 1 if p > 0 else -1

    pos = neg = 0
    prev_sign = 1
    while rows:
        k = next((i for i, row in enumerate(rows) if row[i] != zero), None)
        if k is None:
            kl = next(((i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if e != zero), None)
            if kl is None:
                break
            k, l = kl
            rows[k] = [add(u, v) for u, v in zip(rows[k], rows[l])]
            for row in rows:
                row[k] = add(row[k], row[l])
        top = rows.pop(k)
        p = top.pop(k)
        s = sign(p)
        if s == prev_sign:
            pos += 1
        else:
            neg += 1
        prev_sign = s
        for i, row in enumerate(rows):
            f = row.pop(k)
            rows[i] = step(p, f, row, top, prev)
        prev = p
    return Signature(pos, neg, n - pos - neg)

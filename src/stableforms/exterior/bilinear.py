"""Symmetric bilinear forms, endomorphisms, and exact signatures."""

from typing import NamedTuple

from ..errors import DimensionError
from . import linalg
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
        u = linalg.coerce_vector(u)
        return sum(
            (x * y for x, y in zip(linalg.mat_vec(self.entries, v), u)),
            Scalar(0),
        )

    def restrict(self, vectors):
        """Gram matrix of the given vectors as a SymBilinear."""
        vecs = [linalg.coerce_vector(v) for v in vectors]
        images = [linalg.mat_vec(self.entries, v) for v in vecs]
        gram = [
            [sum((x * y for x, y in zip(u, bv)), Scalar(0)) for bv in images]
            for u in vecs
        ]
        return SymBilinear(len(vecs), gram)

    def transform(self, matrix):
        """Congruent form A^T B A for the square matrix A."""
        a = linalg.coerce_matrix(getattr(matrix, "entries", matrix))
        m = linalg.mat_mul(linalg.mat_mul(linalg.transpose(a), self.entries), a)
        return SymBilinear(self.dim, m)

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


def _sym_eliminate(m, n, k, src, f):
    """Congruence step v_k := v_k - f*v_src applied to the matrix m in place."""
    old_src_k = m[src][k]
    for l in range(n):
        if l == k:
            continue
        m[k][l] = m[k][l] - f * m[src][l]
        m[l][k] = m[k][l]
    m[k][k] = m[k][k] - 2 * f * old_src_k + f * f * m[src][src]


def signature(b):
    """Exact (pos, neg, null) of a symmetric bilinear form.

    Symmetric elimination on diagonal pivots; when the live diagonal is
    all zero, a non-zero off-diagonal entry contributes a hyperbolic
    (1, 1) block.
    """
    n = b.dim
    m = [[x for x in row] for row in b.entries]
    alive = list(range(n))
    pos = neg = 0
    while alive:
        piv = next((i for i in alive if m[i][i]), None)
        if piv is not None:
            pc = m[piv][piv]
            if pc.sign() > 0:
                pos += 1
            else:
                neg += 1
            alive.remove(piv)
            for j in alive:
                if m[j][piv]:
                    _sym_eliminate(m, n, j, piv, m[j][piv] / pc)
            continue
        pair = next(
            ((i, j) for i in alive for j in alive if i < j and m[i][j]), None
        )
        if pair is None:
            break
        i, j = pair
        pw = m[i][j]
        pos += 1
        neg += 1
        alive.remove(i)
        alive.remove(j)
        for k in alive:
            if m[k][j]:
                _sym_eliminate(m, n, k, i, m[k][j] / pw)
            if m[k][i]:
                _sym_eliminate(m, n, k, j, m[k][i] / pw)
    return Signature(pos, neg, n - pos - neg)

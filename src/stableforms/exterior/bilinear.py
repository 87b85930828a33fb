"""Symmetric bilinear forms, endomorphisms, and exact signatures."""

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

    The signs of the coefficients of det(tI - B) = t^n + c_1 t^(n-1) + ...
    + c_n, by Faddeev-LeVerrier on the integer read-off A = L*B (L > 0
    keeps every sign): M_0 = I, c_k = -tr(A M_(k-1)) / k and
    M_k = A M_(k-1) + c_k I.  Over Q(sqrt(d)), A = X + sqrt(d) Y acts on
    M = M0 + sqrt(d) M1 as the int block matrix [[X, dY], [Y, X]] on M0
    stacked over M1.  Each c_k lies in Z or Z[sqrt(d)], so every division
    by k is exact.  B is symmetric, so all roots are real and Descartes'
    rule of signs counts the positive ones exactly: pos is the number of
    sign changes of (1, c_1, ..., c_n) and the rank the index of the last
    non-zero c_k.  The entries must share one radicand, else
    ScalarContextError.
    """
    n = b.dim
    x, y, d, _ = read_off([e for row in b.entries for e in row])
    blocks = [[x]] if y is None else [[x, [d * v for v in y]], [y, x]]
    h = len(blocks)
    # sparse rows (column, entry) of the h x h block matrix
    a = [
        [(q * n + j, u) for q, blk in enumerate(band) for j, u in enumerate(blk[i * n : i * n + n]) if u]
        for band in blocks
        for i in range(n)
    ]
    m = [[int(i == j) for j in range(n)] for i in range(h * n)]  # I over 0
    signs = []
    for k in range(1, n + 1):
        c = [-sum(u * m[j][i] for i in range(n) for j, u in a[q * n + i]) // k for q in range(h)]
        signs.append(to_scalar(c[0], c[-1] if d else 0, d, 1).sign())
        if k < n:
            p = []
            for row in a:
                r = [0] * n
                for j, u in row:
                    r = [e + u * t for e, t in zip(r, m[j])]
                p.append(r)
            for q in range(h):
                for i in range(n):
                    p[q * n + i][i] += c[q]
            m = p
    rank = max((k for k, s in enumerate(signs, 1) if s), default=0)
    nonzero = [1] + [s for s in signs if s]
    pos = sum(s != t for s, t in zip(nonzero, nonzero[1:]))
    return Signature(pos, rank - pos, n - rank)

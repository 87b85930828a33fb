"""Oriented 3-planes given by an ordered, exactly-independent basis.

A plane keeps its trivector v1 ^ v2 ^ v3, the 3x3 minors of the basis
(Plucker coordinates) in `combinations` order of the column triples,
read off one minor sum.  The basis is independent when
the trivector is non-zero; two planes span the same 3-space when their
trivectors are proportional, with the same orientation when the factor
is positive.
"""

from itertools import combinations

from ..errors import DimensionError
from ..exterior import linalg
from ..exterior._minors import minor_sums
from ..exterior.scalar import ONE, ZERO


class OrientedPlane:
    """Three ordered, linearly independent vectors; order fixes orientation."""

    __slots__ = ("dim", "vectors", "trivector")

    def __init__(self, dim, vectors):
        vecs = tuple(linalg.coerce_vector(v) for v in vectors)
        if len(vecs) != 3:
            raise DimensionError("an oriented plane needs exactly 3 vectors")
        if any(len(v) != dim for v in vecs):
            raise DimensionError("vector length does not match dimension")
        minors = minor_sums({(1, 2, 3): ONE}, vecs)
        if not minors:
            raise DimensionError("plane vectors are linearly dependent")
        self.dim = dim
        self.vectors = vecs
        self.trivector = tuple(minors.get(j, ZERO) for j in combinations(range(1, dim + 1), 3))

    def basis_matrix(self):
        """3 x dim matrix with the basis vectors as rows."""
        return self.vectors

    def __repr__(self):
        return f"OrientedPlane(dim={self.dim}, vectors={self.vectors!r})"

    def spans_same(self, other):
        """True when both planes have the same underlying 3-space."""
        return self._factor_sign(other) != 0

    def same_oriented(self, other):
        """True when the planes agree as *oriented* subspaces."""
        return self._factor_sign(other) > 0

    def _factor_sign(self, other):
        """Sign of t with other.trivector == t * self.trivector; 0 when
        the trivectors are not proportional."""
        if self.dim != other.dim:
            return 0
        p, q = self.trivector, other.trivector
        k = next(i for i, x in enumerate(p) if x)
        if any(x * q[k] != y * p[k] for x, y in zip(p, q)):
            return 0
        return p[k].sign() * q[k].sign()

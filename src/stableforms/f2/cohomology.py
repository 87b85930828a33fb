"""The exterior algebra over GF(2) on n letters -- the mod-2 cohomology
ring of the n-torus -- with cup products, Stiefel-Whitney classes of
sums of flat line bundles, and the decomposability test for degree-2
classes."""

import operator
from itertools import combinations

from ..errors import DimensionError
from . import kernels

MAX_LETTERS = 24


class F2ExtClass:
    """Homogeneous element of the exterior algebra on {1..n} over GF(2):
    a set of strictly increasing degree-tuples."""

    __slots__ = ("ambient", "degree", "terms")

    def __init__(self, ambient, degree, terms=()):
        if not 1 <= ambient <= MAX_LETTERS:
            raise DimensionError(f"ambient {ambient} outside 1..{MAX_LETTERS}")
        if not 0 <= degree <= ambient:
            raise DimensionError(f"degree {degree} outside 0..{ambient}")
        canon = set()
        for t in terms:
            t = tuple(sorted(map(operator.index, t)))
            if len(t) != degree or len(set(t)) != degree:
                raise DimensionError(f"term {t} is not a {degree}-subset")
            if t and not (1 <= t[0] and t[-1] <= ambient):
                raise DimensionError(f"term {t} outside 1..{ambient}")
            canon.symmetric_difference_update({t})
        self.ambient = ambient
        self.degree = degree
        self.terms = frozenset(canon)

    @classmethod
    def zero(cls, ambient, degree=2):
        return cls(ambient, degree)

    @classmethod
    def generator(cls, ambient, i):
        return cls(ambient, 1, [(i,)])

    @classmethod
    def from_bits(cls, ambient, bits):
        """Degree-1 class from a bitmask (bit i-1 is the letter i)."""
        return cls(
            ambient, 1, [(i,) for i in range(1, ambient + 1) if (bits >> (i - 1)) & 1]
        )

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, F2ExtClass):
            return NotImplemented
        if self.ambient != other.ambient or self.degree != other.degree:
            raise DimensionError("classes live in different groups")
        return F2ExtClass(
            self.ambient, self.degree, self.terms ^ other.terms
        )

    def __eq__(self, other):
        if not isinstance(other, F2ExtClass):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ambient, self.degree, self.terms))

    def __repr__(self):
        body = " + ".join(
            "e" + "".join(map(str, t)) for t in sorted(self.terms)
        )
        return f"F2ExtClass({self.ambient}, {self.degree}, {body or '0'})"


def cup(x, y):
    """Cup (wedge mod 2) product; signs vanish and a^a = 0 in degree 1."""
    if not (isinstance(x, F2ExtClass) and isinstance(y, F2ExtClass)):
        raise TypeError(f"cup needs two F2ExtClass, got {type(x).__name__} and {type(y).__name__}")
    if x.ambient != y.ambient:
        raise DimensionError("classes live on different ambients")
    acc = set()
    for s in x.terms:
        ss = set(s)
        for t in y.terms:
            if ss.intersection(t):
                continue
            u = tuple(sorted(s + t))
            acc.symmetric_difference_update({u})
    return F2ExtClass(x.ambient, x.degree + y.degree, acc)


def _pair_matrix_rows(w):
    rows = [0] * w.ambient
    for (i, j) in w.terms:
        rows[i - 1] |= 1 << (j - 1)
        rows[j - 1] |= 1 << (i - 1)
    return rows


def is_decomposable(w):
    """Whether a degree-2 class is a cup product of degree-1 classes.

    Equivalent to the symmetric zero-diagonal coefficient matrix having
    rank at most 2 over GF(2); returns (flag, witness_pair_or_None).
    """
    if w.degree != 2:
        raise DimensionError("decomposability test needs a degree-2 class")
    rows = _pair_matrix_rows(w)
    reduced = kernels.rref(rows)
    if len(reduced) > 2:
        return False, None
    if not reduced:
        zero = F2ExtClass(w.ambient, 1)
        return True, (zero, zero)
    # Alternating rank is even, so exactly two pivot rows remain; any
    # basis of the row space is a witness since GF(2)* = {1}.
    a = F2ExtClass.from_bits(w.ambient, reduced[0])
    b = F2ExtClass.from_bits(w.ambient, reduced[1])
    assert cup(a, b) == w
    return True, (a, b)


class LineBundleSum:
    """Ordered Whitney sum of flat line bundles, named by their first
    Stiefel-Whitney classes (degree-1 elements)."""

    __slots__ = ("ambient", "lines")

    def __init__(self, lines):
        lines = tuple(lines)
        if not lines:
            raise DimensionError("need at least one line bundle")
        ambient = lines[0].ambient
        if any(l.ambient != ambient or l.degree != 1 for l in lines):
            raise DimensionError("summands must be degree-1 classes on one ambient")
        self.ambient = ambient
        self.lines = lines

    @property
    def orientable(self):
        return self.w1().is_zero

    def w1(self):
        out = F2ExtClass(self.ambient, 1)
        for l in self.lines:
            out = out + l
        return out

    def w2(self):
        out = F2ExtClass(self.ambient, 2)
        for a, b in combinations(self.lines, 2):
            out = out + cup(a, b)
        return out


def stiefel_whitney(lines):
    """(w1, w2) of a Whitney sum of flat line bundles."""
    s = lines if isinstance(lines, LineBundleSum) else LineBundleSum(lines)
    return s.w1(), s.w2()


def plucker_class(plane):
    """Wedge of the two RREF basis rows of a 2-plane as a degree-2 class."""
    if plane.nrows != 2:
        raise DimensionError(f"plucker_class needs a 2-row matrix, got {plane.nrows} rows")
    r1, r2 = plane.rows
    n = plane.n
    terms = []
    for i in range(1, n + 1):
        x1 = (r1 >> (n - i)) & 1
        y1 = (r2 >> (n - i)) & 1
        for j in range(i + 1, n + 1):
            x2 = (r1 >> (n - j)) & 1
            y2 = (r2 >> (n - j)) & 1
            if (x1 & y2) ^ (x2 & y1):
                terms.append((i, j))
    return F2ExtClass(n, 2, terms)


def decomposable_nonzero_count(n):
    """Number of non-zero degree-2 classes with a rank <= 2 coefficient
    matrix: the closed form [n, 2]_2 = (2^n - 1)(2^(n-1) - 1)/3 of the
    rank-2 alternating matrices over GF(2), exact for every n; the tests
    check it against exhaustive scans of all 2^C(n,2) classes for n <= 6."""
    return kernels.count_decomposable_nonzero(operator.index(n))


def count_slc_classes(n):
    """Homotopy classes of complex-type 3-forms on the n-torus: one per
    mod-2 degree-1 cohomology class."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    return 2**n


def count_extendible_slr_classes(n):
    """Number of degree-2 classes arising as w2 of an orientable rank-3
    sum of flat line bundles: the decomposable classes, i.e. the Plucker
    image of the 2-plane Grassmannian plus the zero class."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    return decomposable_nonzero_count(n) + 1

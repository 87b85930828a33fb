"""Alternating k-forms on R^n (n <= 8) with exact sparse coefficients.

A KForm stores a map from strictly increasing 1-based index tuples to
non-zero Scalars.  Constructor input may be unsorted; it is sorted with
sign tracking, and repeated indices kill the term.  The results of the
form operations are canonical by construction and are wrapped by
`_trusted` without checks.

The sparse term algebra is written once, for any coefficient ring whose
values support +, -, unary - and truth (`Scalar` here, `TrigScalar` and
`GaussQ` in `stableforms.torus`): `_add_term` accumulates one signed
term and drops a zero sum, and `_canonical_terms`, `_sum_terms` and
`_wedge_terms` build constructor input, sums and wedges from it.
`_SparseForm` holds the form methods that KForm and TrigForm share.
"""

import json
import operator

from ..errors import DegenerateMetricError, DimensionError
from . import linalg
from ._minors import minor_sums, read_off, to_scalar
from .scalar import ZERO, Scalar

MAX_DIM = 8


def sort_signed(idx):
    """Sort an index tuple, returning (sorted_tuple, sign); sign 0 on repeats."""
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and lst[j - 1] == lst[j]:
            return tuple(lst), 0
    return tuple(lst), sign


def merge_signed(left, right):
    """Concatenate two increasing tuples; (merged, sign), sign 0 on overlap."""
    return sort_signed(left + right)


def _add_term(out, key, c, sign):
    """out[key] += sign * c (sign +-1) in a sparse term dict; a zero sum
    drops the key."""
    if not c:
        return
    tot = out.get(key)
    if tot is None:
        out[key] = c if sign > 0 else -c
    else:
        tot = tot + c if sign > 0 else tot - c
        if tot:
            out[key] = tot
        else:
            del out[key]


def _canonical_terms(terms, degree, lo, hi, coerce):
    """{increasing index tuple: non-zero coefficient} of constructor input,
    a mapping or (index tuple, coefficient) pairs: indices lie in lo..hi,
    each tuple is sorted with sign, repeats drop the term, and coerced
    coefficients of equal tuples are summed."""
    out = {}
    for idx, c in terms.items() if hasattr(terms, "items") else terms:
        idx = tuple(map(operator.index, idx))
        if len(idx) != degree:
            raise DimensionError(f"index tuple {idx} has wrong length")
        if any(not lo <= i <= hi for i in idx):
            raise DimensionError(f"index tuple {idx} outside {lo}..{hi}")
        sidx, sgn = sort_signed(idx)
        if sgn:
            _add_term(out, sidx, coerce(c), sgn)
    return out


def _sum_terms(left, right, sign):
    """left + sign * right for two canonical term dicts."""
    out = dict(left)
    for idx, c in right.items():
        _add_term(out, idx, c, sign)
    return out


def _wedge_terms(left, right):
    """The wedge product of two canonical term dicts."""
    out = {}
    for i1, c1 in left.items():
        for i2, c2 in right.items():
            merged, sgn = merge_signed(i1, i2)
            if sgn:
                _add_term(out, merged, c1 * c2, sgn)
    return out


class _SparseForm:
    """A form of fixed degree on `dim` slots as a canonical term dict; the
    subclass gives `_check_compatible`, `to_json`, `from_json` and
    `_like(degree, terms)`, which wraps a result of its own kind."""

    __slots__ = ("dim", "degree", "terms")

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        return self._like(self.degree, _sum_terms(self.terms, other.terms, 1))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        return self._like(self.degree, _sum_terms(self.terms, other.terms, -1))

    def __neg__(self):
        return self._like(self.degree, {i: -c for i, c in self.terms.items()})

    def to_json_str(self):
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def from_json_str(cls, text):
        return cls.from_json(json.loads(text))


class KForm(_SparseForm):
    """An alternating form of fixed degree on R^dim."""

    __slots__ = ()

    def __init__(self, dim, degree, terms=()):
        if not 1 <= dim <= MAX_DIM:
            raise DimensionError(f"dimension {dim} outside 1..{MAX_DIM}")
        if not 0 <= degree <= dim:
            raise DimensionError(f"degree {degree} outside 0..{dim}")
        self.dim = dim
        self.degree = degree
        self.terms = _canonical_terms(terms, degree, 1, dim, Scalar.coerce)

    @classmethod
    def _trusted(cls, dim, degree, terms):
        """Wrap a dict of increasing index tuples to non-zero Scalars that
        a form operation built; no checks."""
        f = object.__new__(cls)
        f.dim = dim
        f.degree = degree
        f.terms = terms
        return f

    def _like(self, degree, terms):
        return KForm._trusted(self.dim, degree, terms)

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree)

    @classmethod
    def basis(cls, dim, idx, coeff=1):
        return cls(dim, len(idx), [(tuple(idx), coeff)])

    # -- basic queries ---------------------------------------------------

    def coefficient(self, idx):
        sidx, sgn = sort_signed(tuple(idx))
        if sgn == 0:
            return Scalar(0)
        c = self.terms.get(sidx)
        if c is None:
            return Scalar(0)
        return c if sgn > 0 else -c

    def evaluate(self, *vectors):
        """Exact value on `degree` many vectors: the one minor sum
        Σ_I c_I det(V[I]) over the matrix V with the vectors as columns."""
        if len(vectors) != self.degree:
            raise DimensionError("wrong number of vectors")
        vecs = [linalg.coerce_vector(v) for v in vectors]
        if any(len(v) != self.dim for v in vecs):
            raise DimensionError("vector length does not match dimension")
        full = tuple(range(1, self.degree + 1))
        return minor_sums(self.terms, linalg.transpose(vecs)).get(full, ZERO)

    # -- linear structure --------------------------------------------------

    def _check_compatible(self, other):
        if self.dim != other.dim:
            raise DimensionError("forms live on different dimensions")
        if self.degree != other.degree:
            raise DimensionError("forms have different degrees")

    def __mul__(self, scalar):
        s = Scalar.coerce(scalar)
        if not s:
            return KForm._trusted(self.dim, self.degree, {})
        return KForm._trusted(self.dim, self.degree, {i: c * s for i, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        body = " ".join(
            f"{c}*e{''.join(map(str, i))}" for i, c in sorted(self.terms.items())
        )
        return f"KForm(dim={self.dim}, deg={self.degree}, {body or '0'})"

    # -- exterior algebra -------------------------------------------------

    def wedge(self, other):
        if not isinstance(other, KForm):
            raise TypeError(f"cannot wedge a KForm with {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionError("forms live on different dimensions")
        deg = self.degree + other.degree
        if deg > self.dim:
            raise DimensionError("wedge degree exceeds dimension")
        return KForm._trusted(self.dim, deg, _wedge_terms(self.terms, other.terms))

    def contract(self, u):
        """Interior product: (u . alpha)(v1..) = alpha(u, v1..).  u and the
        coefficients are read off once as ints over one denominator L; each
        output coefficient sums +-u_i c_I in ints (int pairs over
        Q(sqrt(d))) and becomes a Scalar over L^2."""
        if self.degree < 1:
            raise DimensionError("cannot contract a degree-0 form")
        u = linalg.coerce_vector(u)
        if len(u) != self.dim:
            raise DimensionError("vector length does not match dimension")
        x, y, d, den = read_off(u + tuple(self.terms.values()))
        y = y or [0] * len(x)
        rat, rad = {}, {}
        for k, idx in enumerate(self.terms, len(u)):
            c, e = x[k], y[k]
            for p, i in enumerate(idx):
                a, b = x[i - 1], y[i - 1]
                if a or b:
                    if p & 1:
                        a, b = -a, -b
                    rest = idx[:p] + idx[p + 1 :]
                    rat[rest] = rat.get(rest, 0) + a * c + d * b * e
                    rad[rest] = rad.get(rest, 0) + a * e + b * c
        den *= den
        out = {rest: to_scalar(r, rad[rest], d, den) for rest, r in rat.items() if r or rad[rest]}
        return KForm._trusted(self.dim, self.degree - 1, out)

    def pullback(self, matrix):
        """Pullback along the linear map with the given square matrix A:
        the coefficient at J is the minor sum Σ_I c_I det(A[I][J])."""
        rows = getattr(matrix, "entries", matrix)
        rows = linalg.coerce_matrix(rows)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise DimensionError("matrix size does not match dimension")
        return KForm._trusted(self.dim, self.degree, minor_sums(self.terms, rows))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "dim": self.dim,
            "degree": self.degree,
            "terms": [
                {"idx": list(idx), "c": str(c)}
                for idx, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json: `dim`, `degree` and each `idx` entry must be
        JSON integers, `idx` a list and `c` a scalar string."""
        try:
            dim = _json_int(obj["dim"])
            degree = _json_int(obj["degree"])
            terms = [(_json_ints(t["idx"]), Scalar.parse(t["c"])) for t in obj["terms"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed form object: {exc}") from exc
        return cls(dim, degree, terms)


def _json_int(x):
    if type(x) is not int:  # rejects bool, float and str
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _json_ints(x):
    if type(x) is not list:
        raise TypeError(f"expected a list of integers, got {x!r}")
    return tuple(map(_json_int, x))


def wedge(alpha, beta):
    return alpha.wedge(beta)


def contract(u, alpha):
    return alpha.contract(u)


def pullback(matrix, alpha):
    return alpha.pullback(matrix)


def basis_vector(dim, i):
    return tuple(Scalar(1 if j == i else 0) for j in range(1, dim + 1))


def top_coefficient(alpha):
    """Coefficient of the full index tuple of a top-degree form."""
    if alpha.degree != alpha.dim:
        raise DimensionError("form is not of top degree")
    return alpha.coefficient(tuple(range(1, alpha.dim + 1)))


def hodge_star(g, vol, alpha):
    """Hodge dual: beta ^ star(alpha) = <beta, alpha> vol for all beta,
    where the inner product on k-forms is the Gram determinant of the
    dual (inverse) metric of g and vol is a non-zero top form.

    By Jacobi's complementary minors, star(alpha) = (vol / det g) g^*(a)
    for the Euclidean complement a of alpha, a_{I^c} = sign(I, I^c) c_I:
    one determinant and one pullback, with no inverse of g.
    """
    n = alpha.dim
    if getattr(g, "dim", None) != n or vol.dim != n:
        raise DimensionError("metric, volume and form dimensions disagree")
    if vol.degree != n:
        raise DimensionError("volume form must have top degree")
    scale = top_coefficient(vol)
    if not scale:
        raise DimensionError("volume form is zero")
    det_g = linalg.det(g.entries)
    if not det_g:
        raise DegenerateMetricError("metric is degenerate")
    full = range(1, n + 1)
    complement = {}
    for left, c in alpha.terms.items():
        right = tuple(i for i in full if i not in left)
        complement[right] = c if merge_signed(left, right)[1] > 0 else -c
    return KForm(n, n - alpha.degree, complement).pullback(g.entries) * (scale / det_g)

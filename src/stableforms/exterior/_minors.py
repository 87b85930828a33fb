"""The one kernel behind every multilinear evaluation: sums of minors
Σ_I c_I det(M[I][J]) taken in Python ints.  `linalg.det` is its minor
sum of the top-degree form.

Scalars enter through `read_off`: a list of values v_i becomes integer
vectors X, Y over one common denominator L with v_i = (X_i + Y_i sqrt(d)) / L
for the single radicand d of the list.  Over Q(sqrt(d)) the minors are
taken in int pairs (p, q) standing for p + q sqrt(d).  Only the results
become Scalars again.  `linalg` and `bilinear.signature` work on the same
read-off: `signature` by symmetric fraction-free elimination (Bareiss),
counting its pivots by Jacobi's rule and taking a 2 x 2 pivot on a zero
diagonal.
"""

from fractions import Fraction
from math import lcm

from ..errors import ScalarContextError
from .scalar import Scalar

_ZERO = Scalar(0)


def _radicand(values, d=0):
    """The one non-trivial radicand among the values (0 if none), starting
    from d; two different ones raise ScalarContextError."""
    for v in values:
        if v.d and v.d != d:
            if d:
                raise ScalarContextError(f"mixed radicands sqrt({d}) and sqrt({v.d})")
            d = v.d
    return d


def read_off(values, d=0):
    """(X, Y, d, L) with values[i] == (X[i] + Y[i] sqrt(d)) / L.

    L is the lcm of the denominators of all rational and radical parts
    and d the single radicand of the values (0 when all are rational,
    then Y is None); `d` seeds the radicand, so a value carrying another
    one raises ScalarContextError."""
    d = _radicand(values, d)
    if d:
        den = lcm(*{q.denominator for v in values for q in (v.a, v.b)})
        y = [v.b.numerator * (den // v.b.denominator) for v in values]
    else:  # every radical part is 0
        den = lcm(*{v.a.denominator for v in values})
        y = None
    x = [v.a.numerator * (den // v.a.denominator) for v in values]
    return x, y, d, den


def to_scalar(r, s, d, den):
    """The Scalar (r + s sqrt(d)) / den for ints r, s and den != 0."""
    if not (r or s):
        return _ZERO
    if d and s:
        return Scalar._make(Fraction(r, den), Fraction(s, den), d)
    return Scalar._rational(Fraction(r, den))


def _int_minors(m):
    """det(rows, cols) of the int matrix m by Laplace expansion along the
    first row.  2 x 2 sub-minors are written out; the larger sub-minors it
    builds are memoised for the lifetime of the returned function, the
    minors asked for are not."""
    memo = {}

    def minor(rows, cols):
        if len(rows) == 2:
            a, b = m[rows[0]], m[rows[1]]
            i, j = cols
            return a[i] * b[j] - a[j] * b[i]
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        key = (rows, cols)
        v = memo.get(key)
        if v is None:
            v = memo[key] = expand(rows, cols)
        return v

    def expand(rows, cols):
        first, rest = m[rows[0]], rows[1:]
        v = 0
        for p, c in enumerate(cols):
            e = first[c]
            if e:
                t = e * minor(rest, cols[:p] + cols[p + 1 :])
                v = v - t if p & 1 else v + t
        return v

    def det(rows, cols):
        return m[rows[0]][cols[0]] if len(rows) == 1 else expand(rows, cols)

    return det


def _pair_minors(m, d):
    """As _int_minors, for a matrix of int pairs (p, q) = p + q sqrt(d);
    every sub-minor from 2 x 2 up is memoised."""
    memo = {}

    def minor(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        key = (rows, cols)
        v = memo.get(key)
        if v is None:
            v = memo[key] = expand(rows, cols)
        return v

    def expand(rows, cols):
        first, rest = m[rows[0]], rows[1:]
        v0 = v1 = 0
        for p, c in enumerate(cols):
            e0, e1 = first[c]
            if e0 or e1:
                s0, s1 = minor(rest, cols[:p] + cols[p + 1 :])
                t0 = e0 * s0
                t1 = e0 * s1
                if e1:
                    t0 += d * e1 * s1
                    t1 += e1 * s0
                if p & 1:
                    v0 -= t0
                    v1 -= t1
                else:
                    v0 += t0
                    v1 += t1
        return v0, v1

    def det(rows, cols):
        return m[rows[0]][cols[0]] if len(rows) == 1 else expand(rows, cols)

    return det


def minor_sums(terms, matrix, cols):
    """[Σ_I c_I det(matrix[I][J]) for J in cols] as Scalars.

    `terms` maps increasing 1-based row tuples I, all of one length k, to
    Scalars c_I; `matrix` is a sequence of rows of Scalars; each J is an
    increasing 1-based tuple of k columns.  Degree 0 gives the constant
    term for every J.  The k x k minors are built by Laplace expansion,
    memoising only the smaller sub-minors.  Coefficients and matrix must
    share one radicand, else ScalarContextError."""
    items = [(idx, c) for idx, c in terms.items() if c]
    if not items:
        return [_ZERO] * len(cols)
    k = len(items[0][0])
    if k == 0:
        return [items[0][1]] * len(cols)
    x, y, d, cden = read_off([c for _, c in items])
    flat = [e for row in matrix for e in row]
    mx, my, d, mden = read_off(flat, d)
    if my is not None:
        mx = list(zip(mx, my))
    width = len(matrix[0])
    m = [mx[i : i + width] for i in range(0, len(mx), width)]
    minor = _int_minors(m) if my is None else _pair_minors(m, d)
    rows = [tuple(i - 1 for i in idx) for idx, _ in items]
    den = cden * mden**k
    out = []
    for big in cols:
        js = tuple(j - 1 for j in big)
        dets = [minor(r, js) for r in rows]
        if my is None:
            rat = sum(a * b for a, b in zip(x, dets))
            rad = sum(a * b for a, b in zip(y, dets)) if y else 0
        else:
            rat = sum(a * b0 for a, (b0, _) in zip(x, dets))
            rad = sum(a * b1 for a, (_, b1) in zip(x, dets))
            if y:
                rat += d * sum(a * b1 for a, (_, b1) in zip(y, dets))
                rad += sum(a * b0 for a, (b0, _) in zip(y, dets))
        out.append(to_scalar(rat, rad, d, den))
    return out


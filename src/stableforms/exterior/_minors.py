"""The one kernel behind every multilinear evaluation: sums of minors
Σ_I c_I det(M[I][J]) over all column tuples J, taken in Python ints as
the pullback Σ_I c_I M_I1 ^ ... ^ M_Ik of the rows, one row wedged in
per step (Horner's rule over index prefixes).  `linalg.det` is the same
pass on the top-degree form.

Scalars enter through `read_off`.  Each Scalar already is ints
(p + q sqrt(d)) / den, so a list of values v_i becomes integer vectors
X, Y over one common denominator L, the lcm of the dens, with
v_i = (X_i + Y_i sqrt(d)) / L for the single radicand d of the list.
Only the results become Scalars again, through `scalar.to_scalar`.
Over Q(sqrt(d)) the integer loops run on packed ints (Kronecker
substitution): `pack` writes X + sqrt(d) Y as X + 2^s Y, the value at
t = 2^s of X + t Y, so a sum of products of packed ints is the value at
2^s of the same sum in Z[t].  With s from the digit bound of `shift`,
`unpack` reads its coefficients back and folds them with t^2 = d.
Elimination (`linalg.rref`, `bilinear.signature`) keeps int pairs: it
divides exactly, and a packed int need not divide where its value does.
"""

from functools import cache
from itertools import combinations
from math import comb, factorial, lcm

from .scalar import join_radicands, to_scalar


def read_off(values, d=0):
    """(X, Y, d, L) with values[i] == (X[i] + Y[i] sqrt(d)) / L.

    L is the lcm of the denominators of the values and d their single
    radicand (0 when all are rational, then Y is None); `d` seeds the
    radicand, so a value carrying another one raises ScalarContextError."""
    for v in values:
        if v.d and v.d != d:
            d = join_radicands(d, v.d)
    den = lcm(*{v.den for v in values})
    x = [v.p * (den // v.den) for v in values]
    y = [v.q * (den // v.den) for v in values] if d else None
    return x, y, d, den


class Table(tuple):
    """A cached table of signed-product sums; `weight` is their W in `shift`."""

    def __new__(cls, entries, weight):
        table = super().__new__(cls, entries)
        table.weight = weight
        return table


def bound(x, y=None):
    """The largest |entry| of the int vectors x and y."""
    return max(max(map(abs, x), default=0), max(map(abs, y or ()), default=0))


def shift(weight, m, bound):
    """The s of `pack` for sums of at most `weight` signed products of m
    packed factors X_i + t Y_i, |X_i| and |Y_i| at most M_i, and `bound`
    = prod M_i.  The coefficient c_j of t^j sums at most weight * C(m, j)
    products of halves, so |c_j| <= weight 2^m prod M_i < 2^(s - 2) for
    s = bit_length(weight 2^m prod M_i) + 2: `unpack` reads it back."""
    return (weight * bound << m).bit_length() + 2


def pack(x, y, s):
    """The packed ints X + 2^s Y; x itself when y is None (rational)."""
    return [a + (b << s) for a, b in zip(x, y)] if y else x


def scalars(sums, s, d, den):
    """{key: n / den} over the (key, n) pairs `sums` of non-zero value, n
    unpacked to R + sqrt(d) S over Q(sqrt(d))."""
    if not d:
        return {key: to_scalar(n, 0, 0, den) for key, n in sums if n}
    pairs = ((key, unpack(n, s, d)) for key, n in sums)
    return {key: to_scalar(r, t, d, den) for key, (r, t) in pairs if r or t}


def unpack(n, s, d):
    """(R, S) = (Σ c_2i d^i, Σ c_2i+1 d^i) for the polynomial Σ c_j t^j
    with value n at t = 2^s and every c_j in [-2^(s-1), 2^(s-1)): its
    signed base-2^s digits, read two at a time."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    r, t, power = 0, 0, 1
    while n:
        c = ((n + half) & mask) - half
        n = (n - c) >> s
        e = ((n + half) & mask) - half
        n = (n - e) >> s
        r += c * power
        t += e * power
        power *= d
    return r, t


@cache
def _scatter_table(width, h):
    """For each h-subset s of range(width), in `combinations` order, the
    triples (j, t, odd) with e_j ^ e_s = (-1)^odd e_t for every column j
    outside s, t being the index of the (h+1)-subset s + {j}."""
    index = {t: i for i, t in enumerate(combinations(range(width), h + 1))}
    return tuple(
        tuple(
            (j, index[tuple(sorted(s + (j,)))], sum(i < j for i in s) & 1)
            for j in range(width)
            if j not in s
        )
        for s in combinations(range(width), h)
    )


def _wedge_row(out, row, part, table):
    """out += row ^ part in ints: `row` is a 1-form and `part` an h-form
    on the same columns, both coefficient lists, and `table` is
    _scatter_table(width, h)."""
    for f, scatter in zip(part, table):
        if f:
            for j, t, odd in scatter:
                if odd:
                    out[t] -= row[j] * f
                else:
                    out[t] += row[j] * f


def minor_sums(terms, matrix):
    """{J: Σ_I c_I det(matrix[I][J])} over the increasing 1-based k-tuples
    J of columns, non-zero values only, as Scalars.

    `terms` maps increasing 1-based row tuples I, all of one length k, to
    Scalars c_I; `matrix` is a sequence of rows of Scalars, all of one
    width.  Degree 0 gives {(): c}.  The sum is the pullback
    Σ_I c_I row_I1 ^ ... ^ row_Ik, taken by Horner's rule over index
    prefixes: the part with prefix P is Σ_r row_r ^ (the part with prefix
    P + (r,)), so k steps of `_wedge_row` give it.  Over Q(sqrt(d)) the
    coefficients and rows are packed ints: each sum is one of
    len(terms) * k! signed products of k + 1 factors.  Coefficients and
    matrix must share one radicand, else ScalarContextError."""
    items = [(idx, c) for idx, c in terms.items() if c]
    if not items:
        return {}
    k = len(items[0][0])
    if k == 0:
        return {(): items[0][1]}
    x, y, d, cden = read_off([c for _, c in items])
    mx, my, d, mden = read_off([e for row in matrix for e in row], d)
    s = d and shift(len(items) * factorial(k), k + 1, bound(x, y) * bound(mx, my) ** k)
    x, mx = pack(x, y, s), pack(mx, my, s)
    width = len(matrix[0])
    rows = [mx[i * width : (i + 1) * width] for i in range(len(matrix))]
    parts = {idx: [a] for (idx, _), a in zip(items, x)}
    for h in range(k):
        table = _scatter_table(width, h)
        size = comb(width, h + 1)
        grown = {}
        for idx, f in parts.items():
            acc = grown.get(idx[:-1])
            if acc is None:
                acc = grown[idx[:-1]] = [0] * size
            _wedge_row(acc, rows[idx[-1] - 1], f, table)
        parts = grown
    return scalars(zip(combinations(range(1, width + 1), k), parts[()]), s, d, cden * mden**k)

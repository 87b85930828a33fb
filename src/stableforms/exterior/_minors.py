"""The one kernel behind every multilinear evaluation: sums of minors
Σ_I c_I det(M[I][J]) over all column tuples J, taken in Python ints as
the pullback Σ_I c_I M_I1 ^ ... ^ M_Ik of the rows, one row wedged in
per step (Horner's rule over index prefixes).  `linalg.det` is the same
pass on the top-degree form.

Scalars enter through `read_off`.  Each Scalar already is ints
(p + q sqrt(d)) / den, so a list of values v_i becomes integer vectors
X, Y over one common denominator L, the lcm of the dens, with
v_i = (X_i + Y_i sqrt(d)) / L for the single radicand d of the list.
Over Q(sqrt(d)) every wedge splits by linearity into wedges of the
rational and radical int halves.  Only the results become Scalars
again, through `scalar.to_scalar`.  `linalg` and `bilinear.signature`
work on the same read-off: `signature` by symmetric fraction-free
elimination (Bareiss), counting its pivots by Jacobi's rule and taking
a 2 x 2 pivot on a zero diagonal.
"""

from functools import cache
from itertools import combinations
from math import comb, lcm

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
    P + (r,)), so k steps of `_wedge_row` give it.  Over Q(sqrt(d)) a row
    X + sqrt(d) Y and a part f0 + sqrt(d) f1 give the rational half
    X^f0 + dY^f1 and the radical half X^f1 + Y^f0, with the wedges of Y
    skipped when Y is zero.  Coefficients and matrix must share one
    radicand, else ScalarContextError."""
    items = [(idx, c) for idx, c in terms.items() if c]
    if not items:
        return {}
    k = len(items[0][0])
    if k == 0:
        return {(): items[0][1]}
    x, y, d, cden = read_off([c for _, c in items])
    mx, my, d, mden = read_off([e for row in matrix for e in row], d)
    width = len(matrix[0])
    rows = []
    for i in range(len(matrix)):
        cut = slice(i * width, (i + 1) * width)
        ry = my[cut] if d and any(my[cut]) else None
        rows.append((mx[cut], ry and [d * e for e in ry], ry))
    y = y or [0] * len(x)
    parts = {idx: ([a], [b]) for (idx, _), a, b in zip(items, x, y)}
    for h in range(k):
        table = _scatter_table(width, h)
        size = comb(width, h + 1)
        grown = {}
        for idx, (f0, f1) in parts.items():
            acc = grown.get(idx[:-1])
            if acc is None:
                acc = grown[idx[:-1]] = ([0] * size, [0] * size)
            rx, rdy, ry = rows[idx[-1] - 1]
            _wedge_row(acc[0], rx, f0, table)
            if d:
                _wedge_row(acc[1], rx, f1, table)
                if ry:
                    _wedge_row(acc[0], rdy, f1, table)
                    _wedge_row(acc[1], ry, f0, table)
        parts = grown
    rat, rad = parts[()]
    den = cden * mden**k
    return {
        J: to_scalar(p, q, d, den)
        for J, p, q in zip(combinations(range(1, width + 1), k), rat, rad)
        if p or q
    }

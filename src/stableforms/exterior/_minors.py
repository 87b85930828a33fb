"""The one kernel behind every multilinear evaluation: sums of minors
Σ_I c_I det(M[I][J]) taken in Python ints.  `linalg.det` is its minor
sum of the top-degree form.

Scalars enter through `read_off`.  Each Scalar already is ints
(p + q sqrt(d)) / den, so a list of values v_i becomes integer vectors
X, Y over one common denominator L, the lcm of the dens, with
v_i = (X_i + Y_i sqrt(d)) / L for the single radicand d of the list.
Over Q(sqrt(d)) the minors are taken in int pairs (p, q) standing for
p + q sqrt(d).  Only the results become Scalars again, through
`scalar.to_scalar`.  `linalg` and `bilinear.signature` work on the same
read-off: `signature` by symmetric fraction-free elimination (Bareiss),
counting its pivots by Jacobi's rule and taking a 2 x 2 pivot on a zero
diagonal.
"""

from math import lcm

from .scalar import ZERO, join_radicands, to_scalar


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


def _int_minor(m, memo, rows, cols):
    """det(m[rows][cols]) of the int matrix m: written out up to 2 x 2,
    memoised in memo from 3 x 3.  The recursion runs through module
    functions, not closures, so no reference cycle outlives a call."""
    if len(rows) == 2:
        a, b = m[rows[0]], m[rows[1]]
        i, j = cols
        return a[i] * b[j] - a[j] * b[i]
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    key = (rows, cols)
    v = memo.get(key)
    if v is None:
        v = memo[key] = _int_expand(m, memo, rows, cols)
    return v


def _int_expand(m, memo, rows, cols):
    """det(m[rows][cols]) by Laplace expansion along the first row,
    memoising the sub-minors only."""
    first, rest = m[rows[0]], rows[1:]
    v = 0
    for p, c in enumerate(cols):
        e = first[c]
        if e:
            t = e * _int_minor(m, memo, rest, cols[:p] + cols[p + 1 :])
            v = v - t if p & 1 else v + t
    return v


def _pair_minor(m, d, memo, rows, cols):
    """As _int_minor, for a matrix of int pairs (p, q) = p + q sqrt(d);
    every minor from 2 x 2 up is memoised."""
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    key = (rows, cols)
    v = memo.get(key)
    if v is None:
        v = memo[key] = _pair_expand(m, d, memo, rows, cols)
    return v


def _pair_expand(m, d, memo, rows, cols):
    """As _int_expand, over int pairs."""
    first, rest = m[rows[0]], rows[1:]
    v0 = v1 = 0
    for p, c in enumerate(cols):
        e0, e1 = first[c]
        if e0 or e1:
            s0, s1 = _pair_minor(m, d, memo, rest, cols[:p] + cols[p + 1 :])
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
        return [ZERO] * len(cols)
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
    rows = [tuple(i - 1 for i in idx) for idx, _ in items]
    den = cden * mden**k
    memo = {}
    out = []
    for big in cols:
        js = tuple(j - 1 for j in big)
        if k == 1:
            dets = [m[r][js[0]] for r, in rows]
        elif my is None:
            dets = [_int_expand(m, memo, r, js) for r in rows]
        else:
            dets = [_pair_expand(m, d, memo, r, js) for r in rows]
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


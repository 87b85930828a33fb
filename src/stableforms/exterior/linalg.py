"""Dense exact linear algebra over Scalar entries.

Matrices are tuples of row tuples.  Dimensions stay tiny (at most 8).
Every routine reads its entries off as integers with `_minors.read_off`
(Python ints over Q, int pairs p + q sqrt(d) over Q(sqrt(d))), works in
those and builds Scalars only for its result:
- `det` is the top-degree minor sum of `_minors.minor_sums`, the
  wedge of the n rows taken one row at a time;
- `mat_mul`, `mat_vec` and `gram` share one integer matrix product;
- `rref` is fraction-free Gauss-Jordan elimination, behind `rank`,
  `kernel`, `inverse` and `solve`; its row steps also drive the
  symmetric elimination of `bilinear.signature`.
Plain ints and Fractions are accepted wherever Scalars are.  The
read-off takes one radicand per call, so each routine raises
ScalarContextError on input mixing two, say sqrt(2) and sqrt(3), even
where no entry meets an entry of the other kind: rref(diag(sqrt(2),
sqrt(3))) raises.  Inner sizes that disagree raise DimensionError.
"""

from operator import mul

from ..errors import DimensionError
from ._minors import minor_sums, read_off, to_scalar
from .scalar import ONE, ZERO, Scalar


def coerce_vector(v):
    """v as a tuple of Scalars; a vector whose entries all are Scalars
    is kept as it is."""
    v = tuple(v)
    if {Scalar}.issuperset(map(type, v)):
        return v
    return tuple(map(Scalar.coerce, v))


def coerce_matrix(rows):
    out = tuple(coerce_vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def transpose(m):
    return tuple(zip(*m)) if m else ()


def _int_rows(flat, n, width):
    """The n rows of width `width` of the flat list."""
    return [flat[i * width : (i + 1) * width] for i in range(n)]


def _product(factors, width):
    """The product of the matrices `factors`, the last with `width`
    columns.  All entries are read off at once as (X + sqrt(d) Y) / L, and
    the product is accumulated from the right in ints: over Q(sqrt(d)) a
    factor X + sqrt(d) Y acts as the block matrix [[X, dY], [Y, X]] on the
    rational part stacked over the radical part.  The entries become
    Scalars once, over L to the number of factors."""
    mats = [coerce_matrix(f) for f in factors]
    for a, b in zip(mats, mats[1:]):
        if a and len(a[0]) != len(b):
            raise DimensionError(f"cannot multiply {len(a[0])} columns into {len(b)} rows")
    x, y, d, den = read_off([e for m in mats for row in m for e in row])
    parts, pos = [], 0
    for m in mats:
        w = len(m[0]) if m else 0
        end = pos + len(m) * w
        parts.append((_int_rows(x[pos:end], len(m), w), _int_rows(y[pos:end], len(m), w) if d else None))
        pos = end
    xs, ys = parts.pop()
    acc = xs + ys if d else xs
    for xs, ys in reversed(parts):
        if d:
            xs = [r + [d * e for e in s] for r, s in zip(xs, ys)] + [s + r for r, s in zip(xs, ys)]
        cols = list(zip(*acc)) or [()] * width
        acc = [[sum(map(mul, row, col)) for col in cols] for row in xs]
    den **= len(mats)
    n = len(mats[0])
    rad = acc[n:] if d else [[0] * width] * n
    return tuple(
        tuple(to_scalar(p, q, d, den) for p, q in zip(r, s)) for r, s in zip(acc[:n], rad)
    )


def mat_vec(m, v):
    return tuple(row[0] for row in _product((m, [(e,) for e in v]), 1))


def mat_mul(a, b):
    return _product((a, b), len(b[0]) if b else 0)


def gram(us, b, vs):
    """The matrix [B(u_i, v_j)] = U B V^T of the bilinear form with matrix
    b on the vectors us and vs."""
    vs = coerce_matrix(vs)
    vt = transpose(vs) if vs else ((),) * len(b)  # n x 0 when vs is empty
    return _product((us, b, vt), len(vs))


def _square(m, what):
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError(f"{what} needs a square matrix")
    return n


def det(m):
    """Determinant of a square matrix: the one minor sum of the
    top-degree form, the wedge of its rows taken in ints by
    `_minors.minor_sums` (1 for the 0 x 0 matrix).  Entries must share
    one radicand, else ScalarContextError."""
    m = coerce_matrix(m)
    full = tuple(range(1, _square(m, "det") + 1))
    return minor_sums({full: ONE}, m).get(full, ZERO)


def _eliminate(rows, nc, zero, one, step):
    """Fraction-free Gauss-Jordan on the int rows in place: the pivot of
    each column is its first non-zero entry at or below the current row,
    and every other row i becomes (p * row_i - row_i[c] * pivot_row) / prev
    for the pivot p and the previous pivot prev, `one` at first (Bareiss
    1968; Nakos, Turner and Williams 1997).  Each entry is then a minor of
    the input, so every division is exact, and all pivot entries end equal
    to the last pivot.  `step(p, f, a, b, prev)` maps the rows a, b to the
    new row.  Returns (pivot columns, last pivot)."""
    nr = len(rows)
    pivots, prev = [], one
    for c in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if rows[i][c] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(nr):
            if i != r:
                rows[i] = step(p, rows[i][c], rows[i], top, prev)
        pivots.append(c)
        prev = p
        if r + 1 == nr:
            break
    return pivots, prev


def _int_step(p, f, a, b, prev):
    if f:
        return [(p * x - f * y) // prev for x, y in zip(a, b)]
    return [p * x // prev for x in a]


def _pair_step(d):
    """The elimination step on int pairs (s, t) = s + t sqrt(d).  Division
    by prev = (q0, q1) multiplies by its conjugate and divides both parts
    exactly by the norm q0^2 - d q1^2."""

    def step(p, f, a, b, prev):
        (p0, p1), (f0, f1), (q0, q1) = p, f, prev
        dp1, df1 = d * p1, d * f1
        out = [
            (p0 * x0 + dp1 * x1 - f0 * y0 - df1 * y1, p0 * x1 + p1 * x0 - f0 * y1 - f1 * y0)
            for (x0, x1), (y0, y1) in zip(a, b)
        ]
        if not q1:
            return [(s // q0, t // q0) for s, t in out]
        dq1, norm = d * q1, q0 * q0 - d * q1 * q1
        return [((s * q0 - t * dq1) // norm, (t * q0 - s * q1) // norm) for s, t in out]

    return step


def rref(m):
    """Reduced row-echelon form of a matrix of Scalars or plain numbers;
    returns (rows, pivot_columns).  The entries are read off as ints (int
    pairs over Q(sqrt(d))) and eliminated fraction-free; each row of the
    result is its int row over the last pivot."""
    m = coerce_matrix(m)
    nc = len(m[0]) if m else 0
    x, y, d, _ = read_off([e for row in m for e in row])
    if d:
        rows = _int_rows(list(zip(x, y)), len(m), nc)
        pivots, (q0, q1) = _eliminate(rows, nc, (0, 0), (1, 0), _pair_step(d))
        # row / last pivot = row * conj(last pivot) / norm(last pivot)
        norm = q0 * q0 - d * q1 * q1
        rows = [[(s * q0 - d * t * q1, t * q0 - s * q1) for s, t in row] for row in rows]
    else:
        rows = _int_rows(x, len(m), nc)
        pivots, norm = _eliminate(rows, nc, 0, 1, _int_step)
        rows = [[(s, 0) for s in row] for row in rows]
    return [tuple(to_scalar(s, t, d, norm) for s, t in row) for row in rows], pivots


def rank(m):
    return len(rref(m)[1])


def kernel(m):
    """Basis of the right null space, one vector per free column."""
    rows, pivots = rref(m)
    nc = len(m[0]) if m else 0
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * nc
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def _solve(m, columns):
    """X with m X = columns for a square m, one row of `columns` per
    equation: [m | columns] reduced once, the pivots checked once."""
    n = len(m)
    rows, pivots = rref([tuple(m[i]) + tuple(columns[i]) for i in range(n)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[n:] for row in rows)


def inverse(m):
    return _solve(m, identity(_square(m, "inverse")))


def solve(m, rhs):
    """Solve m x = rhs for invertible square m."""
    n = _square(m, "solve")
    if len(rhs) != n:
        raise DimensionError(f"right-hand side of length {len(rhs)} for {n} equations")
    return tuple(row[0] for row in _solve(m, [(e,) for e in rhs]))

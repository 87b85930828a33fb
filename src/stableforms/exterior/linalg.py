"""Dense exact linear algebra over Scalar entries.

Matrices are tuples of row tuples.  Dimensions stay tiny (at most 8).
`det` is the top-degree minor sum of the integer kernel in `_minors`;
`rref` is the one Gaussian elimination, with exact division, behind
`rank`, `kernel`, `inverse` and `solve`.
"""

from ._minors import minor_sums
from .scalar import Scalar

_ZERO = Scalar(0)
_ONE = Scalar(1)


def coerce_vector(v):
    return tuple(Scalar.coerce(x) for x in v)


def coerce_matrix(rows):
    out = tuple(coerce_vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n):
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_vec(m, v):
    v = coerce_vector(v)
    return tuple(sum((row[j] * v[j] for j in range(len(v))), _ZERO) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), _ZERO) for col in bt)
        for row in a
    )


def det(m):
    """Determinant of a square Scalar matrix: the one minor sum of the
    top-degree form, taken in ints by `_minors.minor_sums` (1 for the
    0 x 0 matrix).  Entries must share one radicand, else
    ScalarContextError."""
    full = tuple(range(1, len(m) + 1))
    return minor_sums({full: _ONE}, m, [full])[0]


def rref(m):
    """Reduced row-echelon form of a matrix of Scalars or plain numbers;
    returns (rows, pivot_columns)."""
    rows = [list(coerce_vector(r)) for r in m]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return [tuple(row) for row in rows], pivots


def rank(m):
    return len(rref(m)[1])


def kernel(m):
    """Basis of the right null space, one vector per free column."""
    rows, pivots = rref(m)
    nc = len(m[0]) if m else 0
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * nc
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def inverse(m):
    n = len(m)
    aug = [list(m[i]) + [(_ONE if i == j else _ZERO) for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def solve(m, rhs):
    """Solve m x = rhs for invertible square m."""
    n = len(m)
    aug = [list(m[i]) + [Scalar.coerce(rhs[i])] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(rows[i][n] for i in range(n))

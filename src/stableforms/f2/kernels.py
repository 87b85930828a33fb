"""Bit-packed GF(2) kernels in pure Python.

Rows are Python ints with column j (0-based, counted from the left of an
n-column matrix) stored at bit (n - 1 - j), so the leftmost column is
the most significant bit.

- `rank` and `rref` run one pivot-dict echelon pass; `rref` then reduces
  each pivot row by the lower pivot rows, in ascending pivot order, so
  every row it reads is already reduced.
- `enumerate_rref(n, k)` lists one canonical RREF per k-subspace of
  F2^n: pivot sets in `itertools.combinations` order, and within a pivot
  set the free entries counted as one binary number whose lowest bit is
  row 0's leftmost free column (row 0's free bits vary fastest).
- `count_decomposable_nonzero(n)` is the closed form [n, 2]_2 for the
  number of rank-2 alternating n x n matrices over GF(2) (MacWilliams
  1969); the tests check it against two exhaustive scans.
"""

from itertools import combinations, product

IMPL = "python"


def _echelon(rows):
    """Pivot dict {leading bit: row}; its size is the rank."""
    piv = {}
    for v in rows:
        while v:
            m = v.bit_length() - 1
            p = piv.get(m)
            if p is None:
                piv[m] = v
                break
            v ^= p
    return piv


def rank(rows):
    return len(_echelon(rows))


def rref(rows):
    """Canonical reduced row-echelon rows, leading bit descending."""
    piv = _echelon(rows)
    done = []
    for m in sorted(piv):
        v = piv[m]
        for bit, r in done:
            if v & bit:
                v ^= r
        done.append((1 << m, v))
    return tuple(v for _, v in reversed(done))


def enumerate_rref(n, k):
    """All canonical RREF row-tuples of k-dimensional subspaces of F2^n."""
    if k == 0:
        return [()]
    out = []
    for pivots in combinations(range(n), k):
        options = []
        for p in reversed(pivots):
            opts = [1 << (n - 1 - p)]
            for c in range(p + 1, n):
                if c not in pivots:
                    bit = 1 << (n - 1 - c)
                    opts += [o | bit for o in opts]
            options.append(opts)
        # product varies its last factor fastest, and that factor is row 0
        out += [rows[::-1] for rows in product(*options)]
    return out


def count_decomposable_nonzero(n):
    """Number of non-zero alternating classes on n letters whose
    coefficient matrix has rank <= 2 over GF(2): the rank-2 alternating
    n x n matrices, [n, 2]_2 = (2^n - 1)(2^(n-1) - 1)/3."""
    if n > 8:
        raise ValueError("count is capped at 8 letters (2^28 classes)")
    if n < 2:
        return 0
    return (2**n - 1) * (2 ** (n - 1) - 1) // 3

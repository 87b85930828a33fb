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
- `count_decomposable_nonzero(n)` walks every non-zero degree-2 class on
  n letters in Gray-code order, toggling one pair per step.
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
    coefficient matrix has rank <= 2 over GF(2)."""
    if n > 8:
        raise ValueError("scan is capped at 8 letters (2^28 classes)")
    flips = [(i, 1 << i, j, 1 << j) for i, j in combinations(range(n), 2)]
    rows = [0] * n
    count = 0
    for g in range(1, 1 << len(flips)):
        # Gray code: step g toggles the pair at g's lowest set bit
        i, bi, j, bj = flips[(g & -g).bit_length() - 1]
        rows[i] ^= bj
        rows[j] ^= bi
        # rank <= 2 iff at most three distinct non-zero rows: a 2-space
        # holds three non-zero vectors, and three rows never span a
        # 3-space because an alternating matrix has even rank
        s = set(rows)
        s.discard(0)
        if len(s) <= 3:
            count += 1
    return count

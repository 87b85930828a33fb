"""Bit-packed matrices over the two-element field (at most 24 columns).

Column j (1-based from the left) of an n-column matrix sits at bit
n - j, so the leftmost column is the most significant bit and reduced
row-echelon rows print in the familiar order.

The public constructor validates its rows.  Rows that a kernel in
`kernels` built (`rref` output, `enumerate_rref` tuples) are canonical
and in range by construction, and are wrapped by `_trusted` without
checks.
"""

import operator

from ..errors import DimensionError
from . import kernels

MAX_COLS = 24


class F2Matrix:
    """Rows of bits over GF(2); hashable and immutable."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        if not 1 <= n <= MAX_COLS:
            raise DimensionError(f"column count {n} outside 1..{MAX_COLS}")
        rows = tuple(map(operator.index, rows))
        if rows and (min(rows) < 0 or max(rows) >> n):
            raise DimensionError("row does not fit in the column count")
        self.n = n
        self.rows = rows

    @classmethod
    def _trusted(cls, n, rows):
        """Wrap a tuple of rows that a kernel built; no checks."""
        m = object.__new__(cls)
        m.n = n
        m.rows = rows
        return m

    @classmethod
    def zero(cls, nrows, n):
        return cls(n, (0,) * nrows)

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(1 << (n - 1 - i) for i in range(n)))

    @classmethod
    def from_bit_rows(cls, bit_rows):
        """Build from equal-length rows of 0/1 entries (leftmost first)."""
        if not bit_rows:
            raise DimensionError("need at least one row to fix the column count")
        n = len(bit_rows[0])
        rows = []
        for br in bit_rows:
            if len(br) != n:
                raise DimensionError("rows have different lengths")
            v = 0
            for bit in br:
                v = (v << 1) | (1 if bit else 0)
            rows.append(v)
        return cls(n, rows)

    @property
    def nrows(self):
        return len(self.rows)

    def entry(self, i, j):
        """Entry in row i, column j (both 1-based)."""
        return (self.rows[i - 1] >> (self.n - j)) & 1

    def rank(self):
        return kernels.rank(self.rows)

    def rref(self):
        return F2Matrix._trusted(self.n, kernels.rref(self.rows))

    def is_rref(self):
        return self.rows == kernels.rref(self.rows) and 0 not in self.rows

    def transpose(self):
        out = []
        for j in range(1, self.n + 1):
            v = 0
            for i in range(1, self.nrows + 1):
                v = (v << 1) | self.entry(i, j)
            out.append(v)
        return F2Matrix(self.nrows, out)

    def mul(self, other):
        if not isinstance(other, F2Matrix):
            raise TypeError(f"cannot multiply an F2Matrix by {type(other).__name__}")
        if self.n != other.nrows:
            raise DimensionError("inner dimensions disagree")
        out = []
        for row in self.rows:
            acc = 0
            for j in range(self.n):
                if (row >> (self.n - 1 - j)) & 1:
                    acc ^= other.rows[j]
            out.append(acc)
        return F2Matrix(other.n, out)

    def add(self, other):
        if not isinstance(other, F2Matrix):
            raise TypeError(f"cannot add {type(other).__name__} to an F2Matrix")
        if self.n != other.n or self.nrows != other.nrows:
            raise DimensionError("shapes disagree")
        return F2Matrix(self.n, tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    def inverse(self):
        n = self.n
        if self.nrows != n:
            raise DimensionError("only square matrices invert")
        # Gauss-Jordan on (A | I) packed into 2n-bit rows.
        aug = [
            (self.rows[i] << n) | (1 << (n - 1 - i)) for i in range(n)
        ]
        reduced = kernels.rref(aug)
        if len(reduced) != n or any((row >> n) != (1 << (n - 1 - i)) for i, row in enumerate(reduced)):
            raise ZeroDivisionError("matrix is singular over GF(2)")
        mask = (1 << n) - 1
        return F2Matrix(n, tuple(row & mask for row in reduced))

    def __eq__(self, other):
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        body = ", ".join(format(r, f"0{self.n}b") for r in self.rows)
        return f"F2Matrix({self.n}, [{body}])"

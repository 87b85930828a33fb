"""Exact scalars in Q and in real quadratic extensions Q(sqrt(d)).

A Scalar is a + b*sqrt(d) with a, b rational and d a square-free
non-negative integer; d == 0 encodes a plain rational.  Values carrying
two different non-trivial radicands cannot be combined -- one radical
per computation is all the rest of the library needs.  Sign queries are
answered exactly; floating point never enters.
"""

import re
from fractions import Fraction
from math import isqrt

from ..errors import ScalarContextError

_ZERO = Fraction(0)


# Trial division stops here; past it a radicand is refused, not factored.
_TRIAL_LIMIT = 1 << 21
# Each trial division costs time in proportion to the radicand's length,
# so a longer radicand that is not a perfect square is refused up front.
_MAX_RADICAND_BITS = 2048


def square_free_split(n):
    """Write n >= 0 as s*s*d with d square-free; return (s, d).

    Trial division runs only while p**3 <= m.  The cofactor m left then
    has no prime factor below p and is below p**3, so it is 1, a prime,
    a product of two distinct primes or a prime square, and one isqrt
    tells them apart.  A radicand that still has p**3 <= m once p passes
    2**21, or that is longer than 2048 bits and not a perfect square,
    raises ScalarContextError.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 0
    if n.bit_length() > _MAX_RADICAND_BITS:
        r = isqrt(n)
        if r * r == n:
            return r, 1
        raise ScalarContextError(f"radicand of {n.bit_length()} bits is too large to factor")
    s, d, m = 1, 1, n
    p = 2
    while p * p * p <= m:
        if p > _TRIAL_LIMIT:
            raise ScalarContextError(f"radicand {n} is too large to factor")
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e & 1:
                d *= p
        p += 1 if p == 2 else 2
    if m >= p * p:  # below p*p the cofactor is 1 or a prime
        r = isqrt(m)
        if r * r == m:
            return s * r, d
    return s, d * m


# A denominator must hold a non-zero digit, so "1/0" is malformed input.
_UNSIGNED = r"\d+(?:/\d*[1-9]\d*)?"
_RAT = rf"[+-]?{_UNSIGNED}"
_PURE = re.compile(rf"(?P<b>{_RAT})\*sqrt\((?P<d>\d+)\)")
_MIXED = re.compile(rf"(?P<a>{_RAT})(?P<sgn>[+-])(?P<b>{_UNSIGNED})\*sqrt\((?P<d>\d+)\)")
_PLAIN = re.compile(_RAT)


class Scalar:
    """An exact number a + b*sqrt(d), immutable after construction."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=0):
        a = a if type(a) is Fraction else Fraction(a)
        if b:
            b = b if type(b) is Fraction else Fraction(b)
            s, d = square_free_split(int(d))
            b = b * s
            if d == 1:
                a, b, d = a + b, _ZERO, 0
            elif d == 0 or b == 0:
                b, d = _ZERO, 0
        else:
            b, d = _ZERO, 0
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def _rational(cls, a):
        # internal fast path: a is already a Fraction
        s = object.__new__(cls)
        s.a = a
        s.b = _ZERO
        s.d = 0
        return s

    @classmethod
    def _make(cls, a, b, d):
        # internal fast path: components already canonical (d square-free)
        s = object.__new__(cls)
        s.a = a
        if b and d:
            s.b = b
            s.d = d
        else:
            s.b = _ZERO
            s.d = 0
        return s

    # -- construction helpers ------------------------------------------

    @staticmethod
    def coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")

    @staticmethod
    def sqrt(x):
        """Exact square root of a non-negative rational."""
        if isinstance(x, Scalar):
            if not x.is_rational:
                raise ScalarContextError("nested radicals are not supported")
            x = x.a
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        if x == 0:
            return Scalar(0)
        s, d = square_free_split(x.numerator * x.denominator)
        return Scalar(0, Fraction(s, x.denominator), d)

    # -- field arithmetic ----------------------------------------------

    def _join(self, other):
        if self.d == 0 or other.d == 0 or self.d == other.d:
            return self.d or other.d
        raise ScalarContextError(
            f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
        )

    def __add__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.d == other.d:  # covers the common rational-rational case
            return Scalar._make(self.a + other.a, self.b + other.b, self.d)
        d = self._join(other)
        return Scalar._make(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.d == other.d:
            return Scalar._make(self.a - other.a, self.b - other.b, self.d)
        d = self._join(other)
        return Scalar._make(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return Scalar._make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.d == 0 and other.d == 0:
            return Scalar._rational(self.a * other.a)
        d = self._join(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return Scalar._make(a, b, d)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("scalar is zero")
        if self.b == 0:
            return Scalar._rational(1 / self.a)
        den = self.a * self.a - self.b * self.b * self.d
        return Scalar._make(self.a / den, -self.b / den, self.d)

    def __truediv__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Scalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact ordering -------------------------------------------------

    def sign(self):
        """Exact sign in {-1, 0, +1}."""
        if self.b == 0:
            return -1 if self.a < 0 else (1 if self.a > 0 else 0)
        if self.a == 0:
            return -1 if self.b < 0 else 1
        sa = -1 if self.a < 0 else 1
        sb = -1 if self.b < 0 else 1
        if sa == sb:
            return sa
        t = self.a * self.a - self.b * self.b * self.d
        if t > 0:
            return sa
        if t < 0:
            return sb
        return 0

    @property
    def is_rational(self):
        return self.b == 0

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return (self - Scalar.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - Scalar.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - Scalar.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - Scalar.coerce(other)).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    # -- serialization ----------------------------------------------------
    # Grammar: "p/q" for rationals, "p/q+r/s*sqrt(d)" otherwise (the "-"
    # separator and a bare radical term are also accepted on input).

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        rad = f"{abs(self.b)}*sqrt({self.d})"
        if self.a == 0:
            return rad if self.b > 0 else "-" + rad
        sep = "+" if self.b > 0 else "-"
        return f"{self.a}{sep}{rad}"

    def __repr__(self):
        return f"Scalar({str(self)!r})"

    @staticmethod
    def parse(text):
        if not isinstance(text, str):
            raise TypeError(f"scalar literal must be a string, got {text!r}")
        s = text.replace(" ", "")
        m = _MIXED.fullmatch(s)
        if m:
            b = Fraction(m.group("b"))
            if m.group("sgn") == "-":
                b = -b
            return Scalar(Fraction(m.group("a")), b, int(m.group("d")))
        m = _PURE.fullmatch(s)
        if m:
            return Scalar(0, Fraction(m.group("b")), int(m.group("d")))
        if _PLAIN.fullmatch(s):
            return Scalar(Fraction(s))
        raise ValueError(f"malformed scalar literal {text!r}")


ZERO = Scalar(0)
ONE = Scalar(1)

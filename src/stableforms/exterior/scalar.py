"""Exact scalars in Q and in real quadratic extensions Q(sqrt(d)).

A Scalar is (p + q*sqrt(d)) / den with p, q and den Python ints: den > 0,
gcd(p, q, den) == 1, and d square-free and > 1, or d == 0 with q == 0 for
a plain rational.  So equal values have equal fields.  Every result is
built by `to_scalar`, which divides out one gcd; the kernels in `_minors`
read values off as the same ints.  Values carrying two different
non-trivial radicands cannot be combined -- one radical per computation
is all the rest of the library needs (`join_radicands`).  Sign queries
are answered exactly; floating point never enters.
"""

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm

from ..errors import ScalarContextError

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


def join_radicands(d, e):
    """The radicand of a value combining one over Q(sqrt(d)) with one over
    Q(sqrt(e)), 0 standing for Q; two different non-trivial radicands
    raise ScalarContextError."""
    if not e or d == e:
        return d
    if not d:
        return e
    raise ScalarContextError(f"mixed radicands sqrt({d}) and sqrt({e})")


def to_scalar(p, q, d, den):
    """The Scalar (p + q*sqrt(d)) / den for ints p, q and den != 0, with d
    square-free and > 1, or 0 (then q is ignored).  The one constructor of
    every result: it divides out gcd(p, q, den) and makes den positive."""
    if not d:
        q = 0
    elif not q:
        d = 0
    g = gcd(p, q, den)
    if den < 0:
        g = -g
    x = object.__new__(Scalar)
    if g == 1:
        x.p, x.q, x.den, x.d = p, q, den, d
    else:
        x.p, x.q, x.den, x.d = p // g, q // g, den // g, d
    return x


def _fraction(x):
    """x as a Fraction: ints and Fractions are the only exact input."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


@total_ordering
class Scalar:
    """An exact number a + b*sqrt(d), stored as (p + q*sqrt(d)) / den;
    immutable after construction."""

    __slots__ = ("p", "q", "den", "d")

    def __init__(self, a=0, b=0, d=0):
        a, b = _fraction(a), _fraction(b)
        if not isinstance(d, int):
            raise TypeError(f"radicand must be an int, got {d!r}")
        if b and d:
            s, d = square_free_split(d)
            b *= s
            if d == 1:
                a, d = a + b, 0
        else:
            d = 0
        den = lcm(a.denominator, b.denominator) if d else a.denominator
        self.p = a.numerator * (den // a.denominator)
        self.q = b.numerator * (den // b.denominator) if d else 0
        self.den = den
        self.d = d

    @property
    def a(self):
        """The rational part p / den, as a Fraction."""
        return Fraction(self.p, self.den)

    @property
    def b(self):
        """The coefficient q / den of sqrt(d), as a Fraction."""
        return Fraction(self.q, self.den)

    # -- construction helpers ------------------------------------------

    @staticmethod
    def coerce(x):
        return x if isinstance(x, Scalar) else Scalar(x)

    @staticmethod
    def sqrt(x):
        """Exact square root of a non-negative rational: an int, a
        Fraction or a rational Scalar."""
        x = Scalar.coerce(x)
        if x.q:
            raise ScalarContextError("nested radicals are not supported")
        if x.p < 0:
            raise ValueError("square root of a negative rational")
        s, d = square_free_split(x.p * x.den)
        if d == 1:
            return to_scalar(s, 0, 0, x.den)
        return to_scalar(0, s, d, x.den)

    # -- field arithmetic ----------------------------------------------

    def _add(self, other, sign):
        """self + sign * other over the denominator den * oden."""
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        den, oden = self.den, other.den
        return to_scalar(
            self.p * oden + sign * other.p * den,
            self.q * oden + sign * other.q * den,
            join_radicands(self.d, other.d),
            den * oden,
        )

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return to_scalar(-self.p, -self.q, self.d, self.den)

    def __mul__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        d = join_radicands(self.d, other.d)
        p = self.p * other.p + self.q * other.q * d
        q = self.p * other.q + self.q * other.p
        return to_scalar(p, q, d, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """den / (p + q*sqrt(d)) = den*(p - q*sqrt(d)) / (p*p - q*q*d)."""
        p, q, d = self.p, self.q, self.d
        if not (p or q):
            raise ZeroDivisionError("scalar is zero")
        return to_scalar(self.den * p, -self.den * q, d, p * p - q * q * d)

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
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact ordering -------------------------------------------------

    def sign(self):
        """Exact sign in {-1, 0, +1}: the sign of p + q*sqrt(d), as den > 0."""
        p, q = self.p, self.q
        if not q:
            return -1 if p < 0 else (1 if p > 0 else 0)
        if not p:
            return -1 if q < 0 else 1
        sa = -1 if p < 0 else 1
        sb = -1 if q < 0 else 1
        if sa == sb:
            return sa
        t = p * p - q * q * self.d
        if t > 0:
            return sa
        if t < 0:
            return sb
        return 0

    @property
    def is_rational(self):
        return not self.q

    def __bool__(self):
        return bool(self.p) or bool(self.q)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return (
            self.p == other.p and self.q == other.q
            and self.den == other.den and self.d == other.d
        )

    def __hash__(self):
        if not self.q:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return (self - Scalar.coerce(other)).sign() < 0

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    # -- serialization ----------------------------------------------------
    # Grammar: "p/q" for rationals, "p/q+r/s*sqrt(d)" otherwise (the "-"
    # separator and a bare radical term are also accepted on input).

    def __str__(self):
        if not self.q:
            return str(self.a)
        rad = f"{abs(self.b)}*sqrt({self.d})"
        if not self.p:
            return rad if self.q > 0 else "-" + rad
        sep = "+" if self.q > 0 else "-"
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

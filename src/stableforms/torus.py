"""Exact exterior calculus on the n-torus (optionally times a t-interval).

Coefficient functions are finite Fourier sums sum_k c_k exp(i k.x),
stored in the complex-exponential basis so that products are single
convolutions.  A TrigScalar keeps Gaussian-integer numerators (re, im)
over one positive denominator, reduced so that equal values compare
equal; d/dx_j multiplies a numerator by i*k_j and keeps the denominator,
and only a product multiplies denominators.  Realness (c_{-k} =
conj(c_k)) is checked where a caller builds a TrigScalar from GaussQ
coefficients; sums, products and derivatives of real scalars are real,
so their results are wrapped without the check.  An optional formal
parameter t enters polynomially and is only ever substituted at rational
values.  Evaluation is exact at points where every active frequency
satisfies k.x in (pi/2)Z, since exp(i k.x) is then a fourth root of
unity.

TrigForm's constructor, sums, wedge and d, and TrigScalar's constructor,
run on the sparse term algebra of `stableforms.exterior.forms`
(`_canonical_terms`, `_sum_terms`, `_wedge_terms`, `_add_term`), the
one that KForm uses, and TrigForm takes its sums, negation, equality
and JSON text from KForm's base `_SparseForm`; `TrigScalar.__bool__`
(non-zero) is what lets those helpers drop zero sums.  Only TrigScalar's
int-pair sum and product accumulate on their own.
"""

import operator
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import DimensionError
from .exterior import KForm, Scalar
from .exterior.forms import (
    _add_term,
    _canonical_terms,
    _json_int,
    _json_ints,
    _SparseForm,
    _wedge_terms,
    sort_signed,
)
from .exterior.scalar import _fraction


class GaussQ:
    """A Gaussian rational re + i*im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _fraction(re)
        self.im = _fraction(im)

    @staticmethod
    def coerce(x):
        if isinstance(x, GaussQ):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussQ(x)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")

    def __add__(self, other):
        other = GaussQ.coerce(other)
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussQ.coerce(other)
        return GaussQ(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussQ.coerce(other)
        return GaussQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conj(self):
        return GaussQ(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            other = GaussQ.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussQ({self.re}, {self.im})"

    def __str__(self):
        return f"{self.re}+i*{self.im}"

    @staticmethod
    def parse(text):
        if not isinstance(text, str):
            raise TypeError(f"complex literal must be a string, got {text!r}")
        re_part, _, im_part = text.replace(" ", "").partition("+i*")
        if not _:
            raise ValueError(f"malformed complex literal {text!r}")
        try:
            return GaussQ(Fraction(re_part), Fraction(im_part))
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc

    def __complex__(self):
        return complex(float(self.re), float(self.im))


_QUARTER_TURNS = (
    GaussQ(1, 0),
    GaussQ(0, 1),
    GaussQ(-1, 0),
    GaussQ(0, -1),
)


class TrigScalar:
    """A real-valued trigonometric polynomial, optionally polynomial in t.

    num: {(frequency tuple, t-degree): (re, im)} with non-zero int pairs,
    over one positive int den; gcd(den, every re and im) == 1, so equal
    values have equal representations.  The public constructor takes
    Gaussian-rational coefficients and enforces the reality pairing
    c[(-k, m)] == conj(c[(k, m)]); ring and calculus results keep it by
    construction and are wrapped by `_trusted`.
    """

    __slots__ = ("dim", "num", "den", "_terms")

    def __init__(self, dim, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        canon = {}
        for (freq, tdeg), c in items:
            freq = tuple(map(operator.index, freq))
            if len(freq) != dim:
                raise DimensionError(f"frequency {freq} has wrong length")
            tdeg = operator.index(tdeg)
            if tdeg < 0:
                raise DimensionError("negative t-degree")
            _add_term(canon, (freq, tdeg), GaussQ.coerce(c), 1)
        for (freq, tdeg), c in canon.items():
            neg = tuple(-f for f in freq)
            if canon.get((neg, tdeg), GaussQ()) != c.conj():
                raise DimensionError(
                    f"coefficients at {freq} and {neg} are not conjugate"
                )
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(q.denominator for c in canon.values() for q in (c.re, c.im)))
        self.dim = dim
        self.num = {
            key: (c.re.numerator * (den // c.re.denominator),
                  c.im.numerator * (den // c.im.denominator))
            for key, c in canon.items()
        }
        self.den = den
        self._terms = None

    @classmethod
    def _trusted(cls, dim, num, den):
        """Wrap non-zero numerators over den > 0 that a ring or calculus
        operation built from real scalars; only the gcd is divided out."""
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            num = {key: (re // g, im // g) for key, (re, im) in num.items()}
            den //= g
        f = object.__new__(cls)
        f.dim = dim
        f.num = num
        f.den = den
        f._terms = None
        return f

    @property
    def terms(self):
        """Read-only {(frequency tuple, t-degree): GaussQ} view, built on
        first use."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType({
                key: GaussQ(Fraction(re, den), Fraction(im, den))
                for key, (re, im) in self.num.items()
            })
        return self._terms

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {((0,) * dim, 0): GaussQ.coerce(value)})

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def cos_wave(cls, dim, freq):
        freq = tuple(freq)
        half = GaussQ(Fraction(1, 2))
        # pair list, not a dict: both halves must accumulate at frequency 0
        return cls(dim, [((freq, 0), half), ((tuple(-f for f in freq), 0), half)])

    @classmethod
    def sin_wave(cls, dim, freq):
        freq = tuple(freq)
        mi_half = GaussQ(0, Fraction(-1, 2))  # 1/(2i)
        return cls(
            dim,
            [((freq, 0), mi_half), ((tuple(-f for f in freq), 0), -mi_half)],
        )

    @classmethod
    def t_monomial(cls, dim, degree=1, coeff=1):
        return cls(dim, {((0,) * dim, degree): GaussQ.coerce(coeff)})

    # -- ring structure ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @property
    def has_t(self):
        return any(tdeg for (_, tdeg) in self.num)

    def __add__(self, other):
        if not isinstance(other, TrigScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = TrigScalar.constant(self.dim, other)
        if self.dim != other.dim:
            raise DimensionError("mixed torus dimensions")
        den, oden = self.den, other.den
        if den == oden:
            out = dict(self.num)
            s = 1
        else:
            l = den // gcd(den, oden) * oden
            s = l // den
            out = {key: (re * s, im * s) for key, (re, im) in self.num.items()}
            den, s = l, l // oden
        for key, (re, im) in other.num.items():
            re *= s
            im *= s
            tot = out.get(key)
            if tot is not None:
                re += tot[0]
                im += tot[1]
            if re or im:
                out[key] = (re, im)
            else:
                del out[key]
        return TrigScalar._trusted(self.dim, out, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return TrigScalar._trusted(
            self.dim, {key: (-re, -im) for key, (re, im) in self.num.items()}, self.den
        )

    def __mul__(self, other):
        if not isinstance(other, TrigScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = TrigScalar.constant(self.dim, other)
        if self.dim != other.dim:
            raise DimensionError("mixed torus dimensions")
        out = {}
        for (f1, m1), (a, b) in self.num.items():
            for (f2, m2), (c, d) in other.num.items():
                key = (tuple(x + y for x, y in zip(f1, f2)), m1 + m2)
                re = a * c - b * d
                im = a * d + b * c
                tot = out.get(key)
                if tot is not None:
                    re += tot[0]
                    im += tot[1]
                if re or im:
                    out[key] = (re, im)
                elif tot is not None:
                    del out[key]
        return TrigScalar._trusted(self.dim, out, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TrigScalar):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.num == other.num

    def __repr__(self):
        return f"TrigScalar(dim={self.dim}, num={self.num!r}, den={self.den})"

    # -- calculus -----------------------------------------------------------

    def dx(self, j):
        """Partial derivative in the j-th torus coordinate (1-based):
        multiplication by i*k_j, over the same denominator."""
        if not 1 <= j <= self.dim:
            raise DimensionError(f"coordinate {j} outside 1..{self.dim}")
        out = {}
        for key, (re, im) in self.num.items():
            kj = key[0][j - 1]
            if kj:
                out[key] = (-kj * im, kj * re)
        return TrigScalar._trusted(self.dim, out, self.den)

    def dt(self):
        out = {}
        for (freq, m), (re, im) in self.num.items():
            if m:
                out[(freq, m - 1)] = (m * re, m * im)
        return TrigScalar._trusted(self.dim, out, self.den)

    # -- evaluation -----------------------------------------------------------

    def eval_exact(self, quarter_point, t=None):
        """Exact value at x = (pi/2) * quarter_point, a rational vector for
        which k.quarter_point is an integer for every active frequency."""
        q = tuple(Fraction(x) for x in quarter_point)
        if len(q) != self.dim:
            raise DimensionError("point has wrong length")
        if self.has_t and t is None:
            raise DimensionError("a rational t value is required")
        tval = None if t is None else Fraction(t)
        total = GaussQ()
        for (freq, m), c in self.terms.items():
            phase = sum(k * x for k, x in zip(freq, q))
            if phase.denominator != 1:
                raise DimensionError(
                    f"frequency {freq} is not exactly evaluable at this point"
                )
            val = c * _QUARTER_TURNS[phase.numerator % 4]
            if m:
                val = val * (tval**m)
            total = total + val
        assert total.im == 0  # realness invariant
        return total.re


class TrigForm(_SparseForm):
    """A differential form on T^n (or on an interval times T^n) whose
    coefficients are TrigScalars.  Index 0 denotes the dt-slot and is
    allowed only on cylinder forms (has_t set)."""

    __slots__ = ("has_t",)

    def __init__(self, dim, degree, terms=(), has_t=False):
        if not 1 <= dim <= 7:
            raise DimensionError("torus dimension outside 1..7")
        slots = dim + (1 if has_t else 0)
        if not 0 <= degree <= slots:
            raise DimensionError(f"degree {degree} outside 0..{slots}")

        def coerce(c):
            if not isinstance(c, TrigScalar):
                c = TrigScalar.constant(dim, c)
            if c.dim != dim:
                raise DimensionError("coefficient dimension mismatch")
            return c

        self.dim = dim
        self.degree = degree
        self.has_t = has_t
        self.terms = _canonical_terms(terms, degree, 0 if has_t else 1, dim, coerce)

    @classmethod
    def _trusted(cls, dim, degree, terms, has_t):
        """Wrap a dict of increasing in-range index tuples to non-zero
        TrigScalars that a form operation built; no checks."""
        f = object.__new__(cls)
        f.dim = dim
        f.degree = degree
        f.has_t = has_t
        f.terms = terms
        return f

    def _like(self, degree, terms):
        return TrigForm._trusted(self.dim, degree, terms, self.has_t)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim, degree, has_t=False):
        return cls(dim, degree, (), has_t)

    @classmethod
    def from_kform(cls, kf):
        """Promote a constant form; coefficients must be rational."""
        terms = {}
        for idx, c in kf.terms.items():
            if not c.is_rational:
                raise DimensionError("irrational coefficients have no Fourier lift")
            terms[idx] = TrigScalar.constant(kf.dim, c.a)
        return cls(kf.dim, kf.degree, terms)

    @classmethod
    def dt_form(cls, dim):
        return cls(dim, 1, {(0,): TrigScalar.constant(dim, 1)}, has_t=True)

    # -- structure ---------------------------------------------------------

    def with_t(self):
        """The same form regarded on the cylinder."""
        if self.has_t:
            return self
        return TrigForm._trusted(self.dim, self.degree, self.terms, True)

    def _check_compatible(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionError("incompatible forms")
        if self.has_t != other.has_t:
            raise DimensionError("mixed torus and cylinder forms")

    def scale(self, f):
        """Multiply by a TrigScalar (or rational) coefficient function."""
        if not isinstance(f, TrigScalar):
            f = TrigScalar.constant(self.dim, f)
        out = {}
        for i, c in self.terms.items():
            c = f * c
            if c:
                out[i] = c
        return TrigForm._trusted(self.dim, self.degree, out, self.has_t)

    def __repr__(self):
        return (
            f"TrigForm(dim={self.dim}, deg={self.degree}, has_t={self.has_t}, "
            f"{len(self.terms)} terms)"
        )

    def wedge(self, other):
        if not isinstance(other, TrigForm):
            raise TypeError(f"cannot wedge a TrigForm with {type(other).__name__}")
        if self.dim != other.dim or self.has_t != other.has_t:
            raise DimensionError("incompatible forms")
        deg = self.degree + other.degree
        slots = self.dim + (1 if self.has_t else 0)
        if deg > slots:
            raise DimensionError(f"degree {deg} outside 0..{slots}")
        return TrigForm._trusted(
            self.dim, deg, _wedge_terms(self.terms, other.terms), self.has_t
        )

    # -- calculus -------------------------------------------------------------

    def d(self):
        """Exterior derivative, including dt ^ d/dt on cylinder forms."""
        slots = self.dim + (1 if self.has_t else 0)
        if self.degree == slots:
            # Top-degree forms are closed; keep the result representable.
            return TrigForm.zero(self.dim, self.degree, self.has_t)
        out = {}
        for idx, f in self.terms.items():
            for j in range(0 if self.has_t else 1, self.dim + 1):
                if j not in idx:
                    merged, sgn = sort_signed((j,) + idx)
                    _add_term(out, merged, f.dt() if j == 0 else f.dx(j), sgn)
        return TrigForm._trusted(self.dim, self.degree + 1, out, self.has_t)

    # -- evaluation -------------------------------------------------------------

    def eval_exact(self, quarter_point, t=None):
        """Pointwise value as an exact KForm.  Cylinder forms evaluate on
        R^(dim+1) with the t-direction mapped to index 1; torus forms on
        R^dim with the identity indexing."""
        if self.has_t:
            if t is None:
                raise DimensionError("cylinder forms need a rational t value")
            shift = 1
            out_dim = self.dim + 1
        else:
            if t is not None:
                raise DimensionError("t given for a form without a t-slot")
            shift = 0
            out_dim = self.dim
        terms = {}
        for idx, f in self.terms.items():
            val = f.eval_exact(quarter_point, t)
            if val:
                terms[tuple(i + shift for i in idx)] = Scalar(val)
        return KForm(out_dim, self.degree, terms)

    # -- serialization -------------------------------------------------------------

    def to_json(self):
        entries = []
        for idx in sorted(self.terms):
            f = self.terms[idx]
            for (freq, tdeg) in sorted(f.terms):
                item = {
                    "idx": list(idx),
                    "freq": list(freq),
                    "c": str(f.terms[(freq, tdeg)]),
                }
                if tdeg:
                    item["tdeg"] = tdeg
                entries.append(item)
        return {
            "dim": self.dim,
            "degree": self.degree,
            "t": self.has_t,
            "terms": entries,
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json: `dim`, `degree`, `tdeg` and each `idx` and
        `freq` entry must be JSON integers, `idx` and `freq` lists, `t` a
        JSON boolean and `c` a string `re+i*im`."""
        try:
            dim = _json_int(obj["dim"])
            degree = _json_int(obj["degree"])
            scalars = {}
            for item in obj["terms"]:
                key = (_json_ints(item["freq"]), _json_int(item.get("tdeg", 0)))
                c = GaussQ.parse(item["c"])
                scalars.setdefault(_json_ints(item["idx"]), []).append((key, c))
            has_t = obj.get("t", False)
            if type(has_t) is not bool:
                raise TypeError(f"expected a boolean t, got {has_t!r}")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed form object: {exc}") from exc
        terms = {idx: TrigScalar(dim, pairs) for idx, pairs in scalars.items()}
        return cls(dim, degree, terms, has_t)


def phase_family(freqs, base, partner):
    """cos(a.x) * base + sin(a.x) * partner for the frequency vector a."""
    dim = base.dim
    freqs = tuple(map(operator.index, freqs))
    if len(freqs) != dim:
        raise DimensionError("frequency vector has wrong length")
    ca = TrigScalar.cos_wave(dim, freqs)
    sa = TrigScalar.sin_wave(dim, freqs)
    return TrigForm.from_kform(base).scale(ca) + TrigForm.from_kform(partner).scale(sa)


def cylinder_extension(rho, omega):
    """dt ^ omega + rho + t * d(omega) on the cylinder over the torus;
    its exterior derivative equals the pullback of d(rho)."""
    if isinstance(rho, KForm):
        rho = TrigForm.from_kform(rho)
    if isinstance(omega, KForm):
        omega = TrigForm.from_kform(omega)
    if rho.has_t or omega.has_t:
        raise DimensionError("inputs must live on the torus, not the cylinder")
    if rho.degree != 3 or omega.degree != 2 or rho.dim != omega.dim:
        raise DimensionError("need a 3-form and a 2-form on one torus")
    dt = TrigForm.dt_form(rho.dim)
    t = TrigScalar.t_monomial(rho.dim)
    return (
        dt.wedge(omega.with_t())
        + rho.with_t()
        + omega.d().with_t().scale(t)
    )

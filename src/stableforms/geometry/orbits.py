"""Orbit classification of 3-forms and the structures they induce.

Dimension 7: the induced symmetric bilinear form and its signature
separate the two stable orbits (compact and split type) from everything
else.  Dimension 6: the quartic invariant of the squared endomorphism
built from (u . rho) ^ rho separates complex type (negative), para type
(positive) and degenerate (zero), and yields the (para-)complex
structure, the dual form, and the extension criteria.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import mul
from typing import Optional

from ..errors import DimensionError, OrbitError
from ..exterior import (
    Endo,
    KForm,
    Scalar,
    Signature,
    SymBilinear,
    linalg,
    signature,
)
from ..exterior._minors import read_off, to_scalar
from ..exterior.forms import sort_signed
from ..exterior.scalar import ZERO
from .planes import OrientedPlane


class Orbit7(Enum):
    G2 = "G2"
    G2_TILDE = "G2Tilde"
    NON_STABLE = "NonStable"


class Orbit6(Enum):
    SL3C = "SL3C"
    SL3R2 = "SL3R2"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class Class7:
    orbit: Orbit7
    standard_orientation: Optional[bool]
    signature: Signature
    bilinear: SymBilinear


@dataclass(frozen=True)
class Class6:
    orbit: Orbit6
    invariant: Scalar
    endo: Endo


def _require(form, dim, degree, what):
    if form.dim != dim or form.degree != degree:
        raise DimensionError(
            f"{what} requires a degree-{degree} form on R^{dim}, "
            f"got degree {form.degree} on R^{form.dim}"
        )


# Index tables of the closed forms in the docstrings of induced_bilinear,
# hitchin_endomorphism and extension_admissible.
_PAIRS = tuple(combinations(range(1, 8), 2))
_TRIPLES = tuple(combinations(range(1, 8), 3))
_UPPER = tuple((i, j) for j in range(7) for i in range(j + 1))
_TRIPLES6 = tuple(combinations(range(1, 7), 3))
_PAIRS6 = tuple(combinations(range(1, 7), 2))
_HALF = Scalar(Fraction(1, 2))


@cache
def _cubic_table():
    """Row n: the monomials (A, B, C, c) of the entry _UPPER[n] of
    6 B = C M C^T (see induced_bilinear), A, B, C indices into _TRIPLES
    and 3c the coefficient of phi_A phi_B phi_C; 735 monomials, 15 or 30
    per row, c in {-2, -1, 1, 2}.  Built on first use, not at import."""
    at = {t: n for n, t in enumerate(_TRIPLES)}
    # C[i]: P -> (the 3-set {i} + P, sign of sorting (i, p, q)), i not in P.
    con = [
        {p: (at[t], s) for p in _PAIRS for t, s in (sort_signed((i,) + p),) if s}
        for i in range(1, 8)
    ]
    # Row P of M: (Q, R, sign(P, Q, R)) over the partitions P + Q + R of {1..7}.
    part = {p: [] for p in _PAIRS}
    for r in _TRIPLES:
        rest = [k for k in range(1, 8) if k not in r]
        for p in combinations(rest, 2):
            q = tuple(k for k in rest if k not in p)
            part[p].append((q, at[r], sort_signed(p + q + r)[1]))
    table = []
    for i, j in _UPPER:
        acc = {}
        for p, (a, sa) in con[i].items():
            for q, r, s in part[p]:
                if q in con[j]:
                    b, sb = con[j][q]
                    # {i} + P, {j} + Q and R are three distinct 3-sets.
                    mono = acc.setdefault(1 << a | 1 << b | 1 << r, [a, b, r, 0])
                    mono[3] += sa * sb * s
        table.append(tuple((a, b, r, k // 3) for a, b, r, k in acc.values() if k))
    return tuple(table)


def _cubic(x, y, d, monomials):
    """(R, S) with R + sqrt(d) S = sum k v_a v_b v_c over the monomials
    (a, b, c, k) for v = X + sqrt(d) Y (Y None if d = 0), in int pairs."""
    if not d:
        return sum(k * x[a] * x[b] * x[c] for a, b, c, k in monomials), 0
    r = s = 0
    for a, b, c, k in monomials:
        u = x[a] * x[b] + d * y[a] * y[b]  # v_a v_b = u + sqrt(d) w
        w = x[a] * y[b] + y[a] * x[b]
        r += k * (u * x[c] + d * w * y[c])
        s += k * (u * y[c] + w * x[c])
    return r, s


def induced_bilinear(phi):
    """Symmetric form B with B(u,v) = [(u.phi)^(v.phi)^phi] / 6 on the
    reference volume; equals the metric of the model compact-type form.

    Closed form: 6 B = C M C^T, where C[i][A] = phi(e_i, e_a, e_b) over
    the 21 2-sets A = {a, b} and M[A][B] = sign(A, B, C') phi_C' over
    the 210 partitions of {1..7} into 2-sets A, B and the 3-set C'.
    Expanded, each of the 28 upper entries is a cubic of 15 or 30
    monomials 3c phi_A phi_B phi_C, c = +-1 or +-2 (`_cubic_table`).

    The coefficients are read off (`exterior._minors.read_off`) over one
    denominator L, the lcm of the denominators of all their rational and
    radical parts, so that phi = (X + sqrt(d) Y) / L with integer
    coefficient vectors X, Y and the form's single radicand d.  Each
    cubic is evaluated once, in ints over Q and in int pairs over
    Q(sqrt d), to R + sqrt(d) S, and B = (R + sqrt(d) S) / (2 L^3).
    A form carrying two different radicands raises ScalarContextError.
    """
    _require(phi, 7, 3, "induced_bilinear")
    x, y, d, den = read_off([phi.terms.get(t, ZERO) for t in _TRIPLES])
    scale = 2 * den ** 3
    rows = [[None] * 7 for _ in range(7)]
    for (i, j), monomials in zip(_UPPER, _cubic_table()):
        rows[i][j] = rows[j][i] = to_scalar(*_cubic(x, y, d, monomials), d, scale)
    return SymBilinear(7, rows)


def classify7(phi):
    """Orbit of a 3-form on R^7 plus the orientation it is entered with."""
    _require(phi, 7, 3, "classify7")
    b = induced_bilinear(phi)
    sig = signature(b)
    if sig == (7, 0, 0):
        return Class7(Orbit7.G2, True, sig, b)
    if sig == (0, 7, 0):
        return Class7(Orbit7.G2, False, sig, b)
    if sig == (3, 4, 0):
        return Class7(Orbit7.G2_TILDE, True, sig, b)
    if sig == (4, 3, 0):
        return Class7(Orbit7.G2_TILDE, False, sig, b)
    return Class7(Orbit7.NON_STABLE, None, sig, b)


@cache
def _hitchin_table():
    """Row j, column i of the table: the (A, B, sign) with A = {i} + a and
    B the rest of the 5-set {1..6} - {j} after the 2-set a, so that
    K_ji = sum of sign * rho_A * rho_B; 240 products in all."""
    at = {t: n for n, t in enumerate(_TRIPLES6)}
    full = range(1, 7)
    table = []
    for j in full:
        five = tuple(k for k in full if k != j)
        sign_j = 1 if j & 1 else -1  # e_j . vol = (-1)^(j-1) * e_five
        row = []
        for i in full:
            entry = []
            for a in combinations(five, 2):
                if i in a:
                    continue
                t, s_contract = sort_signed((i,) + a)
                b = tuple(k for k in five if k not in a)
                s_wedge = sort_signed(a + b)[1]
                entry.append((at[t], at[b], sign_j * s_contract * s_wedge))
            row.append(tuple(entry))
        table.append(tuple(row))
    return tuple(table)


def hitchin_endomorphism(rho):
    """K with K(u) ^ vol = (u . rho) ^ rho under the reference volume.

    K_ji is (-1)^(j-1) times the coefficient of (e_i . rho) ^ rho at the
    5-set missing j, read from a table of (A, B, sign) products of two
    coefficients of rho.  The products are taken in the integer read-off
    rho = (X + sqrt(d) Y) / L, so K = (R + sqrt(d) S) / L^2 with
    R = sum sign (X_A X_B + d Y_A Y_B) and S = sum sign (X_A Y_B + Y_A X_B).
    A form carrying two different radicands raises ScalarContextError."""
    _require(rho, 6, 3, "hitchin_endomorphism")
    x, y, d, den = read_off([rho.terms.get(t, ZERO) for t in _TRIPLES6])
    scale = den * den
    rows = []
    for table_row in _hitchin_table():
        row = []
        for entry in table_row:
            rat = sum(s * x[a] * x[b] for a, b, s in entry)
            rad = 0
            if d:
                rat += d * sum(s * y[a] * y[b] for a, b, s in entry)
                rad = sum(s * (x[a] * y[b] + y[a] * x[b]) for a, b, s in entry)
            row.append(to_scalar(rat, rad, d, scale))
        rows.append(row)
    return Endo(6, rows)


def hitchin_invariant(rho, endo=None):
    """The quartic invariant trace(K^2)/6 = sum_ij K_ij K_ji / 6; K^2
    equals this multiple of Id.  K is read off as (X + sqrt(d) Y) / L, so
    the trace is (sum X_ij X_ji + d Y_ij Y_ji + sqrt(d) sum 2 X_ij Y_ji)
    / L^2, taken in ints."""
    if endo is None:
        endo = hitchin_endomorphism(rho)
    elif endo.dim != 6:
        raise DimensionError(f"hitchin_invariant requires a 6 x 6 K, got {endo.dim} x {endo.dim}")
    k = endo.entries
    x, y, d, den = read_off([e for row in k for e in row])
    xt = [x[j * 6 + i] for i in range(6) for j in range(6)]
    rat = sum(map(mul, x, xt))
    rad = 0
    if d:
        yt = [y[j * 6 + i] for i in range(6) for j in range(6)]
        rat += d * sum(map(mul, y, yt))
        rad = 2 * sum(map(mul, x, yt))
    return to_scalar(rat, rad, d, 6 * den * den)


def classify6(rho):
    """Orbit of a 3-form on R^6 by the sign of the quartic invariant."""
    _require(rho, 6, 3, "classify6")
    k = hitchin_endomorphism(rho)
    lam = hitchin_invariant(rho, k)
    s = lam.sign()
    orbit = Orbit6.SL3C if s < 0 else (Orbit6.SL3R2 if s > 0 else Orbit6.DEGENERATE)
    return Class6(orbit, lam, k)


def _sqrt_invariant(lam):
    # Radical-coefficient inputs can produce an irrational invariant whose
    # square root would need a second radical; that is out of scope.
    return Scalar.sqrt(abs(lam))


def para_eigenspaces(rho):
    """Oriented +1/-1 eigenplanes of the para-complex structure of a
    para-type form, each oriented so the form is positive on its basis."""
    cls = classify6(rho)
    if cls.orbit is not Orbit6.SL3R2:
        raise OrbitError(f"para eigenspaces need a para-type form, got {cls.orbit.value}")
    root = _sqrt_invariant(cls.invariant)
    planes = []
    for shift in (root, -root):
        shifted = [
            [e - shift if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(cls.endo.entries)
        ]
        basis = linalg.kernel(shifted)
        if len(basis) != 3:
            raise OrbitError("eigenspace is not 3-dimensional")
        if rho.evaluate(*basis).sign() < 0:
            basis[0], basis[1] = basis[1], basis[0]
        planes.append(OrientedPlane(6, basis))
    return planes[0], planes[1]


def hitchin_dual(rho):
    """Partner 3-form: rho + i*dual is a complex volume form for the
    induced complex structure; dual(dual(rho)) == -rho.

    rho + i*dual has type (3,0) for the normalized endomorphism
    J = K / sqrt|lambda| (up to sign), so dual = -J^* rho, which is
    -K^* rho / |lambda|^(3/2): one pullback."""
    cls = classify6(rho)
    if cls.orbit is not Orbit6.SL3C:
        raise OrbitError(f"dual needs a complex-type form, got {cls.orbit.value}")
    lam = abs(cls.invariant)
    return -rho.pullback(cls.endo.entries) * (lam * _sqrt_invariant(lam)).inverse()


def _symmetrized(omega, endo, factor):
    """[omega(K e_i, e_j) + omega(K e_j, e_i)] * factor, reading
    omega(K e_i, e_j) as the j coefficient of (K e_i) . omega."""
    rows = [[ZERO] * 6 for _ in range(6)]
    cons = [omega.contract(endo.column(i)).terms for i in range(6)]
    for i in range(6):
        for j in range(i, 6):
            val = (cons[i].get((j + 1,), ZERO) + cons[j].get((i + 1,), ZERO)) * factor
            rows[i][j] = val
            rows[j][i] = val
    return SymBilinear(6, rows)


def hermitian_form(rho, omega):
    """Symmetric form -[omega(J a, b) + omega(J b, a)]/2 for the complex
    structure J induced by a complex-type form; a pseudo-Hermitian metric
    candidate for omega."""
    cls = classify6(rho)
    if cls.orbit is not Orbit6.SL3C:
        raise OrbitError(f"hermitian_form needs a complex-type form, got {cls.orbit.value}")
    _require(omega, 6, 2, "hermitian_form")
    # J is the structure whose (1,0)-forms pair the coordinates
    # (1,2), (3,4), (5,6) on the model form: -K / sqrt|lambda|.
    return _symmetrized(omega, cls.endo, _HALF / _sqrt_invariant(cls.invariant))


def para_hermitian_form(rho, omega):
    """Symmetric form [omega(I a, b) + omega(I b, a)]/2 for the
    para-complex structure I = K / sqrt(lambda) induced by a para-type
    form."""
    cls = classify6(rho)
    if cls.orbit is not Orbit6.SL3R2:
        raise OrbitError(f"para_hermitian_form needs a para-type form, got {cls.orbit.value}")
    _require(omega, 6, 2, "para_hermitian_form")
    return _symmetrized(omega, cls.endo, _HALF / _sqrt_invariant(cls.invariant))


@cache
def _pfaffian_table():
    """The 15 perfect matchings {P, Q, R} of {1..6} as (P, Q, R,
    sign(P, Q, R)), indices into _PAIRS6, so that the Pfaffian is
    Pf(omega) = sum sign omega_P omega_Q omega_R; omega^3 = 6 Pf(omega) vol."""
    return tuple(
        (a, b, c, s)
        for (a, p), (b, q), (c, r) in combinations(enumerate(_PAIRS6), 3)
        for s in (sort_signed(p + q + r)[1],)
        if s
    )


def extension_admissible(rho, omega):
    """Whether theta ^ omega + rho extends rho to a split-type 3-form on
    a 7-space: signature (2,4) of the hermitian pairing on the complex
    side, signature (3,3) plus negative omega^3 on the para side.

    Both pairings are S / sqrt|lambda| for S = [omega(K a, b) +
    omega(K b, a)]/2, so the signature of S decides: no square root.
    omega^3 = 6 Pf(omega) vol, and Pf is taken on the integer read-off."""
    _require(rho, 6, 3, "extension_admissible")
    _require(omega, 6, 2, "extension_admissible")
    cls = classify6(rho)
    if cls.orbit is Orbit6.DEGENERATE:
        raise OrbitError("degenerate 3-form admits no extension criterion")
    sig = signature(_symmetrized(omega, cls.endo, _HALF))
    if cls.orbit is Orbit6.SL3C:
        return sig == (2, 4, 0)
    if sig != (3, 3, 0):
        return False
    x, y, d, _ = read_off([omega.terms.get(p, ZERO) for p in _PAIRS6])
    return to_scalar(*_cubic(x, y, d, _pfaffian_table()), d, 1).sign() < 0

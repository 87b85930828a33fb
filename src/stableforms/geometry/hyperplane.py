"""Splitting a split-type 3-form along a hyperplane.

For a split-type form phi and a covector theta, the kernel B of theta
carries theta ^ omega + rho with omega = u0 . phi and rho the part of
phi not involving the B-orthogonal direction u0 (normalized so that
theta(u0) = 1).  The hyperplane is spacelike/timelike by the sign of
B_phi on u0; null hyperplanes admit no such splitting.

On the hyperplane, omega and rho are the restrictions of u0 . phi and of
phi to the kernel basis b of theta, one minor sum each.
`linalg.kernel([theta])` gives b_f = e_f - (theta_f / theta_p) e_p for
the first non-zero theta_p, so det[u0 | b] = (-1)^(p - 1) / theta_p
(p counted from 1) orients the frame without a determinant; b_1 is
negated when that is negative.
"""

from dataclasses import dataclass
from enum import Enum

from ..errors import DimensionError, NullHyperplaneError
from ..exterior import Endo, KForm, linalg
from ..exterior._minors import minor_sums, read_off, to_scalar
from ..exterior.scalar import ZERO
from .orbits import _PAIRS, _TRIPLES, Orbit7, _classified7


class HyperplaneKind(Enum):
    SPACELIKE = "Spacelike"
    TIMELIKE = "Timelike"
    NULL = "Null"


@dataclass(frozen=True)
class HyperplaneSplit:
    kind: HyperplaneKind
    theta: tuple
    normal: tuple          # u0: B-orthogonal to ker(theta), theta(u0) = 1
    frame: Endo            # columns: u0 followed by an oriented kernel basis
    omega: KForm           # degree 2 on the hyperplane (dim 6)
    rho: KForm             # degree 3 on the hyperplane (dim 6)
    omega_embedded: KForm  # the same data as forms on the ambient 7-space
    rho_embedded: KForm

    def theta_form(self):
        """The covector theta as a 1-form on R^7."""
        return KForm(7, 1, {(i + 1,): c for i, c in enumerate(self.theta) if c})

    def reconstructed(self):
        """theta ^ omega + rho, re-embedded; equals the split form."""
        return self.theta_form().wedge(self.omega_embedded) + self.rho_embedded


def _minus_theta_wedge(phi, theta, omega):
    """phi - theta ^ omega in one pass over the 35 triples, where theta ^
    omega has the coefficient theta_i omega_jk - theta_j omega_ik +
    theta_k omega_ij at (i, j, k).  All three are read off over one
    denominator L, as (X + sqrt(d) Y) / L, so the result is
    (L X - T ^ W) / L^2, taken in int pairs."""
    x, y, d, den = read_off(
        [phi.terms.get(t, ZERO) for t in _TRIPLES]
        + list(theta)
        + [omega.terms.get(p, ZERO) for p in _PAIRS]
    )
    y = y or [0] * len(x)
    at = {p: n for n, p in enumerate(_PAIRS, 42)}  # omega after phi, theta
    terms = {}
    for n, (i, j, k) in enumerate(_TRIPLES):
        r, s = den * x[n], den * y[n]
        for a, b, sign in ((34 + i, at[j, k], -1), (34 + j, at[i, k], 1), (34 + k, at[i, j], -1)):
            r += sign * (x[a] * x[b] + d * y[a] * y[b])
            s += sign * (x[a] * y[b] + y[a] * x[b])
        if r or s:
            terms[i, j, k] = to_scalar(r, s, d, den * den)
    return KForm._trusted(7, 3, terms)


def hyperplane_split(phi, theta):
    """Split a split-type 3-form along the kernel of the covector theta."""
    cls = _classified7(phi, Orbit7.G2_TILDE, "hyperplane_split")
    theta = linalg.coerce_vector(theta)
    if len(theta) != 7:
        raise DimensionError("covector must have 7 components")
    if not any(theta):
        raise DimensionError("covector is zero")
    b = cls.bilinear
    u = linalg.solve(b.entries, theta)  # B(u, .) = theta
    norm = b.apply(u, u)                # equals theta(u)
    s = norm.sign()
    if s == 0:
        raise NullHyperplaneError("hyperplane is null for the induced metric")
    kind = HyperplaneKind.SPACELIKE if s > 0 else HyperplaneKind.TIMELIKE
    u0 = tuple(x / norm for x in u)

    kernel_basis = linalg.kernel([theta])
    p = next(i for i, t in enumerate(theta) if t)  # counted from 0 here
    if theta[p].sign() != (-1) ** p:
        kernel_basis[0] = tuple(-x for x in kernel_basis[0])
    basis = linalg.transpose(kernel_basis)

    omega_embedded = phi.contract(u0)
    rho_embedded = _minus_theta_wedge(phi, theta, omega_embedded)

    return HyperplaneSplit(
        kind=kind,
        theta=theta,
        normal=u0,
        frame=Endo.from_columns([u0] + kernel_basis),
        omega=KForm._trusted(6, 2, minor_sums(omega_embedded.terms, basis)),
        rho=KForm._trusted(6, 3, minor_sums(phi.terms, basis)),
        omega_embedded=omega_embedded,
        rho_embedded=rho_embedded,
    )

"""Splitting a split-type 3-form along a hyperplane.

For a split-type form phi and a covector theta, the kernel B of theta
carries theta ^ omega + rho with omega = u0 . phi and rho the part of
phi not involving the B-orthogonal direction u0 (normalized so that
theta(u0) = 1).  The hyperplane is spacelike/timelike by the sign of
B_phi on u0; null hyperplanes admit no such splitting.
"""

from dataclasses import dataclass
from enum import Enum

from ..errors import DimensionError, NullHyperplaneError, OrbitError
from ..exterior import Endo, KForm, basis_vector, linalg
from .orbits import Orbit7, classify7


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
        return _theta_form(self.theta)

    def reconstructed(self):
        """theta ^ omega + rho, re-embedded; equals the split form."""
        return self.theta_form().wedge(self.omega_embedded) + self.rho_embedded


def _theta_form(theta):
    """The covector theta as a 1-form on R^7."""
    return KForm(7, 1, {(i + 1,): c for i, c in enumerate(theta) if c})


def _drop_index_one(form):
    kept = {
        tuple(i - 1 for i in idx): c
        for idx, c in form.terms.items()
        if 1 not in idx
    }
    return KForm(6, form.degree, kept)


def hyperplane_split(phi, theta):
    """Split a split-type 3-form along the kernel of the covector theta."""
    cls = classify7(phi)
    if cls.orbit is not Orbit7.G2_TILDE or not cls.standard_orientation:
        raise OrbitError(f"hyperplane split needs a split-type form, got {cls.orbit.value}")
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
    cols = [u0] + kernel_basis
    frame = Endo.from_columns(cols)
    if frame.det().sign() < 0:
        kernel_basis[0] = tuple(-x for x in kernel_basis[0])
        frame = Endo.from_columns([u0] + kernel_basis)

    in_frame = phi.pullback(frame)
    omega6 = _drop_index_one(in_frame.contract(basis_vector(7, 1)))
    rho6 = _drop_index_one(in_frame)

    omega_embedded = phi.contract(u0)
    rho_embedded = phi - _theta_form(theta).wedge(omega_embedded)

    return HyperplaneSplit(
        kind=kind,
        theta=theta,
        normal=u0,
        frame=frame,
        omega=omega6,
        rho=rho6,
        omega_embedded=omega_embedded,
        rho_embedded=rho_embedded,
    )

"""Calibrated 3-planes, the induced cross product, and the swap between
the compact-type and split-type orbits across a calibrated plane.

All predicates are polynomial in the induced bilinear form B, so they
stay in the base field even though the normalized metric involves a
ninth root of det B: calibration is decided by the sign of phi on the
oriented basis together with phi(b)^6 * det(B) == det(B|_C)^3.  The
swap inverts nothing: it reuses det(B|_C) as the denominator of its minors.
"""

from ..errors import NotCalibratedError, OrbitError
from ..exterior import KForm, Scalar, _minors, linalg, signature
from ..exterior.scalar import ZERO
from .orbits import Orbit7, _classified7, classify7
from .planes import OrientedPlane


def cross_product(phi, u, v):
    """Vector w with B(w, .) = phi(u, v, .) for the induced bilinear B."""
    cls = _classified7(phi, Orbit7.G2, "cross_product")
    # phi(u, v, e_i) is the i coefficient of v . (u . phi)
    uv = phi.contract(u).contract(v).terms
    rhs = [uv.get((i,), ZERO) for i in range(1, 8)]
    return linalg.solve(cls.bilinear.entries, rhs)


def _calibration(phi, cls, plane):
    """(phi on the plane's basis, determinant of the plane's Gram matrix
    under B) when the plane is calibrated for the classified form --
    positively calibrated (spacelike as well) for a split-type form --
    else None."""
    val = phi.evaluate(*plane.vectors)
    if val.sign() <= 0:
        return None
    gram = cls.bilinear.restrict(plane.vectors)
    if cls.orbit is Orbit7.G2_TILDE and signature(gram) != (3, 0, 0):
        return None
    lhs = val ** 6 * linalg.det(cls.bilinear.entries)
    det_gram = linalg.det(gram.entries)
    if lhs != det_gram ** 3:
        return None
    return val, det_gram


def is_calibrated(phi, plane):
    """Whether phi restricts to the metric volume on the oriented plane."""
    cls = _classified7(phi, Orbit7.G2, "is_calibrated")
    return _calibration(phi, cls, plane) is not None


def is_positively_calibrated(phi, plane):
    """Calibration for split-type forms: the plane must also be spacelike."""
    cls = _classified7(phi, Orbit7.G2_TILDE, "is_positively_calibrated")
    return _calibration(phi, cls, plane) is not None


def calibrated_swap(phi, plane):
    """2*phi|_C - phi across a (positively) calibrated plane C; lands in
    the opposite stable orbit and is an involution.

    phi|_C is the pullback of phi along the B-orthogonal projection onto
    C, which sends x to sum_k lambda_k(x) v_k for the rows lambda_k of
    Lambda = G^-1 W with W = V B (V: the basis as rows, G = V B V^T).
    So phi|_C = phi(v1, v2, v3) lambda_1 ^ lambda_2 ^ lambda_3, whose
    coefficients are the 35 3x3 minors of Lambda, i.e. those of W over
    det G, taken as one minor sum."""
    cls = classify7(phi)
    if cls.orbit is Orbit7.NON_STABLE or not cls.standard_orientation:
        raise OrbitError(f"swap needs a stable standard-orientation form, got {cls.orbit.value}")
    found = _calibration(phi, cls, plane)
    if found is None:
        kind = "calibrated" if cls.orbit is Orbit7.G2 else "positively calibrated"
        raise NotCalibratedError(f"plane is not {kind} for this form")
    val, det_gram = found
    w = linalg.mat_mul(plane.vectors, cls.bilinear.entries)
    minors = _minors.minor_sums({(1, 2, 3): val * Scalar(2) / det_gram}, w)
    return KForm._trusted(7, 3, minors) - phi


def plane_from_cross(phi, u, v):
    """Oriented plane spanned by u, v and their cross product."""
    w = cross_product(phi, u, v)
    return OrientedPlane(7, [u, v, w])

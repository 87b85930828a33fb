import random

import pytest

from oracles import rand_glplus, rand_vector
from stableforms import (
    KForm,
    NotCalibratedError,
    Orbit7,
    OrbitError,
    Scalar,
    calibrated_swap,
    classify7,
    cross_product,
    is_calibrated,
    is_positively_calibrated,
    plane_from_cross,
    pullback,
    standard_form,
)
from stableforms.geometry import calibration
from stableforms.exterior import linalg
from stableforms.geometry.planes import OrientedPlane

PHI = standard_form("g2")
SPLIT = standard_form("split_g2")


def e7(i):
    return [1 if j == i else 0 for j in range(1, 8)]


def plane(*idx):
    return OrientedPlane(7, [e7(i) for i in idx])


SWAPPED_123 = KForm(
    7,
    3,
    {
        (1, 2, 3): 1,
        (1, 4, 5): -1,
        (1, 6, 7): -1,
        (2, 4, 6): -1,
        (2, 5, 7): 1,
        (3, 4, 7): 1,
        (3, 5, 6): 1,
    },
)


def test_cross_product_basis():
    assert cross_product(PHI, e7(1), e7(2)) == linalg.coerce_vector(e7(3))
    assert cross_product(PHI, e7(1), e7(1)) == linalg.coerce_vector([0] * 7)


def test_cross_product_orthogonality():
    rng = random.Random(31)
    b = classify7(PHI).bilinear
    for _ in range(20):
        u = rand_vector(rng, 7)
        v = rand_vector(rng, 7)
        w = cross_product(PHI, u, v)
        assert b.apply(w, u) == Scalar(0)
        assert b.apply(w, v) == Scalar(0)


def test_cross_product_plane_is_calibrated():
    rng = random.Random(32)
    done = 0
    while done < 20:
        u = rand_vector(rng, 7)
        v = rand_vector(rng, 7)
        if linalg.rank([u, v]) != 2:
            continue
        assert is_calibrated(PHI, plane_from_cross(PHI, u, v))
        done += 1


def test_cross_product_rejects_split_form():
    with pytest.raises(OrbitError):
        cross_product(SPLIT, e7(1), e7(2))


def test_is_calibrated_examples():
    assert is_calibrated(PHI, plane(1, 2, 3))
    assert not is_calibrated(PHI, plane(1, 2, 4))  # no such coefficient
    assert not is_calibrated(PHI, plane(2, 1, 3))  # orientation reversed


def test_is_positively_calibrated_examples():
    assert is_positively_calibrated(SPLIT, plane(1, 2, 3))
    assert not is_positively_calibrated(SPLIT, plane(4, 5, 6))  # negative block
    assert not is_positively_calibrated(SPLIT, plane(2, 1, 3))


def test_calibration_wrong_orbit_rejected():
    with pytest.raises(OrbitError):
        is_calibrated(SPLIT, plane(1, 2, 3))
    with pytest.raises(OrbitError):
        is_positively_calibrated(PHI, plane(1, 2, 3))
    with pytest.raises(OrbitError):
        is_calibrated(-PHI, plane(1, 2, 3))  # reversed orientation


def test_swap_matches_display():
    swapped = calibrated_swap(PHI, plane(1, 2, 3))
    assert swapped == SWAPPED_123
    cls = classify7(swapped)
    assert cls.orbit is Orbit7.G2_TILDE and cls.standard_orientation
    assert is_positively_calibrated(swapped, plane(1, 2, 3))


def test_swap_is_involution():
    swapped = calibrated_swap(PHI, plane(1, 2, 3))
    assert calibrated_swap(swapped, plane(1, 2, 3)) == PHI


def test_swap_rejects_uncalibrated_plane():
    with pytest.raises(NotCalibratedError):
        calibrated_swap(PHI, plane(1, 2, 4))


def test_swap_on_random_cross_planes():
    rng = random.Random(33)
    done = 0
    while done < 10:
        u = rand_vector(rng, 7, -2, 2)
        v = rand_vector(rng, 7, -2, 2)
        if linalg.rank([u, v]) != 2:
            continue
        pl = plane_from_cross(PHI, u, v)
        swapped = calibrated_swap(PHI, pl)
        assert classify7(swapped).orbit is Orbit7.G2_TILDE
        assert calibrated_swap(swapped, pl) == PHI
        done += 1


def test_calibration_basis_independence():
    rng = random.Random(34)
    done = 0
    while done < 15:
        u = rand_vector(rng, 7, -2, 2)
        v = rand_vector(rng, 7, -2, 2)
        if linalg.rank([u, v]) != 2:
            continue
        pl = plane_from_cross(PHI, u, v)
        a = rand_glplus(rng, 3)
        other = OrientedPlane(7, linalg.mat_mul(a, pl.basis_matrix()))
        assert is_calibrated(PHI, pl) == is_calibrated(PHI, other)
        done += 1


def rand_plane(rng, phi):
    while True:
        u = rand_vector(rng, 7, -2, 2)
        v = rand_vector(rng, 7, -2, 2)
        if linalg.rank([u, v]) == 2:
            return plane_from_cross(phi, u, v)


def radical_glplus(rng, d):
    """GL+ matrix over Q(sqrt(d)) with one irrational entry."""
    while True:
        m = [list(row) for row in rand_glplus(rng, 7)]
        m[rng.randrange(7)][rng.randrange(7)] += Scalar(0, 1, d)
        if linalg.det(m).sign() > 0:
            return m


def projection_swap(phi, pl):
    """2 * phi.pullback(P) - phi for the B-orthogonal projection
    P = V^T G^-1 V B onto the plane, built from the matrices."""
    b = classify7(phi).bilinear.entries
    v = pl.basis_matrix()
    ginv = linalg.inverse(linalg.mat_mul(linalg.mat_mul(v, b), linalg.transpose(v)))
    p = linalg.mat_mul(linalg.mat_mul(linalg.mat_mul(linalg.transpose(v), ginv), v), b)
    return phi.pullback(p) * Scalar(2) - phi


def test_swap_classifies_once(monkeypatch):
    calls = []
    original = calibration.classify7

    def counted(phi):
        calls.append(phi)
        return original(phi)

    monkeypatch.setattr(calibration, "classify7", counted)
    swapped = calibrated_swap(PHI, plane(1, 2, 3))
    assert len(calls) == 1
    calibrated_swap(swapped, plane(1, 2, 3))
    assert len(calls) == 2
    with pytest.raises(NotCalibratedError):
        calibrated_swap(PHI, plane(1, 2, 4))
    assert len(calls) == 3


def test_swap_matches_projection_pullback():
    rng = random.Random(35)
    for a in (rand_glplus(rng, 7), rand_glplus(rng, 7), radical_glplus(rng, 2)):
        phi = pullback(a, PHI)
        pl = rand_plane(rng, phi)
        swapped = calibrated_swap(phi, pl)
        assert swapped == projection_swap(phi, pl)
        back = calibrated_swap(swapped, pl)
        assert back == projection_swap(swapped, pl)


def test_swap_is_involution_over_radicals():
    rng = random.Random(36)
    phi = pullback(radical_glplus(rng, 2), PHI)
    assert any(not c.is_rational for c in phi.terms.values())
    pl = rand_plane(rng, phi)
    swapped = calibrated_swap(phi, pl)
    cls = classify7(swapped)
    assert cls.orbit is Orbit7.G2_TILDE and cls.standard_orientation
    assert calibrated_swap(swapped, pl) == phi

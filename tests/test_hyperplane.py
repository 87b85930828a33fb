import random
from fractions import Fraction

import pytest

from oracles import (
    field_form,
    field_scalar,
    frame_hyperplane_split,
    indexed_minus_theta_wedge,
    naive_wedge,
    rand_glplus,
)
from stableforms import (
    DimensionError,
    HyperplaneKind,
    KForm,
    NullHyperplaneError,
    Orbit6,
    OrbitError,
    Scalar,
    classify6,
    extension_admissible,
    hyperplane_split,
    pullback,
    standard_form,
)
from stableforms.exterior import linalg
from stableforms.geometry.hyperplane import _minus_theta_wedge

SPLIT = standard_form("split_g2")


def covector(i):
    return [1 if j == i else 0 for j in range(1, 8)]


def test_last_coordinate_split_is_timelike():
    s = hyperplane_split(SPLIT, covector(7))
    assert s.kind is HyperplaneKind.TIMELIKE
    assert s.normal == linalg.coerce_vector([0, 0, 0, 0, 0, 0, 1])
    assert s.omega == KForm(6, 2, {(1, 6): -1, (2, 5): -1, (3, 4): -1})
    assert s.rho == KForm(
        6, 3, {(1, 2, 3): 1, (1, 4, 5): -1, (2, 4, 6): 1, (3, 5, 6): -1}
    )
    assert classify6(s.rho).orbit is Orbit6.SL3R2
    assert extension_admissible(s.rho, s.omega)
    assert s.reconstructed() == SPLIT


def test_first_coordinate_split_is_spacelike():
    s = hyperplane_split(SPLIT, covector(1))
    assert s.kind is HyperplaneKind.SPACELIKE
    assert classify6(s.rho).orbit is Orbit6.SL3C
    # this split reproduces the model complex-type pair exactly
    assert s.rho == standard_form("sl3c")
    assert s.omega == KForm(6, 2, {(1, 2): 1, (3, 4): -1, (5, 6): -1})
    assert extension_admissible(s.rho, s.omega)
    assert s.reconstructed() == SPLIT


def test_null_hyperplane_rejected():
    # the metric dual of theta^1 + theta^4 squares to zero
    theta = [1, 0, 0, 1, 0, 0, 0]
    b = standard_form("split_metric")
    dual = linalg.solve(b.entries, linalg.coerce_vector(theta))
    assert b.apply(dual, dual).sign() == 0
    with pytest.raises(NullHyperplaneError):
        hyperplane_split(SPLIT, theta)


def test_all_coordinate_covectors():
    for i in range(1, 8):
        s = hyperplane_split(SPLIT, covector(i))
        expected = HyperplaneKind.SPACELIKE if i <= 3 else HyperplaneKind.TIMELIKE
        assert s.kind is expected
        assert s.reconstructed() == SPLIT
        assert s.omega_embedded.contract(s.normal).is_zero
        assert s.rho_embedded.contract(s.normal).is_zero


def test_rho_embedded_matches_the_shuffle_wedge():
    """rho_embedded, taken on the integer read-off, is phi - theta ^ omega
    by the shuffle wedge on dense forms over Q and Q(sqrt d) and
    fractional covectors."""
    rng = random.Random(931)
    for d in (0, 2, 3, 5):
        # a positive multiple keeps the split type and its orientation
        phi = pullback(rand_glplus(rng, 7), SPLIT) * Scalar(Fraction(1, 3), 1, d)
        done = 0
        while done < 3:
            theta = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(7)]
            if not any(theta):
                continue
            try:
                s = hyperplane_split(phi, theta)
            except NullHyperplaneError:
                continue
            assert s.rho_embedded == phi - naive_wedge(s.theta_form(), s.omega_embedded)
            assert s.reconstructed() == phi
            done += 1


def test_theta_wedge_on_the_scatter_table_matches_the_indexed_sum():
    """_minus_theta_wedge through `_wedge_row` equals the indexed sum with
    literal signs it replaced, exactly, on dense, sparse, degenerate and
    fractional inputs over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5)."""
    rng = random.Random(933)
    for d in (0, 2, 3, 5):
        dense = pullback(rand_glplus(rng, 7), SPLIT) * Scalar(Fraction(1, 3), 1, d)
        for n in range(8):
            phi = dense if n < 2 else field_form(rng, 7, 3, d, rng.choice((3, 35)), den=rng.randint(1, 6))
            omega = field_form(rng, 7, 2, d, rng.choice((2, 21)), den=rng.randint(1, 6))
            theta = [field_scalar(rng, d, rng.randint(1, 4)) if rng.random() < 0.7 else Scalar(0) for _ in range(7)]
            if n == 1:
                omega = KForm.zero(7, 2)
            cases = [(phi, theta, omega), (phi, [Scalar(0)] * 7, omega), (KForm.zero(7, 3), theta, omega)]
            for args in cases:
                assert _minus_theta_wedge(*args) == indexed_minus_theta_wedge(*args)
            theta_form = KForm(7, 1, {(i + 1,): c for i, c in enumerate(theta)})
            assert _minus_theta_wedge(phi, theta, omega) == phi - naive_wedge(theta_form, omega)


def test_split_matches_the_frame_pullback():
    """omega and rho, restricted by minor sums to the kernel basis that is
    oriented in closed form, equal the split by the pullback along the
    frame whose determinant fixed its orientation, in all four fields.
    The first non-zero theta_p sits at every p, odd and even, after
    leading zeros and with both signs, so both orientations occur."""
    rng = random.Random(932)
    for d in (0, 2, 3, 5):
        phi = pullback(rand_glplus(rng, 7), SPLIT) * Scalar(Fraction(1, 3), 1, d)
        flips = set()
        for p in range(7):
            for sign in (1, -1):
                while True:
                    head = sign * Fraction(rng.randint(1, 5), rng.randint(1, 3))
                    tail = [Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-1, 1), d) for _ in range(6 - p)]
                    theta = [0] * p + [head] + tail
                    try:
                        s = hyperplane_split(phi, theta)
                        break
                    except NullHyperplaneError:
                        with pytest.raises(NullHyperplaneError):
                            frame_hyperplane_split(phi, theta)
                assert s == frame_hyperplane_split(phi, theta)
                assert s.frame.det().sign() > 0
                flips.add(s.frame.column(1)[0 if p else 1].sign())  # b_1 = +-e_f + (.) e_p
        assert flips == {1, -1}
    for i in range(1, 8):
        for c in (1, -2):
            theta = [c * x for x in covector(i)]
            assert hyperplane_split(SPLIT, theta) == frame_hyperplane_split(SPLIT, theta)


def test_rescaling_theta_rescales_omega_inversely():
    s1 = hyperplane_split(SPLIT, covector(7))
    s2 = hyperplane_split(SPLIT, [0, 0, 0, 0, 0, 0, 3])
    from fractions import Fraction

    from stableforms import Scalar

    assert s2.omega_embedded == s1.omega_embedded * Scalar(Fraction(1, 3))
    assert s2.rho_embedded == s1.rho_embedded
    assert s2.reconstructed() == SPLIT


def test_split_requires_split_type_form():
    with pytest.raises(OrbitError):
        hyperplane_split(standard_form("g2"), covector(1))


def test_split_rejects_zero_covector():
    with pytest.raises(DimensionError):
        hyperplane_split(SPLIT, [0] * 7)

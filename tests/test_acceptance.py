"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run pytest with -s to see
them) and asserts both the exact expected values and its time budget.
"""

import random
import time
from fractions import Fraction

from oracles import rand_glplus
from suites import ALL_SUITES
from stableforms import (
    HyperplaneKind,
    KForm,
    Orbit6,
    Orbit7,
    Scalar,
    SymBilinear,
    calibrated_swap,
    classify6,
    classify7,
    extension_admissible,
    hermitian_form,
    hodge_star,
    hyperplane_split,
    induced_bilinear,
    is_positively_calibrated,
    para_hermitian_form,
    signature,
    standard_form,
    top_coefficient,
)
from stableforms.f2 import (
    count_extendible_slr_classes,
    count_slc_classes,
    decomposable_nonzero_count,
    general_linear_count,
    grassmann_count,
    grassmann_enumerate,
    kernels,
)
from stableforms.geometry.planes import OrientedPlane
from stableforms.torus import cylinder_extension


def _run(number, name, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance {number}] {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_hodge_identity():
    def body():
        g = standard_form("split_metric")
        vol = KForm.basis(7, tuple(range(1, 8)))
        star = hodge_star(g, vol, standard_form("split_g2"))
        expected = standard_form("split_g2_dual")
        assert star == expected
        assert star.terms == expected.terms  # term-for-term, zero tolerance

    _run(1, "Hodge dual of the split 3-form", 1.0, body)


def test_criterion_2_induced_metrics():
    def body():
        assert induced_bilinear(standard_form("g2")) == SymBilinear.diagonal([1] * 7)
        assert induced_bilinear(standard_form("split_g2")) == standard_form(
            "split_metric"
        )
        c_g2 = classify7(standard_form("g2"))
        assert c_g2.orbit is Orbit7.G2 and c_g2.standard_orientation
        c_split = classify7(standard_form("split_g2"))
        assert c_split.orbit is Orbit7.G2_TILDE
        assert c_split.signature == (3, 4, 0)

    _run(2, "induced metrics and orbit classification", 1.0, body)


def test_criterion_3_calibrated_swap():
    def body():
        phi = standard_form("g2")
        plane = OrientedPlane(
            7,
            [
                [1, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0],
            ],
        )
        swapped = calibrated_swap(phi, plane)
        display = KForm(
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
        assert swapped == display
        assert classify7(swapped).orbit is Orbit7.G2_TILDE
        assert is_positively_calibrated(swapped, plane)
        assert calibrated_swap(swapped, plane) == phi

    _run(3, "swap across the standard calibrated plane", 1.0, body)


def test_criterion_4_extension_criteria():
    def body():
        split_form = standard_form("split_g2")
        s7 = hyperplane_split(split_form, [0, 0, 0, 0, 0, 0, 1])
        assert s7.kind is HyperplaneKind.TIMELIKE
        assert classify6(s7.rho).orbit is Orbit6.SL3R2
        assert signature(para_hermitian_form(s7.rho, s7.omega)) == (3, 3, 0)
        cube = s7.omega.wedge(s7.omega).wedge(s7.omega)
        assert top_coefficient(cube).sign() < 0
        assert extension_admissible(s7.rho, s7.omega)

        s1 = hyperplane_split(split_form, [1, 0, 0, 0, 0, 0, 0])
        assert s1.kind is HyperplaneKind.SPACELIKE
        assert classify6(s1.rho).orbit is Orbit6.SL3C

        rho = standard_form("sl3c")
        good = KForm(6, 2, {(1, 2): 1, (3, 4): -1, (5, 6): -1})
        bad = KForm(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
        assert signature(hermitian_form(rho, good)) == (2, 4, 0)
        assert extension_admissible(rho, good)
        assert signature(hermitian_form(rho, bad)) == (6, 0, 0)
        assert not extension_admissible(rho, bad)

    _run(4, "hyperplane splitting and extension criteria", 1.0, body)


def test_criterion_5_finite_field_counts():
    def body():
        assert grassmann_count(2, 6, 2) == 651
        assert len(grassmann_enumerate(6, 2)) == 651
        assert general_linear_count(2, 3) == 168
        brute = sum(
            1
            for val in range(1 << 9)
            if kernels.rank([(val >> (3 * i)) & 0b111 for i in range(3)]) == 3
        )
        assert brute == 168
        for size in (2, 3, 4, 5):
            for n in range(0, 11):
                for k in range(n + 1):
                    assert isinstance(grassmann_count(size, n, k), int)

    _run(5, "finite-field counting formulas vs enumeration", 10.0, body)


def test_criterion_6_torus_class_counts():
    def body():
        assert decomposable_nonzero_count(6) == 651  # [6, 2]_2 rank-2 classes
        assert count_extendible_slr_classes(6) == 652
        assert count_slc_classes(6) == 64

    _run(6, "mod-2 class counts on the 6-torus", 30.0, body)


def test_criterion_7_cylinder_identity():
    def body():
        from test_torus import rand_trig_form

        rng = random.Random(77)
        for _ in range(20):
            rho = rand_trig_form(rng, 6, 3)
            omega = rand_trig_form(rng, 6, 2)
            ext = cylinder_extension(rho, omega)
            assert ext.d() == rho.d().with_t()

    _run(7, "cylinder extension derivative identity", 30.0, body)


def test_criterion_8_property_suites():
    def body():
        for name, suite in ALL_SUITES:
            cases = suite()
            assert cases >= 50, f"suite '{name}' ran only {cases} cases"
            print(f"    suite ok ({cases} cases): {name}")

    _run(8, "randomized exactness suites", 120.0, body)

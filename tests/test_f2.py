import itertools
import random
from fractions import Fraction

import pytest

from stableforms.errors import DimensionError, EnumerationLimitError
from stableforms.f2 import (
    F2ExtClass,
    F2Matrix,
    LineBundleSum,
    count_extendible_slr_classes,
    count_slc_classes,
    cup,
    decomposable_nonzero_count,
    general_linear_count,
    grassmann_count,
    grassmann_enumerate,
    is_decomposable,
    plane_stabilizer_elements,
    plane_stabilizer_identity,
    plane_stabilizer_mul,
    plucker_class,
    projective_count,
    q_pochhammer,
    stiefel_whitney,
)
from stableforms.f2 import counting, kernels

from oracles import (
    bitscan_count_decomposable_nonzero,
    f2_rref,
    gray_count_decomposable_nonzero,
    mask_enumerate_rref,
    pochhammer_general_linear_count,
    pochhammer_grassmann_count,
    subtraction_projective_count,
)


# -- raw kernels --------------------------------------------------------------


def test_kernel_rank_and_rref():
    rows = [0b1100, 0b0110, 0b1010, 0b0001]
    assert kernels.rank(rows) == 3
    r = kernels.rref(rows)
    assert r == (0b1010, 0b0110, 0b0001)
    assert kernels.rref(r) == r  # canonical fixed point
    assert kernels.rank([0, 0]) == 0
    assert kernels.rref([0]) == ()


def test_kernel_rref_is_subspace_invariant():
    rng = random.Random(40)
    for _ in range(50):
        n = rng.randint(2, 8)
        k = rng.randint(1, n)
        rows = [rng.randrange(1, 1 << n) for _ in range(k)]
        base = kernels.rref(rows)
        # random invertible row mixes leave the canonical form unchanged
        mixed = list(rows)
        for _ in range(6):
            i, j = rng.sample(range(len(mixed)), 2) if len(mixed) > 1 else (0, 0)
            if i != j:
                mixed[i] ^= mixed[j]
        assert kernels.rref(mixed) == base


def test_kernel_rref_and_rank_match_elimination():
    rng = random.Random(44)
    for _ in range(3000):
        n = rng.randint(1, 24)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, 10))]
        if rows and rng.random() < 0.5:  # force dependent rows
            rows.append(rows[0] ^ rows[-1])
        want = f2_rref(rows, n)
        assert kernels.rref(rows) == want
        assert kernels.rank(rows) == len(want)


def test_enumerate_rref_matches_mask_loop():
    for n in range(8):
        for k in range(n + 1):
            want = mask_enumerate_rref(n, k)
            assert kernels.enumerate_rref(n, k) == want
            if n and k:
                planes = grassmann_enumerate(n, k)
                assert [p.rows for p in planes] == want
                assert all(p.n == n for p in planes)


def test_kernel_scan_matches_bit_scan_and_closed_form():
    for n in range(7):
        got = kernels.count_decomposable_nonzero(n)
        assert got == bitscan_count_decomposable_nonzero(n)
        assert got == gray_count_decomposable_nonzero(n)
        assert decomposable_nonzero_count(n) == got
        # rank-2 alternating n x n matrices over GF(q), q = 2 (MacWilliams 1969)
        assert got == (2**n - 1) * (2 ** (n - 1) - 1) // 3
    # the closed form is exact for every n
    for n in range(9, 25):
        got = kernels.count_decomposable_nonzero(n)
        assert got == grassmann_count(2, n, 2)
        assert got == count_extendible_slr_classes(n) - 1
        assert decomposable_nonzero_count(n) == got


# -- counting ----------------------------------------------------------------


def test_projective_counts():
    assert projective_count(2, 7) == 127
    assert projective_count(2, 1) == 1
    assert projective_count(3, 3) == 13


def test_projective_count_is_the_subtraction_quotient():
    for size in range(2, 8):
        for n in range(1, 13):
            assert projective_count(size, n) == subtraction_projective_count(size, n)


def test_projective_count_brute_force_f3():
    # count lines in F_3^3 by enumerating non-zero vectors up to scale
    vectors = [
        v for v in itertools.product(range(3), repeat=3) if any(v)
    ]
    lines = set()
    for v in vectors:
        scaled = tuple(tuple((c * s) % 3 for c in v) for s in (1, 2))
        lines.add(min([v, *scaled]))
    assert len(lines) == projective_count(3, 3)


def test_q_pochhammer():
    half = Fraction(1, 2)
    assert q_pochhammer(half, half, 1) == Fraction(1, 2)
    assert q_pochhammer(half, half, 2) == Fraction(3, 8)
    assert q_pochhammer(half, half, 0) == 1


def test_q_pochhammer_is_exact_and_needs_a_length():
    assert q_pochhammer(2, 3, 2) == (1 - 2) * (1 - 6)
    for a, q in ((0.5, 2), (2, 0.5), ("1/2", 2)):
        with pytest.raises(TypeError):
            q_pochhammer(a, q, 1)
    with pytest.raises(TypeError):
        q_pochhammer(1, 2, 1.0)
    with pytest.raises(ValueError):
        q_pochhammer(1, 2, -1)


def test_counts_take_ints_only():
    for call in (
        lambda: grassmann_count(2.0, 3, 1),
        lambda: grassmann_count(2, 3.0, 1),
        lambda: grassmann_count(2, 3, 1.0),
        lambda: projective_count(2.0, 3),
        lambda: general_linear_count(2.0, 2),
        lambda: general_linear_count(2, 2.0),
        lambda: count_slc_classes(1.5),
        lambda: count_extendible_slr_classes(2.0),
        lambda: decomposable_nonzero_count(3.0),
        lambda: grassmann_count(Fraction(2), 3, 1),
    ):
        with pytest.raises(TypeError):
            call()
    assert grassmann_count(True + 1, 3, True) == 7  # bool is an int


def test_gl_counts():
    assert general_linear_count(2, 1) == 1
    assert general_linear_count(2, 3) == 168
    assert general_linear_count(3, 2) == 48


def test_gl_count_brute_force_f2():
    count = 0
    for val in range(1 << 9):
        rows = [(val >> (3 * i)) & 0b111 for i in range(3)]
        if kernels.rank(rows) == 3:
            count += 1
    assert count == general_linear_count(2, 3)


def test_gl_count_brute_force_f3():
    count = 0
    for entries in itertools.product(range(3), repeat=4):
        a, b, c, d = entries
        if (a * d - b * c) % 3:
            count += 1
    assert count == general_linear_count(3, 2)


def test_gl_recursion():
    for size in (2, 3, 4, 5):
        for n in range(1, 6):
            assert general_linear_count(size, n + 1) == (
                size**n
                * (size - 1)
                * projective_count(size, n + 1)
                * general_linear_count(size, n)
            )


def test_grassmann_counts():
    assert grassmann_count(2, 6, 2) == 651
    assert grassmann_count(2, 6, 0) == 1
    assert grassmann_count(2, 4, 2) == 35
    with pytest.raises(ValueError):
        grassmann_count(2, 4, 5)


def test_integer_counts_match_pochhammer():
    for size, n, k in [(2, 6, 2), (3, 6, 3), (2, 200, 2), (3, 200, 100), (2, 700, 2), (3, 700, 350)]:
        assert grassmann_count(size, n, k) == pochhammer_grassmann_count(size, n, k)
    for size in (2, 3, 4, 5, 7):
        for n in (1, 2, 3, 6, 40):
            assert general_linear_count(size, n) == pochhammer_general_linear_count(size, n)


def test_grassmann_duality():
    for n in range(1, 9):
        for k in range(n + 1):
            assert grassmann_count(2, n, k) == grassmann_count(2, n, n - k)


def test_grassmann_formula_integrality():
    for size in (2, 3, 4, 5):
        for n in range(0, 11):
            for k in range(n + 1):
                assert isinstance(grassmann_count(size, n, k), int)


def test_grassmann_enumerate_matches_formula():
    for n in range(1, 9):
        for k in range(n + 1):
            planes = grassmann_enumerate(n, k)
            assert len(planes) == grassmann_count(2, n, k)
            assert len(set(planes)) == len(planes)


def test_grassmann_enumerate_examples():
    assert len(grassmann_enumerate(6, 2)) == 651
    assert len(grassmann_enumerate(6, 0)) == 1
    assert len(grassmann_enumerate(4, 2)) == 35


def test_grassmann_enumerate_canonical():
    for plane in grassmann_enumerate(5, 2):
        assert plane.is_rref()


def test_grassmann_enumerate_limits(monkeypatch):
    with pytest.raises(EnumerationLimitError):
        grassmann_enumerate(15, 2)
    monkeypatch.setattr(counting, "ENUM_CAP", 100)
    with pytest.raises(EnumerationLimitError):
        grassmann_enumerate(6, 2)


def test_grassmann_enumerate_needs_a_column():
    # no F2Matrix has 0 columns, so F2^0 has no RREF representative
    with pytest.raises(ValueError):
        grassmann_enumerate(0, 0)
    assert len(grassmann_enumerate(1, 0)) == 1


# -- the stabilizer group law -------------------------------------------------


def test_plane_stabilizer_group_exhaustive():
    elements = plane_stabilizer_elements(3, 1)
    assert len(elements) == 1 * 6 * 4  # |GL1| * |GL2| * |Hom|
    ident = plane_stabilizer_identity(3, 1)
    for x in elements:
        assert plane_stabilizer_mul(x, ident) == x
        assert plane_stabilizer_mul(ident, x) == x
    for x in elements:
        for y in elements:
            xy = plane_stabilizer_mul(x, y)
            for z in elements:
                assert plane_stabilizer_mul(xy, z) == plane_stabilizer_mul(
                    x, plane_stabilizer_mul(y, z)
                )


def test_f2matrix_constructor_validates():
    with pytest.raises(DimensionError):
        F2Matrix(4, [0b0101, -1])
    with pytest.raises(DimensionError):
        F2Matrix(4, [0b10000])
    for n in (0, -1, 25):
        with pytest.raises(DimensionError):
            F2Matrix(n, [0])
    assert F2Matrix(3, ()).rows == ()
    # rows are exact ints: a float or a string is refused, not truncated
    for rows in ([1.7], ["5"], [1, 2.0]):
        with pytest.raises(TypeError):
            F2Matrix(3, rows)
    assert F2Matrix(3, [True, 5]).rows == (1, 5)
    m = F2Matrix(6, [0b110000, 0b011000, 0b101000])
    assert m.rref() == F2Matrix(6, [0b101000, 0b011000])


def test_f2matrix_from_bit_rows_needs_equal_rows():
    assert F2Matrix.from_bit_rows([[1, 0], [0, 1]]) == F2Matrix.identity(2)
    for rows in ([], [[1, 0], [1]], [[1], [1, 0]]):
        with pytest.raises(DimensionError):
            F2Matrix.from_bit_rows(rows)


def test_f2matrix_products_refuse_other_operands():
    m = F2Matrix.identity(2)
    for other in (1, None, [[1, 0], [0, 1]], F2ExtClass.generator(2, 1)):
        with pytest.raises(TypeError):
            m.add(other)
        with pytest.raises(TypeError):
            m.mul(other)


def test_f2matrix_inverse():
    m = F2Matrix.from_bit_rows([[1, 1], [0, 1]])
    inv = m.inverse()
    assert m.mul(inv) == F2Matrix.identity(2)
    with pytest.raises(ZeroDivisionError):
        F2Matrix.from_bit_rows([[1, 1], [1, 1]]).inverse()


# -- cohomology ----------------------------------------------------------------


def gen(i, n=6):
    return F2ExtClass.generator(n, i)


def test_ext_class_letters_must_be_exact_ints():
    for term in ((1.5,), ("1",), (1.0,)):
        with pytest.raises(TypeError):
            F2ExtClass(3, 1, [term])
    with pytest.raises(TypeError):
        F2ExtClass(4, 2, [(1, 2.0)])
    assert F2ExtClass(3, 1, [(True,)]) == F2ExtClass.generator(3, 1)


def test_ext_classes_refuse_other_operands():
    a = F2ExtClass.generator(3, 1)
    for other in (1, None, F2Matrix.identity(3)):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            other + a
        with pytest.raises(TypeError):
            cup(a, other)
        with pytest.raises(TypeError):
            cup(other, a)


def test_plucker_class_needs_two_rows():
    assert plucker_class(F2Matrix(3, [0b100, 0b010])) == F2ExtClass(3, 2, [(1, 2)])
    for rows in ([0b100], [0b100, 0b010, 0b001]):
        with pytest.raises(DimensionError):
            plucker_class(F2Matrix(3, rows))


def test_cup_examples():
    a, b = gen(1), gen(2)
    assert cup(a, b) == F2ExtClass(6, 2, [(1, 2)])
    assert cup(a, a).is_zero
    lhs = cup(gen(1) + gen(2), gen(1) + gen(3))
    assert lhs == F2ExtClass(6, 2, [(1, 3), (1, 2), (2, 3)])


def test_cup_commutes_and_associates():
    rng = random.Random(42)
    for _ in range(30):
        xs = [
            F2ExtClass.from_bits(6, rng.randrange(1, 64)) for _ in range(3)
        ]
        a, b, c = xs
        assert cup(a, b) == cup(b, a)
        assert cup(cup(a, b), c) == cup(a, cup(b, c))


def test_is_decomposable_examples():
    w = F2ExtClass(6, 2, [(1, 2)])
    flag, witness = is_decomposable(w)
    assert flag and cup(*witness) == w
    w2 = F2ExtClass(6, 2, [(1, 2), (3, 4)])
    assert is_decomposable(w2) == (False, None)
    zero = F2ExtClass(6, 2)
    flag, witness = is_decomposable(zero)
    assert flag and witness[0].is_zero and witness[1].is_zero
    with pytest.raises(DimensionError):
        is_decomposable(gen(1))


def test_decomposability_agrees_with_exhaustive_search():
    # all wedges a^b over F2^6, then compare class by class (2^15 classes)
    n = 6
    pair_index = {
        pair: p for p, pair in enumerate(itertools.combinations(range(1, n + 1), 2))
    }
    wedges = set()
    for abits in range(1 << n):
        for bbits in range(abits, 1 << n):
            mask = 0
            for (i, j), p in pair_index.items():
                ai = (abits >> (i - 1)) & 1
                aj = (abits >> (j - 1)) & 1
                bi = (bbits >> (i - 1)) & 1
                bj = (bbits >> (j - 1)) & 1
                if (ai & bj) ^ (aj & bi):
                    mask |= 1 << p
            wedges.add(mask)
    pairs = list(pair_index)
    for mask in range(1 << len(pairs)):
        w = F2ExtClass(n, 2, [pairs[p] for p in range(len(pairs)) if (mask >> p) & 1])
        assert is_decomposable(w)[0] == (mask in wedges)


def test_decomposable_scan_count():
    assert decomposable_nonzero_count(6) == 651
    assert decomposable_nonzero_count(4) == 35
    assert decomposable_nonzero_count(2) == 1


def test_stiefel_whitney_examples():
    a, b = gen(1), gen(2)
    w1, w2 = stiefel_whitney([a, b, a + b])
    assert w1.is_zero
    assert w2 == cup(a, b)
    zero = F2ExtClass(6, 1)
    w1, w2 = stiefel_whitney([zero, zero, zero])
    assert w1.is_zero and w2.is_zero
    s = LineBundleSum([a, b, a + b])
    assert s.orientable


def test_stiefel_whitney_general_sum():
    rng = random.Random(43)
    for _ in range(20):
        lines = [F2ExtClass.from_bits(6, rng.randrange(64)) for _ in range(4)]
        w1, w2 = stiefel_whitney(lines)
        expect1 = F2ExtClass(6, 1)
        for l in lines:
            expect1 = expect1 + l
        assert w1 == expect1
        expect2 = F2ExtClass(6, 2)
        for x, y in itertools.combinations(lines, 2):
            expect2 = expect2 + cup(x, y)
        assert w2 == expect2


@pytest.mark.parametrize("n", range(2, 9))
def test_plucker_injective_on_2_planes(n):
    planes = grassmann_enumerate(n, 2)
    classes = {plucker_class(p) for p in planes}
    assert len(classes) == len(planes) == grassmann_count(2, n, 2)
    # every image is decomposable and non-zero
    for c in itertools.islice(classes, 50):
        flag, _ = is_decomposable(c)
        assert flag and not c.is_zero


def test_class_counts():
    assert count_slc_classes(6) == 64
    assert count_slc_classes(1) == 2
    assert count_slc_classes(3) == 8
    assert count_extendible_slr_classes(6) == 652
    assert count_extendible_slr_classes(4) == 36
    assert count_extendible_slr_classes(2) == 2
    assert count_extendible_slr_classes(1) == 1


def test_extendible_count_matches_scan():
    for n in (2, 3, 4, 5, 6):
        assert count_extendible_slr_classes(n) == decomposable_nonzero_count(n) + 1

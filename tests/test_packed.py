"""Kronecker-packed Z[sqrt d] in the polynomial kernels, and det B from
the last pivot of the signature's elimination.

Each packed kernel must equal the pair-product code it replaced
(`tests/oracles.py`, verbatim) and the independent oracles exactly, over
Q and Q(sqrt d) for d = 2, 3, 5, 7.  The inputs include numerators
+-(2^b - r) of one sign for b = 1, 8, 64, 200 over denominators 1..5:
with every product of one sign nothing cancels, so the largest digit of
the packed result reaches its bound.
"""

import gc
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from oracles import (
    block_product,
    conjugate_pair_step,
    elimination_det,
    indexed_minus_theta_wedge,
    loop_contract,
    loop_pullback,
    pair_contract,
    pair_cubic,
    pair_hitchin_endomorphism,
    pair_hitchin_invariant,
    pair_induced_bilinear,
    pair_minor_sums,
    pair_minus_theta_wedge,
    partition_induced_bilinear,
    perm_det,
    rand_glplus,
    scalar_mat_mul,
    wedge_hitchin_endomorphism,
)
from stableforms import (
    KForm,
    Scalar,
    SymBilinear,
    calibrated_swap,
    classify7,
    extension_admissible,
    hitchin_endomorphism,
    hitchin_invariant,
    induced_bilinear,
    pullback,
    standard_form,
)
from stableforms.exterior import linalg
from stableforms.exterior._minors import minor_sums, pack, read_off, shift, unpack
from stableforms.exterior.bilinear import _signature
from stableforms.geometry import orbits
from stableforms.geometry.hyperplane import _minus_theta_wedge
from stableforms.geometry.planes import OrientedPlane

RADICANDS = (0, 2, 3, 5, 7)
BITS = (1, 8, 64, 200)


def value(rng, d, b, sign):
    """(+-(2^b - r) + +-(2^b - r') sqrt(d)) / den with den in 1..5, both
    numerators of the given sign, or a random sign when `sign` is 0."""

    def numerator():
        s = sign or rng.choice((-1, 1))
        return s * ((1 << b) - rng.randint(0, min(3, (1 << b) - 1)))

    den = rng.randint(1, 5)
    if not d:
        return Scalar(Fraction(numerator(), den))
    return Scalar(Fraction(numerator(), den), Fraction(numerator(), den), d)


def cases(seed):
    """(rng, d, b, sign) over the fields, bit lengths and sign patterns."""
    rng = random.Random(seed)
    for d in RADICANDS:
        for b in BITS:
            for sign in (1, -1, 0):
                yield rng, d, b, sign


def vector(rng, n, d, b, sign):
    return [value(rng, d, b, sign) for _ in range(n)]


def form(rng, dim, degree, d, b, sign):
    return KForm(dim, degree, {t: value(rng, d, b, sign) for t in combinations(range(1, dim + 1), degree)})


def matrix(rng, rows, cols, d, b, sign):
    return [vector(rng, cols, d, b, sign) for _ in range(rows)]


def test_unpack_reads_every_digit_at_the_bound():
    """W equal products of m factors M + sqrt(d) M, or M - sqrt(d) M: the
    digits of the packed sum are +-W C(m, j) M^m, the largest the bound
    allows for these M, m and W."""
    for d in RADICANDS[1:]:
        for b in BITS:
            big = (1 << b) - 1
            for m in range(1, 9):
                for weight in (1, 10, 36, 5040):
                    s = shift(weight, m, big**m)
                    for x, y in ((big, big), (-big, -big), (big, -big)):
                        r, t = 1, 0
                        for _ in range(m):
                            r, t = r * x + d * t * y, r * y + t * x
                        (packed,) = pack([x], [y], s)
                        assert unpack(weight * packed**m, s, d) == (weight * r, weight * t)
                        assert max(weight * comb(m, j) * big**m for j in range(m + 1)) < 1 << (s - 2)


def test_orbit_kernels_match_the_pair_products():
    for rng, d, b, sign in cases(2801):
        phi = form(rng, 7, 3, d, b, sign)
        bil = induced_bilinear(phi)
        assert bil == pair_induced_bilinear(phi) == partition_induced_bilinear(phi)
        rho = form(rng, 6, 3, d, b, sign)
        k = hitchin_endomorphism(rho)
        assert k == pair_hitchin_endomorphism(rho) == wedge_hitchin_endomorphism(rho)
        assert hitchin_invariant(rho) == pair_hitchin_invariant(rho)
        assert hitchin_invariant(None, k) == pair_hitchin_invariant(None, k)
        omega = form(rng, 6, 2, d, b, sign)
        x, y, dd, _ = read_off([omega.terms.get(p, Scalar(0)) for p in orbits._PAIRS6])
        (monomials,) = orbits._pfaffian_table()
        assert orbits._cubic(x, y, dd, orbits._pfaffian_table()) == pair_cubic(x, y, dd, monomials)


def test_table_weights_bound_each_entry():
    """Each cached table carries the largest sum of |coefficient| over its
    entries, the W of the digit bound."""
    for builder, weight in (
        (orbits._cubic_table, 30),
        (orbits._pfaffian_table, 15),
        (orbits._hitchin_table, 10),
        (orbits._trace_table, 36),
    ):
        table = builder()
        assert table.weight == weight == max(sum(abs(p[-1]) for p in e) for e in table)


def test_minor_sums_match_the_pair_kernel():
    """Every degree on square, wide and narrow matrices, with radical or
    rational coefficients on radical or rational matrices."""
    for rng, d, b, sign in cases(2802):
        for k, n, width in ((1, 4, 4), (2, 5, 3), (3, 7, 7), (3, 3, 3), (4, 6, 5)):
            for cd, md in ((d, d), (0, d), (d, 0)):
                terms = {t: value(rng, cd, b, sign) for t in combinations(range(1, n + 1), k)}
                m = matrix(rng, n, width, md, b, sign)
                assert minor_sums(terms, m) == pair_minor_sums(terms, m)
        phi = form(rng, 5, 3, d, b, sign)
        a = matrix(rng, 5, 5, d, b, sign)
        assert phi.pullback(a) == loop_pullback(phi, a)
        assert linalg.det(a) == perm_det(a)


def test_products_match_the_block_product():
    for rng, d, b, sign in cases(2803):
        for ad, bd in ((d, d), (0, d), (d, 0)):
            a, m = matrix(rng, 3, 7, ad, b, sign), matrix(rng, 7, 7, bd, b, sign)
            assert linalg.mat_mul(a, m) == block_product((a, m), 7) == scalar_mat_mul(a, m)
            vt = linalg.transpose(a)
            assert linalg.gram(a, m, a) == block_product((a, m, vt), 3)
            v = vector(rng, 7, ad, b, sign)
            assert linalg.mat_vec(m, v) == tuple(r[0] for r in block_product((m, [(e,) for e in v]), 1))


def test_contract_and_theta_wedge_match_the_pair_code():
    for rng, d, b, sign in cases(2804):
        for fd, ud in ((d, d), (0, d), (d, 0)):
            phi = form(rng, 7, 3, fd, b, sign)
            u = vector(rng, 7, ud, b, sign)
            assert phi.contract(u) == pair_contract(phi, u) == loop_contract(phi, u)
        theta = vector(rng, 7, d, b, sign)
        omega = form(rng, 7, 2, d, b, sign)
        args = (phi, theta, omega)
        assert _minus_theta_wedge(*args) == pair_minus_theta_wedge(*args) == indexed_minus_theta_wedge(*args)


def test_pair_step_matches_the_conjugate_step(monkeypatch):
    """rref and signature with the conjugate folded into the pivot equal
    them with the conjugate applied to each new row."""
    forms, matrices = [], []
    for rng, d, b, sign in cases(2809):
        if d:
            m = matrix(rng, 5, 6, d, b, sign)
            matrices.append(m)
            forms.append(SymBilinear(5, [[m[min(i, j)][max(i, j)] for j in range(5)] for i in range(5)]))
    new = [linalg.rref(m) for m in matrices], [_signature(f) for f in forms]
    monkeypatch.setattr(linalg, "_pair_step", conjugate_pair_step)
    assert new == ([linalg.rref(m) for m in matrices], [_signature(f) for f in forms])


def radical_glplus(rng, n, d):
    """An integer GL+ matrix plus sqrt(d) times a small integer one, with
    positive determinant."""
    while True:
        a = [[Scalar(0, rng.randint(-1, 1), d) + e for e in row] for row in rand_glplus(rng, n)]
        if linalg.det(a).sign() > 0:
            return a


def test_classify7_carries_det_b_from_the_last_pivot():
    rng = random.Random(2805)
    for d in RADICANDS:
        for name in ("g2", "split_g2"):
            for phi in (pullback(radical_glplus(rng, 7, d), standard_form(name)), -standard_form(name)):
                cls = classify7(phi)
                assert cls.bilinear.entries and cls._det
                assert cls._det == linalg.det(cls.bilinear.entries) == elimination_det(cls.bilinear.entries)
                assert repr(cls) == repr(type(cls)(cls.orbit, cls.standard_orientation, cls.signature, cls.bilinear))
                assert cls == type(cls)(cls.orbit, cls.standard_orientation, cls.signature, cls.bilinear)


def test_det_from_the_pivot_on_zero_diagonals_and_singular_forms():
    """A zero diagonal takes the 2 x 2 pivot; a singular form has det 0."""
    rng = random.Random(2806)
    for d in RADICANDS:
        for b in BITS:
            q = [value(rng, d, b, 0) for _ in range(4)]
            hyperbolic = [[0, q[0], 0, 0], [q[0], 0, q[1], 0], [0, q[1], 0, q[2]], [0, 0, q[2], 0]]
            rows = [[e for e in row] for row in hyperbolic]
            rows[3][3] = q[3]  # after the zero diagonal, a 1 x 1 pivot
            singular = [[q[0], q[1], 0], [q[1], q[2], 0], [0, 0, 0]]
            dup = [[q[0], q[1], q[0]], [q[1], q[2], q[1]], [q[0], q[1], q[0]]]
            for entries in (hyperbolic, rows, singular, dup, [[q[0]]], []):
                b_form = SymBilinear(len(entries), entries)
                sig, det = _signature(b_form)
                m = linalg.coerce_matrix(entries)
                assert det == linalg.det(m) == elimination_det(m)
                assert (sig.null == 0) == bool(det)


def test_packed_kernels_leave_no_reference_cycle():
    rng = random.Random(2807)
    inputs = []
    for d in RADICANDS:
        a = radical_glplus(rng, 7, d)
        ainv = linalg.inverse(a)
        phi = pullback(a, standard_form("g2"))
        plane = OrientedPlane(7, [linalg.mat_vec(ainv, [int(i == j) for i in range(7)]) for j in range(3)])
        rho = form(rng, 6, 3, d, 8, 0)
        inputs.append((phi, plane, rho, form(rng, 6, 2, d, 8, 0), vector(rng, 7, d, 8, 0)))
    gc.collect()
    gc.disable()
    try:
        for phi, plane, rho, omega, u in inputs:
            classify7(phi)
            calibrated_swap(phi, plane)
            hitchin_invariant(rho)
            extension_admissible(rho, omega)
            phi.contract(u)
            linalg.mat_mul([u], linalg.identity(7))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("d", RADICANDS[1:])
def test_rational_and_radical_halves_meet_zeros(d):
    """Purely rational, purely radical and zero entries in one packed call."""
    rng = random.Random(2808 + d)
    pool = [Scalar(0), Scalar(3), Scalar(0, -2, d), Scalar(Fraction(1, 3), Fraction(5, 4), d)]
    for _ in range(20):
        terms = {t: rng.choice(pool) for t in combinations(range(1, 6), 2)}
        m = [[rng.choice(pool) for _ in range(4)] for _ in range(5)]
        assert minor_sums(terms, m) == pair_minor_sums(terms, m)
        f = KForm(5, 2, terms)
        u = [rng.choice(pool) for _ in range(5)]
        assert f.contract(u) == pair_contract(f, u)

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stableforms
from oracles import (
    chain_classify7,
    field_form,
    field_scalar,
    float_mat_mul,
    float_matrix,
    naive_induced_bilinear,
    naive_wedge,
    nested_hitchin_endomorphism,
    partition_induced_bilinear,
    rand_glplus,
    rand_kform,
    transposed_hitchin_invariant,
)
from stableforms import (
    DimensionError,
    Endo,
    KForm,
    Orbit6,
    Orbit7,
    OrbitError,
    Scalar,
    ScalarContextError,
    SymBilinear,
    classify6,
    classify7,
    extension_admissible,
    hermitian_form,
    hitchin_dual,
    hitchin_endomorphism,
    hitchin_invariant,
    induced_bilinear,
    para_eigenspaces,
    para_hermitian_form,
    pullback,
    signature,
    standard_form,
    top_coefficient,
)
from stableforms.exterior import linalg
from stableforms.exterior._minors import read_off, to_scalar
from stableforms.geometry import orbits
from stableforms.geometry.planes import OrientedPlane

RHO_MINUS = standard_form("sl3c")
RHO_PLUS = standard_form("sl3r2")

# The complex structure pairing coordinates (1,2), (3,4), (5,6); the
# endomorphism built from (u . rho)^rho on the model complex-type form
# is -2 times it (the two cross terms of the expansion each contribute).
J_STD = Endo(
    6,
    [
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0],
    ],
)


def basis6(i):
    return [1 if j == i else 0 for j in range(1, 7)]


def test_induced_bilinear_g2_is_identity():
    b = induced_bilinear(standard_form("g2"))
    assert b == SymBilinear.diagonal([1] * 7)
    assert naive_induced_bilinear(standard_form("g2")) == list(
        list(r) for r in b.entries
    )


def test_induced_bilinear_split_is_split_metric():
    b = induced_bilinear(standard_form("split_g2"))
    assert b == standard_form("split_metric")
    assert signature(b) == (3, 4, 0)


def test_induced_bilinear_decomposable_is_zero():
    b = induced_bilinear(KForm.basis(7, (1, 2, 3)))
    assert b == SymBilinear.zero(7)


def assert_matches_oracle(phi):
    b = induced_bilinear(phi)
    assert [list(r) for r in b.entries] == naive_induced_bilinear(phi)
    assert b == partition_induced_bilinear(phi)


def rand_radical_glplus(rng, d, n=7):
    """GL+ matrix over Q(sqrt(d)) with one irrational entry."""
    while True:
        m = [list(row) for row in rand_glplus(rng, n)]
        m[rng.randrange(n)][rng.randrange(n)] += Scalar(0, rng.choice((1, -1, 2)), d)
        if linalg.det(m).sign() > 0:
            return m


def test_induced_bilinear_oracle_dense_rational():
    rng = random.Random(916)
    for name in ("g2", "split_g2"):
        for _ in range(2):
            assert_matches_oracle(pullback(rand_glplus(rng, 7), standard_form(name)))


def test_induced_bilinear_oracle_dense_radical():
    rng = random.Random(917)
    for d in (2, 3):
        for name in ("g2", "split_g2"):
            phi = pullback(rand_radical_glplus(rng, d), standard_form(name))
            assert any(not c.is_rational for c in phi.terms.values())
            assert_matches_oracle(phi)


def test_induced_bilinear_oracle_sparse_and_degenerate():
    rng = random.Random(918)
    assert_matches_oracle(KForm.zero(7, 3))
    assert_matches_oracle(KForm.basis(7, (1, 2, 3)))
    for _ in range(12):
        assert_matches_oracle(rand_kform(rng, 7, 3, max_terms=rng.randint(1, 8)))


def test_induced_bilinear_oracle_fractional_coefficients():
    rng = random.Random(919)
    for _ in range(4):
        phi = rand_kform(rng, 7, 3, max_terms=10) * Scalar(Fraction(rng.randint(1, 9), 7))
        phi = phi + KForm.basis(7, (2, 4, 6), Fraction(-5, 12))
        assert_matches_oracle(phi)
    a = rand_glplus(rng, 7)
    assert_matches_oracle(pullback(a, standard_form("g2")) * Scalar(Fraction(2, 3)))
    radical = pullback(rand_radical_glplus(rng, 2), standard_form("split_g2"))
    assert_matches_oracle(radical + KForm.basis(7, (1, 5, 7), Scalar(Fraction(1, 6), Fraction(-3, 10), 2)))


def test_cubic_matches_partition_kernel_over_four_fields():
    """The 735-monomial cubic equals the partition-table kernel exactly on
    dense, sparse, degenerate and fractional forms over Q, Q(sqrt 2),
    Q(sqrt 3) and Q(sqrt 5)."""
    rng = random.Random(920)
    for d in (0, 2, 3, 5):
        for name in ("g2", "split_g2"):
            a = rand_radical_glplus(rng, d) if d else rand_glplus(rng, 7)
            dense = pullback(a, standard_form(name))
            cases = [
                dense,
                dense * field_scalar(rng, d, 7) + field_form(rng, 7, 3, d, 6, den=6),
                KForm(7, 3, {t: c for t, c in dense.terms.items() if 7 not in t}),
                field_form(rng, 7, 3, d, 35),
            ]
            cases += [field_form(rng, 7, 3, d, rng.randint(1, 8)) for _ in range(4)]
            cases += [KForm.basis(7, (1, 2, 3), field_scalar(rng, d)), KForm.zero(7, 3)]
            for phi in cases:
                b = induced_bilinear(phi)
                assert b == partition_induced_bilinear(phi)
            # without index 7 the form kills e_7: B is degenerate
            assert all(not x for x in induced_bilinear(cases[2]).entries[6])
            if d:
                assert any(not c.is_rational for c in dense.terms.values())


def test_cubic_table_shape():
    table = orbits._cubic_table()
    assert len(table) == 28
    assert sum(map(len, table)) == 735
    assert {len(row) for row in table} == {15, 30}
    assert {c for row in table for *_, c in row} <= {-2, -1, 1, 2}
    for row in table:
        # distinct monomials of three distinct 3-sets
        assert len({frozenset(m[:3]) for m in row}) == len(row)
        assert all(len(set(m[:3])) == 3 for m in row)


def test_import_builds_no_table():
    """The orbit tables and the minor kernel's scatter tables are built on
    first use: a fresh `import stableforms` runs none of the cached table
    builders."""
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import stableforms\n"
        "print(json.dumps({f'{m.__name__}.{n}': f.cache_info().misses\n"
        "    for m in list(sys.modules.values()) if m.__name__.startswith('stableforms')\n"
        "    for n, f in vars(m).items() if hasattr(f, 'cache_info')}))\n"
    )
    src = str(Path(stableforms.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    misses = json.loads(out.stdout)
    for name in ("_cubic_table", "_hitchin_table", "_trace_table", "_pfaffian_table"):
        assert misses["stableforms.geometry.orbits." + name] == 0
    assert misses["stableforms.exterior._minors._scatter_table"] == 0
    assert not any(misses.values())


def test_quadratic_matches_the_written_out_sums_over_four_fields():
    """hitchin_endomorphism and hitchin_invariant, taken by `_sums`,
    equal the nested-table and transposed-trace sums they replaced exactly
    on dense, sparse, degenerate and fractional inputs over Q, Q(sqrt 2),
    Q(sqrt 3) and Q(sqrt 5)."""
    rng = random.Random(924)
    for d in (0, 2, 3, 5):
        for name in ("sl3c", "sl3r2"):
            a = rand_radical_glplus(rng, d, 6) if d else rand_glplus(rng, 6)
            dense = pullback(a, standard_form(name))
            cases = [
                dense,
                dense * field_scalar(rng, d, 7) + field_form(rng, 6, 3, d, 6, den=6),
                KForm(6, 3, {t: c for t, c in dense.terms.items() if 6 not in t}),
                field_form(rng, 6, 3, d, 20, den=rng.randint(1, 6)),
            ]
            cases += [field_form(rng, 6, 3, d, rng.randint(1, 6)) for _ in range(4)]
            cases += [KForm.basis(6, (1, 2, 3), field_scalar(rng, d)), KForm.zero(6, 3)]
            for rho in cases:
                k = hitchin_endomorphism(rho)
                assert k == nested_hitchin_endomorphism(rho)
                assert hitchin_invariant(rho) == transposed_hitchin_invariant(rho)
                assert hitchin_invariant(None, k) == transposed_hitchin_invariant(None, k)
            # without index 6 the form is degenerate
            assert not hitchin_invariant(cases[2])
            for _ in range(4):
                rows = [[field_scalar(rng, d, rng.randint(1, 5)) if rng.random() < 0.6 else 0 for _ in range(6)] for _ in range(6)]
                assert hitchin_invariant(None, Endo(6, rows)) == transposed_hitchin_invariant(None, Endo(6, rows))
            if d:
                assert any(not c.is_rational for c in dense.terms.values())


def test_orbit_table_matches_the_if_chain_over_four_fields():
    """classify7's signature table equals the if chain it replaced on
    dense, sparse, degenerate and fractional forms over the four fields,
    and the cases reach all five outcomes."""
    rng = random.Random(925)
    seen = set()
    for d in (0, 2, 3, 5):
        for name in ("g2", "split_g2"):
            a = rand_radical_glplus(rng, d) if d else rand_glplus(rng, 7)
            dense = pullback(a, standard_form(name))
            cases = [
                dense,
                -dense,
                dense * field_scalar(rng, d, 7) + field_form(rng, 7, 3, d, 4, den=6),
                KForm(7, 3, {t: c for t, c in dense.terms.items() if 7 not in t}),
                field_form(rng, 7, 3, d, 35, den=rng.randint(1, 6)),
                KForm.zero(7, 3),
            ]
            cases += [field_form(rng, 7, 3, d, rng.randint(1, 8)) for _ in range(4)]
            for phi in cases:
                cls = classify7(phi)
                assert cls == chain_classify7(phi)
                seen.add((cls.orbit, cls.standard_orientation))
    assert len(seen) == 5


def test_pfaffian_is_a_sixth_of_the_cube():
    """extension_admissible's Pfaffian against the shuffle wedge omega^3."""
    rng = random.Random(921)
    for d in (0, 2, 3, 5):
        forms = [field_form(rng, 6, 2, d, rng.randint(1, 15), den=rng.randint(1, 6)) for _ in range(6)]
        forms.append(pullback(rand_glplus(rng, 6), KForm(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})))
        for om in forms:
            x, y, dd, den = read_off([om.terms.get(p, Scalar(0)) for p in orbits._PAIRS6])
            pf = to_scalar(*orbits._cubic(x, y, dd, orbits._pfaffian_table()), dd, den ** 3)
            assert pf * Scalar(6) == top_coefficient(naive_wedge(naive_wedge(om, om), om))


def test_mixed_radicands_raise():
    phi = standard_form("g2") + KForm(
        7, 3, {(1, 2, 3): Scalar(0, 1, 2), (3, 5, 6): Scalar(0, 1, 3)}
    )
    with pytest.raises(ScalarContextError):
        induced_bilinear(phi)
    with pytest.raises(ScalarContextError):
        classify7(phi)


def test_induced_bilinear_equivariance():
    rng = random.Random(911)
    for phi in (standard_form("g2"), standard_form("split_g2")):
        b = induced_bilinear(phi)
        for _ in range(10):
            a = rand_glplus(rng, 7)
            lhs = induced_bilinear(pullback(a, phi))
            rhs = b.transform(a)
            d = linalg.det(a)
            scaled = SymBilinear(7, [[x * d for x in row] for row in rhs.entries])
            assert lhs == scaled


def test_classify7_examples():
    assert classify7(standard_form("g2")).orbit is Orbit7.G2
    assert classify7(standard_form("g2")).standard_orientation is True
    tilde = classify7(standard_form("split_g2"))
    assert tilde.orbit is Orbit7.G2_TILDE
    assert tilde.standard_orientation is True
    assert tilde.signature == (3, 4, 0)
    assert classify7(KForm.basis(7, (1, 2, 3))).orbit is Orbit7.NON_STABLE


def test_classify7_orientation_flag():
    # -phi is the pullback by -Id (orientation-reversing in dim 7)
    neg = -standard_form("g2")
    cls = classify7(neg)
    assert cls.orbit is Orbit7.G2
    assert cls.standard_orientation is False
    neg_split = -standard_form("split_g2")
    cls2 = classify7(neg_split)
    assert cls2.orbit is Orbit7.G2_TILDE
    assert cls2.standard_orientation is False
    assert cls2.signature == (4, 3, 0)


def test_hitchin_endomorphism_examples():
    assert hitchin_endomorphism(RHO_PLUS) == standard_form("para")
    assert hitchin_endomorphism(RHO_MINUS) == J_STD.scale(-2)
    zero = hitchin_endomorphism(KForm.basis(6, (1, 2, 3)))
    assert zero == Endo.diagonal([0] * 6)


def test_hitchin_invariant_examples():
    assert hitchin_invariant(RHO_PLUS) == Scalar(1)
    # Expanding (e_i . rho)^rho doubles every cross term on the model
    # complex-type form, so the invariant is -4 rather than -1.
    assert hitchin_invariant(RHO_MINUS) == Scalar(-4)
    assert hitchin_invariant(KForm.basis(6, (1, 2, 3))) == Scalar(0)
    k = hitchin_endomorphism(RHO_MINUS)
    assert hitchin_invariant(RHO_MINUS, k) == Scalar(-4)
    # K must be 6 x 6: a larger one is not read by its first 36 entries
    for n in (7, 5, 1):
        with pytest.raises(DimensionError):
            hitchin_invariant(RHO_MINUS, Endo.identity(n))


def test_hitchin_scaling_laws():
    for c in (2, 3, Fraction(1, 2)):
        k1 = hitchin_endomorphism(RHO_PLUS)
        kc = hitchin_endomorphism(RHO_PLUS * Scalar(c))
        assert kc == k1.scale(Scalar(c) * Scalar(c))
        assert hitchin_invariant(RHO_MINUS * Scalar(c)) == Scalar(c) ** 4 * Scalar(-4)


def test_k_square_law_random():
    rng = random.Random(912)
    for _ in range(200):
        rho = rand_kform(rng, 6, 3, max_terms=rng.randint(1, 5))
        k = hitchin_endomorphism(rho)
        lam = hitchin_invariant(rho, k)
        assert k.compose(k) == Endo.diagonal([lam] * 6)


def test_classify6_examples():
    assert classify6(RHO_MINUS).orbit is Orbit6.SL3C
    assert classify6(RHO_PLUS).orbit is Orbit6.SL3R2
    assert classify6(KForm.basis(6, (1, 2, 3))).orbit is Orbit6.DEGENERATE


def test_classify6_mixed_form_with_float_oracle():
    mixed = RHO_MINUS + RHO_PLUS
    cls = classify6(mixed)
    k = float_matrix(hitchin_endomorphism(mixed))
    k2 = float_mat_mul(k, k)
    lam_float = sum(k2[i][i] for i in range(6)) / 6
    assert abs(float(cls.invariant) - lam_float) < 1e-9
    for i in range(6):
        for j in range(6):
            expect = lam_float if i == j else 0.0
            assert abs(k2[i][j] - expect) < 1e-9
    expected_orbit = (
        Orbit6.SL3C
        if lam_float < -1e-9
        else (Orbit6.SL3R2 if lam_float > 1e-9 else Orbit6.DEGENERATE)
    )
    assert cls.orbit is expected_orbit


def test_classify_invariance_under_glplus():
    rng = random.Random(913)
    forms7 = [standard_form("g2"), standard_form("split_g2"), KForm.basis(7, (1, 2, 3))]
    forms6 = [RHO_MINUS, RHO_PLUS, KForm.basis(6, (1, 2, 3))]
    for _ in range(30):
        a7 = rand_glplus(rng, 7)
        a6 = rand_glplus(rng, 6)
        for phi in forms7:
            assert classify7(pullback(a7, phi)).orbit is classify7(phi).orbit
        for rho in forms6:
            assert classify6(pullback(a6, rho)).orbit is classify6(rho).orbit


def test_para_eigenspaces_standard():
    ep, em = para_eigenspaces(RHO_PLUS)
    std_p = OrientedPlane(6, [basis6(1), basis6(2), basis6(3)])
    std_m = OrientedPlane(6, [basis6(4), basis6(5), basis6(6)])
    assert ep.same_oriented(std_p)
    assert em.same_oriented(std_m)


def test_para_eigenspaces_scaling():
    ep, em = para_eigenspaces(RHO_PLUS * Scalar(8))
    k = hitchin_endomorphism(RHO_PLUS * Scalar(8))
    assert k == standard_form("para").scale(64)
    assert hitchin_invariant(RHO_PLUS * Scalar(8)) == Scalar(4096)
    assert ep.same_oriented(OrientedPlane(6, [basis6(1), basis6(2), basis6(3)]))
    assert em.same_oriented(OrientedPlane(6, [basis6(4), basis6(5), basis6(6)]))


def test_para_eigenspaces_equivariance():
    rng = random.Random(914)
    for _ in range(10):
        a = rand_glplus(rng, 6)
        ainv = linalg.inverse(a)
        ep, em = para_eigenspaces(pullback(a, RHO_PLUS))
        exp_p = OrientedPlane(6, [linalg.mat_vec(ainv, basis6(i)) for i in (1, 2, 3)])
        exp_m = OrientedPlane(6, [linalg.mat_vec(ainv, basis6(i)) for i in (4, 5, 6)])
        assert ep.spans_same(exp_p)
        assert em.spans_same(exp_m)
        # canonical orientation: the form is positive on the returned bases
        rho = pullback(a, RHO_PLUS)
        assert rho.evaluate(*ep.vectors).sign() > 0
        assert rho.evaluate(*em.vectors).sign() > 0


def test_para_eigenspaces_radical_case():
    # invariant 32: the eigenvalue +-4*sqrt(2) forces Q(sqrt(2)) kernels
    rho = KForm(6, 3, {(1, 3, 4): -1, (1, 5, 6): 2, (2, 4, 5): -2, (2, 3, 6): -2})
    cls = classify6(rho)
    assert cls.orbit is Orbit6.SL3R2
    assert cls.invariant == Scalar(32)
    ep, em = para_eigenspaces(rho)
    root = Scalar.sqrt(Fraction(32))
    k = cls.endo
    for v in ep.vectors:
        assert linalg.mat_vec(k.entries, v) == tuple(root * x for x in v)
    for v in em.vectors:
        assert linalg.mat_vec(k.entries, v) == tuple(-root * x for x in v)
    assert rho.evaluate(*ep.vectors).sign() > 0


def test_para_eigenspaces_rejects_complex_type():
    with pytest.raises(OrbitError):
        para_eigenspaces(RHO_MINUS)


def test_hitchin_dual_expansion():
    expected = KForm(6, 3, {(1, 3, 6): 1, (1, 4, 5): 1, (2, 3, 5): 1, (2, 4, 6): -1})
    assert hitchin_dual(RHO_MINUS) == expected


def test_hitchin_dual_is_quarter_turn():
    assert hitchin_dual(hitchin_dual(RHO_MINUS)) == -RHO_MINUS


def test_hitchin_dual_homogeneous():
    for c in (2, Fraction(3, 2)):
        assert hitchin_dual(RHO_MINUS * Scalar(c)) == hitchin_dual(RHO_MINUS) * Scalar(c)


def test_hitchin_dual_rejects_para_type():
    with pytest.raises(OrbitError):
        hitchin_dual(RHO_PLUS)


def test_hermitian_form_examples():
    om_id = KForm(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
    om_split = KForm(6, 2, {(1, 2): 1, (3, 4): -1, (5, 6): -1})
    assert hermitian_form(RHO_MINUS, om_id) == SymBilinear.diagonal([1] * 6)
    assert hermitian_form(RHO_MINUS, om_split) == SymBilinear.diagonal(
        [1, 1, -1, -1, -1, -1]
    )
    assert signature(hermitian_form(RHO_MINUS, om_id)) == (6, 0, 0)
    assert signature(hermitian_form(RHO_MINUS, om_split)) == (2, 4, 0)
    assert hermitian_form(RHO_MINUS, KForm.zero(6, 2)) == SymBilinear.zero(6)


def test_para_hermitian_form_examples():
    om = KForm(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
    pairing = para_hermitian_form(RHO_PLUS, om)
    expected = [[0] * 6 for _ in range(6)]
    for i in range(3):
        expected[i][i + 3] = 1
        expected[i + 3][i] = 1
    assert pairing == SymBilinear(6, expected)
    assert signature(pairing) == (3, 3, 0)
    # a 2-form living on one eigenspace block symmetrizes to zero
    assert para_hermitian_form(RHO_PLUS, KForm.basis(6, (1, 2))) == SymBilinear.zero(6)
    assert para_hermitian_form(RHO_PLUS, KForm.zero(6, 2)) == SymBilinear.zero(6)


def test_para_hermitian_anti_invariance():
    rng = random.Random(915)
    om0 = KForm(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
    for _ in range(12):
        a = rand_glplus(rng, 6)
        rho = pullback(a, RHO_PLUS)
        om = pullback(a, om0)
        assert extension_admissible(rho, om)
        g = para_hermitian_form(rho, om)
        cls = classify6(rho)
        root = Scalar.sqrt(cls.invariant)
        i_endo = cls.endo.scale(root.inverse())
        basis = [basis6(i) for i in range(1, 7)]
        for u in basis:
            iu = linalg.mat_vec(i_endo.entries, u)
            for v in basis:
                iv = linalg.mat_vec(i_endo.entries, v)
                assert g.apply(iu, iv) == -g.apply(u, v)


def test_extension_admissible_examples():
    om_good = KForm(6, 2, {(1, 2): 1, (3, 4): -1, (5, 6): -1})
    om_bad = KForm(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
    assert extension_admissible(RHO_MINUS, om_good)
    assert not extension_admissible(RHO_MINUS, om_bad)
    om_para = KForm(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
    assert extension_admissible(RHO_PLUS, om_para)
    # flipping omega keeps the signature but flips the cube's sign
    assert not extension_admissible(RHO_PLUS, -om_para)
    with pytest.raises(OrbitError):
        extension_admissible(KForm.basis(6, (1, 2, 3)), om_para)


def test_extension_admissible_is_the_pairing_signature():
    """The criterion reads the signature of the unnormalized pairing; it
    must agree with the public normalized pairings."""
    rng = random.Random(917)
    om_complex = KForm(6, 2, {(1, 2): 1, (3, 4): -1, (5, 6): -1})
    om_para = KForm(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
    verdicts = set()
    for model, om0 in ((RHO_MINUS, om_complex), (RHO_PLUS, om_para)):
        for _ in range(6):
            a = rand_glplus(rng, 6)
            rho = pullback(a, model)
            moved = pullback(a, om0) * Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            for om in (moved, -moved, rand_kform(rng, 6, 2, max_terms=6)):
                if model is RHO_MINUS:
                    want = signature(hermitian_form(rho, om)) == (2, 4, 0)
                else:
                    cube = om.wedge(om).wedge(om)
                    want = (
                        signature(para_hermitian_form(rho, om)) == (3, 3, 0)
                        and top_coefficient(cube).sign() < 0
                    )
                assert extension_admissible(rho, om) == want
                verdicts.add((model is RHO_MINUS, want))
    assert len(verdicts) == 4


def test_circle_family_stays_complex_type():
    dual = hitchin_dual(RHO_MINUS)
    # cos/sin at quarter turns: rho, dual, -rho, -dual
    family = [RHO_MINUS, dual, -RHO_MINUS, -dual]
    for member in family:
        cls = classify6(member)
        assert cls.orbit is Orbit6.SL3C
        assert cls.invariant == Scalar(-4)


# -- one orbit guard per operation -------------------------------------------------

G2_FORM = standard_form("g2")
SPLIT_FORM = standard_form("split_g2")
FORMS7 = (G2_FORM, -G2_FORM, SPLIT_FORM, -SPLIT_FORM, KForm.basis(7, (1, 2, 3)), KForm.zero(7, 3))
FORMS6 = (RHO_MINUS, RHO_PLUS, KForm.basis(6, (1, 2, 3)), KForm.zero(6, 3))
E7 = [tuple(1 if j == i else 0 for j in range(7)) for i in range(7)]
PLANE_123 = OrientedPlane(7, E7[:3])
OMEGA_STD = KForm(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})

GUARDS7 = {
    "cross_product": (Orbit7.G2, lambda phi: stableforms.cross_product(phi, E7[0], E7[1])),
    "is_calibrated": (Orbit7.G2, lambda phi: stableforms.is_calibrated(phi, PLANE_123)),
    "is_positively_calibrated": (
        Orbit7.G2_TILDE, lambda phi: stableforms.is_positively_calibrated(phi, PLANE_123)
    ),
    "hyperplane_split": (Orbit7.G2_TILDE, lambda phi: stableforms.hyperplane_split(phi, E7[0])),
}
GUARDS6 = {
    "para_eigenspaces": (Orbit6.SL3R2, para_eigenspaces),
    "hitchin_dual": (Orbit6.SL3C, hitchin_dual),
    "hermitian_form": (Orbit6.SL3C, lambda rho: hermitian_form(rho, OMEGA_STD)),
    "para_hermitian_form": (Orbit6.SL3R2, lambda rho: para_hermitian_form(rho, OMEGA_STD)),
}


@pytest.mark.parametrize("name", GUARDS7)
def test_orbit7_guards_refuse_every_other_orbit(name):
    orbit, call = GUARDS7[name]
    for phi in FORMS7:
        cls = classify7(phi)
        if cls.orbit is orbit and cls.standard_orientation:
            call(phi)
        else:
            with pytest.raises(OrbitError, match=f"^{name} needs a standard-orientation"):
                call(phi)


def test_swap_refuses_unstable_and_reversed_forms():
    for phi in FORMS7[1::2] + FORMS7[4:]:
        with pytest.raises(OrbitError):
            stableforms.calibrated_swap(phi, PLANE_123)


@pytest.mark.parametrize("name", GUARDS6)
def test_orbit6_guards_refuse_every_other_orbit(name):
    orbit, call = GUARDS6[name]
    for rho in FORMS6:
        if classify6(rho).orbit is orbit:
            call(rho)
        else:
            with pytest.raises(OrbitError):
                call(rho)


@pytest.mark.parametrize("pairing", [hermitian_form, para_hermitian_form, extension_admissible])
def test_pairings_check_omega_before_the_orbit(pairing):
    for rho in FORMS6:
        for omega in (KForm(6, 3), KForm(7, 2), KForm(6, 1)):
            with pytest.raises(DimensionError):
                pairing(rho, omega)

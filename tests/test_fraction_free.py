"""Fraction-free linear algebra on the integer read-off: linalg.rref,
the one integer matrix product behind mat_mul, mat_vec and the
SymBilinear and Endo products, KForm.contract, the symmetric elimination
behind signature and the integer trace behind hitchin_invariant.  Each
equals the code it replaced exactly; shapes that do not fit raise
DimensionError, and input mixing two radicands raises
ScalarContextError up front.  The results of the KForm operations are
canonical without the checks of the public constructor."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (
    elimination_signature,
    faddeev_signature,
    fraction_rref,
    loop_contract,
    loop_pullback,
    naive_contract,
    naive_wedge,
    rand_glplus,
    rand_kform,
    scalar_hitchin_invariant,
    scalar_mat_mul,
    scalar_mat_vec,
    scalar_restrict,
)
from stableforms import (
    DimensionError,
    Endo,
    KForm,
    Scalar,
    ScalarContextError,
    SymBilinear,
    hitchin_endomorphism,
    hitchin_invariant,
    signature,
    standard_form,
)
from stableforms.exterior import linalg

RADICANDS = (0, 2, 3, 5)
_ZERO = Scalar(0)


def number(rng, d, zeros=0.3):
    """A random fraction, zero with probability `zeros`, plus a random
    multiple of sqrt(d) about half the time when d > 0."""
    if rng.random() < zeros:
        return Scalar(0)
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if d and rng.random() < 0.6 else 0
    return Scalar(a, b, d)


def matrix(rng, nr, nc, d, zeros=0.3):
    return [[number(rng, d, zeros) for _ in range(nc)] for _ in range(nr)]


def symmetric(rng, n, d):
    m = matrix(rng, n, n, d)
    return SymBilinear(n, [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def dependent(rng, m, d):
    """m with its last row replaced by a combination of the first two."""
    a, b = number(rng, d, 0), number(rng, d, 0)
    return m[:-1] + [[a * x + b * y for x, y in zip(m[0], m[1])]]


# -- rref ----------------------------------------------------------------------


def test_rref_matches_fraction_oracle():
    rng = random.Random(80)
    for d in RADICANDS:
        for _ in range(150):
            nr, nc = rng.randint(1, 6), rng.randint(1, 8)
            m = matrix(rng, nr, nc, d, zeros=rng.choice((0, 0.3, 0.7)))
            assert linalg.rref(m) == fraction_rref(m)
            if nr > 2:
                m = dependent(rng, m, d)
                rows, pivots = linalg.rref(m)
                assert (rows, pivots) == fraction_rref(m)
                assert len(pivots) < nr


def test_rref_on_plain_ints_zero_and_empty_matrices():
    rng = random.Random(81)
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 7)
        ints = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        fracs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(nc)] for _ in range(nr)]
        assert linalg.rref(ints) == fraction_rref(ints)
        assert linalg.rref(fracs) == fraction_rref(fracs)
    for nr, nc in ((1, 1), (3, 5), (5, 3)):
        zero = [[0] * nc for _ in range(nr)]
        assert linalg.rref(zero) == fraction_rref(zero) == ([(Scalar(0),) * nc] * nr, [])
    for empty in ([], [[], []]):
        assert linalg.rref(empty) == fraction_rref(empty)


def test_rref_with_radical_pivots():
    rng = random.Random(82)
    for d in RADICANDS[1:]:
        for _ in range(60):
            n = rng.randint(1, 6)
            m = matrix(rng, n, n + rng.randint(0, 2), d)
            # a purely radical pivot, then a mixed one
            m[0][0] = Scalar(0, Fraction(rng.randint(1, 3), rng.randint(1, 3)), d)
            if n > 1:
                m[1][1] = Scalar(rng.randint(1, 3), rng.randint(1, 3), d)
            assert linalg.rref(m) == fraction_rref(m)
            sq = [row[:n] for row in m]
            assert linalg.rank(sq) == len(fraction_rref(sq)[1])
            if linalg.rank(sq) == n:
                rhs = [number(rng, d) for _ in range(n)]
                x = linalg.solve(sq, rhs)
                assert linalg.mat_vec(sq, x) == tuple(map(Scalar.coerce, rhs))
                inv = linalg.inverse(sq)
                assert linalg.mat_mul(sq, inv) == linalg.identity(n)
            else:
                for v in linalg.kernel(sq):
                    assert not any(linalg.mat_vec(sq, v))


# -- products --------------------------------------------------------------------


def test_products_match_scalar_oracles():
    rng = random.Random(83)
    for d in RADICANDS:
        for _ in range(60):
            r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
            a, b = matrix(rng, r, k, d), matrix(rng, k, c, d)
            if r > 2:
                a = dependent(rng, a, d)
            v = [number(rng, d) for _ in range(k)]
            assert linalg.mat_mul(a, b) == scalar_mat_mul(a, b)
            assert linalg.mat_vec(a, v) == scalar_mat_vec(a, v)
            ints = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
            assert linalg.mat_mul(ints, b) == scalar_mat_mul(ints, b)
            assert linalg.mat_vec(ints, v) == scalar_mat_vec(ints, v)
            zero = [[0] * c for _ in range(k)]
            assert linalg.mat_mul(a, zero) == scalar_mat_mul(a, zero)
    for a, b in (([], [[1, 2]]), ([[], []], []), ([[1, 2]], [[3], [Fraction(1, 2)]])):
        assert linalg.mat_mul(a, b) == scalar_mat_mul(a, b)
    assert linalg.mat_vec([], [1, 2]) == scalar_mat_vec([], [1, 2]) == ()


def test_bilinear_and_endo_products_match_scalar_oracles():
    rng = random.Random(84)
    for d in RADICANDS:
        for n in range(1, 8):
            b = symmetric(rng, n, d)
            vecs = [[number(rng, d) for _ in range(n)] for _ in range(rng.randint(0, 4))]
            if len(vecs) > 2:
                vecs = dependent(rng, vecs, d)
            assert b.restrict(vecs) == scalar_restrict(b, vecs)
            u, v = [number(rng, d) for _ in range(n)], [rng.randint(-3, 3) for _ in range(n)]
            want = sum((x * y for x, y in zip(scalar_mat_vec(b.entries, v), linalg.coerce_vector(u))), Scalar(0))
            assert b.apply(u, v) == want
            a = matrix(rng, n, n, d)
            at = linalg.transpose(linalg.coerce_matrix(a))
            assert b.transform(a).entries == scalar_mat_mul(scalar_mat_mul(at, b.entries), a)
            e, f = Endo(n, matrix(rng, n, n, d)), Endo(n, matrix(rng, n, n, d))
            assert e.compose(f).entries == scalar_mat_mul(e.entries, f.entries)
            assert e.apply(v) == scalar_mat_vec(e.entries, v)


# -- contract ---------------------------------------------------------------------


def test_contract_matches_loop_and_naive_oracles():
    rng = random.Random(85)
    for d in RADICANDS:
        for n in range(1, 9):
            for k in range(1, n + 1):
                form = rand_kform(rng, n, k, max_terms=12)
                form = KForm(n, k, {idx: c * number(rng, d, 0) for idx, c in form.terms.items()})
                u = [number(rng, d) for _ in range(n)]
                got = form.contract(u)
                assert got == loop_contract(form, u)
                if n <= 5:
                    assert got == naive_contract(u, form)
                ints = [rng.randint(-2, 2) for _ in range(n)]
                assert form.contract(ints) == loop_contract(form, ints)
                j = rng.randrange(n)
                e = [int(i == j) for i in range(n)]
                assert form.contract(e) == loop_contract(form, e)
                zero = KForm.zero(n, k)
                assert zero.contract(u) == loop_contract(zero, u)
    dense = KForm(7, 3, {idx: number(rng, 2, 0) for idx in combinations(range(1, 8), 3)})
    u = [number(rng, 2, 0) for _ in range(7)]
    assert dense.contract(u) == loop_contract(dense, u)


# -- signature ---------------------------------------------------------------------


def assert_signature_matches_oracles(b):
    sig = signature(b)
    assert sig == faddeev_signature(b) == elimination_signature(b)
    return sig


def test_signature_takes_two_by_two_pivots():
    rng = random.Random(88)
    assert assert_signature_matches_oracles(SymBilinear(0, [])) == (0, 0, 0)
    null = [[1, 0, 0, 1, 0, 0, 0], [1, 0, 0, -1, 0, 0, 0], [0, 1, 0, 0, 1, 0, 0], [0, 1, 0, 0, -1, 0, 0],
            [0, 0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, -1, 0], [1, 0, 0, 0, 0, 0, 1]]
    for d in RADICANDS:
        q = number(rng, d, 0)
        assert assert_signature_matches_oracles(SymBilinear(2, [[0, q], [q, 0]])) == (1, 1, 0)
        # two hyperbolic planes, the second reached only after the first
        h = [[0, q, 0, 0], [q, 0, 0, 0], [0, 0, 0, q * q], [0, 0, q * q, 0]]
        assert assert_signature_matches_oracles(SymBilinear(4, h)) == (2, 2, 0)
        for _ in range(10):
            e = matrix(rng, 7, 7, d, zeros=0.4)
            hollow = [[_ZERO if i == j else e[min(i, j)][max(i, j)] for j in range(7)] for i in range(7)]
            assert_signature_matches_oracles(SymBilinear(7, hollow))
        # split_g2's metric diag(1, 1, 1, -1, -1, -1, -1) in a basis of null
        # vectors, then scaled by 1 - sqrt(d) < 0 (by -2 over Q)
        metric = standard_form("split_metric")
        gram = metric.restrict(null)
        assert not any(gram.entries[i][i] for i in range(7))
        assert assert_signature_matches_oracles(gram) == (3, 4, 0)
        c = Scalar(1, -1, d) if d else Scalar(-2)
        flipped = SymBilinear(7, [[e * c for e in row] for row in gram.entries])
        assert assert_signature_matches_oracles(flipped) == (4, 3, 0)


# -- hitchin_invariant and the trusted KForm results -----------------------------------


def radical_glplus(rng, n, d):
    """A GL+ matrix with one entry moved by a multiple of sqrt(d)."""
    while True:
        m = [list(row) for row in rand_glplus(rng, n)]
        if d:
            m[rng.randrange(n)][rng.randrange(n)] += Scalar(0, rng.choice((1, -1, 2)), d)
        if linalg.det(m).sign() > 0:
            return m


def assert_canonical(form):
    for idx, c in form.terms.items():
        assert type(c) is Scalar and c
        assert len(idx) == form.degree and all(1 <= i <= form.dim for i in idx)
        assert all(a < b for a, b in zip(idx, idx[1:]))
    assert form == KForm(form.dim, form.degree, form.terms)


def test_hitchin_invariant_matches_scalar_trace_on_pullbacks():
    rng = random.Random(89)
    for d in RADICANDS:
        for name in ("sl3c", "sl3r2"):
            for _ in range(3):
                rho = standard_form(name).pullback(radical_glplus(rng, 6, d))
                k = hitchin_endomorphism(rho)
                lam = hitchin_invariant(rho)
                assert lam == hitchin_invariant(rho, k) == scalar_hitchin_invariant(rho, k)
                assert k.compose(k) == Endo.diagonal([lam] * 6)
    assert hitchin_invariant(KForm.zero(6, 3)) == Scalar(0)


def test_trusted_results_match_the_checked_constructor():
    rng = random.Random(90)
    for d in RADICANDS:
        for name in ("g2", "split_g2"):
            a = radical_glplus(rng, 7, d)
            phi = standard_form(name).pullback(a)
            other = standard_form("g2").pullback(radical_glplus(rng, 7, d))
            u = [number(rng, d) for _ in range(7)]
            one = KForm(7, 1, {(i + 1,): c for i, c in enumerate(u) if c})
            s = number(rng, d, 0)
            results = [
                (phi, loop_pullback(standard_form(name), a)),
                (phi + other, KForm(7, 3, list(phi.terms.items()) + list(other.terms.items()))),
                (phi - phi, KForm.zero(7, 3)),
                (-phi, KForm(7, 3, {idx: -c for idx, c in phi.terms.items()})),
                (phi * s, KForm(7, 3, {idx: c * s for idx, c in phi.terms.items()})),
                (phi * 0, KForm.zero(7, 3)),
                (phi.wedge(one), naive_wedge(phi, one)),
                (phi.contract(u), loop_contract(phi, u)),
            ]
            for got, want in results:
                assert_canonical(got)
                assert got == want


# -- shapes that do not fit ----------------------------------------------------------


def test_mat_vec_refuses_a_short_vector():
    with pytest.raises(DimensionError):
        linalg.mat_vec(linalg.identity(3), [1, 2])


def test_mat_mul_refuses_mismatched_inner_sizes():
    with pytest.raises(DimensionError):
        linalg.mat_mul(linalg.identity(3), [[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        linalg.mat_mul([[1, 2]], linalg.identity(3))


def test_apply_refuses_short_vectors():
    b = SymBilinear.diagonal([1, 1, 1])
    with pytest.raises(DimensionError):
        b.apply([1, 1], [1, 1])
    with pytest.raises(DimensionError):
        b.apply([1, 1, 1], [1, 1])


def test_restrict_refuses_short_vectors():
    b = SymBilinear.diagonal([1, 1, 1])
    with pytest.raises(DimensionError):
        b.restrict([[1, 0], [0, 1]])
    assert b.restrict([]) == SymBilinear(0, [])


def test_solve_refuses_a_short_right_hand_side():
    with pytest.raises(DimensionError):
        linalg.solve(linalg.identity(3), [1, 2])
    with pytest.raises(DimensionError):
        linalg.solve([[1, 2, 3], [4, 5, 6]], [1, 2])
    with pytest.raises(DimensionError):
        linalg.inverse([[1, 2, 3], [4, 5, 6]])


def test_solve_and_inverse_refuse_a_singular_matrix():
    r2 = Scalar(0, 1, 2)
    for m in ([[1, 2], [2, 4]], [[r2, 1], [2, r2]], [[0, 0], [0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        with pytest.raises(ZeroDivisionError):
            linalg.solve(m, [1] * len(m))
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(m)
    assert linalg.inverse([]) == () and linalg.solve([], []) == ()
    assert linalg.solve([[0, 2], [r2, 0]], [4, 1]) == (Scalar(0, Fraction(1, 2), 2), Scalar(2))


# -- one radicand per call -----------------------------------------------------------


def test_mixed_radicands_raise_up_front():
    r2, r3 = Scalar(0, 1, 2), Scalar(0, 1, 3)
    diag = [[r2, 0], [0, r3]]
    # the Scalar loop never combined the two radicands here
    assert fraction_rref(diag) == ([(Scalar(1), Scalar(0)), (Scalar(0), Scalar(1))], [0, 1])
    with pytest.raises(ScalarContextError):
        linalg.rref(diag)
    with pytest.raises(ScalarContextError):
        linalg.solve(diag, [1, 1])
    with pytest.raises(ScalarContextError):
        linalg.kernel([[r2, 0, r3]])
    with pytest.raises(ScalarContextError):
        linalg.mat_mul([[r2, 0]], [[0], [r3]])
    form = KForm(3, 2, {(1, 2): r2, (2, 3): 1})
    assert loop_contract(form, [0, 0, r3]) == KForm(3, 1, {(2,): -r3})
    with pytest.raises(ScalarContextError):
        form.contract([0, 0, r3])


# -- no per-entry Scalar arithmetic ----------------------------------------------------
# The rewritten routines read their input off as ints once and build Scalars
# only for the result, so a spy on Scalar arithmetic sees no call.


def test_read_off_routines_do_no_scalar_arithmetic(monkeypatch):
    rng = random.Random(86)
    inputs = []
    for d in (0, 2):
        m = matrix(rng, 7, 7, d, zeros=0)
        aug = [row + [number(rng, d, 0)] for row in m]
        form = KForm(7, 3, {idx: number(rng, d, 0) for idx in combinations(range(1, 8), 3)})
        b = symmetric(rng, 7, d)
        rho = KForm(6, 3, {idx: number(rng, d, 0) for idx in combinations(range(1, 7), 3)})
        inputs.append((m, aug, form, [number(rng, d, 0) for _ in range(7)], b, rho))
    calls = []
    for name in ("__mul__", "__add__", "__sub__", "__truediv__"):
        original = getattr(Scalar, name)

        def counted(self, other, name=name, original=original):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Scalar, name, counted)
    for m, aug, form, u, b, rho in inputs:
        linalg.rref(aug)
        linalg.mat_mul(m, m)
        form.contract(u)
        signature(b)
        hitchin_invariant(rho)
    assert calls == []

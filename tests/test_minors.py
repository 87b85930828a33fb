"""The integer minor-sum kernel behind linalg.det, KForm.evaluate,
KForm.pullback, hodge_star, calibrated_swap, hitchin_dual, the
hyperplane split and the OrientedPlane predicates, and the table-built
Hitchin endomorphism: exact equality of the Horner wedge pass with the
Laplace kernel it replaced, over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5),
and with the Scalar elimination, the per-minor Scalar loops, the
contraction and Gram paths and the contract-and-wedge construction
before them."""

import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (
    contraction_hitchin_dual,
    elimination_det,
    gram_same_oriented,
    laplace_minor_sums,
    loop_evaluate,
    loop_hodge_star,
    loop_pullback,
    rand_glplus,
    rand_kform,
    rand_vector,
    perm_det,
    rank_spans_same,
    wedge_hitchin_endomorphism,
)
from stableforms import (
    DimensionError,
    KForm,
    Scalar,
    ScalarContextError,
    SymBilinear,
    calibrated_swap,
    hitchin_dual,
    hitchin_endomorphism,
    hodge_star,
    hyperplane_split,
    standard_form,
)
from stableforms.exterior import linalg
from stableforms.exterior._minors import minor_sums, read_off
from stableforms.exterior.forms import merge_signed
from stableforms.exterior.scalar import ONE
from stableforms.geometry.planes import OrientedPlane

RADICANDS = (0, 2, 3, 5)


def number(rng, d):
    """A random fraction, plus a random multiple of sqrt(d) when d > 0."""
    a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    b = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if d else 0
    return Scalar(a, b, d)


def glplus(rng, n, d):
    """GL+ matrix with entries in [-2, 2], one shifted by sqrt(d) if d > 0."""
    while True:
        m = [list(row) for row in rand_glplus(rng, n)]
        if d:
            m[rng.randrange(n)][rng.randrange(n)] += Scalar(0, 1, d)
        if linalg.det(m).sign() > 0:
            return m


def dense_form(rng, n, k, d):
    return KForm(n, k, {idx: number(rng, d) for idx in combinations(range(1, n + 1), k)})


def fractional(rng, form, d):
    """The form with each coefficient divided by a random integer and, when
    d > 0, shifted by a random multiple of sqrt(d)."""
    return KForm(
        form.dim,
        form.degree,
        {idx: c * Scalar(Fraction(1, rng.randint(1, 9))) + number(rng, d) for idx, c in form.terms.items()},
    )


def metric(rng, n, d):
    """A non-degenerate symmetric form A^T D A + sqrt(d) e1 e1 with D
    diagonal and A in GL+, both over the integers."""
    while True:
        g = SymBilinear.diagonal([rng.choice((-2, -1, 1, 3)) for _ in range(n)])
        if n > 1:
            g = g.transform(glplus(rng, n, 0))
        rows = [list(row) for row in g.entries]
        rows[0][0] += Scalar(0, 1, d)
        if linalg.det(rows):
            return SymBilinear(n, rows)


def check_kernel(terms, matrix):
    """minor_sums against the Laplace kernel it replaced, on every column
    tuple of the matrix; returns the sums."""
    matrix = linalg.coerce_matrix(matrix)
    cols = list(combinations(range(1, len(matrix[0]) + 1), len(next(iter(terms), ()))))
    got = minor_sums(terms, matrix)
    assert got == {j: v for j, v in zip(cols, laplace_minor_sums(terms, matrix, cols)) if v}
    assert all(type(v) is Scalar and v for v in got.values())
    return got


def complement(form):
    """The Euclidean complement a_{I^c} = sign(I, I^c) c_I that hodge_star
    pulls back."""
    full = range(1, form.dim + 1)
    out = {}
    for left, c in form.terms.items():
        right = tuple(i for i in full if i not in left)
        out[right] = c if merge_signed(left, right)[1] > 0 else -c
    return out


def check_all(form, matrix, vectors, g=None, vol=None):
    """pullback, evaluate and hodge_star against the per-minor loops, and
    the minor sum behind each against the Laplace kernel."""
    assert form.pullback(matrix) == loop_pullback(form, matrix)
    assert form.evaluate(*vectors) == loop_evaluate(form, *vectors)
    check_kernel(form.terms, matrix)
    if vectors:
        check_kernel(form.terms, linalg.transpose(linalg.coerce_matrix(vectors)))
    if g is not None:
        assert hodge_star(g, vol, form) == loop_hodge_star(g, vol, form)
        check_kernel(complement(form), g.entries)


def test_read_off_is_exact():
    rng = random.Random(60)
    for d in RADICANDS:
        values = [number(rng, d) for _ in range(20)] + [Scalar(0)]
        x, y, dd, den = read_off(values)
        assert dd == (d if any(v.d for v in values) else 0)
        for i, v in enumerate(values):
            rad = y[i] if dd else 0
            assert v == Scalar(Fraction(x[i], den), Fraction(rad, den), dd)
    assert read_off([]) == ([], None, 0, 1)


def test_dense_pullbacks_match_loops():
    rng = random.Random(61)
    for i, d in enumerate(RADICANDS):
        for name in (("g2", "split_g2")[i & 1], ("sl3c", "sl3r2")[i >> 1]):
            model = standard_form(name)
            n = model.dim
            a = glplus(rng, n, d)
            assert model.pullback(a) == loop_pullback(model, a)
            form = loop_pullback(model, a)
            vectors = [[number(rng, d) for _ in range(n)] for _ in range(3)]
            g = metric(rng, n, d) if n == 7 else None
            check_all(form, glplus(rng, n, d), vectors, g, KForm.basis(n, tuple(range(1, n + 1))))


def test_minor_sums_leave_no_reference_cycle():
    # Every list and dict of a kernel call must be freed when the call
    # returns, not when the cyclic collector next runs: the dense
    # workloads' peak RSS once grew with the per-call sub-minor memos
    # that recursive closures kept alive.
    rng = random.Random(62)
    model, split = standard_form("g2"), standard_form("split_g2")
    cases = []
    for d in RADICANDS:
        a = glplus(rng, 7, d)
        vectors = [[number(rng, d) for _ in range(7)] for _ in range(3)]
        # the covector e7 A of A* split_g2 is timelike, as e7 is for split_g2
        cases.append((a, vectors, metric(rng, 7, d), model.pullback(a), split.pullback(a), a[6]))
    vol = KForm.basis(7, tuple(range(1, 8)))
    gc.collect()
    gc.disable()
    try:
        for a, vectors, g, phi, psi, theta in cases:
            model.pullback(a)
            linalg.det(a)
            phi.evaluate(*vectors)
            OrientedPlane(7, vectors)
            hodge_star(g, vol, phi)
            hyperplane_split(psi, theta)
        assert gc.collect() == 0
    finally:
        gc.enable()


def sparse_number(rng, d):
    """number(rng, d), zero about a quarter of the time and rational about
    a third of the time, so both halves of the int pairs meet zeros."""
    if rng.random() < 0.25:
        return Scalar(0)
    return number(rng, d if rng.random() < 0.67 else 0)


def test_minor_sums_match_laplace_in_every_degree_and_dimension():
    """Every degree k <= n on n <= 8 rows, on matrices as wide as n, as k,
    narrower than k or of a random width, with rational or radical
    coefficients on rational or radical matrices."""
    rng = random.Random(69)
    for d in RADICANDS:
        fields = (0, d) if d else (0,)
        for n in range(1, 9):
            for k in range(n + 1):
                for cd in fields:
                    for md in fields:
                        terms = {idx: sparse_number(rng, cd) for idx in combinations(range(1, n + 1), k)}
                        width = rng.choice((n, n, k, max(k - 1, 1), rng.randint(1, 8)))
                        matrix = [[sparse_number(rng, md) for _ in range(width)] for _ in range(n)]
                        check_kernel(terms, matrix)


def test_minor_sums_split_radical_halves():
    """Rational coefficients on a radical matrix and radical coefficients
    on a rational matrix: the missing half of each is zero, not a copy of
    the rational half."""
    rng = random.Random(70)
    for d in RADICANDS[1:]:
        for n, k in ((3, 2), (6, 3), (7, 3), (8, 4)):
            idxs = list(combinations(range(1, n + 1), k))
            rational = {idx: number(rng, 0) for idx in idxs}
            radical = {idx: number(rng, d) + Scalar(0, 1, d) for idx in idxs}
            flat = [[number(rng, 0) for _ in range(n)] for _ in range(n)]
            surd = [[number(rng, d) + Scalar(0, 1, d) for _ in range(n)] for _ in range(n)]
            for terms, matrix in ((rational, surd), (radical, flat), (radical, surd)):
                got = check_kernel(terms, matrix)
                assert any(v.d == d for v in got.values())
            assert not any(v.d for v in check_kernel(rational, flat).values())


def test_minor_sums_edge_cases():
    """The zero form, degree 0, the 0 x 0 determinant and k above the
    width."""
    rng = random.Random(71)
    square = [[number(rng, 2) for _ in range(4)] for _ in range(4)]
    assert check_kernel({}, square) == {}
    assert check_kernel({(1, 3): Scalar(0), (2, 4): Scalar(0)}, square) == {}
    c = number(rng, 2) or ONE
    assert check_kernel({(): c}, square) == {(): c}
    assert minor_sums({(): c}, ()) == {(): c}
    assert minor_sums({(): ONE}, ()) == {(): ONE} and laplace_minor_sums({(): ONE}, (), [()]) == [ONE]
    assert linalg.det([]) == linalg.det(()) == ONE
    narrow = [row[:2] for row in square]
    assert check_kernel({(1, 2, 3): ONE, (2, 3, 4): c}, narrow) == {}
    assert check_kernel({(1, 2, 3, 4): c}, [row[:3] for row in square]) == {}
    assert minor_sums({(1,): c, (4,): ONE}, [[]] * 4) == {}  # no column at all
    assert linalg.det([[Scalar(0), 1], [0, 2]]) == Scalar(0)


def test_dense_four_form_on_r8_matches_loops():
    """The largest level: a dense 4-form on R^8 asks for all
    C(8, 4)^2 = 4900 4 x 4 minors."""
    rng = random.Random(69)
    vol = KForm.basis(8, tuple(range(1, 9)), 3)
    for d in RADICANDS:
        form = KForm(8, 4, {idx: number(rng, d) or Scalar(idx[0]) for idx in combinations(range(1, 9), 4)})
        assert len(form.terms) == 70
        vectors = [[number(rng, d) for _ in range(8)] for _ in range(4)]
        check_all(form, glplus(rng, 8, d), vectors, metric(rng, 8, d), vol)


def test_fractional_and_sparse_forms_match_loops():
    rng = random.Random(62)
    for d in RADICANDS:
        g = metric(rng, 7, d)
        vol = KForm.basis(7, tuple(range(1, 8)), number(rng, 0) or 1)
        for k in range(1, 8):
            form = rand_kform(rng, 7, k)
            if k & 1:
                form = fractional(rng, rand_kform(rng, 7, k, max_terms=8), d)
            matrix = [[number(rng, d) for _ in range(7)] for _ in range(7)]
            vectors = [[number(rng, d) for _ in range(7)] for _ in range(k)]
            check_all(form, matrix, vectors, g, vol)


def test_every_degree_in_every_dimension_matches_loops():
    rng = random.Random(63)
    for n in range(1, 9):
        d = RADICANDS[n % 4]
        g = metric(rng, n, d)
        vol = KForm.basis(n, tuple(range(1, n + 1)), 2)
        for k in range(n + 1):
            form = fractional(rng, rand_kform(rng, n, k), d)
            matrix = [[number(rng, d) for _ in range(n)] for _ in range(n)]
            vectors = [rand_vector(rng, n) for _ in range(k)]
            check_all(form, matrix, vectors, g, vol)
            check_all(KForm.zero(n, k), matrix, vectors)
            if n <= 5:
                check_all(dense_form(rng, n, k, d), matrix, vectors)


def test_det_matches_leibniz_and_elimination():
    rng = random.Random(67)
    for d in RADICANDS:
        for n in range(9):
            for density in (1.0, 0.4):
                m = [
                    [number(rng, d) if rng.random() < density else Scalar(0) for _ in range(n)]
                    for _ in range(n)
                ]
                if n > 1 and density < 1:
                    m[-1] = [x * Scalar(2) for x in m[0]]  # singular
                got = linalg.det(m)
                assert got == elimination_det(m)
                if n <= 6:
                    assert got == perm_det(m)
    assert linalg.det([]) == Scalar(1)
    assert linalg.det(()) == elimination_det(())


def test_det_mixed_radicands_raise():
    m = [[Scalar(0, 1, 2), 0], [0, Scalar(0, 1, 3)]]
    m = [[Scalar.coerce(x) for x in row] for row in m]
    with pytest.raises(ScalarContextError):
        elimination_det(m)
    with pytest.raises(ScalarContextError):
        linalg.det(m)
    big = [[Scalar(int(i == j)) for j in range(5)] for i in range(5)]
    big[0][0], big[4][4] = Scalar(1, 1, 2), Scalar(1, 1, 5)
    with pytest.raises(ScalarContextError):
        elimination_det(big)
    with pytest.raises(ScalarContextError):
        linalg.det(big)


def test_det_takes_plain_numbers_and_refuses_non_square():
    m = [[1, 2, 0], [Fraction(1, 2), 3, 1], [0, -1, 4]]
    assert linalg.det(m) == elimination_det(linalg.coerce_matrix(m)) == Scalar(9)
    with pytest.raises(DimensionError):
        linalg.det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionError):
        linalg.det([[1, 2], [3, 4], [5, 6]])


def test_degree_zero_forms():
    one = KForm(5, 0, {(): 1})
    g = SymBilinear.diagonal([1, 2, 3, 4, 5])
    vol = KForm.basis(5, (1, 2, 3, 4, 5), 3)
    assert one.evaluate() == Scalar(1)
    assert KForm.zero(5, 0).evaluate() == Scalar(0)
    assert one.pullback([[0] * 5] * 5) == one
    assert hodge_star(g, vol, one) == loop_hodge_star(g, vol, one)
    assert hodge_star(g, vol, one) == vol
    assert hodge_star(g, vol, vol) == loop_hodge_star(g, vol, vol)


def test_hitchin_endomorphism_matches_wedges():
    rng = random.Random(64)
    for d in RADICANDS:
        for name in ("sl3c", "sl3r2"):
            rho = standard_form(name).pullback(glplus(rng, 6, d))
            assert hitchin_endomorphism(rho) == wedge_hitchin_endomorphism(rho)
        for _ in range(3):
            rho = dense_form(rng, 6, 3, d)
            assert hitchin_endomorphism(rho) == wedge_hitchin_endomorphism(rho)
        rho = fractional(rng, rand_kform(rng, 6, 3), d)
        assert hitchin_endomorphism(rho) == wedge_hitchin_endomorphism(rho)
    zero = KForm.zero(6, 3)
    assert hitchin_endomorphism(zero) == wedge_hitchin_endomorphism(zero)


def test_hitchin_dual_matches_contractions():
    rng = random.Random(67)
    model = standard_form("sl3c")
    for d in (0, 2, 3):
        for _ in range(3):
            rho = model.pullback(glplus(rng, 6, 0))
            if d:
                # diag(sqrt d, sqrt d, 1, 1, 1, 1) keeps det, so lambda, rational
                spread = [list(row) for row in linalg.identity(6)]
                spread[0][0] = spread[1][1] = Scalar(0, 1, d)
                rho = rho.pullback(spread).pullback(glplus(rng, 6, 0))
                assert any(c.d == d for c in rho.terms.values())
            scale = Scalar(0, Fraction(1, 3), d) if d else Scalar(Fraction(2, 3))
            for form in (rho, rho * scale):
                assert hitchin_dual(form) == contraction_hitchin_dual(form)


def gl3(rng, d, sign):
    """An invertible 3 x 3 matrix over Q(sqrt d) whose determinant has the
    given sign."""
    while True:
        c = [[number(rng, d) for _ in range(3)] for _ in range(3)]
        s = linalg.det(c).sign()
        if s:
            return c if s == sign else [c[1], c[0], c[2]]


def test_plane_predicates_match_gram_oracle():
    rng = random.Random(68)
    for d in (0, 2, 3):
        for dim in (6, 7):
            base = OrientedPlane(dim, [[number(rng, d) for _ in range(dim)] for _ in range(3)])
            triples = list(combinations(range(1, dim + 1), 3))
            assert base.trivector == tuple(laplace_minor_sums({(1, 2, 3): ONE}, base.vectors, triples))
            for sign in (1, -1):
                other = OrientedPlane(dim, linalg.mat_mul(gl3(rng, d, sign), base.vectors))
                assert base.spans_same(other) and rank_spans_same(base, other)
                assert base.same_oriented(other) == gram_same_oriented(base, other) == (sign > 0)
                assert other.same_oriented(base) == gram_same_oriented(other, base)
            moved = OrientedPlane(dim, base.vectors[:2] + ([number(rng, d) for _ in range(dim)],))
            assert not base.spans_same(moved) and not rank_spans_same(base, moved)
            assert not base.same_oriented(moved) and not gram_same_oriented(base, moved)
            u, v, _ = base.vectors
            with pytest.raises(DimensionError):
                OrientedPlane(dim, [u, v, [x - y for x, y in zip(u, v)]])


# -- one radicand per computation --------------------------------------------


def test_mixed_radicand_pullback_raises():
    rng = random.Random(65)
    form = standard_form("g2").pullback(glplus(rng, 7, 2))
    assert any(c.d == 2 for c in form.terms.values())
    matrix = glplus(rng, 7, 3)
    with pytest.raises(ScalarContextError):
        loop_pullback(form, matrix)
    with pytest.raises(ScalarContextError):
        form.pullback(matrix)
    vectors = [[Scalar(0, 1, 3)] * 7, rand_vector(rng, 7), rand_vector(rng, 7)]
    with pytest.raises(ScalarContextError):
        form.evaluate(*vectors)
    g = SymBilinear.diagonal([Scalar(1, 1, 3)] + [1] * 6)
    with pytest.raises(ScalarContextError):
        hodge_star(g, KForm.basis(7, tuple(range(1, 8))), form)


def test_mixed_radicand_hitchin_endomorphism_raises():
    rho = standard_form("sl3c")
    terms = dict(rho.terms)
    first, last = sorted(terms)[0], sorted(terms)[-1]
    terms[first] = Scalar(1, 1, 2)
    terms[last] = Scalar(0, 1, 3)
    with pytest.raises(ScalarContextError):
        wedge_hitchin_endomorphism(KForm(6, 3, terms))
    with pytest.raises(ScalarContextError):
        hitchin_endomorphism(KForm(6, 3, terms))


# -- no per-minor determinants -------------------------------------------------
# linalg.det is the kernel's top-degree minor sum, so the spy sees every
# whole-matrix determinant; the only ones allowed are det g, which scales
# hodge_star's pullback, and the two of the calibration identity
# phi(b)^6 det B == det(B|_C)^3.


def test_minor_loops_call_no_det(monkeypatch):
    rng = random.Random(66)
    a = glplus(rng, 7, 0)
    phi = standard_form("g2").pullback(a)
    # A^-1 e1, A^-1 e2, A^-1 e3 carry A*phi to phi(e1, e2, e3): calibrated
    plane = OrientedPlane(7, linalg.transpose(linalg.inverse(a))[:3])
    g = metric(rng, 7, 0)
    vol = KForm.basis(7, tuple(range(1, 8)))
    b = glplus(rng, 7, 0)
    vectors = [rand_vector(rng, 7) for _ in range(3)]
    calls = []
    original = linalg.det

    def counted(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(linalg, "det", counted)
    phi.pullback(b)
    phi.evaluate(*vectors)
    hodge_star(g, vol, phi)
    calibrated_swap(phi, plane)
    assert calls == [7, 3]

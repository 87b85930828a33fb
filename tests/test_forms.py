import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (
    counting_merge_signed,
    kform_eq,
    naive_contract,
    naive_eval,
    naive_wedge,
    rand_kform,
    rand_matrix,
    rand_vector,
    trigform_eq,
)
from stableforms import (
    DimensionError,
    Endo,
    KForm,
    Scalar,
    SymBilinear,
    basis_vector,
    contract,
    hodge_star,
    pullback,
    standard_form,
    top_coefficient,
    wedge,
)
from stableforms.errors import DegenerateMetricError
from stableforms.exterior.forms import merge_signed
from stableforms.torus import TrigForm

E = KForm.basis


def test_constructor_sorts_with_sign():
    assert KForm(6, 2, {(2, 1): 1}) == KForm(6, 2, {(1, 2): -1})
    assert KForm(6, 3, {(1, 1, 2): 5}).is_zero
    assert KForm(6, 2, [((1, 2), 1), ((2, 1), 1)]).is_zero


def test_constructor_validation():
    with pytest.raises(DimensionError):
        KForm(9, 1, {})
    with pytest.raises(DimensionError):
        KForm(6, 7, {})
    with pytest.raises(DimensionError):
        KForm(6, 2, {(1, 7): 1})
    with pytest.raises(DimensionError):
        KForm(6, 2, {(1, 2, 3): 1})
    # indices are exact ints: a float or a string is refused, not truncated
    for idx in ((1.5, 2, 3), ("1", 2, 3), (Fraction(1), 2, 3)):
        with pytest.raises(TypeError):
            KForm(7, 3, {idx: 1})
    assert KForm(7, 3, {(True, 2, 3): 1}) == E(7, (1, 2, 3))


def test_sums_and_negation_keep_the_kind():
    a = KForm(6, 2, {(1, 2): 1, (3, 4): Scalar(0, 1, 2)})
    b = KForm(6, 2, {(1, 2): -1, (5, 6): Fraction(1, 3)})
    for got, want in (
        (a + b, {(3, 4): Scalar(0, 1, 2), (5, 6): Scalar(Fraction(1, 3))}),
        (a - b, {(1, 2): Scalar(2), (3, 4): Scalar(0, 1, 2), (5, 6): Scalar(Fraction(-1, 3))}),
        (-a, {(1, 2): Scalar(-1), (3, 4): Scalar(0, -1, 2)}),
        (a - a, {}),
    ):
        assert type(got) is KForm and (got.dim, got.degree) == (6, 2)
        assert got.terms == want and got.is_zero == (not want)
    for other in (KForm(7, 2), KForm(6, 3)):
        with pytest.raises(DimensionError):
            a + other
        with pytest.raises(DimensionError):
            a - other


def test_sums_refuse_foreign_operands():
    a = KForm(6, 2, {(1, 2): 1})
    for other in (1, Fraction(1, 2), Scalar(1), "x", None):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            other + a
        with pytest.raises(TypeError):
            a - other
        with pytest.raises(TypeError):
            other - a
        with pytest.raises(TypeError):
            a.wedge(other)


def replaced_eq(a, b):
    """a == b under the KForm and TrigForm __eq__ methods that
    _SparseForm.__eq__ replaced, with Python's reflected fallback."""
    for x, y in ((a, b), (b, a)):
        method = {KForm: kform_eq, TrigForm: trigform_eq}.get(type(x))
        got = NotImplemented if method is None else method(x, y)
        if got is not NotImplemented:
            return got
    return a is b


def test_equality_is_the_per_class_equality_it_replaced():
    k = KForm(6, 2, {(1, 2): 1, (3, 4): Scalar(0, 1, 2)})
    kforms = [
        k,
        KForm(6, 2, k.terms),
        KForm(6, 2, {(1, 2): 1}),
        KForm(7, 2, k.terms),
        KForm(6, 2),
        KForm(6, 3),
    ]
    t = TrigForm(3, 1, {(1,): 1, (2,): Fraction(1, 2)})
    trigs = [
        t,
        TrigForm(3, 1, t.terms),
        t.with_t(),
        TrigForm(3, 1, {(1,): 1}),
        TrigForm(4, 1, {(1,): 1}),
        TrigForm(3, 1),
        TrigForm(3, 1, has_t=True),
        TrigForm(3, 2),
    ]
    one = KForm(6, 0, {(): 1})
    others = [1, 0, None, "x", Scalar(1), k.terms, TrigForm.from_kform(KForm(3, 1, {(1,): 1}))]
    for a in kforms + trigs + [one]:
        for b in kforms + trigs + others + [one]:
            assert (a == b) is replaced_eq(a, b)
            assert (b == a) is replaced_eq(b, a)
            assert (a != b) is not replaced_eq(a, b)
    # a KForm never equals a TrigForm, either way round
    kf = KForm(3, 1, {(1,): 1})
    tf = TrigForm.from_kform(kf)
    assert kf.__eq__(tf) is NotImplemented and tf.__eq__(kf) is NotImplemented
    assert not kf == tf and not tf == kf and kf != tf
    # a form is not the number it holds
    assert not one == 1 and not 1 == one and one != 1
    # TrigForms that differ only in has_t are unequal
    assert t.terms == t.with_t().terms and t != t.with_t() and not t == t.with_t()
    for form in (k, one, t, t.with_t()):
        with pytest.raises(TypeError):
            hash(form)


def test_merge_signed_matches_the_inversion_count():
    tuples = [t for k in range(5) for t in combinations(range(1, 9), k)]
    for left in tuples:
        for right in tuples:
            merged, sign = merge_signed(left, right)
            want, want_sign = counting_merge_signed(left, right)
            assert sign == want_sign
            if sign:
                assert merged == want


def test_wedge_basis_cases():
    th1, th2 = E(7, (1,)), E(7, (2,))
    assert wedge(th1, th2) == E(7, (1, 2))
    assert wedge(E(7, (1, 2, 3)), E(7, (4, 5, 6))) == E(7, (1, 2, 3, 4, 5, 6))
    assert wedge(th1, th1).is_zero
    # (e2) ^ (e1 e3) merges with an odd sign and cancels (e1) ^ (e2 e3)
    a = E(7, (1,)) + E(7, (2,))
    b = E(7, (2, 3)) + E(7, (1, 3)) + E(7, (4, 5))
    ab = wedge(a, b)
    assert ab == naive_wedge(a, b) == E(7, (1, 4, 5)) + E(7, (2, 4, 5))
    assert wedge(E(7, (2,)), E(7, (1, 3))) == -E(7, (1, 2, 3))


def test_omega_cubed():
    omega = KForm(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
    cube = wedge(wedge(omega, omega), omega)
    assert cube == KForm(6, 6, {(1, 2, 3, 4, 5, 6): -6})
    # cross-check with the independent shuffle-sum expander
    assert naive_wedge(naive_wedge(omega, omega), omega) == cube


def test_wedge_against_oracle_random():
    rng = random.Random(101)
    rng_c = random.Random(102)  # a separate stream: a and b do not depend on c
    for _ in range(25):
        dim = rng.choice([4, 5, 6])
        ka = rng.randint(1, 2)
        kb = rng.randint(1, min(2, dim - ka))
        a = rand_kform(rng, dim, ka)
        b = rand_kform(rng, dim, kb)
        c = rand_kform(rng_c, dim, ka, lo=-1, hi=1)
        assert wedge(a, b) == naive_wedge(a, b)
        diff = a - c
        assert diff == a + (-c)
        assert wedge(diff, b) == naive_wedge(diff, b)
        for idx in set(a.terms) | set(c.terms):
            assert diff.coefficient(idx) == a.coefficient(idx) - c.coefficient(idx)
        assert (a - a).terms == {}


def test_wedge_laws_random():
    rng = random.Random(202)
    for _ in range(25):
        dim = 6
        a = rand_kform(rng, dim, rng.randint(1, 2))
        b = rand_kform(rng, dim, rng.randint(1, 2))
        c = rand_kform(rng, dim, rng.randint(1, 2))
        if a.degree + b.degree + c.degree <= dim:
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        if a.degree + b.degree <= dim:
            ab = wedge(a, b)
            ba = wedge(b, a)
            if (a.degree * b.degree) % 2:
                assert ab == -ba
            else:
                assert ab == ba


def test_wedge_degree_overflow():
    with pytest.raises(DimensionError):
        wedge(E(6, (1, 2, 3, 4)), E(6, (5, 6, 1)))


def test_contract_basis_cases():
    e1 = basis_vector(7, 1)
    e4 = basis_vector(7, 4)
    assert contract(e1, E(7, (1, 2, 3))) == E(7, (2, 3))
    assert contract(e4, E(7, (1, 2, 3))).is_zero
    rho_plus = standard_form("sl3r2")
    e2 = basis_vector(6, 2)
    assert contract(e2, rho_plus) == KForm(6, 2, {(1, 3): -1})


def test_contract_degree_zero_rejected():
    with pytest.raises(DimensionError):
        contract(basis_vector(6, 1), KForm(6, 0, {(): 1}))


def test_contract_leibniz_random():
    rng = random.Random(303)
    for _ in range(25):
        dim = 6
        a = rand_kform(rng, dim, 2)
        b = rand_kform(rng, dim, rng.randint(1, 3))
        u = rand_vector(rng, dim)
        lhs = contract(u, wedge(a, b))
        rhs = wedge(contract(u, a), b) + wedge(a, contract(u, b))
        assert lhs == rhs  # deg a even
        assert contract(u, a) == naive_contract(u, a)


def test_pullback_identity_and_scaling():
    phi0 = standard_form("g2")
    ident = Endo.identity(7)
    assert pullback(ident, phi0) == phi0
    two = Endo.diagonal([2] * 7)
    assert pullback(two, E(7, (1, 2, 3))) == KForm(7, 3, {(1, 2, 3): 8})


def test_pullback_refuses_a_non_square_matrix():
    form = KForm(3, 2, {(1, 2): 1, (2, 3): Fraction(1, 2)})
    wide = [[1, 0, 0, 2], [0, 1, 0, 3], [0, 0, 1, 4]]
    narrow = [[1, 0], [0, 1], [1, 1]]
    for matrix in (wide, narrow, narrow[:2], [row[:3] for row in wide] + [[0, 0, 1]]):
        with pytest.raises(DimensionError):
            form.pullback(matrix)
        with pytest.raises(DimensionError):
            pullback(matrix, form)
    square = [row[:3] for row in wide]
    assert form.pullback(square) == form


def test_pullback_sign_flip_relates_the_two_stable_forms():
    # (Id + -Id on e1 + <e2..e7>) carries the split model form onto the
    # reflected form 2*phi|_C - phi across C = <e1,e2,e3>.
    flip = Endo.diagonal([1, -1, -1, -1, -1, -1, -1])
    split = standard_form("split_g2")
    swapped = KForm(
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
    assert pullback(flip, split) == swapped
    assert pullback(flip, swapped) == split


def test_pullback_contravariance_random():
    rng = random.Random(404)
    for _ in range(100):
        dim = rng.choice([6, 7])
        a = rand_matrix(rng, dim)
        b = rand_matrix(rng, dim)
        form = rand_kform(rng, dim, 3, max_terms=3)
        ab = Endo(dim, a).compose(Endo(dim, b))
        assert pullback(ab, form) == pullback(b, pullback(a, form))


def test_evaluate_matches_oracle():
    rng = random.Random(505)
    for _ in range(20):
        form = rand_kform(rng, 6, rng.randint(1, 3))
        vecs = [rand_vector(rng, 6) for _ in range(form.degree)]
        assert form.evaluate(*vecs) == naive_eval(form, vecs)


def test_hodge_star_of_one():
    g = standard_form("split_metric")
    vol = E(7, tuple(range(1, 8)))
    one = KForm(7, 0, {(): 1})
    assert hodge_star(g, vol, one) == vol


def test_hodge_star_split_identity():
    g = standard_form("split_metric")
    vol = E(7, tuple(range(1, 8)))
    assert hodge_star(g, vol, standard_form("split_g2")) == standard_form(
        "split_g2_dual"
    )


def test_hodge_double_star_sign_law():
    cases = [
        (7, standard_form("split_metric"), 4),
        (7, SymBilinear.diagonal([1] * 7), 0),
        (6, SymBilinear.diagonal([1, 1, 1, -1, -1, -1]), 3),
        (6, SymBilinear.diagonal([1] * 6), 0),
    ]
    from itertools import combinations

    for dim, g, q in cases:
        vol = E(dim, tuple(range(1, dim + 1)))
        for k in range(dim + 1):
            for idx in combinations(range(1, dim + 1), k):
                alpha = E(dim, idx)
                twice = hodge_star(g, vol, hodge_star(g, vol, alpha))
                sign = (-1) ** (k * (dim - k)) * (-1) ** q
                assert twice == alpha * Scalar(sign)


def test_hodge_star_degenerate_metric_rejected():
    g = SymBilinear.diagonal([1, 1, 0, 1, 1, 1, 1])
    vol = E(7, tuple(range(1, 8)))
    with pytest.raises(DegenerateMetricError):
        hodge_star(g, vol, E(7, (1, 2, 3)))


def test_top_coefficient():
    vol = KForm(6, 6, {(1, 2, 3, 4, 5, 6): Fraction(-3, 2)})
    assert top_coefficient(vol) == Scalar(Fraction(-3, 2))


def test_json_round_trip():
    phi = standard_form("split_g2")
    again = KForm.from_json_str(phi.to_json_str())
    assert again == phi
    radical = KForm(6, 2, {(1, 2): Scalar(Fraction(1, 2), Fraction(-3, 4), 5)})
    assert KForm.from_json_str(radical.to_json_str()) == radical
    obj = json.loads(phi.to_json_str())
    assert obj["dim"] == 7 and obj["degree"] == 3
    idx_lists = [t["idx"] for t in obj["terms"]]
    assert idx_lists == sorted(idx_lists)  # deterministic order
    for t in obj["terms"]:
        assert t["idx"] == sorted(t["idx"])


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        KForm.from_json({"dim": 6, "terms": []})

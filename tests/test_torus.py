import math
import random
from fractions import Fraction

import pytest

from stableforms import (
    DimensionError,
    KForm,
    Orbit6,
    Orbit7,
    Scalar,
    classify6,
    classify7,
    hitchin_dual,
    hitchin_invariant,
    standard_form,
)
from stableforms.torus import (
    GaussQ,
    TrigForm,
    TrigScalar,
    cylinder_extension,
    phase_family,
)

from oracles import (
    dict_cylinder_extension,
    dict_trig_form,
    dict_trig_scalar,
)

RHO_MINUS = standard_form("sl3c")
RHO_HAT = hitchin_dual(RHO_MINUS)


def rand_trig_scalar(rng, dim, max_freq=3, tmax=0):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        freq = tuple(rng.randint(-max_freq, max_freq) for _ in range(dim))
        tdeg = rng.randint(0, tmax)
        c = GaussQ(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        )
        key = (freq, tdeg)
        neg = (tuple(-f for f in freq), tdeg)
        terms[key] = terms.get(key, GaussQ()) + c
        terms[neg] = terms.get(neg, GaussQ()) + c.conj()
    return TrigScalar(dim, terms)


def rand_trig_form(rng, dim, degree, has_t=False, tmax=0):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lo = 0 if has_t else 1
        idx = tuple(sorted(rng.sample(range(lo, dim + 1), degree)))
        terms[idx] = rand_trig_scalar(rng, dim, tmax=tmax)
    return TrigForm(dim, degree, terms, has_t)


def test_gaussq_parse_round_trip():
    c = GaussQ(Fraction(3, 4), Fraction(-2, 5))
    assert GaussQ.parse(str(c)) == c


def test_only_exact_numbers_build_torus_scalars():
    # ints and Fractions are the exact input, as for Scalar: a float or a
    # string is refused, not converted or truncated
    assert GaussQ(3, Fraction(1, 2)) == GaussQ(Fraction(3), Fraction(1, 2))
    for re, im in ((1.5, 0), (0, 0.5), ("1/2", 0), (0, Scalar(1))):
        with pytest.raises(TypeError):
            GaussQ(re, im)
    half = GaussQ(Fraction(1, 2))
    for key in (((1.0, 0), 0), (("1", 0), 0), ((1, 0), 1.0), ((1, 0), "1")):
        with pytest.raises(TypeError):
            TrigScalar(2, {key: half})
    with pytest.raises(TypeError):
        phase_family((1.5, 0, 0, 0, 0, 0), RHO_MINUS, RHO_HAT)
    assert TrigScalar(1, {((True,), 0): half, ((-1,), 0): half}) == TrigScalar.cos_wave(1, (1,))


def test_trig_scalar_adds_exact_numbers_on_either_side():
    f = TrigScalar.cos_wave(2, (1, 0)) * Fraction(2, 3)
    one = TrigScalar.constant(2, 1)
    for n in (1, -2, Fraction(3, 4)):
        c = TrigScalar.constant(2, n)
        assert f + n == f + c and n + f == f + c
        assert f - n == f - c
    assert f + 1 - 1 == f and 1 + f == f + one
    assert sum([f, f, f]) == f * 3
    for bad in ("x", 0.5, GaussQ(1)):
        with pytest.raises(TypeError):
            f + bad
        with pytest.raises(TypeError):
            bad + f


def test_reality_enforced():
    with pytest.raises(DimensionError):
        TrigScalar(2, {((1, 0), 0): GaussQ(1, 1)})
    # conjugate pair is fine
    TrigScalar(2, {((1, 0), 0): GaussQ(1, 1), ((-1, 0), 0): GaussQ(1, -1)})
    with pytest.raises(DimensionError):
        TrigScalar(1, {((0,), 0): GaussQ(0, 1)})  # constant must be real


def test_cos_derivative():
    cos = TrigScalar.cos_wave(6, (1, 0, 0, 0, 0, 0))
    sin = TrigScalar.sin_wave(6, (1, 0, 0, 0, 0, 0))
    f = TrigForm(6, 0, {(): cos})
    assert f.d() == TrigForm(6, 1, {(1,): -sin})


def test_constant_form_is_closed():
    const = TrigForm.from_kform(RHO_MINUS)
    assert const.d().is_zero


def test_leibniz_in_t():
    # d(t * beta) = dt ^ beta + t * d(beta) for a t-independent beta
    rng = random.Random(50)
    beta = rand_trig_form(rng, 6, 2).with_t()
    t = TrigScalar.t_monomial(6)
    dt = TrigForm.dt_form(6)
    lhs = beta.scale(t).d()
    rhs = dt.wedge(beta) + beta.d().scale(t)
    assert lhs == rhs


def test_d_squared_zero_random():
    rng = random.Random(51)
    for _ in range(100):
        dim = rng.choice([3, 4, 6])
        has_t = rng.random() < 0.5
        degree = rng.randint(0, min(3, dim - 1))
        form = rand_trig_form(rng, dim, degree, has_t=has_t, tmax=2 if has_t else 0)
        assert form.d().d().is_zero


def test_wedge_evaluation_homomorphism():
    rng = random.Random(52)
    for _ in range(30):
        a = rand_trig_form(rng, 4, 1)
        b = rand_trig_form(rng, 4, rng.randint(1, 2))
        point = tuple(Fraction(rng.randint(0, 3)) for _ in range(4))
        lhs = a.wedge(b).eval_exact(point)
        rhs = a.eval_exact(point).wedge(b.eval_exact(point))
        assert lhs == rhs


def test_derivative_matches_finite_differences():
    def eval_float(f, point, t=None):
        total = 0.0
        for (freq, m), c in f.terms.items():
            phase = sum(k * x for k, x in zip(freq, point))
            val = complex(c) * complex(math.cos(phase), math.sin(phase))
            if m:
                val *= float(t) ** m
            total += val.real
        return total

    rng = random.Random(53)
    h = 1e-6
    for _ in range(10):
        f = rand_trig_scalar(rng, 3)
        x = [rng.uniform(0, 6.28) for _ in range(3)]
        for j in range(1, 4):
            xp = list(x)
            xm = list(x)
            xp[j - 1] += h
            xm[j - 1] -= h
            numeric = (eval_float(f, xp) - eval_float(f, xm)) / (2 * h)
            exact = eval_float(f.dx(j), x)
            assert math.isclose(numeric, exact, rel_tol=1e-5, abs_tol=1e-5)


def test_exact_evaluation_requires_quarter_turn_points():
    f = TrigScalar.cos_wave(2, (1, 1))
    assert f.eval_exact((Fraction(1), Fraction(0))) == 0  # cos(pi/2)
    assert f.eval_exact((Fraction(1), Fraction(1))) == -1  # cos(pi)
    with pytest.raises(DimensionError):
        f.eval_exact((Fraction(1, 3), Fraction(0)))


def test_phase_family_endpoints():
    fam = phase_family((1, 0, 0, 0, 0, 0), RHO_MINUS, RHO_HAT)
    zero = tuple(Fraction(0) for _ in range(6))
    quarter = (Fraction(1), 0, 0, 0, 0, 0)
    half = (Fraction(2), 0, 0, 0, 0, 0)
    assert fam.eval_exact(zero) == RHO_MINUS
    assert fam.eval_exact(quarter) == RHO_HAT
    assert fam.eval_exact(half) == -RHO_MINUS


def test_phase_family_zero_frequency_is_constant():
    fam = phase_family((0,) * 6, RHO_MINUS, RHO_HAT)
    assert fam == TrigForm.from_kform(RHO_MINUS)


def test_phase_family_not_closed_for_nonzero_frequency():
    fam = phase_family((1, 0, 0, 0, 0, 0), RHO_MINUS, RHO_HAT)
    assert not fam.d().is_zero


def test_phase_family_pointwise_complex_type():
    rng = random.Random(54)
    for _ in range(20):
        freqs = tuple(rng.randint(0, 1) for _ in range(6))
        fam = phase_family(freqs, RHO_MINUS, RHO_HAT)
        for _ in range(3):
            point = tuple(Fraction(rng.randint(0, 3)) for _ in range(6))
            value = fam.eval_exact(point)
            cls = classify6(value)
            assert cls.orbit is Orbit6.SL3C
            assert cls.invariant == Scalar(-4)


def test_cylinder_extension_constant_pair():
    rho = standard_form("sl3r2")
    omega = KForm(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
    ext = cylinder_extension(rho, omega)
    assert ext.d().is_zero  # constant closed inputs give a closed extension
    value = ext.eval_exact((Fraction(0),) * 6, t=Fraction(0))
    assert classify7(value).orbit is Orbit7.G2_TILDE
    later = ext.eval_exact((Fraction(0),) * 6, t=Fraction(1, 2))
    assert later == value  # d(omega) = 0 kills the t-term


def test_cylinder_identity_random():
    rng = random.Random(55)
    for _ in range(20):
        rho = rand_trig_form(rng, 6, 3)
        omega = rand_trig_form(rng, 6, 2)
        ext = cylinder_extension(rho, omega)
        assert ext.d() == rho.d().with_t()


def test_cylinder_closed_rho_arbitrary_omega():
    rng = random.Random(56)
    rho = TrigForm.from_kform(RHO_MINUS)  # constant, hence closed
    omega = rand_trig_form(rng, 6, 2)
    ext = cylinder_extension(rho, omega)
    assert ext.d().is_zero


def test_trigform_json_round_trip():
    rng = random.Random(57)
    for has_t in (False, True):
        form = rand_trig_form(rng, 6, 2, has_t=has_t, tmax=2 if has_t else 0)
        again = TrigForm.from_json_str(form.to_json_str())
        assert again == form


def _trig_json(**item):
    term = {"idx": [1, 2], "freq": [0, 0, 0, 0, 0, 0], "c": "1/2+i*0"}
    term.update(item)
    return {"dim": 6, "degree": 2, "terms": [term]}


def test_trigform_json_example():
    form = TrigForm.from_json(_trig_json(tdeg=0))
    assert form == TrigForm.from_kform(KForm(6, 2, [((1, 2), Fraction(1, 2))]))


@pytest.mark.parametrize(
    "bad",
    [
        {"c": "1/0+i*0"},
        {"c": "0+i*3/0"},
        {"c": 5},
        {"idx": [1.7, 2]},
        {"idx": [True, 2]},
        {"idx": "12"},
        {"freq": [0.5, 0, 0, 0, 0, 0]},
        {"freq": ["1", 0, 0, 0, 0, 0]},
        {"tdeg": 1.0},
    ],
)
def test_trigform_json_rejects_malformed_term(bad):
    with pytest.raises(ValueError):
        TrigForm.from_json(_trig_json(**bad))


@pytest.mark.parametrize(
    "field,value",
    [("dim", 6.0), ("dim", "6"), ("degree", True), ("t", "no"), ("t", 1), ("t", None)],
)
def test_trigform_json_rejects_malformed_header(field, value):
    obj = _trig_json()
    obj[field] = value
    with pytest.raises(ValueError):
        TrigForm.from_json(obj)


# -- integer numerators against the GaussQ-dict oracle ----------------------


def _assert_matches(got, want):
    """`got` has the oracle's terms and is the canonical value that the
    public constructor builds from its own terms."""
    if isinstance(got, TrigScalar):
        assert dict(got.terms) == want.terms
        assert TrigScalar(got.dim, got.terms) == got
        return
    assert (got.dim, got.degree, got.has_t) == (want.dim, want.degree, want.has_t)
    assert {i: dict(c.terms) for i, c in got.terms.items()} == {
        i: c.terms for i, c in want.terms.items()
    }
    assert TrigForm(got.dim, got.degree, got.terms, got.has_t) == got


def test_scalar_arithmetic_matches_gaussq_oracle():
    rng = random.Random(58)
    for _ in range(200):
        dim = rng.choice([1, 2, 3, 6])
        # frequencies in -1..1 collide often, so sums cancel terms
        a = rand_trig_scalar(rng, dim, max_freq=1, tmax=2)
        b = rand_trig_scalar(rng, dim, max_freq=1, tmax=2)
        oa, ob = dict_trig_scalar(a), dict_trig_scalar(b)
        _assert_matches(a + b, oa + ob)
        _assert_matches(a - b, oa - ob)
        _assert_matches(-a, -oa)
        n = rng.choice((0, 1, -3, Fraction(5, 2)))
        on = type(oa).constant(dim, n)
        _assert_matches(a + n, oa + on)
        _assert_matches(n + a, on + oa)
        _assert_matches(a - n, oa - on)
        _assert_matches(a * b, oa * ob)
        _assert_matches(a + (b - a), ob)
        _assert_matches(a - a, oa - oa)
        assert (a - a) == TrigScalar.zero(dim)
        for x in (a, a - a, a.dt(), a.dx(1)):
            assert bool(x) == (not x.is_zero)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        _assert_matches(a * q, oa * q)
        _assert_matches(q * b, q * ob)
        for j in range(1, dim + 1):
            _assert_matches(a.dx(j), oa.dx(j))
        _assert_matches(a.dt(), oa.dt())
        _assert_matches(a.dt().dt().dt(), oa.dt().dt().dt())


def test_form_calculus_matches_gaussq_oracle():
    rng = random.Random(59)
    for _ in range(60):
        dim = rng.choice([3, 4, 6])
        has_t = rng.random() < 0.5
        tmax = 2 if has_t else 0
        slots = dim + has_t
        p = rng.randint(0, min(2, slots))
        a = rand_trig_form(rng, dim, p, has_t, tmax)
        b = rand_trig_form(rng, dim, rng.randint(0, min(2, slots - p)), has_t, tmax)
        c = rand_trig_form(rng, dim, p, has_t, tmax)
        oa, ob, oc = dict_trig_form(a), dict_trig_form(b), dict_trig_form(c)
        _assert_matches(a.wedge(b), oa.wedge(ob))
        _assert_matches(a + c, oa + oc)
        _assert_matches(a - c, oa - oc)
        assert a - c == a + (-c)
        _assert_matches(-a, -oa)
        assert (-a).is_zero == a.is_zero and (a - a).is_zero
        _assert_matches(a - a, oa - oa)
        assert (a - a).terms == {}
        _assert_matches(a.d(), oa.d())
        _assert_matches(a.d().d(), oa.d().d())
        f = rand_trig_scalar(rng, dim, max_freq=1, tmax=tmax)
        _assert_matches(a.scale(f), oa.scale(dict_trig_scalar(f)))
        _assert_matches(a.scale(0), oa.scale(0))
        if not has_t:
            _assert_matches(a.with_t(), oa.with_t())
    # (e2) ^ (e0 e3) merges with an odd sign and cancels (e0) ^ (e2 e3)
    f = TrigScalar.cos_wave(3, (1, 0, 2))
    g = TrigScalar.sin_wave(3, (0, 1, 0)) * Fraction(1, 3)
    a = TrigForm(3, 1, {(0,): f, (1,): f, (2,): f}, has_t=True)
    b = TrigForm(3, 2, {(2, 3): g, (0, 3): g}, has_t=True)
    ab = a.wedge(b)
    assert ab == TrigForm(3, 3, {(1, 2, 3): f * g, (0, 1, 3): -(f * g)}, has_t=True)
    _assert_matches(ab, dict_trig_form(a).wedge(dict_trig_form(b)))
    for _ in range(30):
        rho = rand_trig_form(rng, 6, 3)
        omega = rand_trig_form(rng, 6, 2)
        want = dict_cylinder_extension(dict_trig_form(rho), dict_trig_form(omega))
        got = cylinder_extension(rho, omega)
        _assert_matches(got, want)
        _assert_matches(got.d(), want.d())


def test_wedge_past_top_degree_raises():
    a = TrigForm.from_kform(KForm(3, 2, {(1, 2): 1}))
    with pytest.raises(DimensionError):
        a.wedge(a)
    with pytest.raises(DimensionError):
        a.with_t().wedge(TrigForm.dt_form(3).wedge(a.with_t()))


def test_equal_values_over_different_denominators():
    half = TrigScalar.constant(2, Fraction(1, 2))
    one = half + half
    assert one == TrigScalar.constant(2, 1)
    assert (one.num, one.den) == ({((0, 0), 0): (1, 0)}, 1)
    # d/dx_1 of cos(6 x_1)/6 is -sin(6 x_1): k_1 = 6 cancels the denominator
    f = TrigScalar.cos_wave(2, (6, 0)) * Fraction(1, 6)
    assert f.den == 12
    g = f.dx(1)
    assert g == -TrigScalar.sin_wave(2, (6, 0))
    assert g.den == 2
    # d/dt of t^3/3 is t^2, over a denominator that 3 divides out
    h = TrigScalar.t_monomial(2, 3, Fraction(1, 3))
    assert h.dt() == TrigScalar.t_monomial(2, 2)
    # (1/2)(2 cos x) over den 2 equals cos x over den 2 built directly
    two_cos = TrigScalar.cos_wave(1, (1,)) * 2
    assert two_cos * Fraction(1, 2) == TrigScalar.cos_wave(1, (1,))
    half1 = TrigScalar.constant(1, Fraction(1, 2))
    assert TrigForm(1, 1, [((1,), half1), ((1,), half1)]) == TrigForm.from_kform(
        KForm(1, 1, {(1,): 1})
    )


def test_terms_view_is_read_only():
    f = TrigScalar.cos_wave(2, (1, 0))
    assert f.terms is f.terms
    assert dict(f.terms) == {
        ((1, 0), 0): GaussQ(Fraction(1, 2)),
        ((-1, 0), 0): GaussQ(Fraction(1, 2)),
    }
    with pytest.raises(TypeError):
        f.terms[((0, 0), 0)] = GaussQ(1)


def test_cylinder_json_matches_gaussq_oracle():
    rng = random.Random(60)
    for _ in range(40):
        rho = rand_trig_form(rng, 6, 3)
        omega = rand_trig_form(rng, 6, 2)
        ext = cylinder_extension(rho, omega)
        want = dict_cylinder_extension(dict_trig_form(rho), dict_trig_form(omega))
        for got, oracle in ((ext, want), (ext.d(), want.d()), (omega.d(), dict_trig_form(omega).d())):
            text = got.to_json_str()
            assert text == oracle.to_json_str()
            assert TrigForm.from_json_str(text) == got
            assert TrigForm.from_json(got.to_json()) == got


def test_cylinder_inputs_validated():
    rho = TrigForm.from_kform(RHO_MINUS)
    with pytest.raises(DimensionError):
        cylinder_extension(rho, rho)
    with pytest.raises(DimensionError):
        cylinder_extension(rho.with_t(), TrigForm.zero(6, 2))
    # sums and negation keep the kind and the t-slot, and refuse to mix them
    with pytest.raises(DimensionError):
        rho + rho.with_t()
    assert type(rho - rho) is TrigForm and not (rho - rho).has_t and (rho - rho).is_zero
    assert (-rho.with_t()).has_t and -(-rho) == rho
    # index 0 is the dt-slot: a cylinder form has it, a torus form does not
    with pytest.raises(DimensionError):
        TrigForm(3, 1, {(0,): 1})
    assert TrigForm(3, 1, {(0,): 1}, has_t=True) == TrigForm.dt_form(3)

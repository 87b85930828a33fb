"""`Scalar` as int numerators over one denominator: exact agreement with
the Fraction-pair `Scalar` it replaced (`oracles.FractionScalar`) on
seeded values over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5), the canonical
form (p, q, den, d) of every result, and the exact-input rule of the
constructor."""

import importlib
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import FractionScalar, fraction_scalar
from stableforms import KForm, Scalar, ScalarContextError
from stableforms.exterior import linalg, square_free_split
from stableforms.exterior._minors import to_scalar

FIELDS = (0, 2, 3, 5)


def number(rng, d):
    """A seeded a + b sqrt(d) with numerators up to 2^70 now and then, so
    that the gcd and the lcm have work to do; zero parts are common."""
    def part():
        if rng.random() < 0.25:
            return Fraction(0)
        bound = 1 << 70 if rng.random() < 0.1 else 9
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 12))

    return part(), (part() if d else 0)


def pair(rng, d):
    a, b = number(rng, d)
    return Scalar(a, b, d), FractionScalar(a, b, d)


def canonical(x):
    """(p + q sqrt(d)) / den with den > 0, gcd(p, q, den) == 1, and d
    square-free and > 1 with q != 0, or d == q == 0."""
    assert all(type(v) is int for v in (x.p, x.q, x.den, x.d))
    assert x.den > 0 and gcd(x.p, x.q, x.den) == 1
    if x.d:
        assert x.q and x.d > 1 and square_free_split(x.d) == (1, x.d)
    else:
        assert x.q == 0
    return True


def agrees(new, old):
    """Same value, same canonical parts, same text and the same hash."""
    assert canonical(new)
    assert (new.a, new.b, new.d) == (old.a, old.b, old.d)
    assert type(new.a) is Fraction and type(new.b) is Fraction
    assert str(new) == str(old)
    assert hash(new) == hash(old)
    return True


@pytest.mark.parametrize("d", FIELDS)
def test_ring_operations_match_fraction_oracle(d):
    rng = random.Random(1900 + d)
    for _ in range(300):
        x, fx = pair(rng, d)
        y, fy = pair(rng, d if rng.random() < 0.8 else 0)
        assert agrees(x, fx)
        assert agrees(x + y, fx + fy)
        assert agrees(x - y, fx - fy)
        assert agrees(x * y, fx * fy)
        assert agrees(-x, -fx)
        assert agrees(abs(x), abs(fx))
        assert agrees(x**3, fx**3)
        assert x.sign() == fx.sign()
        assert (x < y, x <= y, x == y, x > y, x >= y) == (
            fx < fy, fx <= fy, fx == fy, fx > fy, fx >= fy
        )
        if y:
            assert agrees(x / y, fx / fy)
            assert agrees(y.inverse(), fy.inverse())
        n = rng.choice((0, 1, -3, Fraction(5, 7), Fraction(-2, 9)))
        assert agrees(x + n, fx + n) and agrees(n + x, n + fx)
        assert agrees(x - n, fx - n) and agrees(n - x, n - fx)
        assert agrees(x * n, fx * n) and agrees(n * x, n * fx)
        assert (n < x, n <= x, n == x, n > x, n >= x) == (
            n < fx, n <= fx, n == fx, n > fx, n >= fx
        )
        if x:
            assert agrees(n / x, n / fx)
        if n:
            assert agrees(x / n, fx / n)


@pytest.mark.parametrize("d", FIELDS)
def test_text_round_trip_matches_fraction_oracle(d):
    rng = random.Random(1910 + d)
    for _ in range(300):
        x, fx = pair(rng, d)
        text = str(x)
        assert text == str(fx) and repr(x) == f"Scalar({text!r})"
        assert agrees(Scalar.parse(text), FractionScalar.parse(text))
        assert Scalar.parse(text) == x
        assert float(x) == float(fx)


@pytest.mark.parametrize("d", FIELDS)
def test_sums_over_equal_and_unequal_denominators_match_fraction_oracle(d):
    # + and - share one body over den * oden: the one gcd in to_scalar must
    # give the canonical value whether the denominators are equal, share a
    # factor or are coprime, and whether the sum cancels a part or is zero
    numerators = ((1, 1), (5, 0), (-1, -1), (7, 5), (0, 3), (6, -4))
    for den in (1, 4, 6, 7, 12):
        for oden in (1, 4, 6, 7, 12):
            for p, q in numerators:
                for op, oq in numerators:
                    a, b = Fraction(p, den), Fraction(q, den) if d else 0
                    c, e = Fraction(op, oden), Fraction(oq, oden) if d else 0
                    x, fx = Scalar(a, b, d), FractionScalar(a, b, d)
                    y, fy = Scalar(c, e, d), FractionScalar(c, e, d)
                    assert agrees(x + y, fx + fy)
                    assert agrees(x - y, fx - fy)
                    assert agrees(x * y, fx * fy)
                    if y:
                        assert agrees(x / y, fx / fy)


OPERATIONS = (
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.lt, operator.le, operator.gt, operator.ge,
)


@pytest.mark.parametrize("op", OPERATIONS)
def test_every_operation_refuses_mixed_radicands_and_floats(op):
    x, y = Scalar(1, 1, 2), Scalar(0, Fraction(1, 3), 3)
    with pytest.raises(ScalarContextError):
        op(x, y)
    with pytest.raises(ScalarContextError):
        op(y, x)
    for left, right in ((x, 0.5), (0.5, x), (Scalar(2), 2.0), (2.0, Scalar(2))):
        with pytest.raises(TypeError):
            op(left, right)


def test_sqrt_splits_its_radicand_once_and_matches_fraction_oracle(monkeypatch):
    # 2^31 + 11 and 2^31 + 45 are primes: their product is a 63-bit
    # square-free radicand, the slowest case of the trial division
    pq = (2**31 + 11) * (2**31 + 45)
    inputs = (
        0, 1, 8, 12, Fraction(9, 4), Fraction(1, 2), Fraction(50, 7),
        Scalar(Fraction(18, 5)), Scalar(Fraction(-3, 4)) * -3, pq, Fraction(4 * pq, 9),
    )
    wants = [FractionScalar.sqrt(Scalar.coerce(x).a) for x in inputs]
    module = importlib.import_module("stableforms.exterior.scalar")
    split, calls = module.square_free_split, []
    monkeypatch.setattr(module, "square_free_split", lambda n: calls.append(n) or split(n))
    for x, want in zip(inputs, wants):
        calls.clear()
        assert agrees(Scalar.sqrt(x), want)
        assert len(calls) == 1


def test_hash_matches_int_and_fraction():
    for n in (0, 1, -1, 7, 2**61 - 1, 2**61, -(2**80) + 3):
        assert hash(Scalar(n)) == hash(n)
    for f in (Fraction(1, 3), Fraction(-22, 7), Fraction(2**70 + 1, 2**65)):
        assert hash(Scalar(f)) == hash(f)
    assert hash(Scalar(1, 1, 2)) == hash(FractionScalar(1, 1, 2))
    assert len({Scalar(Fraction(2, 4)), Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1


def test_to_scalar_divides_out_one_gcd_and_makes_den_positive():
    assert agrees(to_scalar(3, 1, 2, -6), FractionScalar(Fraction(-1, 2), Fraction(-1, 6), 2))
    assert agrees(to_scalar(4, 6, 5, -2), FractionScalar(-2, -3, 5))
    assert agrees(to_scalar(-10, 0, 0, -4), FractionScalar(Fraction(5, 2)))
    assert agrees(to_scalar(0, 0, 3, -7), FractionScalar(0))
    # a zero radical part drops the radicand; radicand 0 drops the radical part
    assert agrees(to_scalar(6, 0, 2, 4), FractionScalar(Fraction(3, 2)))
    assert agrees(to_scalar(6, 5, 0, 4), FractionScalar(Fraction(3, 2)))


@pytest.mark.parametrize("d", FIELDS)
def test_inverse_of_negative_values(d):
    rng = random.Random(1920 + d)
    seen = 0
    for _ in range(200):
        x, fx = pair(rng, d)
        if x.sign() < 0:
            seen += 1
            assert agrees(x.inverse(), fx.inverse())
            assert x.inverse().sign() < 0
    assert seen > 50


def fraction_gauss_jordan(rows):
    """`oracles.fraction_rref` on FractionScalar rows: each pivot row is
    divided by its pivot, then cleared from the other rows."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return rows, pivots


@pytest.mark.parametrize("d", FIELDS)
def test_rref_with_negative_last_pivot_matches_fraction_oracle(d):
    # For a square invertible matrix the last Bareiss pivot is the
    # determinant of the read-off int matrix, and rref divides by it over Q
    # and by its norm over Q(sqrt d); a negative one reaches to_scalar as a
    # negative denominator.
    rng = random.Random(1930 + d)
    negative = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[pair(rng, d)[0] for _ in range(n)] for _ in range(n)]
        det = linalg.det(m)
        if not det:
            continue
        norm = det.p * det.p - det.q * det.q * det.d if det.d else det.p
        negative += norm < 0
        aug = [row + [pair(rng, d)[0]] for row in m]
        rows, pivots = linalg.rref(aug)
        want, want_pivots = fraction_gauss_jordan([[fraction_scalar(e) for e in row] for row in aug])
        assert pivots == want_pivots
        for row, want_row in zip(rows, want):
            for e, f in zip(row, want_row):
                assert agrees(e, f)
    assert negative >= 5


@pytest.mark.parametrize(
    "build",
    [
        lambda: Scalar(0.5),
        lambda: Scalar(1, 0.5, 2),
        lambda: Scalar(1, 1, 2.0),
        lambda: Scalar("1/3"),
        lambda: Scalar(Fraction(1, 3), "1"),
        lambda: Scalar.sqrt(0.25),
        lambda: Scalar.sqrt("1/4"),
        lambda: Scalar.coerce(0.5),
        lambda: KForm(7, 1, {(1,): 0.5}),
        lambda: linalg.coerce_vector([Scalar(1), 0.5]),
        lambda: linalg.coerce_vector(["1"]),
        lambda: linalg.coerce_matrix([[1, 2], [Scalar(3), 4.0]]),
    ],
)
def test_only_ints_and_fractions_are_exact_input(build):
    with pytest.raises(TypeError):
        build()


def test_exact_input_still_builds():
    assert Scalar(True) == Scalar(1)
    assert Scalar(Fraction(6, 4), 2, 8) == Scalar(Fraction(3, 2), 4, 2)
    assert Scalar.sqrt(Scalar(Fraction(9, 4))) == Scalar(Fraction(3, 2))
    assert Scalar.sqrt(8) == Scalar(0, 2, 2)
    with pytest.raises(ScalarContextError):
        Scalar(0, 1, 2) * Scalar(0, 1, 3)
    with pytest.raises(ValueError):
        Scalar(1, 1, -2)


def test_coerce_vector_keeps_scalars_and_coerces_exact_numbers():
    scalars = (Scalar(1), Scalar(0, 1, 2), Scalar(Fraction(-2, 3)))
    assert linalg.coerce_vector(scalars) is scalars
    assert linalg.coerce_vector(list(scalars)) == scalars
    assert linalg.coerce_vector(iter(scalars)) == scalars
    assert linalg.coerce_vector(()) == ()
    mixed = linalg.coerce_vector([1, Fraction(-2, 3), Scalar(0, 1, 2), True])
    assert mixed == (Scalar(1), Scalar(Fraction(-2, 3)), Scalar(0, 1, 2), Scalar(1))
    assert all(type(x) is Scalar for x in mixed)
    for ragged in ([[1, 2], [3]], [[Scalar(1)], [Scalar(2), Scalar(3)]], [[], [0]]):
        with pytest.raises(ValueError):
            linalg.coerce_matrix(ragged)
        with pytest.raises(ValueError):
            linalg.det(ragged)

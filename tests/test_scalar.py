import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableforms import Scalar, ScalarContextError
from stableforms.exterior import square_free_split

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
radicands = st.sampled_from([0, 2, 3, 5, 7, 10])


def scalars(d):
    return st.builds(lambda a, b: Scalar(a, b, d), rationals, rationals)


def test_square_free_split():
    assert square_free_split(0) == (0, 0)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(4) == (2, 1)
    assert square_free_split(12) == (2, 3)
    assert square_free_split(360) == (6, 10)
    assert square_free_split(49) == (7, 1)


def test_square_free_split_large_radicands():
    # 10^9 + 7 and 2^31 - 1, 2^31 - 19 are primes; the old p*p <= m
    # loop ran to 10^9 on each of these.
    assert square_free_split(2 * (10**9 + 7) ** 2) == (10**9 + 7, 2)
    pq = (2**31 - 1) * (2**31 - 19)
    assert square_free_split(pq) == (1, pq)
    assert square_free_split(7**3 * pq) == (7, 7 * pq)
    # 10^20 + 39 is prime and too large to trial-divide within the bound
    with pytest.raises(ScalarContextError):
        square_free_split(10**20 + 39)
    with pytest.raises(ScalarContextError):
        Scalar.parse("1+1*sqrt(100000000000000000039)")


def test_square_free_split_refuses_long_radicands_at_once():
    # trial division of a 40000-bit radicand took seconds; past 2048 bits
    # only a perfect square is taken
    big = 3 ** 25000 + 2
    start = time.perf_counter()
    with pytest.raises(ScalarContextError):
        square_free_split(big)
    assert time.perf_counter() - start < 0.5
    assert square_free_split(big * big) == (big, 1)
    assert square_free_split(2**2046 * 3) == (2**1023, 3)  # 2048 bits
    with pytest.raises(ScalarContextError):
        square_free_split(2**2048 * 3)
    assert Scalar.sqrt(Fraction(big * big, 4)) == Scalar(Fraction(big, 2))


def test_canonicalization():
    assert Scalar(1, 3, 4) == Scalar(7)  # 1 + 3*sqrt(4) = 7
    assert Scalar(2, 5, 0) == Scalar(2)
    assert Scalar(0, 2, 18) == Scalar(0, 6, 2)
    assert Scalar(1, 0, 5).d == 0


def test_basic_arithmetic():
    x = Scalar(1, 1, 2)  # 1 + sqrt(2)
    y = Scalar(0, 1, 2)
    assert x * x == Scalar(3, 2, 2)
    assert x - y == Scalar(1)
    assert (x / x) == Scalar(1)
    assert y * y == Scalar(2)
    assert (Scalar(1) / x) == Scalar(-1, 1, 2)  # 1/(1+sqrt 2) = sqrt2 - 1
    assert x**3 == Scalar(7, 5, 2)


def test_context_mixing_rejected():
    with pytest.raises(ScalarContextError):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)
    with pytest.raises(ScalarContextError):
        Scalar(0, 1, 2) * Scalar(0, 1, 5)
    # a rational combines with any radicand
    assert Scalar(3) + Scalar(0, 1, 5) == Scalar(3, 1, 5)


def test_sqrt():
    assert Scalar.sqrt(Fraction(4)) == Scalar(2)
    assert Scalar.sqrt(Fraction(9, 4)) == Scalar(Fraction(3, 2))
    assert Scalar.sqrt(Fraction(1, 2)) == Scalar(0, Fraction(1, 2), 2)
    assert Scalar.sqrt(0) == Scalar(0)
    with pytest.raises(ValueError):
        Scalar.sqrt(Fraction(-1))
    with pytest.raises(ScalarContextError):
        Scalar.sqrt(Scalar(0, 1, 2))


def test_exact_sign_examples():
    assert Scalar(1, -1, 2).sign() == -1  # 1 - sqrt(2) < 0
    assert Scalar(3, -2, 2).sign() == 1   # 3 - 2 sqrt(2) > 0
    assert Scalar(-3, 2, 2).sign() == -1
    assert Scalar(0).sign() == 0
    assert Scalar(0, -1, 7).sign() == -1


def test_sign_agrees_with_float_on_1000_random():
    rng = random.Random(20240811)
    for _ in range(1000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        d = rng.choice([0, 2, 3, 5, 6, 7, 11])
        s = Scalar(a, b, d)
        approx = float(a) + float(b) * math.sqrt(d)
        if abs(approx) > 1e-6:
            assert s.sign() == (1 if approx > 0 else -1)


@settings(max_examples=60, deadline=None)
@given(radicands, st.data())
def test_field_laws(d, data):
    x = data.draw(scalars(d))
    y = data.draw(scalars(d))
    z = data.draw(scalars(d))
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    if y:
        assert (x / y) * y == x


@settings(max_examples=60, deadline=None)
@given(radicands, st.data())
def test_string_round_trip(d, data):
    x = data.draw(scalars(d))
    assert Scalar.parse(str(x)) == x


def test_parse_grammar():
    assert Scalar.parse("3/4") == Scalar(Fraction(3, 4))
    assert Scalar.parse("-2") == Scalar(-2)
    assert Scalar.parse("1/2+3/4*sqrt(5)") == Scalar(Fraction(1, 2), Fraction(3, 4), 5)
    assert Scalar.parse("1/2-3/4*sqrt(5)") == Scalar(Fraction(1, 2), Fraction(-3, 4), 5)
    assert Scalar.parse("-1*sqrt(2)") == Scalar(0, -1, 2)
    with pytest.raises(ValueError):
        Scalar.parse("sqrt(2)+1")


def test_ordering():
    assert Scalar(0, 1, 2) > Scalar(1)      # sqrt(2) > 1
    assert Scalar(0, 1, 2) < Scalar(Fraction(3, 2))
    assert abs(Scalar(-2, 0, 0)) == Scalar(2)

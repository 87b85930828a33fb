import random
from fractions import Fraction

import pytest

from oracles import elimination_signature, faddeev_signature, rand_invertible
from stableforms import (
    DimensionError,
    Endo,
    ScalarContextError,
    SymBilinear,
    signature,
    standard_form,
)
from stableforms.exterior import Scalar, linalg

RADICANDS = (0, 2, 3, 5)


def number(rng, d, density=1.0):
    """A random fraction plus a random multiple of sqrt(d) when d > 0, each
    part non-zero with probability at most `density`."""
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < density else 0
    b = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if d and rng.random() < density else 0
    return Scalar(a, b, d)


def symmetric(rng, n, d, density=1.0):
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = number(rng, d, density)
    return m


def low_rank(rng, n, d):
    """V^T D V for a random r x n matrix V with r < n and D diagonal."""
    r = rng.randrange(n)
    v = [[number(rng, d) for _ in range(n)] for _ in range(r)]
    w = [rng.choice((-2, -1, 1, 3)) for _ in range(r)]
    return [
        [sum((v[k][i] * v[k][j] * w[k] for k in range(r)), Scalar(0)) for j in range(n)]
        for i in range(n)
    ]


def test_symmetry_enforced():
    with pytest.raises(DimensionError):
        SymBilinear(2, [[0, 1], [2, 0]])


def test_signature_examples():
    assert signature(standard_form("split_metric")) == (3, 4, 0)
    assert signature(SymBilinear.zero(6)) == (0, 0, 6)
    assert signature(SymBilinear.diagonal([2, -3, 0])) == (1, 1, 1)


def test_signature_hyperbolic_block():
    # all-zero diagonals: each hyperbolic plane contributes (1, 1)
    b = SymBilinear(2, [[0, 1], [1, 0]])
    assert signature(b) == (1, 1, 0)
    b4 = SymBilinear(4, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
    assert signature(b4) == (2, 2, 0)


def test_signature_mixed_case():
    b = SymBilinear(
        3,
        [[0, 1, 2], [1, 0, 0], [2, 0, 0]],
    )
    # rank 2 alternating-looking symmetric matrix: one hyperbolic pair
    assert signature(b) == (1, 1, 1)


def test_signature_radical_entries():
    r = Scalar(0, 1, 2)
    b = SymBilinear(2, [[r, 0], [0, -r]])
    assert signature(b) == (1, 1, 0)


def test_signature_matches_elimination():
    rng = random.Random(607)
    for d in RADICANDS:
        for n in range(9):
            assert signature(SymBilinear.zero(n)) == (0, 0, n)
            for _ in range(2):
                cases = [symmetric(rng, n, d), symmetric(rng, n, d, 0.3)]
                hollow = symmetric(rng, n, d, 0.6)
                for i in range(n):
                    hollow[i][i] = Scalar(0)
                cases.append(hollow)
                if n:
                    cases.append(low_rank(rng, n, d))
                for m in cases:
                    b = SymBilinear(n, m)
                    assert signature(b) == elimination_signature(b) == faddeev_signature(b)


def test_signature_mixed_radicands_raise():
    b = SymBilinear.diagonal([Scalar(0, 1, 2), Scalar(0, 1, 3)])
    with pytest.raises(ScalarContextError):
        signature(b)
    dense = SymBilinear(2, [[Scalar(0, 1, 3), Scalar(0, 1, 2)], [Scalar(0, 1, 2), 1]])
    with pytest.raises(ScalarContextError):
        elimination_signature(dense)
    with pytest.raises(ScalarContextError):
        signature(dense)


def test_sylvester_invariance_random():
    rng = random.Random(606)
    for _ in range(100):
        n = rng.choice([3, 4, 5, 6])
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-3, 3)
                m[i][j] = v
                m[j][i] = v
        b = SymBilinear(n, m)
        a = rand_invertible(rng, n)
        assert signature(b.transform(a)) == signature(b)


def test_restrict_gram():
    g = standard_form("split_metric")
    vecs = [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
    ]
    gram = g.restrict(vecs)
    assert gram.entries[0][0] == Scalar(1)
    assert gram.entries[1][1] == Scalar(-1)
    assert gram.entries[0][1] == Scalar(0)


def test_endo_helpers():
    a = Endo.diagonal([1, 2])
    b = Endo(2, [[0, 1], [1, 0]])
    assert a.compose(b).entries == linalg.coerce_matrix([[0, 1], [2, 0]])
    assert b.det() == Scalar(-1)
    assert a.trace() == Scalar(3)
    assert Endo.from_columns([[1, 0], [3, 4]]).column(1) == linalg.coerce_vector([3, 4])


def test_rref_and_rank_on_plain_ints():
    rows, pivots = linalg.rref([[3, 1, 0], [1, 2, 1]])
    assert pivots == [0, 1]
    assert rows == [
        (Scalar(1), Scalar(0), Scalar(Fraction(-1, 5))),
        (Scalar(0), Scalar(1), Scalar(Fraction(3, 5))),
    ]
    assert linalg.rank([[3, 1, 1], [1, 3, 1], [4, 4, 2]]) == 2
    assert linalg.rank([[3, 1, 1], [1, 3, 1], [4, 4, 3]]) == 3

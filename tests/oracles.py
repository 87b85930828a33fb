"""Independent brute-force oracles and random generators for the tests.

Everything here recomputes results from first principles (permutation
expansions, shuffle sums) without reusing the library's sparse-merge
code paths, so oracle agreement is meaningful.
"""

import json
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb
from operator import mul

from stableforms import (
    DimensionError,
    Endo,
    HyperplaneKind,
    HyperplaneSplit,
    KForm,
    NullHyperplaneError,
    Orbit6,
    Orbit7,
    OrbitError,
    Scalar,
    ScalarContextError,
    Signature,
    SymBilinear,
    basis_vector,
    classify6,
    classify7,
    hitchin_endomorphism,
    induced_bilinear,
    signature,
    top_coefficient,
)
from stableforms.exterior import linalg, square_free_split
from stableforms.exterior._minors import _scatter_table, _wedge_row, read_off, to_scalar
from stableforms.exterior.linalg import _int_rows
from stableforms.exterior.forms import merge_signed, sort_signed
from stableforms.exterior.scalar import ZERO, _MIXED, _PLAIN, _PURE
from stableforms.geometry import orbits
from stableforms.geometry.orbits import _TRIPLES6, Class7, _require
from stableforms.f2 import q_pochhammer
from stableforms.torus import GaussQ, TrigForm


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def counting_merge_signed(left, right):
    """Concatenate two increasing tuples; (merged, sign), sign 0 on overlap."""
    inv = 0
    for a in left:
        for b in right:
            if a == b:
                return None, 0
            if a > b:
                inv += 1
    merged, _ = sort_signed(left + right)
    return merged, (-1 if inv & 1 else 1)


def perm_det(matrix):
    """Determinant via the full Leibniz sum (no elimination)."""
    n = len(matrix)
    total = Scalar(0)
    for perm in permutations(range(n)):
        prod = Scalar(1)
        for i in range(n):
            prod = prod * matrix[i][perm[i]]
        s = perm_sign(perm)
        total = total + (prod if s > 0 else -prod)
    return total


def naive_eval(form, vectors):
    """Evaluate a KForm on vectors via per-term Leibniz determinants."""
    vecs = [linalg.coerce_vector(v) for v in vectors]
    total = Scalar(0)
    for idx, c in form.terms.items():
        minor = [[v[i - 1] for v in vecs] for i in idx]
        total = total + c * perm_det(minor)
    return total


def _basis(dim, i):
    return tuple(Scalar(1 if j == i else 0) for j in range(1, dim + 1))


def naive_wedge(a, b):
    """Wedge via the shuffle-subset formula, coefficient by coefficient."""
    dim = a.dim
    deg = a.degree + b.degree
    terms = {}
    for target in combinations(range(1, dim + 1), deg):
        total = Scalar(0)
        for left_pos in combinations(range(deg), a.degree):
            left = tuple(target[p] for p in left_pos)
            right = tuple(t for p, t in enumerate(target) if p not in left_pos)
            # sign of the (left, right) shuffle of target
            seq = left + right
            inv = sum(
                1
                for x in range(deg)
                for y in range(x + 1, deg)
                if seq[x] > seq[y]
            )
            c = a.coefficient(left) * b.coefficient(right)
            if inv & 1:
                c = -c
            total = total + c
        if total:
            terms[target] = total
    return KForm(dim, deg, terms)


def naive_contract(u, a):
    """Interior product via direct evaluation on basis tuples."""
    dim = a.dim
    terms = {}
    for target in combinations(range(1, dim + 1), a.degree - 1):
        vecs = [u] + [_basis(dim, i) for i in target]
        val = naive_eval(a, vecs)
        if val:
            terms[target] = val
    return KForm(dim, a.degree - 1, terms)


def naive_induced_bilinear(phi):
    """The 7-dimensional bilinear form via the naive wedge/contract chain."""
    sixth = Scalar(Fraction(1, 6))
    top = tuple(range(1, 8))
    rows = [[Scalar(0)] * 7 for _ in range(7)]
    cons = [naive_contract(_basis(7, i), phi) for i in range(1, 8)]
    for i in range(7):
        for j in range(i, 7):
            w = naive_wedge(naive_wedge(cons[i], cons[j]), phi)
            c = w.coefficient(top) * sixth
            rows[i][j] = c
            rows[j][i] = c
    return rows


# -- the Scalar eliminations the integer kernels replaced, kept verbatim ------
# linalg.det used closed forms up to n = 3 and Scalar elimination above;
# signature eliminated symmetrically, with a hyperbolic (1, 1) block when
# the live diagonal was all zero.

_ZERO = Scalar(0)
_ONE = Scalar(1)


def elimination_det(m):
    n = len(m)
    if n == 0:
        return _ONE
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    rows = [list(r) for r in m]
    out = _ONE
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return _ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        pv = rows[c][c]
        out = out * pv
        for r in range(c + 1, n):
            if rows[r][c]:
                f = rows[r][c] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return out


def _sym_eliminate(m, n, k, src, f):
    """Congruence step v_k := v_k - f*v_src applied to the matrix m in place."""
    old_src_k = m[src][k]
    for l in range(n):
        if l == k:
            continue
        m[k][l] = m[k][l] - f * m[src][l]
        m[l][k] = m[k][l]
    m[k][k] = m[k][k] - 2 * f * old_src_k + f * f * m[src][src]


def elimination_signature(b):
    """Exact (pos, neg, null) of a symmetric bilinear form.

    Symmetric elimination on diagonal pivots; when the live diagonal is
    all zero, a non-zero off-diagonal entry contributes a hyperbolic
    (1, 1) block.
    """
    n = b.dim
    m = [[x for x in row] for row in b.entries]
    alive = list(range(n))
    pos = neg = 0
    while alive:
        piv = next((i for i in alive if m[i][i]), None)
        if piv is not None:
            pc = m[piv][piv]
            if pc.sign() > 0:
                pos += 1
            else:
                neg += 1
            alive.remove(piv)
            for j in alive:
                if m[j][piv]:
                    _sym_eliminate(m, n, j, piv, m[j][piv] / pc)
            continue
        pair = next(
            ((i, j) for i in alive for j in alive if i < j and m[i][j]), None
        )
        if pair is None:
            break
        i, j = pair
        pw = m[i][j]
        pos += 1
        neg += 1
        alive.remove(i)
        alive.remove(j)
        for k in alive:
            if m[k][j]:
                _sym_eliminate(m, n, k, i, m[k][j] / pw)
            if m[k][i]:
                _sym_eliminate(m, n, k, j, m[k][i] / pw)
    return Signature(pos, neg, n - pos - neg)


# -- the per-minor loops the minor-sum kernel replaced, kept verbatim -------
# Each sums c_I * elimination_det(minor) over Scalars, one determinant per
# term, so the loops stay independent of the kernel they check.


def loop_evaluate(form, *vectors):
    """KForm.evaluate as a loop of Scalar determinants."""
    vecs = [linalg.coerce_vector(v) for v in vectors]
    total = Scalar(0)
    for idx, c in form.terms.items():
        minor = tuple(tuple(v[i - 1] for v in vecs) for i in idx)
        total = total + c * elimination_det(minor)
    return total


def loop_pullback(form, matrix):
    """KForm.pullback as a loop of Scalar determinants."""
    rows = getattr(matrix, "entries", matrix)
    rows = linalg.coerce_matrix(rows)
    out = {}
    for big in combinations(range(1, form.dim + 1), form.degree):
        total = Scalar(0)
        for idx, c in form.terms.items():
            minor = tuple(
                tuple(rows[i - 1][j - 1] for j in big) for i in idx
            )
            total = total + c * elimination_det(minor)
        if total:
            out[big] = total
    return KForm(form.dim, form.degree, out)


def loop_hodge_star(g, vol, alpha):
    """hodge_star as a loop of Gram determinants of the inverse metric."""
    n = alpha.dim
    scale = top_coefficient(vol)
    ginv = linalg.inverse(linalg.coerce_matrix(g.entries))
    k = alpha.degree
    out = {}
    full = range(1, n + 1)
    for left in combinations(full, k):
        pairing = Scalar(0)
        for idx, c in alpha.terms.items():
            minor = tuple(
                tuple(ginv[i - 1][j - 1] for j in idx) for i in left
            )
            pairing = pairing + c * elimination_det(minor)
        if not pairing:
            continue
        right = tuple(i for i in full if i not in left)
        _, sgn = merge_signed(left, right)
        c = pairing * scale
        if sgn < 0:
            c = -c
        out[right] = c
    return KForm(n, n - k, out)


def wedge_hitchin_endomorphism(rho):
    """hitchin_endomorphism from 6 contractions and 6 generic wedges."""
    full = tuple(range(1, 7))
    cols = []
    for i in range(1, 7):
        five = rho.contract(_basis(6, i)).wedge(rho)
        col = []
        for j in range(1, 7):
            rest = full[: j - 1] + full[j:]
            c = five.coefficient(rest)
            if not (j & 1):
                c = -c  # e_j . vol = (-1)^(j-1) * complementary 5-form
            col.append(c)
        cols.append(col)
    return Endo.from_columns(cols)


# -- the Laplace minor kernel that the Horner wedge pass replaced, verbatim --
# minor_sums expanded each k x k minor along its first row, recursively,
# memoising the sub-minors per call, in ints or in int pairs, and returned
# a list of sums, one per column tuple in `cols`.  Only the name differs:
# here it is `laplace_minor_sums`.


def _int_minor(m, memo, rows, cols):
    """det(m[rows][cols]) of the int matrix m: written out up to 2 x 2,
    memoised in memo from 3 x 3.  The recursion runs through module
    functions, not closures, so no reference cycle outlives a call."""
    if len(rows) == 2:
        a, b = m[rows[0]], m[rows[1]]
        i, j = cols
        return a[i] * b[j] - a[j] * b[i]
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    key = (rows, cols)
    v = memo.get(key)
    if v is None:
        v = memo[key] = _int_expand(m, memo, rows, cols)
    return v


def _int_expand(m, memo, rows, cols):
    """det(m[rows][cols]) by Laplace expansion along the first row,
    memoising the sub-minors only."""
    first, rest = m[rows[0]], rows[1:]
    v = 0
    for p, c in enumerate(cols):
        e = first[c]
        if e:
            t = e * _int_minor(m, memo, rest, cols[:p] + cols[p + 1 :])
            v = v - t if p & 1 else v + t
    return v


def _pair_minor(m, d, memo, rows, cols):
    """As _int_minor, for a matrix of int pairs (p, q) = p + q sqrt(d);
    every minor from 2 x 2 up is memoised."""
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    key = (rows, cols)
    v = memo.get(key)
    if v is None:
        v = memo[key] = _pair_expand(m, d, memo, rows, cols)
    return v


def _pair_expand(m, d, memo, rows, cols):
    """As _int_expand, over int pairs."""
    first, rest = m[rows[0]], rows[1:]
    v0 = v1 = 0
    for p, c in enumerate(cols):
        e0, e1 = first[c]
        if e0 or e1:
            s0, s1 = _pair_minor(m, d, memo, rest, cols[:p] + cols[p + 1 :])
            t0 = e0 * s0
            t1 = e0 * s1
            if e1:
                t0 += d * e1 * s1
                t1 += e1 * s0
            if p & 1:
                v0 -= t0
                v1 -= t1
            else:
                v0 += t0
                v1 += t1
    return v0, v1


def laplace_minor_sums(terms, matrix, cols):
    """[Σ_I c_I det(matrix[I][J]) for J in cols] as Scalars.

    `terms` maps increasing 1-based row tuples I, all of one length k, to
    Scalars c_I; `matrix` is a sequence of rows of Scalars; each J is an
    increasing 1-based tuple of k columns.  Degree 0 gives the constant
    term for every J.  The k x k minors are built by Laplace expansion,
    memoising only the smaller sub-minors.  Coefficients and matrix must
    share one radicand, else ScalarContextError."""
    items = [(idx, c) for idx, c in terms.items() if c]
    if not items:
        return [ZERO] * len(cols)
    k = len(items[0][0])
    if k == 0:
        return [items[0][1]] * len(cols)
    x, y, d, cden = read_off([c for _, c in items])
    flat = [e for row in matrix for e in row]
    mx, my, d, mden = read_off(flat, d)
    if my is not None:
        mx = list(zip(mx, my))
    width = len(matrix[0])
    m = [mx[i : i + width] for i in range(0, len(mx), width)]
    rows = [tuple(i - 1 for i in idx) for idx, _ in items]
    den = cden * mden**k
    memo = {}
    out = []
    for big in cols:
        js = tuple(j - 1 for j in big)
        if k == 1:
            dets = [m[r][js[0]] for r, in rows]
        elif my is None:
            dets = [_int_expand(m, memo, r, js) for r in rows]
        else:
            dets = [_pair_expand(m, d, memo, r, js) for r in rows]
        if my is None:
            rat = sum(a * b for a, b in zip(x, dets))
            rad = sum(a * b for a, b in zip(y, dets)) if y else 0
        else:
            rat = sum(a * b0 for a, (b0, _) in zip(x, dets))
            rad = sum(a * b1 for a, (_, b1) in zip(x, dets))
            if y:
                rat += d * sum(a * b1 for a, (_, b1) in zip(y, dets))
                rad += sum(a * b0 for a, (b0, _) in zip(y, dets))
        out.append(to_scalar(rat, rad, d, den))
    return out


# -- the frame-pullback hyperplane split that restriction by minor sums
# replaced, verbatim ----------------------------------------------------------
# hyperplane_split built the 7 x 7 frame [u0 | kernel basis], took its
# determinant to orient it, pulled phi back along it, and dropped the
# index 1 from the pullback and from its contraction by e_1.  Only the
# name differs: here it is `frame_hyperplane_split`.


def _drop_index_one(form):
    kept = {
        tuple(i - 1 for i in idx): c
        for idx, c in form.terms.items()
        if 1 not in idx
    }
    return KForm(6, form.degree, kept)


def frame_hyperplane_split(phi, theta):
    """Split a split-type 3-form along the kernel of the covector theta."""
    cls = classify7(phi)
    if cls.orbit is not Orbit7.G2_TILDE or not cls.standard_orientation:
        raise OrbitError(f"hyperplane split needs a split-type form, got {cls.orbit.value}")
    theta = linalg.coerce_vector(theta)
    if len(theta) != 7:
        raise DimensionError("covector must have 7 components")
    if not any(theta):
        raise DimensionError("covector is zero")
    b = cls.bilinear
    u = linalg.solve(b.entries, theta)  # B(u, .) = theta
    norm = b.apply(u, u)                # equals theta(u)
    s = norm.sign()
    if s == 0:
        raise NullHyperplaneError("hyperplane is null for the induced metric")
    kind = HyperplaneKind.SPACELIKE if s > 0 else HyperplaneKind.TIMELIKE
    u0 = tuple(x / norm for x in u)

    kernel_basis = linalg.kernel([theta])
    cols = [u0] + kernel_basis
    frame = Endo.from_columns(cols)
    if frame.det().sign() < 0:
        kernel_basis[0] = tuple(-x for x in kernel_basis[0])
        frame = Endo.from_columns([u0] + kernel_basis)

    in_frame = phi.pullback(frame)
    omega6 = _drop_index_one(in_frame.contract(basis_vector(7, 1)))
    rho6 = _drop_index_one(in_frame)

    omega_embedded = phi.contract(u0)
    rho_embedded = indexed_minus_theta_wedge(phi, theta, omega_embedded)

    return HyperplaneSplit(
        kind=kind,
        theta=theta,
        normal=u0,
        frame=frame,
        omega=omega6,
        rho=rho6,
        omega_embedded=omega_embedded,
        rho_embedded=rho_embedded,
    )


# -- the partition-table kernel the 735-monomial cubic replaced, verbatim ----
# 6 B = C M C^T as a product of a 7 x 21 contraction table and a 21 x 21
# partition table in ints; over Q(sqrt d) the cubic K was evaluated four
# times, at X, Y, X + Y and X - Y, and polarised.

_PAIRS7 = tuple(combinations(range(1, 8), 2))
_TRIPLES7 = tuple(combinations(range(1, 8), 3))
_UPPER7 = tuple((i, j) for j in range(7) for i in range(j + 1))


def _partition_tables():
    pair_at = {p: k for k, p in enumerate(_PAIRS7)}
    triple_at = {t: k for k, t in enumerate(_TRIPLES7)}
    # Row i of C: (A, the 3-set {i} + A, sign of sorting (i, a, b)).
    contractions = tuple(
        tuple(
            (pair_at[p], triple_at[t], s)
            for p in _PAIRS7
            for t, s in (sort_signed((i,) + p),)
            if s
        )
        for i in range(1, 8)
    )
    # Row A of M: (B, the complement C', sign of the permutation (A, B, C')).
    partitions = []
    for a in _PAIRS7:
        row = []
        for b in _PAIRS7:
            if a[0] in b or a[1] in b:
                continue
            c = tuple(k for k in range(1, 8) if k not in a and k not in b)
            row.append((pair_at[b], triple_at[c], sort_signed(a + b + c)[1]))
        partitions.append(tuple(row))
    return contractions, tuple(partitions)


_CONTRACTIONS, _PARTITIONS = _partition_tables()


def _table_product(p):
    """Entries of C M C^T at the positions _UPPER7, for integer
    coefficients p indexed like _TRIPLES7."""
    c = []
    for row_table in _CONTRACTIONS:
        row = [0] * 21
        for a, t, s in row_table:
            row[a] = s * p[t]
        c.append(row)
    m = [
        [(b, s * p[t]) for b, t, s in row_table if p[t]]
        for row_table in _PARTITIONS
    ]
    out = []
    for j, cj in enumerate(c):
        n = [sum(v * cj[b] for b, v in row) for row in m]
        out.extend(sum(x * y for x, y in zip(ci, n)) for ci in c[: j + 1])
    return out


def partition_induced_bilinear(phi):
    """induced_bilinear as the partition-table product, polarised over
    Q(sqrt d): B = (R + sqrt(d) S) / (6 L^3) with R = c0 + d c2 and
    S = c1 + d c3 read off K(X), K(Y), K(X + Y) and K(X - Y)."""
    x, y, d, den = read_off([phi.terms.get(t, _ZERO) for t in _TRIPLES7])
    rat = _table_product(x)
    rad = [0] * len(_UPPER7)
    if d:
        c0 = rat
        c3 = _table_product(y)
        plus = _table_product([u + v for u, v in zip(x, y)])
        minus = _table_product([u - v for u, v in zip(x, y)])
        c2 = [(p + q) // 2 - r for p, q, r in zip(plus, minus, c0)]
        c1 = [(p - q) // 2 - r for p, q, r in zip(plus, minus, c3)]
        rat = [r + d * s for r, s in zip(c0, c2)]
        rad = [r + d * s for r, s in zip(c1, c3)]
    scale = 6 * den ** 3
    rows = [[None] * 7 for _ in range(7)]
    for (i, j), r, s in zip(_UPPER7, rat, rad):
        rows[i][j] = rows[j][i] = to_scalar(r, s, d, scale)
    return SymBilinear(7, rows)


# -- the contraction and Gram paths the minor-sum identities replaced, verbatim
# hitchin_dual read rho(J e_i, e_j, e_k) off six contractions; the plane
# predicates used a rank test, then the Euclidean Gram matrix, three
# solves and a determinant.


def contraction_hitchin_dual(rho):
    """hitchin_dual from six contractions and an index filter."""
    cls = classify6(rho)
    if cls.orbit is not Orbit6.SL3C:
        raise OrbitError(f"dual needs a complex-type form, got {cls.orbit.value}")
    jhat = cls.endo.scale(Scalar.sqrt(abs(cls.invariant)).inverse())
    terms = {}
    for i in range(1, 7):
        # rho(J e_i, e_j, e_k) is the (j, k) coefficient of (J e_i) . rho
        for (j, k), val in rho.contract(jhat.column(i - 1)).terms.items():
            if j > i:
                terms[(i, j, k)] = val
    return KForm(6, 3, terms)


def rank_spans_same(plane, other):
    """OrientedPlane.spans_same as a rank test of the stacked bases."""
    if plane.dim != other.dim:
        return False
    stacked = plane.vectors + other.vectors
    return linalg.rank(stacked) == 3


def gram_same_oriented(plane, other):
    """OrientedPlane.same_oriented through the Gram matrix, solve and det."""
    if not rank_spans_same(plane, other):
        return False
    # Express other's basis in this basis via the Euclidean Gram matrix,
    # invertible because the rows are independent over a real field.
    g = [
        [_dot(u, v) for v in plane.vectors] for u in plane.vectors
    ]
    coords = []
    for w in other.vectors:
        rhs = [_dot(u, w) for u in plane.vectors]
        coords.append(linalg.solve(g, rhs))
    return linalg.det(coords).sign() > 0


def _dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Scalar(0))


# -- the Scalar loops the fraction-free read-off replaced, kept verbatim -----
# rref was Gauss-Jordan over Scalars, dividing each pivot row by its pivot;
# the matrix products, SymBilinear.restrict and KForm.contract summed
# Scalar products entry by entry.


def fraction_rref(m):
    """Reduced row-echelon form of a matrix of Scalars or plain numbers;
    returns (rows, pivot_columns)."""
    rows = [list(linalg.coerce_vector(r)) for r in m]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return [tuple(row) for row in rows], pivots


def scalar_mat_vec(m, v):
    v = linalg.coerce_vector(v)
    return tuple(sum((row[j] * v[j] for j in range(len(v))), _ZERO) for row in m)


def scalar_mat_mul(a, b):
    bt = linalg.transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), _ZERO) for col in bt)
        for row in a
    )


def scalar_restrict(form, vectors):
    """Gram matrix of the given vectors as a SymBilinear."""
    vecs = [linalg.coerce_vector(v) for v in vectors]
    images = [scalar_mat_vec(form.entries, v) for v in vecs]
    gram = [
        [sum((x * y for x, y in zip(u, bv)), Scalar(0)) for bv in images]
        for u in vecs
    ]
    return SymBilinear(len(vecs), gram)


def loop_contract(form, u):
    """Interior product: (u . alpha)(v1..) = alpha(u, v1..)."""
    if form.degree < 1:
        raise DimensionError("cannot contract a degree-0 form")
    u = linalg.coerce_vector(u)
    if len(u) != form.dim:
        raise DimensionError("vector length does not match dimension")
    out = {}
    for idx, c in form.terms.items():
        for p, i in enumerate(idx):
            coeff = u[i - 1]
            if not coeff:
                continue
            val = coeff * c
            if p & 1:
                val = -val
            rest = idx[:p] + idx[p + 1 :]
            tot = out.get(rest)
            tot = val if tot is None else tot + val
            if tot:
                out[rest] = tot
            else:
                out.pop(rest, None)
    return KForm(form.dim, form.degree - 1, out)


# -- the characteristic polynomial and the Scalar trace that symmetric Bareiss
# elimination and the integer trace replaced, kept verbatim -----------------
# signature took the signs of the coefficients of det(tI - B) by
# Faddeev-LeVerrier and counted the positive roots by Descartes' rule;
# hitchin_invariant summed the 36 products K_ij K_ji over Scalars.


def faddeev_signature(b):
    """Exact (pos, neg, null) of a symmetric bilinear form.

    The signs of the coefficients of det(tI - B) = t^n + c_1 t^(n-1) + ...
    + c_n, by Faddeev-LeVerrier on the integer read-off A = L*B (L > 0
    keeps every sign): M_0 = I, c_k = -tr(A M_(k-1)) / k and
    M_k = A M_(k-1) + c_k I.  Over Q(sqrt(d)), A = X + sqrt(d) Y acts on
    M = M0 + sqrt(d) M1 as the int block matrix [[X, dY], [Y, X]] on M0
    stacked over M1.  Each c_k lies in Z or Z[sqrt(d)], so every division
    by k is exact.  B is symmetric, so all roots are real and Descartes'
    rule of signs counts the positive ones exactly: pos is the number of
    sign changes of (1, c_1, ..., c_n) and the rank the index of the last
    non-zero c_k.  The entries must share one radicand, else
    ScalarContextError.
    """
    n = b.dim
    x, y, d, _ = read_off([e for row in b.entries for e in row])
    blocks = [[x]] if y is None else [[x, [d * v for v in y]], [y, x]]
    h = len(blocks)
    # sparse rows (column, entry) of the h x h block matrix
    a = [
        [(q * n + j, u) for q, blk in enumerate(band) for j, u in enumerate(blk[i * n : i * n + n]) if u]
        for band in blocks
        for i in range(n)
    ]
    m = [[int(i == j) for j in range(n)] for i in range(h * n)]  # I over 0
    signs = []
    for k in range(1, n + 1):
        c = [-sum(u * m[j][i] for i in range(n) for j, u in a[q * n + i]) // k for q in range(h)]
        signs.append(to_scalar(c[0], c[-1] if d else 0, d, 1).sign())
        if k < n:
            p = []
            for row in a:
                r = [0] * n
                for j, u in row:
                    r = [e + u * t for e, t in zip(r, m[j])]
                p.append(r)
            for q in range(h):
                for i in range(n):
                    p[q * n + i][i] += c[q]
            m = p
    rank = max((k for k, s in enumerate(signs, 1) if s), default=0)
    nonzero = [1] + [s for s in signs if s]
    pos = sum(s != t for s, t in zip(nonzero, nonzero[1:]))
    return Signature(pos, rank - pos, n - rank)


def scalar_hitchin_invariant(rho, endo=None):
    """The quartic invariant trace(K^2)/6 = sum_ij K_ij K_ji / 6; K^2
    equals this multiple of Id."""
    k = (hitchin_endomorphism(rho) if endo is None else endo).entries
    trace = sum((k[i][j] * k[j][i] for i in range(6) for j in range(6)), _ZERO)
    return trace / Scalar(6)


# -- the Fraction q-Pochhammer counts the integer products replaced, verbatim


def _as_integer(x, what):
    if x.denominator != 1:
        raise ArithmeticError(f"{what} evaluated to the non-integer {x}")
    return x.numerator


def pochhammer_general_linear_count(size, n):
    """Order of GL(n) over a field with `size` elements."""
    inv = Fraction(1, size)
    return _as_integer(
        Fraction(size) ** (n * n) * q_pochhammer(inv, inv, n), "|GL|"
    )


def pochhammer_grassmann_count(size, n, k):
    """Gaussian binomial via the q-Pochhammer form."""
    inv = Fraction(1, size)
    value = (
        Fraction(size) ** (k * (n - k))
        * q_pochhammer(inv, inv, n)
        / (q_pochhammer(inv, inv, k) * q_pochhammer(inv, inv, n - k))
    )
    return _as_integer(value, "|Gr|")


def subtraction_projective_count(size, n):
    """Points of projective (n-1)-space over a field with `size` elements."""
    if size < 2 or n < 1:
        raise ValueError("need a field size >= 2 and n >= 1")
    assert (size**n - 1) % (size - 1) == 0
    return (size**n - 1) // (size - 1)


# -- GF(2) references --------------------------------------------------------
# Rows are ints with column j (0-based from the left of an n-column matrix)
# at bit n - 1 - j, as in stableforms.f2.kernels.


def f2_rref(rows, n):
    """Gauss-Jordan over GF(2) on 0/1 lists, column by column from the left;
    the non-zero reduced rows, leading column first."""
    mat = [[(r >> (n - 1 - j)) & 1 for j in range(n)] for r in rows]
    lead = 0
    for col in range(n):
        pivot = next((i for i in range(lead, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[lead], mat[pivot] = mat[pivot], mat[lead]
        for i in range(len(mat)):
            if i != lead and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[lead])]
        lead += 1
    return tuple(sum(bit << (n - 1 - j) for j, bit in enumerate(row)) for row in mat[:lead])


def mask_enumerate_rref(n, k):
    """All canonical RREF row-tuples of k-dimensional subspaces of F2^n."""
    if k == 0:
        return [()]
    out = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        positions = [
            (r, c)
            for r, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivot_set
        ]
        base = [1 << (n - 1 - p) for p in pivots]
        for mask in range(1 << len(positions)):
            rows = base[:]
            mm = mask
            for r, c in positions:
                if mm & 1:
                    rows[r] |= 1 << (n - 1 - c)
                mm >>= 1
            out.append(tuple(rows))
    return out


def bitscan_count_decomposable_nonzero(n):
    """Number of non-zero alternating classes on n letters whose
    coefficient matrix has rank <= 2 over GF(2)."""
    if n > 8:
        raise ValueError("scan is capped at 8 letters (2^28 classes)")
    pairs = list(combinations(range(n), 2))
    count = 0
    for w in range(1, 1 << len(pairs)):
        rows = [0] * n
        ww = w
        idx = 0
        while ww:
            if ww & 1:
                i, j = pairs[idx]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            ww >>= 1
            idx += 1
        piv = {}
        over = False
        for v in rows:
            while v:
                m = v.bit_length() - 1
                p = piv.get(m)
                if p is None:
                    piv[m] = v
                    break
                v ^= p
            if len(piv) > 2:
                over = True
                break
        if not over:
            count += 1
    return count


# The Gray-code scan that the closed form [n, 2]_2 replaced in
# stableforms.f2.kernels.count_decomposable_nonzero, kept verbatim.


def gray_count_decomposable_nonzero(n):
    """Number of non-zero alternating classes on n letters whose
    coefficient matrix has rank <= 2 over GF(2)."""
    if n > 8:
        raise ValueError("scan is capped at 8 letters (2^28 classes)")
    flips = [(i, 1 << i, j, 1 << j) for i, j in combinations(range(n), 2)]
    rows = [0] * n
    count = 0
    for g in range(1, 1 << len(flips)):
        # Gray code: step g toggles the pair at g's lowest set bit
        i, bi, j, bj = flips[(g & -g).bit_length() - 1]
        rows[i] ^= bj
        rows[j] ^= bi
        # rank <= 2 iff at most three distinct non-zero rows: a 2-space
        # holds three non-zero vectors, and three rows never span a
        # 3-space because an alternating matrix has even rank
        s = set(rows)
        s.discard(0)
        if len(s) <= 3:
            count += 1
    return count


# -- the GaussQ-dict torus calculus that integer numerators replaced, verbatim
# TrigScalar kept {(freq, tdeg): GaussQ} and rebuilt every ring and calculus
# result through its validating constructor; TrigForm summed those scalars.
# Only the class names differ; evaluation, JSON input and the KForm lift are
# left out.  `dict_trig_scalar` and `dict_trig_form` copy a library value
# into them through the public `terms` views.


def dict_trig_scalar(f):
    return DictTrigScalar(f.dim, dict(f.terms))


def dict_trig_form(form):
    return DictTrigForm(
        form.dim,
        form.degree,
        {idx: dict_trig_scalar(c) for idx, c in form.terms.items()},
        form.has_t,
    )


class DictTrigScalar:
    """A real-valued trigonometric polynomial, optionally polynomial in t.

    terms: {(frequency tuple, t-degree): GaussQ}, with the reality pairing
    terms[(-k, m)] == conj(terms[(k, m)]) enforced at construction.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        canon = {}
        for (freq, tdeg), c in items:
            freq = tuple(int(f) for f in freq)
            if len(freq) != dim:
                raise DimensionError(f"frequency {freq} has wrong length")
            if tdeg < 0:
                raise DimensionError("negative t-degree")
            c = GaussQ.coerce(c)
            if not c:
                continue
            key = (freq, int(tdeg))
            tot = canon.get(key)
            tot = c if tot is None else tot + c
            if tot:
                canon[key] = tot
            else:
                canon.pop(key, None)
        for (freq, tdeg), c in canon.items():
            neg = tuple(-f for f in freq)
            if canon.get((neg, tdeg), GaussQ()) != c.conj():
                raise DimensionError(
                    f"coefficients at {freq} and {neg} are not conjugate"
                )
        self.dim = dim
        self.terms = canon

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {((0,) * dim, 0): GaussQ.coerce(value)})

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def cos_wave(cls, dim, freq):
        freq = tuple(freq)
        half = GaussQ(Fraction(1, 2))
        # pair list, not a dict: both halves must accumulate at frequency 0
        return cls(dim, [((freq, 0), half), ((tuple(-f for f in freq), 0), half)])

    @classmethod
    def sin_wave(cls, dim, freq):
        freq = tuple(freq)
        mi_half = GaussQ(0, Fraction(-1, 2))  # 1/(2i)
        return cls(
            dim,
            [((freq, 0), mi_half), ((tuple(-f for f in freq), 0), -mi_half)],
        )

    @classmethod
    def t_monomial(cls, dim, degree=1, coeff=1):
        return cls(dim, {((0,) * dim, degree): GaussQ.coerce(coeff)})

    # -- ring structure ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def has_t(self):
        return any(tdeg for (_, tdeg) in self.terms)

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionError("mixed torus dimensions")
        out = dict(self.terms)
        for key, c in other.terms.items():
            tot = out.get(key)
            tot = c if tot is None else tot + c
            if tot:
                out[key] = tot
            else:
                out.pop(key, None)
        return DictTrigScalar(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DictTrigScalar(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DictTrigScalar.constant(self.dim, other)
        if self.dim != other.dim:
            raise DimensionError("mixed torus dimensions")
        out = {}
        for (f1, m1), c1 in self.terms.items():
            for (f2, m2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(f1, f2)), m1 + m2)
                c = c1 * c2
                tot = out.get(key)
                tot = c if tot is None else tot + c
                if tot:
                    out[key] = tot
                else:
                    out.pop(key, None)
        return DictTrigScalar(self.dim, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DictTrigScalar):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __repr__(self):
        return f"DictTrigScalar(dim={self.dim}, terms={self.terms!r})"

    # -- calculus -----------------------------------------------------------

    def dx(self, j):
        """Partial derivative in the j-th torus coordinate (1-based)."""
        out = {}
        for (freq, m), c in self.terms.items():
            kj = freq[j - 1]
            if kj:
                out[(freq, m)] = c * GaussQ(0, kj)  # multiply by i*k_j
        return DictTrigScalar(self.dim, out)

    def dt(self):
        out = {}
        for (freq, m), c in self.terms.items():
            if m:
                key = (freq, m - 1)
                c2 = c * m
                tot = out.get(key)
                out[key] = c2 if tot is None else tot + c2
        return DictTrigScalar(self.dim, out)


class DictTrigForm:
    """A differential form on T^n (or on an interval times T^n) whose
    coefficients are TrigScalars.  Index 0 denotes the dt-slot and is
    allowed only on cylinder forms (has_t set)."""

    __slots__ = ("dim", "degree", "has_t", "terms")

    def __init__(self, dim, degree, terms=(), has_t=False):
        if not 1 <= dim <= 7:
            raise DimensionError("torus dimension outside 1..7")
        slots = dim + (1 if has_t else 0)
        if not 0 <= degree <= slots:
            raise DimensionError(f"degree {degree} outside 0..{slots}")
        items = terms.items() if hasattr(terms, "items") else terms
        canon = {}
        for idx, coeff in items:
            idx = tuple(int(i) for i in idx)
            if len(idx) != degree:
                raise DimensionError(f"index tuple {idx} has wrong length")
            lo = 0 if has_t else 1
            if any(not lo <= i <= dim for i in idx):
                raise DimensionError(f"index tuple {idx} out of range")
            sidx, sgn = sort_signed(idx)
            if sgn == 0:
                continue
            if not isinstance(coeff, DictTrigScalar):
                coeff = DictTrigScalar.constant(dim, coeff)
            if coeff.dim != dim:
                raise DimensionError("coefficient dimension mismatch")
            if sgn < 0:
                coeff = -coeff
            tot = canon.get(sidx)
            tot = coeff if tot is None else tot + coeff
            if not tot.is_zero:
                canon[sidx] = tot
            else:
                canon.pop(sidx, None)
        self.dim = dim
        self.degree = degree
        self.has_t = has_t
        self.terms = canon

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim, degree, has_t=False):
        return cls(dim, degree, (), has_t)

    @classmethod
    def dt_form(cls, dim):
        return cls(dim, 1, {(0,): DictTrigScalar.constant(dim, 1)}, has_t=True)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def with_t(self):
        """The same form regarded on the cylinder."""
        if self.has_t:
            return self
        return DictTrigForm(self.dim, self.degree, self.terms, has_t=True)

    def __add__(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionError("incompatible forms")
        if self.has_t != other.has_t:
            raise DimensionError("mixed torus and cylinder forms")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            tot = out.get(idx)
            tot = c if tot is None else tot + c
            if not tot.is_zero:
                out[idx] = tot
            else:
                out.pop(idx, None)
        return DictTrigForm(self.dim, self.degree, out, self.has_t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DictTrigForm(
            self.dim, self.degree, {i: -c for i, c in self.terms.items()}, self.has_t
        )

    def scale(self, f):
        """Multiply by a DictTrigScalar (or rational) coefficient function."""
        if not isinstance(f, DictTrigScalar):
            f = DictTrigScalar.constant(self.dim, f)
        return DictTrigForm(
            self.dim,
            self.degree,
            {i: f * c for i, c in self.terms.items()},
            self.has_t,
        )

    def __eq__(self, other):
        if not isinstance(other, DictTrigForm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.has_t == other.has_t
            and self.terms == other.terms
        )

    def wedge(self, other):
        if self.dim != other.dim or self.has_t != other.has_t:
            raise DimensionError("incompatible forms")
        deg = self.degree + other.degree
        out = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                merged, sgn = sort_signed(i1 + i2)
                if sgn == 0:
                    continue
                c = c1 * c2
                if sgn < 0:
                    c = -c
                tot = out.get(merged)
                tot = c if tot is None else tot + c
                if not tot.is_zero:
                    out[merged] = tot
                else:
                    out.pop(merged, None)
        return DictTrigForm(self.dim, deg, out, self.has_t)

    # -- calculus -------------------------------------------------------------

    def d(self):
        """Exterior derivative, including dt ^ d/dt on cylinder forms."""
        slots = self.dim + (1 if self.has_t else 0)
        if self.degree == slots:
            # Top-degree forms are closed; keep the result representable.
            return DictTrigForm.zero(self.dim, self.degree, self.has_t)
        out = {}

        def _accumulate(j, idx, g):
            if g.is_zero:
                return
            merged, sgn = sort_signed((j,) + idx)
            if sgn == 0:
                return
            if sgn < 0:
                g = -g
            tot = out.get(merged)
            tot = g if tot is None else tot + g
            if not tot.is_zero:
                out[merged] = tot
            else:
                out.pop(merged, None)

        for idx, f in self.terms.items():
            for j in range(1, self.dim + 1):
                if j in idx:
                    continue
                _accumulate(j, idx, f.dx(j))
            if self.has_t and 0 not in idx:
                _accumulate(0, idx, f.dt())
        return DictTrigForm(self.dim, self.degree + 1, out, self.has_t)

    def to_json(self):
        entries = []
        for idx in sorted(self.terms):
            f = self.terms[idx]
            for (freq, tdeg) in sorted(f.terms):
                item = {
                    "idx": list(idx),
                    "freq": list(freq),
                    "c": str(f.terms[(freq, tdeg)]),
                }
                if tdeg:
                    item["tdeg"] = tdeg
                entries.append(item)
        return {
            "dim": self.dim,
            "degree": self.degree,
            "t": self.has_t,
            "terms": entries,
        }

    def to_json_str(self):
        return json.dumps(self.to_json(), separators=(",", ":"))


def dict_cylinder_extension(rho, omega):
    """dt ^ omega + rho + t * d(omega) on the cylinder over the torus;
    its exterior derivative equals the pullback of d(rho)."""
    if rho.has_t or omega.has_t:
        raise DimensionError("inputs must live on the torus, not the cylinder")
    if rho.degree != 3 or omega.degree != 2 or rho.dim != omega.dim:
        raise DimensionError("need a 3-form and a 2-form on one torus")
    dt = DictTrigForm.dt_form(rho.dim)
    t = DictTrigScalar.t_monomial(rho.dim)
    return (
        dt.wedge(omega.with_t())
        + rho.with_t()
        + omega.d().with_t().scale(t)
    )


# -- the Fraction-pair Scalar that int numerators over one denominator
# replaced, verbatim ---------------------------------------------------------
# It stored a + b*sqrt(d) as two Fractions a and b, built results through
# `_make`/`_rational`, and its constructor took whatever `Fraction()` takes,
# floats and strings too.
# Only the names differ: the class is `FractionScalar` and its Fraction zero
# `_FRACTION_ZERO`.  `fraction_scalar` copies a library value into it.

_FRACTION_ZERO = Fraction(0)


def fraction_scalar(x):
    return FractionScalar(x.a, x.b, x.d)


class FractionScalar:
    """An exact number a + b*sqrt(d), immutable after construction."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=0):
        a = a if type(a) is Fraction else Fraction(a)
        if b:
            b = b if type(b) is Fraction else Fraction(b)
            s, d = square_free_split(int(d))
            b = b * s
            if d == 1:
                a, b, d = a + b, _FRACTION_ZERO, 0
            elif d == 0 or b == 0:
                b, d = _FRACTION_ZERO, 0
        else:
            b, d = _FRACTION_ZERO, 0
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def _rational(cls, a):
        # internal fast path: a is already a Fraction
        s = object.__new__(cls)
        s.a = a
        s.b = _FRACTION_ZERO
        s.d = 0
        return s

    @classmethod
    def _make(cls, a, b, d):
        # internal fast path: components already canonical (d square-free)
        s = object.__new__(cls)
        s.a = a
        if b and d:
            s.b = b
            s.d = d
        else:
            s.b = _FRACTION_ZERO
            s.d = 0
        return s

    # -- construction helpers ------------------------------------------

    @staticmethod
    def coerce(x):
        if isinstance(x, FractionScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionScalar(x)
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")

    @staticmethod
    def sqrt(x):
        """Exact square root of a non-negative rational."""
        if isinstance(x, FractionScalar):
            if not x.is_rational:
                raise ScalarContextError("nested radicals are not supported")
            x = x.a
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        if x == 0:
            return FractionScalar(0)
        s, d = square_free_split(x.numerator * x.denominator)
        return FractionScalar(0, Fraction(s, x.denominator), d)

    # -- field arithmetic ----------------------------------------------

    def _join(self, other):
        if self.d == 0 or other.d == 0 or self.d == other.d:
            return self.d or other.d
        raise ScalarContextError(
            f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
        )

    def __add__(self, other):
        try:
            other = FractionScalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.d == other.d:  # covers the common rational-rational case
            return FractionScalar._make(self.a + other.a, self.b + other.b, self.d)
        d = self._join(other)
        return FractionScalar._make(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = FractionScalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.d == other.d:
            return FractionScalar._make(self.a - other.a, self.b - other.b, self.d)
        d = self._join(other)
        return FractionScalar._make(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other):
        return FractionScalar.coerce(other) - self

    def __neg__(self):
        return FractionScalar._make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        try:
            other = FractionScalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.d == 0 and other.d == 0:
            return FractionScalar._rational(self.a * other.a)
        d = self._join(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return FractionScalar._make(a, b, d)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("scalar is zero")
        if self.b == 0:
            return FractionScalar._rational(1 / self.a)
        den = self.a * self.a - self.b * self.b * self.d
        return FractionScalar._make(self.a / den, -self.b / den, self.d)

    def __truediv__(self, other):
        try:
            other = FractionScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return FractionScalar.coerce(other) * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = FractionScalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact ordering -------------------------------------------------

    def sign(self):
        """Exact sign in {-1, 0, +1}."""
        if self.b == 0:
            return -1 if self.a < 0 else (1 if self.a > 0 else 0)
        if self.a == 0:
            return -1 if self.b < 0 else 1
        sa = -1 if self.a < 0 else 1
        sb = -1 if self.b < 0 else 1
        if sa == sb:
            return sa
        t = self.a * self.a - self.b * self.b * self.d
        if t > 0:
            return sa
        if t < 0:
            return sb
        return 0

    @property
    def is_rational(self):
        return self.b == 0

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        try:
            other = FractionScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return (self - FractionScalar.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - FractionScalar.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - FractionScalar.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - FractionScalar.coerce(other)).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    # -- serialization ----------------------------------------------------
    # Grammar: "p/q" for rationals, "p/q+r/s*sqrt(d)" otherwise (the "-"
    # separator and a bare radical term are also accepted on input).

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        rad = f"{abs(self.b)}*sqrt({self.d})"
        if self.a == 0:
            return rad if self.b > 0 else "-" + rad
        sep = "+" if self.b > 0 else "-"
        return f"{self.a}{sep}{rad}"

    def __repr__(self):
        return f"FractionScalar({str(self)!r})"

    @staticmethod
    def parse(text):
        if not isinstance(text, str):
            raise TypeError(f"scalar literal must be a string, got {text!r}")
        s = text.replace(" ", "")
        m = _MIXED.fullmatch(s)
        if m:
            b = Fraction(m.group("b"))
            if m.group("sgn") == "-":
                b = -b
            return FractionScalar(Fraction(m.group("a")), b, int(m.group("d")))
        m = _PURE.fullmatch(s)
        if m:
            return FractionScalar(0, Fraction(m.group("b")), int(m.group("d")))
        if _PLAIN.fullmatch(s):
            return FractionScalar(Fraction(s))
        raise ValueError(f"malformed scalar literal {text!r}")


# -- the hand-written product sums that a quadratic evaluator (now
# `orbits._sums`), `_wedge_row`, one orbit table and `_SparseForm.__eq__`
# replaced, verbatim ---------------------------------------------------------
# hitchin_endomorphism walked a nested 6 x 6 table and wrote out the
# Z[sqrt d] product of each entry; hitchin_invariant took the trace of K^2
# over transposed read-offs; _minus_theta_wedge indexed theta ^ omega with
# literal signs; classify7 was an if chain on the signature; KForm and
# TrigForm each had their own __eq__; _calibration evaluated phi on the
# plane's vectors.  Only the names differ: `nested_hitchin_table`,
# `nested_hitchin_endomorphism`, `transposed_hitchin_invariant`,
# `indexed_minus_theta_wedge`, `chain_classify7`, `kform_eq`, `trigform_eq`
# (methods as functions) and `evaluate_calibration`.


@cache
def nested_hitchin_table():
    """Row j, column i of the table: the (A, B, sign) with A = {i} + a and
    B the rest of the 5-set {1..6} - {j} after the 2-set a, so that
    K_ji = sum of sign * rho_A * rho_B; 240 products in all."""
    at = {t: n for n, t in enumerate(_TRIPLES6)}
    full = range(1, 7)
    table = []
    for j in full:
        five = tuple(k for k in full if k != j)
        sign_j = 1 if j & 1 else -1  # e_j . vol = (-1)^(j-1) * e_five
        row = []
        for i in full:
            entry = []
            for a in combinations(five, 2):
                if i in a:
                    continue
                t, s_contract = sort_signed((i,) + a)
                b = tuple(k for k in five if k not in a)
                s_wedge = sort_signed(a + b)[1]
                entry.append((at[t], at[b], sign_j * s_contract * s_wedge))
            row.append(tuple(entry))
        table.append(tuple(row))
    return tuple(table)


def nested_hitchin_endomorphism(rho):
    """K with K(u) ^ vol = (u . rho) ^ rho under the reference volume.

    K_ji is (-1)^(j-1) times the coefficient of (e_i . rho) ^ rho at the
    5-set missing j, read from a table of (A, B, sign) products of two
    coefficients of rho.  The products are taken in the integer read-off
    rho = (X + sqrt(d) Y) / L, so K = (R + sqrt(d) S) / L^2 with
    R = sum sign (X_A X_B + d Y_A Y_B) and S = sum sign (X_A Y_B + Y_A X_B).
    A form carrying two different radicands raises ScalarContextError."""
    _require(rho, 6, 3, "hitchin_endomorphism")
    x, y, d, den = read_off([rho.terms.get(t, ZERO) for t in _TRIPLES6])
    scale = den * den
    rows = []
    for table_row in nested_hitchin_table():
        row = []
        for entry in table_row:
            rat = sum(s * x[a] * x[b] for a, b, s in entry)
            rad = 0
            if d:
                rat += d * sum(s * y[a] * y[b] for a, b, s in entry)
                rad = sum(s * (x[a] * y[b] + y[a] * x[b]) for a, b, s in entry)
            row.append(to_scalar(rat, rad, d, scale))
        rows.append(row)
    return Endo(6, rows)


def transposed_hitchin_invariant(rho, endo=None):
    """The quartic invariant trace(K^2)/6 = sum_ij K_ij K_ji / 6; K^2
    equals this multiple of Id.  K is read off as (X + sqrt(d) Y) / L, so
    the trace is (sum X_ij X_ji + d Y_ij Y_ji + sqrt(d) sum 2 X_ij Y_ji)
    / L^2, taken in ints."""
    if endo is None:
        endo = nested_hitchin_endomorphism(rho)
    elif endo.dim != 6:
        raise DimensionError(f"hitchin_invariant requires a 6 x 6 K, got {endo.dim} x {endo.dim}")
    k = endo.entries
    x, y, d, den = read_off([e for row in k for e in row])
    xt = [x[j * 6 + i] for i in range(6) for j in range(6)]
    rat = sum(map(mul, x, xt))
    rad = 0
    if d:
        yt = [y[j * 6 + i] for i in range(6) for j in range(6)]
        rat += d * sum(map(mul, y, yt))
        rad = 2 * sum(map(mul, x, yt))
    return to_scalar(rat, rad, d, 6 * den * den)


def indexed_minus_theta_wedge(phi, theta, omega):
    """phi - theta ^ omega in one pass over the 35 triples, where theta ^
    omega has the coefficient theta_i omega_jk - theta_j omega_ik +
    theta_k omega_ij at (i, j, k).  All three are read off over one
    denominator L, as (X + sqrt(d) Y) / L, so the result is
    (L X - T ^ W) / L^2, taken in int pairs."""
    x, y, d, den = read_off(
        [phi.terms.get(t, ZERO) for t in _TRIPLES7]
        + list(theta)
        + [omega.terms.get(p, ZERO) for p in _PAIRS7]
    )
    y = y or [0] * len(x)
    at = {p: n for n, p in enumerate(_PAIRS7, 42)}  # omega after phi, theta
    terms = {}
    for n, (i, j, k) in enumerate(_TRIPLES7):
        r, s = den * x[n], den * y[n]
        for a, b, sign in ((34 + i, at[j, k], -1), (34 + j, at[i, k], 1), (34 + k, at[i, j], -1)):
            r += sign * (x[a] * x[b] + d * y[a] * y[b])
            s += sign * (x[a] * y[b] + y[a] * x[b])
        if r or s:
            terms[i, j, k] = to_scalar(r, s, d, den * den)
    return KForm._trusted(7, 3, terms)


def chain_classify7(phi):
    """Orbit of a 3-form on R^7 plus the orientation it is entered with."""
    _require(phi, 7, 3, "classify7")
    b = induced_bilinear(phi)
    sig = signature(b)
    if sig == (7, 0, 0):
        return Class7(Orbit7.G2, True, sig, b)
    if sig == (0, 7, 0):
        return Class7(Orbit7.G2, False, sig, b)
    if sig == (3, 4, 0):
        return Class7(Orbit7.G2_TILDE, True, sig, b)
    if sig == (4, 3, 0):
        return Class7(Orbit7.G2_TILDE, False, sig, b)
    return Class7(Orbit7.NON_STABLE, None, sig, b)


def kform_eq(self, other):
    if not isinstance(other, KForm):
        return NotImplemented
    return (
        self.dim == other.dim
        and self.degree == other.degree
        and self.terms == other.terms
    )


def trigform_eq(self, other):
    if not isinstance(other, TrigForm):
        return NotImplemented
    return (
        self.dim == other.dim
        and self.degree == other.degree
        and self.has_t == other.has_t
        and self.terms == other.terms
    )


def evaluate_calibration(phi, cls, plane):
    """(phi on the plane's basis, determinant of the plane's Gram matrix
    under B) when the plane is calibrated for the classified form --
    positively calibrated (spacelike as well) for a split-type form --
    else None."""
    val = phi.evaluate(*plane.vectors)
    if val.sign() <= 0:
        return None
    gram = cls.bilinear.restrict(plane.vectors)
    if cls.orbit is Orbit7.G2_TILDE and signature(gram) != (3, 0, 0):
        return None
    lhs = val ** 6 * linalg.det(cls.bilinear.entries)
    det_gram = linalg.det(gram.entries)
    if lhs != det_gram ** 3:
        return None
    return val, det_gram


# -- the Z[sqrt d] pair products that Kronecker packing replaced, verbatim ----
# Before packing, each kernel wrote out (x + sqrt(d) y)(u + sqrt(d) v) by
# hand over Q(sqrt d): the orbit cubic and quadratic in int pairs, the
# minor kernel with up to four wedges per row, the matrix product with the
# block matrix [[X, dY], [Y, X]], theta ^ omega with four wedges and the
# contraction with separate rational and radical dicts.  _calibration
# restricted B to the plane and took a fresh 7 x 7 det(B).  Only the names
# differ: `pair_cubic`, `pair_quadratic`, `pair_minor_sums`,
# `block_product`, `pair_minus_theta_wedge`, `pair_contract` (the method as
# a function) and `restrict_calibration`; `pair_induced_bilinear`,
# `pair_hitchin_endomorphism` and `pair_hitchin_invariant` are the callers
# of the first two, on the same tables.  Elimination keeps its pairs, but
# its step multiplied each new row by the conjugate of the previous pivot,
# where now the conjugate is folded into the pivot and the factor first:
# `conjugate_pair_step`.


def pair_cubic(x, y, d, monomials):
    """(R, S) with R + sqrt(d) S = sum k v_a v_b v_c over the monomials
    (a, b, c, k) for v = X + sqrt(d) Y (Y None if d = 0), in int pairs."""
    if not d:
        return sum(k * x[a] * x[b] * x[c] for a, b, c, k in monomials), 0
    r = s = 0
    for a, b, c, k in monomials:
        u = x[a] * x[b] + d * y[a] * y[b]  # v_a v_b = u + sqrt(d) w
        w = x[a] * y[b] + y[a] * x[b]
        r += k * (u * x[c] + d * w * y[c])
        s += k * (u * y[c] + w * x[c])
    return r, s


def pair_quadratic(x, y, d, table):
    """[(R, S)] with R + sqrt(d) S = sum s v_a v_b over the products (a, b,
    s) of each entry of `table`, v = X + sqrt(d) Y (Y None if d = 0)."""
    if not d:
        return [(sum(s * x[a] * x[b] for a, b, s in e), 0) for e in table]
    rat = [sum(s * (x[a] * x[b] + d * y[a] * y[b]) for a, b, s in e) for e in table]
    rad = [sum(s * (x[a] * y[b] + y[a] * x[b]) for a, b, s in e) for e in table]
    return list(zip(rat, rad))


def pair_induced_bilinear(phi):
    _require(phi, 7, 3, "induced_bilinear")
    x, y, d, den = read_off([phi.terms.get(t, ZERO) for t in _TRIPLES7])
    scale = 2 * den ** 3
    rows = [[None] * 7 for _ in range(7)]
    for (i, j), monomials in zip(_UPPER7, orbits._cubic_table()):
        rows[i][j] = rows[j][i] = to_scalar(*pair_cubic(x, y, d, monomials), d, scale)
    return SymBilinear(7, rows)


def pair_hitchin_endomorphism(rho):
    _require(rho, 6, 3, "hitchin_endomorphism")
    x, y, d, den = read_off([rho.terms.get(t, ZERO) for t in _TRIPLES6])
    flat = [to_scalar(r, s, d, den * den) for r, s in pair_quadratic(x, y, d, orbits._hitchin_table())]
    return Endo(6, [flat[i : i + 6] for i in range(0, 36, 6)])


def pair_hitchin_invariant(rho, endo=None):
    if endo is None:
        endo = pair_hitchin_endomorphism(rho)
    elif endo.dim != 6:
        raise DimensionError(f"hitchin_invariant requires a 6 x 6 K, got {endo.dim} x {endo.dim}")
    x, y, d, den = read_off([e for row in endo.entries for e in row])
    ((r, s),) = pair_quadratic(x, y, d, orbits._trace_table())
    return to_scalar(r, s, d, 6 * den * den)


def pair_minor_sums(terms, matrix):
    """{J: Σ_I c_I det(matrix[I][J])} over the increasing 1-based k-tuples
    J of columns, non-zero values only, as Scalars.

    `terms` maps increasing 1-based row tuples I, all of one length k, to
    Scalars c_I; `matrix` is a sequence of rows of Scalars, all of one
    width.  Degree 0 gives {(): c}.  The sum is the pullback
    Σ_I c_I row_I1 ^ ... ^ row_Ik, taken by Horner's rule over index
    prefixes: the part with prefix P is Σ_r row_r ^ (the part with prefix
    P + (r,)), so k steps of `_wedge_row` give it.  Over Q(sqrt(d)) a row
    X + sqrt(d) Y and a part f0 + sqrt(d) f1 give the rational half
    X^f0 + dY^f1 and the radical half X^f1 + Y^f0, with the wedges of Y
    skipped when Y is zero.  Coefficients and matrix must share one
    radicand, else ScalarContextError."""
    items = [(idx, c) for idx, c in terms.items() if c]
    if not items:
        return {}
    k = len(items[0][0])
    if k == 0:
        return {(): items[0][1]}
    x, y, d, cden = read_off([c for _, c in items])
    mx, my, d, mden = read_off([e for row in matrix for e in row], d)
    width = len(matrix[0])
    rows = []
    for i in range(len(matrix)):
        cut = slice(i * width, (i + 1) * width)
        ry = my[cut] if d and any(my[cut]) else None
        rows.append((mx[cut], ry and [d * e for e in ry], ry))
    y = y or [0] * len(x)
    parts = {idx: ([a], [b]) for (idx, _), a, b in zip(items, x, y)}
    for h in range(k):
        table = _scatter_table(width, h)
        size = comb(width, h + 1)
        grown = {}
        for idx, (f0, f1) in parts.items():
            acc = grown.get(idx[:-1])
            if acc is None:
                acc = grown[idx[:-1]] = ([0] * size, [0] * size)
            rx, rdy, ry = rows[idx[-1] - 1]
            _wedge_row(acc[0], rx, f0, table)
            if d:
                _wedge_row(acc[1], rx, f1, table)
                if ry:
                    _wedge_row(acc[0], rdy, f1, table)
                    _wedge_row(acc[1], ry, f0, table)
        parts = grown
    rat, rad = parts[()]
    den = cden * mden**k
    return {
        J: to_scalar(p, q, d, den)
        for J, p, q in zip(combinations(range(1, width + 1), k), rat, rad)
        if p or q
    }


def block_product(factors, width):
    """The product of the matrices `factors`, the last with `width`
    columns.  All entries are read off at once as (X + sqrt(d) Y) / L, and
    the product is accumulated from the right in ints: over Q(sqrt(d)) a
    factor X + sqrt(d) Y acts as the block matrix [[X, dY], [Y, X]] on the
    rational part stacked over the radical part.  The entries become
    Scalars once, over L to the number of factors."""
    mats = [linalg.coerce_matrix(f) for f in factors]
    for a, b in zip(mats, mats[1:]):
        if a and len(a[0]) != len(b):
            raise DimensionError(f"cannot multiply {len(a[0])} columns into {len(b)} rows")
    x, y, d, den = read_off([e for m in mats for row in m for e in row])
    parts, pos = [], 0
    for m in mats:
        w = len(m[0]) if m else 0
        end = pos + len(m) * w
        parts.append((_int_rows(x[pos:end], len(m), w), _int_rows(y[pos:end], len(m), w) if d else None))
        pos = end
    xs, ys = parts.pop()
    acc = xs + ys if d else xs
    for xs, ys in reversed(parts):
        if d:
            xs = [r + [d * e for e in s] for r, s in zip(xs, ys)] + [s + r for r, s in zip(xs, ys)]
        cols = list(zip(*acc)) or [()] * width
        acc = [[sum(map(mul, row, col)) for col in cols] for row in xs]
    den **= len(mats)
    n = len(mats[0])
    rad = acc[n:] if d else [[0] * width] * n
    return tuple(
        tuple(to_scalar(p, q, d, den) for p, q in zip(r, s)) for r, s in zip(acc[:n], rad)
    )


def pair_minus_theta_wedge(phi, theta, omega):
    """phi - theta ^ omega over the 35 triples.  All three are read off
    over one denominator L, as (X + sqrt(d) Y) / L, so the result is
    (L X - T ^ W) / L^2 in int pairs, with -T ^ W taken by the minor
    kernel's `_wedge_row`: one wedge over Q, four over Q(sqrt d)."""
    coeffs = [phi.terms.get(t, ZERO) for t in _TRIPLES7] + list(theta)
    x, y, d, den = read_off(coeffs + [omega.terms.get(p, ZERO) for p in _PAIRS7])
    y = y or [0] * len(x)
    table = _scatter_table(7, 2)
    rat, rad = [den * e for e in x[:35]], [den * e for e in y[:35]]
    tx, ty = [-e for e in x[35:42]], [-e for e in y[35:42]]
    _wedge_row(rat, tx, x[42:], table)
    if d:
        _wedge_row(rat, [d * e for e in ty], y[42:], table)
        _wedge_row(rad, tx, y[42:], table)
        _wedge_row(rad, ty, x[42:], table)
    terms = {t: to_scalar(r, s, d, den * den) for t, r, s in zip(_TRIPLES7, rat, rad) if r or s}
    return KForm._trusted(7, 3, terms)


def pair_contract(self, u):
    """Interior product: (u . alpha)(v1..) = alpha(u, v1..).  u and the
    coefficients are read off once as ints over one denominator L; each
    output coefficient sums +-u_i c_I in ints (int pairs over
    Q(sqrt(d))) and becomes a Scalar over L^2."""
    if self.degree < 1:
        raise DimensionError("cannot contract a degree-0 form")
    u = linalg.coerce_vector(u)
    if len(u) != self.dim:
        raise DimensionError("vector length does not match dimension")
    x, y, d, den = read_off(u + tuple(self.terms.values()))
    y = y or [0] * len(x)
    rat, rad = {}, {}
    for k, idx in enumerate(self.terms, len(u)):
        c, e = x[k], y[k]
        for p, i in enumerate(idx):
            a, b = x[i - 1], y[i - 1]
            if a or b:
                if p & 1:
                    a, b = -a, -b
                rest = idx[:p] + idx[p + 1 :]
                rat[rest] = rat.get(rest, 0) + a * c + d * b * e
                rad[rest] = rad.get(rest, 0) + a * e + b * c
    den *= den
    out = {rest: to_scalar(r, rad[rest], d, den) for rest, r in rat.items() if r or rad[rest]}
    return KForm._trusted(self.dim, self.degree - 1, out)


def conjugate_pair_step(d):
    """The elimination step on int pairs (s, t) = s + t sqrt(d).  Division
    by prev = (q0, q1) multiplies by its conjugate and divides both parts
    exactly by the norm q0^2 - d q1^2."""

    def step(p, f, a, b, prev):
        (p0, p1), (f0, f1), (q0, q1) = p, f, prev
        dp1, df1 = d * p1, d * f1
        out = [
            (p0 * x0 + dp1 * x1 - f0 * y0 - df1 * y1, p0 * x1 + p1 * x0 - f0 * y1 - f1 * y0)
            for (x0, x1), (y0, y1) in zip(a, b)
        ]
        if not q1:
            return [(s // q0, t // q0) for s, t in out]
        dq1, norm = d * q1, q0 * q0 - d * q1 * q1
        return [((s * q0 - t * dq1) // norm, (t * q0 - s * q1) // norm) for s, t in out]

    return step


def restrict_calibration(phi, cls, plane):
    """(phi on the plane's basis, determinant of the plane's Gram matrix
    under B) when the plane is calibrated for the classified form --
    positively calibrated (spacelike as well) for a split-type form --
    else None.  phi(v1, v2, v3) = sum phi_J t_J over the plane's stored
    trivector t."""
    if plane.dim != phi.dim:
        raise DimensionError("vector length does not match dimension")
    terms = phi.terms
    val = sum((terms[t] * c for t, c in zip(_TRIPLES7, plane.trivector) if c and t in terms), ZERO)
    if val.sign() <= 0:
        return None
    gram = cls.bilinear.restrict(plane.vectors)
    if cls.orbit is Orbit7.G2_TILDE and signature(gram) != (3, 0, 0):
        return None
    lhs = val ** 6 * linalg.det(cls.bilinear.entries)
    det_gram = linalg.det(gram.entries)
    if lhs != det_gram ** 3:
        return None
    return val, det_gram


# -- random generators -----------------------------------------------------


def field_scalar(rng, d, den=1):
    """A non-zero element of Q(sqrt d) (of Q when d = 0) with parts p / den."""
    while True:
        c = Scalar(Fraction(rng.randint(-4, 4), den), Fraction(rng.randint(-4, 4), den), d)
        if c:
            return c


def field_form(rng, dim, degree, d, max_terms, den=1):
    """A random form with up to max_terms coefficients in Q(sqrt d)."""
    idx = list(combinations(range(1, dim + 1), degree))
    picked = rng.sample(idx, rng.randint(1, max_terms))
    return KForm(dim, degree, {t: field_scalar(rng, d, den) for t in picked})


def rand_matrix(rng, n, lo=-2, hi=2):
    return [[Scalar(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def rand_invertible(rng, n, lo=-2, hi=2):
    while True:
        m = rand_matrix(rng, n, lo, hi)
        if linalg.det(m):
            return m


def rand_glplus(rng, n, lo=-2, hi=2):
    m = rand_invertible(rng, n, lo, hi)
    if linalg.det(m).sign() < 0:
        m = [list(row) for row in m]
        for row in m:
            row[0], row[1] = row[1], row[0]
    return m


def rand_vector(rng, n, lo=-3, hi=3):
    return [Scalar(rng.randint(lo, hi)) for _ in range(n)]


def rand_kform(rng, dim, degree, max_terms=4, lo=-3, hi=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = tuple(sorted(rng.sample(range(1, dim + 1), degree)))
        terms[idx] = terms.get(idx, 0) + rng.randint(lo, hi)
    return KForm(dim, degree, terms.items())


def float_matrix(endo):
    return [[float(x) for x in row] for row in endo.entries]


def float_mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]

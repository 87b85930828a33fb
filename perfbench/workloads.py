"""The four benchmark workloads.

A workload turns a seed into a deterministic stream of ops.  One op is
one call into the public stableforms API, or one in-process CLI
invocation.  Its inputs are generated before the call and its answer is
checked after it, both outside the timed region.  Every op reaches the
library through module attributes at call time, so the traced run sees
the same calls through its wrappers.

Ops come in cycles of fixed composition; the seed shuffles each cycle
and draws the inputs.  The composition puts the median and the 90th
percentile inside groups of ops of similar cost, so the percentiles do
not jump between op kinds from one seed to the next.

Expected answers are exact.  The dense workloads pull model forms back
by random GL+ matrices A and compare each answer with the model's answer
transported by A (classification, swap, dual and extension verdicts are
GL+-natural); the model answers themselves are checked once in set-up
against their defining properties.  An error outcome counts as correct
only for an input built to produce it.
"""

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations


class Op:
    """One timed call.  ``call`` takes no arguments; ``check`` gets the
    result; ``raises`` names the exception the input was built for."""

    __slots__ = ("kind", "call", "check", "raises")

    def __init__(self, kind, call, check=None, raises=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.raises = raises

    def verify(self, result, exc):
        if self.raises is not None:
            return isinstance(exc, self.raises)
        return exc is None and bool(self.check(result))


# -- exact helpers independent of the library --------------------------------


def int_det(m):
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-space over GF(q)."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def f2_rref(rows, n):
    """Canonical reduced row-echelon rows over GF(2), leading bit first."""
    rows = list(rows)
    out = []
    for col in range(n - 1, -1, -1):
        bit = 1 << col
        piv = next((r for r in rows if r & bit), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows = [r ^ piv if r & bit else r for r in rows]
        out = [r ^ piv if r & bit else r for r in out]
        out.append(piv)
    return tuple(out)


def unit(n, i):
    return [1 if j == i else 0 for j in range(1, n + 1)]


def rand_int_invertible(rng, n):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if int_det(m):
            return m


def _swap_first_columns(m):
    for row in m:
        row[0], row[1] = row[1], row[0]


class Workload:
    name = ""
    cycle = ()

    def __init__(self, sf, seed, root):
        self.sf = sf
        self.root = root
        self.rng = random.Random(seed)
        self._turns = {}

    def _turn(self, key, options):
        """Round-robin over input types, so that the mix of types is the same
        for every seed; the seed draws the inputs within each type."""
        i = self._turns.get(key, 0)
        self._turns[key] = i + 1
        return options[i % len(options)]

    def warmup(self):
        """Cheap ops on model inputs, one per op kind."""
        return []

    def make(self, kind):
        return getattr(self, "op_" + kind)()

    def ops(self):
        """Endless op stream: shuffled cycles of the fixed composition."""
        while True:
            kinds = list(self.cycle)
            self.rng.shuffle(kinds)
            for kind in kinds:
                yield self.make(kind)


# -- dense geometry ------------------------------------------------------------


class Dense(Workload):
    """Geometry calls on GL+ pullbacks of the model forms.

    Rational: integer matrices with entries in [-2, 2].  Radical: the same
    matrices with one entry shifted by b*sqrt(d), d in {2, 3, 5}, and 6-forms
    whose invariant has a non-square absolute value, so every op works in
    Q(sqrt(d)).
    """

    # 8 cheap 6-form ops, 8 mid-cost ops, 5 tail ops: the median falls
    # among the classifications, the 90th percentile among the swaps.
    cycle = (
        ("classify6",) * 2 + ("hitchin_dual",) * 2 + ("para_eigenspaces",) * 2
        + ("extension_admissible",) * 2
        + ("classify7",) * 4 + ("plane_from_cross",) * 2 + ("split_null", "swap_uncalibrated")
        + ("split", "swap", "swap", "swap_back", "swap_back")
    )
    radical = False

    def __init__(self, sf, seed, root):
        super().__init__(sf, seed, root)
        self.linalg = sf.exterior.linalg
        std = sf.standard_form
        g2, split = std("g2"), std("split_g2")
        self.g2, self.split = g2, split
        KForm = sf.KForm

        # Coordinate calibrated planes of the model form, and the model swap
        # across each, checked against the defining properties.
        self.planes = []
        for idx in ((1, 2, 3), (1, 4, 5), (2, 4, 6)):
            plane = sf.OrientedPlane(7, [unit(7, i) for i in idx])
            psi = sf.calibrated_swap(g2, plane)
            cls = sf.classify7(psi)
            if not (
                sf.is_calibrated(g2, plane)
                and cls.orbit is sf.Orbit7.G2_TILDE and cls.standard_orientation
                and sf.is_positively_calibrated(psi, plane)
                and sf.calibrated_swap(psi, plane) == g2
            ):
                raise AssertionError(f"model swap across e{idx} is wrong")
            self.planes.append((idx, psi))
        metric = sf.induced_bilinear(split).entries
        if metric != sf.SymBilinear.diagonal([1, 1, 1, -1, -1, -1, -1]).entries:
            raise AssertionError("model split metric is not diag(1,1,1,-1,-1,-1,-1)")

        if self.radical:
            # lambda = -4d and 4d^3: square roots in Q(sqrt(d)).
            complex6 = [KForm(6, 3, {(1, 3, 5): 1, (1, 4, 6): -d, (2, 3, 6): -1, (2, 4, 5): -1}) for d in (2, 3, 5)]
            self.para6 = [KForm(6, 3, {(1, 3, 5): 1, (1, 4, 6): d, (2, 3, 6): d, (2, 4, 5): d}) for d in (2, 3, 5)]
        else:
            complex6 = [std("sl3c")]
            self.para6 = [std("sl3r2")]
        self.complex6 = []  # (model, its dual)
        for rho in complex6:
            dual = sf.hitchin_dual(rho)
            if sf.hitchin_dual(dual) != -rho:
                raise AssertionError("model dual is not an anti-involution")
            self.complex6.append((rho, dual))
        omegas = [
            KForm(6, 2, {(1, 2): 1, (3, 4): -1, (5, 6): -1}),
            KForm(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1}),
            KForm(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1}),
            KForm(6, 2, {(1, 4): -1, (2, 5): -1, (3, 6): -1}),
        ]
        self.pairs = [
            (rho, omega, sf.extension_admissible(rho, omega))
            for rho in [r for r, _ in self.complex6] + self.para6
            for omega in omegas
        ]
        if not self.radical:
            # The fixture pairs: (sl3c, omega_cplx_good/bad), (sl3r2, omega_para/_neg).
            verdicts = [v for _, _, v in self.pairs]
            if (verdicts[0], verdicts[1], verdicts[6], verdicts[7]) != (True, False, True, False):
                raise AssertionError(f"model extension verdicts are {verdicts}")

    # -- generators ----------------------------------------------------------

    def _matrix(self, n, radical=None, nested=False):
        """(A, det A) for a random GL+ matrix; one sqrt(d) entry if radical."""
        Scalar = self.sf.Scalar
        rng = self.rng
        radical = self.radical if radical is None else radical
        while True:
            m = rand_int_invertible(rng, n)
            det = Scalar(int_det(m))
            if radical:
                i, j = rng.randrange(n), rng.randrange(n)
                cof = int_det([row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i])
                if nested and not cof:
                    continue
                d = self._turn("d", (2, 3, 5))
                b = rng.choice((1, -1, 2))
                sgn = -1 if (i + j) & 1 else 1
                m = [[Scalar(x) for x in row] for row in m]
                m[i][j] = m[i][j] + Scalar(0, b, d)
                det = det + Scalar(0, sgn * b * cof, d)
            if det.sign() < 0:
                _swap_first_columns(m)
                det = -det
            return m, det

    def _inverse(self, m):
        linalg = self.linalg
        return linalg.inverse(linalg.coerce_matrix(m))

    def _transported_plane(self, inv, idx):
        # A^-1 maps the model plane spanned by e_idx to a calibrated plane
        # of the pulled-back form: the columns idx of A^-1.
        return self.sf.OrientedPlane(7, [[row[i - 1] for row in inv] for i in idx])

    def _vector(self, n, lo=-2, hi=2):
        return [self.rng.randint(lo, hi) for _ in range(n)]

    # -- 7-form ops ------------------------------------------------------------

    def op_classify7(self):
        sf = self.sf
        model, sig = self._turn("classify7", ((self.g2, (7, 0, 0)), (self.split, (3, 4, 0))))
        m, _ = self._matrix(7)
        phi = sf.pullback(m, model)
        orbit = sf.Orbit7.G2 if model is self.g2 else sf.Orbit7.G2_TILDE

        def check(cls):
            return cls.orbit is orbit and cls.standard_orientation is True and tuple(cls.signature) == sig

        return Op("classify7", lambda: sf.classify7(phi), check)

    def op_plane_from_cross(self):
        sf, linalg = self.sf, self.linalg
        m, det = self._matrix(7)
        phi = sf.pullback(m, self.g2)
        while True:
            u, v = self._vector(7), self._vector(7)
            if linalg.rank([u, v]) == 2:
                break

        def check(plane):
            # B of A*phi is det(A) A^T B0 A with B0 = Id, so the cross product
            # is A^-1 w0 / det(A) for the model cross product w0 of Au, Av.
            au, av = linalg.mat_vec(m, u), linalg.mat_vec(m, v)
            w0 = [self.g2.evaluate(au, av, unit(7, i)) for i in range(1, 8)]
            w = linalg.mat_vec(self._inverse(m), w0)
            w = tuple(x / det for x in w)
            return plane.vectors == (linalg.coerce_vector(u), linalg.coerce_vector(v), w)

        return Op("plane_from_cross", lambda: sf.plane_from_cross(phi, u, v), check)

    def op_swap(self):
        sf = self.sf
        idx, psi = self._turn("plane", self.planes)
        m, _ = self._matrix(7)
        phi = sf.pullback(m, self.g2)
        plane = self._transported_plane(self._inverse(m), idx)
        # The model swap psi is split type, positively calibrated on the
        # plane and swaps back to the model; A* carries all three over.
        return Op("swap", lambda: sf.calibrated_swap(phi, plane),
                  lambda out: out == sf.pullback(m, psi))

    def op_swap_back(self):
        sf = self.sf
        idx, psi = self._turn("plane", self.planes)
        m, _ = self._matrix(7)
        swapped = sf.pullback(m, psi)
        plane = self._transported_plane(self._inverse(m), idx)
        return Op("swap_back", lambda: sf.calibrated_swap(swapped, plane),
                  lambda out: out == sf.pullback(m, self.g2))

    def op_swap_uncalibrated(self):
        sf = self.sf
        m, _ = self._matrix(7)
        phi = sf.pullback(m, self.g2)
        plane = self._transported_plane(self._inverse(m), (1, 2, 4))  # phi(e1,e2,e4) = 0
        return Op("swap_uncalibrated", lambda: sf.calibrated_swap(phi, plane),
                  raises=sf.NotCalibratedError)

    def _covector(self, m, eta):
        # theta = eta A has the same causal type for A*phi as eta for phi.
        return [sum((m[i][j] * eta[i] for i in range(7)), self.sf.Scalar(0)) for j in range(7)]

    def op_split(self):
        sf = self.sf
        m, _ = self._matrix(7)
        phi = sf.pullback(m, self.split)
        while True:
            eta = self._vector(7)
            norm = sum(x * x for x in eta[:3]) - sum(x * x for x in eta[3:])
            if norm:
                break
        theta = self._covector(m, eta)
        kind = sf.HyperplaneKind.SPACELIKE if norm > 0 else sf.HyperplaneKind.TIMELIKE
        rho_orbit = sf.Orbit6.SL3C if norm > 0 else sf.Orbit6.SL3R2

        def check(split):
            return (
                split.kind is kind
                and split.reconstructed() == phi
                and sf.classify6(split.rho).orbit is rho_orbit
            )

        return Op("split", lambda: sf.hyperplane_split(phi, theta), check)

    def op_split_null(self):
        sf = self.sf
        m, _ = self._matrix(7)
        phi = sf.pullback(m, self.split)
        eta = [0] * 7
        scale = self.rng.choice((1, 2, -1))
        eta[self.rng.randrange(3)] = scale
        eta[3 + self.rng.randrange(4)] = self.rng.choice((scale, -scale))
        theta = self._covector(m, eta)
        return Op("split_null", lambda: sf.hyperplane_split(phi, theta),
                  raises=sf.NullHyperplaneError)

    # -- 6-form ops ---------------------------------------------------------------

    def op_classify6(self):
        sf = self.sf
        model, orbit = self._turn(
            "classify6",
            [(f, sf.Orbit6.SL3C) for f, _ in self.complex6] + [(f, sf.Orbit6.SL3R2) for f in self.para6],
        )
        m, _ = self._matrix(6)
        rho = sf.pullback(m, model)

        def check(cls):
            k = cls.endo
            return cls.orbit is orbit and k.compose(k) == sf.Endo.diagonal([cls.invariant] * 6)

        return Op("classify6", lambda: sf.classify6(rho), check)

    def op_hitchin_dual(self):
        sf = self.sf
        model, dual = self._turn("complex", self.complex6)
        if self.radical and self._turn("nested", (True, False)):
            # A sqrt(d) matrix whose determinant has both parts non-zero makes
            # the invariant irrational: its square root is a nested radical.
            m, _ = self._matrix(6, nested=True)
            rho = sf.pullback(m, model)
            return Op("hitchin_dual", lambda: sf.hitchin_dual(rho), raises=sf.ScalarContextError)
        m, _ = self._matrix(6, radical=False)
        rho = sf.pullback(m, model)
        return Op("hitchin_dual", lambda: sf.hitchin_dual(rho),
                  lambda out: out == sf.pullback(m, dual))

    def op_para_eigenspaces(self):
        sf, linalg = self.sf, self.linalg
        model = self._turn("para", self.para6)
        m, _ = self._matrix(6, radical=False)
        rho = sf.pullback(m, model)

        def check(planes):
            cls = sf.classify6(rho)
            root = sf.Scalar.sqrt(cls.invariant)
            for plane, sgn in zip(planes, (1, -1)):
                for v in plane.vectors:
                    if linalg.mat_vec(cls.endo.entries, v) != tuple(x * root * sgn for x in v):
                        return False
                if rho.evaluate(*plane.vectors).sign() <= 0:
                    return False
            return True

        return Op("para_eigenspaces", lambda: sf.para_eigenspaces(rho), check)

    def op_extension_admissible(self):
        sf = self.sf
        model, omega, verdict = self._turn("pairs", self.pairs)
        m, _ = self._matrix(6, radical=False)
        rho, om = sf.pullback(m, model), sf.pullback(m, omega)
        return Op("extension_admissible", lambda: sf.extension_admissible(rho, om),
                  lambda out: out is verdict)

    def warmup(self):
        sf = self.sf
        idx, psi = self.planes[0]
        plane = sf.OrientedPlane(7, [unit(7, i) for i in idx])
        rho, dual = self.complex6[0]
        para = self.para6[0]
        model, omega, verdict = self.pairs[0]
        return [
            Op("classify7", lambda: sf.classify7(self.g2), lambda c: c.orbit is sf.Orbit7.G2),
            Op("swap", lambda: sf.calibrated_swap(self.g2, plane), lambda out: out == psi),
            Op("plane_from_cross", lambda: sf.plane_from_cross(self.g2, unit(7, 1), unit(7, 2)),
               lambda p: p.vectors[2] == sf.exterior.linalg.coerce_vector(unit(7, 3))),
            Op("split", lambda: sf.hyperplane_split(self.split, unit(7, 7)),
               lambda s: s.kind is sf.HyperplaneKind.TIMELIKE),
            Op("classify6", lambda: sf.classify6(rho), lambda c: c.orbit is sf.Orbit6.SL3C),
            Op("hitchin_dual", lambda: sf.hitchin_dual(rho), lambda out: out == dual),
            Op("para_eigenspaces", lambda: sf.para_eigenspaces(para), lambda p: len(p) == 2),
            Op("extension_admissible", lambda: sf.extension_admissible(model, omega),
               lambda out: out is verdict),
        ]


class DenseRational(Dense):
    name = "dense-rational"


class DenseRadical(Dense):
    name = "dense-radical"
    radical = True


# -- CLI on the fixtures ----------------------------------------------------------------


class CliFixtures(Workload):
    """In-process ``stableforms.cli.main(argv)`` over the repository's
    fixtures.  A seeded pool of command lines covers all six subcommands
    and the exit codes 2, 3, 4 and 6; it is replayed in shuffled order, so
    each command line runs several times and its stdout must repeat byte
    for byte."""

    name = "cli-fixtures"

    def __init__(self, sf, seed, root):
        super().__init__(sf, seed, root)
        self.cli = importlib.import_module("stableforms.cli")
        fixtures = root / "tests" / "fixtures"
        fx = {p.stem: str(p) for p in fixtures.glob("*.json")}
        rng = self.rng
        out_dir = root / "perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        text = (fixtures / "g2.json").read_text()
        malformed = out_dir / f"malformed-{seed}.json"
        malformed.write_text(text[: rng.randrange(1, len(text) - 1)])

        def vec(v):
            return ",".join(str(x) for x in v)

        def plane_arg(idx):
            # A positive change of basis of a coordinate plane: same
            # oriented plane, so the same swap.
            while True:
                b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
                if int_det(b) > 0:
                    break
            rows = [[sum(b[r][k] * unit(7, idx[k])[c] for k in range(3)) for c in range(7)] for r in range(3)]
            return ";".join(vec(r) for r in rows)

        pool = [
            (["classify", fx["g2"]], 0, {"orbit": "G2", "signature": [7, 0, 0]}),
            (["classify", fx["split_g2"]], 0, {"orbit": "G2Tilde", "signature": [3, 4, 0]}),
            (["classify", fx["sl3c"]], 0, {"orbit": "SL3C", "lambda": "-4"}),
            (["classify", fx["sl3r2"]], 0, {"orbit": "SL3R2", "lambda": "1"}),
            (["classify", fx["zero7"]], 0, {"orbit": "NonStable", "signature": [0, 0, 7]}),
            (["classify", fx["omega_para"]], 3, None),
            (["classify", str(malformed)], 2, None),
            (["swap", fx["zero7"], "--plane=" + plane_arg((1, 2, 3))], 3, None),
            (["swap", fx["g2"], "--plane=" + ";".join(vec(unit(7, i)) for i in (1, 2, 4))], 6, None),
            (["swap", fx["split_g2"], "--plane=" + plane_arg((1, 2, 3))], 0, {"orbit": "G2"}),
        ]
        for idx in ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6)):
            pool.append((["swap", fx["g2"], "--plane=" + plane_arg(idx)], 0, {"orbit": "G2Tilde"}))
        # Covectors with two non-zero entries on the same side of the split
        # metric diag(1,1,1,-1,-1,-1,-1): two spacelike, two timelike.
        for side, kind, orbit in ((range(3), "Spacelike", "SL3C"), (range(3, 7), "Timelike", "SL3R2")) * 2:
            eta = [0] * 7
            for i in rng.sample(side, 2):
                eta[i] = rng.choice((1, -1, 2, -2))
            pool.append((["decompose", fx["split_g2"], "--theta=" + vec(eta)], 0,
                         {"type": kind, "rho_orbit": orbit, "admissible": True}))
        null = [0] * 7
        null[rng.randrange(3)] = 1
        null[3 + rng.randrange(4)] = rng.choice((1, -1))
        pool.append((["decompose", fx["split_g2"], "--theta=" + vec(null)], 4, None))
        for rho, omega, orbit, verdict in (
            ("sl3r2", "omega_para", "SL3R2", True),
            ("sl3r2", "omega_para_neg", "SL3R2", False),
            ("sl3c", "omega_cplx_good", "SL3C", True),
            ("sl3c", "omega_cplx_bad", "SL3C", False),
        ):
            pool.append((["extend-check", fx[rho], fx[omega]], 0, {"rho_orbit": orbit, "admissible": verdict}))
        q, n = rng.choice((2, 3, 4, 5, 7)), rng.randint(1, 8)
        k = rng.randint(0, n)
        pool.append((["grassmann", "--q", str(q), "--n", str(n), "--k", str(k)], 0,
                     {"q": q, "n": n, "k": k, "count": gaussian_binomial(n, k, q), "brute_force_verified": False}))
        k = rng.choice((3, 4))
        pool.append((["grassmann", "--q", "2", "--n", "7", "--k", str(k), "--brute-force"], 0,
                     {"q": 2, "n": 7, "k": k, "count": gaussian_binomial(7, k, 2), "brute_force_verified": True}))
        pool.append((["torus-classes", "--n", "6"], 0, {"n": 6, "slc": 64, "extendible_slr": 652}))
        # 11 command lines cost less than an extend-check and 11 more: the
        # median falls among the four extend-checks.
        self.pool = pool
        self.cycle = tuple(range(len(pool)))
        self.stdout = {}

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def _op(self, argv, code, result):
        key = tuple(argv)

        def check(outcome):
            got, out, err = outcome
            if got != code:
                return False
            if code:
                return out == "" and err.startswith("error: ")
            if self.stdout.setdefault(key, out) != out:
                return False
            report = json.loads(out)
            fields = report["result"]
            return report["exact"] is True and all(fields.get(k) == v for k, v in result.items())

        return Op(argv[0], lambda: self._run(argv), check)

    def make(self, i):
        return self._op(*self.pool[i])

    def warmup(self):
        return [self._op(*self.pool[0]), self._op(*self.pool[-2])]


# -- mod-2 topology and torus calculus ----------------------------------------------------


class TorusTopology(Workload):
    """GF(2) kernels, class counts and the cylinder identity.  Includes the
    three cases of the F2 kernel timing script ``benchmarks/bench_f2.py``:
    a batch of 20000 random 6x12 matrices (here rank and rref of each),
    the Gr(8,3) enumeration and the scan of all degree-2 classes on 6
    letters."""

    name = "torus-topology"

    # 8 cheap ops, 1 scan, 1 rref batch, 2 Gr(8,3) enumerations: the median
    # falls among the cylinder identities, the 90th percentile among the
    # enumerations.
    cycle = (
        ("cylinder",) * 6 + ("grassmann_small", "classes")
        + ("scan6", "rref_batch") + ("enumerate_8_3",) * 2
    )

    def op_rref_batch(self):
        f2 = self.sf.f2
        batch = [[self.rng.getrandbits(12) for _ in range(6)] for _ in range(20000)]

        def call():
            F2Matrix = f2.F2Matrix
            out = []
            for rows in batch:
                m = F2Matrix(12, rows)
                out.append((m.rank(), m.rref().rows))
            return out

        def check(out):
            for (rank, got), rows in zip(out, batch):
                want = f2_rref(rows, 12)
                if got != want or rank != len(want):
                    return False
            return len(out) == len(batch)

        return Op("rref_batch", call, check)

    def _enumerate(self, kind, n, k):
        f2 = self.sf.f2

        def check(planes):
            rows = {p.rows for p in planes}
            return len(planes) == len(rows) == gaussian_binomial(n, k, 2)

        return Op(kind, lambda: f2.grassmann_enumerate(n, k), check)

    def op_enumerate_8_3(self):
        return self._enumerate("enumerate_8_3", 8, 3)

    def op_grassmann_small(self):
        n = self.rng.randint(4, 7)
        return self._enumerate("grassmann_small", n, self.rng.randint(1, min(2, n - 1)))

    def op_scan6(self):
        f2 = self.sf.f2
        return Op("scan6", lambda: f2.decomposable_nonzero_count(6), lambda c: c == 651)

    def op_classes(self):
        f2 = self.sf.f2
        n = self._turn("classes", (5, 6))
        expected = (2 ** n, gaussian_binomial(n, 2, 2) + 1)
        return Op("classes", lambda: (f2.count_slc_classes(n), f2.count_extendible_slr_classes(n)),
                  lambda out: out == expected)

    def _trig_form(self, degree):
        torus = self.sf.torus
        rng = self.rng
        terms = {}
        for idx in rng.sample(sorted(combinations(range(1, 7), degree)), 2):
            coeffs = {}
            for _ in range(2):
                freq = tuple(rng.randint(-3, 3) for _ in range(6))
                c = torus.GaussQ(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                 Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                neg = tuple(-f for f in freq)
                coeffs[(freq, 0)] = coeffs.get((freq, 0), torus.GaussQ()) + c
                coeffs[(neg, 0)] = coeffs.get((neg, 0), torus.GaussQ()) + c.conj()
            terms[idx] = torus.TrigScalar(6, coeffs)
        return torus.TrigForm(6, degree, terms)

    def op_cylinder(self):
        torus = self.sf.torus
        rho, omega = self._trig_form(3), self._trig_form(2)
        # d(dt ^ omega + rho + t d omega) is the pullback of d rho.
        return Op("cylinder", lambda: torus.cylinder_extension(rho, omega).d(),
                  lambda out: out == rho.d().with_t())

    def warmup(self):
        f2 = self.sf.f2
        return [
            Op("rref_batch", lambda: (f2.F2Matrix(12, [5, 3, 6]).rank(), f2.F2Matrix(12, [5, 3, 6]).rref().rows),
               lambda r: r == (2, f2_rref([5, 3, 6], 12))),
            self._enumerate("grassmann_small", 4, 2),
            Op("scan6", lambda: f2.decomposable_nonzero_count(4), lambda c: c == gaussian_binomial(4, 2, 2)),
            Op("classes", lambda: f2.count_extendible_slr_classes(4), lambda c: c == gaussian_binomial(4, 2, 2) + 1),
            self.op_cylinder(),
        ]


WORKLOADS = {w.name: w for w in (CliFixtures, DenseRational, DenseRadical, TorusTopology)}

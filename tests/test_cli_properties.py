"""Property test of the CLI contract, run in-process through `cli.main`:
on any input every subcommand ends with a documented exit code, writes
at most one stderr line, prints one JSON document or nothing, and stays
within a wall bound."""

import contextlib
import io
import json
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stableforms.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
EXIT_CODES = {0, 2, 3, 4, 5, 6}
WALL_S = 5.0
SETTINGS = settings(
    max_examples=80,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    wall = time.perf_counter() - start
    assert code in EXIT_CODES, (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if out.getvalue():
        assert code == 0
        json.loads(out.getvalue())
        assert out.getvalue().count("\n") == 1
    else:
        assert code != 0
    assert wall < WALL_S, (argv, wall)
    return code


# -- strings that claim to be numbers ------------------------------------------

digits = st.integers(1, 5000).map(lambda n: "9" * n)
rationals = st.one_of(
    st.integers(-5, 5).map(str),
    st.tuples(st.integers(-9, 9), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    digits,
    st.tuples(digits, digits).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["1e1000000", "1e-5", "2E3", "1.5", ".5", "inf", "nan", "1_0", "", " ", "+", "-0"]),
    st.text(max_size=8),
)
scalars = st.one_of(
    rationals,
    st.tuples(rationals, st.sampled_from([2, 3, 5, 4, 10**40 + 1])).map(
        lambda t: f"{t[0]}*sqrt({t[1]})"
    ),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([2, 3])).map(
        lambda t: f"{t[0]}+{abs(t[1])}*sqrt({t[2]})"
    ),
)


@st.composite
def vector(draw, length):
    """Small integers, about half the time with one drawn rational string
    in place or appended."""
    parts = draw(st.lists(st.integers(-2, 2).map(str), min_size=length, max_size=length))
    at = draw(st.integers(-length, length))
    if 0 <= at < length:
        parts[at] = draw(rationals)
    elif at == length:
        parts.append(draw(rationals))
    return ",".join(parts)


# -- form files ----------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def form_objects(draw, degree=3):
    """A form on R^6 or R^7 with in-range indices, and then perhaps one
    header, index list or coefficient replaced by a wrong type or value."""
    dim = draw(st.sampled_from([6, 7]))
    idx = st.lists(st.integers(1, dim), min_size=degree, max_size=degree, unique=True).map(sorted)
    c = st.integers(-3, 3).map(str) | st.sampled_from(["1/2", "-2/3", "1+1*sqrt(2)", "1*sqrt(3)"])
    terms = draw(st.lists(st.fixed_dictionaries({"idx": idx, "c": c}), max_size=12))
    obj = {"dim": dim, "degree": degree, "terms": terms}
    where = draw(st.sampled_from(["none", "none", "header", "idx", "c", "shape"]))
    if where == "header":
        key = draw(st.sampled_from(["dim", "degree"]))
        obj[key] = draw(st.sampled_from([0, -1, 2, 5, 9, 10**6, 7.0, "7", True, None]))
    elif where in ("idx", "c") and terms:
        bad_idx = st.lists(st.integers(-1, 9) | st.sampled_from([1.5, "2", True, None]), max_size=4)
        bad = draw(bad_idx | json_values if where == "idx" else scalars | json_values)
        terms[draw(st.integers(0, len(terms) - 1))][where] = bad
    elif where == "shape":
        obj = draw(st.sampled_from([[obj], {"dim": dim}, {"terms": terms}, {**obj, "terms": {}}]))
    return obj


def dumped(objects):
    return objects.map(lambda o: json.dumps(o).encode())


form_bytes = st.one_of(
    dumped(form_objects()),
    dumped(json_values),
    st.binary(max_size=40),
    st.sampled_from([b"[" * 100000 + b"]" * 100000, b'{"dim": 7', b"\xff\xfe"]),
)
fixture_names = st.sampled_from(
    ["g2.json", "split_g2.json", "sl3r2.json", "zero7.json", "omega_para.json"]
)


def form_path(tmp, name, form):
    """The drawn fixture, or a file `name` under tmp holding the drawn bytes."""
    if isinstance(form, str):
        return str(FIXTURES / form)
    path = tmp / name
    path.write_bytes(form)
    return str(path)


forms = st.one_of(fixture_names, dumped(form_objects()), form_bytes)
two_forms = st.one_of(st.just("omega_para.json"), dumped(form_objects(2)), forms)


@given(form=forms)
@SETTINGS
def test_classify_contract(tmp_path_factory, form):
    tmp = tmp_path_factory.getbasetemp()
    run(["classify", form_path(tmp, "a.json", form)])


@given(form=st.just("split_g2.json") | forms, theta=vector(7))
@SETTINGS
def test_decompose_contract(tmp_path_factory, form, theta):
    tmp = tmp_path_factory.getbasetemp()
    run(["decompose", form_path(tmp, "a.json", form), f"--theta={theta}"])


STANDARD_PLANE = "1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,0"


@given(
    form=st.just("g2.json") | forms,
    plane=st.just(STANDARD_PLANE) | st.lists(vector(7), min_size=2, max_size=4).map(";".join),
)
@SETTINGS
def test_swap_contract(tmp_path_factory, form, plane):
    tmp = tmp_path_factory.getbasetemp()
    run(["swap", form_path(tmp, "a.json", form), f"--plane={plane}"])


@given(rho=st.just("sl3r2.json") | forms, omega=two_forms)
@SETTINGS
def test_extend_check_contract(tmp_path_factory, rho, omega):
    tmp = tmp_path_factory.getbasetemp()
    run(["extend-check", form_path(tmp, "a.json", rho), form_path(tmp, "b.json", omega)])


counts = st.integers(0, 10**6)


@given(q=counts, n=counts, k=counts, brute=st.booleans())
@SETTINGS
def test_grassmann_contract(q, n, k, brute):
    run(["grassmann", f"--q={q}", f"--n={n}", f"--k={k}"] + ["--brute-force"] * brute)


@given(n=counts)
@SETTINGS
def test_torus_classes_contract(n):
    run(["torus-classes", f"--n={n}"])

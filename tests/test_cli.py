import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stableforms
from stableforms import Scalar
from stableforms.cli import main
from stableforms.f2 import grassmann_count

FIXTURES = Path(__file__).parent / "fixtures"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def fx(name):
    return str(FIXTURES / name)


def child_env():
    """Environment in which a child interpreter imports this same package."""
    env = dict(os.environ)
    paths = [str(Path(stableforms.__file__).parents[1])]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_classify_split_form(capsys):
    code, payload, _ = run_cli(capsys, "classify", fx("split_g2.json"))
    assert code == 0
    assert payload["result"] == {"orbit": "G2Tilde", "signature": [3, 4, 0]}
    assert payload["exact"] is True
    assert payload["inputs"][0]["sha256"]


def test_classify_g2(capsys):
    code, payload, _ = run_cli(capsys, "classify", fx("g2.json"))
    assert code == 0
    assert payload["result"] == {"orbit": "G2", "signature": [7, 0, 0]}


def test_classify_para_form(capsys):
    code, payload, _ = run_cli(capsys, "classify", fx("sl3r2.json"))
    assert code == 0
    assert payload["result"] == {"orbit": "SL3R2", "lambda": "1"}


def test_classify_zero_form(capsys):
    code, payload, _ = run_cli(capsys, "classify", fx("zero7.json"))
    assert code == 0
    assert payload["result"] == {"orbit": "NonStable", "signature": [0, 0, 7]}


def test_classify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["classify", str(bad)])
    captured = capsys.readouterr()
    assert_parse_error(code, captured.out, captured.err)


def test_classify_unreadable_path_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code = main(["classify", str(path)])
        captured = capsys.readouterr()
        assert_parse_error(code, captured.out, captured.err)


def classify_terms(tmp_path, capsys, terms):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"dim": 7, "degree": 3, "terms": terms}))
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_parse_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_classify_zero_denominator_exits_2(tmp_path, capsys):
    result = classify_terms(tmp_path, capsys, [{"idx": [1, 2, 3], "c": "1/0"}])
    assert_parse_error(*result)


def test_classify_radical_zero_denominator_exits_2(tmp_path, capsys):
    terms = [{"idx": [1, 2, 3], "c": "1+1/0*sqrt(2)"}]
    assert_parse_error(*classify_terms(tmp_path, capsys, terms))


def test_classify_numeric_coefficient_exits_2(tmp_path, capsys):
    result = classify_terms(tmp_path, capsys, [{"idx": [1, 2, 3], "c": 5}])
    assert_parse_error(*result)


def test_classify_fractional_index_exits_2(tmp_path, capsys):
    result = classify_terms(tmp_path, capsys, [{"idx": [1.5, 2, 3], "c": "1"}])
    assert_parse_error(*result)


def test_classify_string_index_exits_2(tmp_path, capsys):
    result = classify_terms(tmp_path, capsys, [{"idx": "123", "c": "1"}])
    assert_parse_error(*result)


def test_classify_out_of_range_index_exits_2(tmp_path, capsys):
    for idx in ([1, 2, 8], [0, 1, 2]):
        result = classify_terms(tmp_path, capsys, [{"idx": idx, "c": "1"}])
        assert_parse_error(*result)


def test_classify_bool_index_exits_2(tmp_path, capsys):
    result = classify_terms(tmp_path, capsys, [{"idx": [True, 2, 3], "c": "1"}])
    assert_parse_error(*result)


def test_classify_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert_parse_error(code, captured.out, captured.err)


def test_classify_mixed_radicands_exits_3(tmp_path, capsys):
    # g2 with one sqrt(2) and one sqrt(3) coefficient: one radical per
    # computation, so this is unsupported input, never a wrong orbit.
    terms = stableforms.standard_form("g2").to_json()["terms"]
    terms[0]["c"] = "1*sqrt(2)"
    terms[-1]["c"] = "-1*sqrt(3)"
    code, out, err = classify_terms(tmp_path, capsys, terms)
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def assert_one_error_exit_3(code, out, err):
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_classify_mixed_radicand_6form_exits_3(tmp_path, capsys):
    # the Hitchin endomorphism reads one radicand off the whole form
    terms = stableforms.standard_form("sl3c").to_json()["terms"]
    terms[0]["c"] = "1+1*sqrt(2)"
    terms[-1]["c"] = "1*sqrt(3)"
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dim": 6, "degree": 3, "terms": terms}))
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert_one_error_exit_3(code, captured.out, captured.err)
    assert "mixed radicands" in captured.err
    code = main(["extend-check", str(path), fx("omega_cplx_good.json")])
    captured = capsys.readouterr()
    assert_one_error_exit_3(code, captured.out, captured.err)
    assert "mixed radicands" in captured.err


def test_extend_check_radicand_per_form_mixed_exits_3(tmp_path, capsys):
    # rho over Q(sqrt(2)) and omega over Q(sqrt(3)): each form alone has
    # one radicand, the pair has two
    # rho = A* sl3c with det A = sqrt(2), so its invariant stays rational
    scale = [[Scalar(0, 1, 2) if i == j == 0 else int(i == j) for j in range(6)] for i in range(6)]
    rho = stableforms.standard_form("sl3c").pullback(scale).to_json()
    omega = json.loads((FIXTURES / "omega_cplx_good.json").read_text())
    omega["terms"][0]["c"] = "1*sqrt(3)"
    rho_path, omega_path = tmp_path / "rho.json", tmp_path / "omega.json"
    rho_path.write_text(json.dumps(rho))
    omega_path.write_text(json.dumps(omega))
    code = main(["classify", str(rho_path)])
    assert code == 0
    capsys.readouterr()
    code = main(["extend-check", str(rho_path), str(omega_path)])
    captured = capsys.readouterr()
    assert_one_error_exit_3(code, captured.out, captured.err)
    assert "mixed radicands" in captured.err


def test_classify_unfactorable_radicand_exits_3(tmp_path, capsys):
    terms = stableforms.standard_form("g2").to_json()["terms"]
    terms[0]["c"] = "1+1*sqrt(100000000000000000039)"
    code, out, err = classify_terms(tmp_path, capsys, terms)
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_classify_unsupported_degree(tmp_path, capsys):
    from stableforms import KForm

    path = tmp_path / "two_form.json"
    path.write_text(KForm.basis(7, (1, 2)).to_json_str())
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert_one_error_exit_3(code, captured.out, captured.err)


def test_decompose_timelike(capsys):
    code, payload, _ = run_cli(
        capsys, "decompose", fx("split_g2.json"), "--theta", "0,0,0,0,0,0,1"
    )
    assert code == 0
    result = payload["result"]
    assert result["type"] == "Timelike"
    assert result["rho_orbit"] == "SL3R2"
    assert result["admissible"] is True
    assert result["omega"]["terms"] == [
        {"idx": [1, 6], "c": "-1"},
        {"idx": [2, 5], "c": "-1"},
        {"idx": [3, 4], "c": "-1"},
    ]


def test_decompose_spacelike(capsys):
    code, payload, _ = run_cli(
        capsys, "decompose", fx("split_g2.json"), "--theta", "1,0,0,0,0,0,0"
    )
    assert code == 0
    assert payload["result"]["type"] == "Spacelike"
    assert payload["result"]["rho_orbit"] == "SL3C"


def test_decompose_generic_rational_theta(capsys):
    # The Hitchin invariant here has an unfactorable numerator; the
    # admissibility verdict needs no square root of it.
    code = main(["decompose", fx("split_g2.json"), "--theta", "0,7777777777/33333333331,0,0,0,0,1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    payload = json.loads(captured.out)
    assert payload["result"]["rho_orbit"] == "SL3R2"
    assert payload["result"]["admissible"] is True


def test_decompose_null_exits_4(capsys):
    code, payload, err = run_cli(
        capsys, "decompose", fx("split_g2.json"), "--theta", "1,0,0,1,0,0,0"
    )
    assert code == 4 and payload is None and err


def assert_one_error_exit_2(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "theta",
    ["1e1000000,0,0,0,0,0,1", "0,0,0,0,0,0,1e0", "0,0,0,0,0,0,1.5", "0,0,0,0,0,0,1/0",
     "0,0,0,0,0,0,inf", "0,0,0,0,0,0,", "0,0,0,0,0,0,1_0", "0,0,0,0,0,0," + "9" * 5000,
     "0,0,1", "0,0,0,0,0,0,0,1"],
)
def test_decompose_rejects_non_rational_theta(capsys, theta):
    start = time.perf_counter()
    code = main(["decompose", fx("split_g2.json"), "--theta", theta])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert_one_error_exit_2(code, captured.out, captured.err)


def test_decompose_accepts_signed_fractions(capsys):
    code, payload, _ = run_cli(
        capsys, "decompose", fx("split_g2.json"), "--theta", " 0, +0,0/7,0,0,-0,2/2"
    )
    assert code == 0
    assert payload["result"]["type"] == "Timelike"


def test_swap_rejects_non_rational_plane(capsys):
    for plane in (
        "1e1000000,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,0",
        "1,0,0,0,0,0,0;0,1.0,0,0,0,0,0;0,0,1,0,0,0,0",
        "1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,sqrt(2)",
    ):
        start = time.perf_counter()
        code = main(["swap", fx("g2.json"), "--plane", plane])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert_one_error_exit_2(code, captured.out, captured.err)


@pytest.mark.parametrize(
    "plane",
    ["1,0,0,0,0,0,0;0,1,0,0,0,0,0", "1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,0;0,0,0,1,0,0,0",
     "1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1"],
)
def test_swap_refuses_a_plane_of_the_wrong_shape(capsys, plane):
    code = main(["swap", fx("g2.json"), "--plane", plane])
    captured = capsys.readouterr()
    assert_one_error_exit_2(code, captured.out, captured.err)


def test_swap_standard_plane(capsys):
    code, payload, _ = run_cli(
        capsys,
        "swap",
        fx("g2.json"),
        "--plane",
        "1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,0",
    )
    assert code == 0
    assert payload["result"]["orbit"] == "G2Tilde"
    terms = {tuple(t["idx"]): t["c"] for t in payload["result"]["form"]["terms"]}
    assert terms[(1, 2, 3)] == "1"
    assert terms[(2, 4, 6)] == "-1"
    assert terms[(2, 5, 7)] == "1"


def test_swap_twice_returns_original(tmp_path, capsys):
    code, payload, _ = run_cli(
        capsys,
        "swap",
        fx("g2.json"),
        "--plane",
        "1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,0",
    )
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(payload["result"]["form"]))
    code, payload2, _ = run_cli(
        capsys,
        "swap",
        str(swapped),
        "--plane",
        "1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,1,0,0,0,0",
    )
    assert code == 0
    with open(fx("g2.json")) as fh:
        assert payload2["result"]["form"] == json.load(fh)


def test_swap_bad_plane_exits_6(capsys):
    code, payload, err = run_cli(
        capsys,
        "swap",
        fx("g2.json"),
        "--plane",
        "1,0,0,0,0,0,0;0,1,0,0,0,0,0;0,0,0,1,0,0,0",
    )
    assert code == 6 and payload is None and err


def test_extend_check_pair(capsys):
    code, payload, _ = run_cli(
        capsys, "extend-check", fx("sl3r2.json"), fx("omega_para.json")
    )
    assert code == 0
    assert payload["result"] == {"rho_orbit": "SL3R2", "admissible": True}
    code, payload, _ = run_cli(
        capsys, "extend-check", fx("sl3r2.json"), fx("omega_para_neg.json")
    )
    assert payload["result"]["admissible"] is False
    code, payload, _ = run_cli(
        capsys, "extend-check", fx("sl3c.json"), fx("omega_cplx_good.json")
    )
    assert payload["result"] == {"rho_orbit": "SL3C", "admissible": True}
    code, payload, _ = run_cli(
        capsys, "extend-check", fx("sl3c.json"), fx("omega_cplx_bad.json")
    )
    assert payload["result"]["admissible"] is False


def test_extend_check_degenerate_exits_3(tmp_path, capsys):
    from stableforms import KForm

    path = tmp_path / "degenerate.json"
    path.write_text(KForm.basis(6, (1, 2, 3)).to_json_str())
    code, payload, err = run_cli(
        capsys, "extend-check", str(path), fx("omega_para.json")
    )
    assert code == 3 and payload is None


def test_grassmann_counts(capsys):
    code, payload, _ = run_cli(
        capsys, "grassmann", "--q", "2", "--n", "6", "--k", "2", "--brute-force"
    )
    assert code == 0
    assert payload["result"] == {
        "q": 2,
        "n": 6,
        "k": 2,
        "count": 651,
        "brute_force_verified": True,
    }
    code, payload, _ = run_cli(capsys, "grassmann", "--q", "2", "--n", "6", "--k", "0")
    assert payload["result"]["count"] == 1
    code, payload, _ = run_cli(capsys, "grassmann", "--q", "3", "--n", "3", "--k", "1")
    assert payload["result"]["count"] == 13
    assert payload["result"]["brute_force_verified"] is False


def test_grassmann_brute_force_on_zero_space_exits_2(capsys):
    code, payload, _ = run_cli(capsys, "grassmann", "--q", "2", "--n", "0", "--k", "0")
    assert code == 0 and payload["result"]["count"] == 1
    code = main(["grassmann", "--q", "2", "--n", "0", "--k", "0", "--brute-force"])
    captured = capsys.readouterr()
    assert_one_error_exit_2(code, captured.out, captured.err)


def test_grassmann_brute_force_refused_for_q3(capsys):
    code, payload, err = run_cli(
        capsys, "grassmann", "--q", "3", "--n", "3", "--k", "1", "--brute-force"
    )
    assert code == 5 and payload is None
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_grassmann_oversize_exits_5(capsys):
    code, payload, err = run_cli(
        capsys, "grassmann", "--q", "2", "--n", "15", "--k", "2", "--brute-force"
    )
    assert code == 5


def test_grassmann_too_large_exits_3(capsys):
    # 2^250000 subspaces: refused from k(n-k) log2 q before computing
    code = main(["grassmann", "--q", "2", "--n", "1000", "--k", "500"])
    captured = capsys.readouterr()
    assert_one_error_exit_3(code, captured.out, captured.err)
    code = main(["grassmann", "--q", "3", "--n", "1000000", "--k", "500000"])
    captured = capsys.readouterr()
    assert_one_error_exit_3(code, captured.out, captured.err)


def test_grassmann_at_size_limit_prints(capsys):
    # k(n-k) log2 q = 14000 bits, the largest estimate that is printed
    code, payload, _ = run_cli(capsys, "grassmann", "--q", "2", "--n", "240", "--k", "100")
    assert code == 0
    count = payload["result"]["count"]
    assert count == grassmann_count(2, 240, 100)
    assert len(str(count)) < 4300
    code = main(["grassmann", "--q", "2", "--n", "241", "--k", "100"])
    captured = capsys.readouterr()
    assert_one_error_exit_3(code, captured.out, captured.err)


def test_torus_classes_large_n(capsys):
    start = time.perf_counter()
    code, payload, _ = run_cli(capsys, "torus-classes", "--n", "2000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["result"]["slc"] == 2**2000
    assert payload["result"]["extendible_slr"] == grassmann_count(2, 2000, 2) + 1
    code, payload, _ = run_cli(capsys, "torus-classes", "--n", "7001")
    assert code == 0
    code = main(["torus-classes", "--n", "7002"])
    captured = capsys.readouterr()
    assert_one_error_exit_3(code, captured.out, captured.err)


def test_torus_classes(capsys):
    code, payload, _ = run_cli(capsys, "torus-classes", "--n", "6")
    assert code == 0
    assert payload["result"] == {"n": 6, "slc": 64, "extendible_slr": 652}
    code, payload, _ = run_cli(capsys, "torus-classes", "--n", "1")
    assert payload["result"] == {"n": 1, "slc": 2, "extendible_slr": 1}
    code, payload, _ = run_cli(capsys, "torus-classes", "--n", "2")
    assert payload["result"] == {"n": 2, "slc": 4, "extendible_slr": 2}


def test_output_is_byte_identical_across_runs():
    cmd = [
        sys.executable,
        "-m",
        "stableforms.cli",
        "classify",
        fx("split_g2.json"),
    ]
    env = child_env()
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_console_entry_point():
    # Run the declared [project.scripts] target the way the wrapper that
    # setuptools generates does, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["stableforms"]
    module, func = target.split(":")
    wrapper = [
        sys.executable,
        "-c",
        f"import sys; from {module} import {func}; sys.exit({func}())",
    ]
    ok_args = ["torus-classes", "--n", "3"]
    refused_args = ["grassmann", "--q", "3", "--n", "4", "--k", "2", "--brute-force"]

    env = child_env()
    ok = subprocess.run(wrapper + ok_args, capture_output=True, env=env)
    assert ok.returncode == 0
    payload = json.loads(ok.stdout)
    assert payload["result"]["slc"] == 8

    # A documented failure must reach the exit status unchanged.
    refused = subprocess.run(wrapper + refused_args, capture_output=True, env=env)
    assert refused.returncode == 5
    assert refused.stdout == b""
    err = refused.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")

    # Where a script is installed, it must agree with the declared target.
    # It runs in the inherited environment, as a user's shell would run it.
    installed = shutil.which("stableforms")
    if installed:
        for args, expected in ((ok_args, ok), (refused_args, refused)):
            proc = subprocess.run([installed] + args, capture_output=True)
            assert proc.returncode == expected.returncode
            assert proc.stdout == expected.stdout

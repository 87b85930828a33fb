"""CLI stdout and exit codes, byte for byte, against recorded goldens.

`golden/cli.json` holds one record per command line: its argv, exit code
and stdout, recorded before `Scalar` moved to int numerators over one
denominator.  The command lines cover every subcommand on every fixture
and on three Q(sqrt 2) / Q(sqrt 3) pullbacks of the model forms stored
beside it, so radical coefficients reach the JSON output.  Paths are
relative to this directory, which the test runs from, so the echoed
command line does not depend on where the repository lives.
"""

import json
from pathlib import Path

import pytest

from stableforms.cli import main

HERE = Path(__file__).parent
CASES = json.loads((HERE / "golden" / "cli.json").read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_cli_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(HERE)
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])

"""CLI outputs over towers of square roots, pinned by a saved document.

`tests/data/cli_golden_towers.json` holds one case per command line (argv,
exit code, stdout, stderr), saved from the code before the class table,
witness composition and report renderer were unified.  It covers:

- homogenize, classify-h, classify and canon as text with `--digits 6` on
  relations whose q is irrational (homogenize and classify-h print no
  approximation line), and congruent with `--digits 6` on pairs whose
  witness alpha is rational, irrational or absent;
- canon and classify as JSON on 45 seeded random relations whose
  coefficients mix sqrt(2), sqrt(3) and sqrt(-1), including one the tower
  budget refuses.  Relations whose two calls took longer than 0.25 s were
  left out so that the file runs in a few seconds.

Scalar text follows the order in which towers merge, so reordering how
stages compose can change these bytes even when every value is equal.
"""

import json
from pathlib import Path

import pytest

from quadalg.cli import main

CASES = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_golden_towers.json").read_text()
)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_is_unchanged(capsys, case):
    rc = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert rc == case["exit"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]

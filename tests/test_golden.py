"""Byte-for-byte CLI and name-table outputs, pinned by saved documents.

Each `tests/data/cli_golden*.json` file holds one case per command line:
argv, exit code, stdout and stderr.  One runner, `golden_test`, replays
every case of every file through `quadalg.cli.main`, with `tests/data` as
the working directory (so paths such as `reports/classify.json` and
`inputs/long_integer.txt` name files there) and with `COLUMNS=80`.  The
tower cases run under `tests/test_golden_towers.py`, the rest here.

- `cli_golden.json` covers classify, canon, homogenize and classify-h in
  both formats on every relation of `scripts/classify_table.py` plus one
  sqrt(2) relation, congruent on a congruent, a non-isomorphic and the
  UFORM/VFORM bridge pair, and stab with good and bad labels.  It also
  covers reduce on one short word per shipped fixture in both formats, a
  degree-bound refusal and an unknown system, and qas-iso on an isomorphic
  pair (both formats), a non-isomorphic pair, a size mismatch and a
  malformed entry.  Last come verify on reports that verify and do not
  (text and JSON), on canon and classify reports over towers, and on
  reports it refuses: no polynomial given, the bridge answer, a singular
  P1, no canonical form, a bad canonical entry, a JSON list and a missing
  file; then one classify per message of the polynomial parser, division by
  zero, and a scalar with trailing input.  It was saved before labels were
  unified, the reduce and qas-iso cases before the rewrite rules became a
  plain dict, and the verify and parser cases before the second scalar
  conversion and printer were removed.
- `cli_golden_towers.json` covers homogenize, classify-h, classify and
  canon as text with `--digits 6` on relations whose q is irrational
  (homogenize and classify-h print no approximation line), congruent with
  `--digits 6` on pairs whose witness alpha is rational, irrational or
  absent, and canon and classify as JSON on 45 seeded random relations
  whose coefficients mix sqrt(2), sqrt(3) and sqrt(-1), including one the
  tower budget refuses.  Relations whose two calls took longer than 0.25 s
  were left out so that the file runs in a few seconds.  It was saved
  before the class table, witness composition and report renderer were
  unified.  Scalar text follows the order in which towers merge, so
  reordering how stages compose can change these bytes even when every
  value is equal.
- `cli_golden_help.json` holds `--help` for the program and each
  subcommand and a set of usage errors, saved at `COLUMNS=80` before the
  parser stopped building a help formatter for every argument.

`tests/data/classify_table.txt` is the name table that
`scripts/classify_table.py` prints.  A refactor that changes any byte of
these files changes an output, not just the code.
"""

import json
import runpy
from pathlib import Path

import pytest

from quadalg.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"


def golden_test(*names):
    """The one runner: a test over every case of the named files in `DATA`."""
    cases = [case for name in names for case in json.loads((DATA / name).read_text())]

    @pytest.mark.parametrize("case", cases, ids=[" ".join(c["argv"]) or "(none)" for c in cases])
    def test(capsys, monkeypatch, case):
        monkeypatch.chdir(DATA)
        monkeypatch.setenv("COLUMNS", "80")
        rc = main(list(case["argv"]))
        captured = capsys.readouterr()
        assert rc == case["exit"]
        assert captured.out == case["stdout"]
        assert captured.err == case["stderr"]

    return test


test_cli_output_is_unchanged = golden_test("cli_golden.json", "cli_golden_help.json")


def test_classify_table_is_unchanged(capsys):
    table = runpy.run_path(str(ROOT / "scripts" / "classify_table.py"), run_name="table")
    assert table["main"]() == 0
    assert capsys.readouterr().out == (DATA / "classify_table.txt").read_text()

"""Byte-for-byte CLI and name-table outputs, pinned by saved documents.

`tests/data/cli_golden.json` holds one case per command line: argv, exit
code, stdout and stderr.  It covers classify, canon, homogenize and
classify-h in both formats on every relation of `scripts/classify_table.py`
plus one sqrt(2) relation, congruent on a congruent, a non-isomorphic and
the UFORM/VFORM bridge pair, and stab with good and bad labels.  It also
covers reduce on one short word per shipped fixture in both formats, a
degree-bound refusal and an unknown system, and qas-iso on an isomorphic
pair (both formats), a non-isomorphic pair, a size mismatch and a malformed
entry.  Last come verify on reports that verify and do not (text and JSON),
on canon and classify reports over towers, and on reports it refuses: no
polynomial given, the bridge answer, a singular P1, no canonical form, a bad
canonical entry, a JSON list and a missing file; then one classify per
message of the polynomial parser, division by zero, and a scalar with
trailing input.  Cases run with `tests/data` as the working directory, so
paths such as `reports/classify.json` and `inputs/long_integer.txt` name
files there.  `tests/data/classify_table.txt` is the name table that script
prints.  Both were saved from the code before labels were unified, the
reduce and qas-iso cases before the rewrite rules became a plain dict, and
the verify and parser cases before the second scalar conversion and printer
were removed; a refactor that changes any byte of them changes an output,
not just the code.
"""

import json
import runpy
from pathlib import Path

import pytest

from quadalg.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
CASES = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_is_unchanged(capsys, monkeypatch, case):
    monkeypatch.chdir(DATA)
    rc = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert rc == case["exit"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


def test_classify_table_is_unchanged(capsys):
    table = runpy.run_path(str(ROOT / "scripts" / "classify_table.py"), run_name="table")
    assert table["main"]() == 0
    assert capsys.readouterr().out == (DATA / "classify_table.txt").read_text()

"""Witnesses checked by the exact referee of `referee.py`.

A witness (P1, P2, alpha) claims M = alpha * fold(P^T N P), with N the
defining matrix of the relation, M that of the canonical answer and P the
3x3 [[P1, P2], [0, 1]].  The referee reads all three from their text and
proves the seven entries equal; with alpha doubled it must reject.  This
holds for every saved JSON `canon` and `classify` answer in
`data/cli_golden.json` and `data/cli_golden_towers.json`, and for `canon`
reports (`canonicalization_report`) of orbit samples w0.apply(C): C one of
the eleven canonical matrices, with q in 2, -1, 1, sqrt(2) and sqrt(-1)
for the two parametric classes, and w0 over the one-tower bases of
`test_fastpaths.congruence_cases`.  Each sample must land in C's class.
The orbit sample is fixed (`derandomize`): a draw costs sympy a tenth of a
second or more.  A test reads the referee's imports, so that it imports
nothing of quadalg, not even through another module.
"""

import ast
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from quadalg.polyio import canonicalization_report, matrix_document
from quadalg.scalar import TowerDepthError, sqrt_extend
from quadalg.sfcanon import CANONICAL_TAGS, CanonicalClass, canonical_matrix
from referee import (
    Unreadable,
    document_matrix,
    referee_accepts,
    relation_matrix,
    scalar,
    witness_matrix,
)
from test_fastpaths import congruence_cases

HERE = Path(__file__).resolve().parent


def assert_witness_is_exact(n, m, witness):
    p, alpha = witness_matrix(witness), scalar(witness["alpha"])
    assert referee_accepts(n, m, p, alpha)
    assert not referee_accepts(n, m, p, 2 * alpha)


ANSWERS = [case for name in ("cli_golden.json", "cli_golden_towers.json")
           for case in json.loads((HERE / "data" / name).read_text())
           if case["argv"][0] in ("canon", "classify") and "json" in case["argv"]
           and case["exit"] == 0]


def test_both_commands_are_refereed():
    assert {case["argv"][0] for case in ANSWERS} == {"canon", "classify"}


@pytest.mark.parametrize("case", ANSWERS, ids=[" ".join(c["argv"]) for c in ANSWERS])
def test_saved_witness_is_exact(case):
    doc = json.loads(case["stdout"])
    n = relation_matrix(case["argv"][1])
    if case["argv"][0] == "canon":
        m = document_matrix(doc["canonical"])
    else:
        m = relation_matrix(doc["canonical_f"])
    assert_witness_is_exact(n, m, doc["witness"])


QS = (2, -1, 1, sqrt_extend(2), sqrt_extend(-1))
CLASSES = [CanonicalClass(tag, q) for tag in CANONICAL_TAGS
           for q in (QS if tag in CanonicalClass.PARAMETRIC else (None,))]


@settings(max_examples=12, derandomize=True)
@given(st.sampled_from(CLASSES), congruence_cases())
def test_orbit_witness_is_exact(cls, case):
    sample = case[1].apply(canonical_matrix(cls))
    try:
        doc = canonicalization_report(sample)
    except TowerDepthError:
        reject()
    assert doc["class"] == cls.tag
    n = document_matrix(matrix_document(sample))
    assert_witness_is_exact(n, document_matrix(doc["canonical"]), doc["witness"])


def test_referee_imports_nothing_of_quadalg():
    """Only sympy and the standard library, so no quadalg module, not even
    through another test module."""
    tree = ast.parse((HERE / "referee.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert names, "no imports found"
    for name in names:
        top = name.split(".")[0]
        assert top == "sympy" or top in sys.stdlib_module_names, name


@pytest.mark.parametrize("text", [
    "", "x +", "2 ** x", "sqrt 2", "xz", "1.5", "x^0", "x^y", "1/0", "(x", "x)", "xyx",
])
def test_unreadable_text_is_refused(text):
    with pytest.raises(Unreadable):
        relation_matrix(text)

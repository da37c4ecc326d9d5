"""End-to-end command dispatch: exit codes, text lines, machine documents."""

import argparse
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.cli import _build_parser, main
from quadalg.polyio import (
    available_systems,
    load_system,
    matrix_from_document,
    parse_poly,
    witness_from_document,
)
from quadalg.sfcanon import verify_witness
from quadalg.scalar import MAX_APPROX_DIGITS, rational_radicands
from quadalg.algebra import sf_from_poly
from quadalg.matrix import coeffs_from_matrix

DATA = Path(__file__).resolve().parent / "data"
HELP_CASES = json.loads((DATA / "cli_golden_help.json").read_text())
# the relations that `classify` answers in the tower goldens
TOWER_RELATIONS = [case["argv"][1]
                   for case in json.loads((DATA / "cli_golden_towers.json").read_text())
                   if case["argv"][0] == "classify" and case["exit"] == 0]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestClassify:
    def test_text_report(self, capsys):
        rc, out, _ = run(capsys, "classify", "xy - 2yx - 1")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "algebra: WEYL_Q"
        assert lines[1] == "q: 2"
        assert "via_v: false" in lines
        assert "canonical_f: -xy + 2*yx + 1" in lines

    def test_json_report_witness_reverifies(self, capsys):
        rc, out, _ = run(capsys, "classify", "xy - 2yx - 1", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["algebra"] == "WEYL_Q"
        w = witness_from_document(doc["witness"])
        target = sf_from_poly(parse_poly(doc["canonical_f"]))
        source = sf_from_poly(parse_poly("xy - 2yx - 1"))
        assert verify_witness(target, source, w)

    def test_via_v_flag(self, capsys):
        rc, out, _ = run(capsys, "classify", "yx - xy + y^2 + x")
        assert rc == 0
        assert "algebra: U" in out
        assert "via_v: true" in out

    def test_digits_appends_approximation(self, capsys):
        rc, out, _ = run(
            capsys, "classify", "xy - (1 + sqrt(2))*yx", "--digits", "6"
        )
        assert rc == 0
        assert "q: 1 + sqrt(2)" in out
        assert "q approx: ~2.414214" in out

    def test_no_approximation_for_rational_q(self, capsys):
        rc, out, _ = run(capsys, "classify", "xy - 2yx", "--digits", "6")
        assert rc == 0
        assert "approx" not in out


class TestCanon:
    def test_text_report(self, capsys):
        rc, out, _ = run(capsys, "canon", "xy - 2yx - 5")
        assert rc == 0
        assert "class: QWEYL" in out
        assert "q: 2" in out
        assert "canonical constant: 1" in out

    def test_json_witness_reverifies(self, capsys):
        rc, out, _ = run(capsys, "canon", "xy - 2yx - 5", "--format", "json")
        doc = json.loads(out)
        w = witness_from_document(doc["witness"])
        target = matrix_from_document(doc["canonical"])
        source = sf_from_poly(parse_poly("xy - 2yx - 5"))
        assert verify_witness(target, source, w)


class TestCongruent:
    def test_congruent_pair(self, capsys):
        rc, out, _ = run(capsys, "congruent", "xy - 2yx - 1", "xy - 1/2yx - 1")
        assert rc == 0
        assert out.splitlines()[0] == "sf-congruent; witness verified"

    def test_bridge_pair(self, capsys):
        rc, out, _ = run(capsys, "congruent", "yx - xy + y", "yx - xy + y^2 + x")
        assert rc == 0
        assert out.strip() == "not sf-congruent; algebras isomorphic via non-affine bridge"

    def test_unrelated_pair(self, capsys):
        rc, out, _ = run(capsys, "congruent", "yx", "x^2")
        assert rc == 0
        assert out.strip() == "not sf-congruent; not isomorphic"


class TestHomogenizeAndClassifyH:
    def test_homogenize(self, capsys):
        rc, out, _ = run(capsys, "homogenize", "yx - xy + y")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "relation: -xy + yx + yz"
        assert lines[1] == "h_class: H_ENV"

    def test_classify_h_separates_the_merged_pair(self, capsys):
        rc, out, _ = run(capsys, "classify-h", "yx - xy + y^2 + x")
        assert rc == 0
        assert out.splitlines()[0] == "h_class: H_ENVV"


class TestVerify:
    def test_round_trip(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "classify", "xy - 2yx - 1", "--format", "json")
        report = tmp_path / "report.json"
        report.write_text(out)
        rc, out, _ = run(capsys, "verify", "xy - 2yx - 1", "--report", str(report))
        assert rc == 0
        assert out.strip() == "witness verifies"

    def test_tampered_alpha_fails(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "classify", "xy - 2yx - 1", "--format", "json")
        doc = json.loads(out)
        doc["witness"]["alpha"] = "7"
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "verify", "xy - 2yx - 1", "--report", str(report))
        assert rc == 1
        assert "witness does not verify" in err

    @pytest.mark.parametrize("alpha, verified", [(None, True), ("7", False)])
    def test_json_mode_prints_a_document(self, capsys, tmp_path, alpha, verified):
        rc, out, _ = run(capsys, "classify", "xy - 2yx - 1", "--format", "json")
        doc = json.loads(out)
        if alpha is not None:
            doc["witness"]["alpha"] = alpha
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "verify", "xy - 2yx - 1", "--report", str(report),
                           "--format", "json")
        assert (rc, json.loads(out), err) == (0 if verified else 1, {"verified": verified}, "")

    @pytest.mark.parametrize("relation", TOWER_RELATIONS)
    def test_tower_witness(self, capsys, tmp_path, relation):
        """The witness of a tower relation verifies, and with alpha doubled
        it does not."""
        rc, out, _ = run(capsys, "classify", relation, "--format", "json")
        assert rc == 0
        report = tmp_path / "report.json"
        report.write_text(out)
        assert run(capsys, "verify", relation, "--report", str(report)) == (
            0, "witness verifies\n", "")
        doc = json.loads(out)
        doc["witness"]["alpha"] = f"2*({doc['witness']['alpha']})"
        report.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "verify", relation, "--report", str(report))
        assert (rc, out) == (1, "") and "witness does not verify" in err

    def test_tower_witnesses_take_both_check_paths(self):
        """Among the tower goldens' witnesses, some lie on towers whose
        radicands are all rational and some over a nested radicand."""
        paths = Counter()
        for case in json.loads((DATA / "cli_golden_towers.json").read_text()):
            if case["argv"][0] != "classify" or case["argv"][-1] != "json" or case["exit"]:
                continue
            doc = json.loads(case["stdout"])
            w = witness_from_document(doc["witness"])
            m = sf_from_poly(parse_poly(case["argv"][1]))
            entries = (*w.linear.entries(), *w.translation, w.scale, *coeffs_from_matrix(m))
            if any(x.tower_depth for x in entries):
                paths[rational_radicands(entries)] += 1
        assert paths[True] > 0 and paths[False] > 0, paths

    def test_bridge_report_has_no_witness(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "congruent",
            "yx - xy + y",
            "yx - xy + y^2 + x",
            "--format",
            "json",
        )
        report = tmp_path / "report.json"
        report.write_text(out)
        rc, out, err = run(capsys, "verify", "yx - xy + y", "--report", str(report))
        assert rc == 1
        assert "no affine witness" in err


class TestStab:
    def test_member(self, capsys):
        rc, out, _ = run(capsys, "stab", "Q(2)", "2,0,0,1/2")
        assert rc == 0
        assert out.strip() == "member"

    def test_non_member(self, capsys):
        rc, out, _ = run(capsys, "stab", "Q(2)", "2,0,0,1")
        assert rc == 0
        assert out.strip() == "not a member"

    def test_x2_label(self, capsys):
        rc, out, _ = run(capsys, "stab", "X2", "1,0,3,5")
        assert rc == 0
        assert out.strip() == "member"

    def test_leading_dash_entries_need_separator(self, capsys):
        rc, out, _ = run(capsys, "stab", "X2", "--", "-1,0,0,5")
        assert rc == 0
        assert out.strip() == "member"


class TestQasIso:
    def test_swap(self, capsys):
        rc, out, _ = run(
            capsys, "qas-iso", '[[1, 3], ["1/3", 1]]', '[[1, "1/3"], [3, 1]]'
        )
        assert rc == 0
        assert out.strip() == "isomorphic via permutation (1, 0)"

    def test_json_document(self, capsys):
        rc, out, _ = run(
            capsys,
            "qas-iso",
            '[[1, 3], ["1/3", 1]]',
            '[[1, "1/3"], [3, 1]]',
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["isomorphic"] is True
        assert doc["permutation"] == [1, 0]

    def test_not_isomorphic(self, capsys):
        rc, out, _ = run(capsys, "qas-iso", '[[1, 3], ["1/3", 1]]', '[[1, 5], ["1/5", 1]]')
        assert rc == 0
        assert out.strip() == "not isomorphic"


class TestReduce:
    def test_u_fixture(self, capsys):
        rc, out, _ = run(capsys, "reduce", "--system", "u", "xy")
        assert rc == 0
        assert out.strip() == "yx + y"

    def test_degree_bound_flag(self, capsys):
        rc, out, err = run(
            capsys, "reduce", "--system", "u", "x^2y^2", "--degree-bound", "2"
        )
        assert rc == 1
        assert "error:" in err


class TestErrorsAndPlumbing:
    def test_degree_error_is_domain_error(self, capsys):
        rc, out, err = run(capsys, "classify", "x + y")
        assert rc == 1
        assert err.startswith("error:")

    def test_syntax_error_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "classify", "x + @")
        assert rc == 1
        assert "column 5" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, "bogus")
        assert rc == 2

    def test_missing_argument_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, "congruent", "xy")
        assert rc == 2

    def test_file_input(self, capsys, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("xy - 2yx - 1\n")
        rc, out, _ = run(capsys, "classify", "--file", str(src))
        assert rc == 0
        assert "algebra: WEYL_Q" in out

    def test_inline_and_file_conflict(self, capsys, tmp_path):
        src = tmp_path / "poly.txt"
        src.write_text("xy")
        rc, _, err = run(capsys, "classify", "xy", "--file", str(src))
        assert rc == 1
        assert "error:" in err

    def test_determinism(self, capsys):
        argv = ["classify", "sqrt(2)*x^2 + xy - yx + y", "--format", "json"]
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert (rc1, out1) == (rc2, out2)

    def test_deep_nesting_is_domain_error(self, capsys):
        deep = "(" * 2000 + "1" + ")" * 2000 + "*xy - yx"
        rc, out, err = run(capsys, "classify", deep)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: parentheses nest deeper")

    def test_closed_stdout_exits_quietly(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "quadalg", "canon",
                "sqrt(2)*xy - yx + y^2 + x", "--format", "json"]
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestParser:
    """`tests/data/cli_golden_help.json` holds `--help` for the program and
    each subcommand and a set of usage errors (argv, exit code, stdout,
    stderr), saved at COLUMNS=80 from the code before the parser stopped
    building a help formatter for every argument."""

    def test_an_answer_builds_no_help_formatter(self, capsys, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a help formatter was built")

        monkeypatch.setattr(argparse.HelpFormatter, "__init__", refuse)
        _build_parser()
        rc, out, _ = run(capsys, "classify", "xy - yx")
        assert rc == 0 and out.startswith("algebra: OQ\n")

    @pytest.mark.parametrize("case", HELP_CASES,
                             ids=[" ".join(c["argv"]) or "(none)" for c in HELP_CASES])
    def test_help_and_usage_text_are_unchanged(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


class TestBoundaryInputs:
    """Inputs that once ended in a traceback or an interpreter message."""

    def test_missing_report(self, capsys, tmp_path):
        rc, _, err = run(capsys, "verify", "xy", "--report", str(tmp_path / "none.json"))
        assert rc == 1
        assert err.startswith("error: cannot read") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "error: the report is not a JSON object"),
        ("[" * 100_000 + "]" * 100_000, "error: the report nests too deeply"),
    ], ids=["list", "deep"])
    def test_report_that_is_not_an_object(self, capsys, tmp_path, text, message):
        report = tmp_path / "report.json"
        report.write_text(text)
        rc, _, err = run(capsys, "verify", "xy", "--report", str(report))
        assert (rc, err) == (1, message + "\n")

    def test_one_row_p1_names_the_shape(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "canon", "xy - 2yx - 1", "--format", "json")
        doc = json.loads(out)
        doc["witness"]["P1"] = doc["witness"]["P1"][:1]
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "verify", "xy - 2yx - 1", "--report", str(report))
        assert (rc, err) == (1, "error: P1 must be 2x2\n")

    @pytest.mark.parametrize("key, value, message", [
        ("P1", [["1", "1"], ["2", "2"]], "affine substitution needs an invertible linear part"),
        ("alpha", "0", "witness scale must be nonzero"),
    ], ids=["singular-P1", "zero-alpha"])
    def test_degenerate_witness_is_refused(self, capsys, tmp_path, key, value, message):
        rc, out, _ = run(capsys, "canon", "xy - 2yx - 1", "--format", "json")
        doc = json.loads(out)
        doc["witness"][key] = value
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "verify", "xy - 2yx - 1", "--report", str(report))
        assert (rc, err) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("left", [
        "[[1, 1e308], [1, 1]]", "[[1, null], [1, 1]]", "[[true]]", "[[1, false], [0, 1]]",
        "[1, 1]", "7", "[" * 100_000 + "]" * 100_000, "[[" + "7" * 5000 + "]]",
    ], ids=["float", "null", "true", "false", "flat", "number", "deep", "long-int"])
    def test_qas_iso_entries_are_typed_errors(self, capsys, left):
        rc, _, err = run(capsys, "qas-iso", left, "[[1, 0], [0, 1]]")
        assert rc == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not any(t in err for t in INTERPRETER_TEXT)

    @pytest.mark.parametrize("precedence", ["<y<x", ["xy"]])
    def test_system_precedence_of_non_letters(self, capsys, tmp_path, precedence):
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"precedence": precedence, "relations": ["yx - xy + y"]}))
        rc, out, err = run(capsys, "reduce", "--system", str(system), "xy")
        assert rc == 1 and out == ""
        assert err.startswith("error: unknown letter ") and len(err.splitlines()) == 1

    def test_negative_digits_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "classify", "xy - 2yx", "--digits", "-5")
        assert rc == 2
        assert "--digits" in err
        rc, out, _ = run(capsys, "classify", "xy - 2yx", "--digits", "0")
        assert rc == 0 and "approx" not in out

    @pytest.mark.parametrize("relation", ["2*xy - yx", "sqrt(2)*xy - yx"])
    def test_digits_above_the_cap_is_usage_error(self, capsys, relation):
        rc, _, err = run(capsys, "classify", relation, "--digits", str(MAX_APPROX_DIGITS + 1))
        assert rc == 2
        assert f"--digits: expected at most {MAX_APPROX_DIGITS}" in err
        rc, out, _ = run(capsys, "classify", relation, "--digits", str(MAX_APPROX_DIGITS))
        assert rc == 0

    def test_long_integer_is_syntax_error(self, capsys):
        rc, _, err = run(capsys, "classify", "xy - " + "7" * 5000 + "*yx")
        assert rc == 1
        assert err == "error: integer has more than 4300 digits (column 6)\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter prints integers of any length")
    def test_result_too_long_to_print_is_domain_error(self, capsys):
        n = "7" * 2200
        rc, _, err = run(capsys, "classify", f"{n}*{n}*xy - yx")
        assert (rc, err) == (1, "error: an exact value has an integer too long to print\n")


# --- every input ends in an answer or a typed error ---------------------------

# Fragments of the interpreter's own messages: a domain error never shows them.
INTERPRETER_TEXT = ("Traceback", "unpack", "Exceeds the limit", "set_int_max_str_digits",
                    "has no attribute", "not subscriptable", "not iterable",
                    "invalid literal")


def outcome(argv):
    """Run the CLI in-process: exit 0, 1 or 2, and exit 1 says one line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse
            rc = exc.code
    err = err.getvalue()
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc == 1:
        assert len(err.splitlines()) == 1, err
        assert not any(t in err for t in INTERPRETER_TEXT), err
    return rc


TOKENS = ("x", "y", "z", "xy", "yx", "x^2", "^", "0", "1", "2", "3/4", "+", "-", "*", "/",
          "(", ")", "sqrt(", "sqrt(2)", "sqrt(-1)", " ", ",", "Q(", "X2", "[", "]", '"')
noise = st.lists(
    st.sampled_from(TOKENS)
    | st.text(max_size=2)
    | st.sampled_from((4299, 4300, 4301, 5000)).map(lambda n: "9" * n),
    max_size=8,
).map("".join)
terms = st.tuples(
    st.sampled_from(("+", "-")),
    st.sampled_from(("", "2", "1/3", "sqrt(2)", "(1 + sqrt(3))", "sqrt(-1)"))
    | st.integers(1, 10**6).map(str),
    st.sampled_from(("xx", "xy", "yx", "yy", "xy", "yx", "x", "y", "")),
).map(lambda t: t[0] + (f"{t[1]}*{t[2]}" if t[1] and t[2] else t[1] or t[2] or "1"))
relations = st.lists(terms, min_size=1, max_size=4).map(" ".join)
texts = relations | noise
deep_json = st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("P1", "P2", "alpha", "witness", "canonical",
                                       "canonical_f", "homogeneous", "linear", "constant",
                                       "relations", "precedence"))
                      | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, part in items:
        yield from _paths(part, prefix + (key,))


def _edit(value, path, op, new):
    if not path:
        return {"wrap": [value], "keep": value}.get(op, new)
    out = value.copy()
    if len(path) == 1 and op == "delete":
        del out[path[0]]
    else:
        out[path[0]] = _edit(value[path[0]], path[1:], op, new)
    return out


@st.composite
def mutated(draw, value):
    """value with one part, anywhere in it, deleted, wrapped in a list,
    replaced by random JSON, or kept."""
    path = draw(st.sampled_from(list(_paths(value))))
    op = draw(st.sampled_from(("delete", "wrap", "replace", "keep")))
    return _edit(value, path, op, draw(json_values))


SUBCOMMANDS = ("classify", "canon", "congruent", "homogenize", "classify-h",
               "stab", "qas-iso", "reduce")


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(SUBCOMMANDS))
    argv = [command, draw(texts)]
    if command in ("congruent", "stab", "qas-iso"):
        argv.append(draw(texts))
    if command == "reduce":
        argv += ["--system", draw(st.sampled_from(("u", "h_kx")) | texts)]
    digits = None
    if command not in ("stab", "qas-iso", "reduce") and draw(st.booleans()):
        digits = draw(st.integers(-20, 40) | st.integers(MAX_APPROX_DIGITS - 5, 260))
        argv += ["--digits", str(digits)]
    return argv + ["--format", draw(st.sampled_from(("text", "json")))], digits


@settings(max_examples=150)
@given(cli_calls())
def test_random_text_ends_in_an_answer_or_a_typed_error(call):
    argv, digits = call
    rc = outcome(argv)
    if digits is not None and not 0 <= digits <= MAX_APPROX_DIGITS:
        assert rc == 2


@lru_cache(maxsize=None)
def real_reports():
    docs = []
    for argv in (("canon", "xy - 2yx - 1"), ("classify", "sqrt(2)*x^2 + xy - yx + y"),
                 ("congruent", "xy - 2yx - 1", "yx - 2xy + x")):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([*argv, "--format", "json"]) == 0
        docs.append(json.loads(out.getvalue()))
    return docs


@lru_cache(maxsize=None)
def shipped_systems():
    return [load_system(name)[1] for name in available_systems()]


@st.composite
def document_texts(draw, real_documents):
    """Text of a document file, or None for a file that does not exist."""
    kind = draw(st.sampled_from(("mutated", "mutated", "mutated", "random", "deep", "text",
                                 "missing")))
    if kind == "mutated":
        return json.dumps(draw(mutated(draw(st.sampled_from(real_documents())))))
    if kind == "random":
        return json.dumps(draw(json_values))
    if kind == "deep":
        return draw(deep_json)
    return draw(texts) if kind == "text" else None


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "document.json"


def write_document(path, text):
    if text is None:
        path.unlink(missing_ok=True)
    else:
        path.write_text(text)
    return str(path)


@settings(max_examples=150)
@given(source=st.sampled_from(("xy - 2yx - 1", "sqrt(2)*x^2 + xy - yx + y")),
       text=document_texts(real_reports))
def test_report_documents_end_in_an_answer_or_a_typed_error(document, source, text):
    outcome(["verify", source, "--report", write_document(document, text)])


@settings(max_examples=300)
@given(word=st.sampled_from(("xy", "yxx", "x^3 y")), text=document_texts(shipped_systems))
def test_system_documents_end_in_an_answer_or_a_typed_error(document, word, text):
    outcome(["reduce", word, "--system", write_document(document, text)])


QAS_MATRICES = ([[1, 3], ["1/3", 1]],
                [[1, 2, -1], ["1/2", 1, "sqrt(2)"], [-1, "1/2*sqrt(2)", 1]])
qas_texts = st.one_of(
    st.sampled_from(QAS_MATRICES).flatmap(mutated).map(json.dumps),
    json_values.map(json.dumps),
    deep_json,
    texts,
)


@settings(max_examples=150)
@given(qas_texts, qas_texts | st.sampled_from(QAS_MATRICES).map(json.dumps))
def test_qas_matrices_end_in_an_answer_or_a_typed_error(left, right):
    outcome(["qas-iso", left, right])

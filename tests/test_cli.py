"""End-to-end command dispatch: exit codes, text lines, machine documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadalg.cli import main
from quadalg.polyio import (
    matrix_from_document,
    parse_poly,
    witness_from_document,
)
from quadalg.sfcanon import verify_witness
from quadalg.algebra import sf_from_poly


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

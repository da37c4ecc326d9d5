#!/usr/bin/env python3
"""Run each committed mutant of the source against the tests that must kill it.

    python3 scripts/mutants.py

Each entry of `MUTANTS` names a file under src/quadalg, the exact text to
replace (it must occur there exactly once), the text to put in its place,
and the tests to run (files or pytest node ids).  For each entry the script
copies src/, tests/ and pyproject.toml to a temporary directory, applies
that one edit, and runs `python -m pytest -q -x` on the selection there,
with PYTHONPATH set to the copy's src.  It prints `killed` when the tests
fail, `survived` when they pass and `error` when pytest ends for another
reason (collection error, no tests), then the counts.  A survivor is a gap in the tests: report it, do
not delete its entry.  The repository is not changed.  Exit status 0 when
every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "name path old new tests")

# the witness check's paths are pinned by their results and by their op
# counts (a wrong choice of path still gives the right matrix); the tower
# kernel by the decimal referee
CHECK = ("tests/test_fastpaths.py", "tests/test_op_counts.py")
KERNEL = ("tests/test_referee.py", "tests/test_fastpaths.py", "tests/test_scalar.py")
# composition and inversion of witnesses, pinned by the group laws and by
# the canonicalizer's own check of the witnesses it composes
GROUP = ("tests/test_matrix.py", "tests/test_sfcanon.py")

MUTANTS = (
    Mutant("quotient-int-int-true-division", "polyio.py",
           "return Fraction(value, rhs)", "return value / rhs",
           ("tests/test_polyio.py",)),
    Mutant("apply-rational-dn-squared", "sfcanon.py",
           "qs[14].denominator * dp * dp * dn", "qs[14].denominator * dn * dn * dp", CHECK),
    Mutant("apply-radicals-dn-squared", "sfcanon.py",
           "da * dp * dp * dn", "da * dn * dn * dp", CHECK),
    Mutant("apply-wrong-fold-slot", "sfcanon.py",
           "out(r[0][2] + r[2][0])", "out(r[0][2] + r[2][1])", CHECK),
    Mutant("radicals-mul-union-square", "sfcanon.py",
           "squares[s & t]", "squares[s | t]", CHECK),
    Mutant("radicals-add-empty-keeps-empty", "sfcanon.py",
           "return self or other", "return self and other", CHECK),
    Mutant("rational-radicands-always-true", "sfcanon.py",
           "elif rational_radicands(entries):", "elif True:", CHECK),
    Mutant("rational-radicands-always-false", "sfcanon.py",
           "elif rational_radicands(entries):", "elif False:", CHECK),
    Mutant("nested-path-drops-alpha", "sfcanon.py",
           "return x * self.scale", "return x", CHECK),
    Mutant("radical-squares-n-for-nd", "scalar.py",
           "s * r.numerator * r.denominator", "s * r.numerator", CHECK),
    Mutant("radical-terms-unscaled", "scalar.py",
           "c.denominator * dens[s]", "c.denominator", CHECK),
    Mutant("radical-scalar-unscaled", "scalar.py",
           "Fraction(x[s] * dens[s], den)", "Fraction(x[s], den)", CHECK),
    Mutant("mul-without-radicand", "scalar.py",
           "_mul(bb, tower[d].radicand, d, tower)", "bb", KERNEL),
    Mutant("inv-without-conjugate-minus", "scalar.py",
           "_neg(_mul(b, ninv, d, tower), d)", "_mul(b, ninv, d, tower)", KERNEL),
    Mutant("merge-without-sign-correction", "scalar.py",
           "t = _neg(t, depth)", "t = t", KERNEL),
    Mutant("canonical-sign-flipped", "scalar.py",
           "            return sign", "            return -sign", KERNEL),
    Mutant("reduce-resumes-at-redex", "ncrewrite.py",
           "resume = max(i - 1, 0)", "resume = i", ("tests/test_ncrewrite.py",)),
    Mutant("witness-skips-det-test", "sfcanon.py",
           "if linear.det().is_zero():", "if False:", ("tests/test_matrix.py",)),
    Mutant("witness-skips-det-test-cli", "sfcanon.py",
           "if linear.det().is_zero():", "if False:",
           ("tests/test_cli.py::TestBoundaryInputs::test_degenerate_witness_is_refused"
            "[singular-P1]",)),
    Mutant("inverse-keeps-translation-sign", "sfcanon.py",
           "_witness(inv, (-t[0], -t[1]),", "_witness(inv, t,", GROUP),
    Mutant("then-keeps-own-scale", "sfcanon.py",
           "self.scale * other.scale,", "self.scale,", GROUP),
    Mutant("canon2-orientation-test-negated", "congruence2.py",
           "if d * p / w != sigma.inverse():", "if d * p / w == sigma.inverse():",
           ("tests/test_congruence2.py", "tests/test_sfcanon.py")),
    Mutant("half-plane-imaginary-sign-flipped", "scalar.py",
           "if im - rad > 0:\n        return 1", "if im - rad > 0:\n        return -1", KERNEL),
)


def source(mutant: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "quadalg" / mutant.path


def run(mutant: Mutant) -> str:
    """killed, survived or error: the selection's verdict on one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        path = source(mutant, copy)
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    counts = {"killed": 0, "survived": 0, "error": 0}
    for mutant in MUTANTS:
        verdict = run(mutant)
        counts[verdict] += 1
        print(f"{verdict:8} {mutant.name} ({mutant.path}: {mutant.old.strip()!r} -> "
              f"{mutant.new.strip()!r})", flush=True)
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run each committed mutant of the source against the tests that must kill it.

    python3 scripts/mutants.py

Each entry of `MUTANTS` names a file under src/quadalg, the exact text to
replace (it must occur there exactly once), the text to put in its place,
and the tests to run (files or pytest node ids).  For each entry the script
copies src/, tests/ and pyproject.toml to a temporary directory, applies
that one edit, and runs `python -m pytest -q -x` on the selection there,
with PYTHONPATH set to the copy's src and the hypothesis profile `no-shrink`
of tests/conftest.py.  It prints `killed` when the tests fail, `survived`
when they pass, `timeout` when they run longer than `TIMEOUT_S` seconds
and `error` when pytest ends for another reason (collection error, no
tests), then the counts.  A survivor or a timeout is a gap in the tests:
report it, do not delete its entry.  The repository is not changed.  Exit
status 0 when every mutant is killed, 1 otherwise.

The `no-shrink` profile is the tier-1 `default` profile without the shrink
phase.  Shrinking starts only after an example has failed, and it only looks
for a smaller example that fails too; the test fails whatever it finds.  The
examples drawn before the first failure do not depend on the phase, so a
mutant is killed or survives under both profiles alike, and the run is
spared the minutes that shrinking a failure over a deep tower can take.
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

# the hypothesis profile the selections run under, and the longest a
# selection may run before its mutant counts as not killed
PROFILE = "no-shrink"
TIMEOUT_S = 300

# the witness check's paths are pinned by their results and by their op
# counts (a wrong choice of path still gives the right matrix); the tower
# kernel by the exact referee
CHECK = ("tests/test_fastpaths.py", "tests/test_op_counts.py")
KERNEL = ("tests/test_referee.py", "tests/test_fastpaths.py", "tests/test_scalar.py")
# composition and inversion of witnesses, pinned by the group laws and by
# the canonicalizer's own check of the witnesses it composes
GROUP = ("tests/test_matrix.py", "tests/test_sfcanon.py")
# canon2's branch choices, pinned by its labels and by the classes they lead to
CANON2 = ("tests/test_congruence2.py", "tests/test_sfcanon.py")
# sf_compare's checks, pinned by a canonicalization made wrong on one side
COMPARE = ("tests/test_sfcanon.py::TestOneCheck::test_every_comparison_rejects_a_bad_witness",)

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
    Mutant("mul-root-slots-swapped", "scalar.py",
           "return (_mul(b, tower[k].radicand, k, tower), a)",
           "return (a, _mul(b, tower[k].radicand, k, tower))", KERNEL),
    Mutant("transplant-admitted-root-on-low-half", "scalar.py",
           "return _add(ea, _mul_root(eb, root, td, target_tower), td)",
           "return _add(eb, _mul_root(ea, root, td, target_tower), td)", KERNEL),
    Mutant("transplant-found-root-on-low-half", "scalar.py",
           "return _add(ea, _mul(eb, root, td, target_tower), td)",
           "return _add(eb, _mul(ea, root, td, target_tower), td)", KERNEL),
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
           "if d * p / w != sigma.inverse():", "if d * p / w == sigma.inverse():", CANON2),
    Mutant("canon2-yx-test-shifted", "congruence2.py",
           "elif (k + 1).is_zero():", "elif (k - 1).is_zero():", CANON2),
    Mutant("half-plane-imaginary-sign-flipped", "scalar.py",
           "if im - rad > 0:\n        return 1", "if im - rad > 0:\n        return -1", KERNEL),
    Mutant("canon2-pfaffian-test-negated", "congruence2.py",
           "if p.is_zero():\n        dets", "if not p.is_zero():\n        dets", CANON2),
    Mutant("canon2-symmetric-det-test-negated", "congruence2.py",
           "if dets.is_zero():", "if not dets.is_zero():", CANON2),
    Mutant("canon2-symmetric-test-negated", "congruence2.py",
           "elif s.is_zero():", "elif not s.is_zero():", CANON2),
    Mutant("canon2-jordan-test-negated", "congruence2.py",
           "if k.is_zero():", "if not k.is_zero():", CANON2),
    Mutant("compare-skips-composed-check", "sfcanon.py",
           "if not verify_witness(m, n, witness):", "if False:", COMPARE),
    Mutant("compare-skips-side-checks", "sfcanon.py",
           "        _certified(m, *side_m)\n        _certified(n, *side_n)\n", "", COMPARE),
)


def source(mutant: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "quadalg" / mutant.path


def run(mutant: Mutant) -> str:
    """killed, survived, timeout or error: the selection's verdict on one
    mutant."""
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
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 f"--hypothesis-profile={PROFILE}", *mutant.tests],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    counts = {"killed": 0, "survived": 0, "timeout": 0, "error": 0}
    for mutant in MUTANTS:
        verdict = run(mutant)
        counts[verdict] += 1
        print(f"{verdict:8} {mutant.name} ({mutant.path}: {mutant.old.strip()!r} -> "
              f"{mutant.new.strip()!r})", flush=True)
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the harness: one deliberately wrong witness fails the run.

    env PYENV_VERSION=3.10.13 pyenv exec python3 bench/smoke_test.py

First the grading must accept the program's real answers on a few inputs,
so a checker that rejects everything cannot pass.  The witness check must
reject a singular P1 and a zero alpha even where the fold itself matches.
Then the scale of the first witness that `classification_report` returns
is doubled and the canon-orbit workload is run: it must exit nonzero and
print a result with "correct": false.  Exits 0 when all of these hold.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    import quadalg.polyio as polyio
    import workloads

    wl = workloads.CanonOrbit(1)
    for item in wl.items[:3]:
        wl.check(item, wl.run(item))

    # x^2 -> x^2 under P1 = diag(1, 0): the fold matches, P1 is singular
    x2 = workloads.slot_scalars(workloads.canonical_slots("X2"))
    zero = workloads.slot_scalars([0] * 7)
    cases = (({"P1": [["1", "0"], ["0", "1"]], "P2": ["0", "0"], "alpha": "1"}, x2, None),
             ({"P1": [["1", "0"], ["0", "0"]], "P2": ["0", "0"], "alpha": "1"}, x2, "singular"),
             ({"P1": [["1", "0"], ["0", "1"]], "P2": ["0", "0"], "alpha": "0"}, zero, "zero"))
    for doc, target, error in cases:
        try:
            workloads.check_witness(doc, x2, target, "smoke")
        except run.WrongVerdict as exc:
            if error is None or error not in str(exc):
                print(f"FAIL: witness {doc} rejected: {exc}")
                return 1
        else:
            if error is not None:
                print(f"FAIL: witness {doc} with a {error} entry was accepted")
                return 1

    original = polyio.classification_report
    returned = []

    def wrong_first_witness(f):
        doc = original(f)
        if not returned:
            doc["witness"]["alpha"] = f"2*({doc['witness']['alpha']})"
        returned.append(doc)
        return doc

    polyio.classification_report = wrong_first_witness
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "canon-orbit", "--seed", "1",
                             "--seconds", "1", "--trace", "0"])
    finally:
        polyio.classification_report = original
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not returned or code == 0 or result.get("correct") is not False:
        print(f"FAIL: a wrong witness did not fail the run (exit {code}, result {result})")
        return 1
    print(f"ok: the wrong witness failed the run (exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""List every `def` in src/quadalg that the program's own traffic never enters.

    python scripts/unreached.py

The traffic is replayed in this process under `sys.setprofile`: every saved
CLI call of `tests/data/cli_golden*.json` (through `quadalg.cli.main`, with
`tests/data` as the working directory, as `tests/test_golden.py` runs them),
`scripts/classify_table.py`, and the first 400 items of each workload in
`bench/workloads.py` (seed 1), each run and graded as the benchmark does
(an op that raises is a refusal and is not graded; what it entered still
counts).  Prints one line per function that was never entered, as
`file:line qualified.name`.  Code that only the tests call shows up here,
but so would code that the benchmark's tracer reaches by name
(`bench/layers.py` wraps `Scalar` methods): that must stay.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quadalg"
ITEMS_PER_WORKLOAD = 400
SEED = 1

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/


def defs_by_start():
    """(file, first line of the code object) -> qualified name, for every def."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    # a decorated function's code starts at its first decorator
                    start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), start)] = name
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

        visit(tree, "")
    return out


def replay():
    from quadalg.cli import main

    data = ROOT / "tests" / "data"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cwd = os.getcwd()
        os.chdir(data)  # report and input paths in the cases name files there
        try:
            for path in sorted(data.glob("cli_golden*.json")):
                for case in json.loads(path.read_text()):
                    main(list(case["argv"]))
        finally:
            os.chdir(cwd)
        table = runpy.run_path(str(ROOT / "scripts" / "classify_table.py"), run_name="table")
        table["main"]()

    from workloads import WORKLOADS

    for cls in WORKLOADS.values():
        wl = cls(SEED)
        wl.load()
        for item in wl.items[:ITEMS_PER_WORKLOAD]:
            try:
                result = wl.run(item)
            except Exception:  # any raise is a refusal, as in bench/run.py
                continue
            wl.check(item, result)


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        replay()
    finally:
        sys.setprofile(None)

    reached = {(code.co_filename, code.co_firstlineno) for code in entered}
    for (path, line), name in sorted(defs_by_start().items()):
        if (path, line) not in reached:
            print(f"{Path(path).relative_to(ROOT)}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

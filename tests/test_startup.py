"""Start-up contract: importing the package and its CLI loads no stdlib module
that only annotations, dataclass decorators or zip-aware resource readers
would need."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses pulls in inspect (and ast, dis, tokenize); importlib.resources
# pulls in zipfile and tempfile (and shutil, bz2, lzma); random is needed only
# by annotations, and os.path and open read the fixtures without pathlib (on
# 3.11 the interpreter has loaded both random and pathlib before the probe)
HEAVY = ("dataclasses", "typing", "importlib.resources", "inspect", "zipfile", "tempfile",
         "random", "pathlib")

PROBE = """
import json, sys
before = set(sys.modules)
import quadalg, quadalg.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_heavy_stdlib_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    added = set(json.loads(proc.stdout))
    assert "quadalg.cli" in added
    assert added.isdisjoint(HEAVY), sorted(added & set(HEAVY))


def test_fixtures_are_read_from_the_package_directory():
    import quadalg.polyio as polyio

    system_dir = Path(polyio._SYSTEM_DIR)
    assert system_dir == SRC / "quadalg" / "data" / "systems"
    assert polyio.available_systems() == tuple(
        sorted(p.stem for p in system_dir.glob("*.json"))
    )


def test_public_annotations_resolve():
    # annotations are strings until asked for; a name that the module never
    # imports (to keep start-up light) must not appear in one
    import typing

    import quadalg

    unresolved = []
    for name in dir(quadalg):
        obj = getattr(quadalg, name)
        if name.startswith("_") or not callable(obj):
            continue
        targets = [obj]
        if isinstance(obj, type):
            targets += [v for k, v in vars(obj).items()
                        if callable(v) and (k == "__init__" or not k.startswith("_"))]
        for target in targets:
            try:
                typing.get_type_hints(target)
            except NameError as exc:
                unresolved.append(f"{name}: {exc}")
    assert not unresolved

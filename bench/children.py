"""Child interpreters of the harness: set-up probes and start-up probes.

Kept apart from workloads.py so that it imports nothing from quadalg and
still works when the package cannot be imported.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

CHILD_TIMEOUT_S = 60


def spawn_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_child(argv, cwd: Path, env: dict):
    """Run one child to completion; returns (code, stdout, stderr)."""
    proc = subprocess.run(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr

"""Set-up cost in a fresh interpreter: import quadalg, load the five shipped
fixture systems and fill the lazy verified_uv_bridge() cache.

Prints one JSON line: {"setup_s": seconds, "ref_s": [three kernel times]}
or {"error": first line}.  The reference kernel (refclock.py) runs after
the timed set-up, so that its own imports are not part of it; the first of
its runs in a fresh interpreter is often slower, so the caller takes the
median of three.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
try:
    import quadalg

    for name in ("h_kx", "h_os", "h_sxx", "u", "v"):
        quadalg.load_system(name)
    quadalg.verified_uv_bridge()
except Exception as exc:  # reported as a set-up failure, without a traceback
    lines = f"{type(exc).__name__}: {exc}".strip().splitlines()
    print(json.dumps({"error": lines[0]}))
    sys.exit(3)
setup_s = time.perf_counter() - t0
from refclock import ref_time  # noqa: E402  (after the timed part)

print(json.dumps({"setup_s": setup_s, "ref_s": [ref_time() for _ in range(3)]}))

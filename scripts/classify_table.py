#!/usr/bin/env python3
"""Classify a spread of defining polynomials and print the resulting names.

For each input relation the script reports the algebra it presents, the
class of its homogenization, and the canonical form of the relation, all
computed exactly.
"""

import sys
from pathlib import Path

try:
    import quadalg  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadalg.algebra import classify, classify_h, homogenize, poly_from_sf, sf_from_poly
from quadalg.polyio import format_poly, parse_poly
from quadalg.sfcanon import sf_canonicalize

RELATIONS = [
    "xy - 2yx",
    "xy + yx",
    "xy - yx",
    "xy - 2yx - 1",
    "xy + yx - 1",
    "xy - yx - 1",
    "yx - xy + y^2",
    "yx - xy + y^2 + 1",
    "yx - xy + y",
    "yx - xy + y^2 + x",
    "x^2 + y",
    "x^2",
    "x^2 - 1",
    "yx",
    "yx - 1",
]


def main() -> int:
    rows = []
    for text in RELATIONS:
        f = parse_poly(text)
        a = classify(f)
        h = classify_h(homogenize(f))
        _, canonical, _ = sf_canonicalize(sf_from_poly(f))
        algebra = str(a) + (" [via v]" if a.via_v else "")
        rows.append((text, algebra, str(h), format_poly(poly_from_sf(canonical))))

    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    header = ("relation", "algebra", "homogenization", "canonical relation")
    widths = [max(w, len(h)) for w, h in zip(widths, header)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

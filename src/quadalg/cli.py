"""Command-line interface over the classification pipeline.

Subcommands: classify, canon, congruent, homogenize, classify-h, verify,
stab, qas-iso, reduce.  Output is plain text by default or a JSON document
with --format json; all scalar values appear in exact text form, with
decimal approximations only in text mode when --digits is set.

Exit codes: 0 on success, 1 on a domain error (degree, orientation, bad
scalar text, failed verification), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .congruence2 import Canon2Label, stab_membership
from .matrix import Mat2
from .ncrewrite import reduce as nc_reduce
from .polyio import (
    canonicalization_report,
    classification_report,
    congruence_report,
    format_poly,
    homogenize_report,
    load_system,
    matrix_from_document,
    parse_poly,
    parse_scalar,
    witness_from_document,
)
from .algebra import ENVV_BRIDGE, qas_iso, sf_from_poly
from .scalar import ScalarError, approx, enclosure_decimal
from .sfcanon import verify_witness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadalg",
        description="Classify two-generator quadratic algebras and their homogenizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, polys: int = 0) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if polys == 1:
            p.add_argument("poly", nargs="?")
            p.add_argument("--file", help="read the polynomial from a file instead")
        elif polys == 2:
            p.add_argument("poly1")
            p.add_argument("poly2")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--digits", type=int, default=0,
                       help="append decimal approximations in text mode")
        return p

    add("classify", "name the algebra presented by a degree-two relation", polys=1)
    add("canon", "canonicalize the defining matrix of a relation", polys=1)
    add("congruent", "compare two relations under sf-congruence and isomorphism", polys=2)
    add("homogenize", "homogenize a relation by a central generator", polys=1)
    add("classify-h", "name the homogenized algebra of a relation", polys=1)

    p = add("verify", "re-check the witness stored in a report", polys=1)
    p.add_argument("--report", required=True, help="JSON report produced by classify/canon")

    p = sub.add_parser("stab", help="test membership in a planar stabilizer")
    p.add_argument("label", help="canonical block label: X2, YX, JORDAN or Q(<scalar>)")
    p.add_argument("entries", help="comma-separated 2x2 entries, row major")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("qas-iso", help="compare parameter matrices up to permutation")
    p.add_argument("left", help="JSON rows; entries are integers or scalar text")
    p.add_argument("right", help="JSON rows; entries are integers or scalar text")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("reduce", help="normal form of a polynomial under a fixture system")
    p.add_argument("poly", nargs="?")
    p.add_argument("--file", help="read the polynomial from a file instead")
    p.add_argument("--system", required=True, help="fixture name or path to a system document")
    p.add_argument("--degree-bound", type=int, default=12)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _poly_text(args, attr: str = "poly") -> str:
    inline = getattr(args, attr, None)
    path = getattr(args, "file", None)
    if inline is not None and path is not None:
        raise ValueError("give the polynomial inline or with --file, not both")
    if inline is not None:
        return inline
    if path is not None:
        return Path(path).read_text().strip()
    raise ValueError("missing polynomial input")


def _emit(doc: Dict[str, object], args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines(doc):
            print(line)


def _approx_line(name: str, text: str, digits: int) -> Optional[str]:
    if digits <= 0:
        return None
    value = parse_scalar(text)
    if value.tower_depth == 0:
        return None
    return f"{name} approx: {enclosure_decimal(approx(value, digits), digits)}"


def _witness_lines(doc: Dict[str, object], digits: int) -> List[str]:
    out = [
        f"witness P1: {doc['P1']}",
        f"witness P2: {doc['P2']}",
        f"witness alpha: {doc['alpha']}",
    ]
    extra = _approx_line("witness alpha", doc["alpha"], digits)
    if extra:
        out.append(extra)
    return out


def _cmd_classify(args) -> int:
    doc = classification_report(parse_poly(_poly_text(args)))

    def lines(d):
        out = [f"algebra: {d['algebra']}"]
        if "q" in d:
            out.append(f"q: {d['q']}")
            extra = _approx_line("q", d["q"], args.digits)
            if extra:
                out.append(extra)
        out.append(f"via_v: {str(d['via_v']).lower()}")
        out.append(f"canonical_f: {d['canonical_f']}")
        out.extend(_witness_lines(d["witness"], args.digits))
        return out

    _emit(doc, args, lines)
    return 0


def _cmd_canon(args) -> int:
    doc = canonicalization_report(sf_from_poly(parse_poly(_poly_text(args))))

    def lines(d):
        out = [f"class: {d['class']}"]
        if "q" in d:
            out.append(f"q: {d['q']}")
            extra = _approx_line("q", d["q"], args.digits)
            if extra:
                out.append(extra)
        c = d["canonical"]
        out.append(f"canonical homogeneous: {c['homogeneous']}")
        out.append(f"canonical linear: {c['linear']}")
        out.append(f"canonical constant: {c['constant']}")
        out.extend(_witness_lines(d["witness"], args.digits))
        return out

    _emit(doc, args, lines)
    return 0


def _cmd_congruent(args) -> int:
    f = parse_poly(args.poly1)
    g = parse_poly(args.poly2)
    doc = congruence_report(f, g)

    def lines(d):
        if d["sf_congruent"]:
            out = ["sf-congruent; witness verified"]
            out.extend(_witness_lines(d["witness"], args.digits))
            return out
        if d["isomorphic"]:
            return ["not sf-congruent; algebras isomorphic via non-affine bridge"]
        return ["not sf-congruent; not isomorphic"]

    _emit(doc, args, lines)
    return 0


def _cmd_homogenize(args) -> int:
    """homogenize and classify-h: the same report, classify-h without the relation."""
    doc = homogenize_report(parse_poly(_poly_text(args)))

    def lines(d):
        out = [f"relation: {d['relation']}"] if args.command == "homogenize" else []
        out.append(f"h_class: {d['h_class']}")
        if "q" in d:
            out.append(f"q: {d['q']}")
        return out

    _emit(doc, args, lines)
    return 0


def _cmd_verify(args) -> int:
    report = json.loads(Path(args.report).read_text())
    source = sf_from_poly(parse_poly(_poly_text(args)))
    wdoc = report.get("witness")
    if wdoc is None or wdoc == ENVV_BRIDGE:
        raise ValueError("the report carries no affine witness to verify")
    witness = witness_from_document(wdoc)
    if "canonical" in report:
        target = matrix_from_document(report["canonical"])
    elif "canonical_f" in report:
        target = sf_from_poly(parse_poly(report["canonical_f"]))
    else:
        raise ValueError("the report carries no canonical form")
    if verify_witness(target, source, witness):
        print("witness verifies")
        return 0
    print("witness does not verify", file=sys.stderr)
    return 1


def _parse_label(text: str) -> Canon2Label:
    text = text.strip()
    if text.startswith("Q(") and text.endswith(")"):
        return Canon2Label("Q", parse_scalar(text[2:-1]))
    return Canon2Label(text)


def _cmd_stab(args) -> int:
    label = _parse_label(args.label)
    entries = [parse_scalar(t) for t in args.entries.split(",")]
    if len(entries) != 4:
        raise ValueError("expected four comma-separated entries, row major")
    member = stab_membership(label, Mat2(*entries))
    doc = {"label": str(label), "member": member}
    _emit(doc, args, lambda d: ["member" if d["member"] else "not a member"])
    return 0


def _qas_rows(text: str):
    rows = json.loads(text)
    return tuple(
        tuple(parse_scalar(x) if isinstance(x, str) else x for x in row) for row in rows
    )


def _cmd_qas_iso(args) -> int:
    ok, sigma = qas_iso(_qas_rows(args.left), _qas_rows(args.right))
    doc = {"isomorphic": ok, "permutation": list(sigma) if sigma is not None else None}

    def lines(d):
        if d["isomorphic"]:
            return [f"isomorphic via permutation {tuple(d['permutation'])}"]
        return ["not isomorphic"]

    _emit(doc, args, lines)
    return 0


def _cmd_reduce(args) -> int:
    system, _ = load_system(args.system)
    normal = nc_reduce(parse_poly(_poly_text(args)), system, args.degree_bound)
    doc = {"normal_form": format_poly(normal)}
    _emit(doc, args, lambda d: [d["normal_form"]])
    return 0


_HANDLERS = {
    "classify": _cmd_classify,
    "canon": _cmd_canon,
    "congruent": _cmd_congruent,
    "homogenize": _cmd_homogenize,
    "classify-h": _cmd_homogenize,
    "verify": _cmd_verify,
    "stab": _cmd_stab,
    "qas-iso": _cmd_qas_iso,
    "reduce": _cmd_reduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError, ScalarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import os
import sys

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
    parse_json,
    parse_poly,
    parse_scalar,
    witness_from_document,
)
from .algebra import ENVV_BRIDGE, qas_iso, sf_from_poly
from .scalar import MAX_APPROX_DIGITS, ScalarError, enclosure_decimal
from .sfcanon import verify_witness


def _digits(text: str) -> int:
    """Type of --digits: a bad value is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if value > MAX_APPROX_DIGITS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_APPROX_DIGITS}, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that builds a help formatter only to print help or a
    usage error.

    `ArgumentParser.add_argument` builds a `HelpFormatter` for every argument,
    only to check metavar tuples, which no argument here has; each one asks the
    terminal for its width, and the first imports `shutil`.  Adding through
    the parser's own argument groups skips that check.  Subparsers are built
    from this class too.
    """

    def add_argument(self, *args, **kwargs):
        optional = bool(args) and args[0][:1] in self.prefix_chars
        group = self._optionals if optional else self._positionals
        return group.add_argument(*args, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadalg",
        description="Classify two-generator quadratic algebras and their homogenizations.",
    )
    # an explicit prog keeps add_subparsers from building a formatter for it
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)

    def add(name: str, help_text: str, polys: int = 0) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if polys == 1:
            p.add_argument("poly", nargs="?")
            p.add_argument("--file", help="read the polynomial from a file instead")
        elif polys == 2:
            p.add_argument("poly1")
            p.add_argument("poly2")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--digits", type=_digits, default=0,
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


def _read_text(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror or exc}") from None


def _poly_text(args) -> str:
    inline = getattr(args, "poly", None)
    path = getattr(args, "file", None)
    if inline is not None and path is not None:
        raise ValueError("give the polynomial inline or with --file, not both")
    if inline is not None:
        return inline
    if path is not None:
        return _read_text(path).strip()
    raise ValueError("missing polynomial input")


def _emit(doc: dict[str, object], args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines(doc):
            print(line)


def _report_lines(doc: dict[str, object], digits: int) -> list[str]:
    """One `key: value` line per entry of a report document.

    A nested document prints under its key, booleans print in lower case,
    and with digits > 0 an irrational q or alpha is followed by a line with
    its decimal approximation."""
    out = []
    for key, value in doc.items():
        if isinstance(value, dict):
            out.extend(f"{key} {line}" for line in _report_lines(value, digits))
            continue
        out.append(f"{key}: {str(value).lower() if isinstance(value, bool) else value}")
        if key in ("q", "alpha") and digits > 0:
            x = parse_scalar(value)
            if x.tower_depth:
                out.append(f"{key} approx: {enclosure_decimal(x.approx(digits), digits)}")
    return out


def _cmd_classify(args) -> int:
    doc = classification_report(parse_poly(_poly_text(args)))
    _emit(doc, args, lambda d: _report_lines(d, args.digits))
    return 0


def _cmd_canon(args) -> int:
    doc = canonicalization_report(sf_from_poly(parse_poly(_poly_text(args))))
    _emit(doc, args, lambda d: _report_lines(d, args.digits))
    return 0


def _cmd_congruent(args) -> int:
    doc = congruence_report(parse_poly(args.poly1), parse_poly(args.poly2))

    def lines(d):
        if d["sf_congruent"]:
            return ["sf-congruent; witness verified"] + _report_lines(
                {"witness": d["witness"]}, args.digits
            )
        if d["isomorphic"]:
            return ["not sf-congruent; algebras isomorphic via non-affine bridge"]
        return ["not sf-congruent; not isomorphic"]

    _emit(doc, args, lines)
    return 0


def _cmd_homogenize(args) -> int:
    """homogenize and classify-h: the same report, classify-h without the
    relation; neither prints the matrix or an approximation of q."""
    doc = homogenize_report(parse_poly(_poly_text(args)))
    keys = ("relation", "h_class", "q") if args.command == "homogenize" else ("h_class", "q")
    _emit(doc, args, lambda d: _report_lines({k: d[k] for k in keys if k in d}, 0))
    return 0


def _cmd_verify(args) -> int:
    report = parse_json(_read_text(args.report), "report")
    if not isinstance(report, dict):
        raise ValueError("the report is not a JSON object")
    source = sf_from_poly(parse_poly(_poly_text(args)))
    wdoc = report.get("witness")
    if wdoc is None or wdoc == ENVV_BRIDGE:
        raise ValueError("the report carries no affine witness to verify")
    witness = witness_from_document(wdoc)
    if "canonical" in report:
        target = matrix_from_document(report["canonical"])
    elif isinstance(report.get("canonical_f"), str):
        target = sf_from_poly(parse_poly(report["canonical_f"]))
    else:
        raise ValueError("the report carries no canonical form")
    verified = verify_witness(target, source, witness)
    if verified or args.format == "json":
        _emit({"verified": verified}, args, lambda d: ["witness verifies"])
    else:
        print("witness does not verify", file=sys.stderr)
    return 0 if verified else 1


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


def _qas_entry(x):
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"matrix entries are integers or scalar text, not {x!r}")


def _qas_rows(text: str):
    rows = parse_json(text, "matrix")
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError("a parameter matrix is a JSON list of rows")
    return tuple(tuple(_qas_entry(x) for x in row) for row in rows)


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


def _run(argv: list[str] | None) -> int:
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


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # interpreter exit does not raise again, and exit 1 quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

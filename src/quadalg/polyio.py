"""Text front end: polynomial and scalar grammar, report documents, fixtures.

The grammar accepts sums of terms, a term being an optional coefficient in
scalar text (integers, fractions, sqrt(...), parenthesized sums, products)
followed by a word in x, y, z.  Letters juxtapose or join with '*', and a
letter takes an optional '^' positive power.  Printing is the inverse of
parsing with a deterministic term order: degree-descending, then
word-lexicographic.

Documents are plain dicts ready for JSON: matrices carry exact scalar text
entry by entry, witnesses carry (P1, P2, alpha), and reports bundle the
canonical data with the witness that produced it.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Dict, List, Tuple

from .algebra import (
    algebra_of_class,
    classify_h,
    homogenize,
    iso_check,
    poly_from_sf,
    sf_from_poly,
)
from .matrix import Mat2, PAffine, StdFormMatrix
from .ncrewrite import NCPoly, RewriteSystem, system_from_relations
from .scalar import Scalar, as_scalar, format_scalar, sqrt_extend
from .sfcanon import SfWitness, sf_canonicalize

__all__ = [
    "PolySyntaxError",
    "available_systems",
    "canonicalization_report",
    "classification_report",
    "congruence_report",
    "format_poly",
    "homogenize_report",
    "load_system",
    "matrix_document",
    "matrix_from_document",
    "parse_poly",
    "parse_scalar",
    "scalar_text",
    "witness_document",
    "witness_from_document",
]


class PolySyntaxError(ValueError):
    """Malformed expression text; position is the 1-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


# --- tokenizer --------------------------------------------------------------

_SYMBOLS = "+-*/^()"


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    out: List[Tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("number", int(text[i:j]), col))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append(("letters", text[i:j], col))
            i = j
        elif ch in _SYMBOLS:
            out.append((ch, ch, col))
            i += 1
        else:
            raise PolySyntaxError(f"unexpected character {ch!r}", col)
    out.append(("end", None, n + 1))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Tuple[str, object, int]:
        kind_here, _, col = self.peek()
        if kind_here != kind:
            raise PolySyntaxError(f"expected {kind!r}", col)
        return self.advance()

    # scalar grammar: expr := [+-] term {(+|-) term};  term := factor {(*|/) factor}
    def scalar_expr(self) -> Scalar:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        total = self.scalar_term() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            term = self.scalar_term()
            total = total - term if op == "-" else total + term
        return total

    def scalar_term(self) -> Scalar:
        value = self.scalar_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.scalar_factor()
            if op == "/":
                if rhs.is_zero():
                    raise ZeroDivisionError("division by zero in scalar text")
                value = value / rhs
            else:
                value = value * rhs
        return value

    def scalar_factor(self) -> Scalar:
        kind, value, col = self.peek()
        if kind == "number":
            self.advance()
            return as_scalar(value)
        if kind == "letters" and value == "sqrt":
            self.advance()
            self.expect("(")
            inner = self.scalar_expr()
            self.expect(")")
            return sqrt_extend(inner)
        if kind == "(":
            self.advance()
            inner = self.scalar_expr()
            self.expect(")")
            return inner
        if kind == "letters":
            raise PolySyntaxError("variables are not allowed here", col)
        raise PolySyntaxError("expected a number, sqrt(...) or (...)", col)

    def at_scalar_factor(self) -> bool:
        kind, value, _ = self.peek()
        if kind in ("number", "("):
            return True
        return kind == "letters" and value == "sqrt" and self.tokens[self.pos + 1][0] == "("

    # polynomial grammar: poly := [+-] term {(+|-) term}
    def poly(self) -> NCPoly:
        total = NCPoly.zero()
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        total = total + self.poly_term() * sign
        while self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
            total = total + self.poly_term() * sign
        return total

    def poly_term(self) -> NCPoly:
        coeff = Scalar.one()
        word = ""
        saw_factor = False
        while True:
            kind, value, col = self.peek()
            if kind in ("+", "-", "end", ")"):
                break
            if kind == "*":
                if not saw_factor:
                    raise PolySyntaxError("term may not start with '*'", col)
                self.advance()
                if self.peek()[0] in ("+", "-", "end", ")", "*", "/"):
                    raise PolySyntaxError("expected a factor after '*'", self.peek()[2])
                continue
            if kind == "/":
                if not saw_factor:
                    raise PolySyntaxError("term may not start with '/'", col)
                self.advance()
                if not self.at_scalar_factor():
                    raise PolySyntaxError("can only divide by a scalar", self.peek()[2])
                rhs = self.scalar_factor()
                if rhs.is_zero():
                    raise ZeroDivisionError("division by zero in scalar text")
                coeff = coeff / rhs
                saw_factor = True
                continue
            if self.at_scalar_factor():
                coeff = coeff * self.scalar_factor()
                saw_factor = True
                continue
            if kind == "letters":
                self.advance()
                for letter in value:
                    if letter not in "xyz":
                        raise PolySyntaxError(f"unknown variable {letter!r}", col)
                if self.peek()[0] == "^":
                    self.advance()
                    k_kind, k_value, k_col = self.peek()
                    if k_kind != "number" or k_value < 1:
                        raise PolySyntaxError("exponent must be a positive integer", k_col)
                    self.advance()
                    word += value[:-1] + value[-1] * k_value
                else:
                    word += value
                saw_factor = True
                continue
            raise PolySyntaxError("unexpected token in term", col)
        if not saw_factor:
            raise PolySyntaxError("empty term", self.peek()[2])
        return NCPoly.term(word, coeff)


def parse_scalar(text: str) -> Scalar:
    """Exact scalar from text: fractions, sqrt(...), sums and products."""
    p = _Parser(text)
    value = p.scalar_expr()
    kind, _, col = p.peek()
    if kind != "end":
        raise PolySyntaxError("trailing input after scalar", col)
    return value


def parse_poly(text: str) -> NCPoly:
    """Exact noncommutative polynomial in x, y, z from text."""
    p = _Parser(text)
    value = p.poly()
    kind, _, col = p.peek()
    if kind != "end":
        raise PolySyntaxError("trailing input after polynomial", col)
    return value


# --- printing ---------------------------------------------------------------


def scalar_text(s) -> str:
    return format_scalar(as_scalar(s))


def _word_text(word: str) -> str:
    pieces = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        pieces.append(word[i] if run == 1 else f"{word[i]}^{run}")
        i = j
    return "".join(pieces)


def format_poly(p: NCPoly) -> str:
    """Deterministic text: degree-descending terms, word-lexicographic ties."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms(), key=lambda item: (-len(item[0]), item[0]))
    pieces = []
    for word, coeff in items:
        text = scalar_text(coeff)
        negative = text.startswith("-")
        if negative:
            text = scalar_text(-coeff)
        multi = (" + " in text) or (" - " in text)
        if word == "":
            body = f"({text})" if multi else text
        elif text == "1":
            body = _word_text(word)
        else:
            head = f"({text})" if multi else text
            body = f"{head}*{_word_text(word)}"
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


# --- documents ---------------------------------------------------------------


def matrix_document(m: StdFormMatrix) -> Dict[str, object]:
    h = m.hom
    return {
        "homogeneous": [
            [scalar_text(h.a), scalar_text(h.b)],
            [scalar_text(h.c), scalar_text(h.d)],
        ],
        "linear": [scalar_text(m.lin[0]), scalar_text(m.lin[1])],
        "constant": scalar_text(m.const),
    }


def matrix_from_document(doc: Dict[str, object]) -> StdFormMatrix:
    (a, b), (c, d) = ((parse_scalar(x) for x in row) for row in doc["homogeneous"])
    u, v = (parse_scalar(x) for x in doc["linear"])
    return StdFormMatrix(Mat2(a, b, c, d), (u, v), parse_scalar(doc["constant"]))


def witness_document(w: SfWitness) -> Dict[str, object]:
    p1 = w.map.linear
    return {
        "P1": [
            [scalar_text(p1.a), scalar_text(p1.b)],
            [scalar_text(p1.c), scalar_text(p1.d)],
        ],
        "P2": [scalar_text(w.map.translation[0]), scalar_text(w.map.translation[1])],
        "alpha": scalar_text(w.scale),
    }


def witness_from_document(doc: Dict[str, object]) -> SfWitness:
    (a, b), (c, d) = ((parse_scalar(x) for x in row) for row in doc["P1"])
    e, f = (parse_scalar(x) for x in doc["P2"])
    return SfWitness(PAffine(Mat2(a, b, c, d), (e, f)), parse_scalar(doc["alpha"]))


def canonicalization_report(m: StdFormMatrix) -> Dict[str, object]:
    cls, canonical, w = sf_canonicalize(m)
    doc: Dict[str, object] = {"class": cls.tag}
    if cls.q is not None:
        doc["q"] = scalar_text(cls.q)
    doc["canonical"] = matrix_document(canonical)
    doc["witness"] = witness_document(w)
    return doc


def classification_report(f: NCPoly) -> Dict[str, object]:
    cls, canonical, w = sf_canonicalize(sf_from_poly(f))
    a = algebra_of_class(cls)
    doc: Dict[str, object] = {"algebra": a.tag}
    if a.q is not None:
        doc["q"] = scalar_text(a.q)
    doc["via_v"] = a.via_v
    doc["canonical_f"] = format_poly(poly_from_sf(canonical))
    doc["witness"] = witness_document(w)
    return doc


def congruence_report(f: NCPoly, g: NCPoly) -> Dict[str, object]:
    isomorphic, evidence = iso_check(f, g)
    congruent = isinstance(evidence, SfWitness)
    doc: Dict[str, object] = {"sf_congruent": congruent, "isomorphic": isomorphic}
    if congruent:
        doc["witness"] = witness_document(evidence)
    elif isomorphic:
        doc["witness"] = evidence
    return doc


def homogenize_report(f: NCPoly) -> Dict[str, object]:
    t = homogenize(f)
    h = classify_h(t)
    doc: Dict[str, object] = {
        "relation": format_poly(t.relation_poly()),
        "matrix": matrix_document(t.relation),
        "h_class": h.tag,
    }
    if h.q is not None:
        doc["q"] = scalar_text(h.q)
    return doc


# --- rewrite-system fixtures --------------------------------------------------

_SYSTEM_DIR = resources.files(__package__) / "data" / "systems"


def available_systems() -> Tuple[str, ...]:
    names = [
        entry.name[: -len(".json")]
        for entry in _SYSTEM_DIR.iterdir()
        if entry.name.endswith(".json")
    ]
    return tuple(sorted(names))


def load_system(name: str) -> Tuple[RewriteSystem, Dict[str, object]]:
    """Fixture by name (see available_systems) or by filesystem path."""
    if name in available_systems():
        text = (_SYSTEM_DIR / f"{name}.json").read_text()
    elif Path(name).is_file():
        text = Path(name).read_text()
    else:
        known = ", ".join(available_systems())
        raise ValueError(f"unknown system {name!r}; shipped fixtures: {known}")
    doc = json.loads(text)
    relations = [parse_poly(t) for t in doc["relations"]]
    return system_from_relations(relations, doc["precedence"]), doc

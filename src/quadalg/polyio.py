"""Text front end: polynomial and scalar grammar, report documents, fixtures.

The grammar accepts sums of terms, a term being an optional coefficient in
scalar text (integers, fractions, sqrt(...), parenthesized sums, products)
followed by a word in x, y, z.  Letters juxtapose or join with '*', and a
letter takes an optional '^' positive power.  Printing is the inverse of
parsing with a deterministic term order: degree-descending, then
word-lexicographic.

Documents are plain dicts ready for JSON, with exact scalar text entry by
entry.  A matrix and a witness have one shape, a 2x2 block, a pair and a
scalar, and one codec (`_document`, `_from_document`) writes and reads both,
under the names (homogeneous, linear, constant) for a matrix and (P1, P2,
alpha) for a witness.  Reading checks the block, then the pair, then the
scalar, each for existence, shape and scalar-text entries in that order, and
raises ValueError naming the entry that is wrong.  Reports bundle the
canonical data with the witness that produced it.

Fixture systems are JSON files in the package directory on disk
(data/systems), listed with os.listdir and read with open.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .algebra import (
    algebra_of_class,
    h_class_of,
    homogenize,
    iso_check,
    poly_from_sf,
    sf_from_poly,
)
from .matrix import Mat2, StdFormMatrix
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
    "parse_json",
    "parse_poly",
    "parse_scalar",
    "scalar_text",
    "witness_document",
    "witness_from_document",
]


# Input bounds: deeper nesting, larger powers or longer integers are refused
# as syntax errors instead of overflowing the recursive-descent parser,
# building huge words, or meeting the interpreter's own 4300-digit limit on
# int/str conversion (Python 3.11 and later).
MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_INT_DIGITS = 4300


class PolySyntaxError(ValueError):
    """Malformed expression text; position is the 1-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


# --- tokenizer --------------------------------------------------------------

_SYMBOLS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    out: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_INT_DIGITS:
                raise PolySyntaxError(f"integer has more than {MAX_INT_DIGITS} digits", col)
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


# A term's coefficient before its first factor; that factor replaces it
# without a product.  A parsed 1 may be this same int object, and replacing
# it is right too: 1 times a factor is the factor.
_ONE = 1


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        kind_here, _, col = self.peek()
        if kind_here != kind:
            raise PolySyntaxError(f"expected {kind!r}", col)
        return self.advance()

    # scalar grammar: expr := [+-] term {(+|-) term};  term := factor {(*|/) factor}
    # A number is an int, a quotient of two ints one Fraction (`_quotient`),
    # and the rest of rational text folds as ints and Fractions; a value
    # becomes a Scalar only at sqrt(...), and the operators then take
    # rational operands as they are.
    def scalar_expr(self) -> int | Fraction | Scalar:
        negative = False
        if self.peek()[0] in ("+", "-"):
            negative = self.advance()[0] == "-"
        total = self.scalar_term()
        if negative:
            total = -total
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            term = self.scalar_term()
            total = total - term if op == "-" else total + term
        return total

    def scalar_term(self) -> int | Fraction | Scalar:
        value = self.scalar_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.scalar_factor()
            value = _quotient(value, rhs) if op == "/" else value * rhs
        return value

    def scalar_factor(self) -> int | Fraction | Scalar:
        kind, value, col = self.peek()
        if kind == "number":
            self.advance()
            return value
        if kind == "letters" and value == "sqrt":
            self.advance()
            self.expect("(")
            inner = self.nested_expr(col)
            self.expect(")")
            return sqrt_extend(inner)
        if kind == "(":
            self.advance()
            inner = self.nested_expr(col)
            self.expect(")")
            return inner
        if kind == "letters":
            raise PolySyntaxError("variables are not allowed here", col)
        raise PolySyntaxError("expected a number, sqrt(...) or (...)", col)

    def nested_expr(self, col: int) -> int | Fraction | Scalar:
        """The scalar expression inside a parenthesis opened at col."""
        if self.depth >= MAX_NESTING:
            raise PolySyntaxError(f"parentheses nest deeper than {MAX_NESTING}", col)
        self.depth += 1
        inner = self.scalar_expr()
        self.depth -= 1
        return inner

    def at_scalar_factor(self) -> bool:
        kind, value, _ = self.peek()
        if kind in ("number", "("):
            return True
        return kind == "letters" and value == "sqrt" and self.tokens[self.pos + 1][0] == "("

    # polynomial grammar: poly := [+-] term {(+|-) term}
    # Terms add into one dict in text order.  A word whose coefficients
    # cancel leaves the dict and comes back at its end, so the term order is
    # that of a left-to-right NCPoly sum.
    def poly(self) -> NCPoly:
        terms = {}
        sign = self.peek()[0]
        while True:
            if sign in ("+", "-"):
                self.advance()
            word, coeff = self.poly_term()
            if sign == "-":
                coeff = -coeff
            if word in terms:
                coeff = terms[word] + coeff
            if coeff:
                terms[word] = coeff
            else:
                terms.pop(word, None)
            sign = self.peek()[0]
            if sign not in ("+", "-"):
                return NCPoly({w: _scalar(c) for w, c in terms.items()})

    def poly_term(self) -> tuple[str, int | Fraction | Scalar]:
        """(word, coefficient) of one term."""
        coeff = _ONE
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
                coeff = _quotient(coeff, self.scalar_factor())
                saw_factor = True
                continue
            if self.at_scalar_factor():
                factor = self.scalar_factor()
                coeff = factor if coeff is _ONE else coeff * factor
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
                    if k_value > MAX_EXPONENT:
                        raise PolySyntaxError(f"exponent exceeds {MAX_EXPONENT}", k_col)
                    self.advance()
                    word += value[:-1] + value[-1] * k_value
                else:
                    word += value
                saw_factor = True
                continue
            raise PolySyntaxError("unexpected token in term", col)
        if not saw_factor:
            raise PolySyntaxError("empty term", self.peek()[2])
        return word, coeff


def _quotient(value, rhs):
    """value / rhs for parsed values: two ints give one Fraction, never a
    float; a zero rhs raises ZeroDivisionError."""
    if not rhs:
        raise ZeroDivisionError("division by zero in scalar text")
    if value.__class__ is int and rhs.__class__ is int:
        return Fraction(value, rhs)
    return value / rhs


def _scalar(value: int | Fraction | Scalar) -> Scalar:
    """A parsed value as a Scalar; 0, 1 and -1 give the shared constants."""
    return value if value.__class__ is Scalar else Scalar.from_fraction(value)


def parse_scalar(text: str) -> Scalar:
    """Exact scalar from text: fractions, sqrt(...), sums and products."""
    p = _Parser(text)
    value = p.scalar_expr()
    kind, _, col = p.peek()
    if kind != "end":
        raise PolySyntaxError("trailing input after scalar", col)
    return _scalar(value)


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


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_INT_DIGITS:
        raise ValueError(f"a JSON integer has more than {MAX_INT_DIGITS} digits")
    return int(text)


def parse_json(text: str, what: str):
    """JSON value of a document from outside; every failure is a ValueError.

    Integers are bounded like those of scalar text, and nesting too deep for
    the decoder is refused; `what` names the document in the message.
    """
    try:
        return json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError(f"the {what} nests too deeply") from None


def _entry(doc, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"the document has no {key!r} entry")
    return doc[key]


_MATRIX_KEYS = ("homogeneous", "linear", "constant")
_WITNESS_KEYS = ("P1", "P2", "alpha")


def _document(keys, block: Mat2, pair, scalar) -> dict[str, object]:
    a, b, c, d, e, f, s = map(scalar_text, (block.a, block.b, block.c, block.d, *pair, scalar))
    return dict(zip(keys, ([[a, b], [c, d]], [e, f], s)))


def _scalars(items, key: str) -> tuple[Scalar, ...]:
    if not all(isinstance(x, str) for x in items):
        raise ValueError(f"{key} entries must be scalar text")
    return tuple(map(parse_scalar, items))


def _from_document(doc, keys) -> tuple[Mat2, tuple[Scalar, Scalar], Scalar]:
    """The block, pair and scalar of a document, read in that order; each is
    checked for existence, then shape, then scalar-text entries."""
    block_key, pair_key, scalar_key = keys
    rows = _entry(doc, block_key)
    if not (
        isinstance(rows, list)
        and len(rows) == 2
        and all(isinstance(r, list) and len(r) == 2 for r in rows)
    ):
        raise ValueError(f"{block_key} must be 2x2")
    block = Mat2(*_scalars(rows[0] + rows[1], block_key))
    pair = _entry(doc, pair_key)
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"{pair_key} must have 2 entries")
    return block, _scalars(pair, pair_key), _scalars([_entry(doc, scalar_key)], scalar_key)[0]


def matrix_document(m: StdFormMatrix) -> dict[str, object]:
    return _document(_MATRIX_KEYS, m.hom, m.lin, m.const)


def matrix_from_document(doc: dict[str, object]) -> StdFormMatrix:
    return StdFormMatrix(*_from_document(doc, _MATRIX_KEYS))


def witness_document(w: SfWitness) -> dict[str, object]:
    return _document(_WITNESS_KEYS, w.linear, w.translation, w.scale)


def witness_from_document(doc: dict[str, object]) -> SfWitness:
    return SfWitness(*_from_document(doc, _WITNESS_KEYS))


def canonicalization_report(m: StdFormMatrix) -> dict[str, object]:
    cls, canonical, w = sf_canonicalize(m)
    doc: dict[str, object] = {"class": cls.tag}
    if cls.q is not None:
        doc["q"] = scalar_text(cls.q)
    doc["canonical"] = matrix_document(canonical)
    doc["witness"] = witness_document(w)
    return doc


def classification_report(f: NCPoly) -> dict[str, object]:
    cls, canonical, w = sf_canonicalize(sf_from_poly(f))
    a = algebra_of_class(cls)
    doc: dict[str, object] = {"algebra": a.tag}
    if a.q is not None:
        doc["q"] = scalar_text(a.q)
    doc["via_v"] = a.via_v
    doc["canonical_f"] = format_poly(poly_from_sf(canonical))
    doc["witness"] = witness_document(w)
    return doc


def congruence_report(f: NCPoly, g: NCPoly) -> dict[str, object]:
    isomorphic, evidence = iso_check(f, g)
    congruent = isinstance(evidence, SfWitness)
    doc: dict[str, object] = {"sf_congruent": congruent, "isomorphic": isomorphic}
    if congruent:
        doc["witness"] = witness_document(evidence)
    elif isomorphic:
        doc["witness"] = evidence
    return doc


def homogenize_report(f: NCPoly) -> dict[str, object]:
    m = sf_from_poly(f)
    h = h_class_of(sf_canonicalize(m)[0])
    doc: dict[str, object] = {
        "relation": format_poly(homogenize(f)),
        "matrix": matrix_document(m),
        "h_class": h.tag,
    }
    if h.q is not None:
        doc["q"] = scalar_text(h.q)
    return doc


# --- rewrite-system fixtures --------------------------------------------------

_SYSTEM_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)), "data", "systems")


def available_systems() -> tuple[str, ...]:
    names = [
        entry[: -len(".json")] for entry in os.listdir(_SYSTEM_DIR) if entry.endswith(".json")
    ]
    return tuple(sorted(names))


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def load_system(name: str) -> tuple[RewriteSystem, dict[str, object]]:
    """Fixture by name (see available_systems) or by filesystem path."""
    shipped = available_systems()
    if name in shipped:
        text = _read(os.path.join(_SYSTEM_DIR, f"{name}.json"))
    else:
        try:
            text = _read(name)
        except OSError:
            known = ", ".join(shipped)
            raise ValueError(f"unknown system {name!r}; shipped fixtures: {known}") from None
    doc = parse_json(text, "system")
    texts, precedence = _entry(doc, "relations"), _entry(doc, "precedence")
    if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
        raise ValueError("relations must be a list of polynomial texts")
    if not (
        isinstance(precedence, (str, list)) and all(isinstance(c, str) for c in precedence)
    ):
        raise ValueError("precedence must be text such as 'y<x', or a list of letters")
    relations = [parse_poly(t) for t in texts]
    return system_from_relations(relations, precedence), doc

"""An exact referee for the saved witnesses that imports nothing of quadalg.

Every JSON `canon` and `classify` answer in `tests/data/cli_golden.json` and
`tests/data/cli_golden_towers.json` carries a witness (P1, P2, alpha) with
M = alpha * fold(P^T N P), where N is the defining matrix of the relation
given on the command line, M that of the canonical answer, and P the 3x3
[[P1, P2], [0, 1]].  This module reads the relation, the canonical answer
and the witness with its own parser into sympy expressions, forms each of
the seven entries of alpha * fold(P^T N P) - M, and proves it zero with
`sympy.minimal_polynomial(e, z) == z`.  With alpha doubled, every witness
must be rejected.  Square roots are sympy's principal roots, as quadalg's
are.

The parser reads sums and products of integers, `sqrt(...)`, parentheses,
`/`, `^` with a positive integer exponent and the letters x and y, a letter
joining what comes before it with or without `*`.  It refuses any other
text instead of guessing.
"""

import json
import re
from pathlib import Path

import pytest
import sympy

DATA = Path(__file__).resolve().parent / "data"
Z = sympy.Symbol("z")
# the entry of the defining matrix that multiplies each word, for the
# border vector (x, y, 1)
SLOTS = {"xx": (0, 0), "xy": (0, 1), "yx": (1, 0), "yy": (1, 1), "x": (0, 2), "y": (1, 2), "": (2, 2)}
TOKEN = re.compile(r"\s*(?:([0-9]+)|(sqrt|[xy+\-*/^()]))")


class Unreadable(ValueError):
    pass


def _tokens(text):
    out, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = TOKEN.match(text, pos)
        if m is None:
            raise Unreadable(f"cannot read {text[pos:]!r}")
        out.append(int(m[1]) if m[1] else m[2])
        pos = m.end()
    return out


def _product(p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out


def _number(p):
    if set(p) - {""}:
        raise Unreadable("a scalar was expected")
    return p.get("", sympy.Integer(0))


class _Parser:
    """Recursive descent to a polynomial: a dict from word to sympy value."""

    def __init__(self, text):
        self.toks, self.i = _tokens(text), 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise Unreadable(f"expected {expected or 'more text'}, found {tok!r}")
        self.i += 1
        return tok

    def whole(self):
        p = self.sum()
        if self.peek() is not None:
            raise Unreadable(f"unexpected {self.peek()!r}")
        return p

    def sum(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        total = {}
        while True:
            for w, c in self.term().items():
                total[w] = total.get(w, 0) + sign * c
            if self.peek() not in ("+", "-"):
                return total
            sign = 1 if self.take() == "+" else -1

    def term(self):
        p = self.power()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                p = _product(p, self.power())
            elif tok == "/":
                self.take()
                d = _number(self.power())
                if d == 0:
                    raise Unreadable("division by zero")
                p = {w: c / d for w, c in p.items()}
            elif tok in ("x", "y"):
                p = _product(p, self.power())
            else:
                return p

    def power(self):
        p = self.atom()
        if self.peek() == "^":
            self.take()
            n = self.take()
            if not isinstance(n, int) or n < 1:
                raise Unreadable(f"bad exponent {n!r}")
            q = p
            for _ in range(n - 1):
                q = _product(q, p)
            p = q
        return p

    def atom(self):
        tok = self.take()
        if isinstance(tok, int):
            return {"": sympy.Integer(tok)}
        if tok in ("x", "y"):
            return {tok: sympy.Integer(1)}
        if tok == "sqrt":
            self.take("(")
            p = {"": sympy.sqrt(_number(self.sum()))}
            self.take(")")
            return p
        if tok == "(":
            p = self.sum()
            self.take(")")
            return p
        raise Unreadable(f"unexpected {tok!r}")


def scalar(text):
    return _number(_Parser(text).whole())


def relation_matrix(text):
    n = [[sympy.Integer(0)] * 3 for _ in range(3)]
    for w, c in _Parser(text).whole().items():
        if w not in SLOTS:
            raise Unreadable(f"word {w!r} has degree above two")
        i, j = SLOTS[w]
        n[i][j] += c
    return n


def document_matrix(doc):
    (a, b), (c, d) = doc["homogeneous"]
    u, v = doc["linear"]
    return [[scalar(a), scalar(b), scalar(u)],
            [scalar(c), scalar(d), scalar(v)],
            [0, 0, scalar(doc["constant"])]]


def witness_matrix(doc):
    (a, b), (c, d) = doc["P1"]
    e, f = doc["P2"]
    return [[scalar(a), scalar(b), scalar(e)], [scalar(c), scalar(d), scalar(f)], [0, 0, 1]]


def fold(q):
    return [[q[0][0], q[0][1], q[0][2] + q[2][0]],
            [q[1][0], q[1][1], q[1][2] + q[2][1]],
            [0, 0, q[2][2]]]


def referee_accepts(n, m, p, alpha):
    """True iff alpha * fold(P^T N P) == M, entry by entry, proved exactly."""
    pt_n_p = [[sum(p[k][i] * n[k][l] * p[l][j] for k in range(3) for l in range(3))
               for j in range(3)] for i in range(3)]
    folded = fold(pt_n_p)
    return all(sympy.minimal_polynomial(alpha * folded[i][j] - m[i][j], Z) == Z
               for i, j in SLOTS.values())


ANSWERS = [case for name in ("cli_golden.json", "cli_golden_towers.json")
           for case in json.loads((DATA / name).read_text())
           if case["argv"][0] in ("canon", "classify") and "json" in case["argv"]
           and case["exit"] == 0]


def test_both_commands_are_refereed():
    assert {case["argv"][0] for case in ANSWERS} == {"canon", "classify"}


@pytest.mark.parametrize("case", ANSWERS, ids=[" ".join(c["argv"]) for c in ANSWERS])
def test_saved_witness_is_exact(case):
    doc = json.loads(case["stdout"])
    n = relation_matrix(case["argv"][1])
    if case["argv"][0] == "canon":
        m = document_matrix(doc["canonical"])
    else:
        m = relation_matrix(doc["canonical_f"])
    p, alpha = witness_matrix(doc["witness"]), scalar(doc["witness"]["alpha"])
    assert referee_accepts(n, m, p, alpha)
    assert not referee_accepts(n, m, p, 2 * alpha)


@pytest.mark.parametrize("text", [
    "", "x +", "2 ** x", "sqrt 2", "xz", "1.5", "x^0", "x^y", "1/0", "(x", "x)", "xyx",
])
def test_unreadable_text_is_refused(text):
    with pytest.raises(Unreadable):
        relation_matrix(text)

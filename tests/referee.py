"""The tests' exact referee: a text reader into sympy values and one zero test.

It imports nothing of quadalg, so what it accepts rests on sympy alone.
`scalar`, `relation_matrix`, `document_matrix` and `witness_matrix` read
printed scalars, relations and report documents.  `is_zero` decides every
question: a zero is proved with `sympy.minimal_polynomial(e, z) == z`
(after an `expand` shortcut), and a nonzero is read from `sympy.N(e, 30)`
when it is above 1e-20, else proved the same way.  `referee_accepts`
checks a witness (P1, P2, alpha): M = alpha * fold(P^T N P).

Square roots are principal, as quadalg's are.  sympy's numbers cannot tell
the side of the cut for a negative real written with complex radicals
(such as -1/2*sqrt(-sqrt(-1)) - 1/2*sqrt(-1)*sqrt(-sqrt(-1))), so a value
carries its conjugate (`Algebraic`) and `root` proves such a radicand real.

The reader takes sums and products of integers, `sqrt(...)`, parentheses,
`/`, `^` with a positive integer exponent and the letters x and y, a letter
joining what comes before it with or without `*`, and refuses other text.
"""

import operator
import re
from functools import lru_cache

import sympy

Z = sympy.Symbol("z")
NONZERO_ABOVE = sympy.Float("1e-20")
# the entry of the defining matrix that multiplies each word, for the
# border vector (x, y, 1)
SLOTS = {"xx": (0, 0), "xy": (0, 1), "yx": (1, 0), "yy": (1, 1), "x": (0, 2), "y": (1, 2), "": (2, 2)}
TOKEN = re.compile(r"\s*(?:([0-9]+)|(sqrt|[xy+\-*/^()]))")


class Unreadable(ValueError):
    pass


@lru_cache(maxsize=4096)
def is_zero(e) -> bool:
    """Exactly whether the algebraic number e is zero.  Random draws repeat
    their hard cases, so answers are kept."""
    e = sympy.sympify(e)
    if sympy.expand(e) == 0:
        return True
    if abs(sympy.N(e, 30)) > NONZERO_ABOVE:
        return False
    return sympy.minimal_polynomial(e, Z) == Z


class Algebraic:
    """An algebraic number and its complex conjugate, both sympy values.  A
    value given alone must be real."""

    __slots__ = ("value", "conjugate")

    def __init__(self, value, conjugate=None):
        self.value = sympy.sympify(value)
        self.conjugate = self.value if conjugate is None else conjugate

    def _apply(self, op, other):
        other = other if isinstance(other, Algebraic) else Algebraic(other)
        return Algebraic(op(self.value, other.value), op(self.conjugate, other.conjugate))

    def __add__(self, other):
        return self._apply(operator.add, other)

    def __sub__(self, other):
        return self._apply(operator.sub, other)

    def __mul__(self, other):
        return self._apply(operator.mul, other)

    def __truediv__(self, other):
        if is_zero(other.value):
            raise ZeroDivisionError
        return self._apply(operator.truediv, other)

    __radd__, __rmul__ = __add__, __mul__


def root(x):
    """The principal square root of an Algebraic."""
    real, imag = sympy.N(x.value, 30).as_real_imag()
    if real <= NONZERO_ABOVE and abs(imag) <= NONZERO_ABOVE:
        # at the cut sympy's numbers cannot tell its side: decide exactly
        if is_zero(x.value):
            return Algebraic(0)
        if real < 0 and is_zero(x.value - x.conjugate):
            # x is a negative real, so -x is off the cut
            return Algebraic(sympy.I * sympy.sqrt(-x.value), -sympy.I * sympy.sqrt(-x.conjugate))
    # off the cut, the conjugate of the root is the root of the conjugate
    return Algebraic(sympy.sqrt(x.value), sympy.sqrt(x.conjugate))


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
    return p.get("", Algebraic(0))


class _Parser:
    """Recursive descent to a polynomial: a dict from word to Algebraic."""

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
                try:
                    p = {w: c / d for w, c in p.items()}
                except ZeroDivisionError:
                    raise Unreadable("division by zero") from None
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
            return {"": Algebraic(tok)}
        if tok in ("x", "y"):
            return {tok: Algebraic(1)}
        if tok == "sqrt":
            self.take("(")
            p = {"": root(_number(self.sum()))}
            self.take(")")
            return p
        if tok == "(":
            p = self.sum()
            self.take(")")
            return p
        raise Unreadable(f"unexpected {tok!r}")


def scalar(text):
    return _number(_Parser(text).whole()).value


def relation_matrix(text):
    n = [[sympy.Integer(0)] * 3 for _ in range(3)]
    for w, c in _Parser(text).whole().items():
        if w not in SLOTS:
            raise Unreadable(f"word {w!r} has degree above two")
        i, j = SLOTS[w]
        n[i][j] += c.value
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


def referee_accepts(n, m, p, alpha):
    """True iff alpha * fold(P^T N P) == M, entry by entry, proved exactly.
    The fold adds the last row's first two entries to the last column's."""
    q = [[sum(p[k][i] * n[k][l] * p[l][j] for k in range(3) for l in range(3))
          for j in range(3)] for i in range(3)]
    q[0][2] += q[2][0]
    q[1][2] += q[2][1]
    return all(is_zero(alpha * q[i][j] - m[i][j]) for i, j in SLOTS.values())

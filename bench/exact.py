"""Arithmetic and answer tables the harness keeps for itself.

Inputs are generated and answers are graded here, never through the
congruence code under test (`apply_congruence`, `verify_witness`,
`orbit_sample_with_witness`), so a change to that code can neither alter
the corpus nor grade itself.  Witnesses are re-checked with a plain 3x3
product: embed, transpose, multiply, fold.  Scalars read back from the
program's text go through `quadalg.scalar`, which the check trusts as field
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence


class WrongVerdict(Exception):
    """The program returned an answer that the independent check rejects."""


# the seven slots of a standard-form matrix: x^2, xy, yx, y^2, x, y, 1
WORDS = ("xx", "xy", "yx", "yy", "x", "y", "")

CANONICAL_TAGS = (
    "X2", "X2_MINUS1", "KX", "YX", "S", "JORDAN", "JORDAN1", "VFORM",
    "UFORM", "QPLANE", "QWEYL",
)
PARAMETRIC = ("QPLANE", "QWEYL")

ALGEBRA_OF_TAG = {
    "QPLANE": "OQ", "QWEYL": "WEYL_Q", "JORDAN": "JORDAN", "JORDAN1": "JORDAN1",
    "UFORM": "U", "VFORM": "U", "KX": "KX", "X2": "RX2", "X2_MINUS1": "RX2M1",
    "YX": "RYX", "S": "S",
}


def tag_of_algebra(name: str, via_v: bool) -> str:
    """Canonical tag named by an algebra report (U splits on via_v)."""
    if name == "U":
        return "VFORM" if via_v else "UFORM"
    for tag, alg in ALGEBRA_OF_TAG.items():
        if alg == name:
            return tag
    raise ValueError(f"unknown algebra name {name!r}")


def canonical_slots(tag: str, q=None) -> tuple:
    """The seven slot values of a canonical matrix; q may be any ring value."""
    one, zero = 1, 0
    table = {
        "X2": (one, zero, zero, zero, zero, zero, zero),
        "X2_MINUS1": (one, zero, zero, zero, zero, zero, -one),
        "KX": (one, zero, zero, zero, zero, one, zero),
        "YX": (zero, zero, one, zero, zero, zero, zero),
        "S": (zero, zero, one, zero, zero, zero, -one),
        "JORDAN": (zero, -one, one, one, zero, zero, zero),
        "JORDAN1": (zero, -one, one, one, zero, zero, one),
        "VFORM": (zero, -one, one, one, one, zero, zero),
        "UFORM": (zero, -one, one, zero, zero, one, zero),
        "QPLANE": (zero, -one, q, zero, zero, zero, zero),
        "QWEYL": (zero, -one, q, zero, zero, zero, one),
    }
    return table[tag]


class Lin:
    """Rational combination of square roots of rationals: {radicand: coeff}.

    Only addition and rational scaling are needed to build orbit samples
    under rational substitutions, so no tower arithmetic is involved.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[int, Fraction]] = None):
        self.terms = {r: Fraction(c) for r, c in (terms or {}).items() if c != 0}

    @classmethod
    def of(cls, value) -> "Lin":
        return value if isinstance(value, Lin) else cls({1: Fraction(value)})

    def __add__(self, other):
        other = Lin.of(other)
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out.get(r, 0) + c
        return Lin(out)

    __radd__ = __add__

    def __neg__(self):
        return Lin({r: -c for r, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Lin({r: c * other for r, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Lin) and self.terms == other.terms

    __hash__ = None

    def text(self) -> str:
        """Scalar text the program's grammar accepts, e.g. (1/2 - 3*sqrt(2))."""
        if not self.terms:
            return "0"
        parts = []
        for r in sorted(self.terms, key=lambda r: (r != 1, abs(r), r)):
            c = self.terms[r]
            body = fraction_text(abs(c)) if r == 1 else (
                f"sqrt({r})" if abs(c) == 1 else f"{fraction_text(abs(c))}*sqrt({r})")
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return f"({out})"


def fraction_text(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def relation_text(slots: Sequence) -> str:
    """Polynomial text for seven slot values (Lin, Fraction or int)."""
    parts = []
    for word, value in zip(WORDS, slots):
        value = Lin.of(value)
        if value.is_zero():
            continue
        parts.append(value.text() + ("*" + word if word else ""))
    return " + ".join(parts) if parts else "0"


# --- the plain 3x3 product ---------------------------------------------------


def embed(slots: Sequence) -> tuple:
    a, b, c, d, u, v, n = slots
    return ((a, b, u), (c, d, v), (0, 0, n))


def embed_affine(p1: Sequence[Sequence], p2: Sequence) -> tuple:
    (a, b), (c, d) = p1
    return ((a, b, p2[0]), (c, d, p2[1]), (0, 0, 1))


def _dot(row, col):
    acc = row[0] * col[0]
    acc = acc + row[1] * col[1]
    return acc + row[2] * col[2]


def _mul3(x, y) -> tuple:
    return tuple(
        tuple(_dot(x[i], (y[0][j], y[1][j], y[2][j])) for j in range(3))
        for i in range(3)
    )


def fold_congruence(m3: tuple, p3: tuple, alpha) -> tuple:
    """Slots of alpha * fold(P^T M P): the witness relation of the library."""
    pt = tuple(tuple(p3[j][i] for j in range(3)) for i in range(3))
    r = _mul3(_mul3(pt, m3), p3)
    return (
        r[0][0] * alpha, r[0][1] * alpha, r[1][0] * alpha, r[1][1] * alpha,
        (r[0][2] + r[2][0]) * alpha, (r[1][2] + r[2][1]) * alpha, r[2][2] * alpha,
    )


# --- rewriting reference ----------------------------------------------------

# Oriented rules of the five shipped fixtures (leading word -> rest), written
# out by hand from their relations and precedences.
FIXTURE_RULES: Dict[str, Dict[str, Dict[str, Fraction]]] = {
    "u": {"xy": {"yx": Fraction(1), "y": Fraction(1)}},
    "v": {"xy": {"yx": Fraction(1), "yy": Fraction(1), "x": Fraction(1)}},
    "h_os": {"yx": {"zz": Fraction(1)}, "xz": {"zx": Fraction(1)}, "yz": {"zy": Fraction(1)}},
    "h_sxx": {"xx": {"zz": Fraction(1)}, "xz": {"zx": Fraction(1)}, "yz": {"zy": Fraction(1)}},
    "h_kx": {"yz": {"xx": Fraction(-1)}, "xz": {"zx": Fraction(1)}},
}


class ReferenceReducer:
    """Memoized leftmost-redex normal forms, collecting like terms."""

    def __init__(self, rules: Dict[str, Dict[str, Fraction]]):
        self.rules = rules
        self.memo: Dict[str, Dict[str, Fraction]] = {}

    def word(self, w: str) -> Dict[str, Fraction]:
        hit = self.memo.get(w)
        if hit is not None:
            return hit
        out: Dict[str, Fraction] = {}
        for i in range(len(w) - 1):
            rhs = self.rules.get(w[i:i + 2])
            if rhs is not None:
                for w2, c2 in rhs.items():
                    for w3, c3 in self.word(w[:i] + w2 + w[i + 2:]).items():
                        out[w3] = out.get(w3, 0) + c2 * c3
                out = {k: c for k, c in out.items() if c != 0}
                break
        else:
            out = {w: Fraction(1)}
        self.memo[w] = out
        return out

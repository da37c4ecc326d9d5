"""Bounded rewriting for noncommutative polynomials over {x, y, z}.

Polynomials are finite sums of words in the free algebra on up to three
letters with exact scalar coefficients.  A rewrite system holds its rules as
one dict from left side to right side.  The left sides are distinct words of
length two, oriented by a degree-lexicographic order with a declared letter
precedence (`orient` turns a relation into one (lhs, rhs) pair); construction
checks that every right-hand monomial is strictly below the left side, so
reduction terminates and never raises the degree.

Reducing a polynomial to zero proves it lies in the two-sided ideal spanned
by the rules' differences, for any system.  Uniqueness of normal forms needs
confluence; locally_confluent checks all length-three overlap ambiguities,
which for quadratic left sides is the complete test.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from ._value import Value
from .scalar import Scalar, as_scalar

ALPHABET = "xyz"

Word = str


class NotOrientableError(ValueError):
    pass


class DegreeBoundError(ValueError):
    pass


def _check_word(w: Word) -> Word:
    for ch in w:
        if ch not in ALPHABET:
            raise ValueError(f"letter {ch!r} is outside the alphabet {ALPHABET}")
    return w


class NCPoly(Value):
    """Immutable noncommutative polynomial: words mapped to nonzero scalars."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, object] | None = None):
        clean: dict[Word, Scalar] = {}
        if terms:
            for w, c in terms.items():
                c = as_scalar(c)
                if not c.is_zero():
                    clean[_check_word(w)] = c
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({"": 1})

    @classmethod
    def variable(cls, letter: str) -> "NCPoly":
        return cls({letter: 1})

    @classmethod
    def term(cls, word: Word, coeff=1) -> "NCPoly":
        return cls({word: coeff})

    def terms(self) -> Iterable[tuple[Word, Scalar]]:
        return self._terms.items()

    def words(self):
        return self._terms.keys()

    def coeff(self, word: Word) -> Scalar:
        return self._terms.get(word, Scalar.zero())

    def degree(self) -> int:
        """Maximal word length; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(len(w) for w in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for w, c in other._terms.items():
            if w in out:
                out[w] = out[w] + c
            else:
                out[w] = c
        return NCPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            s = as_scalar(other)
            return NCPoly({w: c * s for w, c in self._terms.items()})
        if isinstance(other, NCPoly):
            out: dict[Word, Scalar] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    w = w1 + w2
                    c = c1 * c2
                    if w in out:
                        out[w] = out[w] + c
                    else:
                        out[w] = c
            return NCPoly(out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self._terms:
            return "NCPoly(0)"
        parts = [f"{c}*{w or '1'}" for w, c in sorted(self._terms.items())]
        return "NCPoly(" + " + ".join(parts) + ")"


def _as_poly(x) -> NCPoly | type(NotImplemented):
    if isinstance(x, NCPoly):
        return x
    if isinstance(x, (Scalar, int, Fraction)):
        return NCPoly({"": x})
    return NotImplemented


# --- term order -------------------------------------------------------------


def parse_precedence(text: str | Sequence[str]) -> tuple[str, ...]:
    """Letter precedence low-to-high, accepting forms like "z<y<x"."""
    if isinstance(text, str):
        letters = tuple(part.strip() for part in text.split("<"))
    else:
        letters = tuple(text)
    if len(set(letters)) != len(letters):
        raise ValueError("precedence letters must be distinct")
    for ch in letters:
        if len(ch) != 1 or ch not in ALPHABET:
            raise ValueError(f"unknown letter {ch!r} in precedence")
    return letters


def _order_key(word: Word, rank: Mapping[str, int]):
    """Sort key of a word under the precedence `rank`: length, then letters;
    a letter the precedence leaves out raises ValueError naming it."""
    try:
        return (len(word), tuple(rank[ch] for ch in word))
    except KeyError as missing:
        raise ValueError(f"letter {missing.args[0]!r} missing from the precedence") from None


def leading_word(p: NCPoly, precedence: Sequence[str]) -> Word:
    if p.is_zero():
        raise NotOrientableError("the zero polynomial has no leading word")
    rank = {ch: i for i, ch in enumerate(parse_precedence(precedence))}
    return max(p.words(), key=lambda w: _order_key(w, rank))


# --- rewrite systems --------------------------------------------------------


class RewriteSystem(Value):
    """Rules as one dict from left side to right side, built from (lhs, rhs)
    pairs or from such a dict; the dict is not to be changed afterwards."""

    __slots__ = ("rules", "precedence")

    def __init__(self, rules: Iterable[tuple[Word, NCPoly]] | Mapping[Word, NCPoly],
                 precedence: str | Sequence[str]):
        precedence = parse_precedence(precedence)
        rank = {ch: i for i, ch in enumerate(precedence)}
        table: dict[Word, NCPoly] = {}
        for lhs, rhs in rules.items() if isinstance(rules, Mapping) else rules:
            if len(lhs) != 2:
                raise ValueError("rule left sides must be words of length 2")
            _check_word(lhs)
            if lhs in table:
                raise ValueError(f"duplicate rule for {lhs!r}")
            key = _order_key(lhs, rank)
            for w, _ in rhs.terms():
                if _order_key(w, rank) >= key:
                    raise ValueError(f"rule {lhs!r} does not dominate its right side")
            table[lhs] = rhs
        object.__setattr__(self, "rules", table)
        object.__setattr__(self, "precedence", precedence)


def orient(f: NCPoly, precedence: str | Sequence[str]) -> tuple[Word, NCPoly]:
    """Turn a relation into a rule: leading word rewrites to minus the rest."""
    precedence = parse_precedence(precedence)
    lead = leading_word(f, precedence)
    if len(lead) != 2:
        raise NotOrientableError(
            f"leading word {lead!r} is not quadratic; cannot orient"
        )
    c = f.coeff(lead)
    rest = f - NCPoly.term(lead, c)
    rhs = rest * (-c.inverse())
    return lead, rhs


def system_from_relations(
    relations: Iterable[NCPoly], precedence: str | Sequence[str]
) -> RewriteSystem:
    precedence = parse_precedence(precedence)
    return RewriteSystem((orient(f, precedence) for f in relations), precedence)


def reduce(p: NCPoly, sys: RewriteSystem, degree_bound: int) -> NCPoly:
    """Normal form: rewrite the leftmost redex of each word, exhaustively.

    Rules never raise word degree, so the bound only guards the input size.
    """
    table = sys.rules
    out: dict[Word, Scalar] = {}
    stack = list(p.terms())
    while stack:
        word, coeff = stack.pop()
        if len(word) > degree_bound:
            raise DegreeBoundError(
                f"word {word!r} exceeds the degree bound {degree_bound}"
            )
        for i in range(len(word) - 1):
            rhs = table.get(word[i : i + 2])
            if rhs is not None:
                pre, post = word[:i], word[i + 2 :]
                for w2, c2 in rhs.terms():
                    stack.append((pre + w2 + post, coeff * c2))
                break
        else:
            if word in out:
                out[word] = out[word] + coeff
            else:
                out[word] = coeff
    return NCPoly(out)


def substitute(mapping: Mapping[str, NCPoly], p: NCPoly) -> NCPoly:
    """Apply a letter-to-polynomial map homomorphically."""
    images = {}
    for letter, img in mapping.items():
        if letter not in ALPHABET:
            raise ValueError(f"unknown letter {letter!r}")
        images[letter] = _as_poly(img)
        if images[letter] is NotImplemented:
            raise TypeError(f"image of {letter!r} is not a polynomial")
    out = NCPoly.zero()
    for word, coeff in p.terms():
        prod = NCPoly.one()
        for ch in word:
            prod = prod * images.get(ch, NCPoly.variable(ch))
        out = out + prod * coeff
    return out


def locally_confluent(sys: RewriteSystem) -> bool:
    """Whether every overlap ambiguity resolves to a common normal form.

    By Bergman's diamond lemma (G. M. Bergman, "The diamond lemma for ring
    theory", Adv. Math. 29, 1978), a terminating system has unique normal
    forms exactly when all its ambiguities resolve.  Rules here terminate,
    and their left sides are distinct words of length two, so the only
    ambiguities are the overlaps abc with rules on ab and bc.  Rewriting
    never raises degree, so every word met has length at most three.
    """
    for lhs1, rhs1 in sys.rules.items():
        for lhs2, rhs2 in sys.rules.items():
            if lhs1[1] != lhs2[0]:
                continue
            left = reduce(rhs1 * NCPoly.variable(lhs2[1]), sys, 3)
            right = reduce(NCPoly.variable(lhs1[0]) * rhs2, sys, 3)
            if left != right:
                return False
    return True

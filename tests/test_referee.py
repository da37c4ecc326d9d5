"""An independent referee for Scalar: the same expression, exactly and in decimal.

Random expression trees over small rationals, with +, -, *, / and square
roots (of rational, negative and nested radicands), are evaluated twice:
exactly with Scalar, and at 60 significant digits by the evaluator below,
which uses only the standard `decimal` module and shares no code with
`quadalg.scalar` (not its balls, not its square roots, not its enclosures).
Wherever the decimal value decides a question, Scalar's zero test, its
`==` and its `approx(30)` enclosure must give the same answer.

The decimal value decides "zero" below 1e-40 and "nonzero" above 1e-20.
On these trees the rounding error stays far below the first bound, and no
nonzero value comes anywhere near the second.  A draw is skipped when the
decimal value of a radicand is nonzero but within 1e-40 of zero, or off the
negative real axis by less than 1e-40 (there the principal branch turns on
digits the evaluator cannot trust), and when Scalar refuses it with
TowerDepthError.
"""

import decimal
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, reject, settings, strategies as st

from quadalg.scalar import Scalar, TowerDepthError, sqrt_extend

CTX = decimal.Context(prec=60)
ZERO_BELOW = Fraction(1, 10 ** 40)
NONZERO_ABOVE = Fraction(1, 10 ** 20)
# decimal error allowed when checking that an enclosure holds the value
SLACK = Fraction(1, 10 ** 45)
BINARY = ("+", "-", "*", "/")

leaves = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def trees(depth):
    """Leaves are Fractions; nodes are (op, left, right) or ("sqrt", child)."""
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(BINARY), sub, sub),
        st.tuples(st.just("sqrt"), sub),
    )


# --- the decimal evaluator: complex values as (re, im) pairs of Decimals


class Ambiguous(Exception):
    """The decimal value cannot tell which square root is principal."""


def magnitude(z) -> Fraction:
    return max(abs(Fraction(z[0])), abs(Fraction(z[1])))


def dec_sqrt(z):
    """Principal square root: positive real part, or zero real part and
    nonnegative imaginary part."""
    re, im = z
    r = CTX.sqrt(CTX.add(CTX.multiply(re, re), CTX.multiply(im, im)))
    if re >= 0:
        a = CTX.sqrt(CTX.divide(CTX.add(r, re), 2))
        return a, CTX.divide(im, CTX.multiply(2, a))
    b = CTX.sqrt(CTX.divide(CTX.subtract(r, re), 2))
    if im < 0:
        b = b.copy_negate()  # exact; unary minus would round to the global context
    return CTX.divide(im, CTX.multiply(2, b)), b


def dec_eval(t):
    if isinstance(t, Fraction):
        return CTX.divide(Decimal(t.numerator), Decimal(t.denominator)), Decimal(0)
    if t[0] == "sqrt":
        z = dec_eval(t[1])
        re, im = z
        if re == 0 and im == 0:
            return z
        off_axis = abs(Fraction(im))
        if magnitude(z) < ZERO_BELOW or (re < 0 and 0 < off_axis < ZERO_BELOW):
            raise Ambiguous
        return dec_sqrt(z)
    op, (a, b), (c, d) = t[0], dec_eval(t[1]), dec_eval(t[2])
    if op == "+":
        return CTX.add(a, c), CTX.add(b, d)
    if op == "-":
        return CTX.subtract(a, c), CTX.subtract(b, d)
    if op == "*":
        return (
            CTX.subtract(CTX.multiply(a, c), CTX.multiply(b, d)),
            CTX.add(CTX.multiply(a, d), CTX.multiply(b, c)),
        )
    if magnitude((c, d)) < ZERO_BELOW:
        raise ZeroDivisionError
    den = CTX.add(CTX.multiply(c, c), CTX.multiply(d, d))
    return (
        CTX.divide(CTX.add(CTX.multiply(a, c), CTX.multiply(b, d)), den),
        CTX.divide(CTX.subtract(CTX.multiply(b, c), CTX.multiply(a, d)), den),
    )


# --- the exact evaluator


def exact_eval(t) -> Scalar:
    if isinstance(t, Fraction):
        return Scalar.from_fraction(t)
    if t[0] == "sqrt":
        return sqrt_extend(exact_eval(t[1]))
    x, y = exact_eval(t[1]), exact_eval(t[2])
    if t[0] == "+":
        return x + y
    if t[0] == "-":
        return x - y
    if t[0] == "*":
        return x * y
    return x / y


def both(t):
    """(Scalar, decimal value), or None when either side divides by zero;
    then both must.  Skipped draws are rejected."""
    try:
        z = dec_eval(t)
    except Ambiguous:
        reject()
    except ZeroDivisionError:
        z = None
    try:
        s = exact_eval(t)
    except TowerDepthError:
        reject()
    except ZeroDivisionError:
        s = None
    assert (s is None) == (z is None), f"only one side divides by zero in {t}"
    return None if s is None else (s, z)


def decided_zero(z):
    """True or False where the decimal value decides it, else None."""
    m = magnitude(z)
    if m < ZERO_BELOW:
        return True
    if m > NONZERO_ABOVE:
        return False
    return None


def pairs(t, u):
    """Pairs of trees to compare with ==.  Those after (t, u) are equal by
    algebra, or up to the sign that the principal branch settles: each
    side merges the towers of t and u a different way."""
    neg_t, neg_u = ("-", Fraction(0), t), ("-", Fraction(0), u)
    root_tu = ("sqrt", ("*", t, u))
    return [
        (t, u),
        (t, ("-", ("+", t, u), u)),
        (t, ("/", ("*", t, u), u)),
        (t, ("*", ("sqrt", t), ("sqrt", t))),
        (root_tu, ("*", ("sqrt", t), ("sqrt", u))),
        (root_tu, ("*", ("sqrt", neg_t), ("sqrt", neg_u))),
    ]


@settings(max_examples=100, deadline=None)
@given(t=trees(3), u=trees(2))
def test_scalar_agrees_with_the_decimal_referee(t, u):
    # (t + u)(t - u) - (t^2 - u^2) is zero, however t and u merge
    difference = ("-", ("*", ("+", t, u), ("-", t, u)), ("-", ("*", t, t), ("*", u, u)))
    compared = pairs(t, u)
    values = {}
    for tree in [difference] + [tree for pair in compared for tree in pair]:
        if id(tree) in values:
            continue
        value = values[id(tree)] = both(tree)
        if value is None:
            continue
        s, z = value
        zero = decided_zero(z)
        if zero is not None:
            assert s.is_zero() == zero and bool(s) != zero, (tree, s, z)
        enc = s.approx(30)
        # each coordinate lies within rad of its center: width 2*rad
        assert 2 * enc.rad < Fraction(1, 10 ** 30)
        assert abs(Fraction(z[0]) - enc.re) <= enc.rad + SLACK, (tree, s, z)
        assert abs(Fraction(z[1]) - enc.im) <= enc.rad + SLACK, (tree, s, z)
    for a, b in compared:
        if values[id(a)] is None or values[id(b)] is None:
            continue
        (s, z), (s2, z2) = values[id(a)], values[id(b)]
        equal = decided_zero((CTX.subtract(z[0], z2[0]), CTX.subtract(z[1], z2[1])))
        if equal is None:
            continue
        try:
            same = (s == s2, s2 == s, (s - s2).is_zero())
        except TowerDepthError:
            reject()
        assert same == (equal, equal, equal), (a, b, s, s2)

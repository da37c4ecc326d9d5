"""Scalar against the exact referee of `referee.py`, on random expressions.

Random expression trees over small rationals, with +, -, *, / and square
roots (of rational, negative and nested radicands), are evaluated with
Scalar and with the referee's sympy values and principal `root`.  A
division must raise ZeroDivisionError on both sides or neither.  Each
Scalar result must print text that the referee reads back to a value
proved equal to the tree's; its `is_zero`, `bool` and `==` must agree with
the referee's; and its `approx(30)` enclosure must hold `sympy.N` of the
value at 50 digits.  Only draws that Scalar refuses with TowerDepthError
are skipped.  The sample is fixed (`derandomize`), since a few draws cost
sympy seconds; it kills every tower-kernel mutant in `scripts/mutants.py`.
"""

import operator
from fractions import Fraction

import sympy
from hypothesis import given, reject, settings, strategies as st

from quadalg.scalar import Scalar, TowerDepthError, format_scalar, sqrt_extend
from referee import Algebraic, is_zero, root, scalar

# error of sympy.N at 50 digits allowed when checking that an enclosure
# holds the value
SLACK = Fraction(1, 10 ** 45)
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

leaves = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def trees(depth):
    """Leaves are Fractions; nodes are (op, left, right) or ("sqrt", child)."""
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(tuple(BINARY)), sub, sub),
        st.tuples(st.just("sqrt"), sub),
    )


def evaluate(t, leaf, root):
    """The tree's value from `leaf` of each Fraction and `root` of each
    radicand."""
    if isinstance(t, Fraction):
        return leaf(t)
    if t[0] == "sqrt":
        return root(evaluate(t[1], leaf, root))
    return BINARY[t[0]](evaluate(t[1], leaf, root), evaluate(t[2], leaf, root))


def both(t):
    """(Scalar, sympy value), or None when either side divides by zero;
    then both must."""
    try:
        e = evaluate(t, lambda f: Algebraic(sympy.Rational(f)), root).value
    except ZeroDivisionError:
        e = None
    try:
        s = evaluate(t, Scalar.from_fraction, sqrt_extend)
    except TowerDepthError:
        reject()
    except ZeroDivisionError:
        s = None
    assert (s is None) == (e is None), f"only one side divides by zero in {t}"
    return None if s is None else (s, e)


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


@settings(max_examples=60, derandomize=True)
@given(t=trees(3), u=trees(2))
def test_scalar_agrees_with_the_exact_referee(t, u):
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
        s, e = value
        read = scalar(format_scalar(s))
        assert is_zero(read - e), (tree, s, e)
        # the read-back value is e, and its flat form is cheaper to decide
        values[id(tree)] = s, read
        zero = is_zero(read)
        assert s.is_zero() == zero and bool(s) != zero, (tree, s, e)
        enc = s.approx(30)
        # each coordinate lies within rad of its center: width 2*rad
        assert 2 * enc.rad < Fraction(1, 10 ** 30)
        re, im = sympy.N(e, 50).as_real_imag()
        assert abs(Fraction(sympy.Rational(re)) - enc.re) <= enc.rad + SLACK, (tree, s, e)
        assert abs(Fraction(sympy.Rational(im)) - enc.im) <= enc.rad + SLACK, (tree, s, e)
    for a, b in compared:
        if values[id(a)] is None or values[id(b)] is None:
            continue
        (s, r), (s2, r2) = values[id(a)], values[id(b)]
        equal = is_zero(r - r2)
        try:
            same = (s == s2, s2 == s, (s - s2).is_zero())
        except TowerDepthError:
            reject()
        assert same == (equal, equal, equal), (a, b, s, s2)

"""Exact scalar arithmetic: field laws, square roots, enclosures."""

import sys
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import quadalg.scalar as scalar_module
from quadalg.scalar import (
    MAX_TOWER_DEPTH,
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    ScalarError,
    TowerDepthError,
    as_scalar,
    format_scalar,
    on_one_tower,
    sqrt_extend,
)


def frac(n, d=1):
    return Scalar.from_fraction(Fraction(n, d))


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def scalars_depth1(draw_frac):
    """Strategy for elements of Q(sqrt(2)) built from rational parts."""
    return st.builds(
        lambda a, b: as_scalar(a) + as_scalar(b) * sqrt_extend(frac(2)),
        draw_frac,
        draw_frac,
    )


class TestRationalLayer:
    def test_construction_and_equality(self):
        assert frac(3, 6) == frac(1, 2)
        assert frac(3, 6) == Fraction(1, 2)
        assert frac(5) == 5
        assert frac(5) != 4
        # a whole -1, 0 or 1 gives the shared constant
        assert Scalar.from_fraction(Fraction(-2, 2)) is MINUS_ONE
        assert Scalar.from_fraction(0) is ZERO
        assert frac(3, 3) is ONE

    def test_field_ops(self):
        a, b = frac(2, 3), frac(5, 7)
        assert a + b == Fraction(29, 21)
        assert a * b == Fraction(10, 21)
        assert a - b == Fraction(-1, 21)
        assert a / b == Fraction(14, 15)
        assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            frac(1) / frac(0)
        with pytest.raises(ZeroDivisionError):
            frac(0).inverse()

    def test_as_fraction(self):
        assert frac(7, 2).as_fraction() == Fraction(7, 2)
        r = sqrt_extend(frac(2))
        assert r.as_fraction() is None
        # trimming: r - r collapses back to a rational representation
        assert (r - r).as_fraction() == 0


class TestSquareRoots:
    def test_rational_square_stays_rational(self):
        r = sqrt_extend(frac(9, 4))
        assert r.tower_depth == 0
        assert r == Fraction(3, 2)

    def test_sqrt_of_zero(self):
        assert sqrt_extend(frac(0)) == 0

    def test_sqrt2_squared(self):
        r = sqrt_extend(frac(2))
        assert r.tower_depth == 1
        assert r * r == 2
        assert (r + 1) * (r - 1) == 1

    def test_negative_radicand_gives_imaginary_root(self):
        i = sqrt_extend(frac(-1))
        assert i * i == -1
        enc = i.approx(20)
        assert enc.im_low > 0

    def test_canonical_branch_positive(self):
        enc = sqrt_extend(frac(2)).approx(20)
        assert enc.re_low > 0

    def test_nested_root_recognized_in_tower(self):
        # (1 + sqrt(2))^2 = 3 + 2 sqrt(2): the root is found without a new level
        r2 = sqrt_extend(frac(2))
        s = as_scalar(3) + 2 * r2
        root = sqrt_extend(s)
        assert root.tower_depth == 1
        assert root == 1 + r2

    def test_rational_arithmetic_oracle(self):
        # (1 + sqrt 2) / (3 - sqrt 2) = (5 + 4 sqrt 2) / 7
        r2 = sqrt_extend(frac(2))
        lhs = (1 + r2) / (3 - r2)
        assert lhs == (5 + 4 * r2) / 7

    def test_independent_roots_stack(self):
        r2 = sqrt_extend(frac(2))
        r3 = sqrt_extend(frac(3))
        prod = r2 * r3
        assert prod * prod == 6
        r6 = sqrt_extend(frac(6))
        assert r6 * r6 == 6
        assert (prod - r6) * (prod + r6) == 0
        # sqrt 6 and sqrt 2 * sqrt 3 are both canonical positive roots
        assert prod == r6

    def test_depth_budget_enforced(self):
        s = frac(2)
        for _ in range(MAX_TOWER_DEPTH):
            s = sqrt_extend(s + 1)
        with pytest.raises(TowerDepthError):
            sqrt_extend(s + 1)

    def test_sqrt_idempotent_across_representations(self):
        # structurally different but equal inputs give equal roots
        r2 = sqrt_extend(frac(2))
        a = sqrt_extend(as_scalar(3) + 2 * r2 - 2 * r2)  # rational 3 in a tower
        b = sqrt_extend(frac(3))
        assert a == b


class TestMixedTowers:
    def test_cross_tower_addition(self):
        r2 = sqrt_extend(frac(2))
        r3 = sqrt_extend(frac(3))
        s = r2 + r3
        assert s * s == 5 + 2 * (r2 * r3)

    def test_cross_tower_comparison(self):
        r2a = sqrt_extend(frac(2))
        r2b = sqrt_extend(frac(8)) / 2
        assert r2a == r2b

    def test_merge_reuses_shared_level(self):
        r2 = sqrt_extend(frac(2))
        a = 1 + r2
        b = sqrt_extend(frac(2)) - 1  # a fresh tower for the same radicand
        assert (a + b).tower_depth <= 1
        assert a + b == 2 * r2

    def test_imaginary_cross_tower(self):
        i = sqrt_extend(frac(-1))
        r2 = sqrt_extend(frac(2))
        z = (i + r2) * (i - r2)
        assert z == -3


class TestSparseProducts:
    """Tower elements are sparse: sqrt(2)*sqrt(3) at depth 2 has one nonzero
    leaf of four, and the leaf products skip the zero leaves."""

    @pytest.mark.parametrize("build, value, text", [
        (lambda r2, r3, r5: (1 + r2) * (1 - r2), -1, "-1"),
        (lambda r2, r3, r5: (3 * r2) * (r2 + 1), None, "6 + 3*sqrt(2)"),
        (lambda r2, r3, r5: r2 * r3, None, "sqrt(2)*sqrt(3)"),
        (lambda r2, r3, r5: (r2 + r3) * (r2 - r3), -1, "-1"),
        (lambda r2, r3, r5: (r2 + r3) * (r2 + r3), None, "5 + 2*sqrt(2)*sqrt(3)"),
        (lambda r2, r3, r5: r2 * r3 * r5, None, "sqrt(2)*sqrt(3)*sqrt(5)"),
        (lambda r2, r3, r5: (r2 * r3 * r5) * (r2 * r3 * r5), 30, "30"),
        (lambda r2, r3, r5: (r2 + r3 + r5) * (r2 + r3 - r5), None,
         "2*sqrt(2)*sqrt(3)"),
        (lambda r2, r3, r5: (r2 * r3 * r5) / r5, None, "sqrt(2)*sqrt(3)"),
    ])
    def test_identities_and_text(self, build, value, text):
        r2, r3, r5 = (sqrt_extend(frac(k)) for k in (2, 3, 5))
        product = build(r2, r3, r5)
        if value is not None:
            assert product == value
            assert product.tower_depth == 0
        assert format_scalar(product) == text

    def test_nested_and_imaginary_roots(self):
        n = sqrt_extend(1 + sqrt_extend(frac(2)))
        r3, i = sqrt_extend(frac(3)), sqrt_extend(frac(-1))
        assert format_scalar(n * n) == "1 + sqrt(2)"
        z = n * r3 * i
        assert z.tower_depth == 4
        assert format_scalar(z) == "sqrt(1 + sqrt(2))*sqrt(3)*sqrt(-1)"
        assert format_scalar(z * z) == "-3 - 3*sqrt(2)"

    def test_zero_leaf_is_its_own_product(self):
        zero, x = Fraction(0), Fraction(3, 7)
        with mock.patch.object(Fraction, "__mul__") as fraction_mul:
            assert scalar_module._mul(zero, x, 0, ()) is zero
            assert scalar_module._mul(x, zero, 0, ()) is zero
        fraction_mul.assert_not_called()

    def test_tower_products_multiply_no_zero_leaf(self):
        r2, r3, r5 = (sqrt_extend(frac(k)) for k in (2, 3, 5))
        x, y = r2 * r3 + 1, r5 - r2
        fraction_mul = Fraction.__mul__
        leaf_products = []

        def recorded(a, b):
            if sys._getframe(1).f_code.co_name == "_mul":
                leaf_products.append((a, b))
            return fraction_mul(a, b)

        with mock.patch.object(Fraction, "__mul__", recorded):
            product = x * y
        assert product == r2 * r3 * r5 + r5 - 2 * r3 - r2
        assert leaf_products
        assert all(a and b for a, b in leaf_products), leaf_products


def nest(leaves):
    """The element whose depth-0 slots are `leaves`, 2**depth of them."""
    while len(leaves) > 1:
        leaves = [(leaves[i], leaves[i + 1]) for i in range(0, len(leaves), 2)]
    return leaves[0]


def transplant_by_product(e, depth, maps, tower):
    """Reference transplant by the general product: ea + eb * root at the
    target's full depth, with an admitted level k of `maps` written as the
    element sqrt(r_k) there (a found root is an element there already)."""
    td = len(tower)
    roots = []
    for m in maps:
        if m.__class__ is int:
            root = (scalar_module._zero(m), scalar_module._lift(Fraction(1), 0, m))
            m = scalar_module._lift(root, m + 1, td)
        roots.append(m)

    def carry(e, depth):
        if depth == 0:
            return scalar_module._lift(e, 0, td)
        a, b = e
        eb = scalar_module._mul(carry(b, depth - 1), roots[depth - 1], td, tower)
        return scalar_module._add(carry(a, depth - 1), eb, td)

    return carry(e, depth)


scales = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
signs = st.sampled_from([1, -1])


@st.composite
def over(draw, root):
    """An element over root's tower with a nonzero top leaf, so that it keeps
    the whole tower."""
    depth = root.tower_depth
    leaves = draw(st.lists(small_fractions, min_size=2 ** depth - 1,
                           max_size=2 ** depth - 1))
    return Scalar(root._tower, nest(leaves + [draw(nonzero_fractions)]))


@st.composite
def merge_cases(draw):
    """x over sqrt(+-2 s^2), maybe with a nested level sqrt(c + d*sqrt(..))
    on top, and y over sqrt(+-2 t^2), sqrt(+-3 u^2), maybe with a nested
    level on top: merging y's tower into x's finds y's first root inside it
    and admits a level for its second."""
    sign = draw(signs)
    ra = sqrt_extend(frac(2 * sign) * draw(scales) ** 2)
    if draw(st.booleans()):
        ra = sqrt_extend(draw(nonzero_fractions) + draw(nonzero_fractions) * ra)
    rb = sqrt_extend(frac(2 * sign) * draw(scales) ** 2)
    rb = rb * sqrt_extend(frac(3 * draw(signs)) * draw(scales) ** 2)
    if draw(st.booleans()):
        rb = sqrt_extend(draw(nonzero_fractions) + draw(nonzero_fractions) * rb)
    return draw(over(ra)), draw(over(rb))


class TestTowerMerges:
    """A merge carries values over by placement: a level it admits for a
    root is recorded by its index, and multiplying by that root moves slots
    instead of taking a full-depth product."""

    @settings(max_examples=40, deadline=None)
    @given(case=merge_cases())
    def test_placement_equals_the_general_product(self, case):
        x, y = case
        tower, maps = scalar_module._merge_towers(x._tower, y._tower)
        assume(any(m.__class__ is int for m in maps))
        assert any(m.__class__ is not int for m in maps)
        placed = scalar_module._transplant(y._elt, y.tower_depth, maps, tower)
        product = transplant_by_product(y._elt, y.tower_depth, maps, tower)
        assert placed == product
        placed, product = Scalar(tower, placed), Scalar(tower, product)
        assert format_scalar(placed) == format_scalar(product)
        assert placed.approx(30) == product.approx(30)
        # the public paths that merge: on_one_tower and an op on both values
        lifted = on_one_tower([x, y])
        assert lifted[0] is x
        assert lifted[1]._elt == product._elt
        assert format_scalar(lifted[1]) == format_scalar(product)
        ex = scalar_module._lift(x._elt, x.tower_depth, len(tower))
        total = Scalar(tower, scalar_module._add(ex, product._elt, len(tower)))
        assert format_scalar(x + y) == format_scalar(total)
        assert (x + y).approx(30) == total.approx(30)

    def test_admitted_root_takes_no_full_depth_product(self):
        x = 1 + sqrt_extend(frac(2))
        y = 2 - sqrt_extend(frac(3))
        mul = scalar_module._mul
        depths = []

        def recorded(a, b, depth, tower):
            depths.append(depth)
            return mul(a, b, depth, tower)

        with mock.patch.object(scalar_module, "_mul", recorded):
            total = x + y
            lifted = on_one_tower([x, y])
        assert format_scalar(total) == "3 + sqrt(2) - sqrt(3)"
        assert [v.tower_depth for v in lifted] == [1, 2]
        assert format_scalar(lifted[1]) == "2 - sqrt(3)"
        assert 2 not in depths, depths


class TestEnclosures:
    def test_enclosure_width(self):
        r2 = sqrt_extend(frac(2))
        enc = r2.approx(50)
        assert enc.re_high - enc.re_low < Fraction(1, 10 ** 50)
        assert enc.im_low <= 0 <= enc.im_high

    def test_enclosure_contains_truth(self):
        # 1.41421356237309504880168872420969807856967187537694...
        r2 = sqrt_extend(frac(2))
        enc = r2.approx(40)
        truth = Fraction(14142135623730950488016887242096980785696, 10 ** 40)
        slack = Fraction(1, 10 ** 39)
        assert truth - slack <= enc.re_low <= truth + slack
        assert truth - slack <= enc.re_high <= truth + slack

    def test_nonzero_scalars_exclude_zero(self):
        r2 = sqrt_extend(frac(2))
        r3 = sqrt_extend(frac(3))
        s = r2 * r3 - sqrt_extend(frac(6)) + Fraction(1, 10 ** 30)
        assert not s.is_zero()
        # s is 1e-30 and real: the 100-digit enclosure lies right of zero
        enc = s.approx(100)
        assert 0 < enc.re_low <= Fraction(1, 10 ** 30) <= enc.re_high
        assert enc.im_low <= 0 <= enc.im_high

    def test_refinement_stops_at_the_precision_cap(self, monkeypatch):
        # sqrt(2) minus its 100-digit floor is about 1e-100: telling its sign
        # takes more digits than the first enclosures carry
        floor = Fraction(isqrt(2 * 10 ** 200), 10 ** 100)
        s = sqrt_extend(frac(2)) - floor
        square = s * s
        assert sqrt_extend(square) == s
        monkeypatch.setattr(scalar_module, "MAX_ENCLOSURE_DIGITS", 32)
        with pytest.raises(ScalarError, match="more than 32 digits"):
            sqrt_extend(square)

    def test_ladder_doubles_from_its_start(self):
        ladder = scalar_module._ladder(30)
        assert [next(ladder) for _ in range(3)] == [30, 60, 120]

    def test_ladder_refuses_to_double_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(scalar_module, "MAX_ENCLOSURE_DIGITS", 100)
        ladder = scalar_module._ladder(30)
        assert [next(ladder), next(ladder)] == [30, 60]
        message = "deciding an enclosure needs more than 100 digits"
        with pytest.raises(ScalarError, match=message):
            next(ladder)

    def test_ladder_tries_a_start_above_the_cap(self, monkeypatch):
        # as a refinement loop tries its first precision before any doubling
        monkeypatch.setattr(scalar_module, "MAX_ENCLOSURE_DIGITS", 100)
        ladder = scalar_module._ladder(105)
        assert next(ladder) == 105
        with pytest.raises(ScalarError, match="more than 100 digits"):
            next(ladder)

    def test_zero_never_escapes_enclosure(self):
        r2 = sqrt_extend(frac(2))
        z = (r2 + 1) * (r2 - 1) - 1
        assert z.is_zero()
        enc = z.approx(30)
        assert enc.re_low <= 0 <= enc.re_high
        assert enc.im_low <= 0 <= enc.im_high


class TestFormatting:
    def test_rational_text(self):
        assert format_scalar(frac(-3, 4)) == "-3/4"
        assert format_scalar(frac(0)) == "0"
        assert format_scalar(frac(7)) == "7"

    def test_root_text(self):
        r2 = sqrt_extend(frac(2))
        assert format_scalar(r2) == "sqrt(2)"
        assert format_scalar(1 + r2) == "1 + sqrt(2)"
        assert format_scalar(1 - 2 * r2) == "1 - 2*sqrt(2)"
        assert format_scalar(-r2) == "-sqrt(2)"

    def test_nested_root_text(self):
        r = sqrt_extend(1 + sqrt_extend(frac(2)))
        assert format_scalar(r) == "sqrt(1 + sqrt(2))"


@settings(max_examples=60, deadline=None)
@given(a=small_fractions, b=small_fractions, c=small_fractions, d=small_fractions)
def test_field_axioms_in_extension(a, b, c, d):
    r2 = sqrt_extend(frac(2))
    x = as_scalar(a) + as_scalar(b) * r2
    y = as_scalar(c) + as_scalar(d) * r2
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    assert (x - y) + y == x
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=40, deadline=None)
@given(q=st.fractions(min_value=1, max_value=50, max_denominator=20))
def test_sqrt_squares_back(q):
    s = frac(q.numerator, q.denominator)
    r = sqrt_extend(s)
    assert r * r == s
    assert r.approx(20).re_low >= 0


@settings(max_examples=40, deadline=None)
@given(q=st.fractions(min_value=-50, max_value=-1, max_denominator=20))
def test_sqrt_negative_squares_back(q):
    s = frac(q.numerator, q.denominator)
    r = sqrt_extend(s)
    assert r * r == s
    assert r.approx(20).im_low >= 0


# Every tower root is the principal square root of its radicand: positive
# real part, or zero real part and positive imaginary part.

nonzero_fractions = small_fractions.filter(bool)


@st.composite
def radicands(draw):
    """A rational radicand of either sign, or a nested one p + q*sqrt(r)."""
    p = draw(nonzero_fractions)
    if draw(st.booleans()):
        return frac(p.numerator, p.denominator)
    q, r = draw(nonzero_fractions), draw(nonzero_fractions)
    return as_scalar(p) + as_scalar(q) * sqrt_extend(as_scalar(r))


def in_principal_half_plane(enc):
    if enc.re_low > 0:
        return True
    return enc.re_low <= 0 <= enc.re_high and enc.im_low > 0


@settings(max_examples=60, deadline=None)
@given(x=radicands())
def test_sqrt_is_the_principal_root(x):
    r = sqrt_extend(x)
    assert r * r == x
    # p + q*sqrt(r) is zero when r is a square and p = -q*sqrt(r); zero is
    # its own root, every other root lies in the principal half-plane
    assert r.is_zero() if x.is_zero() else in_principal_half_plane(r.approx(30))


@settings(max_examples=40, deadline=None)
@given(a=nonzero_fractions, b=nonzero_fractions, c=small_fractions, d=small_fractions)
def test_tower_order_does_not_change_values(a, b, c, d):
    ra, rb = sqrt_extend(as_scalar(a)), sqrt_extend(as_scalar(b))
    a_first = (c + ra) * (d + rb) + ra * rb
    rb, ra = sqrt_extend(as_scalar(b)), sqrt_extend(as_scalar(a))
    b_first = rb * ra + (d + rb) * (c + ra)
    assert a_first == b_first
    assert a_first - b_first == 0


@settings(max_examples=30, deadline=None)
@given(x=radicands(), b=nonzero_fractions, c=small_fractions)
def test_enclosures_do_not_depend_on_history(x, b, c):
    s = sqrt_extend(x) + c
    before = s.approx(30)
    other = sqrt_extend(as_scalar(b))
    assert (s + other) - other == s
    assert (s * other) * other == s * b
    s.approx(60)
    assert s.approx(30) == before


def test_branch_is_the_same_at_every_precision():
    # the radicand -1 - eps*i has a real part near 1e-46 in its root, below
    # what the 30-digit enclosure can tell from zero; the branch that the
    # first enclosures settle must not flip when more digits are asked for
    i = sqrt_extend(frac(-1))
    eps = sqrt_extend(frac(2)) - Fraction(isqrt(2 * 10 ** 90), 10 ** 45)
    r = sqrt_extend(-1 - eps * i)
    assert r * r == -1 - eps * i
    signs = {r.approx(digits).im_low > 0 for digits in (10, 40, 80, 150)}
    assert len(signs) == 1

"""Fast paths pinned to the generic code they replace.

Scalars are drawn at tower depth 0-2 from combinations of sqrt(2), sqrt(3),
sqrt(-1) and the nested sqrt(1 + sqrt(2)).  Two depth-0 operands must give
what their Fractions give; a rational operand of +, -, * and / must give the
same tower and the same element as lifting it and running the generic
arithmetic under the public, normalising constructor; the one evaluation of
the congruence action, `SfWitness.apply`, which lifts its entries onto one
tower, must equal the plain 3x3 product; the witness checker must not
depend on the canonicalizer's composition of stages at all; and an operand
that is one of the shared constants 0, 1 and -1 must give what an equal,
unshared value gives.

Lists of depth 0-3 scalars, products of those roots taken in any order and
so over differently ordered towers, pin `on_one_tower` to the values it was
given; the witness checker, which lifts its entries with it, must accept
the witness of every such orbit sample and reject a wrong one.  On rational
entries the checker multiplies integer matrices instead: it must equal the
plain product on random rationals, large denominators and cancelling
entries included, and build no Mat3.  On towers whose radicands are all
rational (2, 3, 5, -1, -3, -4, 1/2, 3/4 and 6, at depth 1-3, with merges
that find a root inside the tower) it multiplies integer combinations of
products of roots: it must equal the plain product there too, irrational
alpha included, build no Mat3, and reject a rescaled or perturbed witness
without the canonicalizer's composition.  A check over a nested radicand,
sqrt(1 + sqrt(2)), multiplies Scalars lifted onto one tower and builds no
Mat3 either, with alpha on another tower multiplied in after the fold.
"""

import operator
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import quadalg.scalar as scalar
import quadalg.sfcanon as sfcanon
from quadalg.matrix import Mat2, Mat3, StdFormMatrix, coeffs_from_matrix, sf_map
from quadalg.scalar import (
    Scalar,
    _add,
    _inv,
    _is_prefix,
    _mul,
    _neg,
    _sub,
    as_scalar,
    format_scalar,
    on_one_tower,
    sqrt_extend,
)
from quadalg.sfcanon import (
    CanonicalClass,
    SfWitness,
    canonical_matrix,
    orbit_sample_with_witness,
    sf_canonicalize,
    verify_witness,
)

ROOTS = (sqrt_extend(2), sqrt_extend(3), sqrt_extend(-1))
small = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)
coefficients = st.tuples(small, small, small, small)
nonzero_coefficients = coefficients.filter(any)


def basis(r, s):
    """r, s and r s over the one tower Q(r)(s), so sums of them never merge."""
    rs = r * s
    return r, rs * r.inverse(), rs


BASES = [basis(r, s) for r in ROOTS for s in ROOTS if r is not s]
bases = st.sampled_from(BASES)


def combine(base, coeffs):
    """c0 + c1 r + c2 s + c3 r s: a scalar at depth 0-2."""
    r, s, rs = base
    c0, c1, c2, c3 = coeffs
    return c0 + c1 * r + c2 * s + c3 * rs


tower_scalars = st.builds(combine, bases, coefficients)
NESTED = basis(ROOTS[0], sqrt_extend(1 + ROOTS[0]))
operands = tower_scalars | st.builds(combine, st.just(NESTED), coefficients)

fractions = st.one_of(
    small,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**12)),
)
exact_rationals = st.one_of(
    st.integers(min_value=-5, max_value=5), st.integers(-(10**30), 10**30), fractions
)
rationals = exact_rationals | fractions.map(as_scalar)

GENERIC = {
    operator.add: lambda x, y, depth, tower: _add(x, y, depth),
    operator.sub: lambda x, y, depth, tower: _sub(x, y, depth),
    operator.mul: _mul,
    operator.truediv: lambda x, y, depth, tower: _mul(x, _inv(y, depth, tower), depth, tower),
}


def generic(op, a, b):
    """Lift both operands to a common tower, then run the generic kernel."""
    a = as_scalar(a)
    tower, x, y = a._with_common(as_scalar(b))
    return Scalar(tower, GENERIC[op](x, y, len(tower), tower))


def same_representation(s, t):
    return (
        len(s._tower) == len(t._tower)
        and all(p is q for p, q in zip(s._tower, t._tower))
        and s._elt == t._elt
    )


@settings(max_examples=150)
@given(exact_rationals, exact_rationals, st.sampled_from(list(GENERIC)))
def test_rational_operands_match_fractions(p, q, op):
    """Scalar with Scalar, and Scalar with int or Fraction on either side."""
    for left, right in ((as_scalar(p), as_scalar(q)), (as_scalar(p), q), (p, as_scalar(q))):
        if op is operator.truediv and q == 0:
            with pytest.raises(ZeroDivisionError):
                op(left, right)
        else:
            got = op(left, right)
            assert got.tower_depth == 0
            assert type(got.as_fraction()) is Fraction
            assert got.as_fraction() == op(Fraction(p), Fraction(q))
        assert (left == right) is (p == q)
    s = as_scalar(p)
    assert (-s).tower_depth == 0 and (-s).as_fraction() == -p
    assert s.is_zero() is (not s) is (p == 0)


@settings(max_examples=100)
@given(operands, rationals, st.sampled_from(list(GENERIC)))
def test_rational_operand_matches_generic(a, q, op):
    for left, right in ((a, q), (q, a)):
        if op is operator.truediv and not right:
            continue
        fast = op(left, right)
        slow = generic(op, left, right)
        assert fast == slow
        assert same_representation(fast, slow)
    assert same_representation(-a, Scalar(a._tower, _neg(a._elt, a.tower_depth)))
    assert (a == q) is (a.tower_depth == 0 and a.as_fraction() == as_scalar(q).as_fraction())
    assert a.is_zero() is (not a) is (a.tower_depth == 0 and a.as_fraction() == 0)


def test_small_ints_are_the_shared_constants():
    assert as_scalar(0) is Scalar.zero() and as_scalar(1) is Scalar.one()
    assert as_scalar(-1) is as_scalar(-1) and -Scalar.zero() is Scalar.zero()
    assert Mat2.identity().b is Scalar.zero()
    assert SfWitness.identity().translation[0] is Scalar.zero()
    # the public constructor still gives a fresh value
    assert Scalar((), Fraction(0)) is not Scalar.zero()


@settings(max_examples=100)
@given(operands, st.sampled_from((-1, 0, 1)))
def test_shared_constant_matches_unshared(a, k):
    """x + c, c + x, x - c, c - x, x * c and c * x for a shared constant c and
    for a fresh c built by the normalising constructor."""
    shared, fresh = as_scalar(k), Scalar((), Fraction(k))
    assert shared is not fresh and shared == fresh
    for op in (operator.add, operator.sub, operator.mul):
        for fast, slow in ((op(a, shared), op(a, fresh)), (op(shared, a), op(fresh, a))):
            assert same_representation(fast, slow)
            assert format_scalar(fast) == format_scalar(slow)


depth1_scalars = st.builds(
    lambda r, c, d: c + d * r, st.sampled_from(ROOTS), small, small.filter(bool)
)


@settings(max_examples=40)
@given(depth1_scalars | operands)
def test_cancellation_comes_back_at_depth_0(a):
    for zero in (a - a, a + (-a), a * 0, 0 * a, (a - a) * a):
        assert zero.tower_depth == 0 and zero.as_fraction() == 0
        assert zero.is_zero() and not zero and zero == 0
    if a:
        for one in (a / a, a * a.inverse(), a.inverse() * a):
            assert one.tower_depth == 0 and one.as_fraction() == 1


# A matrix example draws all its entries over one tower, so that its
# products stay at depth 2 instead of merging towers up to depth 3.


@st.composite
def congruence_cases(draw):
    """(M, witness) with entries over one tower; P1 invertible."""
    base = draw(bases)
    e = [combine(base, draw(coefficients)) for _ in range(7)]
    m = StdFormMatrix(Mat2(*e[:4]), (e[4], e[5]), e[6])
    while True:
        linear = Mat2(*(combine(base, draw(coefficients)) for _ in range(4)))
        if not linear.det().is_zero():
            break
    translation = (combine(base, draw(coefficients)), combine(base, draw(coefficients)))
    return m, SfWitness(linear, translation, combine(base, draw(nonzero_coefficients)))


def mat3_fold(m, w):
    """The reference: the plain 3x3 product, with no lifting."""
    pm = w.embed()
    return sf_map(pm.transpose() * m.embed() * pm).scale(w.scale)


def rescaled(w, factor):
    return SfWitness(w.linear, w.translation, w.scale * factor)


NESTED = sqrt_extend(1 + ROOTS[0])


@settings(max_examples=30)
@given(congruence_cases())
@example((
    StdFormMatrix(Mat2(NESTED, 1, -1, NESTED * ROOTS[0]), (NESTED, 0), 1 - NESTED),
    SfWitness(Mat2(1, NESTED, 0, 2), (Fraction(1, 2), NESTED), 1 + ROOTS[1]),
))
def test_apply_matches_mat3_fold(case):
    """Also over the nested sqrt(1 + sqrt(2)) with alpha on another tower,
    where alpha multiplies the folded product; a rescaled witness fails."""
    m, w = case
    assert w.apply(m) == mat3_fold(m, w)
    assume(any(coeffs_from_matrix(m)))
    with composition_refused():
        assert not verify_witness(mat3_fold(m, w), m, rescaled(w, 2))


def refuse(*args, **kwargs):
    raise AssertionError("the witness checker called the canonicalizer's composition")


@contextmanager
def composition_refused():
    """Make the stages' composition and its sources raise: `then`,
    `inverse`, `_stage2` and `canon2`."""
    with mock.patch.object(SfWitness, "then", refuse), mock.patch.object(
        SfWitness, "inverse", refuse
    ), mock.patch.object(sfcanon, "_stage2", refuse), mock.patch.object(
        sfcanon, "canon2", refuse
    ):
        yield


@settings(max_examples=25)
@given(congruence_cases())
def test_checker_is_independent_of_composition(case):
    m, w = case
    assume(not m.hom.is_zero())
    target = mat3_fold(m, w)
    with composition_refused():
        assert verify_witness(target, m, w)
        assert not verify_witness(target, m, rescaled(w, 2))
        assert not verify_witness(target, m, rescaled(w, -1))


def test_checker_accepts_canonicalization_witnesses_without_composition():
    rng = random.Random(4)
    cases = []
    for hom, lin, const in (
        (Mat2(1, 2, 3, 4), (1, 0), 5),
        (Mat2(0, -1, ROOTS[0], 0), (0, 0), 1),
        (Mat2(ROOTS[1], 1, 0, 0), (ROOTS[2], 0), 0),
    ):
        m = StdFormMatrix(hom, lin, const)
        sample, w = orbit_sample_with_witness(m, rng)
        _, canonical, cw = sf_canonicalize(sample)
        cases.append((sample, m, w))
        cases.append((canonical, sample, cw))
    with composition_refused():
        for target, source, w in cases:
            assert verify_witness(target, source, w)
            assert not verify_witness(target, source, rescaled(w, 3))


# Lifting onto one tower.  A product of roots takes the tower of its factors
# in the order they were multiplied, so sqrt(2)*sqrt(3) and sqrt(3)*sqrt(2)
# sit on the towers (2, 3) and (3, 2).

GENERATORS = ROOTS + (NESTED,)


@st.composite
def mixed_scalars(draw):
    """c0 + c1 * g1 * g2 * g3: distinct generators multiplied in the drawn
    order, at most two when the nested root (depth 2) is one of them, so the
    value has depth 0-3."""
    gens = draw(st.lists(st.sampled_from(GENERATORS), max_size=3, unique_by=id))
    if any(g is GENERATORS[3] for g in gens):
        gens = gens[:2]
    term = as_scalar(draw(small.filter(bool)))
    for g in gens:
        term = term * g
    return draw(small) + term


def overlapping(x, y):
    reach = x.rad + y.rad
    return abs(x.re - y.re) <= reach and abs(x.im - y.im) <= reach


@settings(max_examples=40)
@given(st.lists(mixed_scalars(), max_size=5))
def test_on_one_tower_keeps_each_value(values):
    lifted = on_one_tower(values)
    assert len(lifted) == len(values)
    top = max((w._tower for w in lifted), key=len, default=())
    for v, w in zip(values, lifted):
        assert _is_prefix(w._tower, top)
        assert w == v
        assert overlapping(w.approx(30), v.approx(30))
        if not v._tower:
            assert w is v
    if len({v._tower for v in values if v._tower}) <= 1:
        assert lifted is values


@st.composite
def mixed_witness_cases(draw):
    """(M, witness): each entry is a + b s for small rationals a, b and s
    one of g, h, g h and h g for two generators g, h, so entries sit on the
    towers of g and h in both orders; P1 invertible, alpha nonzero."""
    g, h = draw(st.lists(st.sampled_from(GENERATORS), min_size=2, max_size=2,
                         unique_by=id))
    pool = (g, h, g * h, h * g)

    def entry():
        return draw(small) + draw(small) * draw(st.sampled_from(pool))

    m = StdFormMatrix(Mat2(*(entry() for _ in range(4))), (entry(), entry()), entry())
    while True:
        linear = Mat2(*(entry() for _ in range(4)))
        if not linear.det().is_zero():
            break
    alpha = entry()
    assume(alpha)
    return m, SfWitness(linear, (entry(), entry()), alpha)


def perturbed(w):
    """w with 1 or -1 added to the top-left entry of P1, whichever stays
    invertible."""
    lin = w.linear
    for delta in (1, -1):
        candidate = Mat2(lin.a + delta, lin.b, lin.c, lin.d)
        if not candidate.det().is_zero():
            return SfWitness(candidate, w.translation, w.scale)


@settings(max_examples=15)
@given(mixed_witness_cases())
def test_checker_accepts_mixed_tower_orbit_witnesses(case):
    m, w = case
    assume(not m.hom.is_zero())
    target = mat3_fold(m, w)
    wrong = perturbed(w)
    assume(mat3_fold(m, wrong) != target)
    with composition_refused():
        assert verify_witness(target, m, w)
        assert not verify_witness(target, m, rescaled(w, 2))
        assert not verify_witness(target, m, wrong)


wide = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
rational_entries = st.one_of(st.sampled_from((0, 1, -1)), small, wide)


@st.composite
def rational_cases(draw):
    """(M, witness) with every entry rational: 0, 1, -1, small, or with
    numerator and denominator up to 10**6; alpha of either sign, whole or
    fractional.  P1 invertible."""
    e = [draw(rational_entries) for _ in range(7)]
    m = StdFormMatrix(Mat2(*e[:4]), (e[4], e[5]), e[6])
    while True:
        linear = Mat2(*(draw(rational_entries) for _ in range(4)))
        if not linear.det().is_zero():
            break
    translation = (draw(rational_entries), draw(rational_entries))
    return m, SfWitness(linear, translation, draw(rational_entries.filter(bool)))


@settings(max_examples=150)
@given(rational_cases())
@example((
    StdFormMatrix(Mat2(Fraction(999_999, 1_000_000), -1, Fraction(1, 999_983), 0),
                  (Fraction(-7, 3), 0), Fraction(5, 999_999)),
    SfWitness(Mat2(Fraction(1, 999_983), 2, Fraction(-3, 1_000_000), 1),
              (Fraction(1, 7), Fraction(-2, 999_999)), Fraction(-3, 7)),
))
def test_rational_apply_matches_mat3_fold(case):
    """The integer product equals the plain product, and the witness back
    (its inverse) cancels the result to m's entries, zeros included."""
    m, w = case
    got = w.apply(m)
    assert got == mat3_fold(m, w)
    assert all(type(x.as_fraction()) is Fraction for x in coeffs_from_matrix(got))
    back = w.inverse()
    assert back.apply(got) == m == mat3_fold(got, back)
    assume(not m.hom.is_zero())
    wrong = perturbed(w)
    assume(mat3_fold(m, wrong) != got)
    with composition_refused():
        assert verify_witness(got, m, w)
        assert not verify_witness(got, m, rescaled(w, 2))
        assert not verify_witness(got, m, rescaled(w, -1))
        assert not verify_witness(got, m, wrong)


def refuse_merge(*args):
    raise AssertionError("a check on rational entries merged towers")


@contextmanager
def counting_mat3():
    built = Counter()
    plain_init = Mat3.__init__

    def counted_init(self, rows):
        built["Mat3"] += 1
        plain_init(self, rows)

    with mock.patch.object(Mat3, "__init__", counted_init):
        yield built


def test_rational_check_does_no_extra_work():
    """On rational entries the check is an integer product: it builds no
    Mat3 and merges no tower, and it still rejects a wrong witness."""
    rng = random.Random(5)
    for tag in ("QWEYL", "VFORM", "X2_MINUS1"):
        m = canonical_matrix(CanonicalClass(tag, 3 if tag == "QWEYL" else None))
        sample, w = orbit_sample_with_witness(m, rng)
        with counting_mat3() as built, mock.patch.object(
            scalar, "_merge_towers", refuse_merge
        ):
            assert verify_witness(sample, m, w)
            assert not verify_witness(sample, m, rescaled(w, 2))
            assert not verify_witness(sample, m, perturbed(w))
        assert built["Mat3"] == 0


# Towers whose radicands are all rational.  The check reads their entries
# as integer combinations of products of roots.  Among the radicands, a
# merge finds sqrt(6) inside Q(sqrt(2), sqrt(3)), sqrt(-4) inside Q(sqrt(-1)),
# sqrt(1/2) inside Q(sqrt(2)), sqrt(3/4) inside Q(sqrt(3)) and sqrt(-3)
# inside Q(sqrt(-1), sqrt(3)); three drawn radicands give depth 1-3.

RATIONAL_RADICANDS = (2, 3, 5, -1, -3, -4, Fraction(1, 2), Fraction(3, 4), 6)


@st.composite
def multiquadratic_cases(draw):
    """(M, witness): each entry is a + b s for a, b rational (0, 1, -1, small,
    or with numerator and denominator up to 10**6) and s the root of one of
    one to three drawn radicands or a product of two of them in either
    order, so entries sit on differently ordered towers; alpha has the same
    shape, so it is irrational when b is not 0.  P1 invertible."""
    radicands = draw(st.lists(st.sampled_from(RATIONAL_RADICANDS), min_size=1,
                              max_size=3, unique=True))
    roots = [sqrt_extend(r) for r in radicands]
    pool = roots + [g * h for g in roots for h in roots if g is not h]

    def entry():
        return draw(rational_entries) + draw(rational_entries) * draw(st.sampled_from(pool))

    m = StdFormMatrix(Mat2(*(entry() for _ in range(4))), (entry(), entry()), entry())
    while True:
        linear = Mat2(*(entry() for _ in range(4)))
        if not linear.det().is_zero():
            break
    alpha = entry()
    assume(alpha)
    return m, SfWitness(linear, (entry(), entry()), alpha)


R2, R3, R6 = sqrt_extend(2), sqrt_extend(3), sqrt_extend(6)


@settings(max_examples=60)
@given(multiquadratic_cases())
@example((
    StdFormMatrix(Mat2(R6, 1 - R6, 0, Fraction(999_999, 1_000_000) * R2), (R3, 0), R6 - R2 * R3),
    SfWitness(Mat2(R2, R3, Fraction(1, 999_983), 1), (R6 / 7, Fraction(-2, 999_999)), 1 + R3),
))
def test_multiquadratic_apply_matches_mat3_fold(case):
    """The integer product over the monomials equals the plain product and
    builds no Mat3; the witness back (its inverse) cancels the result to
    m's entries, zeros included; and the check rejects wrong witnesses."""
    m, w = case
    entries = (*w.linear.entries(), *w.translation, w.scale, *coeffs_from_matrix(m))
    assume(any(x.tower_depth for x in entries))
    with counting_mat3() as built:
        got = w.apply(m)
    assert built["Mat3"] == 0
    assert got == mat3_fold(m, w)
    assert w.inverse().apply(got) == m
    assume(any(coeffs_from_matrix(m)))
    wrong = perturbed(w)
    assume(mat3_fold(m, wrong) != got)
    with composition_refused():
        assert verify_witness(got, m, w)
        assert not verify_witness(got, m, rescaled(w, 2))
        assert not verify_witness(got, m, rescaled(w, -1))
        assert not verify_witness(got, m, wrong)


def test_every_tower_check_lifts_once_and_builds_no_mat3():
    """A check over sqrt(2)*sqrt(3), whose radicands are rational, and one
    over the nested sqrt(1 + sqrt(2)) each lift their entries once and
    build no Mat3.  Both accept the witness and reject it rescaled."""
    rng = random.Random(6)
    for q in (R2 * R3, NESTED):
        m = canonical_matrix(CanonicalClass("QWEYL", q))
        w = rescaled(orbit_sample_with_witness(m, rng)[1], q)
        target = mat3_fold(m, w)
        lifts = Counter()
        lift = sfcanon.on_one_tower

        def counted_lift(values):
            lifts["on_one_tower"] += 1
            return lift(values)

        with counting_mat3() as built, mock.patch.object(sfcanon, "on_one_tower", counted_lift):
            assert verify_witness(target, m, w)
        assert lifts["on_one_tower"] == 1
        assert built["Mat3"] == 0
        with composition_refused():
            assert not verify_witness(target, m, rescaled(w, 2))

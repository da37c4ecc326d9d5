"""2x2 canonicalization: decision tree, witnesses, invariants, stabilizers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.congruence2 import (
    Canon2Label,
    canon2,
    canonical_mat2,
    kappa,
    stab_membership,
)
from quadalg.matrix import DegreeError, Mat2
from quadalg.polyio import parse_scalar
from quadalg.scalar import Scalar, as_scalar, sqrt_extend

ints = st.integers(min_value=-5, max_value=5)


def labels_equivalent(l1: Canon2Label, l2: Canon2Label) -> bool:
    if l1.tag != l2.tag:
        return False
    if l1.tag != "Q":
        return True
    return l1.q == l2.q or (l1.q * l2.q) == 1


@st.composite
def nonzero_mat2(draw):
    while True:
        m = Mat2(draw(ints), draw(ints), draw(ints), draw(ints))
        if not m.is_zero():
            return m


@st.composite
def invertible_mat2(draw):
    while True:
        m = Mat2(draw(ints), draw(ints), draw(ints), draw(ints))
        if not m.det().is_zero():
            return m


class TestKappa:
    def test_q2_value(self):
        assert kappa(Mat2(0, -1, 2, 0)) == Fraction(-1, 9)

    def test_yx_value(self):
        assert kappa(Mat2(0, 0, 1, 0)) == -1

    def test_jordan_value(self):
        assert kappa(Mat2(0, -1, 1, 1)) == 0

    def test_symmetric_input_rejected(self):
        with pytest.raises(DegreeError):
            kappa(Mat2(1, 2, 2, 3))

    @settings(max_examples=100)
    @given(m=nonzero_mat2(), p=invertible_mat2(), beta=ints.filter(lambda x: x != 0))
    def test_invariance(self, m, p, beta):
        if m.pfaffian().is_zero():
            return
        moved = (p.transpose() * m * p) * beta
        assert kappa(moved) == kappa(m)


class TestCanon2Examples:
    def test_yx_literal_identity_witness(self):
        label, p, alpha = canon2(Mat2(0, 0, 1, 0))
        assert label.tag == "YX"
        assert p == Mat2.identity()
        assert alpha == 1

    def test_identity_matrix_is_q_minus_one(self):
        m = Mat2(1, 0, 0, 1)
        label, p, alpha = canon2(m)
        assert label.tag == "Q"
        assert label.q == -1
        assert (p.transpose() * m * p) * alpha == canonical_mat2(label)
        # an independently constructed witness for the same class
        i = sqrt_extend(as_scalar(-1))
        p2 = Mat2(1, Fraction(-1, 2), i, i * Fraction(1, 2))
        assert p2.transpose() * m * p2 == canonical_mat2(label)

    def test_negated_q_matrix(self):
        label, p, alpha = canon2(Mat2(0, 1, -2, 0))
        assert label.tag == "Q"
        assert label.q == 2
        assert alpha == -1

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegreeError):
            canon2(Mat2(0, 0, 0, 0))

    def test_literal_canonicals_get_identity_witness(self):
        for label in (
            Canon2Label("X2"),
            Canon2Label("YX"),
            Canon2Label("JORDAN"),
            Canon2Label("Q", as_scalar(2)),
            Canon2Label("Q", as_scalar(1)),
            Canon2Label("Q", as_scalar(-1)),
        ):
            got, p, alpha = canon2(canonical_mat2(label))
            assert got == label
            assert p == Mat2.identity()
            assert alpha == 1
        # the label carries the input's own q, whose text a recomputed
        # root would not keep
        for text in ("sqrt(2)", "sqrt(-1)", "1/2*sqrt(6) + 1/2*sqrt(2)"):
            label = Canon2Label("Q", parse_scalar(text))
            got, p, alpha = canon2(canonical_mat2(label))
            assert got == label
            assert str(got.q) == text
            assert p == Mat2.identity()
            assert alpha == 1

    def test_reciprocal_q_is_renormalized(self):
        # [[0,-1],[1/2,0]] names the same class as q = 2
        label, p, alpha = canon2(Mat2(0, -1, Fraction(1, 2), 0))
        assert label.tag == "Q" and label.q == 2
        assert p != Mat2.identity() or alpha != 1

    def test_scaled_jordan(self):
        m = Mat2(0, -2, 2, 2)
        label, p, alpha = canon2(m)
        assert label.tag == "JORDAN"
        assert (p.transpose() * m * p) * alpha == canonical_mat2(label)

    def test_rank_one_symmetric(self):
        m = Mat2(1, 2, 2, 4)
        label, p, alpha = canon2(m)
        assert label.tag == "X2"
        assert (p.transpose() * m * p) * alpha == canonical_mat2(label)

    def test_antisymmetric(self):
        label, p, alpha = canon2(Mat2(0, 5, -5, 0))
        assert label.tag == "Q" and label.q == 1
        assert alpha == Fraction(-1, 5)


class TestQParameter:
    def test_defining_quadratic_is_satisfied(self):
        for entries in ((0, -1, 3, 0), (1, 2, -1, 1), (2, -3, 5, 1)):
            m = Mat2(*entries)
            label, _, _ = canon2(m)
            if label.tag != "Q" or label.q == 1 or label.q == -1:
                continue
            k = kappa(m)
            q = label.q
            assert ((k + 1) * q * q + 2 * (k - 1) * q + (k + 1)).is_zero()

    def test_canonical_choice_has_large_modulus(self):
        label, _, _ = canon2(Mat2(0, -1, Fraction(1, 3), 0))
        assert label.q == 3

    def test_reciprocal_pair_witness(self):
        # M_q and M_{1/q} are congruent with scale 1 via [[0,1],[-1/q,0]]
        q = Fraction(5, 2)
        mq = Mat2(0, -1, q, 0)
        p = Mat2(0, 1, -1 / q, 0)
        assert p.transpose() * mq * p == Mat2(0, -1, 1 / q, 0)

    def test_distinct_q_classes_are_distinct(self):
        l2, _, _ = canon2(Mat2(0, -1, 2, 0))
        l3, _, _ = canon2(Mat2(0, -1, 3, 0))
        assert not labels_equivalent(l2, l3)


@settings(max_examples=150)
@given(m=nonzero_mat2(), p=invertible_mat2(), beta=ints.filter(lambda x: x != 0))
def test_orbit_invariance(m, p, beta):
    moved = (p.transpose() * m * p) * beta
    l1, w1, a1 = canon2(m)
    l2, w2, a2 = canon2(moved)
    assert labels_equivalent(l1, l2)
    if l1.tag == "Q":
        # the reported representative is deterministic, not just the pair
        assert l1.q == l2.q


@settings(max_examples=80)
@given(m=nonzero_mat2())
def test_witness_always_verifies(m):
    label, p, alpha = canon2(m)
    assert (p.transpose() * m * p) * alpha == canonical_mat2(label)
    assert not p.det().is_zero()
    assert not alpha.is_zero()


class TestStabilizers:
    def test_yx_diagonal_family(self):
        r = Fraction(7)
        assert stab_membership(Canon2Label("YX"), Mat2(r, 0, 0, 1 / r))

    def test_q1_shear(self):
        assert stab_membership(Canon2Label("Q", as_scalar(1)), Mat2(1, 1, 0, 1))

    def test_yx_shear_fails(self):
        assert not stab_membership(Canon2Label("YX"), Mat2(1, 1, 0, 1))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            stab_membership(Canon2Label("YX"), Mat2(1, 1, 1, 1))

    def test_x2_family(self):
        for e in (1, -1):
            for r in (0, 2, -3):
                for s in (1, 5, Fraction(-1, 2)):
                    assert stab_membership(
                        Canon2Label("X2"), Mat2(e, 0, r, s)
                    )
        assert not stab_membership(Canon2Label("X2"), Mat2(2, 0, 0, 1))

    def test_jordan_family(self):
        for sign in (1, -1):
            for r in (0, 1, -4):
                p = Mat2(sign, sign * r, 0, sign)
                assert stab_membership(Canon2Label("JORDAN"), p)
        assert not stab_membership(Canon2Label("JORDAN"), Mat2(1, 0, 1, 1))

    def test_generic_q_diagonal(self):
        label = Canon2Label("Q", as_scalar(3))
        for r in (2, Fraction(1, 5), -7):
            assert stab_membership(label, Mat2(r, 0, 0, Fraction(1, 1) / r))
        assert not stab_membership(label, Mat2(0, 1, 1, 0))

    def test_q_minus_one_antidiagonal(self):
        label = Canon2Label("Q", as_scalar(-1))
        s = Fraction(3)
        assert stab_membership(label, Mat2(0, s, 1 / s, 0))
        assert stab_membership(label, Mat2(s, 0, 0, 1 / s))

    @settings(max_examples=50)
    @given(
        r=st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
            lambda x: x != 0
        ),
        s=st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
            lambda x: x != 0
        ),
    )
    def test_closure_under_product(self, r, s):
        label = Canon2Label("YX")
        p1 = Mat2(r, 0, 0, 1 / r)
        p2 = Mat2(s, 0, 0, 1 / s)
        assert stab_membership(label, p1 * p2)
        assert stab_membership(label, p1.inverse())


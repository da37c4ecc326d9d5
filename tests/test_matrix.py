"""Matrix layer: standard-form fold; the substitution group and congruence
action of the witness type built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.matrix import (
    Mat2,
    Mat3,
    coeffs_from_matrix,
    matrix_from_coeffs,
    sf_map,
)
from quadalg.scalar import Scalar, as_scalar, sqrt_extend
from quadalg.sfcanon import SfWitness

from test_fastpaths import congruence_cases

ints = st.integers(min_value=-6, max_value=6)
nonzero_ints = ints.filter(lambda n: n != 0)


@st.composite
def mat3s(draw):
    return Mat3([[draw(ints) for _ in range(3)] for _ in range(3)])


@st.composite
def substitutions(draw):
    """Witnesses of scale 1: affine substitutions with an invertible P1."""
    while True:
        m = Mat2(draw(ints), draw(ints), draw(ints), draw(ints))
        if not m.det().is_zero():
            break
    return SfWitness(m, (draw(ints), draw(ints)))


class TestMat2:
    def test_product_and_inverse(self):
        m = Mat2(1, 2, 3, 4)
        inv = m.inverse()
        assert m * inv == Mat2.identity()
        assert inv * m == Mat2.identity()

    def test_singular_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            Mat2(1, 2, 2, 4).inverse()

    def test_det_trace(self):
        m = Mat2(1, 2, 3, 4)
        assert m.det() == -2

    def test_symmetric_split(self):
        m = Mat2(1, 2, 6, 4)
        s = m.symmetric_part()
        assert s == Mat2(1, 4, 4, 4)
        assert m.pfaffian() == 2
        p = m.pfaffian()
        # the antisymmetric part is [[0, -p], [p, 0]]
        assert Mat2(s.a, s.b - p, s.c + p, s.d) == m

    def test_floats_are_refused_by_name(self):
        # one converter for every entry: a matrix refuses a float as a scalar does
        for make in (lambda: Mat2(0.5, 0, 0, 1), lambda: as_scalar(0.5)):
            with pytest.raises(TypeError, match="floats are not exact"):
                make()

    def test_predicates(self):
        assert Mat2(0, 0, 0, 0).is_zero()
        assert not Mat2(0, 0, 5, 0).is_zero()


class TestStandardFormFold:
    def test_fold_sums_linear_entries(self):
        m = Mat3([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        sf = sf_map(m)
        assert sf.hom == Mat2(1, 2, 4, 5)
        assert sf.lin[0] == 10
        assert sf.lin[1] == 14
        assert sf.const == 9

    def test_fold_is_idempotent(self):
        m = Mat3([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        once = sf_map(m)
        again = sf_map(once.embed())
        assert once == again

    def test_coeff_round_trip(self):
        coeffs = (1, 2, 3, 4, 5, 6, 7)
        m = matrix_from_coeffs(coeffs)
        back = coeffs_from_matrix(m)
        assert all(x == y for x, y in zip(back, coeffs))

    def test_coeffs_from_general_matrix_sum_linear(self):
        m = Mat3([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        c = coeffs_from_matrix(sf_map(m))
        assert c[4] == 10 and c[5] == 14 and c[6] == 9


class TestSubstitutionGroup:
    def test_compose_matches_embedding_product(self):
        p = SfWitness(Mat2(1, 2, 0, 1), (3, 4))
        q = SfWitness(Mat2(2, 0, 1, 1), (-1, 5))
        assert p.then(q).embed() == p.embed() * q.embed()

    def test_inverse(self):
        p = SfWitness(Mat2(1, 2, 3, 4), (5, 6), 3)
        assert p.then(p.inverse()) == SfWitness.identity()
        assert p.inverse().then(p) == SfWitness.identity()

    def test_singular_linear_part_rejected(self):
        with pytest.raises(ValueError, match="invertible linear part"):
            SfWitness(Mat2(1, 1, 2, 2), (0, 0))
        with pytest.raises(ValueError, match="scale must be nonzero"):
            SfWitness(Mat2.identity(), (0, 0), 0)

    def test_irrational_entries(self):
        r2 = sqrt_extend(Scalar.from_fraction(2))
        p = SfWitness(Mat2(r2, 0, 0, r2.inverse()), (0, 0), r2)
        assert p.then(p.inverse()) == SfWitness.identity()


class TestCongruenceAction:
    def test_identity_fixes(self):
        m = matrix_from_coeffs((1, 2, 3, 4, 5, 6, 7))
        assert SfWitness.identity().apply(m) == m

    def test_scaling(self):
        m = matrix_from_coeffs((1, 2, 3, 4, 5, 6, 7))
        doubled = SfWitness(Mat2.identity(), scale=2).apply(m)
        assert doubled == m.scale(2)

    def test_action_composes(self):
        m = matrix_from_coeffs((1, 0, -2, 0, 0, 0, -5))
        p = SfWitness(Mat2(1, 2, 0, 1), (3, 4), 2)
        q = SfWitness(Mat2(2, 0, 1, 1), (-1, 5), -3)
        assert q.apply(p.apply(m)) == p.then(q).apply(m)


@settings(max_examples=100)
@given(m=mat3s(), p=substitutions())
def test_fold_before_or_after_congruence(m, p):
    # folding a defining matrix first never changes the folded congruence image
    pm = p.embed()
    direct = sf_map(pm.transpose() * m * pm)
    folded = sf_map(pm.transpose() * sf_map(m).embed() * pm)
    assert direct == folded


@settings(max_examples=60)
@given(m=mat3s(), p=substitutions(), t0=ints, t1=ints)
def test_fold_descends_to_classes(m, p, t0, t1):
    # shifting weight between transposed linear slots keeps the same fold
    rows = [list(r) for r in m.rows]
    rows[0][2] = rows[0][2] + t0
    rows[2][0] = rows[2][0] - t0
    rows[1][2] = rows[1][2] + t1
    rows[2][1] = rows[2][1] - t1
    m2 = Mat3(rows)
    assert sf_map(m2) == sf_map(m)
    pm = p.embed()
    assert sf_map(pm.transpose() * m2 * pm) == sf_map(pm.transpose() * m * pm)


def group_axioms(p, q, r):
    """The group laws, and the invariant that lets `then` and `inverse` skip
    the constructor's determinant test: det P1 is multiplicative, so a
    product or an inverse of invertible P1s is invertible."""
    assert p.then(q).then(r) == p.then(q.then(r))
    assert p.then(SfWitness.identity()) == p
    assert SfWitness.identity().then(p) == p
    assert p.then(p.inverse()) == SfWitness.identity()
    assert p.then(q).linear.det() == p.linear.det() * q.linear.det()
    assert p.inverse().linear.det() * p.linear.det() == 1


@settings(max_examples=60)
@given(p=substitutions(), q=substitutions(), r=substitutions())
def test_group_axioms(p, q, r):
    group_axioms(p, q, r)


tower_witnesses = congruence_cases().map(lambda case: case[1])


@settings(max_examples=20)
@given(p=tower_witnesses, q=tower_witnesses, r=tower_witnesses)
def test_group_axioms_over_towers(p, q, r):
    """Witnesses over towers of sqrt(2), sqrt(3) and sqrt(-1), with alpha
    other than 1."""
    group_axioms(p, q, r)

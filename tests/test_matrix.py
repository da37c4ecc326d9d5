"""Matrix layer: standard-form fold, substitution group, congruence action."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.matrix import (
    Mat2,
    Mat3,
    PAffine,
    StdFormMatrix,
    apply_congruence,
    coeffs_from_matrix,
    matrix_from_coeffs,
    p_compose,
    p_invert,
    sf_map,
)
from quadalg.scalar import Scalar, sqrt_extend

ints = st.integers(min_value=-6, max_value=6)
nonzero_ints = ints.filter(lambda n: n != 0)


@st.composite
def mat3s(draw):
    return Mat3([[draw(ints) for _ in range(3)] for _ in range(3)])


@st.composite
def paffines(draw):
    while True:
        m = Mat2(draw(ints), draw(ints), draw(ints), draw(ints))
        if not m.det().is_zero():
            break
    return PAffine(m, (draw(ints), draw(ints)))


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
        c = coeffs_from_matrix(m)
        assert c[4] == 10 and c[5] == 14 and c[6] == 9


class TestSubstitutionGroup:
    def test_compose_matches_embedding_product(self):
        p = PAffine(Mat2(1, 2, 0, 1), (3, 4))
        q = PAffine(Mat2(2, 0, 1, 1), (-1, 5))
        assert p_compose(p, q).embed() == p.embed() * q.embed()

    def test_inverse(self):
        p = PAffine(Mat2(1, 2, 3, 4), (5, 6))
        e = p_compose(p, p_invert(p))
        assert e == PAffine.identity()
        assert p_compose(p_invert(p), p) == PAffine.identity()

    def test_singular_linear_part_rejected(self):
        with pytest.raises(ValueError):
            PAffine(Mat2(1, 1, 2, 2), (0, 0))

    def test_irrational_entries(self):
        r2 = sqrt_extend(Scalar.from_fraction(2))
        p = PAffine(Mat2(r2, 0, 0, r2.inverse()), (0, 0))
        assert p_compose(p, p_invert(p)) == PAffine.identity()


class TestCongruenceAction:
    def test_identity_fixes(self):
        m = matrix_from_coeffs((1, 2, 3, 4, 5, 6, 7))
        assert apply_congruence(m, PAffine.identity()) == m

    def test_scaling(self):
        m = matrix_from_coeffs((1, 2, 3, 4, 5, 6, 7))
        doubled = apply_congruence(m, PAffine.identity(), 2)
        assert doubled == m.scale(2)

    def test_action_composes(self):
        m = matrix_from_coeffs((1, 0, -2, 0, 0, 0, -5))
        p = PAffine(Mat2(1, 2, 0, 1), (3, 4))
        q = PAffine(Mat2(2, 0, 1, 1), (-1, 5))
        step = apply_congruence(apply_congruence(m, p), q)
        joint = apply_congruence(m, p_compose(p, q))
        assert step == joint


@settings(max_examples=100)
@given(m=mat3s(), p=paffines())
def test_fold_before_or_after_congruence(m, p):
    # folding a defining matrix first never changes the folded congruence image
    pm = p.embed()
    direct = sf_map(pm.transpose() * m * pm)
    folded = sf_map(pm.transpose() * sf_map(m).embed() * pm)
    assert direct == folded


@settings(max_examples=60)
@given(m=mat3s(), p=paffines(), t0=ints, t1=ints)
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


@settings(max_examples=60)
@given(p=paffines(), q=paffines(), r=paffines())
def test_group_axioms(p, q, r):
    assert p_compose(p_compose(p, q), r) == p_compose(p, p_compose(q, r))
    assert p_compose(p, PAffine.identity()) == p
    assert p_compose(PAffine.identity(), p) == p
    assert p_compose(p, p_invert(p)) == PAffine.identity()

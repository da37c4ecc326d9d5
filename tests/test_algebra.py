"""Algebra naming, the UFORM/VFORM glue, homogenization, the lemma that
substitutions fix the commutation forms, parameter matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.algebra import (
    ENVV_BRIDGE,
    U_RELATION,
    U_TO_V,
    V_RELATION,
    V_TO_U,
    AlgebraClass,
    HClass,
    HTriple,
    algebra_of_class,
    classify,
    classify_h,
    h_class_of,
    homogeneous_poly_from_sf,
    homogenize,
    iso_check,
    poly_from_sf,
    qas_iso,
    sf_from_poly,
    verified_uv_bridge,
)
from quadalg.congruence2 import Canon2Label, canonical_mat2, reciprocal_equivalent
from quadalg.matrix import DegreeError, Mat2, Mat3, matrix_from_coeffs
from quadalg.ncrewrite import NCPoly, substitute
from quadalg.scalar import Scalar, as_scalar
from quadalg.sfcanon import (
    CanonicalClass,
    SfWitness,
    canonical_matrix,
    orbit_sample,
    sf_congruent,
    verify_witness,
)

X = NCPoly.variable("x")
Y = NCPoly.variable("y")
Z = NCPoly.variable("z")
ONE = NCPoly.one()

ints = st.integers(min_value=-4, max_value=4)

# The defining matrices of the relations xz - zx and yz - zy over the
# generator vector (x, y, z).
X_COMMUTATION = Mat3(((0, 0, 1), (0, 0, 0), (-1, 0, 0)))
Y_COMMUTATION = Mat3(((0, 0, 0), (0, 0, 1), (0, -1, 0)))


@st.composite
def std_matrices(draw):
    while True:
        coeffs = [draw(ints) for _ in range(7)]
        m = matrix_from_coeffs(coeffs)
        if not m.hom.is_zero():
            return m


def all_canonical_classes():
    out = []
    for tag in (
        "X2",
        "X2_MINUS1",
        "KX",
        "JORDAN",
        "JORDAN1",
        "VFORM",
        "YX",
        "S",
        "UFORM",
    ):
        out.append(CanonicalClass(tag))
    for q in (2, 1, -1):
        out.append(CanonicalClass("QPLANE", as_scalar(q)))
        out.append(CanonicalClass("QWEYL", as_scalar(q)))
    return out


class TestPolyBridge:
    def test_round_trip_through_matrix(self):
        f = X * Y - Y * X * 3 + X * X - Y * 2 + ONE * 7
        assert poly_from_sf(sf_from_poly(f)) == f

    def test_degree_too_low(self):
        with pytest.raises(DegreeError):
            sf_from_poly(X + Y - ONE)

    def test_degree_too_high(self):
        with pytest.raises(DegreeError):
            sf_from_poly(X * Y * X)

    def test_z_rejected(self):
        with pytest.raises(ValueError):
            sf_from_poly(X * Z + Y * Y)

    def test_homogeneous_reading_moves_affine_slots(self):
        f = X * X + X * 3 - ONE * 2
        hp = homogeneous_poly_from_sf(sf_from_poly(f))
        assert hp == X * X + X * Z * 3 - Z * Z * 2


class TestClassify:
    def test_quantum_plane(self):
        a = classify(X * Y - Y * X * 3)
        assert a == AlgebraClass("OQ", q=3)
        assert str(a) == "OQ(3)"

    def test_polynomial_ring_on_one_generator(self):
        assert classify(X * X + Y) == AlgebraClass("KX")

    def test_v_relation_names_u_with_flag(self):
        a = classify(Y * X - X * Y + Y * Y + X)
        assert a == AlgebraClass("U", via_v=True)
        assert a.tag == "U" and a.via_v

    def test_full_name_table(self):
        q = Fraction(2)
        rows = [
            (X * Y - Y * X * q, AlgebraClass("OQ", q=q)),
            (X * Y - Y * X * q - ONE, AlgebraClass("WEYL_Q", q=q)),
            (Y * X - X * Y + Y * Y, AlgebraClass("JORDAN")),
            (Y * X - X * Y + Y * Y + ONE, AlgebraClass("JORDAN1")),
            (Y * X - X * Y + Y, AlgebraClass("U")),
            (X * X + Y, AlgebraClass("KX")),
            (X * X, AlgebraClass("RX2")),
            (X * X - ONE, AlgebraClass("RX2M1")),
            (Y * X, AlgebraClass("RYX")),
            (Y * X - ONE, AlgebraClass("S")),
        ]
        for f, expected in rows:
            assert classify(f) == expected

    def test_commutative_plane_is_oq_at_one(self):
        assert classify(X * Y - Y * X) == AlgebraClass("OQ", q=1)
        assert classify(X * Y - Y * X - ONE) == AlgebraClass("WEYL_Q", q=1)

    def test_degree_errors_propagate(self):
        with pytest.raises(DegreeError):
            classify(X - Y)

    @settings(max_examples=40)
    @given(std_matrices(), st.integers(min_value=0, max_value=10**6))
    def test_constant_on_orbits(self, m, seed):
        mate = orbit_sample(m, random.Random(seed))
        assert classify(poly_from_sf(m)) == classify(poly_from_sf(mate))


class TestAlgebraClassType:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlgebraClass("NOPE")
        with pytest.raises(ValueError):
            AlgebraClass("OQ")  # missing parameter
        with pytest.raises(ValueError):
            AlgebraClass("JORDAN", q=2)
        with pytest.raises(ValueError):
            AlgebraClass("OQ", q=0)
        with pytest.raises(ValueError):
            AlgebraClass("JORDAN", via_v=True)

    def test_isomorphism_uses_unordered_parameter_pair(self):
        a = AlgebraClass("OQ", q=2)
        b = AlgebraClass("OQ", q=Fraction(1, 2))
        assert a != b
        assert reciprocal_equivalent(a, b)
        assert not reciprocal_equivalent(a, AlgebraClass("OQ", q=3))
        assert not reciprocal_equivalent(a, AlgebraClass("WEYL_Q", q=2))

    def test_via_v_is_invisible_to_isomorphism(self):
        assert reciprocal_equivalent(AlgebraClass("U"), AlgebraClass("U", via_v=True))

    def test_name_of_every_canonical_class(self):
        names = {
            "X2": "RX2",
            "X2_MINUS1": "RX2M1",
            "KX": "KX",
            "JORDAN": "JORDAN",
            "JORDAN1": "JORDAN1",
            "VFORM": "U",
            "YX": "RYX",
            "S": "S",
            "UFORM": "U",
            "QPLANE": "OQ",
            "QWEYL": "WEYL_Q",
        }
        for cls in all_canonical_classes():
            a = algebra_of_class(cls)
            assert a.tag == names[cls.tag]
            assert a.via_v == (cls.tag == "VFORM")
            if cls.q is not None:
                assert a.q == cls.q


class TestIsoCheck:
    def test_reciprocal_weyl_parameters_affinely(self):
        f = X * Y - Y * X * 2 - ONE
        g = X * Y - Y * X * Fraction(1, 2) - ONE
        ok, evidence = iso_check(f, g)
        assert ok
        assert isinstance(evidence, SfWitness)
        assert verify_witness(sf_from_poly(f), sf_from_poly(g), evidence)

    def test_u_and_v_need_the_bridge(self):
        f = Y * X - X * Y + Y
        g = Y * X - X * Y + Y * Y + X
        congruent, _ = sf_congruent(sf_from_poly(f), sf_from_poly(g))
        assert not congruent
        ok, evidence = iso_check(f, g)
        assert ok
        assert evidence == ENVV_BRIDGE

    def test_distinct_algebras(self):
        ok, evidence = iso_check(Y * X, X * X)
        assert not ok
        assert evidence is None

    def test_self_iso_is_affine(self):
        f = Y * X - X * Y + Y * Y + X
        ok, evidence = iso_check(f, f)
        assert ok
        assert isinstance(evidence, SfWitness)


class TestUVBridge:
    def test_substitutions_swap_the_relations_exactly(self):
        assert U_RELATION == Y * X - X * Y + Y
        assert V_RELATION == Y * X - X * Y + Y * Y + X
        assert substitute(U_TO_V, U_RELATION) == V_RELATION
        assert substitute(V_TO_U, V_RELATION) == U_RELATION

    def test_round_trips_fix_generators(self):
        for letter in ("x", "y"):
            gen = NCPoly.variable(letter)
            assert substitute(V_TO_U, U_TO_V[letter]) == gen
            assert substitute(U_TO_V, V_TO_U[letter]) == gen

    def test_machine_check_passes(self):
        assert verified_uv_bridge()


class TestHomogenize:
    def test_linear_term_picks_up_z(self):
        t = homogenize(Y * X - X * Y + Y)
        assert t.relation_poly() == Y * X - X * Y + Y * Z

    def test_constant_becomes_z_squared(self):
        assert homogenize(X * X - ONE).relation_poly() == X * X - Z * Z
        assert homogenize(Y * X - ONE).relation_poly() == Y * X - Z * Z

    def test_setting_z_to_one_recovers_f(self):
        f = X * Y * 2 - Y * Y + X * 5 - Y + ONE * 3
        t = homogenize(f)
        assert substitute({"z": ONE}, t.relation_poly()) == f
        assert poly_from_sf(t.relation) == f

    def test_setting_z_to_zero_recovers_the_top_part(self):
        f = X * Y * 2 - Y * Y + X * 5 - Y + ONE * 3
        t = homogenize(f)
        assert substitute({"z": NCPoly.zero()}, t.relation_poly()) == X * Y * 2 - Y * Y

    def test_commutation_forms_are_fixed(self):
        t = homogenize(X * X)
        with pytest.raises(TypeError):
            HTriple(
                relation=t.relation,
                x_commutation=Mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            )

        def form(m):
            """The quadratic form of m over the generator vector (x, y, z)."""
            gens = (X, Y, Z)
            return sum(
                (gens[i] * gens[j] * m.rows[i][j] for i in range(3) for j in range(3)),
                NCPoly.zero(),
            )

        assert form(X_COMMUTATION) == X * Z - Z * X
        assert form(Y_COMMUTATION) == Y * Z - Z * Y

    def test_zero_quadratic_block_rejected(self):
        with pytest.raises(DegreeError):
            homogenize(X + Y)
        with pytest.raises(ValueError):
            HTriple(relation=matrix_from_coeffs((0, 0, 0, 0, 1, 1, 1)))


class TestClassifyH:
    def test_env_and_envv_separate(self):
        a = classify_h(homogenize(Y * X - X * Y + Y))
        b = classify_h(homogenize(Y * X - X * Y + Y * Y + X))
        assert a == HClass("H_ENV")
        assert b == HClass("H_ENVV")
        assert a != b
        assert not reciprocal_equivalent(a, b)

    def test_weyl_example(self):
        h = classify_h(homogenize(X * Y - Y * X * 2 - ONE * 5))
        assert h == HClass("H_WEYL", q=2)

    def test_single_square(self):
        assert classify_h(homogenize(X * X)) == HClass("H_X2")

    def test_name_of_every_canonical_class(self):
        names = {
            "X2": "H_X2",
            "X2_MINUS1": "H_SX2",
            "KX": "H_KX",
            "JORDAN": "H_JORDAN",
            "JORDAN1": "H_SJORDAN",
            "VFORM": "H_ENVV",
            "YX": "H_YX",
            "S": "H_OS",
            "UFORM": "H_ENV",
            "QPLANE": "H_OQ",
            "QWEYL": "H_WEYL",
        }
        seen = set()
        for cls in all_canonical_classes():
            h = classify_h(HTriple(relation=canonical_matrix(cls)))
            assert h.tag == names[cls.tag]
            if cls.q is not None:
                assert h.q == cls.q
            seen.add(h.tag)
        assert len(seen) == 11

    def test_merged_downstairs_separated_upstairs(self):
        u = Y * X - X * Y + Y
        v = Y * X - X * Y + Y * Y + X
        assert reciprocal_equivalent(classify(u), classify(v))
        assert classify_h(homogenize(u)) != classify_h(homogenize(v))

    def test_reciprocal_parameter_pairing(self):
        a = classify_h(homogenize(X * Y - Y * X * 3))
        b = classify_h(homogenize(X * Y - Y * X * Fraction(1, 3)))
        assert a == b == HClass("H_OQ", q=3)
        assert reciprocal_equivalent(
            HClass("H_OQ", q=3), HClass("H_OQ", q=Fraction(1, 3))
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HClass("H_NOPE")
        with pytest.raises(ValueError):
            HClass("H_OQ")
        with pytest.raises(ValueError):
            HClass("H_JORDAN", q=2)


class TestGrading:
    def test_dropping_z_pads_the_planar_canonical_form(self):
        top = {
            "X2": Canon2Label("X2"),
            "X2_MINUS1": Canon2Label("X2"),
            "KX": Canon2Label("X2"),
            "JORDAN": Canon2Label("JORDAN"),
            "JORDAN1": Canon2Label("JORDAN"),
            "VFORM": Canon2Label("JORDAN"),
            "YX": Canon2Label("YX"),
            "S": Canon2Label("YX"),
            "UFORM": Canon2Label("Q", as_scalar(1)),
        }
        for cls in all_canonical_classes():
            if cls.q is not None:
                label = Canon2Label("Q", cls.q)
            else:
                label = top[cls.tag]
            assert canonical_matrix(cls).hom == canonical_mat2(label)


def transformed_commutation_forms(p: SfWitness) -> tuple[Mat3, Mat3]:
    pe = p.embed()
    pt = pe.transpose()
    return pt * X_COMMUTATION * pe, pt * Y_COMMUTATION * pe


def combination(u: Mat3, r, v: Mat3, s) -> Mat3:
    """r*u + s*v, entry by entry."""
    return Mat3(
        tuple(
            tuple(x * r + y * s for x, y in zip(ru, rv))
            for ru, rv in zip(u.rows, v.rows)
        )
    )


def xy_combination_coefficients(p: SfWitness):
    """Coefficients expressing the fixed forms in terms of their transforms.

    Returns ((r, s), (r', s')) with r*U + s*V and r'*U + s'*V recovering the
    x and y commutation forms, where U, V are the transforms under p.
    """
    u, v = transformed_commutation_forms(p)
    # the transforms are supported on the (0,2)/(1,2) entry pairs, so a 2x2
    # solve determines everything; its matrix is the transpose of p.linear
    gram = Mat2(u.rows[0][2], v.rows[0][2], u.rows[1][2], v.rows[1][2]).inverse()
    r, s = gram.apply((Scalar.one(), Scalar.zero()))
    rp, sp = gram.apply((Scalar.zero(), Scalar.one()))
    return (r, s), (rp, sp)


def xy_linear_combination_check(p: SfWitness) -> bool:
    """True when the fixed commutation forms lie in the span of their
    transforms: homogenizing fixes them, so classify_h may reuse
    sf-canonicalization of the relation alone."""
    u, v = transformed_commutation_forms(p)
    (r, s), (rp, sp) = xy_combination_coefficients(p)
    return (
        combination(u, r, v, s) == X_COMMUTATION
        and combination(u, rp, v, sp) == Y_COMMUTATION
    )


class TestXYCombination:
    def test_identity(self):
        assert xy_linear_combination_check(SfWitness.identity())
        (r, s), (rp, sp) = xy_combination_coefficients(SfWitness.identity())
        assert (r, s) == (1, 0)
        assert (rp, sp) == (0, 1)

    def test_diagonal_with_translation(self):
        p = SfWitness(Mat2(2, 0, 0, 3), (1, 1))
        assert xy_linear_combination_check(p)
        (r, s), (rp, sp) = xy_combination_coefficients(p)
        assert (r, s) == (Fraction(1, 2), 0)
        assert (rp, sp) == (0, Fraction(1, 3))

    @settings(max_examples=60)
    @given(ints, ints, ints, ints, ints, ints)
    def test_every_substitution_passes(self, a, b, c, d, e, f):
        if a * d - b * c == 0:
            return
        assert xy_linear_combination_check(SfWitness(Mat2(a, b, c, d), (e, f)))


def qas2(q):
    q = as_scalar(q)
    return ((as_scalar(1), q), (q.inverse(), as_scalar(1)))


def qas3(q12, q13, q23):
    q12, q13, q23 = as_scalar(q12), as_scalar(q13), as_scalar(q23)
    one = as_scalar(1)
    return (
        (one, q12, q13),
        (q12.inverse(), one, q23),
        (q13.inverse(), q23.inverse(), one),
    )


class TestQasIso:
    def test_reciprocal_pair_of_size_two(self):
        ok, sigma = qas_iso(qas2(3), qas2(Fraction(1, 3)))
        assert ok
        assert sigma == (1, 0)

    def test_identity_permutation(self):
        ok, sigma = qas_iso(qas3(2, 3, 5), qas3(2, 3, 5))
        assert ok
        assert sigma == (0, 1, 2)

    def test_distinct_parameter_multisets(self):
        ok, sigma = qas_iso(qas3(2, 3, 5), qas3(2, 3, 7))
        assert not ok
        assert sigma is None

    def test_permutation_applies_to_both_indices(self):
        # moving index 1 past the others inverts the entries that cross the diagonal
        p = qas3(2, Fraction(1, 5), Fraction(1, 3))
        q = qas3(5, 3, 2)
        ok, sigma = qas_iso(p, q)
        assert ok
        for i in range(3):
            for j in range(3):
                assert p[i][j] == q[sigma[i]][sigma[j]]

    def test_size_mismatch(self):
        assert qas_iso(qas2(2), qas3(2, 1, 1)) == (False, None)

    def test_not_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            qas_iso(((2, 1), (1, 1)), qas2(1))
        with pytest.raises(ValueError):
            qas_iso(((1, 2), (2, 1)), qas2(1))

    def test_size_cap(self):
        big = tuple(tuple(1 for _ in range(9)) for _ in range(9))
        with pytest.raises(ValueError):
            qas_iso(big, big)

    @settings(max_examples=30)
    @given(
        st.lists(
            st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(1, 3)]),
            min_size=3,
            max_size=3,
        ),
        st.permutations(range(3)),
    )
    def test_permuted_matrix_recognized(self, params, sigma):
        q = qas3(*params)
        p = tuple(
            tuple(q[sigma[i]][sigma[j]] for j in range(3)) for i in range(3)
        )
        ok, found = qas_iso(p, q)
        assert ok
        for i in range(3):
            for j in range(3):
                assert p[i][j] == q[found[i]][found[j]]

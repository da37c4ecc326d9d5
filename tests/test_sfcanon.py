"""Standard-form canonicalization: the eleven classes, witnesses, equivalence."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import quadalg.sfcanon as sfcanon
from quadalg.algebra import sf_from_poly
from quadalg.congruence2 import canon2, reciprocal_equivalent
from quadalg.matrix import DegreeError, Mat2, StdFormMatrix, matrix_from_coeffs
from quadalg.polyio import congruence_report, parse_poly
from quadalg.scalar import Scalar, as_scalar, sqrt_extend
from quadalg.sfcanon import (
    CanonicalClass,
    SfWitness,
    canonical_matrix,
    orbit_sample,
    orbit_sample_with_witness,
    scaling,
    sf_canonicalize,
    sf_congruent,
    verify_witness,
)

ints = st.integers(min_value=-4, max_value=4)


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


@st.composite
def std_matrices(draw):
    while True:
        coeffs = [draw(ints) for _ in range(7)]
        m = matrix_from_coeffs(coeffs)
        if not m.hom.is_zero():
            return m


class TestExamples:
    def test_yx_minus_one_is_S_with_identity(self):
        m = matrix_from_coeffs((0, 0, 1, 0, 0, 0, -1))
        cls, canonical, w = sf_canonicalize(m)
        assert cls.tag == "S"
        assert canonical == m
        assert w == SfWitness.identity()

    def test_perfect_square_translates(self):
        m = matrix_from_coeffs((1, 0, 0, 0, 2, 0, 1))  # x^2 + 2x + 1
        cls, canonical, w = sf_canonicalize(m)
        assert cls.tag == "X2"
        assert w.linear == Mat2.identity()
        assert w.translation[0] == -1
        assert w.translation[1] == 0
        assert w.scale == 1

    def test_weyl_with_q_two(self):
        m = matrix_from_coeffs((0, 1, -2, 0, 0, 0, -5))  # xy - 2yx - 5
        cls, canonical, w = sf_canonicalize(m)
        assert cls.tag == "QWEYL"
        assert cls.q == 2
        r5 = sqrt_extend(as_scalar(5))
        assert w.linear == Mat2(r5, 0, 0, r5)
        assert w.translation[0] == 0 and w.translation[1] == 0
        assert w.scale == Fraction(-1, 5)
        assert verify_witness(canonical, m, w)

    def test_zero_quadratic_block_rejected(self):
        with pytest.raises(DegreeError):
            sf_canonicalize(matrix_from_coeffs((0, 0, 0, 0, 1, 2, 3)))


class TestVerifyWitness:
    def test_reflexive(self):
        m = matrix_from_coeffs((1, 2, 3, 4, 5, 6, 7))
        assert verify_witness(m, m, SfWitness.identity())

    def test_cross_class_fails(self):
        j = canonical_matrix(CanonicalClass("JORDAN"))
        w2 = canonical_matrix(CanonicalClass("QWEYL", as_scalar(2)))
        assert not verify_witness(j, w2, SfWitness.identity())
        shear = SfWitness(Mat2(1, 1, 0, 1), (1, 0), 3)
        assert not verify_witness(j, w2, shear)


class TestOneCheck:
    """sf_canonicalize composes its stages without applying them, so its one
    check, verify_witness against the input, must catch a wrong witness; a
    canonical input goes through the same stages and the same check."""

    INPUTS = {
        "rational": lambda: orbit_sample(
            canonical_matrix(CanonicalClass("QWEYL", as_scalar(3))), random.Random(0)
        ),
        "tower": lambda: sf_from_poly(
            parse_poly("(1 + sqrt(2))*x^2 + (2*sqrt(3))*xy + (1 + sqrt(2))*y")
        ),
        "canonical": lambda: canonical_matrix(CanonicalClass("QWEYL", as_scalar(3))),
    }

    @staticmethod
    def extra_shift(real):
        def stage2(*args):
            stages, cls = real(*args)
            return stages + [sfcanon._shift(1, 0)], cls

        return stage2

    @staticmethod
    def doubled_alpha(real):
        def canon(hom):
            label, p, alpha = real(hom)
            return label, p, 2 * alpha

        return canon

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    @pytest.mark.parametrize(
        "target, fault", [("_stage2", "extra_shift"), ("canon2", "doubled_alpha")]
    )
    def test_bad_witness_raises(self, kind, target, fault):
        m = self.INPUTS[kind]()
        canonical = sf_canonicalize(m)[1]
        # an x shift fixes the JORDAN and UFORM matrices; it must move this one
        assert sfcanon._shift(1, 0).apply(canonical) != canonical
        bad = getattr(self, fault)(getattr(sfcanon, target))
        with mock.patch.object(sfcanon, target, bad):
            with pytest.raises(AssertionError, match="invalid witness"):
                sf_canonicalize(m)

    # (f, g, the check that must catch a wrong witness on either side)
    PAIRS = {
        "congruent": ("xy - 2yx - 1", "2xy - yx - 1", "composed witness"),
        "not-isomorphic": ("x^2", "yx", "invalid witness"),
        "bridge": ("yx - xy + y", "yx - xy + y^2 + x", "invalid witness"),
    }

    @pytest.mark.parametrize("side", [0, 1], ids=["f", "g"])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_every_comparison_rejects_a_bad_witness(self, monkeypatch, pair, side):
        """sf_compare checks a congruent pair by its composed witness alone
        and any other pair by each side's canonical witness: either way a
        canonicalization whose alpha is doubled on one side must raise, from
        sf_compare and from congruence_report."""
        f, g, message = self.PAIRS[pair]
        f, g = parse_poly(f), parse_poly(g)
        bad_side = (sf_from_poly(f), sf_from_poly(g))[side]
        canonicalize = sfcanon._canonicalize

        def one_side_wrong(m):
            cls, canonical, w = canonicalize(m)
            if m == bad_side:
                w = SfWitness(w.linear, w.translation, 2 * w.scale)
            return cls, canonical, w

        monkeypatch.setattr(sfcanon, "_canonicalize", one_side_wrong)
        with pytest.raises(AssertionError, match=message):
            sfcanon.sf_compare(sf_from_poly(f), sf_from_poly(g))
        with pytest.raises(AssertionError, match=message):
            congruence_report(f, g)


class TestScaleNormalize:
    """Normalizing by a scale of the generators: the witness scaling(gamma)."""

    def test_gamma_one_is_identity(self):
        m = matrix_from_coeffs((1, 2, 3, 4, 5, 6, 7))
        assert scaling(1).apply(m) == m

    def test_constant_scales_by_inverse_square(self):
        m = matrix_from_coeffs((0, 0, 1, 0, 0, 0, -4))
        out = scaling(2).apply(m)
        assert out.const == -1
        assert out.hom == m.hom

    def test_linear_scales_by_inverse(self):
        m = matrix_from_coeffs((1, 0, 0, 0, 0, 3, 0))
        out = scaling(3).apply(m)
        assert out.lin[1] == 1 and out.lin[0] == 0

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            scaling(0).apply(matrix_from_coeffs((1, 0, 0, 0, 0, 0, 0)))

    def test_matches_witness_semantics(self):
        m = matrix_from_coeffs((1, 2, 3, 4, 5, 6, 7))
        g = as_scalar(Fraction(3, 2))
        out = scaling(g).apply(m)
        assert verify_witness(out, m, scaling(g))


class TestIdempotence:
    def test_all_eleven_fixed_with_identity_witness(self):
        for cls in all_canonical_classes():
            m = canonical_matrix(cls)
            got, canonical, w = sf_canonicalize(m)
            assert got == cls
            assert canonical == m
            assert w == SfWitness.identity()

    def test_literal_class_detects_only_canonicals(self):
        """A canonical matrix, and only one, is its own canonical matrix with
        the identity witness."""

        def literal(coeffs):
            m = matrix_from_coeffs(coeffs)
            _, canonical, w = sf_canonicalize(m)
            return canonical == m and w == SfWitness.identity()

        assert literal((1, 0, 0, 0, 0, 0, 0))
        assert not literal((2, 0, 0, 0, 0, 0, 0))
        # the q-form with a reciprocal-side parameter is not the stored rep
        assert not literal((0, -1, Fraction(1, 2), 0, 0, 0, 0))
        assert literal((0, -1, 2, 0, 0, 0, 0))


class TestClassification:
    def test_each_class_reached_from_scrambled_input(self):
        rng = random.Random(7)
        for cls in all_canonical_classes():
            m = canonical_matrix(cls)
            mate = orbit_sample(m, rng)
            got, canonical, w = sf_canonicalize(mate)
            assert reciprocal_equivalent(got, cls)
            assert canonical == canonical_matrix(cls)
            assert verify_witness(canonical, mate, w)

    def test_kx_from_affine_x_squared_plus_y(self):
        m = matrix_from_coeffs((1, 0, 0, 0, 3, 5, 7))
        cls, _, _ = sf_canonicalize(m)
        assert cls.tag == "KX"

    def test_uform_needs_linear_term(self):
        m = matrix_from_coeffs((0, -1, 1, 0, 2, 0, 9))
        cls, _, _ = sf_canonicalize(m)
        assert cls.tag == "UFORM"

    def test_vform_from_jordan_with_x(self):
        m = matrix_from_coeffs((0, -1, 1, 1, 5, 3, 2))
        cls, _, _ = sf_canonicalize(m)
        assert cls.tag == "VFORM"

    def test_qplane_vs_qweyl_split(self):
        plane = matrix_from_coeffs((0, 1, -3, 0, 0, 0, 0))
        weyl = matrix_from_coeffs((0, 1, -3, 0, 0, 0, 1))
        cp, _, _ = sf_canonicalize(plane)
        cw, _, _ = sf_canonicalize(weyl)
        assert cp.tag == "QPLANE" and cw.tag == "QWEYL"
        assert cp.q == cw.q == 3


class TestSfCongruent:
    def test_weyl_reciprocal_parameters(self):
        w3 = canonical_matrix(CanonicalClass("QWEYL", as_scalar(3)))
        w13 = canonical_matrix(CanonicalClass("QWEYL", as_scalar(Fraction(1, 3))))
        ok, w = sf_congruent(w3, w13)
        assert ok
        assert verify_witness(w3, w13, w)

    def test_uform_vform_distinct(self):
        u = canonical_matrix(CanonicalClass("UFORM"))
        v = canonical_matrix(CanonicalClass("VFORM"))
        ok, w = sf_congruent(u, v)
        assert not ok and w is None

    def test_self_gives_identity(self):
        m = matrix_from_coeffs((1, 2, 3, 4, 5, 6, 7))
        ok, w = sf_congruent(m, m)
        assert ok
        assert w == SfWitness.identity()

    def test_distinct_weyl_parameters_not_congruent(self):
        w2 = canonical_matrix(CanonicalClass("QWEYL", as_scalar(2)))
        w3 = canonical_matrix(CanonicalClass("QWEYL", as_scalar(3)))
        ok, _ = sf_congruent(w2, w3)
        assert not ok


class TestOrbitSample:
    def test_samples_stay_in_class(self):
        rng = random.Random(11)
        m = matrix_from_coeffs((0, 1, -2, 0, 3, 1, -5))
        base_cls, base_canonical, _ = sf_canonicalize(m)
        for _ in range(10):
            out, w = orbit_sample_with_witness(m, rng)
            assert verify_witness(out, m, w)
            cls, canonical, _ = sf_canonicalize(out)
            assert reciprocal_equivalent(cls, base_cls)
            assert canonical == base_canonical
            ok, _ = sf_congruent(m, out)
            assert ok

    def test_hom_blocks_stay_congruent(self):
        rng = random.Random(13)
        m = matrix_from_coeffs((0, -1, 1, 1, 5, 3, 2))
        out = orbit_sample(m, rng)
        l1, _, _ = canon2(m.hom)
        l2, _, _ = canon2(out.hom)
        assert l1 == l2


@settings(max_examples=60)
@given(m=std_matrices(), seed=st.integers(min_value=0, max_value=10 ** 6))
def test_class_function_property(m, seed):
    rng = random.Random(seed)
    mate = orbit_sample(m, rng)
    c1, k1, _ = sf_canonicalize(m)
    c2, k2, _ = sf_canonicalize(mate)
    assert reciprocal_equivalent(c1, c2)
    assert k1 == k2


@settings(max_examples=50)
@given(m=std_matrices(), seed=st.integers(min_value=0, max_value=10 ** 6))
def test_witness_relation_laws(m, seed):
    rng = random.Random(seed)
    n, w = orbit_sample_with_witness(m, rng)
    # n = alpha fold(P^T m P): the witness runs from n back to m
    assert verify_witness(n, m, w)
    # symmetry: invert the map and the scale
    assert verify_witness(m, n, w.inverse())
    # transitivity through a second hop
    o, w2 = orbit_sample_with_witness(n, rng)
    assert verify_witness(o, m, w.then(w2))


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_stabilizer_form_of_shared_block_witnesses(seed):
    # matrices already carrying a canonical quadratic block: any witness
    # between them keeps that block, so scale * P1^T L P1 = L
    rng = random.Random(seed)
    base = canonical_matrix(CanonicalClass("QWEYL", as_scalar(2)))
    hom = base.hom
    m = StdFormMatrix(
        hom=hom,
        lin=(as_scalar(rng.randint(-3, 3)), as_scalar(rng.randint(-3, 3))),
        const=as_scalar(rng.randint(-3, 3)),
    )
    n = StdFormMatrix(
        hom=hom,
        lin=(as_scalar(rng.randint(-3, 3)), as_scalar(rng.randint(-3, 3))),
        const=as_scalar(rng.randint(-3, 3)),
    )
    ok, w = sf_congruent(m, n)
    if not ok:
        return
    p1 = w.linear
    assert (p1.transpose() * hom * p1) * w.scale == hom


@settings(max_examples=60)
@given(m=std_matrices())
def test_every_emitted_witness_verifies(m):
    cls, canonical, w = sf_canonicalize(m)
    assert verify_witness(canonical, m, w)
    assert not w.linear.det().is_zero()

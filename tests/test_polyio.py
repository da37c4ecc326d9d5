"""Text grammar, document round trips, report assembly, shipped fixtures."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.matrix import Mat2, PAffine, StdFormMatrix, matrix_from_coeffs
from quadalg.ncrewrite import NCPoly, confluence_smoke, reduce as nc_reduce
from quadalg.polyio import (
    PolySyntaxError,
    available_systems,
    canonicalization_report,
    classification_report,
    congruence_report,
    format_poly,
    homogenize_report,
    load_system,
    matrix_document,
    matrix_from_document,
    parse_poly,
    parse_scalar,
    scalar_text,
    witness_document,
    witness_from_document,
)
from quadalg.scalar import Scalar, as_scalar, sqrt_extend
from quadalg.sfcanon import SfWitness, sf_canonicalize, verify_witness
from quadalg.algebra import ENVV_BRIDGE, sf_from_poly

X = NCPoly.variable("x")
Y = NCPoly.variable("y")
ONE = NCPoly.one()


def sc(v) -> Scalar:
    return as_scalar(v)


class TestParsePoly:
    def test_weyl_example(self):
        p = parse_poly("xy - 2yx - 1")
        assert p.coeff("xy") == sc(1)
        assert p.coeff("yx") == sc(-2)
        assert p.coeff("") == sc(-1)
        assert len(p.terms()) == 3

    def test_sqrt_coefficient(self):
        p = parse_poly("sqrt(2)*x^2 + y")
        assert p.coeff("xx") == sqrt_extend(sc(2))
        assert p.coeff("y") == sc(1)

    def test_cubic_parses(self):
        p = parse_poly("x^3")
        assert p.coeff("xxx") == sc(1)
        assert p.degree() == 3

    def test_whitespace_insensitive(self):
        assert parse_poly(" x y \t- 2 y x-1 ") == parse_poly("xy - 2yx - 1")

    def test_star_and_juxtaposition_agree(self):
        assert parse_poly("2*y*x") == parse_poly("2yx")

    def test_powers_apply_to_last_letter(self):
        assert parse_poly("xy^2") == parse_poly("xyy")
        assert parse_poly("x^2y") == parse_poly("xxy")

    def test_coefficient_may_trail_the_word(self):
        assert parse_poly("x*2") == parse_poly("2x")

    def test_division_by_scalar(self):
        assert parse_poly("x/2") == parse_poly("1/2*x")

    def test_leading_sign(self):
        p = parse_poly("-x + y")
        assert p.coeff("x") == sc(-1)
        assert p.coeff("y") == sc(1)

    def test_cancellation_drops_term(self):
        p = parse_poly("xy - xy + y")
        assert p == Y

    def test_z_is_a_variable(self):
        p = parse_poly("xz - zx")
        assert p.coeff("xz") == sc(1)
        assert p.coeff("zx") == sc(-1)


class TestParseErrors:
    def test_unknown_character_position(self):
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly("x + @")
        assert exc.value.position == 5

    def test_unknown_variable(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("w + x")

    def test_zero_exponent(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("x^0")

    def test_trailing_operator(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("2*")

    def test_empty_input(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("")

    def test_dangling_close_paren(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("x)")

    def test_division_by_variable(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("x/y")

    def test_division_by_zero_scalar(self):
        with pytest.raises(ZeroDivisionError):
            parse_poly("x/0")

    def test_error_message_carries_column(self):
        with pytest.raises(PolySyntaxError, match=r"column 5"):
            parse_poly("x + @")


class TestParseScalar:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", 3),
            ("-3/7", Fraction(-3, 7)),
            ("1/2 + 1/3", Fraction(5, 6)),
            ("2*(3 - 1)", 4),
            ("6/2/3", 1),
        ],
    )
    def test_rational_expressions(self, text, value):
        assert parse_scalar(text) == sc(value)

    def test_sqrt(self):
        assert parse_scalar("sqrt(2)") == sqrt_extend(sc(2))

    def test_nested_sqrt(self):
        inner = sqrt_extend(sc(2))
        assert parse_scalar("sqrt(1 + sqrt(2))") == sqrt_extend(sc(1) + inner)

    def test_rejects_variables(self):
        with pytest.raises(PolySyntaxError):
            parse_scalar("x + 1")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(PolySyntaxError):
            parse_scalar("2 3")

    @pytest.mark.parametrize(
        "text",
        ["0", "-3/7", "sqrt(2)", "-3 + 1/2*sqrt(2)", "-2/3*sqrt(2)", "sqrt(1 + sqrt(2))"],
    )
    def test_round_trip_frozen_formats(self, text):
        value = parse_scalar(text)
        assert scalar_text(value) == text
        assert parse_scalar(scalar_text(value)) == value

    def test_round_trip_product_of_roots(self):
        value = sqrt_extend(sc(2)) * sqrt_extend(sc(3))
        assert parse_scalar(scalar_text(value)) == value


class TestFormatPoly:
    def test_zero(self):
        assert format_poly(NCPoly.zero()) == "0"

    def test_term_order_degree_then_word(self):
        p = parse_poly("1 + x + yx + xy + x^2")
        assert format_poly(p) == "x^2 + xy + yx + x + 1"

    def test_negative_coefficients_use_minus(self):
        assert format_poly(parse_poly("xy - 2yx - 1")) == "xy - 2*yx - 1"

    def test_unit_coefficient_omitted(self):
        assert format_poly(X * Y) == "xy"
        assert format_poly(ONE) == "1"

    def test_run_length_powers(self):
        p = NCPoly.term("xxy", sc(1))
        assert format_poly(p) == "x^2y"

    def test_multi_term_coefficient_parenthesized(self):
        coeff = sc(1) + sqrt_extend(sc(2))
        assert format_poly(NCPoly.term("x", coeff)) == "(1 + sqrt(2))*x"

    def test_negative_irrational_coefficient(self):
        assert format_poly(NCPoly.term("x", -sqrt_extend(sc(2)))) == "-sqrt(2)*x"


scalars = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
words = st.text(alphabet="xyz", min_size=0, max_size=4)


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    p = NCPoly.zero()
    for _ in range(n):
        p = p + NCPoly.term(draw(words), sc(draw(scalars)))
    return p


class TestRoundTrip:
    @given(polys())
    @settings(max_examples=60)
    def test_parse_format_round_trip(self, p):
        assert parse_poly(format_poly(p)) == p

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=-9, max_value=-1))
    @settings(max_examples=20)
    def test_sqrt_coefficients_round_trip(self, a, b):
        p = NCPoly.term("xy", sqrt_extend(sc(a))) + NCPoly.term("y", sc(b))
        assert parse_poly(format_poly(p)) == p


class TestDocuments:
    def test_matrix_document_round_trip(self):
        m = matrix_from_coeffs([1, 2, -3, Fraction(1, 2), 0, 5, -1])
        assert matrix_from_document(matrix_document(m)) == m

    def test_matrix_document_with_roots(self):
        r = sqrt_extend(sc(3))
        m = StdFormMatrix(Mat2(r, sc(0), sc(1), -r), (sc(0), r), sc(2))
        assert matrix_from_document(matrix_document(m)) == m

    def test_witness_document_round_trip(self):
        w = SfWitness(
            PAffine(Mat2(sc(2), sc(1), sc(0), sc(1)), (sc(-1), sc(3))),
            sc(Fraction(2, 5)),
        )
        back = witness_from_document(witness_document(w))
        assert back.map.linear == w.map.linear
        assert back.map.translation == w.map.translation
        assert back.scale == w.scale

    def test_witness_document_fields_are_text(self):
        w = SfWitness.identity()
        doc = witness_document(w)
        assert doc["P1"] == [["1", "0"], ["0", "1"]]
        assert doc["P2"] == ["0", "0"]
        assert doc["alpha"] == "1"


class TestReports:
    def test_canonicalization_report_weyl(self):
        # xy - 2yx - 5 lands in the quantum Weyl class after the constant is
        # scaled to 1; the emitted witness must re-verify once re-read.
        m = sf_from_poly(parse_poly("xy - 2yx - 5"))
        doc = canonicalization_report(m)
        assert doc["class"] == "QWEYL"
        assert doc["q"] == "2"
        assert doc["canonical"]["constant"] == "1"
        w = witness_from_document(doc["witness"])
        canonical = matrix_from_document(doc["canonical"])
        assert verify_witness(canonical, m, w)

    def test_canonicalization_report_no_q_for_nonparametric(self):
        doc = canonicalization_report(sf_from_poly(parse_poly("yx")))
        assert doc["class"] == "YX"
        assert "q" not in doc

    def test_classification_report_fields(self):
        doc = classification_report(parse_poly("xy - 2yx - 1"))
        assert doc["algebra"] == "WEYL_Q"
        assert doc["q"] == "2"
        assert doc["via_v"] is False
        assert doc["canonical_f"] == "-xy + 2*yx + 1"
        w = witness_from_document(doc["witness"])
        target = sf_from_poly(parse_poly(doc["canonical_f"]))
        assert verify_witness(target, sf_from_poly(parse_poly("xy - 2yx - 1")), w)

    def test_classification_report_via_v(self):
        doc = classification_report(parse_poly("yx - xy + y^2 + x"))
        assert doc["algebra"] == "U"
        assert doc["via_v"] is True

    def test_congruence_report_congruent(self):
        f = parse_poly("xy - 2yx - 1")
        g = parse_poly("xy - 1/2yx - 1")
        doc = congruence_report(f, g)
        assert doc["sf_congruent"] is True
        assert doc["isomorphic"] is True
        w = witness_from_document(doc["witness"])
        assert verify_witness(sf_from_poly(f), sf_from_poly(g), w)

    def test_congruence_report_bridge(self):
        doc = congruence_report(
            parse_poly("yx - xy + y"), parse_poly("yx - xy + y^2 + x")
        )
        assert doc["sf_congruent"] is False
        assert doc["isomorphic"] is True
        assert doc["witness"] == ENVV_BRIDGE

    def test_congruence_report_unrelated(self):
        doc = congruence_report(parse_poly("yx"), parse_poly("x^2"))
        assert doc["sf_congruent"] is False
        assert doc["isomorphic"] is False
        assert "witness" not in doc

    @pytest.mark.parametrize(
        "f, g",
        [
            ("xy - 2yx - 1", "2xy - yx - 1"),
            ("x^2", "yx"),
            ("yx - xy + y", "yx - xy + y^2 + x"),
        ],
        ids=["congruent", "not-isomorphic", "bridge"],
    )
    def test_congruence_report_canonicalizes_each_side_once(self, monkeypatch, f, g):
        f, g = parse_poly(f), parse_poly(g)
        calls = []

        def counted(m):
            calls.append(m)
            return sf_canonicalize(m)

        bound = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name.split(".")[0] == "quadalg"
            and getattr(mod, "sf_canonicalize", None) is sf_canonicalize
        ]
        assert bound
        for mod in bound:
            monkeypatch.setattr(mod, "sf_canonicalize", counted)
        congruence_report(f, g)
        assert len(calls) == 2

    def test_homogenize_report(self):
        doc = homogenize_report(parse_poly("yx - xy + y"))
        assert doc["h_class"] == "H_ENV"
        assert doc["relation"] == "-xy + yx + yz"
        assert doc["matrix"]["linear"] == ["0", "1"]

    def test_homogenize_report_parametric(self):
        doc = homogenize_report(parse_poly("xy - 3yx"))
        assert doc["h_class"] == "H_OQ"
        assert doc["q"] == "3"


class TestSystems:
    def test_available_systems(self):
        assert available_systems() == ("h_kx", "h_os", "h_sxx", "u", "v")

    @pytest.mark.parametrize("name", ["h_kx", "h_os", "h_sxx", "u", "v"])
    def test_fixtures_load_and_are_confluent_at_smoke_depth(self, name):
        sys, doc = load_system(name)
        assert doc["relations"]
        assert confluence_smoke(sys, max_degree=6)

    def test_u_fixture_rewrites(self):
        sys, _ = load_system("u")
        assert nc_reduce(parse_poly("xy"), sys, 6) == parse_poly("yx + y")

    def test_h_kx_zero_divisor_identity(self):
        # (xy - yx) z reduces to 0: both monomials normalize to -x^3.
        sys, _ = load_system("h_kx")
        assert nc_reduce(parse_poly("xyz - yxz"), sys, 8).is_zero()

    def test_unknown_system_lists_fixtures(self):
        with pytest.raises(ValueError, match="h_kx"):
            load_system("nope")

    def test_load_from_path(self, tmp_path):
        src = tmp_path / "sys.json"
        src.write_text('{"precedence": "y<x", "relations": ["xy - yx - y"]}')
        sys, doc = load_system(str(src))
        assert nc_reduce(parse_poly("xy"), sys, 6) == parse_poly("yx + y")

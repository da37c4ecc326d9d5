"""Text grammar, document round trips, report assembly, shipped fixtures."""

import os
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import quadalg.sfcanon as sfcanon
from quadalg.matrix import Mat2, StdFormMatrix, matrix_from_coeffs
from quadalg.ncrewrite import NCPoly, locally_confluent, reduce as nc_reduce
from quadalg.polyio import (
    MAX_EXPONENT,
    MAX_INT_DIGITS,
    MAX_NESTING,
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
    parse_json,
    parse_poly,
    parse_scalar,
    witness_document,
    witness_from_document,
)
from quadalg.scalar import MINUS_ONE, Scalar, as_scalar, format_scalar, sqrt_extend
from quadalg.sfcanon import SfWitness, verify_witness
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

    @pytest.mark.parametrize("text, word, constant", [
        ("x", "x", Scalar.one()),
        ("-x", "x", MINUS_ONE),
        ("1*x", "x", Scalar.one()),
        ("(-1)*x", "x", MINUS_ONE),
        ("0*x + y", "y", Scalar.one()),
    ])
    def test_unit_coefficients_are_the_shared_constants(self, text, word, constant):
        # the operators skip work for these objects by identity; a
        # coefficient that is merely equal to 1 or -1 would lose that
        p = parse_poly(text)
        assert list(p.words()) == [word]
        assert p.coeff(word) is constant


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

    def test_nesting_cap(self):
        deep = "(" * 2000 + "1" + ")" * 2000 + "*xy"
        with pytest.raises(PolySyntaxError, match="nest deeper") as exc:
            parse_poly(deep)
        assert exc.value.position == MAX_NESTING + 1
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly("sqrt(" * (MAX_NESTING + 1) + "2" + ")" * (MAX_NESTING + 1))
        assert exc.value.position == 5 * MAX_NESTING + 1

    def test_nesting_at_the_cap_parses(self):
        text = "(" * MAX_NESTING + "2" + ")" * MAX_NESTING + "*xy"
        assert parse_poly(text) == parse_poly("2*xy")

    def test_exponent_cap(self):
        with pytest.raises(PolySyntaxError, match="exponent exceeds") as exc:
            parse_poly("y + x^100000000")
        assert exc.value.position == 7
        assert list(parse_poly(f"x^{MAX_EXPONENT}").words()) == ["x" * MAX_EXPONENT]

    def test_integer_digit_cap(self):
        assert MAX_INT_DIGITS <= 4300
        longest = "7" * MAX_INT_DIGITS
        assert parse_scalar(longest) == int(longest)
        with pytest.raises(PolySyntaxError, match="more than 4300 digits") as exc:
            parse_poly("x + 2*" + "7" * 5000 + "*y")
        assert exc.value.position == 7

    def test_json_integer_digit_cap(self):
        longest = "-" + "7" * MAX_INT_DIGITS
        assert parse_json(f"[{longest}]", "matrix") == [int(longest)]
        with pytest.raises(ValueError, match="a JSON integer has more than 4300 digits"):
            parse_json("[" + "7" * (MAX_INT_DIGITS + 1) + "]", "matrix")

    def test_non_ascii_digits(self):
        assert parse_scalar("\u0663") == 3  # ARABIC-INDIC DIGIT THREE
        with pytest.raises(PolySyntaxError, match="column 2"):
            parse_poly("x\u00b2")  # SUPERSCRIPT TWO is a digit but not decimal


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
        assert format_scalar(value) == text
        assert parse_scalar(format_scalar(value)) == value

    def test_round_trip_product_of_roots(self):
        value = sqrt_extend(sc(2)) * sqrt_extend(sc(3))
        assert parse_scalar(format_scalar(value)) == value


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


ROOT2 = sqrt_extend(sc(2))
# rational multiples of these: depth 0 to 2, with a nested radical
RADICALS = (sc(1), ROOT2, sqrt_extend(sc(-1)), 1 + ROOT2, sqrt_extend(1 + ROOT2))
tower_scalars = st.builds(lambda r, s: sc(r) * s, scalars, st.sampled_from(RADICALS))


@st.composite
def polys(draw, coefficients=scalars):
    n = draw(st.integers(min_value=0, max_value=5))
    p = NCPoly.zero()
    for _ in range(n):
        p = p + NCPoly.term(draw(words), sc(draw(coefficients)))
    return p


class TestRoundTrip:
    @given(polys())
    @settings(max_examples=60)
    def test_parse_format_round_trip(self, p):
        assert parse_poly(format_poly(p)) == p

    @given(polys(tower_scalars))
    @settings(max_examples=60)
    def test_tower_coefficients_round_trip(self, p):
        assert parse_poly(format_poly(p)) == p

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=-9, max_value=-1))
    @settings(max_examples=20)
    def test_sqrt_coefficients_round_trip(self, a, b):
        p = NCPoly.term("xy", sqrt_extend(sc(a))) + NCPoly.term("y", sc(b))
        assert parse_poly(format_poly(p)) == p


# Term texts over a few words, so that words repeat, with coefficients that
# are rational, 0 or +-1, or over a tower (nested radicals included).
COEFFICIENT_TEXTS = ("", "1", "(-1)", "0", "2", "3/4", "(-5/6)", "sqrt(2)", "2*sqrt(2)/3",
                     "(1 + sqrt(3))", "sqrt(-1)", "sqrt(1 + sqrt(2))")
term_texts = st.builds(
    lambda coeff, word: f"{coeff}*{word}" if coeff and word else coeff or word or "1",
    st.sampled_from(COEFFICIENT_TEXTS),
    st.sampled_from(("", "x", "y", "xy", "yx", "x^2")),
)


@st.composite
def signed_terms(draw):
    """(sign, term text) pairs; some terms meet their negation elsewhere."""
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), term_texts), min_size=1, max_size=6))
    for sign, text in list(terms):
        if draw(st.booleans()):
            position = draw(st.integers(min_value=0, max_value=len(terms)))
            terms.insert(position, ("-" if sign == "+" else "+", text))
    return terms


@st.composite
def rational_texts(draw, depth=0):
    """(text, value) of a scalar expression in rational text only."""
    if depth == 3 or draw(st.booleans()):
        n = draw(st.integers(min_value=-9, max_value=9))
        return (f"({n})" if n < 0 else str(n)), Fraction(n)
    a, x = draw(rational_texts(depth + 1))
    b, y = draw(rational_texts(depth + 1))
    op = draw(st.sampled_from("+-*/" if y else "+-*"))
    value = {"+": x + y, "-": x - y, "*": x * y, "/": x / y if y else None}[op]
    return f"({a} {op} {b})", value


class TestOnePassParse:
    @given(signed_terms())
    @settings(max_examples=80)
    def test_relation_is_the_sum_of_its_terms(self, terms):
        # the reference is a left-to-right NCPoly sum of the terms parsed one
        # by one: the same coefficient sums in the same order, and a word
        # whose coefficients cancel leaves the dict until a later term
        expected = NCPoly.zero()
        for sign, text in terms:
            expected = expected + parse_poly(f"{sign} {text}")
        p = parse_poly(" ".join(f"{sign} {text}" for sign, text in terms))
        assert p == expected
        assert list(p.words()) == list(expected.words())
        assert format_poly(p) == format_poly(expected)

    @given(rational_texts())
    @settings(max_examples=60)
    def test_rational_text_parses_to_a_scalar(self, case):
        text, value = case
        s = parse_scalar(text)
        assert s.__class__ is Scalar
        assert s == sc(value)
        if value in (-1, 0, 1):
            assert s is sc(int(value))


# A chain of rational factors joined by '*' and '/' with no parentheses
# around it, the word x placed anywhere in it or left out: 1/2/3, 2*x/4,
# x/3, (-3/2)*x, sqrt(4/9)*x.  A factor is a number, a parenthesized
# rational expression, or the root of a rational square.
chain_factors = st.one_of(
    st.integers(min_value=0, max_value=12).map(lambda n: (str(n), Fraction(n))),
    rational_texts(),
    st.builds(lambda p, q: (f"sqrt({p * p}/{q * q})", Fraction(p, q)),
              st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=12)),
)


def fold(value, op, v):
    if value is None or (op == "/" and not v):
        return None
    return value * v if op == "*" else value / v


@st.composite
def factor_chains(draw):
    """(text, value) of a scalar chain and of a term with the word x in it:
    each value is what Fraction folding from the left gives, None after a
    division by zero.  A term may start with x, as in x/3."""
    factors = draw(st.lists(chain_factors, min_size=1, max_size=4))
    ops = draw(st.lists(st.sampled_from("*/"), min_size=len(factors), max_size=len(factors)))
    at = draw(st.integers(min_value=0, max_value=len(factors)))
    term, scalar = ("", Fraction(1)), ("", Fraction(1))
    for i, ((text, v), op) in enumerate(zip(factors, ops)):
        if i == at:
            term = (term[0] + "*x" if term[0] else "x", term[1])
        term = (term[0] + op + text, fold(term[1], op, v)) if term[0] else (text, v)
        scalar = (scalar[0] + op + text, fold(scalar[1], op, v)) if i else (text, v)
    if at == len(factors):
        term = (term[0] + "*x", term[1])
    return term, scalar


class TestNoFloats:
    """A quotient of two integers is one Fraction, never a float: every
    coefficient equals what Fraction folding gives, and every rational
    coefficient is a Scalar over a Fraction."""

    @pytest.mark.parametrize("text, word, value", [
        ("1/2/3", "", Fraction(1, 6)),
        ("(-3/2)*xy", "xy", Fraction(-3, 2)),
        ("x/3", "x", Fraction(1, 3)),
        ("2*x/4", "x", Fraction(1, 2)),
        ("(1/3)*(3/1)", "", 1),
        ("sqrt(4/9)*x", "x", Fraction(2, 3)),
        ("10000000000000000000001/3*y", "y", Fraction(10**22 + 1, 3)),
    ])
    def test_examples(self, text, word, value):
        c = parse_poly(text).coeff(word)
        assert c.tower_depth == 0 and type(c.as_fraction()) is Fraction
        assert c.as_fraction() == value

    @given(factor_chains())
    @settings(max_examples=150)
    def test_chains_fold_as_fractions(self, case):
        for (text, value), parse in zip(case, (parse_poly, parse_scalar)):
            if value is None:
                with pytest.raises(ZeroDivisionError, match="division by zero in scalar text"):
                    parse(text)
                continue
            c = parse(text)
            if parse is parse_poly:
                assert list(c.words()) == (["x"] if value else [])
                c = c.coeff("x")
            assert c.tower_depth == 0 and type(c.as_fraction()) is Fraction
            assert c.as_fraction() == value

    def test_division_by_zero_is_refused(self):
        for parse, text in ((parse_scalar, "1/0"), (parse_poly, "1/0*x"), (parse_poly, "x/(2 - 2)")):
            with pytest.raises(ZeroDivisionError, match="division by zero in scalar text"):
                parse(text)


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
            Mat2(sc(2), sc(1), sc(0), sc(1)), (sc(-1), sc(3)), sc(Fraction(2, 5))
        )
        assert witness_from_document(witness_document(w)) == w

    # One table of malformed documents for both key triples, (block, pair,
    # scalar): (P1, P2, alpha) for a witness, (homogeneous, linear, constant)
    # for a matrix.
    shape_errors = pytest.mark.parametrize("edit, message", [
        (lambda d, b, p, s: d.update({b: d[b][:1]}), "{b} must be 2x2"),
        (lambda d, b, p, s: d.update({b: [["1", "0"], ["0"]]}), "{b} must be 2x2"),
        (lambda d, b, p, s: d.update({b: [["1", 0], ["0", "1"]]}),
         "{b} entries must be scalar text"),
        (lambda d, b, p, s: d.update({p: ["0"]}), "{p} must have 2 entries"),
        (lambda d, b, p, s: d.pop(s), "no '{s}' entry"),
        (lambda d, b, p, s: d.update({s: None}), "{s} entries must be scalar text"),
    ], ids=["one-row", "short-row", "number", "short-column", "missing", "null"])

    @staticmethod
    def check_shape_error(doc, read, keys, edit, message):
        b, p, s = keys
        edit(doc, b, p, s)
        with pytest.raises(ValueError, match=message.format(b=b, p=p, s=s)):
            read(doc)

    @shape_errors
    def test_witness_document_shape_errors_name_the_entry(self, edit, message):
        doc = witness_document(SfWitness.identity())
        keys = ("P1", "P2", "alpha")
        self.check_shape_error(doc, witness_from_document, keys, edit, message)

    @shape_errors
    def test_matrix_document_shape_errors_name_the_entry(self, edit, message):
        doc = matrix_document(matrix_from_coeffs([1, 2, -3, Fraction(1, 2), 0, 5, -1]))
        keys = ("homogeneous", "linear", "constant")
        self.check_shape_error(doc, matrix_from_document, keys, edit, message)

    def test_matrix_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="no 'homogeneous' entry"):
            matrix_from_document([1, 2])

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
        "f, g, applies",
        [
            ("xy - 2yx - 1", "2xy - yx - 1", 1),
            ("x^2", "yx", 2),
            ("yx - xy + y", "yx - xy + y^2 + x", 2),
        ],
        ids=["congruent", "not-isomorphic", "bridge"],
    )
    def test_congruence_report_canonicalizes_each_side_once(self, monkeypatch, f, g, applies):
        """Two canonicalizations per report.  A congruent answer checks only
        its composed witness, one evaluation of the action; any other answer
        checks each side's canonical witness, two."""
        f, g = parse_poly(f), parse_poly(g)
        canonicalize, apply = sfcanon._canonicalize, SfWitness.apply
        calls = Counter()

        def counted_canonicalize(m):
            calls["_canonicalize"] += 1
            return canonicalize(m)

        def counted_apply(self, n):
            calls["apply"] += 1
            return apply(self, n)

        monkeypatch.setattr(sfcanon, "_canonicalize", counted_canonicalize)
        monkeypatch.setattr(SfWitness, "apply", counted_apply)
        congruence_report(f, g)
        assert calls == Counter(_canonicalize=2, apply=applies)

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

    def test_unknown_system_names_the_shipped_fixtures(self):
        listdir = mock.Mock(wraps=os.listdir)
        with mock.patch("quadalg.polyio.os.listdir", listdir):
            with pytest.raises(ValueError) as exc:
                load_system("nope")
        message = "unknown system 'nope'; shipped fixtures: h_kx, h_os, h_sxx, u, v"
        assert str(exc.value) == message
        assert listdir.call_count == 1

    @pytest.mark.parametrize("name", ["h_kx", "h_os", "h_sxx", "u", "v"])
    def test_fixtures_load_and_are_confluent_at_smoke_depth(self, name):
        sys, doc = load_system(name)
        assert doc["relations"]
        assert locally_confluent(sys)

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

    @pytest.mark.parametrize("text, message", [
        ("[1]", "no 'relations' entry"),
        ('{"precedence": "y<x", "relations": [5]}', "list of polynomial texts"),
        ('{"precedence": 5, "relations": []}', "precedence must be"),
        ("[" * 100_000, "nests too deeply"),
    ], ids=["list", "number", "precedence", "deep"])
    def test_malformed_system_file(self, tmp_path, text, message):
        src = tmp_path / "sys.json"
        src.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_system(str(src))

    def test_load_from_path(self, tmp_path):
        src = tmp_path / "sys.json"
        src.write_text('{"precedence": "y<x", "relations": ["xy - yx - y"]}')
        sys, doc = load_system(str(src))
        assert nc_reduce(parse_poly("xy"), sys, 6) == parse_poly("yx + y")

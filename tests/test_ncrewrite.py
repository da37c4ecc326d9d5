"""Noncommutative rewriting: orientation, reduction, overlaps, known identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import quadalg.ncrewrite as ncrewrite
from quadalg.ncrewrite import (
    DegreeBoundError,
    NCPoly,
    NotOrientableError,
    RewriteSystem,
    leading_word,
    locally_confluent,
    orient,
    parse_precedence,
    reduce,
    substitute,
    system_from_relations,
)
from quadalg.polyio import available_systems, load_system, parse_poly
from quadalg.scalar import as_scalar

X = NCPoly.variable("x")
Y = NCPoly.variable("y")
Z = NCPoly.variable("z")

REL_U = Y * X - X * Y + Y
REL_V = Y * X - X * Y + X + Y * Y

PHI = {"x": -Y, "y": X + Y * Y}
PSI = {"x": Y - X * X, "y": -X}


def sys_u():
    return system_from_relations([REL_U], "y<x")


def sys_v():
    return system_from_relations([REL_V], "y<x")


def sys_h_os():
    return system_from_relations(
        [Y * X - Z * Z, X * Z - Z * X, Y * Z - Z * Y], "z<y<x"
    )


def sys_h_sxx():
    return system_from_relations(
        [X * X - Z * Z, X * Z - Z * X, Y * Z - Z * Y], "z<y<x"
    )


def sys_h_kx():
    return system_from_relations([X * X + Y * Z, X * Z - Z * X], "z<x<y")


class TestNCPoly:
    def test_zero_coefficients_dropped(self):
        p = NCPoly({"xy": 1, "yx": 0})
        assert list(p.words()) == ["xy"]
        assert (p - p).is_zero()

    def test_ring_ops(self):
        p = (X + Y) * (X - Y)
        assert p == X * X - X * Y + Y * X - Y * Y
        assert p.degree() == 2
        assert NCPoly.zero().degree() == -1

    def test_noncommutativity(self):
        assert X * Y != Y * X

    def test_alphabet_enforced(self):
        with pytest.raises(ValueError):
            NCPoly({"xw": 1})

    def test_scalar_mixing(self):
        p = 2 * X + X
        assert p == X * 3
        assert p.coeff("x") == 3
        assert (p + 1).coeff("") == 1


class TestOrient:
    def test_u_relation(self):
        lhs, rhs = orient(REL_U, "y<x")
        assert lhs == "xy"
        assert rhs == Y * X + Y

    def test_v_relation(self):
        lhs, rhs = orient(REL_V, "y<x")
        assert lhs == "xy"
        assert rhs == Y * X + Y * Y + X

    def test_centrality(self):
        assert orient(X * Z - Z * X, "z<y<x") == ("xz", Z * X)

    @pytest.mark.parametrize("precedence, letter", [
        ("<y<x", "''"), ("y<<x", "''"), (["xy", "z"], "'xy'"), ("yx<z", "'yx'"),
    ])
    def test_precedence_entries_are_single_letters(self, precedence, letter):
        with pytest.raises(ValueError, match=f"unknown letter {letter} in precedence"):
            parse_precedence(precedence)

    def test_leading_word_respects_precedence(self):
        assert leading_word(X * Y + Y * X, "y<x") == "xy"
        assert leading_word(X * Y + Y * X, "x<y") == "yx"

    def test_nonquadratic_leader_rejected(self):
        with pytest.raises(NotOrientableError):
            orient(X + Y, "y<x")
        with pytest.raises(NotOrientableError):
            orient(X * X * Y - Y, "y<x")

    def test_zero_not_orientable(self):
        with pytest.raises(NotOrientableError):
            orient(NCPoly.zero(), "y<x")

    def test_incompatible_rule_pair_rejected(self):
        # xy -> y^2 needs x above y; yx -> x^2 needs y above x; no
        # precedence satisfies both, so the pair can never terminate
        pair = (("xy", Y * Y), ("yx", X * X))
        for prec in ("y<x", "x<y"):
            with pytest.raises(ValueError):
                RewriteSystem(pair, prec)

    def test_orient_flips_the_offending_relation_instead(self):
        # given as relations, orientation picks the true leading words and
        # produces a terminating system
        sys = system_from_relations([X * Y - Y * Y, Y * X - X * X], "y<x")
        assert set(sys.rules) == {"xy", "xx"}

    def test_termination_validated_at_construction(self):
        with pytest.raises(ValueError, match="'xy' does not dominate its right side"):
            RewriteSystem({"xy": X * Y + Y}, "y<x")

    @pytest.mark.parametrize("pairs, message", [
        ((("xyx", Y),), "rule left sides must be words of length 2"),
        ((("xw", Y),), "letter 'w' is outside the alphabet xyz"),
        ((("xy", Y), ("xy", Y * Y)), "duplicate rule for 'xy'"),
        ((("xy", Y), ("yx", X * Y)), "rule 'yx' does not dominate its right side"),
        ((("xz", X),), "letter 'z' missing from the precedence"),
        ((("xy", Z),), "letter 'z' missing from the precedence"),
    ])
    def test_construction_checks_each_rule(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            RewriteSystem(pairs, "y<x")

    def test_orient_names_a_letter_missing_from_the_precedence(self):
        with pytest.raises(ValueError, match="letter 'z' missing from the precedence"):
            orient(X * Y + Z, "y<x")

    def test_rules_are_one_dict_from_left_to_right_side(self):
        sys = system_from_relations([REL_U, X * Z - Z * X], "z<y<x")
        assert sys.rules == {"xy": Y * X + Y, "xz": Z * X}
        assert RewriteSystem(sys.rules, sys.precedence) == sys


class TestReduce:
    def test_single_step(self):
        assert reduce(X * Y, sys_u(), 6) == Y * X + Y

    def test_normal_form_has_no_redex(self):
        out = reduce(X * Y * X * Y, sys_u(), 8)
        for w in out.words():
            assert "xy" not in w

    def test_relation_reduces_to_zero(self):
        assert reduce(REL_U, sys_u(), 6).is_zero()
        assert reduce(REL_V, sys_v(), 6).is_zero()

    def test_degree_bound_enforced(self):
        with pytest.raises(DegreeBoundError):
            reduce(X * Y * X * Y * X, sys_u(), 4)

    def test_degree_bound_names_the_last_input_word_over_it(self):
        p = X * X * X * X * X + X * Y + Y * Y * Y * Y * Y + Y * X
        with pytest.raises(DegreeBoundError, match="'yyyyy' exceeds the degree bound 4"):
            reduce(p, sys_u(), 4)

    def test_degree_bound_is_tested_before_any_step(self, monkeypatch):
        monkeypatch.setattr(ncrewrite, "MAX_REWRITE_STEPS", 0)
        with pytest.raises(DegreeBoundError):
            reduce(X * Y * X * Y * X, sys_u(), 4)

    def test_step_cap_counts_stack_pops(self, monkeypatch):
        # xy -> yx + y: xy, then y and yx, are three pops
        monkeypatch.setattr(ncrewrite, "MAX_REWRITE_STEPS", 3)
        assert reduce(X * Y, sys_u(), 6) == Y * X + Y
        monkeypatch.setattr(ncrewrite, "MAX_REWRITE_STEPS", 2)
        with pytest.raises(ValueError, match="more than 2 steps") as refused:
            reduce(X * Y, sys_u(), 6)
        assert type(refused.value) is ValueError

    def test_idempotent(self):
        p = X * Y * Y - 3 * Y * X + X
        once = reduce(p, sys_v(), 6)
        assert reduce(once, sys_v(), 6) == once

    def test_linear(self):
        p, q = X * Y * X, Y * X * Y + X
        a, b = as_scalar(3), as_scalar(Fraction(-1, 2))
        lhs = reduce(p * a + q * b, sys_u(), 6)
        rhs = reduce(p, sys_u(), 6) * a + reduce(q, sys_u(), 6) * b
        assert lhs == rhs


class TestSubstitute:
    def test_identity_map(self):
        p = X * Y - 2 * Y * X + Z
        assert substitute({}, p) == p

    def test_phi_sends_u_relation_to_v_relation(self):
        img = substitute(PHI, REL_U)
        assert img == -X * Y + Y * X + X + Y * Y
        assert reduce(img, sys_v(), 6).is_zero()

    def test_psi_sends_v_relation_to_u_relation(self):
        img = substitute(PSI, REL_V)
        assert img == REL_U
        assert reduce(img, sys_u(), 6).is_zero()

    def test_round_trips_fix_generators(self):
        for letter, var in (("x", X), ("y", Y)):
            there = substitute(PHI, NCPoly.variable(letter))
            back = substitute(PSI, there)
            assert reduce(back, sys_u(), 6) == var
            there = substitute(PSI, NCPoly.variable(letter))
            back = substitute(PHI, there)
            assert reduce(back, sys_v(), 6) == var


class TestConfluenceSmoke:
    def test_single_rule_no_overlap(self):
        assert locally_confluent(sys_u())

    def test_h_os_overlap_resolves(self):
        sys = sys_h_os()
        assert locally_confluent(sys)
        # the overlap word itself lands on z^3 both ways
        assert reduce(Y * X * Z, sys, 6) == Z * Z * Z

    def test_h_sxx_passes(self):
        assert locally_confluent(sys_h_sxx())

    def test_broken_system_detected(self):
        sys = RewriteSystem({"xy": X, "yx": Y}, "y<x")
        assert not locally_confluent(sys)

    def test_broken_system_has_no_degree_cap_to_hide_behind(self):
        # a cap of 2 once skipped both overlaps (xyx, yxy) and passed this system
        sys = RewriteSystem({"xy": X, "yx": Y}, "y<x")
        with pytest.raises(TypeError):
            locally_confluent(sys, 2)

    def test_self_overlap_checked(self):
        # xxx rewrites to yx and to xy, two different normal forms
        assert not locally_confluent(RewriteSystem({"xx": Y}, "y<x"))

    def test_kx_system_has_no_overlaps(self):
        assert locally_confluent(sys_h_kx())


class TestZeroDivisorIdentities:
    def test_os_zero_divisor_identity(self):
        # y annihilates xy - z^2 in the homogenized form of yx - 1
        sys = sys_h_os()
        assert reduce(Y * (X * Y - Z * Z), sys, 6).is_zero()

    def test_sxx_zero_divisor_identity(self):
        sys = sys_h_sxx()
        assert reduce((X + Z) * (X - Z), sys, 6).is_zero()

    def test_kx_zero_divisor_identity(self):
        sys = sys_h_kx()
        assert reduce((X * Y - Y * X) * Z, sys, 6).is_zero()


words = st.text(alphabet="xy", min_size=0, max_size=4)
coeffs = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60)
@given(ts=st.dictionaries(words, coeffs, max_size=5))
def test_reduce_idempotent_property(ts):
    p = NCPoly(ts)
    sys = sys_v()
    once = reduce(p, sys, 8)
    assert reduce(once, sys, 8) == once


@settings(max_examples=60)
@given(
    t1=st.dictionaries(words, coeffs, max_size=4),
    t2=st.dictionaries(words, coeffs, max_size=4),
    a=coeffs,
    b=coeffs,
)
def test_reduce_linear_property(t1, t2, a, b):
    p, q = NCPoly(t1), NCPoly(t2)
    sys = sys_u()
    lhs = reduce(p * a + q * b, sys, 8)
    rhs = reduce(p, sys, 8) * a + reduce(q, sys, 8) * b
    assert lhs == rhs


def leftmost_reference(p, sys):
    """The plain reducer that `reduce` must agree with: pop a word, scan it
    from its first letter for the leftmost redex and push each term of the
    rewrite in order; sum the words that have no redex.  No step cap."""
    out = {}
    stack = list(p.terms())
    while stack:
        word, coeff = stack.pop()
        for i in range(len(word) - 1):
            rhs = sys.rules.get(word[i : i + 2])
            if rhs is not None:
                for w2, c2 in rhs.terms():
                    stack.append((word[:i] + w2 + word[i + 2 :], coeff * c2))
                break
        else:
            out[word] = out[word] + coeff if word in out else coeff
    return NCPoly(out)


# each shipped system, with the longest word drawn over its letters; one
# system whose rule carries a tower coefficient
REFERENCE_SYSTEMS = {
    name: (load_system(name)[0], {"u": 9, "v": 6}.get(name, 10))
    for name in available_systems()
}
REFERENCE_SYSTEMS["tower"] = (
    system_from_relations([parse_poly("yx - sqrt(2)*xy + y")], "y<x"), 7
)


@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
@settings(max_examples=100)
@given(data=st.data())
def test_reduce_matches_the_leftmost_reference(name, data):
    # words alone and sums of up to four words; equal term lists, order included
    sys, longest = REFERENCE_SYSTEMS[name]
    word = st.text(alphabet="".join(sys.precedence), max_size=longest)
    terms = data.draw(st.one_of(
        word.map(lambda w: {w: 1}),
        st.dictionaries(word, st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
    ))
    p = NCPoly(terms)
    assert list(reduce(p, sys, longest).terms()) == list(leftmost_reference(p, sys).terms())

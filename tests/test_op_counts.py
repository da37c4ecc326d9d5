"""Deterministic guards on the cost of canonicalization: operations are
counted instead of timed, so the bounds hold on any host.

The rational corpus is fixed: five orbit samples (random.Random(k),
k = 0-4) of each of the eleven canonical matrices, with q = 3 for the
parametric classes.  Every input entry is rational, so nearly all of the
arithmetic is depth-0 Scalar arithmetic on Fractions (a few witnesses take
one square root).  Before 0, 1 and -1 were shared constants that the Scalar
operators skip, canonicalizing this corpus took 19,334 of the counted
Fraction operations, 8,457 while orbit samples still drew their whole
entries as Fractions, 6,517 while the canonicalizer applied each stage
to the matrix besides composing it into the witness, 4,779 while
`sf_canonicalize` tested every input for a literal canonical matrix before
canon2 made the same test of its block, and 4,612 while canon2 checked its
own block witness and ran that literal test ahead of its branches; a change
that sends trivial products and sums back through Fraction, re-applies the
stages or checks the block twice makes the count pass the bound.  It took
3,843 while the witness check of a rational witness multiplied `Mat3`s of
Scalars, 2,210 once that check became a product of integer matrices over
cleared denominators whose seven results give 0, 1 and -1 as the shared
constants (the orbit samples, which `SfWitness.apply` computes, gain them
too), 1,771 once the check of a witness whose towers have only
rational radicands (the few with one square root) became an integer
product too, and 1,617 once `then`, `inverse`, `scaling` and `_shift`
built their witnesses without the public constructor's determinant test;
a change that sends such a check back through Scalar products, or takes
those determinants again, passes the bound.

The tower corpus is the 54 relations of the `canon` cases in
`data/cli_golden_towers.json`, whose coefficients mix sqrt(2), sqrt(3) and
sqrt(-1); the tower budget refuses one of them.  Canonicalizing them took
294 tower merges and 1,589 root enclosures (`_root_candidate`) while the
witness check merged towers entry by entry and every root ball was
computed afresh, 229 and 148 while the stages were also applied to the
matrix (139 calls of a closed-form congruence), 187 and 134 while canon2
checked its block witness too, 165 and 133 while a check over towers with
only rational radicands lifted the 18 entries of the embedded matrices and
merged alpha's tower into each of the seven results (one check did so),
158 and 131 once it lifts the 14 entries of P, n and alpha together, and
149 and 127 once composed, inverted, scaled and shifted witnesses skipped
the determinant test; a change that brings any of these back passes the
bounds.  The same
canonicalizations took 224,648 of the counted Fraction operations while
the leaf products of the tower recursion multiplied zero leaves too,
147,248 once a zero leaf became its own product, 138,639 once canon2
stopped checking its block, 124,507 once a merge placed values under the
roots it admits instead of multiplying by them, 115,131 once a rational
radicand multiplied through the general product, which skips zero
leaves, instead of scaling every slot, 111,514 once the check of a
witness whose towers have only rational radicands multiplied integer
combinations of products of roots instead of Scalars, and 100,015 once
composed witnesses skipped the determinant test; a change that
multiplies zero leaves again, multiplies by an admitted root again,
scales by a rational radicand again, sends such a check back through
Scalar products or takes those determinants again passes that bound.

Parsing the same 54 relations built 579 NCPoly objects while `parse_poly`
made a polynomial of each term and of each partial sum, and 54 once it
added the terms into one dict; a change that builds more than one NCPoly
per relation fails that count.

`sf_canonicalize` reaches its stages from canon2's output and checks the
composed witness once, with `verify_witness`; so on either corpus it makes
exactly one `SfWitness.apply` call per canonicalization that returns, and
that call comes from `verify_witness`.  canon2 does not check its block
itself, so the one lift onto a common tower (`on_one_tower`) per check with
an entry over a tower is the one inside that `apply`; a check whose
entries are all rational lifts nothing.

The public `SfWitness` constructor tests det(P1) on every witness it
builds; `then`, `inverse`, `scaling` and `_shift` build theirs without the
test, since their P1 is invertible by construction.  So canonicalizing the
tower corpus and inverting each witness takes a determinant only in canon2,
in the constructor for canon2's P1 and for the explicit stages of
`_stage2`, and in `Mat2.inverse`; none comes from composing, inverting,
scaling or shifting a witness.

Run as a script, with `src` on PYTHONPATH, the file prints the counts the
bounds are pinned to, so they can be re-measured without pytest:

    PYTHONPATH=src python tests/test_op_counts.py
"""

import json
import random
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import quadalg.scalar as scalar
from quadalg.algebra import sf_from_poly
from quadalg.matrix import Mat2, coeffs_from_matrix
from quadalg.ncrewrite import NCPoly
from quadalg.polyio import parse_poly
from quadalg.scalar import TowerDepthError
from quadalg.sfcanon import (
    CANONICAL_TAGS,
    CanonicalClass,
    SfWitness,
    canonical_matrix,
    orbit_sample,
    sf_canonicalize,
)

ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
BOUND = 1617
TOWER_FRACTION_BOUND = 100_015
TOWER_BOUNDS = {"_merge_towers": 149, "_root_candidate": 127}
GOLDEN_TOWERS = Path(__file__).resolve().parent / "data" / "cli_golden_towers.json"


def corpus():
    """(tag, matrix) for the 55 orbit samples."""
    out = []
    for tag in CANONICAL_TAGS:
        q = 3 if tag in CanonicalClass.PARAMETRIC else None
        m = canonical_matrix(CanonicalClass(tag, q))
        out += [(tag, orbit_sample(m, random.Random(k))) for k in range(5)]
    return out


@contextmanager
def counting(target, names):
    """Count calls of the named methods of a class, or functions of a
    module, while the block runs."""
    counts = Counter()

    def counted(name):
        function = getattr(target, name)

        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    with mock.patch.multiple(target, **{name: counted(name) for name in names}):
        yield counts


def test_counting_sees_fraction_arithmetic():
    with counting(Fraction, ARITHMETIC) as counts:
        Fraction(1, 2) * 3 + 1 - Fraction(1, 3)
        1 / Fraction(2)
    assert counts == Counter(__mul__=1, __add__=1, __sub__=1, __rtruediv__=1)


def rational_counts():
    """Fraction operations of canonicalizing the rational corpus, each
    sample into the class it was drawn from."""
    cases = corpus()
    assert len(cases) == 55
    with counting(Fraction, ARITHMETIC) as counts:
        classes = [sf_canonicalize(m)[0] for _, m in cases]
    assert [cls.tag for cls in classes] == [tag for tag, _ in cases]
    return counts


def test_canonicalization_fraction_operations_are_bounded():
    counts = rational_counts()
    assert 0 < sum(counts.values()) <= BOUND, counts


def tower_relations():
    cases = json.loads(GOLDEN_TOWERS.read_text())
    return [case["argv"][1] for case in cases if case["argv"][0] == "canon"]


def tower_counts():
    """(merge and enclosure calls, Fraction operations) of canonicalizing
    the tower corpus."""
    matrices = [sf_from_poly(parse_poly(text)) for text in tower_relations()]
    assert len(matrices) == 54
    refused = 0
    with counting(scalar, tuple(TOWER_BOUNDS)) as counts, \
            counting(Fraction, ARITHMETIC) as fraction_ops:
        for m in matrices:
            try:
                sf_canonicalize(m)
            except TowerDepthError:
                refused += 1
    assert refused == 1
    return counts, fraction_ops


def test_tower_merges_and_root_enclosures_are_bounded():
    counts, fraction_ops = tower_counts()
    for name, bound in TOWER_BOUNDS.items():
        assert 0 < counts[name] <= bound, counts
    assert 0 < sum(fraction_ops.values()) <= TOWER_FRACTION_BOUND, fraction_ops


def parse_counts():
    """NCPoly constructions of parsing the tower corpus."""
    with counting(NCPoly, ("__init__",)) as counts:
        for text in tower_relations():
            parse_poly(text)
    return counts["__init__"]


def test_parsing_builds_one_polynomial_per_relation():
    assert parse_counts() == len(tower_relations()) == 54


def test_canonicalization_applies_the_witness_once():
    matrices = [m for _, m in corpus()]
    matrices += [sf_from_poly(parse_poly(text)) for text in tower_relations()]
    apply, lift = SfWitness.apply, scalar.on_one_tower
    callers, lifters = Counter(), Counter()
    tower_checks = 0

    def counted(self, n):
        nonlocal tower_checks
        callers[sys._getframe(1).f_code.co_name] += 1
        entries = (*self.linear.entries(), *self.translation, self.scale,
                   *coeffs_from_matrix(n))
        tower_checks += any(x.tower_depth for x in entries)
        return apply(self, n)

    def counted_lift(values):
        lifters[sys._getframe(1).f_code.co_name] += 1
        return lift(values)

    # every module that imported the function binds it under its own name
    lifting = [module for name, module in sys.modules.items()
               if name.startswith("quadalg") and getattr(module, "on_one_tower", None) is lift]
    returned = 0
    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(SfWitness, "apply", counted))
        for module in lifting:
            patches.enter_context(mock.patch.object(module, "on_one_tower", counted_lift))
        for m in matrices:
            try:
                sf_canonicalize(m)
            except TowerDepthError:
                continue
            returned += 1
    assert returned == len(matrices) - 1
    assert callers == Counter(verify_witness=returned)
    assert 0 < tower_checks < returned
    assert lifters == Counter(apply=tower_checks)


def test_composition_takes_no_determinant():
    matrices = [sf_from_poly(parse_poly(text)) for text in tower_relations()]
    det, constructor = Mat2.det, SfWitness.__init__.__code__
    callers = Counter()

    def counted(self):
        caller = sys._getframe(1)
        if caller.f_code is constructor:
            callers["SfWitness in " + caller.f_back.f_code.co_name] += 1
        else:
            callers[caller.f_code.co_name] += 1
        return det(self)

    with mock.patch.object(Mat2, "det", counted):
        for m in matrices:
            try:
                witness = sf_canonicalize(m)[2]
            except TowerDepthError:
                continue
            witness.inverse()
    # "inverse" is Mat2.inverse, which needs the determinant it divides by
    assert callers == Counter({
        "canon2": 54, "SfWitness in _canonicalize": 54, "SfWitness in _stage2": 2,
        "inverse": 53,
    })


if __name__ == "__main__":
    print("rational corpus Fraction operations:", sum(rational_counts().values()))
    counts, fraction_ops = tower_counts()
    print("tower corpus Fraction operations:", sum(fraction_ops.values()))
    for name in TOWER_BOUNDS:
        print(f"tower corpus {name} calls:", counts[name])
    print("tower corpus NCPoly constructions when parsing:", parse_counts())

"""A deterministic guard on the cost of canonicalization: Fraction operations
are counted instead of timed, so the bound holds on any host.

The corpus is fixed: five orbit samples (random.Random(k), k = 0-4) of each
of the eleven canonical matrices, with q = 3 for the parametric classes.
Every input entry is rational, so nearly all of the arithmetic is depth-0
Scalar arithmetic on Fractions (a few witnesses take one square root).
Before 0, 1 and -1 were shared constants that the Scalar operators skip,
canonicalizing this corpus took 19,334 of the counted Fraction operations;
a change that sends trivial products and sums back through Fraction makes
the count pass the bound.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from quadalg.sfcanon import (
    CANONICAL_TAGS,
    CanonicalClass,
    canonical_matrix,
    orbit_sample,
    sf_canonicalize,
)

ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
BOUND = 8457


def corpus():
    """(tag, matrix) for the 55 orbit samples."""
    out = []
    for tag in CANONICAL_TAGS:
        q = 3 if tag in CanonicalClass.PARAMETRIC else None
        m = canonical_matrix(CanonicalClass(tag, q))
        out += [(tag, orbit_sample(m, random.Random(k))) for k in range(5)]
    return out


@contextmanager
def counting(names):
    """Count calls of the named Fraction methods while the block runs."""
    counts = Counter()

    def counted(name):
        method = getattr(Fraction, name)

        def wrapper(*args):
            counts[name] += 1
            return method(*args)

        return wrapper

    with mock.patch.multiple(Fraction, **{name: counted(name) for name in names}):
        yield counts


def test_counting_sees_fraction_arithmetic():
    with counting(ARITHMETIC) as counts:
        Fraction(1, 2) * 3 + 1 - Fraction(1, 3)
        1 / Fraction(2)
    assert counts == Counter(__mul__=1, __add__=1, __sub__=1, __rtruediv__=1)


def test_canonicalization_fraction_operations_are_bounded():
    cases = corpus()
    assert len(cases) == 55
    with counting(ARITHMETIC) as counts:
        classes = [sf_canonicalize(m)[0] for _, m in cases]
    assert [cls.tag for cls in classes] == [tag for tag, _ in cases]
    assert 0 < sum(counts.values()) <= BOUND, counts

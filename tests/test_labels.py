"""The shared label type: exact equality per family, q ~ 1/q, no hashing."""

import pytest

from quadalg.algebra import AlgebraClass, HClass
from quadalg.congruence2 import Canon2Label, reciprocal_equivalent
from quadalg.scalar import sqrt_extend
from quadalg.sfcanon import CanonicalClass

# (family, a parametric tag, a tag without q)
FAMILIES = [
    (Canon2Label, "Q", "JORDAN"),
    (CanonicalClass, "QWEYL", "JORDAN"),
    (AlgebraClass, "WEYL_Q", "JORDAN"),
    (HClass, "H_WEYL", "H_JORDAN"),
]
IDS = [family.__name__ for family, _, _ in FAMILIES]

Q = 1 + sqrt_extend(2)


@pytest.mark.parametrize("family, ptag, tag", FAMILIES, ids=IDS)
def test_families_never_agree(family, ptag, tag):
    twin = type("Twin", (family,), {})
    assert family(tag) == family(tag)
    assert family(tag) != twin(tag)
    assert not reciprocal_equivalent(family(tag), twin(tag))
    for other, _, _ in FAMILIES:
        if other is not family and tag in other.TAGS:
            assert family(tag) != other(tag)
            assert other(tag) != family(tag)
            assert not reciprocal_equivalent(family(tag), other(tag))


@pytest.mark.parametrize("family, ptag, tag", FAMILIES, ids=IDS)
def test_q_is_identified_with_its_inverse_only(family, ptag, tag):
    label = family(ptag, Q)
    inverse = family(ptag, 1 / Q)
    assert label != inverse
    assert reciprocal_equivalent(label, inverse)
    assert reciprocal_equivalent(inverse, label)
    assert not reciprocal_equivalent(label, family(ptag, 3 * Q))
    assert str(label) == f"{ptag}(1 + sqrt(2))"


@pytest.mark.parametrize("family, ptag, tag", FAMILIES, ids=IDS)
def test_labels_are_unhashable(family, ptag, tag):
    for label in (family(tag), family(ptag, Q)):
        with pytest.raises(TypeError):
            hash(label)


def test_via_v_is_seen_by_equality_only():
    plain, via_v = AlgebraClass("U"), AlgebraClass("U", via_v=True)
    assert plain != via_v
    assert via_v == AlgebraClass("U", None, True)
    assert reciprocal_equivalent(plain, via_v)
    assert not reciprocal_equivalent(via_v, AlgebraClass("JORDAN"))

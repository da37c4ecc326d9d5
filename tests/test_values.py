"""The immutable value classes: read-only fields, field-wise equality within
one class, no hashing, and keyword checking, as each class promises.  Every
one of them gets these from the one base, quadalg._value.Value."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import quadalg
from quadalg._value import Value
from quadalg.algebra import AlgebraClass
from quadalg.congruence2 import Canon2Label
from quadalg.matrix import Mat2, Mat3, StdFormMatrix
from quadalg.ncrewrite import NCPoly, RewriteSystem, orient
from quadalg.scalar import Enclosure, sqrt_extend
from quadalg.sfcanon import SfWitness

X, Y = NCPoly.variable("x"), NCPoly.variable("y")
R2 = sqrt_extend(2)


def std(c=1):
    return StdFormMatrix(Mat2(0, -1, 1, 0), (0, 1), c)


# (class, its constructor keywords = its fields, factory of a value, factory
# of an unequal value); two calls of a factory give equal, distinct objects
CASES = [
    (Canon2Label, ("tag", "q"), lambda: Canon2Label("Q", R2),
     lambda: Canon2Label("Q", 1 / R2)),
    (AlgebraClass, ("tag", "q", "via_v"), lambda: AlgebraClass("U", via_v=True),
     lambda: AlgebraClass("U")),
    (Mat2, ("a", "b", "c", "d"), lambda: Mat2(1, R2, 0, 1), lambda: Mat2(1, -R2, 0, 1)),
    (Mat3, ("rows",), lambda: Mat3(((1, 0, R2), (0, 1, 0), (0, 0, 1))),
     lambda: Mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))),
    (StdFormMatrix, ("hom", "lin", "const"), std, lambda: std(2)),
    (RewriteSystem, ("rules", "precedence"),
     lambda: RewriteSystem([orient(X * Y - Y * X, "y<x")], "y<x"),
     lambda: RewriteSystem([], "y<x")),
    (Enclosure, ("re", "im", "rad"),
     lambda: Enclosure(Fraction(1), Fraction(0), Fraction(1, 10)),
     lambda: Enclosure(Fraction(1), Fraction(0), Fraction(1, 20))),
    (SfWitness, ("linear", "translation", "scale"),
     lambda: SfWitness(Mat2(1, 1, 0, 1), (R2, 0), R2),
     lambda: SfWitness(Mat2(1, 1, 0, 1), (R2, 0), -R2)),
]
IDS = [cls.__name__ for cls, *_ in CASES]


@pytest.mark.parametrize("cls, fields, make, other", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, make, other):
    value, replacement = make(), other()
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(replacement, name))
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls, fields, make, other", CASES, ids=IDS)
def test_equality_is_field_wise(cls, fields, make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other() and other() != a
    assert cls(**{name: getattr(a, name) for name in fields}) == a
    assert cls.__eq__(a, object()) is NotImplemented
    assert a != None  # noqa: E711


@pytest.mark.parametrize("cls, fields, make, other", CASES, ids=IDS)
def test_hashing(cls, fields, make, other):
    if cls is Enclosure:
        # rational data: equal enclosures hash alike
        assert hash(make()) == hash(make())
        return
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("cls, fields, make, other", CASES, ids=IDS)
def test_unknown_keyword_is_a_type_error(cls, fields, make, other):
    value = make()
    with pytest.raises(TypeError):
        cls(**{name: getattr(value, name) for name in fields}, bogus=1)


@pytest.mark.parametrize("value", [R2, NCPoly({"xy": R2})], ids=["Scalar", "NCPoly"])
def test_scalar_and_poly_are_read_only_and_do_not_hash(value):
    slot = type(value).__slots__[0]
    before = getattr(value, slot)
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, slot, before)
    with pytest.raises(AttributeError, match="is immutable"):
        value.extra = 1
    assert type(value).__hash__ is None
    with pytest.raises(TypeError):
        hash(value)


def package_classes():
    """(qualified name, class) of every class defined in a quadalg module."""
    names = [m.name for m in pkgutil.iter_modules(quadalg.__path__) if m.name != "__main__"]
    assert len(names) > 5
    for name in names:
        module = importlib.import_module(f"quadalg.{name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                yield f"{module.__name__}.{cls.__qualname__}", cls


def test_only_the_base_defines_setattr():
    offenders = [name for name, cls in package_classes()
                 if cls is not Value and "__setattr__" in vars(cls)]
    assert not offenders


def test_every_value_class_declares_slots():
    """A subclass without its own __slots__ gives each instance a __dict__."""
    values = [(name, cls) for name, cls in package_classes() if issubclass(cls, Value)]
    offenders = [name for name, cls in values if "__slots__" not in vars(cls)]
    assert len(values) > 10 and not offenders


def test_reprs_name_the_fields():
    assert repr(Canon2Label("Q", 2)) == "Canon2Label(tag='Q', q=Scalar(2))"
    assert repr(AlgebraClass("U")) == "AlgebraClass(tag='U', q=None, via_v=False)"
    assert repr(SfWitness(Mat2.identity(), scale=3)) == (
        "SfWitness(linear=Mat2([[1, 0], [0, 1]]), "
        "translation=(Scalar(0), Scalar(0)), scale=Scalar(3))"
    )

"""Names for two-generator quadratic algebras and their homogenizations.

A degree-two relation f presents the algebra on x and y with the single
relation f.  Affine substitutions of the generators change the defining
matrix by standard-form congruence, so the canonical class of that matrix
names the algebra.  One collapse is not affine: the UFORM and VFORM classes
present the same algebra, glued by a quadratic substitution pair whose
correctness is checked here by rewriting rather than assumed.

Adjoining a central generator z with relations xz - zx and yz - zy turns f
into a homogeneous relation (linear terms pick up a z, the constant becomes
z^2).  At the matrix level this is the identity: the standard-form matrix of
f already is the defining matrix of the homogenized algebra.  For these
three-generator algebras the eleven canonical classes stay pairwise distinct;
in particular UFORM and VFORM no longer merge.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import lru_cache

from ._value import Value
from .congruence2 import Label, reciprocal_equivalent
from .matrix import (
    DegreeError,
    Mat2,
    Mat3,
    PAffine,
    StdFormMatrix,
    coeffs_from_matrix,
    matrix_from_coeffs,
)
from .ncrewrite import (
    NCPoly,
    reduce,
    substitute,
    system_from_relations,
)
from .scalar import Scalar, as_scalar
from .sfcanon import (
    CanonicalClass,
    SfWitness,
    canonical_matrix,
    sf_canonicalize,
    sf_compare,
)

__all__ = [
    "ALGEBRA_NAMES",
    "H_CLASS_NAMES",
    "ENVV_BRIDGE",
    "X_COMMUTATION",
    "Y_COMMUTATION",
    "AlgebraClass",
    "HClass",
    "HTriple",
    "algebra_of_class",
    "classify",
    "classify_h",
    "h_class_of",
    "homogenize",
    "homogeneous_poly_from_sf",
    "iso_check",
    "poly_from_sf",
    "qas_iso",
    "sf_from_poly",
    "verified_uv_bridge",
    "xy_combination_coefficients",
    "xy_linear_combination_check",
]


# --- polynomial / matrix bridge -------------------------------------------

_AFFINE_WORDS = ("xx", "xy", "yx", "yy", "x", "y", "")


def sf_from_poly(f: NCPoly) -> StdFormMatrix:
    """Standard-form coefficient matrix of a degree-two polynomial in x, y."""
    if not isinstance(f, NCPoly):
        raise TypeError("expected an NCPoly")
    if f.degree() != 2:
        raise DegreeError("the defining relation must have degree exactly two")
    for w in f.words():
        if "z" in w:
            raise ValueError("a two-generator relation may only use x and y")
    return matrix_from_coeffs(tuple(f.coeff(w) for w in _AFFINE_WORDS))


def poly_from_sf(m: StdFormMatrix) -> NCPoly:
    """Polynomial in x, y with the affine slots read as x, y and 1."""
    return NCPoly(dict(zip(_AFFINE_WORDS, coeffs_from_matrix(m))))


def homogeneous_poly_from_sf(m: StdFormMatrix) -> NCPoly:
    """Polynomial in x, y, z with the affine slots read as xz, yz and z^2."""
    a, b, c, d, u, v, n = coeffs_from_matrix(m)
    return NCPoly({"xx": a, "xy": b, "yx": c, "yy": d, "xz": u, "yz": v, "zz": n})


# --- algebra names ---------------------------------------------------------

# canonical class tag -> (algebra name, homogenized-algebra name)
_NAMES: dict[str, tuple[str, str]] = {
    "QPLANE": ("OQ", "H_OQ"),
    "QWEYL": ("WEYL_Q", "H_WEYL"),
    "JORDAN": ("JORDAN", "H_JORDAN"),
    "JORDAN1": ("JORDAN1", "H_SJORDAN"),
    "UFORM": ("U", "H_ENV"),
    "VFORM": ("U", "H_ENVV"),
    "X2": ("RX2", "H_X2"),
    "X2_MINUS1": ("RX2M1", "H_SX2"),
    "YX": ("RYX", "H_YX"),
    "S": ("S", "H_OS"),
    "KX": ("KX", "H_KX"),
}

ALGEBRA_NAMES = tuple(dict.fromkeys(a for a, _ in _NAMES.values()))
H_CLASS_NAMES = tuple(h for _, h in _NAMES.values())


class AlgebraClass(Label):
    """Algebra name with optional parameter; via_v records a VFORM arrival.

    via_v takes part in ==, but not in reciprocal_equivalent: it records how
    the class was reached, not which algebra it is.
    """

    TAGS = ALGEBRA_NAMES
    PARAMETRIC = tuple(_NAMES[t][0] for t in CanonicalClass.PARAMETRIC)

    __slots__ = ("via_v",)

    def __init__(self, tag: str, q: Scalar | None = None, via_v: bool = False):
        super().__init__(tag, q)
        if via_v and tag != "U":
            raise ValueError("via_v marks only the U family")
        object.__setattr__(self, "via_v", via_v)


def algebra_of_class(cls: CanonicalClass) -> AlgebraClass:
    return AlgebraClass(_NAMES[cls.tag][0], cls.q, via_v=(cls.tag == "VFORM"))


def classify(f: NCPoly) -> AlgebraClass:
    """Name the algebra presented by the degree-two relation f."""
    cls, _, _ = sf_canonicalize(sf_from_poly(f))
    return algebra_of_class(cls)


# --- the non-affine UFORM/VFORM glue ---------------------------------------

_X = NCPoly.variable("x")
_Y = NCPoly.variable("y")

U_RELATION = poly_from_sf(canonical_matrix(CanonicalClass("UFORM")))
V_RELATION = poly_from_sf(canonical_matrix(CanonicalClass("VFORM")))

# Degree-two substitution pair carrying each relation into the other's ideal.
U_TO_V = {"x": -_Y, "y": _X + _Y * _Y}
V_TO_U = {"x": _Y - _X * _X, "y": -_X}

ENVV_BRIDGE = "envv-bridge"

_BRIDGE_BOUND = 8


@lru_cache(maxsize=1)
def verified_uv_bridge() -> bool:
    """Rewriting check that the UFORM/VFORM substitution pair is an isomorphism.

    Each map must send the source relation into the target ideal, and both
    round trips must fix the generators modulo the respective ideal.
    """
    sys_u = system_from_relations([U_RELATION], "y<x")
    sys_v = system_from_relations([V_RELATION], "y<x")
    if not reduce(substitute(U_TO_V, U_RELATION), sys_v, _BRIDGE_BOUND).is_zero():
        return False
    if not reduce(substitute(V_TO_U, V_RELATION), sys_u, _BRIDGE_BOUND).is_zero():
        return False
    for letter in ("x", "y"):
        gen = NCPoly.variable(letter)
        round_u = substitute(V_TO_U, U_TO_V[letter]) - gen
        if not reduce(round_u, sys_u, _BRIDGE_BOUND).is_zero():
            return False
        round_v = substitute(U_TO_V, V_TO_U[letter]) - gen
        if not reduce(round_v, sys_v, _BRIDGE_BOUND).is_zero():
            return False
    return True


Evidence = SfWitness | str | None


def iso_check(f: NCPoly, g: NCPoly) -> tuple[bool, Evidence]:
    """Decide isomorphism of the algebras presented by f and g.

    Evidence is a verified affine witness when the defining matrices are
    sf-congruent, or the bridge token when exactly one side lands on VFORM.
    """
    cls_f, cls_g, witness = sf_compare(sf_from_poly(f), sf_from_poly(g))
    if witness is not None:
        return True, witness
    if reciprocal_equivalent(algebra_of_class(cls_f), algebra_of_class(cls_g)):
        # only a UFORM/VFORM pairing reaches here
        if not verified_uv_bridge():
            raise AssertionError("substitution pair failed its rewriting check")
        return True, ENVV_BRIDGE
    return False, None


# --- homogenization --------------------------------------------------------

X_COMMUTATION = Mat3(((0, 0, 1), (0, 0, 0), (-1, 0, 0)))
Y_COMMUTATION = Mat3(((0, 0, 0), (0, 0, 1), (0, -1, 0)))


class HTriple(Value):
    """Three-generator presentation: the relation, read with z in the affine
    slots (so it is homogeneous by construction), beside the two fixed
    commutation forms X_COMMUTATION and Y_COMMUTATION.
    """

    __slots__ = ("relation",)

    def __init__(self, relation: StdFormMatrix):
        if relation.hom.is_zero():
            raise ValueError("the quadratic block of the relation must be nonzero")
        object.__setattr__(self, "relation", relation)

    def relation_poly(self) -> NCPoly:
        return homogeneous_poly_from_sf(self.relation)

    def dehomogenized(self) -> NCPoly:
        return poly_from_sf(self.relation)


def homogenize(f: NCPoly) -> HTriple:
    """Homogenize a degree-two relation by the central generator z."""
    return HTriple(relation=sf_from_poly(f))


class HClass(Label):
    """Name of a homogenized algebra; eleven names, two carry a parameter."""

    __slots__ = ()

    TAGS = H_CLASS_NAMES
    PARAMETRIC = tuple(_NAMES[t][1] for t in CanonicalClass.PARAMETRIC)


def h_class_of(cls: CanonicalClass) -> HClass:
    return HClass(_NAMES[cls.tag][1], cls.q)


def classify_h(t: HTriple) -> HClass:
    """Name the homogenized algebra presented by the triple."""
    cls, _, _ = sf_canonicalize(t.relation)
    return h_class_of(cls)


# --- commutation forms under substitution ----------------------------------


def _transformed_commutation_forms(p: PAffine) -> tuple[Mat3, Mat3]:
    pe = p.embed()
    pt = pe.transpose()
    return pt * X_COMMUTATION * pe, pt * Y_COMMUTATION * pe


def xy_combination_coefficients(
    p: PAffine,
) -> tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]:
    """Coefficients expressing the fixed forms in terms of their transforms.

    Returns ((r, s), (r', s')) with r*U + s*V and r'*U + s'*V recovering the
    x and y commutation forms, where U, V are the transforms under p.
    """
    u, v = _transformed_commutation_forms(p)
    # the transforms are supported on the (0,2)/(1,2) entry pairs, so a 2x2
    # solve determines everything; its matrix is the transpose of p.linear
    gram = Mat2(u[0, 2], v[0, 2], u[1, 2], v[1, 2]).inverse()
    r, s = gram.apply((Scalar.one(), Scalar.zero()))
    rp, sp = gram.apply((Scalar.zero(), Scalar.one()))
    return (r, s), (rp, sp)


def xy_linear_combination_check(p: PAffine) -> bool:
    """True when the fixed commutation forms lie in the span of their transforms."""
    u, v = _transformed_commutation_forms(p)
    (r, s), (rp, sp) = xy_combination_coefficients(p)
    return (u * r + v * s) == X_COMMUTATION and (u * rp + v * sp) == Y_COMMUTATION


# --- multiplicatively antisymmetric parameter matrices ----------------------

_QAS_MAX = 8

ScalarRows = tuple[tuple[Scalar, ...], ...]


def _qas_matrix(entries: Sequence[Sequence]) -> ScalarRows:
    rows = tuple(tuple(as_scalar(x) for x in row) for row in entries)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("a nonempty square matrix is required")
    if n > _QAS_MAX:
        raise ValueError(f"permutation search is limited to {_QAS_MAX} generators")
    for i in range(n):
        if not (rows[i][i] - 1).is_zero():
            raise ValueError("not multiplicatively antisymmetric: diagonal must be 1")
        for j in range(i + 1, n):
            if not (rows[i][j] * rows[j][i] - 1).is_zero():
                raise ValueError(
                    "not multiplicatively antisymmetric: "
                    "opposite entries must be inverse"
                )
    return rows


def qas_iso(
    p: Sequence[Sequence], q: Sequence[Sequence]
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether two parameter matrices agree up to a permutation.

    Returns (True, sigma) with p[i][j] = q[sigma(i)][sigma(j)] for all i, j
    when some permutation works, else (False, None).  Exhaustive search.
    """
    rp = _qas_matrix(p)
    rq = _qas_matrix(q)
    n = len(rp)
    if len(rq) != n:
        return False, None
    for perm in itertools.permutations(range(n)):
        if all(
            (rp[i][j] - rq[perm[i]][perm[j]]).is_zero()
            for i in range(n)
            for j in range(n)
        ):
            return True, perm
    return False, None

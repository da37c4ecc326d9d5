"""Canonical forms of 3x3 defining matrices under standard-form congruence.

Two standard-form matrices are equivalent when one is a nonzero multiple of
the standard-form fold of a congruence by an affine substitution.  Every
matrix with a nonzero quadratic block lands on exactly one of the eleven
canonical shapes in `_CLASSES` (two carry a parameter q, identified with
1/q).

The canonicalization runs in stages: put the quadratic block in canonical
form, then clear the linear column with a translation (plus a stabilizer
element of the block where needed), then normalize the constant by scaling
the generators.  The stages are composed into a single witness, not applied
to the matrix one by one: canon2 gives the block stage unchecked, the later
stages are read off the linear column and constant that the block stage
yields, and one independent check, `verify_witness` of the composed witness
against the input, runs before the witness is returned.  That check is the
only place the canonicalizer evaluates the action (`SfWitness.apply`, a 3x3
product); composing the stages (`SfWitness.then`) shares no code with it.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .congruence2 import (
    Canon2Label,
    Label,
    canon2,
    canonical_mat2,
    reciprocal_equivalent,
)
from .matrix import DegreeError, Mat2, Mat3, StdFormMatrix, Vec2, sf_map
from .scalar import Scalar, as_scalar, on_one_tower, sqrt_extend

# The eleven classes: tag -> (canonical 2x2 block, linear column, constant,
# algebra name, homogenized-algebra name), with the relation each one stands
# for.  The Q block carries the class's q, or 1 for UFORM.  UFORM and VFORM
# present the same algebra U; their homogenizations differ.
_CLASSES = {
    "X2": ("X2", (0, 0), 0, "RX2", "H_X2"),  # x^2
    "X2_MINUS1": ("X2", (0, 0), -1, "RX2M1", "H_SX2"),  # x^2 - 1
    "KX": ("X2", (0, 1), 0, "KX", "H_KX"),  # x^2 + y
    "JORDAN": ("JORDAN", (0, 0), 0, "JORDAN", "H_JORDAN"),  # yx - xy + y^2
    "JORDAN1": ("JORDAN", (0, 0), 1, "JORDAN1", "H_SJORDAN"),  # yx - xy + y^2 + 1
    "VFORM": ("JORDAN", (1, 0), 0, "U", "H_ENVV"),  # yx - xy + y^2 + x
    "YX": ("YX", (0, 0), 0, "RYX", "H_YX"),  # yx
    "S": ("YX", (0, 0), -1, "S", "H_OS"),  # yx - 1
    "QPLANE": ("Q", (0, 0), 0, "OQ", "H_OQ"),  # q yx - xy
    "QWEYL": ("Q", (0, 0), 1, "WEYL_Q", "H_WEYL"),  # q yx - xy + 1
    "UFORM": ("Q", (0, 1), 0, "U", "H_ENV"),  # yx - xy + y
}

CANONICAL_TAGS = tuple(_CLASSES)


class CanonicalClass(Label):
    """Class of a standard-form matrix under standard-form congruence."""

    __slots__ = ()

    TAGS = CANONICAL_TAGS
    PARAMETRIC = ("QPLANE", "QWEYL")


def canonical_matrix(cls: CanonicalClass) -> StdFormMatrix:
    block, lin, const, _, _ = _CLASSES[cls.tag]
    if block == "Q":
        label = Canon2Label("Q", 1 if cls.q is None else cls.q)
    else:
        label = Canon2Label(block)
    return StdFormMatrix(hom=canonical_mat2(label), lin=lin, const=const)


class SfWitness(Value):
    """Affine substitution X = P1 X' + P2 with a nonzero scale alpha: the one
    element of the standard-form congruence action.  With P the 3x3
    [[P1, P2], [0, 1]], apply(n) = alpha * fold(P^T n P).

    Canonicalization stages compose with `then`, and a comparison of two
    canonicalizations goes through `inverse`; `apply` is the one evaluation
    of the action, and `verify_witness` the one caller of it in the
    canonicalizer.
    """

    __slots__ = ("linear", "translation", "scale")

    def __init__(self, linear: Mat2, translation: Vec2 = (0, 0), scale=1):
        if linear.det().is_zero():
            raise ValueError("affine substitution needs an invertible linear part")
        scale = as_scalar(scale)
        if scale.is_zero():
            raise ValueError("witness scale must be nonzero")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(
            self, "translation", (as_scalar(translation[0]), as_scalar(translation[1]))
        )
        object.__setattr__(self, "scale", scale)

    @classmethod
    def identity(cls) -> "SfWitness":
        return cls(Mat2.identity())

    def then(self, other: "SfWitness") -> "SfWitness":
        """First self, then other: other.apply(self.apply(n)) = result.apply(n).
        Its P is the product of the two embeddings, self's first."""
        lin = self.linear * other.linear
        t = self.linear.apply(other.translation)
        return SfWitness(
            lin,
            (t[0] + self.translation[0], t[1] + self.translation[1]),
            self.scale * other.scale,
        )

    def inverse(self) -> "SfWitness":
        inv = self.linear.inverse()
        t = inv.apply(self.translation)
        return SfWitness(inv, (-t[0], -t[1]), self.scale.inverse())

    def embed(self) -> Mat3:
        p, (e, f) = self.linear, self.translation
        return Mat3(((p.a, p.b, e), (p.c, p.d, f), (0, 0, 1)))

    def apply(self, n: StdFormMatrix) -> StdFormMatrix:
        """alpha * fold(P^T n P), by multiplying the embedded 3x3 matrices.

        It first lifts the 18 entries onto one tower (`on_one_tower`), so
        that the product merges no towers; entries that already share one
        are used as they are."""
        pm, nm = self.embed(), n.embed()
        entries = sum(pm.rows + nm.rows, ())
        lifted = on_one_tower(entries)
        if lifted is not entries:
            pm = Mat3((lifted[0:3], lifted[3:6], lifted[6:9]))
            nm = Mat3((lifted[9:12], lifted[12:15], lifted[15:18]))
        return sf_map(pm.transpose() * nm * pm).scale(self.scale)


def scaling(gamma) -> SfWitness:
    """Rescale the generators by gamma: keeps the quadratic block, divides the
    linear column by gamma and the constant by gamma^2."""
    gamma = as_scalar(gamma)
    if gamma.is_zero():
        raise ValueError("affine substitution needs an invertible linear part")
    return SfWitness(Mat2(gamma, 0, 0, gamma), scale=(gamma * gamma).inverse())


def _shift(e, f) -> SfWitness:
    return SfWitness(Mat2.identity(), (e, f))


def verify_witness(m: StdFormMatrix, n: StdFormMatrix, w: SfWitness) -> bool:
    """True iff m = w.apply(n) = alpha * fold(P^T n P), entrywise exact.

    The canonicalizer composes its stages with `then` from canon2's output
    and `_stage2`, and never evaluates the action itself; this check shares
    no code with that path."""
    return w.apply(n) == m


def _constant(stages, c: Scalar, plain: str, shifted: str, q=None):
    """Finish on `plain` when the constant c is zero, else scale c onto the
    constant of `shifted` (1 or -1) by the square root of their quotient."""
    if c.is_zero():
        return stages, CanonicalClass(plain, q)
    stages.append(scaling(sqrt_extend(c if _CLASSES[shifted][2] == 1 else -c)))
    return stages, CanonicalClass(shifted, q)


def _stage2(
    label2: Canon2Label, lin: tuple[Scalar, Scalar], n: Scalar
) -> tuple[list[SfWitness], CanonicalClass]:
    """Stages clearing the linear column lin and constant n of a matrix whose
    block is already canonical, and the class they reach."""
    u, v = lin
    tag = label2.tag

    if tag == "X2":
        if not v.is_zero():
            vin = v.inverse()
            stage = SfWitness(Mat2(1, 0, -u * vin, vin), (0, -n * vin))
            return [stage], CanonicalClass("KX")
        half_u = u * Fraction(1, 2)
        return _constant([_shift(-half_u, 0)], n - half_u * half_u, "X2", "X2_MINUS1")

    if tag == "YX":
        return _constant([_shift(-v, -u)], n - u * v, "YX", "S")

    if tag == "JORDAN":
        if u.is_zero():
            stages = [_shift(0, -v * Fraction(1, 2))]
            return _constant(stages, n - v * v * Fraction(1, 4), "JORDAN", "JORDAN1")
        v1 = v / u
        n1 = n / (u * u)
        e = v1 * v1 * Fraction(1, 4) - n1
        return [scaling(u), _shift(e, -v1 * Fraction(1, 2))], CanonicalClass("VFORM")

    # quadratic block is [[0, -1], [q, 0]]
    q = label2.q
    if q == 1:
        if u.is_zero() and v.is_zero():
            return _constant([], n, "QPLANE", "QWEYL", q)
        # rotate the linear column onto the y slot; the same linear system
        # fixes det(P1) = 1, which keeps the antisymmetric block unscaled
        if not u.is_zero():
            stage = SfWitness(Mat2(v, u.inverse(), -u, 0), (-n / u, 0))
        else:
            stage = SfWitness(Mat2(v, 0, -u, v.inverse()), (0, -n / v))
        return [stage], CanonicalClass("UFORM")

    one_m_q = 1 - q
    stages = [_shift(v / one_m_q, u / one_m_q)]
    return _constant(stages, n - u * v / (q - 1), "QPLANE", "QWEYL", q)


def sf_canonicalize(
    m: StdFormMatrix,
) -> tuple[CanonicalClass, StdFormMatrix, SfWitness]:
    """Class, canonical matrix, and witness with canonical = witness.apply(m).

    The stages are composed with `then` and never applied; the one check is
    `verify_witness(canonical, m, witness)`, which raises AssertionError
    when it fails."""
    if m.hom.is_zero():
        raise DegreeError("matrix has no quadratic part")

    label2, p, alpha2 = canon2(m.hom)
    witness = SfWitness(p, scale=alpha2)
    # the stages need only the linear column alpha2 * P1^T l and the constant
    # alpha2 * n; the block alpha2 * P1^T H P1 is checked with the rest below
    (u, v), s = m.lin, witness.scale
    lin = ((p.a * u + p.c * v) * s, (p.b * u + p.d * v) * s)
    stages, cls = _stage2(label2, lin, m.const * s)
    for stage in stages:
        witness = witness.then(stage)

    canonical = canonical_matrix(cls)
    if not verify_witness(canonical, m, witness):
        raise AssertionError(f"canonicalization produced an invalid witness for {m!r}")
    return cls, canonical, witness


def sf_compare(
    m: StdFormMatrix, n: StdFormMatrix
) -> tuple[CanonicalClass, CanonicalClass, SfWitness | None]:
    """Canonicalize each side once: both classes, and a verified witness from
    n to m when they are equivalent (None otherwise)."""
    cls_m, _, w_m = sf_canonicalize(m)
    cls_n, _, w_n = sf_canonicalize(n)
    if not reciprocal_equivalent(cls_m, cls_n):
        return cls_m, cls_n, None
    witness = w_n.then(w_m.inverse())
    if not verify_witness(m, n, witness):
        raise AssertionError("composed witness failed verification")
    return cls_m, cls_n, witness


def sf_congruent(
    m: StdFormMatrix, n: StdFormMatrix
) -> tuple[bool, SfWitness | None]:
    """Decide equivalence; on success return a verified witness from n to m."""
    witness = sf_compare(m, n)[2]
    return witness is not None, witness


def _rand_fraction(rng) -> int | Fraction:
    """A small random rational; an int when it is whole, so that 0, 1 and -1
    become the shared constants."""
    q = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return q.numerator if q.denominator == 1 else q


def orbit_sample_with_witness(
    m: StdFormMatrix, rng
) -> tuple[StdFormMatrix, SfWitness]:
    """Random equivalent matrix plus the witness that generated it.

    rng is a random.Random, or None for m itself with the identity witness.
    It stays unannotated so that the module never imports random.
    """
    if rng is None:
        return m, SfWitness.identity()
    while True:
        lin = Mat2(
            _rand_fraction(rng),
            _rand_fraction(rng),
            _rand_fraction(rng),
            _rand_fraction(rng),
        )
        if not lin.det().is_zero():
            break
    translation = (_rand_fraction(rng), _rand_fraction(rng))
    while True:
        alpha = _rand_fraction(rng)
        if alpha != 0:
            break
    witness = SfWitness(lin, translation, alpha)
    return witness.apply(m), witness


def orbit_sample(m: StdFormMatrix, rng) -> StdFormMatrix:
    """Random member of the equivalence class of m (m itself when rng is None).

    rng is a random.Random or None, as for orbit_sample_with_witness.
    """
    return orbit_sample_with_witness(m, rng)[0]

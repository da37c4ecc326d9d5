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
to the matrix one by one: canon2 checks the block stage itself, the later
stages are read off the input's linear column and constant, and one
independent check, `verify_witness` of the composed witness against the
input, runs before the witness is returned.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .congruence2 import (
    Canon2Label,
    Label,
    canon2,
    canonical_mat2,
    literal_label,
    reciprocal_equivalent,
)
from .matrix import (
    DegreeError,
    Mat2,
    Mat3,
    PAffine,
    StdFormMatrix,
    apply_congruence,
    p_compose,
    p_invert,
    sf_map,
)
from .scalar import Scalar, as_scalar, on_one_tower, sqrt_extend

# The eleven classes: tag -> (canonical 2x2 block, linear column, constant),
# with the relation each one stands for.  The Q block carries the class's q,
# or 1 for UFORM.
_CLASSES = {
    "X2": ("X2", (0, 0), 0),  # x^2
    "X2_MINUS1": ("X2", (0, 0), -1),  # x^2 - 1
    "KX": ("X2", (0, 1), 0),  # x^2 + y
    "JORDAN": ("JORDAN", (0, 0), 0),  # yx - xy + y^2
    "JORDAN1": ("JORDAN", (0, 0), 1),  # yx - xy + y^2 + 1
    "VFORM": ("JORDAN", (1, 0), 0),  # yx - xy + y^2 + x
    "YX": ("YX", (0, 0), 0),  # yx
    "S": ("YX", (0, 0), -1),  # yx - 1
    "QPLANE": ("Q", (0, 0), 0),  # q yx - xy
    "QWEYL": ("Q", (0, 0), 1),  # q yx - xy + 1
    "UFORM": ("Q", (0, 1), 0),  # yx - xy + y
}

CANONICAL_TAGS = tuple(_CLASSES)


class CanonicalClass(Label):
    """Class of a standard-form matrix under standard-form congruence."""

    __slots__ = ()

    TAGS = CANONICAL_TAGS
    PARAMETRIC = ("QPLANE", "QWEYL")


def canonical_matrix(cls: CanonicalClass) -> StdFormMatrix:
    block, lin, const = _CLASSES[cls.tag]
    if block == "Q":
        label = Canon2Label("Q", 1 if cls.q is None else cls.q)
    else:
        label = Canon2Label(block)
    return StdFormMatrix(hom=canonical_mat2(label), lin=lin, const=const)


def literal_class(m: StdFormMatrix) -> CanonicalClass | None:
    """The class label if m is literally one of the canonical matrices."""
    block = literal_label(m.hom)
    if block is None:
        return None
    for tag, (block_tag, _, _) in _CLASSES.items():
        if block_tag != block.tag:
            continue
        cls = CanonicalClass(tag, block.q if tag in CanonicalClass.PARAMETRIC else None)
        if canonical_matrix(cls) == m:
            return cls
    return None


class SfWitness(Value):
    """Change of variables with scale: apply(n) = scale * fold(map^T n map).

    The one element of the standard-form congruence action: canonicalization
    stages compose with `then`, and a comparison of two canonicalizations
    goes through `inverse`.
    """

    __slots__ = ("map", "scale")

    def __init__(self, map: PAffine, scale: Scalar):
        scale = as_scalar(scale)
        if scale.is_zero():
            raise ValueError("witness scale must be nonzero")
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def identity(cls) -> "SfWitness":
        return cls(PAffine.identity(), Scalar.one())

    def then(self, other: "SfWitness") -> "SfWitness":
        """First self, then other: other.apply(self.apply(n)) = result.apply(n)."""
        return SfWitness(p_compose(self.map, other.map), self.scale * other.scale)

    def inverse(self) -> "SfWitness":
        return SfWitness(p_invert(self.map), self.scale.inverse())

    def apply(self, n: StdFormMatrix) -> StdFormMatrix:
        return apply_congruence(n, self.map, self.scale)


def scaling(gamma) -> SfWitness:
    """Rescale the generators by gamma: keeps the quadratic block, divides the
    linear column by gamma and the constant by gamma^2."""
    gamma = as_scalar(gamma)
    return SfWitness(PAffine(Mat2(gamma, 0, 0, gamma)), (gamma * gamma).inverse())


def _substitution(p1: Mat2, p2) -> SfWitness:
    return SfWitness(PAffine(p1, p2), Scalar.one())


def _shift(e, f) -> SfWitness:
    return _substitution(Mat2.identity(), (e, f))


def verify_witness(m: StdFormMatrix, n: StdFormMatrix, w: SfWitness) -> bool:
    """True iff m = scale * fold(map^T n map), entrywise exact.

    The check multiplies the embedded 3x3 matrices itself, so it shares no
    code with the closed form in `apply_congruence` that it checks.  It
    first lifts the 18 entries onto one tower (`on_one_tower`), so that the
    product merges no towers; entries that already share one are used as
    they are."""
    pm, nm = w.map.embed(), n.embed()
    entries = sum(pm.rows + nm.rows, ())
    lifted = on_one_tower(entries)
    if lifted is not entries:
        pm = Mat3((lifted[0:3], lifted[3:6], lifted[6:9]))
        nm = Mat3((lifted[9:12], lifted[12:15], lifted[15:18]))
    return sf_map(pm.transpose() * nm * pm).scale(w.scale) == m


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
            stage = _substitution(Mat2(1, 0, -u * vin, vin), (0, -n * vin))
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
            stage = _substitution(Mat2(v, u.inverse(), -u, 0), (-n / u, 0))
        else:
            stage = _substitution(Mat2(v, 0, -u, v.inverse()), (0, -n / v))
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

    lit = literal_class(m)
    if lit is not None:
        return lit, canonical_matrix(lit), SfWitness.identity()

    label2, p, alpha2 = canon2(m.hom)
    witness = SfWitness(PAffine(p), alpha2)
    # canon2 has checked the block alpha2 * P1^T H P1; the stages need only
    # the linear column alpha2 * P1^T l and the constant alpha2 * n
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
    p = PAffine(lin, (_rand_fraction(rng), _rand_fraction(rng)))
    while True:
        alpha = _rand_fraction(rng)
        if alpha != 0:
            break
    out = apply_congruence(m, p, alpha)
    witness = SfWitness(p, as_scalar(alpha))
    if not verify_witness(out, m, witness):
        raise AssertionError("orbit sample witness failed verification")
    return out, witness


def orbit_sample(m: StdFormMatrix, rng) -> StdFormMatrix:
    """Random member of the equivalence class of m (m itself when rng is None).

    rng is a random.Random or None, as for orbit_sample_with_witness.
    """
    return orbit_sample_with_witness(m, rng)[0]

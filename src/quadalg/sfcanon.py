"""Canonical forms of 3x3 defining matrices under standard-form congruence.

Two standard-form matrices are equivalent when one is a nonzero multiple of
the standard-form fold of a congruence by an affine substitution.  Every
matrix with a nonzero quadratic block lands on exactly one of eleven
canonical shapes (two carry a parameter q, identified with 1/q):

    X2         x^2                    JORDAN    yx - xy + y^2
    X2_MINUS1  x^2 - 1                JORDAN1   yx - xy + y^2 + 1
    KX         x^2 + y                VFORM     yx - xy + y^2 + x
    YX         yx                     QPLANE    q yx - xy
    S          yx - 1                 QWEYL     q yx - xy + 1
    UFORM      yx - xy + y

The canonicalization runs in stages: put the quadratic block in canonical
form, then clear the linear column with a translation (plus a stabilizer
element of the block where needed), then normalize the constant by scaling
the generators.  Stages compose into a single witness, which is re-verified
against the input before being returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .congruence2 import Canon2Label, Label, canon2, literal_label, reciprocal_equivalent
from .matrix import (
    DegreeError,
    Mat2,
    PAffine,
    StdFormMatrix,
    apply_congruence,
    p_compose,
    p_invert,
)
from .scalar import Scalar, as_scalar, sqrt_extend

CANONICAL_TAGS = (
    "X2",
    "X2_MINUS1",
    "KX",
    "JORDAN",
    "JORDAN1",
    "VFORM",
    "YX",
    "S",
    "QPLANE",
    "QWEYL",
    "UFORM",
)


class CanonicalClass(Label):
    """Class of a standard-form matrix under standard-form congruence."""

    TAGS = CANONICAL_TAGS
    PARAMETRIC = ("QPLANE", "QWEYL")

    def matrix(self) -> StdFormMatrix:
        return canonical_matrix(self)


_HOM = {
    "X2": Mat2(1, 0, 0, 0),
    "YX": Mat2(0, 0, 1, 0),
    "JORDAN": Mat2(0, -1, 1, 1),
}


def canonical_matrix(cls: CanonicalClass) -> StdFormMatrix:
    tag = cls.tag
    if tag in ("X2", "X2_MINUS1", "KX"):
        hom = _HOM["X2"]
    elif tag in ("YX", "S"):
        hom = _HOM["YX"]
    elif tag in ("JORDAN", "JORDAN1", "VFORM"):
        hom = _HOM["JORDAN"]
    elif tag == "UFORM":
        hom = Mat2(0, -1, 1, 0)
    else:
        hom = Mat2(0, -1, cls.q, 0)
    lin = (Scalar.zero(), Scalar.zero())
    const = Scalar.zero()
    if tag == "KX":
        lin = (Scalar.zero(), Scalar.one())
    elif tag == "VFORM":
        lin = (Scalar.one(), Scalar.zero())
    elif tag == "UFORM":
        lin = (Scalar.zero(), Scalar.one())
    elif tag in ("X2_MINUS1", "S"):
        const = as_scalar(-1)
    elif tag in ("JORDAN1", "QWEYL"):
        const = Scalar.one()
    return StdFormMatrix(hom=hom, lin=lin, const=const)


@dataclass(frozen=True)
class SfWitness:
    """Change of variables with scale: target = scale * fold(map^T source map)."""

    map: PAffine
    scale: Scalar

    def __post_init__(self):
        object.__setattr__(self, "scale", as_scalar(self.scale))
        if self.scale.is_zero():
            raise ValueError("witness scale must be nonzero")

    @classmethod
    def identity(cls) -> "SfWitness":
        return cls(PAffine.identity(), Scalar.one())


def verify_witness(m: StdFormMatrix, n: StdFormMatrix, w: SfWitness) -> bool:
    """True iff m = scale * fold(map^T n map), entrywise exact."""
    return apply_congruence(n, w.map, w.scale) == m


def scale_normalize(m: StdFormMatrix, gamma) -> StdFormMatrix:
    """Rescale generators by gamma: keeps the quadratic block, divides the
    linear column by gamma and the constant by gamma^2."""
    gamma = as_scalar(gamma)
    if gamma.is_zero():
        raise ValueError("gamma must be nonzero")
    ginv = gamma.inverse()
    return StdFormMatrix(
        hom=m.hom,
        lin=(m.lin[0] * ginv, m.lin[1] * ginv),
        const=m.const * ginv * ginv,
    )


def _scaling_stage(gamma: Scalar) -> Tuple[PAffine, Scalar]:
    gamma = as_scalar(gamma)
    return (
        PAffine(Mat2(gamma, 0, 0, gamma)),
        (gamma * gamma).inverse(),
    )


def literal_class(m: StdFormMatrix) -> Optional[CanonicalClass]:
    """The class label if m is literally one of the canonical matrices."""
    u, v, n = m.lin[0], m.lin[1], m.const
    h = m.hom
    lbl = literal_label(h)
    if lbl is None:
        return None
    uz, vz, nz = u.is_zero(), v.is_zero(), n.is_zero()
    if lbl.tag == "X2":
        if uz and vz and nz:
            return CanonicalClass("X2")
        if uz and vz and n == -1:
            return CanonicalClass("X2_MINUS1")
        if uz and v == 1 and nz:
            return CanonicalClass("KX")
    elif lbl.tag == "YX":
        if uz and vz and nz:
            return CanonicalClass("YX")
        if uz and vz and n == -1:
            return CanonicalClass("S")
    elif lbl.tag == "JORDAN":
        if uz and vz and nz:
            return CanonicalClass("JORDAN")
        if uz and vz and n == 1:
            return CanonicalClass("JORDAN1")
        if u == 1 and vz and nz:
            return CanonicalClass("VFORM")
    else:
        if uz and vz and nz:
            return CanonicalClass("QPLANE", lbl.q)
        if uz and vz and n == 1:
            return CanonicalClass("QWEYL", lbl.q)
        if lbl.q == 1 and uz and v == 1 and nz:
            return CanonicalClass("UFORM")
    return None


def _stage2(label2: Canon2Label, current: StdFormMatrix):
    """Stages clearing the linear column and constant once the block is
    canonical.  Returns (list of (PAffine, scale), class)."""
    u, v, n = current.lin[0], current.lin[1], current.const
    tag = label2.tag
    stages = []

    if tag == "X2":
        if not v.is_zero():
            vin = v.inverse()
            p1 = Mat2(1, 0, -u * vin, vin)
            stages.append((PAffine(p1, (Scalar.zero(), -n * vin)), Scalar.one()))
            return stages, CanonicalClass("KX")
        half_u = u * Fraction(1, 2)
        stages.append((PAffine(Mat2.identity(), (-half_u, Scalar.zero())), Scalar.one()))
        c = n - half_u * half_u
        if c.is_zero():
            return stages, CanonicalClass("X2")
        stages.append(_scaling_stage(sqrt_extend(-c)))
        return stages, CanonicalClass("X2_MINUS1")

    if tag == "YX":
        stages.append((PAffine(Mat2.identity(), (-v, -u)), Scalar.one()))
        c = n - u * v
        if c.is_zero():
            return stages, CanonicalClass("YX")
        stages.append(_scaling_stage(sqrt_extend(-c)))
        return stages, CanonicalClass("S")

    if tag == "JORDAN":
        if u.is_zero():
            f = -v * Fraction(1, 2)
            stages.append((PAffine(Mat2.identity(), (Scalar.zero(), f)), Scalar.one()))
            c = n - v * v * Fraction(1, 4)
            if c.is_zero():
                return stages, CanonicalClass("JORDAN")
            stages.append(_scaling_stage(sqrt_extend(c)))
            return stages, CanonicalClass("JORDAN1")
        stages.append(_scaling_stage(u))
        v1 = v / u
        n1 = n / (u * u)
        f = -v1 * Fraction(1, 2)
        e = v1 * v1 * Fraction(1, 4) - n1
        stages.append((PAffine(Mat2.identity(), (e, f)), Scalar.one()))
        return stages, CanonicalClass("VFORM")

    # quadratic block is [[0, -1], [q, 0]]
    q = label2.q
    if q == 1:
        if u.is_zero() and v.is_zero():
            if n.is_zero():
                return stages, CanonicalClass("QPLANE", q)
            stages.append(_scaling_stage(sqrt_extend(n)))
            return stages, CanonicalClass("QWEYL", q)
        # rotate the linear column onto the y slot; the same linear system
        # fixes det(P1) = 1, which keeps the antisymmetric block unscaled
        if not u.is_zero():
            p1 = Mat2(v, u.inverse(), -u, 0)
            p2 = (-n / u, Scalar.zero())
        else:
            p1 = Mat2(v, 0, -u, v.inverse())
            p2 = (Scalar.zero(), -n / v)
        stages.append((PAffine(p1, p2), Scalar.one()))
        return stages, CanonicalClass("UFORM")

    one_m_q = 1 - q
    e = v / one_m_q
    f = u / one_m_q
    stages.append((PAffine(Mat2.identity(), (e, f)), Scalar.one()))
    c = n - u * v / (q - 1)
    if c.is_zero():
        return stages, CanonicalClass("QPLANE", q)
    stages.append(_scaling_stage(sqrt_extend(c)))
    return stages, CanonicalClass("QWEYL", q)


def sf_canonicalize(
    m: StdFormMatrix,
) -> Tuple[CanonicalClass, StdFormMatrix, SfWitness]:
    """Class, canonical matrix, and witness with canonical = scale * fold(P^T m P)."""
    if m.hom.is_zero():
        raise DegreeError("matrix has no quadratic part")

    lit = literal_class(m)
    if lit is not None:
        return lit, canonical_matrix(lit), SfWitness.identity()

    label2, p2x2, alpha2 = canon2(m.hom)
    stages = [(PAffine(p2x2), alpha2)]
    current = apply_congruence(m, *stages[0])
    tail, cls = _stage2(label2, current)
    for stage in tail:
        current = apply_congruence(current, *stage)

    pmap = PAffine.identity()
    scale = Scalar.one()
    for p, a in stages + tail:
        pmap = p_compose(pmap, p)
        scale = scale * a

    canonical = canonical_matrix(cls)
    witness = SfWitness(pmap, scale)
    if current != canonical or not verify_witness(canonical, m, witness):
        raise AssertionError(f"canonicalization produced an invalid witness for {m!r}")
    return cls, canonical, witness


def sf_compare(
    m: StdFormMatrix, n: StdFormMatrix
) -> Tuple[CanonicalClass, CanonicalClass, Optional[SfWitness]]:
    """Canonicalize each side once: both classes, and a verified witness from
    n to m when they are equivalent (None otherwise)."""
    cls_m, _, w_m = sf_canonicalize(m)
    cls_n, _, w_n = sf_canonicalize(n)
    if not reciprocal_equivalent(cls_m, cls_n):
        return cls_m, cls_n, None
    pmap = p_compose(w_n.map, p_invert(w_m.map))
    scale = w_n.scale / w_m.scale
    witness = SfWitness(pmap, scale)
    if not verify_witness(m, n, witness):
        raise AssertionError("composed witness failed verification")
    return cls_m, cls_n, witness


def sf_congruent(
    m: StdFormMatrix, n: StdFormMatrix
) -> Tuple[bool, Optional[SfWitness]]:
    """Decide equivalence; on success return a verified witness from n to m."""
    witness = sf_compare(m, n)[2]
    return witness is not None, witness


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def orbit_sample_with_witness(
    m: StdFormMatrix, rng: Optional[random.Random]
) -> Tuple[StdFormMatrix, SfWitness]:
    """Random equivalent matrix plus the witness that generated it."""
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


def orbit_sample(
    m: StdFormMatrix, rng: Optional[random.Random]
) -> StdFormMatrix:
    """Random member of the equivalence class of m (m itself when rng is None)."""
    return orbit_sample_with_witness(m, rng)[0]

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
only place the canonicalizer evaluates the action (`SfWitness.apply`, one
3x3 product and one fold, over integers unless a radicand is nested);
composing the stages (`SfWitness.then`) shares no code with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._value import Value
from .congruence2 import (
    Canon2Label,
    Label,
    canon2,
    canonical_mat2,
    reciprocal_equivalent,
)
from .matrix import DegreeError, Mat2, Mat3, StdFormMatrix, Vec2
from .scalar import (ONE, ZERO, Scalar, as_scalar, on_one_tower, radical_terms,
                     rational_radicands, sqrt_extend)

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
        """alpha * fold(P^T n P), by one product of the embedded 3x3 matrices.

        A reader gives the seven values of P, the seven of n, their zero and
        `out`, which takes a folded entry to alpha times it as a Scalar.  All
        15 entries rational: ints over cleared denominators.  Every radicand
        rational (a multiquadratic field): `_Radicals` after one lift of the
        15 entries onto one tower (`on_one_tower`), cleared the same way.  A
        nested radicand: the 14 entries of P and n lifted onto one tower, so
        that the product merges none, and alpha multiplied in on the right."""
        p, (e, f), h, (u, v) = self.linear, self.translation, n.hom, n.lin
        entries = (p.a, p.b, e, p.c, p.d, f, ONE, h.a, h.b, u, h.c, h.d, v, n.const, self.scale)
        qs = [x.as_fraction() for x in entries]
        if all(q is not None for q in qs):
            (pv, dp), (nv, dn) = _cleared(qs[0:7]), _cleared(qs[7:14])
            num, den, zero = qs[14].numerator, qs[14].denominator * dp * dp * dn, 0

            def out(x):
                return Scalar.from_fraction(Fraction(num * x, den))
        elif rational_radicands(entries):
            squares, qs, scalar = radical_terms(on_one_tower(entries))
            (pv, dp), (nv, dn), ((num,), da) = (
                _cleared_terms(g, squares) for g in (qs[0:7], qs[7:14], qs[14:]))
            den, zero = da * dp * dp * dn, _Radicals(squares)

            def out(x):
                return scalar(num * x, den)
        else:
            lifted, zero = on_one_tower(entries[0:14]), ZERO
            pv, nv = lifted[0:7], lifted[7:14]

            def out(x):
                return x * self.scale
        pi, ni = ((x[0:3], x[3:6], (zero, zero, x[6])) for x in (pv, nv))
        r = _int_product(_int_product(tuple(zip(*pi)), ni), pi)
        return StdFormMatrix(
            Mat2(*(out(x) for x in (r[0][0], r[0][1], r[1][0], r[1][1]))),
            (out(r[0][2] + r[2][0]), out(r[1][2] + r[2][1])),
            out(r[2][2]),
        )


def _cleared(qs):
    """The rationals qs as integers over one positive denominator:
    (integers, denominator)."""
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _cleared_terms(qs, squares):
    """Values given as dicts of (numerator, denominator) coefficients, as
    `_Radicals` over one positive denominator: (values, denominator)."""
    den = lcm(*(d for q in qs for _, d in q.values()))
    return [_Radicals(squares, {s: c * (den // d) for s, (c, d) in q.items()})
            for q in qs], den


class _Radicals(dict):
    """An integer combination of the monomials rho_S = prod_{j in S} rho_j
    by the bitmask S, squares[S] = rho_S^2 an integer.  It is never changed
    once built, so a product with an empty operand is that operand, and a
    sum with one is the other operand."""

    __slots__ = ("squares",)

    def __init__(self, squares, terms=()):
        dict.__init__(self, terms)
        self.squares = squares

    def __add__(self, other):
        if not (self and other):
            return self or other
        out = _Radicals(self.squares, self)
        for s, c in other.items():
            out[s] = out.get(s, 0) + c
        return out

    def __mul__(self, other):
        if not (self and other):
            return self and other
        out, squares = _Radicals(self.squares), self.squares
        for s, a in self.items():
            for t, b in other.items():
                out[s ^ t] = out.get(s ^ t, 0) + a * b * squares[s & t]
        return out


def _int_product(x, y):
    """The product of two 3x3 matrices given as rows: of ints, of
    `_Radicals` or of Scalars over one tower."""
    cols = tuple(zip(*y))
    return tuple(
        tuple(r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in cols) for r0, r1, r2 in x
    )


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


def _rand_fraction(rng) -> Fraction:
    """A small random rational."""
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


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
        lin = Mat2(*(_rand_fraction(rng) for _ in range(4)))
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

"""Matrices over exact scalars, standard forms, and the affine change group.

A quadratic expression in noncommuting generators x, y corresponds to a 3x3
defining matrix via the border vector (x, y, 1): entry (i, j) multiplies the
word g_i g_j.  The standard form of a defining matrix folds the bottom-left
linear entries into the top-right column, leaving the shape

    [[ a, b, u ],
     [ c, d, v ],
     [ 0, 0, n ]]

Changes of variables that fix the affine structure are pairs (linear part,
translation) embedded as [[P1, P2], [0, 1]]; they act on defining matrices by
congruence followed by the standard-form fold.  For a standard form (H, l, n)
and the substitution X = P1 X' + t, that action has the closed form

    hom    P1^T H P1
    lin    P1^T ((H + H^T) t + l)
    const  t^T H t + t^T l + n

which `apply_congruence` evaluates directly on 2x2 blocks.  The 3x3 product
through `Mat3` stays as the independent check (`sfcanon.verify_witness`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._value import Value
from .scalar import Scalar, as_scalar

Vec2 = tuple[Scalar, Scalar]


class DegreeError(ValueError):
    """Raised when an expression lacks the quadratic part these tools need."""


def _s(x) -> Scalar:
    if x.__class__ is Scalar:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, Fraction, or Scalar")
    return as_scalar(x)


class Mat2(Value):
    """2x2 matrix of exact scalars, row major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", _s(a))
        object.__setattr__(self, "b", _s(b))
        object.__setattr__(self, "c", _s(c))
        object.__setattr__(self, "d", _s(d))

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def zero(cls) -> "Mat2":
        return cls(0, 0, 0, 0)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def entries(self) -> tuple[Scalar, ...]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        if isinstance(other, (Scalar, int, Fraction)):
            s = _s(other)
            return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Scalar:
        return self.a + self.d

    def inverse(self) -> "Mat2":
        det = self.det()
        if det.is_zero():
            raise ZeroDivisionError("matrix is singular")
        inv = det.inverse()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def apply(self, v: Vec2) -> Vec2:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def symmetric_part(self) -> "Mat2":
        h = Fraction(1, 2)
        return Mat2(
            self.a,
            (self.b + self.c) * h,
            (self.b + self.c) * h,
            self.d,
        )

    def pfaffian(self) -> Scalar:
        """The (1, 0) entry of the antisymmetric part."""
        return (self.c - self.b) * Fraction(1, 2)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries())

    def is_symmetric(self) -> bool:
        return (self.b - self.c).is_zero()

    def is_antisymmetric(self) -> bool:
        return (
            self.a.is_zero() and self.d.is_zero() and (self.b + self.c).is_zero()
        )

    def __repr__(self):
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


class Mat3(Value):
    """3x3 matrix of exact scalars, row major."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(_s(x) for x in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 needs a 3x3 array of entries")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls) -> "Mat3":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def entries(self) -> Iterable[Scalar]:
        for r in self.rows:
            yield from r

    def __add__(self, other: "Mat3") -> "Mat3":
        return Mat3(
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __mul__(self, other):
        if isinstance(other, Mat3):
            cols = tuple(zip(*other.rows))
            return Mat3(
                tuple(
                    tuple(r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in cols)
                    for r0, r1, r2 in self.rows
                )
            )
        if isinstance(other, (Scalar, int, Fraction)):
            s = _s(other)
            return Mat3(tuple(tuple(x * s for x in r) for r in self.rows))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def transpose(self) -> "Mat3":
        return Mat3(tuple(tuple(self.rows[j][i] for j in range(3)) for i in range(3)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries())

    def __repr__(self):
        body = ", ".join(
            "[" + ", ".join(str(x) for x in r) + "]" for r in self.rows
        )
        return f"Mat3([{body}])"


class StdFormMatrix(Value):
    """Defining matrix in standard form: quadratic block, linear column, constant."""

    __slots__ = ("hom", "lin", "const")

    def __init__(self, hom: Mat2, lin: Vec2, const: Scalar):
        object.__setattr__(self, "hom", hom)
        object.__setattr__(self, "lin", (_s(lin[0]), _s(lin[1])))
        object.__setattr__(self, "const", _s(const))

    def embed(self) -> Mat3:
        h, (u, v), n = self.hom, self.lin, self.const
        return Mat3(((h.a, h.b, u), (h.c, h.d, v), (0, 0, n)))

    def scale(self, s) -> "StdFormMatrix":
        s = _s(s)
        return StdFormMatrix(
            self.hom * s, (self.lin[0] * s, self.lin[1] * s), self.const * s
        )


def sf_map(m: Mat3) -> StdFormMatrix:
    """Fold a defining matrix to standard form (the represented element is kept)."""
    r = m.rows
    return StdFormMatrix(
        hom=Mat2(r[0][0], r[0][1], r[1][0], r[1][1]),
        lin=(r[0][2] + r[2][0], r[1][2] + r[2][1]),
        const=r[2][2],
    )


class PAffine(Value):
    """Affine substitution x' = P1 (x, y) + P2, as a block upper unitriangular 3x3."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear: Mat2, translation: Vec2 = (0, 0)):
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", (_s(translation[0]), _s(translation[1])))
        if linear.det().is_zero():
            raise ValueError("affine substitution needs an invertible linear part")

    @classmethod
    def identity(cls) -> "PAffine":
        return cls(Mat2.identity())

    def embed(self) -> Mat3:
        p, (e, f) = self.linear, self.translation
        return Mat3(((p.a, p.b, e), (p.c, p.d, f), (0, 0, 1)))


def p_compose(p: PAffine, q: PAffine) -> PAffine:
    """Product in the substitution group; embeddings multiply the same way."""
    lin = p.linear * q.linear
    t = p.linear.apply(q.translation)
    return PAffine(
        lin, (t[0] + p.translation[0], t[1] + p.translation[1])
    )


def p_invert(p: PAffine) -> PAffine:
    inv = p.linear.inverse()
    t = inv.apply(p.translation)
    return PAffine(inv, (-t[0], -t[1]))


def apply_congruence(m: StdFormMatrix, p: PAffine, scale=1) -> StdFormMatrix:
    """Standard form of scale * P^T M P, by the closed form (module docstring)."""
    h, (u, v), n = m.hom, m.lin, m.const
    p1, t = p.linear, p.translation
    ht, hst = h.apply(t), h.transpose().apply(t)
    w = (ht[0] + hst[0] + u, ht[1] + hst[1] + v)
    const = t[0] * (ht[0] + u) + t[1] * (ht[1] + v) + n
    p1t = p1.transpose()
    return StdFormMatrix(p1t * h * p1, p1t.apply(w), const).scale(scale)


# --- coefficient vector bridge -------------------------------------------
# order: x^2, xy, yx, y^2, x, y, 1


def matrix_from_coeffs(coeffs: Sequence) -> StdFormMatrix:
    if len(coeffs) != 7:
        raise ValueError("expected 7 coefficients: x^2, xy, yx, y^2, x, y, 1")
    a, b, c, d, u, v, n = (_s(x) for x in coeffs)
    return StdFormMatrix(hom=Mat2(a, b, c, d), lin=(u, v), const=n)


def coeffs_from_matrix(m) -> tuple[Scalar, ...]:
    if isinstance(m, Mat3):
        m = sf_map(m)
    h, (u, v), n = m.hom, m.lin, m.const
    return (h.a, h.b, h.c, h.d, u, v, n)

"""Matrices over exact scalars and the standard form of a defining matrix.

A quadratic expression in noncommuting generators x, y corresponds to a 3x3
defining matrix via the border vector (x, y, 1): entry (i, j) multiplies the
word g_i g_j.  The standard form of a defining matrix folds the bottom-left
linear entries into the top-right column, leaving the shape

    [[ a, b, u ],
     [ c, d, v ],
     [ 0, 0, n ]]

Changes of variables that fix the affine structure act on defining matrices
by congruence followed by this fold (`sfcanon.SfWitness`).  `Mat3`, `sf_map`,
both `embed`s and `StdFormMatrix.scale` give it as the plain product, for a
user's re-check and as the tests' reference; the program never calls them.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._value import Value
from .scalar import Scalar, as_scalar

Vec2 = tuple[Scalar, Scalar]


class DegreeError(ValueError):
    """Raised when an expression lacks the quadratic part these tools need."""


class Mat2(Value):
    """2x2 matrix of exact scalars, row major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", as_scalar(a))
        object.__setattr__(self, "b", as_scalar(b))
        object.__setattr__(self, "c", as_scalar(c))
        object.__setattr__(self, "d", as_scalar(d))

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def entries(self) -> tuple[Scalar, ...]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        if isinstance(other, (Scalar, int, Fraction)):
            s = as_scalar(other)
            return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)
        return NotImplemented

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

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

    def __repr__(self):
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


class Mat3(Value):
    """3x3 matrix of exact scalars, row major."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(as_scalar(x) for x in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 needs a 3x3 array of entries")
        object.__setattr__(self, "rows", rows)

    def __mul__(self, other):
        if isinstance(other, Mat3):
            cols = tuple(zip(*other.rows))
            return Mat3(
                tuple(
                    tuple(r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in cols)
                    for r0, r1, r2 in self.rows
                )
            )
        return NotImplemented

    def transpose(self) -> "Mat3":
        return Mat3(tuple(tuple(self.rows[j][i] for j in range(3)) for i in range(3)))

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
        object.__setattr__(self, "lin", (as_scalar(lin[0]), as_scalar(lin[1])))
        object.__setattr__(self, "const", as_scalar(const))

    def embed(self) -> Mat3:
        h, (u, v), n = self.hom, self.lin, self.const
        return Mat3(((h.a, h.b, u), (h.c, h.d, v), (0, 0, n)))

    def scale(self, s) -> "StdFormMatrix":
        s = as_scalar(s)
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


# --- coefficient vector bridge -------------------------------------------
# order: x^2, xy, yx, y^2, x, y, 1


def matrix_from_coeffs(coeffs: Sequence) -> StdFormMatrix:
    if len(coeffs) != 7:
        raise ValueError("expected 7 coefficients: x^2, xy, yx, y^2, x, y, 1")
    a, b, c, d, u, v, n = (as_scalar(x) for x in coeffs)
    return StdFormMatrix(hom=Mat2(a, b, c, d), lin=(u, v), const=n)


def coeffs_from_matrix(m: StdFormMatrix) -> tuple[Scalar, ...]:
    h, (u, v), n = m.hom, m.lin, m.const
    return (h.a, h.b, h.c, h.d, u, v, n)

"""Canonical forms of nonzero 2x2 matrices under congruence with scaling.

Every nonzero 2x2 matrix M over an algebraically closed field of
characteristic zero is equivalent, under M -> alpha * P^T M P with P
invertible and alpha nonzero, to exactly one of

    X2      [[1, 0], [0, 0]]
    YX      [[0, 0], [1, 0]]
    JORDAN  [[0, -1], [1, 1]]
    Q(q)    [[0, -1], [q, 0]]   q nonzero, Q(q) and Q(1/q) identified

The decision uses the split M = A + S into antisymmetric and symmetric
parts: both symmetry types are preserved by congruence, and when A is
nonzero the ratio kappa = det(S) / pf(A)^2 is a full invariant of the
scaled congruence class.  canon2 returns the label together with an
explicit change of basis and scale; `sfcanon.sf_canonicalize` checks that
witness, as part of its composed one, before returning it.
"""

from __future__ import annotations

from ._value import Value
from .matrix import DegreeError, Mat2
from .scalar import Scalar, as_scalar, sqrt_extend


class Label(Value):
    """A class name: a tag, plus a nonzero q exactly when the tag is parametric.

    Every level of the classification names its classes this way; a subclass
    fixes the vocabulary by setting TAGS and PARAMETRIC.  Equality is exact
    (q and 1/q differ, and labels of different subclasses never agree);
    reciprocal_equivalent identifies q with 1/q.
    """

    __slots__ = ("tag", "q")

    TAGS = ()
    PARAMETRIC = ()

    def __init__(self, tag: str, q: Scalar | None = None):
        if tag not in self.TAGS:
            raise ValueError(f"unknown tag {tag!r}")
        if (tag in self.PARAMETRIC) != (q is not None):
            raise ValueError(
                f"parameter q is present exactly for tag {'/'.join(self.PARAMETRIC)}"
            )
        if q is not None:
            q = as_scalar(q)
            if q.is_zero():
                raise ValueError("q must be nonzero")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "q", q)

    def __str__(self):
        if self.q is None:
            return self.tag
        return f"{self.tag}({self.q})"


def reciprocal_equivalent(a: Label, b: Label) -> bool:
    """Label equality with q compared as the unordered pair {q, 1/q}.

    Fields beyond tag and q (such as AlgebraClass.via_v) are ignored.
    """
    if type(a) is not type(b) or a.tag != b.tag:
        return False
    return a.q is None or a.q == b.q or (a.q * b.q) == 1


class Canon2Label(Label):
    """Congruence class of a nonzero 2x2 matrix, with parameter for Q."""

    __slots__ = ()

    TAGS = ("X2", "YX", "JORDAN", "Q")
    PARAMETRIC = ("Q",)


def canonical_mat2(label: Canon2Label) -> Mat2:
    if label.tag == "X2":
        return Mat2(1, 0, 0, 0)
    if label.tag == "YX":
        return Mat2(0, 0, 1, 0)
    if label.tag == "JORDAN":
        return Mat2(0, -1, 1, 1)
    return Mat2(0, -1, label.q, 0)


def kappa(m: Mat2) -> Scalar:
    """det(symmetric part) / pfaffian^2; needs a nonzero antisymmetric part."""
    p = m.pfaffian()
    if p.is_zero():
        raise DegreeError("kappa needs a nonzero antisymmetric part")
    return m.symmetric_part().det() / (p * p)


def _canonical_q_from_kappa(k: Scalar) -> tuple[Scalar, Scalar]:
    """(q, sigma) with q the chosen root of (k+1)t^2 + 2(k-1)t + (k+1) = 0.

    sigma is the principal square root of -k, and q = (1+sigma)/(1-sigma).
    This picks the root with |q| >= 1, breaking the |q| = 1 tie towards
    nonnegative imaginary part: |1+s|^2 - |1-s|^2 = 4 Re(s) >= 0 for the
    principal root, with equality only when s is positive imaginary.
    """
    sigma = sqrt_extend(-k)
    q = (1 + sigma) / (1 - sigma)
    return q, sigma


def _rank1_symmetric_factor(s: Mat2) -> tuple[Scalar, tuple[Scalar, Scalar]]:
    """Write a nonzero singular symmetric s as lam * v v^T."""
    if not s.a.is_zero():
        return s.a, (Scalar.one(), s.b / s.a)
    if not s.d.is_zero():
        return s.d, (s.b / s.d, Scalar.one())
    # a = d = 0 and singular symmetric forces b = 0, i.e. s = 0
    raise DegreeError("matrix is zero")


def _isotropic_pair(s: Mat2, tau: Scalar):
    """Independent isotropic vectors of an invertible symmetric s.

    tau is a fixed square root of -det(s); using it keeps the whole witness
    inside one field extension.  Returns (u, v, w) with w = u^T s v.
    """
    a, b = s.a, s.b
    if not a.is_zero():
        u = ((-b + tau) / a, Scalar.one())
        v = ((-b - tau) / a, Scalar.one())
    else:
        # det s = -b^2 nonzero, so b is nonzero
        u = (Scalar.one(), Scalar.zero())
        v = (-s.d / (2 * b), Scalar.one())
    w = (
        u[0] * (s.a * v[0] + s.b * v[1])
        + u[1] * (s.c * v[0] + s.d * v[1])
    )
    return u, v, w


def _columns(u, v) -> Mat2:
    return Mat2(u[0], v[0], u[1], v[1])


def canon2(m: Mat2) -> tuple[Canon2Label, Mat2, Scalar]:
    """Label a nonzero 2x2 matrix and witness it: alpha * P^T m P = label matrix.

    A canonical matrix gets the identity witness and keeps its own q.  The
    witness is not checked here: `sfcanon.sf_canonicalize` checks the
    composed 3x3 witness once, with `verify_witness`.
    """
    if m.is_zero():
        raise DegreeError("cannot canonicalize the zero matrix")

    s = m.symmetric_part()
    p = m.pfaffian()

    if p.is_zero():
        dets = s.det()
        if dets.is_zero():
            label = Canon2Label("X2")
            if not s.a.is_zero():
                pw = Mat2(1, -s.b / s.a, 0, 1)
                alpha = s.a.inverse()
            else:
                pw = Mat2(0, 1, 1, 0)
                alpha = s.d.inverse()
        else:
            label = Canon2Label("Q", as_scalar(-1))
            tau = sqrt_extend(-dets)
            u, v, w = _isotropic_pair(s, tau)
            pw = _columns(u, v)
            alpha = -w.inverse()
    elif s.is_zero():
        label = Canon2Label("Q", Scalar.one())
        pw = Mat2.identity()
        alpha = p.inverse()
    else:
        k = s.det() / (p * p)
        if k.is_zero():
            # symmetric part has rank one: the Jordan-type class
            label = Canon2Label("JORDAN")
            lam, v = _rank1_symmetric_factor(s)
            t = -p / lam
            c1 = (-v[1], v[0])
            if not v[0].is_zero():
                c2 = (t / v[0], Scalar.zero())
            else:
                c2 = (Scalar.zero(), t / v[1])
            pw = _columns(c1, c2)
            alpha = lam / (p * p)
        elif (k + 1).is_zero():
            # det m = det s + p^2 = 0: rank one, but not symmetric
            label = Canon2Label("YX")
            if not (m.a.is_zero() and m.b.is_zero()):
                wvec = (m.a, m.b)
                uvec = (
                    Scalar.one(),
                    (m.c / m.a) if not m.a.is_zero() else (m.d / m.b),
                )
            else:
                wvec = (m.c, m.d)
                uvec = (Scalar.zero(), Scalar.one())
            c1 = (-uvec[1], uvec[0])
            c2 = (-wvec[1], wvec[0])
            delta = c2[0] * uvec[0] + c2[1] * uvec[1]
            pw = _columns(c1, c2)
            alpha = -(delta * delta).inverse()
        else:
            q, sigma = _canonical_q_from_kappa(k)
            label = Canon2Label("Q", q)
            tau = sigma * p  # a square root of -det(s), coherent with sigma
            u, v, w = _isotropic_pair(s, tau)
            d = u[0] * v[1] - u[1] * v[0]
            if d * p / w != sigma.inverse():
                u, v = v, u
            pw = _columns(u, v)
            alpha = (q - 1) / (2 * w)

    if m == canonical_mat2(label):
        if label.q is not None:
            # the input's own q: the computed one is equal but may print differently
            label = Canon2Label("Q", m.c)
        return label, Mat2.identity(), Scalar.one()
    return label, pw, alpha


def stab_membership(label: Canon2Label, p: Mat2) -> bool:
    """Whether P^T L P = L exactly for the label's literal matrix L."""
    if p.det().is_zero():
        raise ValueError("stabilizer members must be invertible")
    lmat = canonical_mat2(label)
    return p.transpose() * lmat * p == lmat


"""Exact scalars in towers of quadratic extensions of the rationals.

A :class:`Scalar` is an element of a field Q(sqrt(s1))(sqrt(s2))...(sqrt(sk))
where each radicand s_i is a nonzero element of the previous field that is not
a square there.  All arithmetic is exact; every value is a complex number and
zero testing is a structural check (sound because radicands are verified
non-squares on admission).  Decimal enclosures exist only for printing, for
picking a deterministic branch of each square root, and for cross-checks; no
arithmetic decision depends on them.

The representation of a depth-k element is a nested pair ``(a, b)`` standing
for ``a + b*sqrt(r_k)`` with ``a``, ``b`` at depth k-1 and plain ``Fraction``
values at depth 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Union

MAX_TOWER_DEPTH = 4

RationalLike = Union[int, Fraction]


class ScalarError(Exception):
    pass


class TowerDepthError(ScalarError):
    """Raised when a computation would need a tower deeper than the budget."""


# ---------------------------------------------------------------------------
# element helpers: nested pairs over a tower of levels


def _zero(depth):
    e = Fraction(0)
    for _ in range(depth):
        e = (e, e)
    return e


def _const(fr, depth):
    e = fr
    for d in range(depth):
        e = (e, _zero(d))
    return e


def _lift(e, from_depth, to_depth):
    for d in range(from_depth, to_depth):
        e = (e, _zero(d))
    return e


def _is_zero(e, depth):
    if depth == 0:
        return e == 0
    return _is_zero(e[0], depth - 1) and _is_zero(e[1], depth - 1)


def _add(x, y, depth):
    if depth == 0:
        return x + y
    return (_add(x[0], y[0], depth - 1), _add(x[1], y[1], depth - 1))


def _neg(x, depth):
    if depth == 0:
        return -x
    return (_neg(x[0], depth - 1), _neg(x[1], depth - 1))


def _sub(x, y, depth):
    return _add(x, _neg(y, depth), depth)


def _mul(x, y, depth, tower):
    if depth == 0:
        return x * y
    a1, b1 = x
    a2, b2 = y
    r = tower[depth - 1].radicand
    d = depth - 1
    bb = _mul(b1, b2, d, tower)
    return (
        _add(_mul(a1, a2, d, tower), _mul(bb, r, d, tower), d),
        _add(_mul(a1, b2, d, tower), _mul(b1, a2, d, tower), d),
    )


def _inv(x, depth, tower):
    if depth == 0:
        if x == 0:
            raise ZeroDivisionError("division by zero scalar")
        return 1 / x
    a, b = x
    d = depth - 1
    r = tower[d].radicand
    # norm to the subfield: (a + b sqrt r)(a - b sqrt r) = a^2 - b^2 r
    nrm = _sub(_mul(a, a, d, tower), _mul(_mul(b, b, d, tower), r, d, tower), d)
    ninv = _inv(nrm, d, tower)
    return (_mul(a, ninv, d, tower), _neg(_mul(b, ninv, d, tower), d))


def _scale(x, fr, depth):
    if depth == 0:
        return x * fr
    return (_scale(x[0], fr, depth - 1), _scale(x[1], fr, depth - 1))


def _elt_eq(x, y, depth):
    if depth == 0:
        return x == y
    return _elt_eq(x[0], y[0], depth - 1) and _elt_eq(x[1], y[1], depth - 1)


# ---------------------------------------------------------------------------
# decimal enclosures (complex balls with exact rational data)


@dataclass
class _Ball:
    re: Fraction
    im: Fraction
    rad: Fraction


def _ball_add(p, q):
    return _Ball(p.re + q.re, p.im + q.im, p.rad + q.rad)


def _ball_mul(p, q):
    re = p.re * q.re - p.im * q.im
    im = p.re * q.im + p.im * q.re
    mp = abs(p.re) + abs(p.im)
    mq = abs(q.re) + abs(q.im)
    return _Ball(re, im, mp * q.rad + mq * p.rad + p.rad * q.rad)


def _sqrt_frac(q: Fraction, digits: int) -> Fraction:
    """Floor approximation of sqrt(q) for q >= 0, within 10**-digits below."""
    if q < 0:
        raise ValueError("negative radicand for real square root")
    scale = 10 ** digits
    return Fraction(isqrt((q.numerator * scale * scale) // q.denominator), scale)


def _csqrt(re: Fraction, im: Fraction, digits: int):
    """Approximate principal square root of re + im*i as a rational pair."""
    if im == 0:
        if re >= 0:
            return _sqrt_frac(re, digits), Fraction(0)
        return Fraction(0), _sqrt_frac(-re, digits)
    r = _sqrt_frac(re * re + im * im, digits)
    if re >= 0:
        h = (r + re) / 2
        if h <= 0:
            return Fraction(0), Fraction(0)
        a = _sqrt_frac(h, digits)
        if a == 0:
            return Fraction(0), Fraction(0)
        return a, im / (2 * a)
    h = (r - re) / 2
    if h <= 0:
        return Fraction(0), Fraction(0)
    bm = _sqrt_frac(h, digits)
    if bm == 0:
        return Fraction(0), Fraction(0)
    b = bm if im > 0 else -bm
    return im / (2 * b), b


class _RootPin:
    """Refinable enclosure fixing which branch a tower level's root denotes."""

    __slots__ = ("re", "im", "rad", "digits")

    def __init__(self, re, im, rad, digits):
        self.re = re
        self.im = im
        self.rad = rad
        self.digits = digits

    def update(self, re, im, rad, digits):
        if rad < self.rad:
            self.re, self.im, self.rad, self.digits = re, im, rad, digits


class _Level:
    __slots__ = ("radicand", "pin")

    def __init__(self, radicand, pin):
        self.radicand = radicand
        self.pin = pin


def _eval_ball(e, depth, tower, digits):
    if depth == 0:
        return _Ball(e, Fraction(0), Fraction(0))
    a, b = e
    ba = _eval_ball(a, depth - 1, tower, digits)
    bb = _eval_ball(b, depth - 1, tower, digits)
    br = _root_ball(tower, depth - 1, digits)
    return _ball_add(ba, _ball_mul(bb, br))


def _root_candidate(tower, idx, digits):
    """Enclosure data (u, delta) with the true root within delta of +-u."""
    d = digits
    while True:
        bs = _eval_ball(tower[idx].radicand, idx, tower, d)
        lb_s = max(abs(bs.re), abs(bs.im)) - bs.rad
        if lb_s > 0:
            ure, uim = _csqrt(bs.re, bs.im, d + 10)
            wre = ure * ure - uim * uim - bs.re
            wim = 2 * ure * uim - bs.im
            eps = abs(wre) + abs(wim)
            lt = _sqrt_frac(lb_s, d + 10)
            den = max(max(abs(ure), abs(uim)), lt)
            if den > 0:
                delta = (bs.rad + eps) / den
                return ure, uim, delta
        d *= 2


def _make_pin(tower, idx) -> _RootPin:
    """Pick a branch for the root at tower[idx] deterministically.

    Prefers the branch whose enclosure proves a positive real part, falling
    back to a positive imaginary part; refines until one test is decisive and
    the enclosure is small against the root's magnitude.
    """
    d = 30
    while True:
        ure, uim, delta = _root_candidate(tower, idx, d)
        comp = max(abs(ure), abs(uim))
        if comp > 4 * delta:
            if ure - delta > 0:
                return _RootPin(ure, uim, delta, d)
            if ure + delta < 0:
                return _RootPin(-ure, -uim, delta, d)
            if uim - delta > 0:
                return _RootPin(ure, uim, delta, d)
            if uim + delta < 0:
                return _RootPin(-ure, -uim, delta, d)
        d *= 2


def _root_ball(tower, idx, digits):
    pin = tower[idx].pin
    d = max(digits, 30)
    while True:
        ure, uim, delta = _root_candidate(tower, idx, d)
        thresh = (pin.rad + delta) ** 2
        dp = (ure - pin.re) ** 2 + (uim - pin.im) ** 2
        dm = (ure + pin.re) ** 2 + (uim + pin.im) ** 2
        if (dp <= thresh) != (dm <= thresh):
            if dm <= thresh:
                ure, uim = -ure, -uim
            pin.update(ure, uim, delta, d)
            return _Ball(ure, uim, delta)
        # pins are created with radius under a quarter of the root size, so
        # shrinking the candidate alone is enough to separate the branches
        d *= 2


# ---------------------------------------------------------------------------
# square testing inside a tower


def _sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_in_tower(x, depth, tower):
    """A square root of x in the depth-`depth` field, or None."""
    if depth == 0:
        return _sqrt_fraction(x)
    a, b = x
    d = depth - 1
    r = tower[d].radicand
    if _is_zero(b, d):
        t = _sqrt_in_tower(a, d, tower)
        if t is not None:
            return (t, _zero(d))
        w = _sqrt_in_tower(_mul(a, _inv(r, d, tower), d, tower), d, tower)
        if w is not None:
            return (_zero(d), w)
        return None
    # any root c + d sqrt(r) forces a^2 - b^2 r to be a square one level down
    nrm = _sub(_mul(a, a, d, tower), _mul(_mul(b, b, d, tower), r, d, tower), d)
    m = _sqrt_in_tower(nrm, d, tower)
    if m is None:
        return None
    for mm in (m, _neg(m, d)):
        c2 = _scale(_add(a, mm, d), Fraction(1, 2), d)
        c = _sqrt_in_tower(c2, d, tower)
        if c is not None and not _is_zero(c, d):
            dd = _mul(b, _inv(_scale(c, Fraction(2), d), d, tower), d, tower)
            return (c, dd)
    return None


# ---------------------------------------------------------------------------
# tower merging


def _same_tower(ta, tb):
    if ta is tb:
        return True
    if len(ta) != len(tb):
        return False
    for i, (la, lb) in enumerate(zip(ta, tb)):
        if la is lb:
            continue
        if not _elt_eq(la.radicand, lb.radicand, i):
            return False
    return True


def _is_prefix(short, long):
    if len(short) > len(long):
        return False
    return _same_tower(short, long[: len(short)])


def _transplant(e, depth, maps, target_tower):
    """Re-express an element of the source tower over the target tower.

    maps[j] is the target-tower element equal to the source tower's level-j
    root.  The result has the target tower's full depth.
    """
    td = len(target_tower)
    if depth == 0:
        return _lift(e, 0, td)
    a, b = e
    ea = _transplant(a, depth - 1, maps, target_tower)
    eb = _transplant(b, depth - 1, maps, target_tower)
    return _add(ea, _mul(eb, maps[depth - 1], td, target_tower), td)


def _roots_match(tower_a, elt_a, tower_b, idx_b) -> bool:
    """Whether elt_a (over tower_a) equals tower_b's level-idx_b root (not its
    negative).  The two values are equal or negatives of each other."""
    d = 40
    da = len(tower_a)
    while True:
        ba = _eval_ball(elt_a, da, tower_a, d)
        bb = _root_ball(tower_b, idx_b, d)
        thresh = (ba.rad + bb.rad) ** 2
        dp = (ba.re - bb.re) ** 2 + (ba.im - bb.im) ** 2
        dm = (ba.re + bb.re) ** 2 + (ba.im + bb.im) ** 2
        if (dp <= thresh) != (dm <= thresh):
            return dp <= thresh
        d *= 2


def _merge_towers(ta, tb):
    """Common refinement of two towers.

    Returns (tower, maps) where maps[j] expresses tb's level-j root over the
    merged tower.  ta embeds as a prefix.
    """
    result = ta
    maps = []
    for j, lvl in enumerate(tb):
        r_hat = _transplant(lvl.radicand, j, maps, result)
        t = _sqrt_in_tower(r_hat, len(result), result)
        if t is not None:
            if not _roots_match(result, t, tb, j):
                t = _neg(t, len(result))
            maps.append(t)
        else:
            if len(result) >= MAX_TOWER_DEPTH:
                raise TowerDepthError(
                    "merging scalars would exceed the tower depth budget of %d"
                    % MAX_TOWER_DEPTH
                )
            grown = result + (_Level(r_hat, _make_pin_for_radicand(result, r_hat)),)
            new_root = (_zero(len(result)), _const(Fraction(1), len(result)))
            if not _roots_match(grown, new_root, tb, j):
                new_root = _neg(new_root, len(grown))
            maps = [_lift(m, len(result), len(grown)) for m in maps]
            maps.append(new_root)
            result = grown
    return result, maps


def _make_pin_for_radicand(tower_prefix, radicand):
    probe = tower_prefix + (_Level(radicand, None),)
    return _make_pin(probe, len(tower_prefix))


# ---------------------------------------------------------------------------
# public scalar type


@dataclass(frozen=True)
class Enclosure:
    """Rational rectangle guaranteed to contain a complex value."""

    re_low: Fraction
    re_high: Fraction
    im_low: Fraction
    im_high: Fraction

    def contains_zero(self) -> bool:
        return (
            self.re_low <= 0 <= self.re_high and self.im_low <= 0 <= self.im_high
        )

    def midpoint(self) -> tuple[Fraction, Fraction]:
        return (self.re_low + self.re_high) / 2, (self.im_low + self.im_high) / 2


class Scalar:
    """Immutable exact element of a quadratic extension tower over Q."""

    __slots__ = ("_tower", "_elt")

    def __init__(self, tower=(), elt=Fraction(0)):
        depth = len(tower)
        while depth > 0 and _is_zero(elt[1], depth - 1):
            elt = elt[0]
            depth -= 1
        tower = tuple(tower[:depth])
        object.__setattr__(self, "_tower", tower)
        object.__setattr__(self, "_elt", elt)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors

    @classmethod
    def from_fraction(cls, q: RationalLike) -> "Scalar":
        return cls((), Fraction(q))

    @classmethod
    def zero(cls) -> "Scalar":
        return cls((), Fraction(0))

    @classmethod
    def one(cls) -> "Scalar":
        return cls((), Fraction(1))

    # -- structure

    @property
    def tower_depth(self) -> int:
        return len(self._tower)

    def as_fraction(self) -> Optional[Fraction]:
        if len(self._tower) == 0:
            return self._elt
        return None

    def is_zero(self) -> bool:
        return _is_zero(self._elt, len(self._tower))

    def is_one(self) -> bool:
        return (self - 1).is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic

    def _with_common(self, other):
        other = as_scalar(other)
        ta, tb = self._tower, other._tower
        if _same_tower(ta, tb):
            return ta, self._elt, other._elt
        if _is_prefix(tb, ta):
            return ta, self._elt, _lift(other._elt, len(tb), len(ta))
        if _is_prefix(ta, tb):
            return tb, _lift(self._elt, len(ta), len(tb)), other._elt
        tower, maps = _merge_towers(ta, tb)
        ea = _lift(self._elt, len(ta), len(tower))
        eb = _transplant(other._elt, len(tb), maps, tower)
        return tower, ea, eb

    def __add__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        tower, a, b = self._with_common(other)
        return Scalar(tower, _add(a, b, len(tower)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self._tower, _neg(self._elt, len(self._tower)))

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        tower, a, b = self._with_common(other)
        return Scalar(tower, _sub(a, b, len(tower)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        tower, a, b = self._with_common(other)
        return Scalar(tower, _mul(a, b, len(tower), tower))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self._tower, _inv(self._elt, len(self._tower), self._tower))

    def __truediv__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self * as_scalar(other).inverse()

    def __rtruediv__(self, other):
        return as_scalar(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- numerics

    def approx(self, digits: int = 30) -> Enclosure:
        """Enclosure of width below 10**-digits in each coordinate."""
        if digits > 200:
            raise ValueError("approx supports at most 200 digits")
        bound = Fraction(1, 10 ** digits)
        d = digits + 5
        while True:
            ball = _eval_ball(self._elt, len(self._tower), self._tower, d)
            if 2 * ball.rad < bound:
                return Enclosure(
                    ball.re - ball.rad,
                    ball.re + ball.rad,
                    ball.im - ball.rad,
                    ball.im + ball.rad,
                )
            d *= 2

    def approx_complex(self, digits: int = 20) -> complex:
        enc = self.approx(digits)
        re, im = enc.midpoint()
        return complex(re, im)

    # -- printing

    def _terms(self):
        return _flatten_terms(self._elt, len(self._tower), self._tower)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)})"


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def is_zero(s: Scalar) -> bool:
    return as_scalar(s).is_zero()


def approx(s: Scalar, digits: int = 30) -> Enclosure:
    return as_scalar(s).approx(digits)


def _canonical_sign(s: Scalar) -> int:
    """+1 if s itself is the canonical branch choice, else -1 (s nonzero).

    Canonical means: provably positive real part, with positive imaginary
    part as the tie break.
    """
    d = 30
    while True:
        ball = _eval_ball(s._elt, len(s._tower), s._tower, d)
        if ball.re - ball.rad > 0:
            return 1
        if ball.re + ball.rad < 0:
            return -1
        if ball.im - ball.rad > 0:
            return 1
        if ball.im + ball.rad < 0:
            return -1
        d *= 2


def sqrt_extend(s: Scalar) -> Scalar:
    """The canonical square root of s, extending the tower when needed.

    Within the existing tower the root is found by the recursive square test;
    otherwise a new level is admitted (radicand recorded as a verified
    non-square) up to the depth budget.
    """
    s = as_scalar(s)
    if s.is_zero():
        return Scalar.zero()
    tower = s._tower
    depth = len(tower)
    t = _sqrt_in_tower(s._elt, depth, tower)
    if t is not None:
        root = Scalar(tower, t)
        if _canonical_sign(root) < 0:
            root = -root
        return root
    if depth >= MAX_TOWER_DEPTH:
        raise TowerDepthError(
            "square root of %s needs tower depth %d, budget is %d"
            % (s, depth + 1, MAX_TOWER_DEPTH)
        )
    pin = _make_pin_for_radicand(tower, s._elt)
    grown = tower + (_Level(s._elt, pin),)
    return Scalar(grown, (_zero(depth), _const(Fraction(1), depth)))


# ---------------------------------------------------------------------------
# text rendering


def _radical_text(tower, idx) -> str:
    inner = _render_terms(_flatten_terms(tower[idx].radicand, idx, tower))
    return f"sqrt({inner})"


def _flatten_terms(e, depth, tower):
    """List of (Fraction coefficient, tuple of radical texts) products."""
    if depth == 0:
        return [(e, ())] if e != 0 else []
    a, b = e
    out = list(_flatten_terms(a, depth - 1, tower))
    rad = _radical_text(tower, depth - 1)
    for coeff, rads in _flatten_terms(b, depth - 1, tower):
        out.append((coeff, rads + (rad,)))
    return out


def _fraction_text(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _term_text(coeff: Fraction, rads) -> str:
    if not rads:
        return _fraction_text(coeff)
    body = "*".join(rads)
    if coeff == 1:
        return body
    return f"{_fraction_text(coeff)}*{body}"


def _render_terms(terms) -> str:
    if not terms:
        return "0"
    pieces = []
    for i, (coeff, rads) in enumerate(terms):
        neg = coeff < 0
        text = _term_text(-coeff if neg else coeff, rads)
        if i == 0:
            pieces.append(("-" if neg else "") + text)
        else:
            pieces.append(("- " if neg else "+ ") + text)
    return " ".join(pieces)


def format_scalar(s: Scalar) -> str:
    return _render_terms(s._terms())


def enclosure_decimal(enc: Enclosure, digits: int) -> str:
    """Approximate decimal rendering of an enclosure midpoint, marked inexact."""
    re, im = enc.midpoint()

    def dec(q: Fraction) -> str:
        scaled = round(q * 10 ** digits)
        sign = "-" if scaled < 0 else ""
        scaled = abs(scaled)
        whole, frac = divmod(scaled, 10 ** digits)
        return f"{sign}{whole}.{str(frac).zfill(digits)}"

    if im == 0:
        return f"~{dec(re)}"
    op = "+" if im >= 0 else "-"
    return f"~{dec(re)} {op} {dec(abs(im))}i"

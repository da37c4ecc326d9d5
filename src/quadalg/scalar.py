"""Exact scalars in towers of quadratic extensions of the rationals.

A :class:`Scalar` is an element of a field Q(sqrt(s1))(sqrt(s2))...(sqrt(sk))
where each radicand s_i is a nonzero element of the previous field that is not
a square there.  All arithmetic is exact; every value is a complex number and
zero testing is a structural check (sound because radicands are verified
non-squares on admission).

Each level's root is the principal square root of its radicand: the root
with positive real part, or with zero real part and positive imaginary part.
Decimal enclosures tell which root that is (`_half_plane`), on the fixed
ladder of 30, 60, ... digits, and a real part too small to tell from zero
there counts as zero.  Enclosures otherwise serve only printing and
cross-checks; no other arithmetic decision depends on them.  Every
refinement loop, for a root ball, a sign or an approximation, takes its
working precisions from one generator, `_ladder(start)`: start, then
doubling, up to the cap MAX_ENCLOSURE_DIGITS.  A tower holds
only its radicands, so it is an immutable value: two towers with equal
radicands denote the same roots.  A level keeps the balls around its root
that have been computed, by precision: the level sits at one index over one
fixed prefix, so the ball never changes, and each is computed once.

An op on values over two different towers merges the towers first.
`on_one_tower` re-expresses a list of values over one common tower,
merging each distinct tower once, so that a whole matrix product (the
witness checkers') then stays on the same-tower path.  A merge carries a
value over by placing it, not by multiplying: a level admitted for one of
the other tower's roots is recorded by its index k, and multiplying by
that root moves slots, ``(a, b) -> (b*r_k, a)`` at level k and the same
move on both halves above it.  Only a root found inside the tower is
recorded as an element and taken by a general product.  When every
radicand is rational the common tower is a multiquadratic field, and
`radical_terms` reads its values on the products of roots scaled to
integer squares, a basis, so that the witness check multiplies integers.

The representation of a depth-k element is a nested pair ``(a, b)`` standing
for ``a + b*sqrt(r_k)`` with ``a``, ``b`` at depth k-1 and plain ``Fraction``
values at depth 0.  Two rational operands never enter that recursion: the
operators work on their ``Fraction``s directly.  A rational factor of a
tower value scales every slot.  Any other rational operand is lifted onto
the other operand's tower like a value over a prefix of it, and every
radicand, rational or not, multiplies through ``_mul``.

The constants 0, 1 and -1 are three shared Scalars (``ZERO``, ``ONE`` and
``MINUS_ONE``): ``Scalar.zero()``, ``Scalar.one()``, ``Scalar.from_fraction``
of a whole -1, 0 or 1 and every int operand of -1, 0 or 1 give them, so the
literal entries of matrices are shared.  Before any arithmetic, at every
depth, the operators test whether an operand *is* ZERO or ONE and return
the result that needs no arithmetic (``x * 0`` is ZERO, ``x * 1`` and
``x + 0`` are x, ``0 - x`` is -x); that result is normalised and equal to
what the general path gives.  They never test an operand's *value* against
0 or 1: computed coefficients are rarely trivial, so such a test would be
paid on nearly every op for nothing.

The leaves of the tower recursion are the exception.  Nested elements are
sparse (``sqrt(2)*sqrt(3)`` at depth 2 has one nonzero leaf of four), so the
depth-0 case of ``_mul`` returns a zero leaf as the product instead of
calling ``Fraction.__mul__``.  Every tower product takes that path.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from ._value import Value

MAX_TOWER_DEPTH = 4

# Precision cap, in decimal digits, for the refinement loops of the decimal
# enclosures.  `_ladder` doubles a loop's working precision until its test is
# decisive; exact nonzero data always decides well below this cap, so
# passing it raises ScalarError instead of spinning.
MAX_ENCLOSURE_DIGITS = 1 << 16

# Largest number of decimal digits that Scalar.approx (and so the CLI's
# --digits) will print.
MAX_APPROX_DIGITS = 200

RationalLike = int | Fraction


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
        # a zero leaf is its own product (see the module docstring)
        if not x:
            return x
        if not y:
            return y
        return x * y
    a1, b1 = x
    a2, b2 = y
    d = depth - 1
    bb = _mul(b1, b2, d, tower)
    return (
        _add(_mul(a1, a2, d, tower), _mul(bb, tower[d].radicand, d, tower), d),
        _add(_mul(a1, b2, d, tower), _mul(b1, a2, d, tower), d),
    )


def _norm(a, b, depth, tower):
    """a^2 - b^2 r: the norm of a + b sqrt(r) to the subfield, r = tower[depth]."""
    bbr = _mul(_mul(b, b, depth, tower), tower[depth].radicand, depth, tower)
    return _sub(_mul(a, a, depth, tower), bbr, depth)


def _inv(x, depth, tower):
    if depth == 0:
        if x == 0:
            raise ZeroDivisionError("division by zero scalar")
        return 1 / x
    a, b = x
    d = depth - 1
    ninv = _inv(_norm(a, b, d, tower), d, tower)
    return (_mul(a, ninv, d, tower), _neg(_mul(b, ninv, d, tower), d))


def _scale(x, fr, depth):
    if depth == 0:
        return x * fr
    return (_scale(x[0], fr, depth - 1), _scale(x[1], fr, depth - 1))


# ---------------------------------------------------------------------------
# decimal enclosures (complex balls with exact rational data)


class Enclosure(Value):
    """Complex ball with exact rational data: the value's real part lies
    within rad of re, and its imaginary part within rad of im."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re: Fraction, im: Fraction, rad: Fraction):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "rad", rad)

    # the data are Fractions, so unlike the other value types it hashes
    def __hash__(self):
        return hash(self._key(self))


def _ball_add(p, q):
    return Enclosure(p.re + q.re, p.im + q.im, p.rad + q.rad)


def _ball_mul(p, q):
    re = p.re * q.re - p.im * q.im
    im = p.re * q.im + p.im * q.re
    mp = abs(p.re) + abs(p.im)
    mq = abs(q.re) + abs(q.im)
    return Enclosure(re, im, mp * q.rad + mq * p.rad + p.rad * q.rad)


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
    bm = _sqrt_frac((r - re) / 2, digits)  # positive, as r >= 0 > re
    if bm == 0:
        return Fraction(0), Fraction(0)
    b = bm if im > 0 else -bm
    return im / (2 * b), b


class _Level:
    """One tower level: its radicand (an element one level down) and the
    balls around the level's root found so far, by precision in digits.  The
    level's root is the principal square root of the radicand.

    A level sits at one index over one fixed prefix (towers only grow by
    ``tower + (level,)``), so its root ball at a given precision never
    changes and `_root_ball` computes it once."""

    __slots__ = ("radicand", "balls")

    def __init__(self, radicand):
        self.radicand = radicand
        self.balls = {}


def _ladder(start):
    """The working precisions start, 2*start, 4*start, ...: a refinement
    loop tries each in turn until its test is decisive.  The start is tried
    whatever its size; doubling past MAX_ENCLOSURE_DIGITS raises."""
    yield start
    d = 2 * start
    while d <= MAX_ENCLOSURE_DIGITS:
        yield d
        d *= 2
    raise ScalarError(
        "deciding an enclosure needs more than %d digits" % MAX_ENCLOSURE_DIGITS
    )


def _eval_ball(e, depth, tower, digits):
    """Ball around the value of e; each level's root ball is computed once."""
    roots = [_root_ball(tower, j, digits) for j in range(depth)]
    return _elt_ball(e, depth, roots)


def _elt_ball(e, depth, roots):
    if depth == 0:
        return Enclosure(e, Fraction(0), Fraction(0))
    a, b = e
    ba = _elt_ball(a, depth - 1, roots)
    bb = _elt_ball(b, depth - 1, roots)
    return _ball_add(ba, _ball_mul(bb, roots[depth - 1]))


def _root_candidate(tower, idx, digits):
    """Enclosure data (u, delta) with the true root within delta of +-u."""
    for d in _ladder(digits):
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
                return ure, uim, (bs.rad + eps) / den


def _half_plane(re, im, rad) -> int:
    """+1 when the ball (re, im, rad) lies in the principal half-plane (real
    part positive, or else imaginary part positive), -1 when its negative
    does, 0 when the ball is too wide to tell."""
    if re - rad > 0:
        return 1
    if re + rad < 0:
        return -1
    if im - rad > 0:
        return 1
    if im + rad < 0:
        return -1
    return 0


def _root_ball(tower, idx, digits):
    """Ball around the principal square root of tower[idx]'s radicand, kept
    on the level so that each precision is computed once."""
    balls = tower[idx].balls
    ball = balls.get(digits)
    if ball is None:
        ball = balls[digits] = _principal_root_ball(tower, idx, digits)
    return ball


def _principal_root_ball(tower, idx, digits):
    """Ball around the principal square root of tower[idx]'s radicand.

    The half-plane is settled on the ladder 30, 60, ... digits whatever the
    precision asked for.  A ball at a higher precision is flipped by the part
    that settled it, so every precision encloses the same root.
    """
    for d in _ladder(30):
        ure, uim, delta = _root_candidate(tower, idx, d)
        sign = _half_plane(ure, uim, delta)
        if sign:
            break
    if digits > d:
        by_real_part = abs(ure) > delta
        for d in _ladder(digits):
            ure, uim, delta = _root_candidate(tower, idx, d)
            if by_real_part:
                sign = _half_plane(ure, 0, delta)
            else:
                sign = _half_plane(0, uim, delta)
            if sign:
                break
    return Enclosure(sign * ure, sign * uim, delta)


def _canonical_sign(tower, elt) -> int:
    """+1 when the nonzero element elt is in the principal half-plane, else -1."""
    for d in _ladder(30):
        ball = _eval_ball(elt, len(tower), tower, d)
        sign = _half_plane(ball.re, ball.im, ball.rad)
        if sign:
            return sign


# ---------------------------------------------------------------------------
# square testing inside a tower


def _sqrt_fraction(q: Fraction) -> Fraction | None:
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
    m = _sqrt_in_tower(_norm(a, b, d, tower), d, tower)
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
    for la, lb in zip(ta, tb):
        if la is lb:
            continue
        if la.radicand != lb.radicand:
            return False
    return True


def _is_prefix(short, long):
    if len(short) > len(long):
        return False
    return _same_tower(short, long[: len(short)])


def _mul_root(x, k, depth, tower):
    """x times the root of tower[k], with x at depth > k: at level k the
    slots move, (a, b) -> (b * r_k, a), and above it both halves move."""
    a, b = x
    if depth == k + 1:
        return (_mul(b, tower[k].radicand, k, tower), a)
    d = depth - 1
    return (_mul_root(a, k, d, tower), _mul_root(b, k, d, tower))


def _transplant(e, depth, maps, target_tower):
    """Re-express an element of the source tower over the target tower.

    maps[j] stands for the source tower's level-j root over the target
    tower.  It is either a level index k (an admitted root: the target's
    level k was admitted for it and has it as its root) or the target-tower
    element equal to it at the target's full depth (a root found in the
    tower).  Multiplying by an admitted root is a slot move (`_mul_root`);
    only a found root takes a general product.  The result has the target
    tower's full depth.
    """
    td = len(target_tower)
    if depth == 0:
        return _lift(e, 0, td)
    a, b = e
    ea = _transplant(a, depth - 1, maps, target_tower)
    eb = _transplant(b, depth - 1, maps, target_tower)
    root = maps[depth - 1]
    if root.__class__ is int:
        return _add(ea, _mul_root(eb, root, td, target_tower), td)
    return _add(ea, _mul(eb, root, td, target_tower), td)


def _merge_towers(ta, tb):
    """Common refinement of two towers.

    Returns (tower, maps) where maps[j] expresses tb's level-j root over the
    merged tower: the index k of the merged level admitted for it, or, for a
    root found in the tower, the element equal to it, lifted to the merged
    depth (index entries need no lift).  ta embeds as a prefix.  Every root
    involved is principal, so a root found inside the tower takes the
    principal sign, and a new level over a radicand equal to tb's has tb's
    root as its own.
    """
    result = ta
    maps = []
    for j, lvl in enumerate(tb):
        depth = len(result)
        r_hat = _transplant(lvl.radicand, j, maps, result)
        t = _sqrt_in_tower(r_hat, depth, result)
        if t is not None:
            if _canonical_sign(result, t) < 0:
                t = _neg(t, depth)
            maps.append(t)
            continue
        if depth >= MAX_TOWER_DEPTH:
            raise TowerDepthError(
                "merging scalars would exceed the tower depth budget of %d"
                % MAX_TOWER_DEPTH
            )
        result = result + (_Level(r_hat),)
        maps = [m if m.__class__ is int else _lift(m, depth, depth + 1) for m in maps]
        maps.append(depth)
    return result, maps


# ---------------------------------------------------------------------------
# public scalar type


class Scalar(Value):
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

    # -- constructors

    @staticmethod
    def from_fraction(q: RationalLike) -> "Scalar":
        """q as a Scalar; a whole -1, 0 or 1 gives the shared constant."""
        if q.__class__ is not Fraction:
            q = Fraction(q)
        if q.denominator == 1 and -1 <= q.numerator <= 1:
            return _SHARED[q.numerator]
        return _normalised((), q)

    @staticmethod
    def zero() -> "Scalar":
        return ZERO

    @staticmethod
    def one() -> "Scalar":
        return ONE

    # -- structure

    @property
    def tower_depth(self) -> int:
        return len(self._tower)

    def as_fraction(self) -> Fraction | None:
        if len(self._tower) == 0:
            return self._elt
        return None

    # A normalised value over a nonempty tower has a nonzero top slot, and
    # its tower's radicands are verified non-squares, so it is irrational:
    # only a depth-0 value can be zero or equal a rational.

    def is_zero(self) -> bool:
        return not self._tower and not self._elt

    def __bool__(self) -> bool:
        return bool(self._tower) or bool(self._elt)

    # -- arithmetic

    def _with_common(self, other):
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

    # A rational (depth-0) factor never joins a tower: it scales every slot
    # of a product.  A nonzero factor keeps the top slot nonzero, so the
    # result is normalised.

    def _times_rational(self, fr):
        if not fr:
            return ZERO
        return _normalised(self._tower, _scale(self._elt, fr, len(self._tower)))

    # Each operator tests for an exact Scalar first, then for a shared
    # constant by identity, before any arithmetic; two depth-0 operands work
    # on their Fractions directly.

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if other is ZERO:
            return self
        if self is ZERO:
            return other
        if not self._tower and not other._tower:
            return _normalised((), self._elt + other._elt)
        tower, a, b = self._with_common(other)
        return Scalar(tower, _add(a, b, len(tower)))

    __radd__ = __add__

    def __neg__(self):
        if self is ZERO:
            return self
        return _normalised(self._tower, _neg(self._elt, len(self._tower)))

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if other is ZERO or self is ZERO:
            return ZERO
        if other is ONE:
            return self
        if self is ONE:
            return other
        if not other._tower:
            if not self._tower:
                return _normalised((), self._elt * other._elt)
            return self._times_rational(other._elt)
        if not self._tower:
            return other._times_rational(self._elt)
        tower, a, b = self._with_common(other)
        return Scalar(tower, _mul(a, b, len(tower), tower))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return Scalar(self._tower, _inv(self._elt, len(self._tower), self._tower))

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_scalar(other) * self.inverse()

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if not self._tower and not other._tower:
            return self._elt == other._elt
        return (self - other).is_zero()

    # -- numerics

    def approx(self, digits: int = 30) -> Enclosure:
        """Enclosure of width 2*rad below 10**-digits in each coordinate."""
        if digits > MAX_APPROX_DIGITS:
            raise ValueError("approx supports at most %d digits" % MAX_APPROX_DIGITS)
        bound = Fraction(1, 10 ** digits)
        for d in _ladder(digits + 5):
            ball = _eval_ball(self._elt, len(self._tower), self._tower, d)
            if 2 * ball.rad < bound:
                return ball

    # -- printing

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)})"


_new_scalar = object.__new__
_set_tower = Scalar._tower.__set__
_set_elt = Scalar._elt.__set__


def _normalised(tower, elt) -> Scalar:
    """A Scalar from a pair that is normalised already: tower is empty or
    elt's top slot is nonzero.  Sets the slots without Scalar.__init__."""
    s = _new_scalar(Scalar)
    _set_tower(s, tower)
    _set_elt(s, elt)
    return s


# The shared constants (see the module docstring).  Scalars are immutable,
# so one object can stand for every 0, 1 and -1 an int operand asks for.
ZERO = _normalised((), Fraction(0))
ONE = _normalised((), Fraction(1))
MINUS_ONE = _normalised((), Fraction(-1))
_SHARED = {0: ZERO, 1: ONE, -1: MINUS_ONE}


def _operand(x) -> Scalar | None:
    """x as a Scalar when it is one or an int or Fraction, else None; an int
    of -1, 0 or 1 gives the shared constant."""
    if isinstance(x, Scalar):
        return x
    if x.__class__ is int and -1 <= x <= 1:
        return _SHARED[x]
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    return None


def as_scalar(x) -> Scalar:
    if x.__class__ is Scalar:
        return x
    s = _operand(x)
    if s is None:
        if isinstance(x, float):
            raise TypeError("floats are not exact; pass int, Fraction, or Scalar")
        raise TypeError(f"cannot interpret {x!r} as a scalar")
    return s


def sqrt_extend(s: Scalar) -> Scalar:
    """The principal square root of s, extending the tower when needed.

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
        if _canonical_sign(root._tower, root._elt) < 0:
            root = -root
        return root
    if depth >= MAX_TOWER_DEPTH:
        raise TowerDepthError(
            "square root of %s needs tower depth %d, budget is %d"
            % (s, depth + 1, MAX_TOWER_DEPTH)
        )
    grown = tower + (_Level(s._elt),)
    return Scalar(grown, (_zero(depth), _lift(Fraction(1), 0, depth)))


def on_one_tower(values):
    """The Scalars in `values` re-expressed over one common tower.

    The distinct towers are folded into one growing tower: a tower that is a
    prefix of it is taken as it is, a tower that extends it replaces it, and
    any other tower is merged into it once.  The maps each merge returns
    carry that tower's values over: a map is either a level index (an
    admitted root), taken as it is, or an element (a root found in the
    tower), lifted to the final depth.  Rational values and values on the
    common tower or a prefix of it come back unchanged.  When no tower needs
    a merge, `values` itself is returned.
    """
    tower = ()
    merged = {}  # source tower -> (its maps, depth of the tower they are over)
    for v in values:
        t = v._tower
        if not t or t is tower or t in merged or _is_prefix(t, tower):
            continue
        if _is_prefix(tower, t):
            tower = t
            continue
        tower, maps = _merge_towers(tower, t)
        merged[t] = (maps, len(tower))
    if not merged:
        return values
    depth = len(tower)
    lifted = {
        t: [m if m.__class__ is int else _lift(m, d, depth) for m in maps]
        for t, (maps, d) in merged.items()
    }
    out = []
    for v in values:
        maps = lifted.get(v._tower)
        if maps is None:
            out.append(v)
        else:
            out.append(Scalar(tower, _transplant(v._elt, len(v._tower), maps, tower)))
    return out


# ---------------------------------------------------------------------------
# monomials: the element as its coefficients of products of the roots


def _monomials(e, depth, out, mask=0):
    """out, updated with each nonzero coefficient of the element e by the
    bitmask S of levels of its monomial prod_{j in S} sqrt(r_j), in
    increasing order of S."""
    if not depth:
        if e:
            out[mask] = e
        return out
    _monomials(e[0], depth - 1, out, mask)
    return _monomials(e[1], depth - 1, out, mask | 1 << (depth - 1))


def rational_radicands(values) -> bool:
    """True when every radicand of the towers of `values` is rational."""
    return all(_monomials(level.radicand, j, {}).keys() == {0}
               for tower in {v._tower for v in values} for j, level in enumerate(tower))


def radical_terms(values):
    """Values over one tower with rational radicands r_j = n_j / d_j (as
    `on_one_tower` returns them) on the linearly independent monomials
    rho_S = prod_{j in S} rho_j of rho_j = d_j sqrt(r_j), S a bitmask of
    levels: (squares, terms, scalar).  squares[S] = rho_S^2 is an integer;
    terms has each value as a dict from S to the numerator and denominator
    of its nonzero coefficient of rho_S; scalar(x, den) is the normalised
    Scalar sum(x[S] rho_S) / den of integers x[S]."""
    tower = max((v._tower for v in values), key=len)
    squares, dens = [1], [1]  # by S: rho_S^2 and rho_S / prod_{j in S} sqrt(r_j)
    for j, level in enumerate(tower):
        r = _monomials(level.radicand, j, {})[0]
        squares += [s * r.numerator * r.denominator for s in squares]
        dens += [d * r.denominator for d in dens]

    def scalar(x, den):
        e = [Fraction(x[s] * dens[s], den) if x.get(s) else ZERO._elt for s in range(len(dens))]
        while len(e) > 1:
            e = list(zip(e[0::2], e[1::2]))
        value = Scalar(tower, e[0])
        return value if value._tower else Scalar.from_fraction(value._elt)

    terms = [_monomials(v._elt, len(v._tower), {}) for v in values]
    return squares, [{s: (c.numerator, c.denominator * dens[s]) for s, c in q.items()}
                     for q in terms], scalar


# ---------------------------------------------------------------------------
# text rendering


def _radical_text(tower, idx) -> str:
    inner = _render_terms(_flatten_terms(tower[idx].radicand, idx, tower))
    return f"sqrt({inner})"


def _flatten_terms(e, depth, tower):
    """List of (Fraction coefficient, tuple of radical texts) products."""
    rads = [_radical_text(tower, j) for j in range(depth)]
    return [(c, tuple(rads[j] for j in range(depth) if s >> j & 1))
            for s, c in _monomials(e, depth, {}).items()]


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        # Python 3.11 and later cap int -> str conversion (4300 digits by default)
        raise ScalarError("an exact value has an integer too long to print") from None


def _fraction_text(q: Fraction) -> str:
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


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
    # a rational value is one term with no radicals, and the sign of its
    # text is the sign of its numerator
    if not s._tower:
        return _fraction_text(s._elt)
    return _render_terms(_flatten_terms(s._elt, len(s._tower), s._tower))


def enclosure_decimal(enc: Enclosure, digits: int) -> str:
    """Approximate decimal rendering of an enclosure midpoint, marked inexact."""
    re, im = enc.re, enc.im

    def dec(q: Fraction) -> str:
        scaled = round(q * 10 ** digits)
        sign = "-" if scaled < 0 else ""
        scaled = abs(scaled)
        whole, frac = divmod(scaled, 10 ** digits)
        return f"{sign}{_int_text(whole)}.{str(frac).zfill(digits)}"

    if im == 0:
        return f"~{dec(re)}"
    op = "+" if im >= 0 else "-"
    return f"~{dec(re)} {op} {dec(abs(im))}i"

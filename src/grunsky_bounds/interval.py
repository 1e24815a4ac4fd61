"""Outward-rounded interval arithmetic.

Every operation returns an interval that contains the exact real-arithmetic
image of its operands.  Each endpoint is at most one ulp outside the directed
rounding of the exact result, and it is exact only where that is proven.

The scalar helpers round as follows:

- `_mul_*`, `_sqrt_*` and `_recip_*` take the round-to-nearest result and
  step one ulp outward with `math.nextafter` (Rump, Zimmermann, Boldo &
  Melquiond, "Computing predecessor and successor in rounding to nearest",
  BIT 49, 2009).  A round-to-nearest result is within half an ulp of the
  exact one, so the step is outward for normal, subnormal, underflowing and
  overflowing results alike.  A product with a zero operand is exact and is
  not stepped.
- `_add_*` compute the exact rounding error of the sum with TwoSum inline
  and step only when the sum rounded, so exact sums keep exact endpoints.
  The error is NaN when the sum overflows; the test then steps too.

The pair kernel `_mul_pair`, `_pow_pair` and `_sqrt_pair` works on plain
(lo, hi) float pairs and builds no object.  `Interval.__mul__`, `__pow__`
and `sqrt_clamped` are one-line wrappers of it, and the compiled evaluators
of `poly` and `objectives` call it directly, so both paths give the same
bits.  `_mul_pair` forms only the endpoint products its sign case needs (two
when either operand is one-signed, four when both straddle zero).  Round to
nearest is monotone and so is the step, so the product with the extreme
exact value rounds to the extreme endpoint.  When an endpoint comes out as
zero, its sign can depend on which of several equal products is taken, so
the product is then formed from all four in the fixed order.

General division is not provided.  The quotients in the toolkit are
1/sqrt(R) over boxes where the radicand R is strictly positive (in the true
gradient and Hessian of an objective, in the branch-and-bound centered form
and in the slope of an edge form) and 1/D' in the 1-D Newton step, over a
slope enclosure D' of one sign, which the step makes positive first.
`Interval.recip` therefore accepts strictly positive intervals only;
`_recip_up` and `_recip_down` are its directed-rounded scalar halves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

# Negative radicands at least this small are treated as rounding artifacts of
# points on the region boundary, where the radicand vanishes exactly.
CLAMP_TOL = 1e-12

_INF = math.inf


class NegativeRadicandError(ArithmeticError):
    """Radicand is entirely below the clamp tolerance: point outside the domain."""


def _add_down(x: float, y: float) -> float:
    s = x + y
    bb = s - x
    if not (x - (s - bb)) + (y - bb) >= 0.0:
        return math.nextafter(s, -_INF)
    return s


def _add_up(x: float, y: float) -> float:
    s = x + y
    bb = s - x
    if not (x - (s - bb)) + (y - bb) <= 0.0:
        return math.nextafter(s, _INF)
    return s


def _mul_down(x: float, y: float) -> float:
    if x and y:
        return math.nextafter(x * y, -_INF)
    return x * y


def _mul_up(x: float, y: float) -> float:
    if x and y:
        return math.nextafter(x * y, _INF)
    return x * y


def _sqrt_down(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return math.nextafter(math.sqrt(x), -_INF)


def _sqrt_up(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return math.nextafter(math.sqrt(x), _INF)


def _recip_up(v: float) -> float:
    """Upward-rounded 1/v for v > 0."""
    return math.nextafter(1.0 / v, _INF)


def _recip_down(v: float) -> float:
    """Downward-rounded 1/v for v > 0."""
    return math.nextafter(1.0 / v, -_INF)


def _pow_down(x: float, n: int) -> float:
    # x >= 0
    r = x
    for _ in range(n - 1):
        r = _mul_down(r, x)
    return r


def _pow_up(x: float, n: int) -> float:
    r = x
    for _ in range(n - 1):
        r = _mul_up(r, x)
    return r


def _mul_pair(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """(lo, hi) of [a, b] * [c, d]."""
    # Round to nearest and the outward step are both monotone, so the
    # endpoint product named by the sign case rounds to the same float as
    # the min / max of all four.
    if a >= 0.0:
        if c >= 0.0:
            lo, hi = _mul_down(a, c), _mul_up(b, d)
        elif d <= 0.0:
            lo, hi = _mul_down(b, c), _mul_up(a, d)
        else:
            lo, hi = _mul_down(b, c), _mul_up(b, d)
    elif b <= 0.0:
        if c >= 0.0:
            lo, hi = _mul_down(a, d), _mul_up(b, c)
        elif d <= 0.0:
            lo, hi = _mul_down(b, d), _mul_up(a, c)
        else:
            lo, hi = _mul_down(a, d), _mul_up(a, c)
    elif c >= 0.0:
        lo, hi = _mul_down(a, d), _mul_up(b, d)
    elif d <= 0.0:
        lo, hi = _mul_down(b, c), _mul_up(a, c)
    else:
        lo = min(_mul_down(a, d), _mul_down(b, c))
        hi = max(_mul_up(a, c), _mul_up(b, d))
    if lo and hi:
        return lo, hi
    # A zero endpoint may be +0.0 or -0.0 depending on which of the equal
    # products is taken: keep the sign the four-product min / max gives.
    lo = min(_mul_down(a, c), _mul_down(a, d), _mul_down(b, c), _mul_down(b, d))
    hi = max(_mul_up(a, c), _mul_up(a, d), _mul_up(b, c), _mul_up(b, d))
    return lo, hi


def _pow_pair(lo: float, hi: float, n: int) -> tuple[float, float]:
    """(lo, hi) of [lo, hi]**n for an integer n >= 0."""
    if n == 0:
        return 1.0, 1.0
    if n == 1:
        return lo, hi
    if n % 2 == 0:
        # even powers: analyse monotone pieces so [-1,1]**2 == [0,1]
        if lo >= 0.0:
            return _pow_down(lo, n), _pow_up(hi, n)
        if hi <= 0.0:
            return _pow_down(-hi, n), _pow_up(-lo, n)
        return 0.0, _pow_up(max(-lo, hi), n)
    return (_pow_down(lo, n) if lo >= 0.0 else -_pow_up(-lo, n),
            _pow_up(hi, n) if hi >= 0.0 else -_pow_down(-hi, n))


def _sqrt_pair(lo: float, hi: float, tol: float = CLAMP_TOL) -> tuple[float, float]:
    """(lo, hi) of sqrt([lo, hi] ∩ [0, inf)); see `Interval.sqrt_clamped`."""
    if hi < -tol:
        raise NegativeRadicandError(f"radicand enclosure [{lo}, {hi}] is negative")
    return _sqrt_down(lo), _sqrt_up(hi)


class Interval:
    """Closed interval [lo, hi] with inclusion-correct arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:  # also false when either endpoint is NaN
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("NaN endpoint")
            raise ValueError(f"invalid interval [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, v: float) -> Interval:
        return cls(v, v)

    @classmethod
    def from_fraction(cls, q: Fraction) -> Interval:
        """Tightest interval with float endpoints containing the rational q."""
        f = float(q)
        fq = Fraction(f)
        if fq == q:
            return cls(f, f)
        if fq > q:
            return cls(math.nextafter(f, -_INF), f)
        return cls(f, math.nextafter(f, _INF))

    @classmethod
    def from_root(cls, g: Callable[[Fraction], Fraction], guess: float) -> Interval:
        """Tightest interval with float endpoints containing the zero of g.

        g is increasing, rational on `Fraction` input, and has its zero near
        the float `guess`: step from guess to the floats on either side of it.
        """
        t = guess
        while g(Fraction(t)) > 0:
            t = math.nextafter(t, -_INF)
        while g(Fraction(t)) < 0:
            t = math.nextafter(t, _INF)
        return cls(t if g(Fraction(t)) == 0 else math.nextafter(t, -_INF), t)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Interval) -> Interval:
        return Interval(_add_down(self.lo, other.lo), _add_up(self.hi, other.hi))

    def __sub__(self, other: Interval) -> Interval:
        return Interval(_add_down(self.lo, -other.hi), _add_up(self.hi, -other.lo))

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: Interval) -> Interval:
        return Interval(*_mul_pair(self.lo, self.hi, other.lo, other.hi))

    def __pow__(self, n: int) -> Interval:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only small non-negative integer powers")
        return Interval(*_pow_pair(self.lo, self.hi, n))

    def scale(self, s: float) -> Interval:
        if s >= 0.0:
            return Interval(_mul_down(self.lo, s), _mul_up(self.hi, s))
        return Interval(_mul_down(self.hi, s), _mul_up(self.lo, s))

    def sqrt_clamped(self, tol: float = CLAMP_TOL) -> Interval:
        """Enclosure of sqrt(self intersected with [0, inf)).

        Lower endpoints below zero are clamped; an interval entirely below
        -tol is rejected as a genuine domain violation rather than rounding
        noise.
        """
        return Interval(*_sqrt_pair(self.lo, self.hi, tol))

    def recip(self) -> Interval:
        """Enclosure of 1/x over a strictly positive interval."""
        if self.lo <= 0.0:
            raise ValueError(f"reciprocal needs a strictly positive interval, got {self}")
        return Interval(_recip_down(self.hi), _recip_up(self.lo))

    # -- set operations and predicates ---------------------------------------

    def hull(self, other: Interval) -> Interval:
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersects(self, other: Interval) -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


def hull_of(intervals: list[Interval]) -> Interval:
    if not intervals:
        raise ValueError("empty hull")
    lo = min(iv.lo for iv in intervals)
    hi = max(iv.hi for iv in intervals)
    return Interval(lo, hi)


# Shared irrational constants, as the tightest float enclosures.
INV_SQRT3 = Interval.from_root(lambda t: 3 * t * t - 1, 1.0 / math.sqrt(3.0))
INV_SQRT5 = Interval.from_root(lambda t: 5 * t * t - 1, 1.0 / math.sqrt(5.0))
INV_SQRT7 = Interval.from_root(lambda t: 7 * t * t - 1, 1.0 / math.sqrt(7.0))

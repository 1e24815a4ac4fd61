"""The admissible region for (|omega_11|, |omega_13|) pairs.

The region Omega is bounded by x <= a (the modulus cap on the first odd
Grunsky coefficient of a bi-univalent function) and by a piecewise cap on y:
(1 + x^2)/2 up to the crossover abscissa b, then sqrt((1 - x^2)/3) up to a.
Both curves are caps valid on all of [0, 1], so the bound is simply their
pointwise minimum; they intersect exactly where 3u^2 + 10u - 1 = 0 for
u = x^2, which defines b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .interval import (
    Interval,
    _add_down,
    _add_up,
    _mul_down,
    _mul_up,
    _recip_down,
    _recip_up,
    _sqrt_down,
    _sqrt_up,
)

#: membership slack for points produced by floating-point parameterizations
BOUNDARY_SLACK = 1e-12

A_RATIONAL = Fraction(297, 400)  # = 0.7425, cap on |omega_11|


class EdgeId(Enum):
    X_ZERO = "x_zero"          # x = 0, y in [0, 1/2]
    X_A = "x_a"                # x = a, y in [0, d]
    Y_ZERO = "y_zero"          # y = 0, x in [0, a]
    CURVE_LOW = "curve_low"    # y = (1 + x^2)/2, x in [0, b]
    CURVE_HIGH = "curve_high"  # y = sqrt((1 - x^2)/3), x in [b, a]


def _compute_b() -> Interval:
    # b = sqrt((2*sqrt(7) - 5)/3)
    two_sqrt7 = Interval.point(7.0).sqrt_clamped().scale(2.0)
    inner = (two_sqrt7 - Interval.point(5.0)) * Interval.from_fraction(Fraction(1, 3))
    return inner.sqrt_clamped()


def _compute_d() -> Interval:
    return Interval.from_fraction((1 - A_RATIONAL**2) / 3).sqrt_clamped()


@dataclass(frozen=True)
class DomainConstants:
    """The three region constants, with verified enclosures for b and d."""

    a: Fraction = A_RATIONAL
    iv_a: Interval = field(default_factory=lambda: Interval.from_fraction(A_RATIONAL))
    iv_b: Interval = field(default_factory=_compute_b)
    iv_d: Interval = field(default_factory=_compute_d)

    @property
    def a_float(self) -> float:
        return float(self.a)

    @property
    def b(self) -> float:
        return self.iv_b.mid

    @property
    def d(self) -> float:
        return self.iv_d.mid


CONSTANTS = DomainConstants()


def lemma1_bound(x: float) -> float:
    """Cap on |omega_13| given x = |omega_11|, for x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    return min(0.5 * (1.0 + x * x), math.sqrt((1.0 - x * x) / 3.0))


def lemma1_bound_iv(x: Interval) -> Interval:
    low = (Interval.point(1.0) + x**2).scale(0.5)
    high = ((Interval.point(1.0) - x**2) * Interval.from_fraction(Fraction(1, 3))).sqrt_clamped()
    return low.min_with(high)


_THIRD = Interval.from_fraction(Fraction(1, 3))


def cap_sup_up(x1: float, x2: float) -> float:
    """Upward-rounded upper bound of the cap over [x1, x2], 0 <= x1 <= x2."""
    low = 0.5 * _add_up(1.0, _mul_up(x2, x2))
    high = _sqrt_up(_mul_up(_THIRD.hi, _add_up(1.0, -_mul_down(x1, x1))))
    return min(low, high)


def cap_point_down(x: float) -> float:
    """Downward-rounded cap at x: the point (x, cap_point_down(x)) lies in the region."""
    low = 0.5 * _add_down(1.0, _mul_down(x, x))
    high = _sqrt_down(_mul_down(_THIRD.lo, _add_down(1.0, -_mul_up(x, x))))
    return min(low, high)


# Cap charts.  Each branch c of the cap is a cap on all of [0, 1], so
# y = s * c(x) with s in [0, 1] covers the region over any x-range.  A chart
# function returns outward ranges (c_lo, c_hi, dc_lo, dc_hi) of c and of its
# slope c' over [x1, x2], 0 <= x1 <= x2 <= a, rounded as in the two
# functions above.


def low_chart(x1: float, x2: float) -> tuple[float, float, float, float]:
    """c = (1 + x^2)/2 and c' = x, both increasing."""
    return 0.5 * _add_down(1.0, _mul_down(x1, x1)), 0.5 * _add_up(1.0, _mul_up(x2, x2)), x1, x2


def high_chart(x1: float, x2: float) -> tuple[float, float, float, float]:
    """c = sqrt((1 - x^2)/3), decreasing, and c' = -x/(3c), decreasing."""
    c_lo = _sqrt_down(_mul_down(_THIRD.lo, _add_down(1.0, -_mul_up(x2, x2))))
    c_hi = _sqrt_up(_mul_up(_THIRD.hi, _add_up(1.0, -_mul_down(x1, x1))))
    return (
        c_lo,
        c_hi,
        -_mul_up(x2, _recip_up(_mul_down(3.0, c_lo))),
        -_mul_down(x1, _recip_down(_mul_up(3.0, c_hi))),
    )


def omega_contains(x: float, y: float, slack: float = BOUNDARY_SLACK) -> bool:
    if x < -slack or y < -slack:
        return False
    if x > CONSTANTS.iv_a.hi + slack:
        return False
    return y <= lemma1_bound(min(max(x, 0.0), 1.0)) + slack


@dataclass(frozen=True)
class OmegaRegion:
    constants: DomainConstants = CONSTANTS

    def contains(self, x: float, y: float, slack: float = BOUNDARY_SLACK) -> bool:
        return omega_contains(x, y, slack)

    def cap(self, x: float) -> float:
        return lemma1_bound(x)

    def cap_lower(self, x: float) -> float:
        """Downward-rounded cap: (x, cap_lower(x)) is guaranteed inside the region."""
        return cap_point_down(x)

    @property
    def x_hi(self) -> float:
        return self.constants.iv_a.hi

    @property
    def x_lo_inside(self) -> float:
        return self.constants.iv_a.lo

    @property
    def y_sup_hi(self) -> float:
        # global sup of the cap is at x = b, on the low curve
        b = self.constants.iv_b
        return (Interval.point(1.0) + b**2).scale(0.5).hi

    def edge_point(self, edge: EdgeId, t: float) -> tuple[float, float]:
        """Affine/graph parameterization of the five boundary pieces, t in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t={t} outside [0, 1]")
        a = self.constants.a_float
        b = self.constants.b
        d = self.constants.d
        if edge is EdgeId.X_ZERO:
            return 0.0, 0.5 * t
        if edge is EdgeId.X_A:
            return a, d * t
        if edge is EdgeId.Y_ZERO:
            return a * t, 0.0
        if edge is EdgeId.CURVE_LOW:
            x = b * t
            return x, 0.5 * (1.0 + x * x)
        if edge is EdgeId.CURVE_HIGH:
            x = b + (a - b) * t
            return x, math.sqrt((1.0 - x * x) / 3.0)
        raise ValueError(f"unknown edge {edge}")


REGION = OmegaRegion()

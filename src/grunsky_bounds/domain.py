"""The admissible region for (|omega_11|, |omega_13|) pairs.

The region Omega is bounded by x <= a (the modulus cap on the first odd
Grunsky coefficient of a bi-univalent function) and by a piecewise cap on y:
(1 + x^2)/2 up to the crossover abscissa b, then sqrt((1 - x^2)/3) up to a.
Both curves are caps valid on all of [0, 1], so the bound is simply their
pointwise minimum; they intersect exactly where 3u^2 + 10u - 1 = 0 for
u = x^2, which defines b.

The boundary is described once, by the table `EDGES`: five `Edge` records,
one per piece, in `EdgeId` order.  Each gives the piece as rational
polynomials (x(t), y(t)) over an exact parameter range.  Edge restrictions,
endpoints, (x, y) lifts, the float cap and the region's corners are derived
from it.  The directed-rounding cap helpers and the two charts below stay
plain functions, because the branch-and-bound calls them on every box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

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
from .poly import RatPoly, rp_add, rp_mul, rp_scale

A_RATIONAL = Fraction(297, 400)  # = 0.7425, cap on |omega_11|


class EdgeId(Enum):
    X_ZERO = "x_zero"          # x = 0, y in [0, 1/2]
    X_A = "x_a"                # x = a, y in [0, d]
    Y_ZERO = "y_zero"          # y = 0, x in [0, a]
    CURVE_LOW = "curve_low"    # y = (1 + x^2)/2, x in [0, b]
    CURVE_HIGH = "curve_high"  # y = sqrt((1 - x^2)/3), x in [b, a]


def _compute_b() -> Interval:
    # b^2 = u is the root of 3u^2 + 10u - 1 = 0 in (0, 1)
    guess = math.sqrt((2.0 * math.sqrt(7.0) - 5.0) / 3.0)
    return Interval.from_root(lambda t: 3 * t**4 + 10 * t * t - 1, guess)


def _compute_d() -> Interval:
    q = (1 - A_RATIONAL**2) / 3
    return Interval.from_root(lambda t: t * t - q, math.sqrt(q))


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


# -- the boundary table ----------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)
_T: RatPoly = (_F0, _F1)  # the parameter itself
_ZERO = Interval.point(0.0)


@dataclass(frozen=True)
class Edge:
    """One boundary piece: (x(t), y(t)) for t in [t_lo, t_hi].

    `x` and `y` are rational polynomials in t, or y = sqrt(y(t)) with
    `sqrt_y`; `t_lo` and `t_hi` enclose the exact end parameters.  A cap
    piece has x = t and carries its cap as an interval lift `cap_iv` and a
    float (or numpy) function `cap`.
    """

    id: EdgeId
    x: RatPoly
    y: RatPoly
    t_lo: Interval
    t_hi: Interval
    sqrt_y: bool = False
    cap_iv: Callable[[Interval], Interval] | None = None
    cap: Callable | None = None

    def lift(self, t: Interval) -> tuple[Interval, Interval]:
        """Enclosure of (x(t), y(t)) over a parameter enclosure t."""
        if self.cap_iv is not None:
            return t, self.cap_iv(t)
        return _straight(self.x, t), _straight(self.y, t)

    @cached_property
    def radicand(self) -> RatPoly:
        """The shared radicand R = 1 - x^2 - 3y^2 along the piece, in t."""
        y_sq = self.y if self.sqrt_y else rp_mul(self.y, self.y)
        minus_x_sq = rp_scale(rp_mul(self.x, self.x), -_F1)
        return rp_add(rp_add((_F1,), minus_x_sq), rp_scale(y_sq, Fraction(-3)))


def _low_cap_iv(x: Interval) -> Interval:
    v = Interval.point(1.0) + x**2
    # halving is exact here: v >= 1, so v/2 is a normal float
    return Interval(0.5 * v.lo, 0.5 * v.hi)


def _straight(p: RatPoly, t: Interval) -> Interval:
    """A coordinate of a straight piece: the parameter itself, or a constant."""
    if p == _T:
        return t
    return Interval.from_fraction(p[0]) if p else _ZERO


# The cap lifts are not Horner on y(t): the bits of a lift at a maximizer on
# the curve reach the reported argmax (GAMMA2's lies on the high cap).
EDGES: dict[EdgeId, Edge] = {
    e.id: e
    for e in (
        Edge(EdgeId.X_ZERO, (), _T, _ZERO, Interval.point(0.5)),
        Edge(EdgeId.X_A, (A_RATIONAL,), _T, _ZERO, CONSTANTS.iv_d),
        Edge(EdgeId.Y_ZERO, _T, (), _ZERO, CONSTANTS.iv_a),
        Edge(
            EdgeId.CURVE_LOW, _T, (Fraction(1, 2), _F0, Fraction(1, 2)), _ZERO, CONSTANTS.iv_b,
            cap_iv=_low_cap_iv,
            cap=lambda x: 0.5 * (1.0 + x * x),
        ),
        Edge(
            EdgeId.CURVE_HIGH, _T, (Fraction(1, 3), _F0, Fraction(-1, 3)), CONSTANTS.iv_b,
            CONSTANTS.iv_a, sqrt_y=True,
            cap_iv=lambda x: ((Interval.point(1.0) - x**2) * _THIRD).sqrt_clamped(),
            cap=lambda x: np.sqrt((1.0 - x * x) / 3.0),
        ),
    )
}

#: the two pieces of the cap curve, low then high
CAP_PIECES = tuple(e for e in EDGES.values() if e.cap is not None)


def _corners():
    """The shared ends of two pieces as (end, end, box), each end a piece with
    the index of its end there (0 for `t_lo`, 1 for `t_hi`), in `EdgeId`
    order, and the box the intersection of the two end lifts."""
    ends = [((e.id, k), e.lift(t)) for e in EDGES.values() for k, t in enumerate((e.t_lo, e.t_hi))]
    return tuple((p, q, tuple(Interval(max(u.lo, v.lo), min(u.hi, v.hi)) for u, v in zip(pu, qv)))
                 for i, (p, pu) in enumerate(ends) for q, qv in ends[i + 1:]
                 if p[0] is not q[0] and all(u.intersects(v) for u, v in zip(pu, qv)))


#: the five corners of the region, named "x_a/y_zero" and so on by their two pieces
CORNERS = _corners()


@dataclass(frozen=True)
class OmegaRegion:
    """The region, given by its constants; its boundary is the table `EDGES`."""

    constants: DomainConstants = CONSTANTS


REGION = OmegaRegion()

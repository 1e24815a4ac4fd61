"""Closed forms from the paper that only the tests evaluate.

Float gradients, plain and radical-scaled, the critical-point reductions,
the named boundary restrictions g1..g10 and the oracle's bridge to the
region.  The library never needs them: it works with interval enclosures
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from grunsky_bounds.domain import CONSTANTS, EdgeId
from grunsky_bounds.interval import CLAMP_TOL, NegativeRadicandError
from grunsky_bounds.objectives import OBJECTIVES, ObjectiveId
from grunsky_bounds.oracle import GrunskyTable
from grunsky_bounds.poly import RatPoly
from grunsky_bounds.series import PowerSeries

_A = CONSTANTS.a


@dataclass(frozen=True)
class Gradient2:
    dx: float
    dy: float


def poly_dx(oid: ObjectiveId, x: float, y: float) -> float:
    return sum(float(c) * i * x ** (i - 1) * y**j for (i, j), c in OBJECTIVES[oid].poly.items() if i)


def poly_dy(oid: ObjectiveId, x: float, y: float) -> float:
    return sum(float(c) * j * x**i * y ** (j - 1) for (i, j), c in OBJECTIVES[oid].poly.items() if j)


def grad(oid: ObjectiveId, x: float, y: float = 0.0) -> Gradient2:
    """Analytic gradient; requires the radicand strictly positive."""
    if oid is ObjectiveId.F1:
        # f1'(x) = 6x - (2/sqrt3) x / sqrt(1 - x^2)
        r = 1.0 - x * x
        if r <= 0.0:
            raise NegativeRadicandError(f"gradient singular at x={x}")
        return Gradient2(6.0 * x - 2.0 / math.sqrt(3.0) * x / math.sqrt(r), 0.0)
    obj = OBJECTIVES[oid]
    dx = poly_dx(oid, x, y)
    dy = poly_dy(oid, x, y)
    if obj.has_radical:
        r = obj.radicand(x, y)
        if r <= 0.0:
            raise NegativeRadicandError(f"gradient singular: radicand {r} at ({x}, {y})")
        sq = math.sqrt(r)
        m = obj._mult_float(x)
        dx += float(obj.m5l) / math.sqrt(5.0) * sq - m * x / sq
        dy += -3.0 * m * y / sq
    return Gradient2(dx, dy)


def scaled_gradient(oid: ObjectiveId, x: float, y: float) -> tuple[float, float]:
    """Float G = sqrt(R) * grad f, defined up to the rim R = 0."""
    obj = OBJECTIVES[oid]
    px = poly_dx(oid, x, y)
    py = poly_dy(oid, x, y)
    if not obj.has_radical:
        return px, py
    r = max(obj.radicand(x, y), 0.0)
    sq = math.sqrt(r)
    m = obj._mult_float(x)
    g1 = px * sq + float(obj.m5l) / math.sqrt(5.0) * r - m * x
    g2 = py * sq - 3.0 * m * y
    return g1, g2


def reduction_residual(oid: ObjectiveId, x: float, y: float) -> float:
    """Residual of 3y*df/dx - x*df/dy, in which the 1/sqrt(R) terms cancel."""
    obj = OBJECTIVES[oid]
    out = 3.0 * y * poly_dx(oid, x, y) - x * poly_dy(oid, x, y)
    if obj.m5l:
        r = obj.radicand(x, y)
        if r < -CLAMP_TOL:
            raise NegativeRadicandError(f"radicand {r} at ({x}, {y})")
        out += 3.0 * float(obj.m5l) / math.sqrt(5.0) * y * math.sqrt(max(r, 0.0))
    return out


class BoundaryRestrictionId(Enum):
    G1 = ("g1", ObjectiveId.F2, EdgeId.CURVE_LOW)
    G2 = ("g2", ObjectiveId.F2, EdgeId.CURVE_HIGH)
    G3 = ("g3", ObjectiveId.F3, EdgeId.CURVE_LOW)
    G4 = ("g4", ObjectiveId.F3, EdgeId.CURVE_HIGH)
    G5 = ("g5", ObjectiveId.F4, EdgeId.CURVE_LOW)
    G6 = ("g6", ObjectiveId.F4, EdgeId.CURVE_HIGH)
    G7 = ("g7", ObjectiveId.F5, EdgeId.CURVE_LOW)
    G8 = ("g8", ObjectiveId.F5, EdgeId.CURVE_HIGH)
    G9 = ("g9", ObjectiveId.F6, EdgeId.CURVE_LOW)
    G10 = ("g10", ObjectiveId.F6, EdgeId.CURVE_HIGH)

    def __init__(self, label: str, parent: ObjectiveId, edge: EdgeId):
        self.label = label
        self.parent = parent
        self.edge = edge


def eval_boundary(rid: BoundaryRestrictionId, x: float) -> float:
    return OBJECTIVES[rid.parent].restriction(rid.edge).value(x)


# -- reduction equations of the interior stationary systems -------------------------

F6_CUBIC: RatPoly = (Fraction(0), Fraction(-11, 30), Fraction(0), Fraction(1))


def f2_constraint_curve_x(y: float) -> float:
    """x on the combined-equation curve x^2 = 3y^2/(1 - 6y); only defined for y < 1/6."""
    if y >= 1.0 / 6.0:
        raise ValueError(f"curve undefined for y={y} >= 1/6")
    return math.sqrt(3.0 * y * y / (1.0 - 6.0 * y))


def f4_h1(y: float) -> float:
    """x as a function of y on the combined-equation curve of the f4 system."""
    num = y * math.sqrt(6.0) * math.sqrt(float(3 * _A - 1))
    den = math.sqrt(9.0 * y * float(4 * _A - 3) + float(6 * _A - 2))
    return num / den


def f6_h2(x: float) -> float:
    """y as a function of x on the second-equation curve of the f6 system."""
    return math.sqrt(20.0 - 29.0 * x * x) / (2.0 * math.sqrt(15.0))


# -- the series oracle's view of the region ----------------------------------------


def bridge_point(table: GrunskyTable) -> tuple[float, float]:
    """(|omega_11|, |omega_13|) of a table, the coordinates used by the bounds."""
    return abs(table.entry(1, 1)), abs(table.entry(1, 3))


def hankel2(f: PowerSeries) -> complex:
    """Second Hankel determinant a2*a4 - a3^2."""
    return f.coeff(2) * f.coeff(4) - f.coeff(3) ** 2

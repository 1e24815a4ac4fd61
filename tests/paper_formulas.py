"""Closed forms from the paper that only the tests evaluate.

Float point values of the objectives and their restrictions, float
gradients, plain and radical-scaled, the critical-point reductions, the
named boundary restrictions g1..g10, the float region test (Lemma 1), the
1-D sign proofs, the full-grid reference for the grid cross-check, the
oracle's bridge to the region, a float and an exact rational reference for
the oracle's logarithms.  The library never needs them: it works
with interval enclosures instead.

The interval formulas of the objectives and their edge forms, with one
`Interval` object per operation, are kept here as the reference that the
library's compiled pair evaluators must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from grunsky_bounds.domain import CAP_PIECES, CONSTANTS, EdgeId
from grunsky_bounds.interval import (
    CLAMP_TOL, INV_SQRT3, INV_SQRT5, INV_SQRT7, Interval, NegativeRadicandError
)
from grunsky_bounds.objectives import OBJECTIVES, Objective, ObjectiveId, RadicalForm1D, _diff
from grunsky_bounds.optimize import IvFunc
from grunsky_bounds.oracle import GrunskyTable
from grunsky_bounds.poly import MixedPoly, RatPoly, rp_eval_iv
from grunsky_bounds.series import PowerSeries

_A = CONSTANTS.a


def contains(iv: Interval, v: float) -> bool:
    """v lies in the enclosure iv."""
    return iv.lo <= v <= iv.hi

# -- the region in floats (Lemma 1) ---------------------------------------------------

#: membership slack for points produced by floating-point parameterizations
BOUNDARY_SLACK = 1e-12


def lemma1_bound(x: float) -> float:
    """Cap on |omega_13| given x = |omega_11|, for x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    return float(min(e.cap(x) for e in CAP_PIECES))


def omega_contains(x: float, y: float, slack: float = BOUNDARY_SLACK) -> bool:
    if x < -slack or y < -slack:
        return False
    if x > CONSTANTS.iv_a.hi + slack:
        return False
    return y <= lemma1_bound(min(max(x, 0.0), 1.0)) + slack


# -- float point values -----------------------------------------------------------------


def rp_eval_float(p: RatPoly, x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def mixed_eval_float(m: MixedPoly, x: float) -> float:
    return (
        rp_eval_float(m.one, x)
        + rp_eval_float(m.inv_sqrt3, x) / math.sqrt(3.0)
        + rp_eval_float(m.inv_sqrt5, x) / math.sqrt(5.0)
        + rp_eval_float(m.inv_sqrt7, x) / math.sqrt(7.0)
    )


def form_value(form: RadicalForm1D, t: float) -> float:
    """W(t) + V(t) * sqrt(S(t)) in floats, the radicand enclosed."""
    out = mixed_eval_float(form.w, t)
    if not form.v.is_zero():
        s = rp_eval_iv(form.s, Interval.point(t))
        if s.hi < -CLAMP_TOL:
            raise NegativeRadicandError(f"{form.label}: radicand negative at t={t}")
        out += mixed_eval_float(form.v, t) * math.sqrt(max(s.mid, 0.0))
    return out


def radicand(x: float, y: float) -> float:
    return 1.0 - x * x - 3.0 * y * y


def mult_float(obj: Objective, x: float) -> float:
    """The radical multiplier M(x)."""
    return mixed_eval_float(obj.mult, x)


def mult_slope_float(obj: Objective) -> float:
    """The constant slope M' of the radical multiplier."""
    return mixed_eval_float(obj.mult.deriv(), 0.0)


def objective_value(obj: Objective, x: float, y: float) -> float:
    """Point evaluation of an objective; f1 is its y = 0 line."""
    if not omega_contains(x, y, slack=1e-9):
        raise ValueError(f"({x}, {y}) outside the admissible region")
    out = 0.0
    for (i, j), c in obj.poly.items():
        out += float(c) * x**i * y**j
    if obj.has_radical:
        r = radicand(x, y)
        if r < -CLAMP_TOL:
            raise NegativeRadicandError(f"radicand {r} at ({x}, {y})")
        out += mult_float(obj, x) * math.sqrt(max(r, 0.0))
    return out


def eval_objective(oid: ObjectiveId, x: float, y: float = 0.0) -> float:
    return objective_value(OBJECTIVES[oid], x, y)


# -- the interval formulas, one Interval object per operation ------------------------


def horner_iv(p: RatPoly, x: Interval) -> Interval:
    """Interval Horner from [0, 0] over the tightest enclosures of p's coefficients."""
    acc = Interval.point(0.0)
    for c in reversed(p):
        acc = acc * x + Interval.from_fraction(c)
    return acc


def mixed_eval_iv(m: MixedPoly, x: Interval) -> Interval:
    """Each non-zero part times its enclosed factor 1, 1/sqrt3, 1/sqrt5 or 1/sqrt7, summed from [0, 0]."""
    out = Interval.point(0.0)
    for p, factor in zip(m.parts, (None, INV_SQRT3, INV_SQRT5, INV_SQRT7)):
        if p:
            v = horner_iv(p, x)
            out = out + (v if factor is None else v * factor)
    return out


def form_value_iv(form: RadicalForm1D, t: Interval) -> Interval:
    out = mixed_eval_iv(form.w, t)
    if not form.v.is_zero():
        out = out + mixed_eval_iv(form.v, t) * horner_iv(form.s, t).sqrt_clamped()
    return out


def form_slope_iv(form: RadicalForm1D, t: Interval) -> Interval | None:
    """W' where V = 0, else the scaled derivative over 2*sqrt(S); None where V != 0 and S is not positive."""
    if form.v.is_zero():
        return mixed_eval_iv(form.w.deriv(), t)
    s = horner_iv(form.s, t)
    if s.lo <= 0.0:
        return None
    return form_value_iv(form.scaled_derivative, t) * s.sqrt_clamped().scale(2.0).recip()


def eval_terms_iv(terms: dict[tuple[int, int], Fraction], x: Interval, y: Interval) -> Interval:
    """Sum of c * x^i * y^j from [0, 0], in sorted (i, j) order."""
    out = Interval.point(0.0)
    for (i, j), c in sorted(terms.items()):
        t = Interval.from_fraction(c)
        if i:
            t = t * x**i
        if j:
            t = t * y**j
        out = out + t
    return out


def radicand_iv(x: Interval, y: Interval) -> Interval:
    return Interval.point(1.0) - x**2 - (y**2).scale(3.0)


def _mult_iv(obj: Objective, x: Interval) -> Interval:
    return mixed_eval_iv(obj.mult, x)


def _mult_slope_iv(obj: Objective) -> Interval:
    """M' enclosed, as each non-zero part's constant coefficient times its factor, summed from [0, 0]."""
    return mixed_eval_iv(obj.mult.deriv(), Interval.point(0.0))


def objective_value_iv(obj: Objective, x: Interval, y: Interval) -> Interval:
    out = eval_terms_iv(obj.poly, x, y)
    if obj.has_radical:
        out = out + _mult_iv(obj, x) * radicand_iv(x, y).sqrt_clamped()
    return out


def objective_gradient_iv(obj: Objective, x: Interval, y: Interval) -> tuple[Interval, Interval]:
    """Raises where the radicand is not positive over the box."""
    px = eval_terms_iv(_diff(obj.poly, 1, 0), x, y)
    py = eval_terms_iv(_diff(obj.poly, 0, 1), x, y)
    if not obj.has_radical:
        return px, py
    sq = radicand_iv(x, y).sqrt_clamped()
    u = sq.recip()
    m = _mult_iv(obj, x)
    return px + _mult_slope_iv(obj) * sq - m * x * u, py - (m * y * u).scale(3.0)


def objective_hessian_iv(obj: Objective, x: Interval, y: Interval) -> tuple[Interval, Interval, Interval]:
    """Raises where the radicand is not positive over the box."""
    pxx = eval_terms_iv(_diff(obj.poly, 2, 0), x, y)
    pxy = eval_terms_iv(_diff(obj.poly, 1, 1), x, y)
    pyy = eval_terms_iv(_diff(obj.poly, 0, 2), x, y)
    if not obj.has_radical:
        return pxx, pxy, pyy
    sq = radicand_iv(x, y).sqrt_clamped()
    u = sq.recip()
    u3 = u * u * u
    m = _mult_iv(obj, x)
    beta = _mult_slope_iv(obj)
    fxx = pxx - (beta * x * u).scale(2.0) - m * u - m * x**2 * u3
    fxy = pxy - (beta * y * u).scale(3.0) - (m * x * y * u3).scale(3.0)
    fyy = pyy - (m * (u + (y**2 * u3).scale(3.0))).scale(3.0)
    return fxx, fxy, fyy


# -- the grid cross-check, on the full grid ---------------------------------------------


def full_grid_values(oid: ObjectiveId, n: int = 500) -> np.ndarray:
    """The n-by-n values of `optimize.grid_maximum`, row i at the i-th x, with every factor on the whole grid at once."""
    obj = OBJECTIVES[oid]
    x = np.linspace(0.0, CONSTANTS.a_float, n)
    cap = np.minimum(*(piece.cap(x) for piece in CAP_PIECES))
    t = np.linspace(0.0, 1.0, n)
    xs = np.repeat(x, n)
    ys = np.outer(cap, t).ravel()
    out = np.zeros_like(xs)
    for (i, j), c in obj.poly.items():
        out += float(c) * xs**i * ys**j
    if obj.has_radical:
        r = np.maximum(1.0 - xs * xs - 3.0 * ys * ys, 0.0)
        out += mult_float(obj, xs) * np.sqrt(r)
    return out.reshape(n, n)


def full_grid_maximum(oid: ObjectiveId, n: int = 500) -> float:
    """The maximum of `full_grid_values`; for f1, of its n*n-point line on [0, a] at y = 0, where it lies."""
    if oid is ObjectiveId.F1:
        x = np.linspace(0.0, CONSTANTS.a_float, n * n)
        vals = 3.0 * x**2 + 2.0 / math.sqrt(3.0) * np.sqrt(1.0 - x**2)
        return float(vals.max())
    return float(full_grid_values(oid, n).max())


# -- 1-D sign proofs --------------------------------------------------------------------


def prove_positive_1d(
    fn: IvFunc, lo: float, hi: float, min_width: float = 1e-9, max_boxes: int = 100_000
) -> bool:
    """True if bisection proves fn > 0 on every piece of [lo, hi] before a
    piece reaches `min_width` and within `max_boxes` evaluated pieces."""
    stack = [(lo, hi)]
    for _ in range(max_boxes):
        if not stack:
            return True
        t1, t2 = stack.pop()
        if fn(Interval(t1, t2)).lo > 0.0:
            continue
        if t2 - t1 <= min_width:
            return False
        tm = 0.5 * (t1 + t2)
        stack += [(t1, tm), (tm, t2)]
    return not stack


def prove_negative_1d(fn: IvFunc, lo: float, hi: float, **kw) -> bool:
    return prove_positive_1d(lambda t: -fn(t), lo, hi, **kw)


# -- gradients ----------------------------------------------------------------------------


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
    obj = OBJECTIVES[oid]
    dx = poly_dx(oid, x, y)
    dy = poly_dy(oid, x, y)
    if obj.has_radical:
        r = radicand(x, y)
        if r <= 0.0:
            raise NegativeRadicandError(f"gradient singular: radicand {r} at ({x}, {y})")
        sq = math.sqrt(r)
        m = mult_float(obj, x)
        dx += mult_slope_float(obj) * sq - m * x / sq
        dy += -3.0 * m * y / sq
    return Gradient2(dx, dy)


def scaled_gradient(oid: ObjectiveId, x: float, y: float) -> tuple[float, float]:
    """Float G = sqrt(R) * grad f, defined up to the rim R = 0."""
    obj = OBJECTIVES[oid]
    px = poly_dx(oid, x, y)
    py = poly_dy(oid, x, y)
    if not obj.has_radical:
        return px, py
    r = max(radicand(x, y), 0.0)
    sq = math.sqrt(r)
    m = mult_float(obj, x)
    g1 = px * sq + mult_slope_float(obj) * r - m * x
    g2 = py * sq - 3.0 * m * y
    return g1, g2


def reduction_residual(oid: ObjectiveId, x: float, y: float) -> float:
    """Residual of 3y*df/dx - x*df/dy, in which the 1/sqrt(R) terms cancel."""
    obj = OBJECTIVES[oid]
    out = 3.0 * y * poly_dx(oid, x, y) - x * poly_dy(oid, x, y)
    if beta := mult_slope_float(obj):
        r = radicand(x, y)
        if r < -CLAMP_TOL:
            raise NegativeRadicandError(f"radicand {r} at ({x}, {y})")
        out += 3.0 * beta * y * math.sqrt(max(r, 0.0))
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
    return form_value(OBJECTIVES[rid.parent].restriction(rid.edge), x)


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


def inequality_slacks(table: GrunskyTable, x: tuple[complex, ...]) -> tuple[float, ...]:
    """The four slacks of `check_inequalities`, summed entry by entry."""
    k = len(x)
    rhs = sum(abs(v) ** 2 / (2 * p + 1) for p, v in enumerate(x))
    rows = sum(
        (2 * q - 1) * abs(sum(table.entry(2 * p + 1, 2 * q - 1) * x[p] for p in range(k))) ** 2
        for q in range(1, table.order + 1)
    )
    bilinear = sum(
        table.entry(2 * p + 1, 2 * q + 1) * x[p] * x[q] for p in range(k) for q in range(k)
    )
    unit = 1.0 - sum((2 * q + 1) * abs(table.entry(1, 2 * q + 1)) ** 2 for q in range(3))
    third = 1.0 / 3.0 - sum((2 * q + 1) * abs(table.entry(3, 2 * q + 1)) ** 2 for q in range(3))
    return rhs - rows, rhs - abs(bilinear), unit, third


def hankel2(f: PowerSeries) -> complex:
    """Second Hankel determinant a2*a4 - a3^2."""
    return f.coeff(2) * f.coeff(4) - f.coeff(3) ** 2


def log_parts_reference(q: list[np.ndarray]) -> list[np.ndarray]:
    """Homogeneous parts L_0 = 0, L_1, ... of log Q from the parts Q_0 = [1], Q_1, ...

    With the Euler operator D = t d/dt + z d/dz, Q * D(log Q) = D Q gives
    n L_n = n Q_n - sum_{k=1}^{n-1} k L_k Q_{n-k}; a bivariate part is an
    anti-diagonal indexed by the power of t, and a product of parts is their
    convolution.  A univariate part is a single coefficient.
    """
    logs = [np.zeros_like(q[0])]
    for n in range(1, len(q)):
        acc = sum(k * np.convolve(logs[k], q[n - k]) for k in range(1, n))
        logs.append((n * q[n] - acc) / n)
    return logs


def log1p_reference(u: list[complex], order: int) -> list[complex]:
    """log(1 + u), u[0] = 0, by the recurrence on homogeneous parts."""
    q = [1 + 0j] + [u[n] if n < len(u) else 0j for n in range(1, order + 1)]
    return [complex(part[0]) for part in log_parts_reference([np.array([c]) for c in q])]


def bivariate_log_reference(c: np.ndarray) -> np.ndarray:
    """log of c[i, j] t^i z^j (c[0, 0] = 1), both degrees <= n, on anti-diagonals.

    The (n+1)^2 square is padded to (2n+1)^2; a log entry at (i, j) reads
    only entries at powers <= i in t and <= j in z, so what the recurrence
    leaves outside the square does not reach the entries read back.
    """
    n = c.shape[0] - 1
    padded = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    padded[: n + 1, : n + 1] = c
    flipped = padded[:, ::-1]
    parts = log_parts_reference([flipped.diagonal(2 * n - m) for m in range(2 * n + 1)])
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for m, part in enumerate(parts):
        i = np.arange(max(0, m - n), min(m, n) + 1)
        out[i, m - i] = part[i]
    return out


#: presets as exact coefficients a_n, n >= 1
EXACT_PRESETS = {
    "identity": lambda n: Fraction(int(n == 1)),
    "geometric": lambda n: Fraction(1),
    "atanh": lambda n: Fraction(1, n) if n % 2 else Fraction(0),
    "koebe": lambda n: Fraction(n),
}


def exact_log_quotient(preset: str, order: int) -> list[list[Fraction]]:
    """log of (f*(t) - f*(z))/(t - z) over the rationals, both degrees <= 2*order - 1.

    The odd transform by its square-root recurrence, then the logarithm by
    n L[i][j] = n Q[i][j] - sum (i'+j') L[i'][j'] Q[i-i'][j-j'] over the
    entries (i', j') <= (i, j) of total degree 0 < i'+j' < n = i+j, entry by
    entry rather than on anti-diagonals.
    """
    deg = 2 * order - 1
    g = [EXACT_PRESETS[preset](k + 1) for k in range(deg + 1)]  # f(w)/w
    s = [Fraction(1)]
    for n in range(1, deg + 1):
        s.append((g[n] - sum(s[k] * s[n - k] for k in range(1, n))) / 2)
    # f* = sum_k s_k z^(2k+1), and (t^n - z^n)/(t - z) = sum_{i+j=n-1} t^i z^j
    fstar = {2 * k + 1: c for k, c in enumerate(s)}
    q = [[fstar.get(i + j + 1, Fraction(0)) for j in range(deg + 1)] for i in range(deg + 1)]
    log = [[Fraction(0)] * (deg + 1) for _ in range(deg + 1)]
    for n in range(1, 2 * deg + 1):
        for i in range(max(0, n - deg), min(n, deg) + 1):
            j = n - i
            acc = sum(
                (i2 + j2) * log[i2][j2] * q[i - i2][j - j2]
                for i2 in range(i + 1)
                for j2 in range(j + 1)
                if 0 < i2 + j2 < n
            )
            log[i][j] = (n * q[i][j] - acc) / n
    return log

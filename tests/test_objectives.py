"""Objective formulas, gradients, boundary restrictions and reductions."""

import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from grunsky_bounds import objectives
from grunsky_bounds.domain import CONSTANTS, EdgeId, cap_point_down, cap_sup_up
from grunsky_bounds.interval import Interval, NegativeRadicandError, _horner_sum, _intervals
from grunsky_bounds.objectives import (
    F1_FORM,
    F2_REDUCED_POLY,
    OBJECTIVES,
    ObjectiveId,
    monotone_bounds,
)
from grunsky_bounds.optimize import find_root_1d, interior_critical_points
from grunsky_bounds.poly import MixedPoly, rp_eval_iv
from paper_formulas import (
    F6_CUBIC,
    BoundaryRestrictionId,
    contains,
    eval_boundary,
    eval_objective,
    f2_constraint_curve_x,
    f4_h1,
    f6_h2,
    form_slope_iv,
    form_value,
    form_value_iv,
    grad,
    lemma1_bound,
    mixed_eval_iv,
    monotone_gradient_range,
    monotone_lower,
    monotone_upper,
    objective_gradient_iv,
    objective_hessian_iv,
    objective_value,
    objective_value_iv,
    prove_negative_1d,
    prove_positive_1d,
    reduction_residual,
    rp_eval_float,
    scaled_gradient,
)

A = CONSTANTS.a_float
B = CONSTANTS.iv_b.mid
D = CONSTANTS.iv_d.mid
S3, S5, S7 = math.sqrt(3), math.sqrt(5), math.sqrt(7)


def in_window(value: float, lo: float) -> bool:
    return lo <= value < lo + 1e-3


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------


def test_registered_rational_coefficients():
    f4 = OBJECTIVES[ObjectiveId.F4]
    assert f4.poly[(3, 0)] == Fraction(4, 99)
    assert f4.poly[(1, 1)] == Fraction(982, 297)
    f5 = OBJECTIVES[ObjectiveId.F5]
    assert f5.poly[(4, 0)] == Fraction(115, 297)
    assert f5.poly[(2, 1)] == Fraction(388, 99)
    assert f5.mult == MixedPoly(inv_sqrt5=(Fraction(0), Fraction(982, 297)), inv_sqrt7=(Fraction(2),))


def test_eval_f1_endpoints():
    assert abs(eval_objective(ObjectiveId.F1, 0.0) - 2.0 / S3) <= 1e-15
    assert in_window(eval_objective(ObjectiveId.F1, A), 2.427)


def test_eval_f6_interior_critical_value_is_rational():
    x = math.sqrt(11.0 / 30.0)
    y = math.sqrt(281.0 / 2.0) / 30.0
    assert abs(eval_objective(ObjectiveId.F6, x, y) - 1079.0 / 900.0) <= 1e-10


def test_eval_f7_corner():
    assert in_window(eval_objective(ObjectiveId.F7, A, D), 0.662)


def test_eval_f8_near_edge_root():
    assert in_window(eval_objective(ObjectiveId.F8, A, 0.267), 0.551)


def test_eval_rejects_points_outside_region():
    with pytest.raises(ValueError):
        objective_value(OBJECTIVES[ObjectiveId.F2], 0.5, 0.7)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _fd_gradient(oid: ObjectiveId, x: float, y: float, h: float = 1e-6):
    def f(x, y):
        return objective_value(OBJECTIVES[oid], x, y)

    return (
        (f(x + h, y) - f(x - h, y)) / (2 * h),
        (f(x, y + h) - f(x, y - h)) / (2 * h),
    )


def _interior_points(n: int, seed: int = 5):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        x = rng.uniform(0.01, A - 0.01)
        cap = lemma1_bound(x)
        y = rng.uniform(0.01, cap - 0.01)
        if 1 - x * x - 3 * y * y > 0.05:
            pts.append((x, y))
    return pts


@pytest.mark.parametrize("oid", [o for o in ObjectiveId if o is not ObjectiveId.F1])
def test_gradient_matches_finite_differences(oid):
    for x, y in _interior_points(100):
        g = grad(oid, x, y)
        fx, fy = _fd_gradient(oid, x, y)
        assert abs(g.dx - fx) <= 1e-5 * max(1.0, abs(g.dx))
        assert abs(g.dy - fy) <= 1e-5 * max(1.0, abs(g.dy))


def test_gradient_f2_tight_agreement():
    for x, y in _interior_points(100, seed=11):
        g = grad(ObjectiveId.F2, x, y)
        fx, fy = _fd_gradient(ObjectiveId.F2, x, y)
        assert abs(g.dx - fx) <= 1e-6 * max(1.0, abs(g.dx))
        assert abs(g.dy - fy) <= 1e-6 * max(1.0, abs(g.dy))


def test_gradient_f1_vanishes_at_origin():
    assert grad(ObjectiveId.F1, 0.0).dx == 0.0


def test_gradient_f6_dy_vanishes_on_axis():
    for x in (0.1, 0.3, 0.6, 0.7):
        assert grad(ObjectiveId.F6, x, 0.0).dy == 0.0


def test_gradient_singular_on_rim():
    with pytest.raises(ArithmeticError):
        grad(ObjectiveId.F2, 0.5, math.sqrt((1 - 0.25) / 3))


def test_scaled_gradient_sign_matches_gradient():
    for x, y in _interior_points(50, seed=3):
        for oid in (ObjectiveId.F2, ObjectiveId.F5, ObjectiveId.F6):
            g = grad(oid, x, y)
            s1, s2 = scaled_gradient(oid, x, y)
            assert math.copysign(1, g.dx) == math.copysign(1, s1) or abs(g.dx) < 1e-12
            assert math.copysign(1, g.dy) == math.copysign(1, s2) or abs(g.dy) < 1e-12


# ---------------------------------------------------------------------------
# interval evaluation: inclusion and monotone bounds
# ---------------------------------------------------------------------------


def test_value_iv_contains_point_values():
    rng = random.Random(41)
    for _ in range(300):
        oid = rng.choice([o for o in ObjectiveId if o is not ObjectiveId.F1])
        obj = OBJECTIVES[oid]
        x1 = rng.uniform(0, A - 0.02)
        x2 = x1 + rng.uniform(0, min(0.2, A - x1))
        cap = min(lemma1_bound(x1), lemma1_bound(x2))
        y1 = rng.uniform(0, cap * 0.8)
        y2 = min(y1 + rng.uniform(0, 0.2), cap)
        iv = obj.value_iv(Interval(x1, x2), Interval(y1, y2))
        for _ in range(5):
            x = rng.uniform(x1, x2)
            y = rng.uniform(y1, min(y2, lemma1_bound(x)))
            v = objective_value(obj, x, y)
            assert iv.lo - 1e-12 <= v <= iv.hi + 1e-12


#: half-width of the boxes and difference steps in the derivative enclosure tests
DERIV_H = 1e-6


@pytest.mark.parametrize("oid", [o for o in ObjectiveId if o is not ObjectiveId.F1])
def test_gradient_iv_contains_point_gradient(oid):
    obj = OBJECTIVES[oid]
    for x, y in _interior_points(20, seed=17):
        box = (Interval(x - DERIV_H, x + DERIV_H), Interval(y - DERIV_H, y + DERIV_H))
        gx, gy = obj.gradient_iv(*box)
        g = grad(oid, x, y)
        assert contains(gx, g.dx) and contains(gy, g.dy)


def _hessian(obj, x: Interval, y: Interval):
    """(fxx, fxy, fyy) over the box as intervals; None unless the radicand is positive on it."""
    return _intervals(obj.hessian_pairs(x.lo, x.hi, y.lo, y.hi))


@pytest.mark.parametrize("oid", [o for o in ObjectiveId if o is not ObjectiveId.F1])
def test_hessian_iv_contains_difference_quotients(oid):
    obj = OBJECTIVES[oid]
    # By the mean value theorem each exact central-difference quotient of the
    # gradient equals a second derivative at a point of the segment, which lies
    # in the box.  The float quotient adds the gradient's rounding error over
    # 2h, about 1e-15 / 2e-6 here; a 1e-6 slack covers it with a wide margin
    # and is still far below any error in the Hessian formulas.
    slack = 1e-6
    h = DERIV_H
    for x, y in _interior_points(20, seed=19):
        hxx, hxy, hyy = _hessian(obj, Interval(x - h, x + h), Interval(y - h, y + h))
        gx_plus, gx_minus = grad(oid, x + h, y), grad(oid, x - h, y)
        gy_plus, gy_minus = grad(oid, x, y + h), grad(oid, x, y - h)
        for iv, q in (
            (hxx, (gx_plus.dx - gx_minus.dx) / (2 * h)),
            (hxy, (gx_plus.dy - gx_minus.dy) / (2 * h)),
            (hxy, (gy_plus.dx - gy_minus.dx) / (2 * h)),
            (hyy, (gy_plus.dy - gy_minus.dy) / (2 * h)),
        ):
            assert iv.lo - slack <= q <= iv.hi + slack


def test_monotone_bounds_agree_with_interval_evaluation():
    rng = random.Random(17)
    for _ in range(200):
        oid = rng.choice([o for o in ObjectiveId if o is not ObjectiveId.F1])
        obj = OBJECTIVES[oid]
        mb = monotone_bounds(oid)
        x1 = rng.uniform(0, A - 0.05)
        x2 = x1 + rng.uniform(0, 0.05)
        cap = min(lemma1_bound(x1), lemma1_bound(x2))
        y1 = rng.uniform(0, cap * 0.9)
        y2 = min(y1 + rng.uniform(0, 0.05), cap)
        iv = obj.value_iv(Interval(x1, x2), Interval(y1, y2))
        lo = mb.lower(x1, x2, y1, y2)
        hi = mb.upper(x1, x2, y1, y2)
        # both are enclosures of the same range; each must cover point samples
        for _ in range(3):
            x = rng.uniform(x1, x2)
            y = rng.uniform(y1, min(y2, lemma1_bound(x)))
            v = objective_value(obj, x, y)
            assert lo - 1e-12 <= v <= hi + 1e-12
        assert hi >= iv.lo - 1e-9 and lo <= iv.hi + 1e-9


# Sample points lie on the 2**-16 grid, so x*x, 3*y*y and R = 1 - x^2 - 3y^2
# are exact in floats and R >= 0 is decided exactly.  The float
# `paper_formulas.scaled_gradient` then differs from the exact G only by
# round-to-nearest in about ten operations on values below 25 in magnitude,
# under 10 * 25 * 2**-53 (about 3e-14); the slack leaves a factor of three on
# top of that.
_GRID = 2.0**-16
_FLOAT_SLACK = 1e-13


def _grid_point(t: float, lo: float, hi: float) -> float | None:
    k, m = math.ceil(lo / _GRID), math.floor(hi / _GRID)
    return min(max(round(t / _GRID), k), m) * _GRID if k <= m else None


def test_scaled_gradient_range_encloses_float_scaled_gradient():
    """The sign certificate of the critical search holds up to the rim."""
    rng = random.Random(41)
    boxes = [(ObjectiveId.F2, 0.49, 0.51, 0.49, 0.51)]  # (1/2, 1/2) has R == 0 exactly
    for _ in range(400):
        oid = rng.choice([o for o in ObjectiveId if o is not ObjectiveId.F1])
        hw = rng.uniform(1e-4, 0.05)
        xc = rng.uniform(hw, A - hw)
        cap = lemma1_bound(xc)
        yc = cap if rng.random() < 0.5 else rng.uniform(hw, cap - hw)
        boxes.append((oid, xc - hw, xc + hw, max(yc - hw, 0.0), yc + hw))
    kinds = {"rim": 0, "interior": 0, "R == 0": 0}
    for oid, x1, x2, y1, y2 in boxes:
        g1lo, g1hi, g2lo, g2hi, r_lo, _ = monotone_bounds(oid).scaled_gradient_range(x1, x2, y1, y2)
        kinds["rim" if r_lo <= 0.0 else "interior"] += 1
        samples = [(0.5 * (x1 + x2), 0.5 * (y1 + y2))]
        samples += [(rng.uniform(x1, x2), rng.uniform(y1, y2)) for _ in range(20)]
        for x, y in samples:
            x, y = _grid_point(x, x1, x2), _grid_point(y, y1, y2)
            if x is None or y is None or 1.0 - x * x - 3.0 * y * y < 0.0:
                continue
            kinds["R == 0"] += 1.0 - x * x - 3.0 * y * y == 0.0
            g1, g2 = scaled_gradient(oid, x, y)
            assert g1lo - _FLOAT_SLACK <= g1 <= g1hi + _FLOAT_SLACK, (oid, x, y)
            assert g2lo - _FLOAT_SLACK <= g2 <= g2hi + _FLOAT_SLACK, (oid, x, y)
    assert kinds["rim"] >= 100 and kinds["interior"] >= 100 and kinds["R == 0"] >= 1


# The compiled corner bounds against the loops they unroll: every value, the
# sign of zero included, on boxes that reach every branch of the loops.

_KERNELS = (("upper", monotone_upper), ("lower", monotone_lower),
            ("scaled_gradient_range", monotone_gradient_range))
_TINY = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200)


def _float_bits(v: float | tuple[float, ...]) -> tuple[str, ...]:
    """float.hex of each value, which tells -0.0 from 0.0."""
    return tuple(map(float.hex, v if isinstance(v, tuple) else (v,)))


def _corner_boxes(rng: random.Random) -> list[tuple[float, float, float, float]]:
    boxes = []
    for _ in range(300):  # seeded random first-quadrant boxes
        x1, x2 = sorted(rng.uniform(0.0, A) for _ in range(2))
        y1, y2 = sorted(rng.uniform(0.0, 0.6) for _ in range(2))
        boxes.append((x1, x2, y1, y2))
    for _ in range(100):  # 0.0 and subnormal endpoints, and point boxes
        x1, y1 = rng.choice(_TINY), rng.choice(_TINY)
        x2, y2 = rng.choice((x1, rng.choice(_TINY), rng.uniform(x1, A))), rng.choice((y1, rng.uniform(y1, 0.6)))
        boxes.append((x1, max(x1, x2), y1, y2))
        x, y = rng.uniform(0.0, A), rng.uniform(0.0, 0.6)
        boxes.append((x, x, y, y))
    for _ in range(100):  # R <= 0 on part of the box, then on all of it
        x1 = rng.uniform(0.3, 0.9)
        y1 = math.sqrt(max(1.0 - x1 * x1, 0.0) / 3.0) * rng.uniform(0.7, 0.99)
        boxes.append((x1, x1 + rng.uniform(0.05, 0.3), y1, y1 + rng.uniform(0.1, 0.4)))
        boxes.append((x1 + 0.2, x1 + rng.uniform(0.3, 0.6), y1 + 0.2, y1 + rng.uniform(0.3, 0.6)))
    return boxes


def test_compiled_corner_bounds_match_the_loops_bit_for_bit():
    boxes = _corner_boxes(random.Random(33))
    radicand = {"positive": 0, "partly": 0, "nowhere positive": 0}
    for oid in ObjectiveId:
        b = monotone_bounds(oid)
        for box in boxes:
            for name, reference in _KERNELS:
                got, want = getattr(b, name)(*box), reference(b, *box)
                assert _float_bits(got) == _float_bits(want), (oid, name, box)
            r_lo, r_hi = monotone_gradient_range(b, *box)[4:] if b.has_radical else (1.0, 1.0)
            radicand["positive" if r_lo > 0.0 else "partly" if r_hi > 0.0 else "nowhere positive"] += 1
    assert min(radicand.values()) >= 300, radicand


def test_compiled_corner_bounds_keep_the_zero_operand_rule():
    """A zero coefficient or a zero M' gives an exact zero product, never a step to 5e-324."""
    assert all(monotone_bounds(oid).m_lin == (0.0, 0.0) for oid in (ObjectiveId.F1, ObjectiveId.F2,
                                                                     ObjectiveId.F4, ObjectiveId.F8))
    b = objectives.MonotoneBounds(((0, 1, 0.0, 0.0), (2, 0, 0.5, 0.5)), ((1, 0, 1.0, 1.0),),
                                  ((0, 0, 0.0, 0.0),), (0.25, 0.25), (0.0, 0.0), True)
    boxes = _corner_boxes(random.Random(34)) + [(t, t, u, u) for t in _TINY for u in _TINY]
    for box in boxes:
        for name, reference in _KERNELS:
            assert _float_bits(getattr(b, name)(*box)) == _float_bits(reference(b, *box)), (name, box)
    # a zero coefficient times a tiny power stays 0.0; a nonzero one that underflows steps
    zero = dataclasses.replace(b, terms=((0, 1, 0.0, 0.0),), has_radical=False)
    tiny = dataclasses.replace(b, terms=((0, 1, 0.5, 0.5),), has_radical=False)
    for bound, up, down in ((zero, 0.0, 0.0), (tiny, 5e-324, -5e-324)):
        assert _float_bits(bound.upper(5e-324, 5e-324, 5e-324, 5e-324)) == _float_bits(up)
        assert _float_bits(bound.lower(5e-324, 5e-324, 5e-324, 5e-324)) == _float_bits(down)


def test_a_negative_coefficient_is_refused(monkeypatch):
    f2 = OBJECTIVES[ObjectiveId.F2]
    bad = dataclasses.replace(f2, poly={**f2.poly, (1, 1): Fraction(-6)})
    monkeypatch.setitem(objectives.OBJECTIVES, ObjectiveId.F2, bad)
    with pytest.raises(ValueError, match="monotone-coefficient"):
        objectives.monotone_bounds.__wrapped__(ObjectiveId.F2)


def test_the_corner_bounds_compile_on_first_call():
    """The table build compiles nothing, and `lower` compiles only when it is called."""
    b = objectives.monotone_bounds.__wrapped__(ObjectiveId.F3)
    assert not {"_upper", "_lower", "_gradient_range"} & set(vars(b))
    b.upper(0.1, 0.2, 0.1, 0.2), b.scaled_gradient_range(0.1, 0.2, 0.1, 0.2)
    assert {"_upper", "_gradient_range"} <= set(vars(b)) and "_lower" not in vars(b)


# ---------------------------------------------------------------------------
# boundary restrictions against independently transcribed closed forms
# ---------------------------------------------------------------------------

INV_A = 1.0 / A

CLOSED_FORMS = {
    BoundaryRestrictionId.G1: lambda x: 3 * x + 7 * x**3 + math.sqrt(max(1 - 10 * x * x - 3 * x**4, 0.0)) / S5,
    BoundaryRestrictionId.G2: lambda x: 4 * x**3 + 2 * S3 * x * math.sqrt(1 - x * x),
    BoundaryRestrictionId.G3: lambda x: (21 * S5 * x + 5 * S7) / 35 * math.sqrt(max(1 - 10 * x * x - 3 * x**4, 0.0))
    + (3 + 30 * x * x + 47 * x**4) / 4,
    BoundaryRestrictionId.G4: lambda x: 1 - x * x + 5 * x**4 + 4 * x * x * math.sqrt(3 * (1 - x * x)),
    BoundaryRestrictionId.G5: lambda x: math.sqrt(max(5 - 50 * x * x - 15 * x**4, 0.0)) / 5
    - x * ((1 - 2 * INV_A) * x * x - 3 + INV_A),
    # the printed form of this restriction drops the factor x from its first
    # term; the substituted parent formula (used here) reproduces the quoted
    # maximum 0.969... at 0.715..., the printed variant does not
    BoundaryRestrictionId.G6: lambda x: 2 * (1 - INV_A / 3) * x * math.sqrt(3 * (1 - x * x))
    + (3 * INV_A - 4) * x**3,
    BoundaryRestrictionId.G7: lambda x: (1 / S7 + (3 - INV_A) / S5 * x)
    * math.sqrt(max(1 - 10 * x * x - 3 * x**4, 0.0))
    + (3 + 30 * x * x + 7 * x**4) / 4
    + INV_A * (x**4 - 3 * x * x),
    BoundaryRestrictionId.G8: lambda x: 2 * (2 - INV_A) * x * x * math.sqrt(3 * (1 - x * x))
    + 1
    - x * x
    + (4 * INV_A - 5) * x**4,
    BoundaryRestrictionId.G9: lambda x: x**4 + (1 + x * x) ** 2
    + 2 / S5 * x * math.sqrt(max(1 - 10 * x * x - 3 * x**4, 0.0)),
    BoundaryRestrictionId.G10: lambda x: x**4 + 4.0 / 3.0 * (1 - x * x),
}


def _edge_grid(rid: BoundaryRestrictionId, n: int = 50) -> list[float]:
    # stop a sliver short of b on the low curve: the shared radicand vanishes
    # exactly there and sqrt amplifies float noise in the reference transcription
    if rid.edge is EdgeId.CURVE_LOW:
        lo, hi = 0.0, B * (1 - 1e-6)
    else:
        lo, hi = B, A
    return [lo + (hi - lo) * k / n for k in range(n + 1)]


@pytest.mark.parametrize("rid", list(BoundaryRestrictionId))
def test_restriction_matches_closed_form(rid):
    for x in _edge_grid(rid):
        assert abs(eval_boundary(rid, x) - CLOSED_FORMS[rid](x)) <= 1e-12


@pytest.mark.parametrize("rid", list(BoundaryRestrictionId))
def test_restriction_matches_parent_on_edge(rid):
    parent = OBJECTIVES[rid.parent]
    for x in _edge_grid(rid):
        if rid.edge is EdgeId.CURVE_LOW:
            y = 0.5 * (1 + x * x)
        else:
            # upward-rounded cap: the parent's radicand is then certainly <= 0
            # and clamps, matching the identically-zero radical on this curve
            y = cap_sup_up(x, x)
        assert abs(eval_boundary(rid, x) - objective_value(parent, x, y)) <= 1e-12


STRAIGHT_EDGE_FORMS = {
    (ObjectiveId.F2, EdgeId.X_ZERO): lambda t: 2 / S5 * math.sqrt(1 - 3 * t * t),
    (ObjectiveId.F2, EdgeId.X_A): lambda t: 4 * A**3 + 6 * A * t + 2 / S5 * math.sqrt(max(1 - A * A - 3 * t * t, 0.0)),
    (ObjectiveId.F2, EdgeId.Y_ZERO): lambda t: 4 * t**3 + 2 / S5 * math.sqrt(1 - t * t),
    (ObjectiveId.F3, EdgeId.X_ZERO): lambda t: 3 * t * t + 2 / S7 * math.sqrt(1 - 3 * t * t),
    (ObjectiveId.F3, EdgeId.Y_ZERO): lambda t: 5 * t**4 + (6 * t / S5 + 2 / S7) * math.sqrt(1 - t * t),
    (ObjectiveId.F4, EdgeId.X_ZERO): lambda t: 2 / S5 * math.sqrt(1 - 3 * t * t),
    (ObjectiveId.F4, EdgeId.Y_ZERO): lambda t: (3 * INV_A - 4) * t**3 + 2 / S5 * math.sqrt(1 - t * t),
    (ObjectiveId.F5, EdgeId.X_ZERO): lambda t: 3 * t * t + 2 / S7 * math.sqrt(1 - 3 * t * t),
    (ObjectiveId.F5, EdgeId.Y_ZERO): lambda t: (4 * INV_A - 5) * t**4
    + (2 / S7 + (6 - 2 * INV_A) / S5 * t) * math.sqrt(1 - t * t),
    (ObjectiveId.F6, EdgeId.X_ZERO): lambda t: 4 * t * t,
    (ObjectiveId.F6, EdgeId.Y_ZERO): lambda t: t**4 + 4 / S5 * t * math.sqrt(1 - t * t),
}


@pytest.mark.parametrize("key", sorted(STRAIGHT_EDGE_FORMS, key=str))
def test_straight_edge_restrictions(key):
    oid, edge = key
    form = OBJECTIVES[oid].restriction(edge)
    # the x=a edge radicand vanishes at y=d; stay a sliver inside
    hi = {EdgeId.X_ZERO: 0.5, EdgeId.X_A: D * (1 - 1e-6), EdgeId.Y_ZERO: A}[edge]
    for k in range(51):
        t = hi * k / 50
        assert abs(form_value(form, t) - STRAIGHT_EDGE_FORMS[key](t)) <= 1e-12


def test_restriction_interval_contains_point_values():
    rng = random.Random(8)
    for oid in (ObjectiveId.F2, ObjectiveId.F5, ObjectiveId.F6):
        for edge in EdgeId:
            form = OBJECTIVES[oid].restriction(edge)
            for _ in range(20):
                t1 = rng.uniform(form.lo, form.hi)
                t2 = rng.uniform(t1, min(form.hi, t1 + 0.05))
                iv = form.value_iv(Interval(t1, t2))
                t = rng.uniform(t1, t2)
                assert iv.lo - 1e-12 <= form_value(form, t) <= iv.hi + 1e-12


# ---------------------------------------------------------------------------
# critical-point reductions
# ---------------------------------------------------------------------------


def test_f2_reduction_combination_is_division_free_polynomial():
    # 3y f_x - x f_y = 18y^2 + 36x^2 y - 6x^2 for the fourth-coefficient objective
    for x, y in _interior_points(30, seed=21):
        expected = 18 * y * y + 36 * x * x * y - 6 * x * x
        assert abs(reduction_residual(ObjectiveId.F2, x, y) - expected) <= 1e-12


def test_f2_constraint_curve_leaves_region():
    root = find_root_1d(lambda t: rp_eval_iv(F2_REDUCED_POLY, t), 0.0, 1.0 / 6.0, tol=1e-13)
    assert 0.153 <= root.lo <= root.hi < 0.154
    x = f2_constraint_curve_x(root.mid)
    assert 0.961 <= x < 0.962
    assert x > A


def test_f2_constraint_curve_domain_error():
    with pytest.raises(ValueError):
        f2_constraint_curve_x(0.2)


def test_f4_h1_reaches_reported_critical_point():
    # the certified interior critical point of the difference objective
    [cp] = interior_critical_points(OBJECTIVES[ObjectiveId.F4]).points
    px, py = (c.mid for c in cp.certified_box)
    assert 0.634 <= px < 0.635 and 0.358 <= py < 0.359
    assert abs(reduction_residual(ObjectiveId.F4, px, py)) <= 1e-10
    assert abs(f4_h1(py) - px) <= 1e-9


@pytest.mark.parametrize("oid", list(ObjectiveId)[1:], ids=lambda v: v.value)
def test_stationary_at_origin_matches_the_gradient(oid):
    # at (0, 0) every term of the analytic gradient is a coefficient, so it is
    # zero in floats exactly when it is zero
    g = grad(oid, 0.0, 0.0)
    assert OBJECTIVES[oid].stationary_at_origin() == (g.dx == 0.0 and g.dy == 0.0)


def test_f6_reduction_and_h2():
    x13 = math.sqrt(11.0 / 30.0)
    y13 = f6_h2(x13)
    assert abs(y13 - math.sqrt(281.0 / 2.0) / 30.0) <= 1e-15
    assert 0.395 <= y13 < 0.396
    assert abs(reduction_residual(ObjectiveId.F6, x13, y13)) <= 1e-10
    g = grad(ObjectiveId.F6, x13, y13)
    assert abs(g.dx) <= 1e-10 and abs(g.dy) <= 1e-10


def test_f6_cubic_roots():
    assert rp_eval_float(F6_CUBIC, 0.0) == 0.0
    x13 = math.sqrt(11.0 / 30.0)
    assert abs(rp_eval_float(F6_CUBIC, x13)) <= 1e-15
    assert 0.605 <= x13 < 0.606
    assert rp_eval_float(F6_CUBIC, 0.3) < 0 < rp_eval_float(F6_CUBIC, 0.7)


# ---------------------------------------------------------------------------
# monotonicity along edges, proved by interval sign tests
# ---------------------------------------------------------------------------


def test_f1_strictly_increasing():
    # grid sign check of the derivative
    for k in range(1, 1001):
        x = A * k / 1000
        r = 1 - x * x
        assert 6 * x - 2 / S3 * x / math.sqrt(r) > 0
    # interval proof on [1e-6, a] through the scaled derivative
    deriv = F1_FORM.scaled_derivative
    assert prove_positive_1d(deriv.value_iv, 1e-6, CONSTANTS.iv_a.lo)


MONOTONE_CASES = [
    # (objective, edge, lo, hi, direction); the y=0 restriction of the
    # fourth-coefficient objective dips to a minimum near x = 0.075 before
    # rising, so its increase is provable only to the right of the dip --
    # the endpoint bound f(x,0) <= f(a,0) is checked separately below
    (ObjectiveId.F2, EdgeId.Y_ZERO, 0.08, CONSTANTS.iv_a.lo, "up"),
    (ObjectiveId.F4, EdgeId.Y_ZERO, 1e-6, CONSTANTS.iv_a.lo, "down"),
    (ObjectiveId.F2, EdgeId.CURVE_HIGH, CONSTANTS.iv_b.hi, CONSTANTS.iv_a.lo, "up"),
    (ObjectiveId.F3, EdgeId.CURVE_HIGH, CONSTANTS.iv_b.hi, CONSTANTS.iv_a.lo, "up"),
    (ObjectiveId.F5, EdgeId.CURVE_HIGH, CONSTANTS.iv_b.hi, CONSTANTS.iv_a.lo, "up"),
    (ObjectiveId.F3, EdgeId.X_ZERO, 1e-6, 0.5, "up"),
    (ObjectiveId.F5, EdgeId.X_ZERO, 1e-6, 0.5, "up"),
    (ObjectiveId.F2, EdgeId.X_ZERO, 1e-6, 0.5 - 1e-9, "down"),
    (ObjectiveId.F6, EdgeId.Y_ZERO, 1e-6, CONSTANTS.iv_a.lo, "up"),
]


@pytest.mark.parametrize("oid,edge,lo,hi,direction", MONOTONE_CASES)
def test_edge_monotonicity(oid, edge, lo, hi, direction):
    deriv = OBJECTIVES[oid].restriction(edge).scaled_derivative
    if direction == "up":
        assert prove_positive_1d(deriv.value_iv, lo, hi)
    else:
        assert prove_negative_1d(deriv.value_iv, lo, hi)


def test_f2_axis_maximum_at_right_endpoint():
    # the value bound that the loose monotonicity statement is used for
    from grunsky_bounds.claims import analyze_edge

    an = analyze_edge(ObjectiveId.F2, EdgeId.Y_ZERO, 10_000)
    assert 2.236 <= an.value.lo <= an.value.hi < 2.237
    assert Fraction(an.argmax.lo) <= CONSTANTS.a <= Fraction(an.argmax.hi)
    # the dip: a genuine interior stationary point below the endpoint value
    interior = an.interior_clusters()
    assert len(interior) == 1 and 0.07 < interior[0].mid < 0.08


def test_values_finite_on_whole_region_including_rim():
    rng = random.Random(30)
    for _ in range(200):
        oid = rng.choice([o for o in ObjectiveId if o is not ObjectiveId.F1])
        x = rng.uniform(0, A)
        y = lemma1_bound(x) if rng.random() < 0.5 else rng.uniform(0, lemma1_bound(x))
        v = objective_value(OBJECTIVES[oid], x, y)
        assert math.isfinite(v)


def _hex(iv: Interval) -> tuple[str, str]:
    return iv.lo.hex(), iv.hi.hex()


def _same_bits(got, want) -> bool:
    """Equal by float.hex, interval by interval; None, where the reference raised, matches None."""
    if got is None or want is None:
        return got is want
    if isinstance(got, Interval):
        return _hex(got) == _hex(want)
    return [_hex(g) for g in got] == [_hex(w) for w in want]


def _reference(fn, *args):
    """The reference's result, or None where it raises for a radicand that is not positive."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError):
        return None


_FORMS = [OBJECTIVES[oid].restriction(edge) for oid in ObjectiveId for edge in EdgeId]


#: widths at which a product underflows: 1e-300 and subnormal ones
_TINY_WIDTHS = (1e-300, 2.2250738585072014e-308, 1e-310, 5e-324)


def _search_pieces(form, rng: random.Random) -> list[Interval]:
    """Pieces as the edge searches give them, and the underflow and t < 0 cases of the kernel.

    Every search piece is [0, m] from t = 0.0 (or -0.0, once a split has
    negated it); a Newton step evaluates the point at a piece's midpoint.
    """
    pieces = []
    for w in _TINY_WIDTHS:
        pieces += [Interval(0.0, w), Interval(-0.0, w), Interval(w, 2 * w), Interval(-w, 0.0), Interval(-w, w)]
    for _ in range(10):
        m = rng.uniform(0.0, form.hi)
        pieces += [Interval(0.0, m), Interval(-0.0, m), Interval.point(m), Interval(m, math.nextafter(m, 1.0)),
                   Interval(-m, 0.0), Interval(-m, 0.5 * m)]
    return pieces


@pytest.mark.parametrize("form", _FORMS + [f.scaled_derivative for f in _FORMS],
                         ids=lambda f: f.label)
def test_pre_enclosed_coefficients_match_per_call_path(form):
    # the fused pair kernel against the interval formulas, which enclose the
    # coefficients on each call and build one Interval object per operation;
    # boxes that reach below t = 0 take the zero-endpoint products too.  The
    # slope of a scaled derivative evaluates the second scaled derivative.  A
    # kernel without its zero-endpoint fallback gave f1|y_zero on [0, 1e-300]
    # another lower end, as the four-product rule also settles an underflow
    rng = random.Random(form.label)
    pieces = []
    for k in range(60):
        a, b = sorted(rng.uniform(form.lo - 0.1 * (k % 3 == 0), form.hi) for _ in range(2))
        pieces.append(Interval(a, b))
    for t in pieces + _search_pieces(form, rng):
        want = _reference(form_value_iv, form, t)
        if want is None:
            with pytest.raises(NegativeRadicandError):
                form.value_iv(t)
        else:
            assert _hex(form.value_iv(t)) == _hex(want), t
        assert _same_bits(form.slope_iv(t), _reference(form_slope_iv, form, t)), t
        for m in (form.w, form.v):
            assert tuple(v.hex() for v in _horner_sum(m.pairs, t.lo, t.hi)) == _hex(mixed_eval_iv(m, t)), t


def _random_box(rng: random.Random, straddle: bool) -> tuple[Interval, Interval]:
    """A box in the region's quadrant, or one whose x, y or both start at 0 or below it."""
    x1, y1 = rng.uniform(0.0, A - 0.05), rng.uniform(0.0, 0.4)
    if straddle:
        axes = rng.choice(("x", "y", "xy"))
        if "x" in axes:
            x1 = rng.choice((0.0, -rng.uniform(0.0, 0.2)))
        if "y" in axes:
            y1 = rng.choice((0.0, -rng.uniform(0.0, 0.2)))
    return Interval(x1, x1 + rng.uniform(0.0, 0.3)), Interval(y1, y1 + rng.uniform(0.0, 0.3))


def _krawczyk_boxes(rng: random.Random) -> list[tuple[Interval, Interval]]:
    """Boxes that straddle x = 0, y = 0 or both, as the widened Krawczyk retest about (0, 0) does; boxes
    with 0.0, -0.0 and subnormal endpoints; point boxes; and boxes where R <= 0 on part or all of them."""
    boxes = []
    for _ in range(40):
        x, y, h = rng.uniform(0.0, A), rng.uniform(0.0, 0.5), rng.uniform(1e-9, 0.3)
        boxes += [(-h, h, y, y + h), (x, x + h, -h, h), (-h, h, -h, h), (x, x, y, y), (-h, -h, -h, -h)]
        boxes += [(x + 0.5, x + 0.6, y + 0.3, y + 0.4), (x + 0.7, x + 0.9, y + 0.6, y + 0.7)]
    ends = (0.0, -0.0, *_TINY_WIDTHS)
    for x1 in ends:
        for y1 in ends:
            x2, y2 = max(abs(x1), rng.choice((1e-300, 0.3))), max(abs(y1), rng.choice((5e-324, 0.2)))
            boxes += [(x1, x2, y1, y2), (-x2, x1, -y2, y1)]
    return [(Interval(x1, x2), Interval(y1, y2)) for x1, x2, y1, y2 in boxes]


@pytest.mark.parametrize("oid", ObjectiveId, ids=lambda o: o.value)
def test_compiled_objective_matches_the_interval_formulas(oid):
    obj = OBJECTIVES[oid]
    rng = random.Random(oid.value)
    boxes = []
    for k in range(300):
        x, y = _random_box(rng, straddle=k % 2 == 1)
        # and its midpoint, as the Krawczyk step evaluates the gradient there
        boxes += [(x, y), (Interval.point(x.mid), Interval.point(y.mid))]
    outcomes = set()
    for x, y in boxes + _krawczyk_boxes(rng):
        want = _reference(objective_value_iv, obj, x, y)
        if want is None:
            with pytest.raises(NegativeRadicandError):
                obj.value_iv(x, y)
        else:
            assert _hex(obj.value_iv(x, y)) == _hex(want), (x, y)
        gradient, hessian = obj.gradient_iv(x, y), _hessian(obj, x, y)
        assert _same_bits(gradient, _reference(objective_gradient_iv, obj, x, y)), (x, y)
        assert _same_bits(hessian, _reference(objective_hessian_iv, obj, x, y)), (x, y)
        outcomes.add((gradient is None, hessian is None))
    # f7 has no radical, so it has derivatives on every box
    assert outcomes == ({(False, False)} if oid is ObjectiveId.F7 else {(False, False), (True, True)})


def test_gradient_and_hessian_are_none_where_the_radicand_is_not_positive():
    obj = OBJECTIVES[ObjectiveId.F5]
    # the box reaches the rim R = 0 on the high cap
    x = Interval(0.6, 0.61)
    y = Interval(0.4, cap_point_down(0.6))
    assert obj.gradient_iv(x, y) is None and _hessian(obj, x, y) is None
    # f7 has no radical term, so its derivatives are defined up to the rim
    assert _hessian(OBJECTIVES[ObjectiveId.F7], x, y) is not None


def test_the_evaluators_compile_once_per_kind_on_first_call(monkeypatch):
    defined = []
    define = objectives._define
    monkeypatch.setattr(objectives, "_define", lambda lines, name, **names: defined.append(lines[1].strip())
                        or define(lines, name, **names))
    # a fresh cache of compiles, and fresh objectives, which hold no evaluator yet
    monkeypatch.setattr(objectives, "_evaluator_factory",
                        functools.lru_cache(objectives._evaluator_factory.__wrapped__))
    fresh = [dataclasses.replace(OBJECTIVES[oid]) for oid in ObjectiveId]
    x, y = Interval(0.1, 0.2), Interval(0.1, 0.2)
    for kind, call in (("hessian", lambda o: o.hessian_pairs(0.1, 0.2, 0.1, 0.2)),
                       ("gradient", lambda o: o.gradient_pairs(0.1, 0.2, 0.1, 0.2)),
                       ("value", lambda o: o.value_iv(x, y))):
        before = len(defined)
        for obj in fresh + fresh:
            call(obj)
        # one compile with the radical part and one without it (f7), for every table
        assert defined[before:] == [f"def {kind}(x1, x2, y1, y2):"] * 2


def test_import_and_table_builds_compile_nothing():
    # perfbench's set-up probe times the import, `restriction` and `monotone_bounds`
    script = (
        "from grunsky_bounds import cli, objectives\n"
        "from grunsky_bounds.domain import EdgeId\n"
        "defined = []\n"
        "define = objectives._define\n"
        "objectives._define = lambda *args, **names: defined.append(args) or define(*args, **names)\n"
        "for oid, obj in objectives.OBJECTIVES.items():\n"
        "    objectives._prepared(oid), objectives.monotone_bounds(oid)\n"
        "    for edge in EdgeId:\n"
        "        obj.restriction(edge)\n"
        "caches = (objectives._factory, objectives._radical_tail, objectives._evaluator_factory)\n"
        "print(len(defined), sum(cache.cache_info().currsize for cache in caches))\n"
    )
    src = os.path.dirname(os.path.dirname(objectives.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    assert done.stdout.split() == ["0", "0"]


def _f1_exact(t: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals below and above f1(t) = 3t^2 + 2*sqrt((1 - t^2)/3), from an integer square root."""
    s = 4 * (1 - t * t) / 3  # the square of the radical term
    scale = 2**64
    n = s.numerator * s.denominator * scale**2
    root = math.isqrt(n)
    lo = Fraction(root, s.denominator * scale)
    hi = lo if root * root == n else Fraction(root + 1, s.denominator * scale)
    return 3 * t * t + lo, 3 * t * t + hi


def test_f1_entry_and_form_hold_the_exact_f1():
    obj = OBJECTIVES[ObjectiveId.F1]
    assert F1_FORM == obj.restriction(EdgeId.Y_ZERO)
    for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), CONSTANTS.a):
        lo, hi = _f1_exact(t)
        # 297/400 is not a float: its tightest enclosure holds it
        x = Interval.from_fraction(t)
        for iv in (obj.value_iv(x, Interval.point(0.0)), F1_FORM.value_iv(x)):
            assert Fraction(iv.lo) <= lo <= hi <= Fraction(iv.hi), (t, iv)
    # at t = 1/2 the radical term is rational: f1 = 3/4 + 1
    assert _f1_exact(Fraction(1, 2)) == (Fraction(7, 4), Fraction(7, 4))


def test_a_radical_multiplier_above_linear_is_refused(monkeypatch):
    f2 = OBJECTIVES[ObjectiveId.F2]
    quadratic = MixedPoly(inv_sqrt5=(Fraction(2), Fraction(0), Fraction(1)))
    monkeypatch.setitem(OBJECTIVES, ObjectiveId.F2, dataclasses.replace(f2, mult=quadratic))
    # past the cache, which holds the registered f2
    with pytest.raises(ValueError, match="at most linear"):
        objectives._prepared.__wrapped__(ObjectiveId.F2)


def test_f2_reduced_root_found_once_per_context(monkeypatch):
    from grunsky_bounds import optimize
    from grunsky_bounds.claims import EDGE_CONSTANTS, SuiteContext

    calls = []
    original = optimize.find_root_1d

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # the context must look the root finder up on the module at call time
    monkeypatch.setattr(optimize, "find_root_1d", counted)
    specs = {spec.label: spec for spec in EDGE_CONSTANTS}
    ctx = SuiteContext()
    y = specs["f2 reduced y"].evaluate(ctx)
    x = specs["f2 reduced x"].evaluate(ctx)
    assert len(calls) == 1
    assert 0.153 <= y.lo <= y.hi < 0.154
    assert 0.961 <= x.lo <= x.hi < 0.962
    specs["f2 reduced y"].evaluate(SuiteContext())
    assert len(calls) == 2


def test_f2_reduced_curve_x_encloses_the_exact_curve():
    from grunsky_bounds.claims import EDGE_CONSTANTS, SuiteContext

    ctx = SuiteContext()
    y = ctx.f2_reduced_root()
    x = {spec.label: spec for spec in EDGE_CONSTANTS}["f2 reduced x"].evaluate(ctx)

    def x_squared(t: float) -> Fraction:
        q = Fraction(t)
        return 3 * q * q / (1 - 6 * q)

    for end in (y.lo, y.hi):
        assert Fraction(x.lo) ** 2 <= x_squared(end) <= Fraction(x.hi) ** 2
    assert 0.961 <= x.lo <= x.hi < 0.962
    assert x.width < 4e-12

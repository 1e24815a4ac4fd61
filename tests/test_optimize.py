"""Branch-and-bound, root isolation, uniqueness and critical-point certification."""

import math
import random
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from grunsky_bounds import objectives, optimize
from grunsky_bounds.claims import SuiteContext, _value_outcome, analyze_edge
from grunsky_bounds.domain import (
    CONSTANTS,
    EDGES,
    REGION,
    EdgeId,
    cap_point_down,
    cap_sup_up,
    high_chart,
    low_chart,
)
from grunsky_bounds.interval import Interval
from grunsky_bounds.objectives import (
    F1_FORM, F2_REDUCED_POLY, OBJECTIVES, ObjectiveId, monotone_bounds
)
from grunsky_bounds.optimize import (
    MIN_WIDTH,
    BnBConfig,
    Extremum,
    NoBracketError,
    find_root_1d,
    grid_maximum,
    interior_critical_points,
    maximize_1d,
    maximize_2d,
)
from grunsky_bounds.poly import MixedPoly, rp_deriv, rp_eval_iv
from grunsky_bounds.report import run_suite
from paper_formulas import (
    contains, form_slope_iv, full_grid_maximum, full_grid_values, objective_value, omega_contains, prove_positive_1d
)

A = CONSTANTS.a_float
D = CONSTANTS.iv_d.mid
B = CONSTANTS.iv_b.mid
CFG = BnBConfig(tol_value=1e-6)


def in_window(iv: Interval, lo: float) -> bool:
    return iv.hi >= lo and iv.lo < lo + 1e-3


def test_config_validation():
    with pytest.raises(ValueError):
        BnBConfig(tol_value=-1.0)
    with pytest.raises(ValueError):
        BnBConfig(max_boxes=0)


# ---------------------------------------------------------------------------
# find_root_1d
# ---------------------------------------------------------------------------


def test_find_root_cubic():
    root = find_root_1d(lambda t: t**3 - t, 0.5, 2.0, tol=1e-12)
    assert root.lo <= 1.0 <= root.hi
    assert root.width <= 1e-11


def test_find_root_f3_edge_derivative():
    deriv = OBJECTIVES[ObjectiveId.F3].restriction(EdgeId.X_A).scaled_derivative
    root = find_root_1d(deriv.value_iv, 1e-6, D, tol=1e-12)
    assert 0.338 <= root.lo <= root.hi < 0.339


def test_find_root_f5_edge_derivative():
    deriv = OBJECTIVES[ObjectiveId.F5].restriction(EdgeId.X_A).scaled_derivative
    root = find_root_1d(deriv.value_iv, 1e-6, D, tol=1e-12)
    assert 0.300 <= root.lo <= root.hi < 0.301


def test_find_root_requires_bracket():
    with pytest.raises(NoBracketError):
        find_root_1d(lambda t: t**2 + Interval.point(1.0), -1.0, 1.0)


# ---------------------------------------------------------------------------
# find_root_1d proves that one zero cluster holds every zero, and a sign change
# ---------------------------------------------------------------------------


def test_uniqueness_f2_edge_derivative():
    deriv = OBJECTIVES[ObjectiveId.F2].restriction(EdgeId.X_A).scaled_derivative
    root = find_root_1d(deriv.value_iv, 1e-9, D * (1 - 1e-9))
    assert 0.365 <= root.lo <= root.hi < 0.366


def test_uniqueness_g6_derivative():
    deriv = OBJECTIVES[ObjectiveId.F4].restriction(EdgeId.CURVE_HIGH).scaled_derivative
    root = find_root_1d(deriv.value_iv, CONSTANTS.iv_b.hi, CONSTANTS.iv_a.lo)
    assert 0.715 <= root.lo <= root.hi < 0.716


def _three_roots(t: Interval) -> Interval:
    return t * (t - Interval.point(0.1)) * (t - Interval.point(0.2))


def _roots(fn, lo: float, hi: float, max_boxes: int = 200_000, slope=None):
    """The 1-D zero search at the edge analyses' MIN_WIDTH on interval functions: (proven boxes, unproven
    clusters, pieces and steps), the boxes as intervals."""
    found = optimize._roots_1d(optimize._on_pairs(fn), lo, hi, MIN_WIDTH, max_boxes,
                               slope and optimize._on_pairs(slope))
    return found and ([Interval(*c) for c in found[0]], [Interval(*c) for c in found[1]], found[2])


def test_uniqueness_rejects_three_roots():
    # with no slope nothing is proven: three bisection clusters
    proven, unproven, _ = _roots(_three_roots, -0.05, 0.3)
    assert proven == [] and len(unproven) == 3
    assert [contains(c, r) for c, r in zip(unproven, (0.0, 0.1, 0.2))] == [True] * 3
    with pytest.raises(NoBracketError, match="single"):
        find_root_1d(_three_roots, -0.05, 0.3)


def test_uniqueness_no_root_at_all():
    with pytest.raises(NoBracketError, match="single"):
        find_root_1d(lambda t: t + Interval.point(5.0), 0.0, 1.0)


def test_find_root_budget_exhausted():
    assert contains(find_root_1d(_three_roots, 0.15, 0.3), 0.2)
    with pytest.raises(NoBracketError, match="budget"):
        find_root_1d(_three_roots, 0.15, 0.3, max_boxes=3)


# ---------------------------------------------------------------------------
# the 1-D zero search, and the bisection of the test helper prove_positive_1d
# ---------------------------------------------------------------------------


def test_root_search_budget_exhausted():
    assert _roots(_three_roots, -0.05, 0.3, max_boxes=3) is None


def test_prove_positive_rejects_negative_part():
    def fn(t: Interval) -> Interval:
        return t - Interval.point(0.5)

    assert not prove_positive_1d(fn, 0.0, 1.0)
    # with a coarse floor the unsettled pieces come back as leaves, not a
    # budget overrun
    assert not prove_positive_1d(fn, 0.0, 1.0, min_width=0.1)


def test_prove_positive_budget_exhausted():
    # t^2 - t + 0.3 >= 0.05, but the whole-range enclosure is [-0.7, 1.3]
    def fn(t: Interval) -> Interval:
        return t**2 - t + Interval.point(0.3)

    assert prove_positive_1d(fn, 0.0, 1.0)
    assert not prove_positive_1d(fn, 0.0, 1.0, max_boxes=3)


# ---------------------------------------------------------------------------
# interval Newton in the 1-D zero search
# ---------------------------------------------------------------------------


def _newton_holds(fn, slope, x: Interval) -> bool:
    """N(X) = m - fn(m)/fn'(X) inside int X, computed here from the enclosures."""
    d = slope(x)
    if d is None or d.contains_zero():
        return False
    m = Interval.point(x.mid)
    q = fn(m) * (d.recip() if d.lo > 0.0 else -((-d).recip()))
    n = m - q
    return x.lo < n.lo and n.hi < x.hi


def _in_newton_proven_box(fn, slope, x: Interval) -> bool:
    """x lies in a Newton-proven box: x widened by its width on each side."""
    r = max(x.width, 4.0 * math.ulp(x.mid))
    return _newton_holds(fn, slope, Interval(x.lo - r, x.hi + r))


def _signs_differ(value, x: Interval) -> bool:
    """value, computed far below rounding level, has opposite signs at the ends of x.

    Then x holds a zero, and inside a Newton-proven box that is its one zero.
    """
    a, b = value(x.lo), value(x.hi)
    return a * b < 0


def _rat_poly(p, t: Fraction) -> Fraction:
    return sum((c * t**k for k, c in enumerate(p)), Fraction(0))


def _form_value_50(form, t: float) -> Decimal:
    """W(t) + V(t)*sqrt(S(t)) to 50 digits: the polynomials exactly at the float t."""
    q = Fraction(t)
    with localcontext() as ctx:
        ctx.prec = 50

        def dec(f: Fraction) -> Decimal:
            return Decimal(f.numerator) / Decimal(f.denominator)

        def mixed(m) -> Decimal:
            parts = ((m.one, 1), (m.inv_sqrt3, 3), (m.inv_sqrt5, 5), (m.inv_sqrt7, 7))
            return sum((dec(_rat_poly(p, q)) / Decimal(r).sqrt() for p, r in parts if p), Decimal(0))

        out = mixed(form.w)
        if not form.v.is_zero():
            out += mixed(form.v) * dec(_rat_poly(form.s, q)).sqrt()
        return out


def _form_slope(form):
    """fn' of a scaled derivative form: the reference W' where V = 0, else its scaled derivative over 2*sqrt(S)."""
    def slope(t: Interval):
        if form.v.is_zero():
            return form_slope_iv(form, t)
        s = rp_eval_iv(form.s, t)
        if s.lo <= 0.0:
            return None
        return form.scaled_derivative.value_iv(t) * s.sqrt_clamped().scale(2.0).recip()

    return slope


_EDGE_CASES = [(oid, edge) for oid in ObjectiveId if oid is not ObjectiveId.F1 for edge in EdgeId]


@pytest.mark.parametrize("oid, edge", _EDGE_CASES, ids=lambda v: v.value)
def test_interior_edge_roots_are_newton_proven(oid, edge):
    an = analyze_edge(oid, edge, CFG.max_boxes)
    deriv = OBJECTIVES[oid].restriction(edge).scaled_derivative
    for c in an.interior_clusters():
        assert c.width <= 1e-13, c
        assert _in_newton_proven_box(deriv.value_iv, _form_slope(deriv), c), c
        assert _signs_differ(lambda t: _form_value_50(deriv, t), c), c


def test_interior_edge_root_count():
    # 19 interior roots over the 40 edges of f2..f9: a search that lost one
    # would pass the test above without checking it
    count = sum(len(analyze_edge(oid, edge, CFG.max_boxes).interior_clusters()) for oid, edge in _EDGE_CASES)
    assert count == 19


def test_root_on_a_bisection_midpoint_gives_one_cluster():
    # fn' = 2t - 0.2 changes sign on [0, 1], so the search splits it at 0.5,
    # the root; Newton then presses each half's box against 0.5
    def fn(t: Interval) -> Interval:
        return (t - Interval.point(0.5)) * (t + Interval.point(0.3))

    def slope(t: Interval) -> Interval:
        return t.scale(2.0) - Interval.point(0.2)

    # plain bisection: the two leaves that meet at 0.5 merge
    [], [c], _ = _roots(fn, 0.0, 1.0)
    assert contains(c, 0.5) and c.width <= 2 * MIN_WIDTH
    # Newton: both halves widen their box across 0.5 and prove it; the two
    # proven boxes overlap, so they hold one zero
    [c], [], _ = _roots(fn, 0.0, 1.0, slope=slope)
    assert contains(c, 0.5) and c.width <= 1e-13


def test_double_root_falls_back_to_a_min_width_cluster():
    def fn(t: Interval) -> Interval:
        return (t - Interval.point(0.2)) ** 2

    def slope(t: Interval) -> Interval:
        return (t - Interval.point(0.2)).scale(2.0)

    [], [c], _ = _roots(fn, 0.0, 1.0, slope=slope)
    assert contains(c, 0.2)
    # bisection leaves, not a proven box: fn' vanishes at the root
    assert MIN_WIDTH / 4 <= c.width <= 2 * MIN_WIDTH
    assert not _newton_holds(fn, slope, c)


def test_endpoint_zero_gives_one_cluster():
    # the restriction of f2 to x = 0 is stationary at t = 0, an end of the piece
    an = analyze_edge(ObjectiveId.F2, EdgeId.X_ZERO, CFG.max_boxes)
    [c] = an.clusters
    assert contains(c, 0.0) and c.intersects(EDGES[EdgeId.X_ZERO].t_lo)
    assert an.interior_clusters() == []
    # the maximum lies there too, so the edge counts as the corner (0, 0)
    assert an.end == 0


def test_a_form_with_no_radical_searches_its_plain_derivative():
    # f7 on x = a is a^2/2 + t, with no radical: its scaled derivative is W' = 1
    # itself, not 2*sqrt(S)*W', which vanished at the corner (a, d) where S = 0
    # and left a MIN_WIDTH cluster there at a zero the form does not have
    form = OBJECTIVES[ObjectiveId.F7].restriction(EdgeId.X_A)
    assert form.scaled_derivative._value_pair(0.0, D) == (1.0, 1.0)
    an = analyze_edge(ObjectiveId.F7, EdgeId.X_A, CFG.max_boxes)
    # the one piece is cleared at once, and the maximum is the end at (a, d)
    assert an.clusters == () and an.iterations == 1
    assert an.end == 1 and an.argmax == EDGES[EdgeId.X_A].t_hi


def test_a_plain_derivative_takes_newton_steps_where_the_radicand_is_not_positive():
    # the slope of a form with V = 0 is W'', with no test of S: f7 on x = a
    # has S = 0 at t = d and S < 0 beyond it
    deriv = OBJECTIVES[ObjectiveId.F7].restriction(EdgeId.X_A).scaled_derivative
    assert deriv.slope_pair(D, 2 * D) == (0.0, 0.0)
    # a form with a radical still has no slope there
    assert OBJECTIVES[ObjectiveId.F2].restriction(EdgeId.X_A).slope_pair(D, 2 * D) is None


@pytest.mark.parametrize("oid, edge, end", [
    (ObjectiveId.F1, EdgeId.X_A, 0),       # the stationary cluster [0, 8e-17] at the corner (a, 0)
    (ObjectiveId.F1, EdgeId.Y_ZERO, 1),
    (ObjectiveId.F2, EdgeId.X_A, None),    # an interior edge root
    (ObjectiveId.F6, EdgeId.CURVE_LOW, None),
])
def test_an_edge_counts_as_a_corner_when_its_maximum_meets_an_end(oid, edge, end):
    an = analyze_edge(oid, edge, CFG.max_boxes)
    assert an.end == end
    if end is not None:
        assert an.argmax.intersects(an.endpoints[end])


def test_find_root_returns_a_newton_proven_box():
    def fn(t: Interval) -> Interval:
        return rp_eval_iv(F2_REDUCED_POLY, t)

    def slope(t: Interval) -> Interval:
        return rp_eval_iv(rp_deriv(F2_REDUCED_POLY), t)

    root = find_root_1d(fn, 0.0, 1.0 / 6.0, tol=1e-14, slope=slope)
    assert 0.153 <= root.lo <= root.hi < 0.154
    assert root.width <= 1e-13
    assert _in_newton_proven_box(fn, slope, root)
    assert _signs_differ(lambda t: _rat_poly(F2_REDUCED_POLY, Fraction(t)), root)
    # the suite's root passes the same slope
    assert SuiteContext().f2_reduced_root() == root


def test_zero_at_an_end_of_the_range_is_not_newton_proven():
    # the steps press the box against t = 0, and the widened box stops at the
    # end of the range, so N(X) ⊂ int X cannot hold; the cluster is unproven,
    # and fn(0) = 0 shows no sign change
    def one(t: Interval) -> Interval:
        return Interval.point(1.0)

    [], [c], _ = _roots(lambda t: t, 0.0, 1.0, slope=one)
    assert c.lo == 0.0 and c.width <= MIN_WIDTH
    with pytest.raises(NoBracketError, match="single"):
        find_root_1d(lambda t: t, 0.0, 1.0, slope=one)


def test_newton_steps_count_against_the_budget():
    def fn(t: Interval) -> Interval:
        return t - Interval.point(0.3)

    def slope(t: Interval) -> Interval:
        return Interval.point(1.0)

    # one piece evaluated, then Newton steps: a budget of one box runs out
    assert _roots(fn, 0.0, 1.0, max_boxes=1, slope=slope) is None
    [c], [], processed = _roots(fn, 0.0, 1.0, max_boxes=10, slope=slope)
    assert contains(c, 0.3) and _in_newton_proven_box(fn, slope, c)
    # the count holds the piece and its steps, and is the least budget that suffices
    assert 1 < processed <= 10
    assert _roots(fn, 0.0, 1.0, max_boxes=processed - 1, slope=slope) is None


# ---------------------------------------------------------------------------
# maximize_1d
# ---------------------------------------------------------------------------


def test_maximize_f1():
    # that the maximum sits at the right endpoint is `locate`'s to say
    # (test_criterion_01_third_coefficient)
    ext = maximize_1d(F1_FORM.value_iv, F1_FORM.lo, F1_FORM.hi, CFG)
    assert ext.converged
    assert in_window(ext.value, 2.427)
    assert ext.value.width <= 1e-6


def test_maximize_f2_on_right_edge():
    form = OBJECTIVES[ObjectiveId.F2].restriction(EdgeId.X_A)
    ext = maximize_1d(form.value_iv, form.lo, form.hi, CFG)
    assert ext.converged
    assert in_window(ext.value, 3.461)
    argmax = analyze_edge(ObjectiveId.F2, EdgeId.X_A, CFG.max_boxes).argmax
    assert argmax.lo < 0.366 and argmax.hi > 0.365


def test_maximize_g5():
    form = OBJECTIVES[ObjectiveId.F4].restriction(EdgeId.CURVE_LOW)
    ext = maximize_1d(form.value_iv, form.lo, form.hi, CFG)
    assert ext.converged
    assert in_window(ext.value, 0.709)
    argmax = analyze_edge(ObjectiveId.F4, EdgeId.CURVE_LOW, CFG.max_boxes).argmax
    assert argmax.lo < 0.253 and argmax.hi > 0.252


@pytest.mark.parametrize("tol", [1e-7, 1e-9, 1e-11])
def test_maximize_f1_with_slope_converges_in_one_box(tol):
    # f1 increases on [a/2, a]: that box is bounded by f1(a), which the
    # incumbent already holds
    ext = maximize_1d(F1_FORM.value_iv, F1_FORM.lo, F1_FORM.hi, BnBConfig(tol_value=tol),
                      slope=F1_FORM.slope_iv)
    assert ext.converged and ext.iterations == 1
    assert ext.value.width <= 1e-14
    assert contains(ext.value, F1_FORM.value_iv(Interval.point(F1_FORM.hi)).mid)


def test_maximize_1d_budget_flag():
    ext = maximize_1d(F1_FORM.value_iv, 0.0, A, BnBConfig(tol_value=1e-9, max_boxes=3))
    assert not ext.converged
    assert ext.value.lo <= 2.4274 <= ext.value.hi


# ---------------------------------------------------------------------------
# maximize_2d
# ---------------------------------------------------------------------------


def test_maximize_f2():
    ext = maximize_2d(OBJECTIVES[ObjectiveId.F2], REGION, CFG)
    assert ext.converged
    assert in_window(ext.value, 3.461)
    ay = SuiteContext().locate(ObjectiveId.F2).argmax[1]
    assert ay.lo < 0.366 and ay.hi > 0.365


def test_maximize_f6():
    ext = maximize_2d(OBJECTIVES[ObjectiveId.F6], REGION, CFG)
    assert ext.converged
    assert in_window(ext.value, 1.280)
    ax = SuiteContext().locate(ObjectiveId.F6).argmax[0]
    assert ax.lo < 0.282 and ax.hi > 0.281


def test_maximize_f4_interior():
    ext = maximize_2d(OBJECTIVES[ObjectiveId.F4], REGION, CFG)
    assert ext.converged
    assert in_window(ext.value, 1.174)
    loc = SuiteContext().locate(ObjectiveId.F4)
    ax, ay = loc.argmax
    assert loc.kind == "interior"
    assert ax.lo < 0.635 and ax.hi > 0.634
    assert ay.lo < 0.359 and ay.hi > 0.358


def test_maximize_f5_interior():
    ext = maximize_2d(OBJECTIVES[ObjectiveId.F5], REGION, CFG)
    assert ext.converged
    assert in_window(ext.value, 1.822)


def test_maximize_2d_of_the_f1_entry_meets_the_f1_extremum():
    # f1's entry is a member of the family, so the 2-D BnB takes it as it
    # takes f2-f9; its maximum on y = 0 is `locate`'s to say
    # (test_criterion_01_third_coefficient)
    ext = maximize_2d(OBJECTIVES[ObjectiveId.F1], REGION, CFG)
    f1 = SuiteContext().f1_extremum()
    assert ext.converged and f1.converged
    assert ext.value.intersects(f1.value)


def test_maximize_budget_exhaustion_flagged():
    ext = maximize_2d(OBJECTIVES[ObjectiveId.F2], REGION, BnBConfig(tol_value=1e-9, max_boxes=5))
    assert not ext.converged
    assert ext.value.lo <= 3.4615 <= ext.value.hi


def test_argmax_midpoint_stays_in_region():
    ctx = SuiteContext()
    for oid in (ObjectiveId.F2, ObjectiveId.F4, ObjectiveId.F6, ObjectiveId.F7):
        ax, ay = ctx.locate(oid).argmax
        assert omega_contains(ax.mid, ay.mid, slack=1e-6)


def test_maximize_deterministic_across_runs():
    a = maximize_2d(OBJECTIVES[ObjectiveId.F3], REGION, CFG)
    b = maximize_2d(OBJECTIVES[ObjectiveId.F3], REGION, CFG)
    assert a.value == b.value
    assert a.iterations == b.iterations


def test_enclosures_contain_sampled_values():
    for oid in (ObjectiveId.F2, ObjectiveId.F4, ObjectiveId.F6, ObjectiveId.F9):
        ext = maximize_2d(OBJECTIVES[oid], REGION, CFG)
        grid = grid_maximum(oid, 200)
        assert grid <= ext.value.hi + 1e-12
        assert grid >= ext.value.lo - 1e-4  # coarse grid, generous slack


#: maximize_2d at two widths: value ("lo hi" by float.hex) and iterations.
#: f4 and f5 settle their interior maximum on a concave box: their value is
#: the certified critical value at either width, and iterations count 108
#: and 130 boxes with 8 and 16 Krawczyk steps.  f2, f3, f6, f8 and f9 settle
#: their maximum on a face, x = a or curve_low: their value is the face
#: maximum, that of the edge analysis to within an ulp, and iterations count
#: the face searches' pieces and Newton steps (7, 8, 10, 7 and 8).  f7's
#: maximum is the corner (a, d), where the Baumann centre is that corner.
BNB_PINS = {
    ("f2", 1e-05): ("0x1.bb11ff6d4c46fp+1 0x1.bb11ff6d4c479p+1", 26),
    ("f3", 1e-05): ("0x1.3f9006357f063p+2 0x1.3f9006357f06fp+2", 30),
    ("f4", 1e-05): ("0x1.2c918d4e61e3cp+0 0x1.2c918d4e61e66p+0", 116),
    ("f5", 1e-05): ("0x1.d29aed74efefdp+0 0x1.d29aed74eff98p+0", 146),
    ("f6", 1e-05): ("0x1.47ca4dd107668p+0 0x1.47ca4dd10766fp+0", 128),
    ("f7", 1e-05): ("0x1.5324a45452562p-1 0x1.5324a45452569p-1", 5),
    ("f8", 1e-05): ("0x1.1a52a2f1697a3p-1 0x1.1a52a2f1697abp-1", 44),
    ("f9", 1e-05): ("0x1.3a055439bb249p-1 0x1.3a055439bb257p-1", 58),
    ("f2", 1e-09): ("0x1.bb11ff6d4c46fp+1 0x1.bb11ff6d4c479p+1", 26),
    ("f3", 1e-09): ("0x1.3f9006357f063p+2 0x1.3f9006357f06fp+2", 30),
    ("f4", 1e-09): ("0x1.2c918d4e61e3cp+0 0x1.2c918d4e61e66p+0", 116),
    ("f5", 1e-09): ("0x1.d29aed74efefdp+0 0x1.d29aed74eff98p+0", 146),
    ("f6", 1e-09): ("0x1.47ca4dd107668p+0 0x1.47ca4dd10766fp+0", 128),
    ("f7", 1e-09): ("0x1.5324a45452562p-1 0x1.5324a45452569p-1", 5),
    ("f8", 1e-09): ("0x1.1a52a2f1697a3p-1 0x1.1a52a2f1697abp-1", 44),
    ("f9", 1e-09): ("0x1.3a055439bb249p-1 0x1.3a055439bb257p-1", 58),
}


#: the results of the branch-and-bound before it settled maxima: without the
#: concave settle, f4 and f5 cluster boxes about their interior maximizer;
#: without the face settle, f2, f3, f6, f8 and f9 about theirs on a face
UNSETTLED_PINS = {
    ("f4", 1e-05): ("0x1.2c918cbf4e5f5p+0 0x1.2c9226755e151p+0", 127),
    ("f5", 1e-05): ("0x1.d29ae884d0534p+0 0x1.d29b81f89572fp+0", 167),
    ("f4", 1e-09): ("0x1.2c918d4e3c9b8p+0 0x1.2c918d523386dp+0", 211),
    ("f5", 1e-09): ("0x1.d29aed74d8a78p+0 0x1.d29aed78f18d5p+0", 297),
    ("f2", 1e-05): ("0x1.bb11f34820631p+1 0x1.bb12460bdff33p+1", 41),
    ("f3", 1e-05): ("0x1.3f9002d474951p+2 0x1.3f902b0b51176p+2", 46),
    ("f6", 1e-05): ("0x1.47ca4960337d7p+0 0x1.47ca889042f95p+0", 136),
    ("f8", 1e-05): ("0x1.1a5292af8dfdap-1 0x1.1a53b355d1596p-1", 52),
    ("f9", 1e-05): ("0x1.3a0553e2a6f0bp-1 0x1.3a05a64768910p-1", 60),
    ("f2", 1e-09): ("0x1.bb11ff6d2b39ep+1 0x1.bb11ff6f1b99ep+1", 62),
    ("f3", 1e-09): ("0x1.3f9006356afb4p+2 0x1.3f9006361971ep+2", 70),
    ("f6", 1e-09): ("0x1.47ca4dd0ae633p+0 0x1.47ca4dd494e32p+0", 159),
    ("f8", 1e-09): ("0x1.1a52a2f16420ep-1 0x1.1a52a2f82ee33p-1", 72),
    ("f9", 1e-09): ("0x1.3a05543959b75p-1 0x1.3a05543fbeaccp-1", 86),
}

#: the objectives whose maximum settles on a face
FACE_SETTLED = ["f2", "f3", "f6", "f8", "f9"]


def _pinned(name: str, tol: float) -> tuple[str, int, bool]:
    ext = maximize_2d(OBJECTIVES[ObjectiveId(name)], REGION, BnBConfig(tol_value=tol))
    return " ".join((ext.value.lo.hex(), ext.value.hi.hex())), ext.iterations, ext.converged


@pytest.mark.parametrize("name, tol", sorted(BNB_PINS))
def test_maximize_2d_results_are_pinned(name, tol):
    assert _pinned(name, tol) == (*BNB_PINS[name, tol], True)


@pytest.mark.parametrize("name, tol", sorted(BNB_PINS))
def test_maximize_2d_without_the_settle_is_unchanged(name, tol, monkeypatch):
    # the two settles are the only change: with both off, every box is
    # bounded and split as before, bit for bit
    monkeypatch.setattr(optimize, "_concave", lambda *a: (0, None, None))
    monkeypatch.setattr(optimize, "_face_maximum", lambda *a: (0, None))
    assert _pinned(name, tol) == (*UNSETTLED_PINS.get((name, tol), BNB_PINS[name, tol]), True)


@pytest.mark.parametrize("name, tol", sorted(BNB_PINS))
def test_maximize_2d_without_the_face_settle_is_unchanged(name, tol, monkeypatch):
    # with the face settle off alone, f2, f3, f6, f8 and f9 give the results
    # from before it, and f4 and f5 still settle on a concave box
    monkeypatch.setattr(optimize, "_face_maximum", lambda *a: (0, None))
    want = UNSETTLED_PINS[name, tol] if name in FACE_SETTLED else BNB_PINS[name, tol]
    assert _pinned(name, tol) == (*want, True)


@pytest.mark.parametrize("name", ["f4", "f5"])
def test_a_certified_zero_outside_the_interior_does_not_settle(name, monkeypatch):
    # the same boxes try the settle, and each Krawczyk step is counted, but
    # none settles, so the value is the unsettled one
    monkeypatch.setattr(optimize, "_in_interior", lambda region, box: False)
    value, iterations, converged = _pinned(name, 1e-9)
    assert (value, converged) == (UNSETTLED_PINS[name, 1e-9][0], True)
    assert iterations > UNSETTLED_PINS[name, 1e-9][1]


def _about(box: tuple[Interval, Interval], r: float) -> tuple[float, float, float, float]:
    (x, y) = box
    return x.lo - r, x.hi + r, y.lo - r, y.hi + r


def test_a_concave_box_settles_at_the_certified_critical_value(suite_ctx):
    loc = suite_ctx.locate(ObjectiveId.F4)
    box = _about(loc.argmax, 1e-3)
    steps, s, v = optimize._concave(OBJECTIVES[ObjectiveId.F4], REGION, box, 10_000)
    assert steps > 0 and v == loc.value
    # S holds the box, which is then never split
    assert s[0] <= box[0] and box[1] <= s[1] and s[2] <= box[2] and box[3] <= s[3]


def test_the_concave_settle_takes_at_most_the_steps_it_is_given(suite_ctx):
    obj = OBJECTIVES[ObjectiveId.F4]
    box = _about(suite_ctx.locate(ObjectiveId.F4).argmax, 1e-3)
    needed, s, v = optimize._concave(obj, REGION, box, 10_000)
    assert v is not None
    for max_steps in range(needed):
        steps, s, v = optimize._concave(obj, REGION, box, max_steps)
        assert steps <= max_steps
        # a settle cut short proves nothing, or a wider box about the same zero
        assert v is None or contains(v, suite_ctx.locate(ObjectiveId.F4).value.mid)
    assert optimize._concave(obj, REGION, box, needed)[0] == needed


#: the budgets at which the concave settle's Krawczyk steps took the
#: branch-and-bound past `max_boxes` at tol 1e-9, when they were not held to
#: the budget left: f4 reported 91 at 84-90 and 104 at 103, f5 96 to 125
OVERRUN_BUDGETS = {
    "f4": [*range(84, 91), 103],
    "f5": [94, 95, *range(97, 108), 110, 118, 119, 124],
}


@pytest.mark.parametrize("name", sorted(OVERRUN_BUDGETS))
def test_the_concave_settle_keeps_to_the_budget_left(name):
    for max_boxes in OVERRUN_BUDGETS[name]:
        ext = maximize_2d(OBJECTIVES[ObjectiveId(name)], REGION, BnBConfig(1e-9, max_boxes))
        assert ext.iterations <= max_boxes and not ext.converged, (max_boxes, ext)


def test_a_saddle_does_not_settle():
    # f6's interior critical point is a saddle (det H < 0): Krawczyk proves its
    # one zero, but f(x*) is no upper bound about it, so the box must not settle
    obj = OBJECTIVES[ObjectiveId.F6]
    (point,) = interior_critical_points(obj, REGION, CFG).points
    box = _about(point.certified_box, 1e-3)
    proof = optimize._contract(lambda c: optimize._krawczyk(obj, c), box, (-1.0, 1.0, -1.0, 1.0), 1e-5)
    assert proof[1]
    assert optimize._concave(obj, REGION, box, 10_000) == (0, None, None)


@pytest.mark.parametrize("name", ["f4", "f5"])
def test_interior_maxima_settle_with_no_box_cluster(name, suite_ctx):
    oid = ObjectiveId(name)
    exts = [maximize_2d(OBJECTIVES[oid], REGION, BnBConfig(tol_value=tol)) for tol in (1e-5, 1e-7, 1e-9, 1e-11)]
    # the same boxes at every width: none is split about the maximizer
    assert len({ext.iterations for ext in exts}) == 1
    for ext in exts:
        assert ext.converged and ext.value.width <= 1e-12
        # the certified critical value, bit for bit
        assert ext.value == suite_ctx.locate(oid).value


@pytest.mark.parametrize("name", FACE_SETTLED)
def test_boundary_maxima_settle_with_no_box_cluster(name, suite_ctx):
    oid = ObjectiveId(name)
    exts = [maximize_2d(OBJECTIVES[oid], REGION, BnBConfig(tol_value=tol)) for tol in (1e-5, 1e-7, 1e-9, 1e-11)]
    # the same boxes at every width: none is split about the maximizer
    assert len({ext.iterations for ext in exts}) == 1
    for ext in exts:
        assert ext.converged and ext.value.width <= 1e-13
        assert ext.value.intersects(suite_ctx.locate(oid).value)


def test_corner_and_interior_maxima_take_no_face_search(monkeypatch):
    # f1's maximum is the corner (a, 0), where f_y <= 0 touches zero: the
    # Baumann centre is that corner, so its form is already a point value
    searched = []
    monkeypatch.setattr(optimize, "_face_maximum", lambda *a: searched.append(a[2]) or (0, None))
    for name in ("f1", "f4", "f5", "f7"):
        assert _pinned(name, 1e-9)[2]
    assert searched == []
    assert _pinned("f1", 1e-9)[1] == 5


def test_the_concave_settle_skips_boxes_inside_a_zero_free_box(monkeypatch):
    # f5 tries `_concave` 10 times: 9 fail, each on a box that a Krawczyk
    # image proves free of gradient zeros, and no child of one tries again
    calls = []
    real = optimize._concave

    def spy(obj, region, box, max_steps):
        out = real(obj, region, box, max_steps)
        calls.append((box, out))
        return out

    monkeypatch.setattr(optimize, "_concave", spy)
    assert _pinned("f5", 1e-9) == (*BNB_PINS["f5", 1e-9], True)
    zero_free = [box for box, (steps, s, v) in calls if s is not None and v is None]
    assert (len(calls), len(zero_free)) == (10, 9)
    assert not any(z[0] <= b[0] and b[1] <= z[1] and z[2] <= b[2] and b[3] <= z[3]
                   for z in zero_free for b, _ in calls if b != z)


@pytest.mark.parametrize("oid", list(ObjectiveId), ids=lambda oid: oid.value)
def test_maximize_2d_meets_the_located_maximum(oid, suite_ctx):
    assert suite_ctx.extremum(oid).value.intersects(suite_ctx.locate(oid).value)


#: the boxes that the certificate of each objective's located maximum splits:
#: 487 in all, for 983 bounded.  tol_value does not enter the certificate
CERTIFICATE_SPLITS = {"f1": 5, "f2": 19, "f3": 22, "f4": 97, "f5": 134, "f6": 118, "f7": 5, "f8": 37, "f9": 50}


@pytest.mark.parametrize("oid", list(ObjectiveId), ids=lambda oid: oid.value)
def test_the_certificate_box_counts_are_pinned(oid, suite_ctx):
    obj, located, want = OBJECTIVES[oid], suite_ctx.decomposition(oid), CERTIFICATE_SPLITS[oid.value]
    assert suite_ctx.extremum(oid) == Extremum(suite_ctx.locate(oid).value, want, True)
    for tol in (1e-3, 1e-12):
        assert maximize_2d(obj, REGION, BnBConfig(tol), **located) == suite_ctx.extremum(oid)
    # a spent budget leaves the certificate unconverged, and refutes nothing
    for max_boxes in sorted({1, want // 2, want - 1}):
        ext = maximize_2d(obj, REGION, BnBConfig(1e-5, max_boxes), **located)
        assert (ext.iterations, ext.converged, ext.above) == (max_boxes, False, None)


def test_a_spent_certificate_budget_leaves_the_row_inconclusive(suite_ctx):
    f4 = ObjectiveId.F4
    ext = maximize_2d(OBJECTIVES[f4], REGION, BnBConfig(1e-5, 10), **suite_ctx.decomposition(f4))
    out = _value_outcome(ext, suite_ctx.locate(f4), "1.174", kind="interior")
    assert (out.status, out.note) == ("INCONCLUSIVE", "certificate left boxes above the located maximum")


@pytest.mark.parametrize("drop, tol", [(1e-3, 1e-5), (1e-6, 1e-5), (1e-6, 1e-3), (1e-12, 1e-5)])
def test_a_located_value_below_the_true_maximum_is_refuted(drop, tol, suite_ctx):
    # the certificate drops a box only at or below the located U, so no tol
    # lets a U below the true maximum pass
    f4 = ObjectiveId.F4
    obj, located, loc = OBJECTIVES[f4], suite_ctx.decomposition(f4), suite_ctx.locate(f4)
    lowered = Interval(loc.value.lo - drop, loc.value.hi - drop)
    ext = maximize_2d(obj, REGION, BnBConfig(tol), **{**located, "located": lowered})
    assert not ext.converged and ext.above is not None
    # a box at TOL_BOX, whose centre lies above the lowered value
    x1, x2, y1, y2 = ext.above
    assert max(x2 - x1, y2 - y1) <= optimize.TOL_BOX
    assert obj.value_iv(Interval.point(0.5 * (x1 + x2)), Interval.point(0.5 * (y1 + y2))).lo > lowered.hi
    out = _value_outcome(ext, replace(loc, value=lowered), "1.174", kind="interior")
    assert out.status == "FAIL" and out.note.startswith(f"a point of box [{x1:.9g}, ")
    # the search needs 94 to 172 splits to reach TOL_BOX, and a budget that ends sooner refutes nothing
    ext = maximize_2d(obj, REGION, BnBConfig(tol, 50), **{**located, "located": lowered})
    assert (ext.converged, ext.above) == (False, None)


def test_an_inconclusive_face_analysis_falls_back_to_the_mean_value_bound(suite_ctx):
    # f2's maximum lies on x = a, where f rises towards the face: without the
    # top of that face's analysis, the mean-value bound of a box about the
    # maximum stays above the located value down to TOL_BOX, as with no face
    # analysis at all, and the row is INCONCLUSIVE
    f2 = ObjectiveId.F2
    obj, located = OBJECTIVES[f2], suite_ctx.decomposition(f2)
    inconclusive = [replace(an, conclusive=False) for an in located["faces"]]
    for tol in (1e-5, 1e-12):
        ext = maximize_2d(obj, REGION, BnBConfig(tol), **{**located, "faces": inconclusive})
        assert ext == maximize_2d(obj, REGION, BnBConfig(tol), **{**located, "faces": []})
        assert (ext.iterations, ext.converged, ext.above) == (108, False, None)
    out = _value_outcome(ext, suite_ctx.locate(f2), "3.461")
    assert (out.status, out.note) == ("INCONCLUSIVE", "certificate left boxes above the located maximum")


@pytest.mark.parametrize("name, splits", [("f4", 326), ("f5", 453)])
def test_the_concave_box_drops_the_boxes_about_an_interior_maximum(name, splits, suite_ctx):
    # without the critical point, the boxes about it are split until their
    # mean-value bound lies at or below the located value
    oid = ObjectiveId(name)
    located = suite_ctx.decomposition(oid)
    located["critical"] = replace(located["critical"], points=[])
    ext = maximize_2d(OBJECTIVES[oid], REGION, BnBConfig(1e-5), **located)
    assert (ext.iterations, ext.converged) == (splits, True)
    assert splits > CERTIFICATE_SPLITS[name]


#: the scaled gradient ranges that each objective's certificate computes,
#: reading the critical search's (249 in all) and on its own (676)
CERTIFICATE_GRADIENT_RANGES = {
    "f1": (3, 6), "f2": (4, 11), "f3": (4, 19), "f4": (64, 147), "f5": (75, 219),
    "f6": (61, 126), "f7": (10, 11), "f8": (17, 54), "f9": (11, 83),
}


@pytest.mark.parametrize("oid", list(ObjectiveId), ids=lambda oid: oid.value)
def test_the_critical_search_s_gradient_ranges_change_no_certificate(oid, monkeypatch):
    calls = []
    real = objectives.MonotoneBounds.scaled_gradient_range
    monkeypatch.setattr(objectives.MonotoneBounds, "scaled_gradient_range",
                        lambda self, *box: calls.append(box) or real(self, *box))
    obj, located = OBJECTIVES[oid], SuiteContext().decomposition(oid)
    assert located["critical"].gradient_ranges
    calls.clear()
    shared = maximize_2d(obj, REGION, BnBConfig(), **located)
    counts = [len(calls)]
    calls.clear()
    alone = maximize_2d(obj, REGION, BnBConfig(), **{**located, "critical": replace(located["critical"],
                                                                                     gradient_ranges={})})
    counts.append(len(calls))
    bits = [(e.value.lo.hex(), e.value.hi.hex(), e.iterations, e.converged, e.above) for e in (shared, alone)]
    assert bits[0] == bits[1] and bits[0][2:] == (CERTIFICATE_SPLITS[oid.value], True, None)
    assert tuple(counts) == CERTIFICATE_GRADIENT_RANGES[oid.value]


def test_a_critical_search_of_another_objective_is_refused():
    ctx = SuiteContext()
    f4, f5 = ObjectiveId.F4, ObjectiveId.F5
    for critical in (ctx.critical(f5), replace(ctx.critical(f5), gradient_ranges={}), optimize.CriticalSearch()):
        with pytest.raises(ValueError, match="critical search"):
            maximize_2d(OBJECTIVES[f4], REGION, BnBConfig(), **{**ctx.decomposition(f4), "critical": critical})


def test_the_context_drops_the_gradient_ranges_once_the_certificate_has_run():
    ctx = SuiteContext()
    f4 = ObjectiveId.F4
    ranges = ctx.critical(f4).gradient_ranges
    # one range for each piece tested; the rest of the iterations are Krawczyk steps
    assert 0 < len(ranges) < ctx.critical(f4).iterations
    ext = ctx.extremum(f4)
    assert ranges == {} and ctx.critical(f4).gradient_ranges is ranges
    assert maximize_2d(OBJECTIVES[f4], REGION, BnBConfig(), **ctx.decomposition(f4)) == ext


def test_maximize_2d_bounds_each_box_once_and_samples_at_most_one_point_per_split(monkeypatch):
    lower_calls, wide_upper, no_form = [], [], []
    real_lower, real_upper, real_centred = (
        objectives.MonotoneBounds.lower, objectives.MonotoneBounds.upper, optimize._centred_upper)

    def lower(self, *box):
        lower_calls.append(box)
        return real_lower(self, *box)

    def upper(self, *box):
        if box[0] < box[1]:  # the centred forms evaluate it at points x1 == x2
            wide_upper.append(box)
        return real_upper(self, *box)

    def centred(ranges, region, box, settle=None):
        ub = real_centred(ranges, region, box, settle)
        if ub == math.inf:
            no_form.append(box)
        return ub

    monkeypatch.setattr(objectives.MonotoneBounds, "lower", lower)
    monkeypatch.setattr(objectives.MonotoneBounds, "upper", upper)
    monkeypatch.setattr(optimize, "_centred_upper", centred)
    ext = maximize_2d(OBJECTIVES[ObjectiveId.F4], REGION, BnBConfig(tol_value=1e-7))
    assert ext.converged and ext.iterations > 100
    # the 3 x 3 seed grid, then at most one corner per split
    assert 9 < len(lower_calls) <= 9 + ext.iterations
    # a whole box takes the monotone bound only where the centred form has none
    assert wide_upper == no_form and no_form


@pytest.mark.parametrize("oid", list(ObjectiveId), ids=lambda oid: oid.value)
def test_a_y_split_child_needs_no_clip(oid, monkeypatch):
    # every box split descends from the clipped root box, so it is its own
    # clip, and a y-split child, with its parent's x-range, is too
    splits = []
    real = optimize._split_clipped
    monkeypatch.setattr(optimize, "_split_clipped", lambda box: splits.append((box, real(box))) or splits[-1][1])
    maximize_2d(OBJECTIVES[oid], REGION, CFG)
    interior_critical_points(OBJECTIVES[oid], REGION, CFG)
    y_splits = [(box, children) for box, children in splits if box[1] - box[0] < box[3] - box[2]]
    assert y_splits and len(y_splits) < len(splits)
    for box, _ in splits:
        assert optimize._clip_box(*box) == box
    for box, children in y_splits:
        assert len(children) == 2 and all(optimize._clip_box(*child) == child for child in children)


@pytest.mark.parametrize("oid", list(ObjectiveId), ids=lambda oid: oid.value)
def test_no_corner_sample_follows_a_settle(oid, monkeypatch):
    # no corner is sampled after the first settle, which pays because each
    # objective that settles first settles at its global maximum (what this
    # test, not the code, assures); f1 and f7 never settle, and sample a new
    # corner at every split, after the 3 x 3 seed grid
    events, corners = [], []
    real_lower, real_face, real_concave = objectives.MonotoneBounds.lower, optimize._face_maximum, optimize._concave
    real_split = optimize._split_clipped

    def lower(self, *box):
        events.append("sample")
        return real_lower(self, *box)

    def face(*args):
        steps, v = real_face(*args)
        events.append("settle" if v is not None else "search")
        return steps, v

    def concave(*args):
        steps, s, v = real_concave(*args)
        events.append("settle" if v is not None else "search")
        return steps, s, v

    def split(box):
        children = real_split(box)
        corners.append(bool(children) and children[0][0] == box[0] and children[0][2] == box[2])
        return children

    monkeypatch.setattr(objectives.MonotoneBounds, "lower", lower)
    monkeypatch.setattr(optimize, "_face_maximum", face)
    monkeypatch.setattr(optimize, "_concave", concave)
    monkeypatch.setattr(optimize, "_split_clipped", split)
    assert maximize_2d(OBJECTIVES[oid], REGION, CFG).converged
    if oid in (ObjectiveId.F1, ObjectiveId.F7):
        assert "settle" not in events
        assert events.count("sample") == 9 + sum(corners)
    else:
        first = events.index("settle")
        assert "sample" in events[:first] and "sample" not in events[first:]


#: the edge analyses of f2-f9 and f1's y_zero analysis: value, argmax and
#: every cluster, each "lo hi" by float.hex
EDGE_PINS = {
    ('f1', 'y_zero'): ('0x1.36b4ba33fdc01p+1 0x1.36b4ba33fdc08p+1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ('0x0.0p+0 0x1.8306000000000p-57',)),
    ('f2', 'x_zero'): ('0x1.c9f25c5bfedd6p-1 0x1.c9f25c5bfeddep-1', '0x0.0p+0 0x1.0000000000000p-52', ('0x0.0p+0 0x1.0000000000000p-52',)),
    ('f2', 'x_a'): ('0x1.bb11ff6d4c46fp+1 0x1.bb11ff6d4c479p+1', '0x1.760c02923590fp-2 0x1.760c029235913p-2', ('0x1.760c02923590fp-2 0x1.760c029235913p-2',)),
    ('f2', 'y_zero'): ('0x1.1e45e5b566634p+1 0x1.1e45e5b56663cp+1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ('0x0.0p+0 0x1.427f490000000p-61', '0x1.32277ade13b34p-4 0x1.32277ade13b42p-4')),
    ('f2', 'curve_low'): ('0x1.36524930f512dp+0 0x1.36524930f513bp+0', '0x1.31f350c15254ap-2 0x1.31f350c15254dp-2', ('0x1.31f350c15254ap-2 0x1.31f350c15254dp-2',)),
    ('f2', 'curve_high'): ('0x1.ae1de73f00b3fp+1 0x1.ae1de73f00b4ap+1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f3', 'x_zero'): ('0x1.20c2479a9fdf7p+0 0x1.20c2479a9fdfdp+0', '0x1.0000000000000p-1 0x1.0000000000000p-1', ('0x0.0p+0 0x1.c000000000000p-97',)),
    ('f3', 'x_a'): ('0x1.3f9006357f063p+2 0x1.3f9006357f06fp+2', '0x1.5af03601bae0dp-2 0x1.5af03601bae13p-2', ('0x1.5af03601bae0dp-2 0x1.5af03601bae13p-2',)),
    ('f3', 'y_zero'): ('0x1.ae2865038f534p+1 0x1.ae2865038f544p+1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f3', 'curve_low'): ('0x1.bfb620df0c1b1p+0 0x1.bfb620df0c1c5p+0', '0x1.26ddd4cbb73dep-2 0x1.26ddd4cbb73e2p-2', ('0x1.26ddd4cbb73dep-2 0x1.26ddd4cbb73e2p-2',)),
    ('f3', 'curve_high'): ('0x1.21b8cffd266adp+2 0x1.21b8cffd266b7p+2', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f4', 'x_zero'): ('0x1.c9f25c5bfedd6p-1 0x1.c9f25c5bfeddep-1', '0x0.0p+0 0x1.0000000000000p-52', ('0x0.0p+0 0x1.0000000000000p-52',)),
    ('f4', 'x_a'): ('0x1.23a31cdbe8f24p+0 0x1.23a31cdbe8f30p+0', '0x1.4ee9130b0bd5ep-2 0x1.4ee9130b0bd63p-2', ('0x1.4ee9130b0bd5ep-2 0x1.4ee9130b0bd63p-2',)),
    ('f4', 'y_zero'): ('0x1.c9f25c5bfedd6p-1 0x1.c9f25c5bfeddfp-1', '0x0.0p+0 0x1.8746940000000p-54', ('0x0.0p+0 0x1.8746940000000p-54',)),
    ('f4', 'curve_low'): ('0x1.6b31cdb559992p-1 0x1.6b31cdb5599a3p-1', '0x1.025d9aab2abedp-2 0x1.025d9aab2abf2p-2', ('0x1.025d9aab2abedp-2 0x1.025d9aab2abf2p-2',)),
    ('f4', 'curve_high'): ('0x1.f02125391c328p-1 0x1.f02125391c340p-1', '0x1.6e1fcc74b3c41p-1 0x1.6e1fcc74b3c45p-1', ('0x1.6e1fcc74b3c41p-1 0x1.6e1fcc74b3c45p-1',)),
    ('f5', 'x_zero'): ('0x1.20c2479a9fdf7p+0 0x1.20c2479a9fdfdp+0', '0x1.0000000000000p-1 0x1.0000000000000p-1', ('0x0.0p+0 0x1.c000000000000p-97',)),
    ('f5', 'x_a'): ('0x1.d1ce1109fb789p+0 0x1.d1ce1109fb79ep+0', '0x1.33b7d4b0181a6p-2 0x1.33b7d4b0181acp-2', ('0x1.33b7d4b0181a6p-2 0x1.33b7d4b0181acp-2',)),
    ('f5', 'y_zero'): ('0x1.5fead8a2c08fbp+0 0x1.5fead8a2c0911p+0', '0x1.55ad34f27ac3cp-1 0x1.55ad34f27ac43p-1', ('0x1.55ad34f27ac3cp-1 0x1.55ad34f27ac43p-1',)),
    ('f5', 'curve_low'): ('0x1.514dcbeb9b73cp+0 0x1.514dcbeb9b749p+0', '0x1.fb7e3b09b85d1p-3 0x1.fb7e3b09b85dep-3', ('0x1.fb7e3b09b85d1p-3 0x1.fb7e3b09b85dep-3',)),
    ('f5', 'curve_high'): ('0x1.66e8de5c74abdp+0 0x1.66e8de5c74ac9p+0', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f6', 'x_zero'): ('0x1.ffffffffffffep-1 0x1.0000000000002p+0', '0x1.0000000000000p-1 0x1.0000000000000p-1', ('0x0.0p+0 0x1.8000000000000p-54',)),
    ('f6', 'x_a'): ('0x1.3ba49eef274d5p+0 0x1.3ba49eef274ebp+0', '0x1.08cbbeae6c5ddp-2 0x1.08cbbeae6c5ecp-2', ('0x0.0p+0 0x1.389a400000000p-53', '0x1.08cbbeae6c5ddp-2 0x1.08cbbeae6c5ecp-2')),
    ('f6', 'y_zero'): ('0x1.3192aed4d56fcp+0 0x1.3192aed4d5708p+0', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f6', 'curve_low'): ('0x1.47ca4dd107668p+0 0x1.47ca4dd10766fp+0', '0x1.1fd6a644a82b4p-2 0x1.1fd6a644a82b8p-2', ('0x1.1fd6a644a82b4p-2 0x1.1fd6a644a82b8p-2',)),
    ('f6', 'curve_high'): ('0x1.369576d89f334p+0 0x1.369576d89f337p+0', '0x1.3f32c36c7d523p-2 0x1.3f32c36c7d524p-2', ()),
    ('f7', 'x_zero'): ('0x1.fffffffffffffp-2 0x1.0000000000001p-1', '0x1.0000000000000p-1 0x1.0000000000000p-1', ()),
    ('f7', 'x_a'): ('0x1.5324a45452564p-1 0x1.5324a45452567p-1', '0x1.8c047894fb827p-2 0x1.8c047894fb828p-2', ()),
    ('f7', 'y_zero'): ('0x1.1a44d013a92a0p-2 0x1.1a44d013a92a5p-2', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ('0x0.0p+0 0x1.8000000000000p-53',)),
    ('f7', 'curve_low'): ('0x1.31bff1a3297c4p-1 0x1.31bff1a3297c6p-1', '0x1.3f32c36c7d523p-2 0x1.3f32c36c7d524p-2', ('0x0.0p+0 0x1.8000000000000p-54',)),
    ('f7', 'curve_high'): ('0x1.5324a45452561p-1 0x1.5324a45452569p-1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f8', 'x_zero'): ('0x1.c9f25c5bfedd6p-2 0x1.c9f25c5bfeddep-2', '0x0.0p+0 0x1.0000000000000p-52', ('0x0.0p+0 0x1.0000000000000p-52',)),
    ('f8', 'x_a'): ('0x1.1a52a2f1697a3p-1 0x1.1a52a2f1697abp-1', '0x1.120a77a3800b6p-2 0x1.120a77a3800bbp-2', ('0x1.120a77a3800b6p-2 0x1.120a77a3800bbp-2',)),
    ('f8', 'y_zero'): ('0x1.c9f25c5bfedd6p-2 0x1.c9f25c5bfeddfp-2', '0x0.0p+0 0x1.e000000000000p-101', ('0x0.0p+0 0x1.e000000000000p-101', '0x1.0d2ca0da15305p-1 0x1.0d2ca0da15317p-1')),
    ('f8', 'curve_low'): ('0x1.1de201e9b52f4p-2 0x1.1de201e9b5300p-2', '0x1.9cbc7f13ea2edp-3 0x1.9cbc7f13ea2f8p-3', ('0x1.9cbc7f13ea2edp-3 0x1.9cbc7f13ea2f8p-3',)),
    ('f8', 'curve_high'): ('0x1.b1c41a214fc2cp-2 0x1.b1c41a214fc3ap-2', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f9', 'x_zero'): ('0x1.83091e6a7f7e3p-2 0x1.83091e6a7f7ecp-2', '0x0.0p+0 0x1.d400000000000p-88', ('0x0.0p+0 0x1.d400000000000p-88',)),
    ('f9', 'x_a'): ('0x1.3a055439bb24ap-1 0x1.3a055439bb256p-1', '0x1.9db78d862f8f9p-3 0x1.9db78d862f907p-3', ('0x1.9db78d862f8f9p-3 0x1.9db78d862f907p-3',)),
    ('f9', 'y_zero'): ('0x1.1b70d858ba940p-1 0x1.1b70d858ba956p-1', '0x1.6055e2af44f95p-1 0x1.6055e2af44f9fp-1', ('0x1.6055e2af44f95p-1 0x1.6055e2af44f9fp-1',)),
    ('f9', 'curve_low'): ('0x1.5a9a1a18398a4p-2 0x1.5a9a1a18398aep-2', '0x1.5823682dcecd7p-3 0x1.5823682dcece2p-3', ('0x1.5823682dcecd7p-3 0x1.5823682dcece2p-3',)),
    ('f9', 'curve_high'): ('0x1.74b655d1d6519p-2 0x1.74b655d1d6526p-2', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
}


@pytest.mark.parametrize("name, edge", sorted(EDGE_PINS))
def test_edge_analyses_are_pinned(name, edge):
    an = analyze_edge(ObjectiveId(name), EdgeId(edge), CFG.max_boxes)
    hexes = [" ".join((iv.lo.hex(), iv.hi.hex())) for iv in (an.value, an.argmax, *an.clusters)]
    assert an.conclusive
    assert (hexes[0], hexes[1], tuple(hexes[2:])) == EDGE_PINS[name, edge]


@pytest.mark.parametrize("n", [500, 200, 123, 11, 10, 7, 2, 1])
def test_grid_maximum_matches_the_full_grid_bit_for_bit(n):
    # 123, 11, 7, 2 and 1 are not multiples of the sub-block size; below it, one sub-block holds the grid
    want = [full_grid_maximum(oid, n).hex() for oid in ObjectiveId]
    assert [grid_maximum(oid, n).hex() for oid in ObjectiveId] == want
    # one sweep for all nine objectives, in any order
    assert [g.hex() for g in grid_maximum(tuple(ObjectiveId), n)] == want
    reverse = tuple(reversed(ObjectiveId))
    assert [g.hex() for g in grid_maximum(reverse, n)] == want[::-1]


def test_grid_sub_block_bounds_hold_and_their_values_are_the_full_grids():
    # 123 is not a multiple of the sub-block size, so the last row and column of sub-blocks are partial
    n, size = 123, optimize.GRID_BLOCK
    for oid, (bound, values) in zip(ObjectiveId, optimize._grid_blocks(tuple(ObjectiveId), n)):
        full = full_grid_values(oid, n)
        blocks = len(range(0, n, size))
        got = values(np.arange(blocks * blocks)).reshape(blocks, blocks, size, size)
        for i, j in np.ndindex(blocks, blocks):
            want = full[i * size:(i + 1) * size, j * size:(j + 1) * size]
            assert bound[i, j] >= want.max(), (oid, i, j)
            # a partial sub-block repeats its last row and column
            rows = np.minimum(np.arange(i * size, (i + 1) * size), n - 1)
            cols = np.minimum(np.arange(j * size, (j + 1) * size), n - 1)
            assert np.array_equal(got[i, j], full[np.ix_(rows, cols)]), (oid, i, j)


def test_the_grid_sweep_evaluates_every_sub_block_above_the_maximum_and_few_others(monkeypatch):
    bounds, evaluated = [], []
    blocks = optimize._grid_blocks

    def recorded(oids, n):
        for bound, values in blocks(oids, n):
            bounds.append(bound.copy())
            evaluated.append(set())
            yield bound, lambda cells, seen=evaluated[-1], values=values: seen.update(cells.tolist()) or values(cells)
    monkeypatch.setattr(optimize, "_grid_blocks", recorded)
    maxima = grid_maximum(tuple(ObjectiveId))
    for bound, seen, best in zip(bounds, evaluated, maxima):
        # a sub-block whose bound lies above the maximum lay above every running maximum
        assert set(np.flatnonzero(bound.ravel() > best).tolist()) <= seen
    # 805 of the 22,500 sub-blocks of the nine objectives at n = 500; a sweep of every point took them all
    assert sum(map(len, evaluated)) < 1000


def test_the_grid_bound_refuses_a_negative_coefficient(monkeypatch):
    f2 = OBJECTIVES[ObjectiveId.F2]
    monkeypatch.setitem(OBJECTIVES, ObjectiveId.F2, replace(f2, poly={**f2.poly, (1, 1): Fraction(-6)}))
    with pytest.raises(ValueError, match="non-negative"):
        grid_maximum(ObjectiveId.F2)
    negative_mult = MixedPoly(inv_sqrt5=(Fraction(-2),))
    monkeypatch.setitem(OBJECTIVES, ObjectiveId.F2, replace(f2, mult=negative_mult))
    with pytest.raises(ValueError, match="non-negative"):
        grid_maximum(ObjectiveId.F2)


def test_the_grid_bound_refuses_a_y_power_above_2(monkeypatch):
    f3 = OBJECTIVES[ObjectiveId.F3]
    monkeypatch.setitem(OBJECTIVES, ObjectiveId.F3, replace(f3, poly={**f3.poly, (0, 3): Fraction(1)}))
    with pytest.raises(ValueError, match="y-powers at most 2"):
        grid_maximum(ObjectiveId.F3)


#: the grid maxima of f1-f9 by float.hex, at n = 500 (the suite's), 120 and 37
GRID_PINS = {
    500: (
        "0x1.36b4ba33fdc05p+1", "0x1.bb11e31f92599p+1", "0x1.3f9002f276f2ep+2",
        "0x1.2c9177bf89a3ep+0", "0x1.d29ade9374bdep+0", "0x1.47ca47daea39bp+0",
        "0x1.5324a45452566p-1", "0x1.1a529dfd684ddp-1", "0x1.3a054f288617ep-1",
    ),
    120: (
        "0x1.36b4ba33fdc05p+1", "0x1.bb0efc65b65dcp+1", "0x1.3f8f754d6a129p+2",
        "0x1.2c90af686016ap+0", "0x1.d2990c010b882p+0", "0x1.47ca2db1a85aep+0",
        "0x1.5324a45452566p-1", "0x1.1a5231c42b138p-1", "0x1.3a0541b01dd96p-1",
    ),
    37: (
        "0x1.36b4ba33fdc05p+1", "0x1.bb11ff023edb6p+1", "0x1.3f79faf784e36p+2",
        "0x1.2c8d6f653c126p+0", "0x1.d29528deb6f50p+0", "0x1.47750b95c07c1p+0",
        "0x1.5324a45452566p-1", "0x1.1a5252541a1d6p-1", "0x1.3a04213284880p-1",
    ),
}


@pytest.mark.parametrize("n", sorted(GRID_PINS))
def test_grid_maxima_are_pinned(n):
    assert tuple(g.hex() for g in grid_maximum(tuple(ObjectiveId), n)) == GRID_PINS[n]


def test_grid_sweep_builds_no_whole_grid_temporary():
    # a 500x500 float array alone is 2 MB; a batch of the sweep makes arrays of 51 KB
    grid_maximum(tuple(ObjectiveId))
    tracemalloc.start()
    try:
        grid_maximum(tuple(ObjectiveId))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 900 * 1024, peak


TWO_D = [oid for oid in ObjectiveId if oid is not ObjectiveId.F1]


#: box ceilings at 1e-11, about 10% above the counts of the Baumann-centred
#: mean-value forms with both settles (26, 30, 116, 146, 128, 5, 44, 58) and
#: below those of the midpoint-centred ones (215, 222, 623, 838, 362, 44, 174,
#: 209).  The counts include Krawczyk steps and face-search pieces and steps;
#: before f4 and f5 settled their interior maxima on a concave box they took
#: 253 and 359 boxes, and before f2, f3, f6, f8 and f9 settled theirs on a
#: face 73, 81, 173, 87 and 99
MAX_BOXES_AT_1E_11 = dict(zip(TWO_D, (29, 33, 128, 161, 141, 6, 49, 64)))


@pytest.mark.parametrize("oid", TWO_D, ids=lambda oid: oid.value)
def test_maximize_converges_at_1e_11(oid):
    ext = maximize_2d(OBJECTIVES[oid], REGION, BnBConfig(tol_value=1e-11))
    assert ext.converged
    assert ext.value.hi - ext.value.lo <= 1e-11
    assert ext.iterations <= MAX_BOXES_AT_1E_11[oid]


@pytest.mark.parametrize(
    "oid, edge", [(ObjectiveId.F6, EdgeId.CURVE_LOW), (ObjectiveId.F7, EdgeId.X_A)]
)
def test_maximum_on_the_curve_meets_its_edge_enclosure(oid, edge):
    ext = maximize_2d(OBJECTIVES[oid], REGION, BnBConfig(tol_value=1e-11))
    assert ext.value.intersects(analyze_edge(oid, edge, CFG.max_boxes).value)


def test_f6_box_count_at_1e_9():
    # the maximum lies on curve_low, where the chart form bounds the boxes
    ext = maximize_2d(OBJECTIVES[ObjectiveId.F6], REGION, BnBConfig(tol_value=1e-9))
    assert ext.converged and ext.iterations <= 175


def _random_gradient(rng: random.Random) -> Interval:
    """A derivative enclosure that is positive, negative, touches zero or straddles it."""
    a, b = sorted(rng.uniform(-10.0, 10.0) for _ in range(2))
    return rng.choice((Interval(a, b), Interval(abs(a), abs(a) + abs(b)),
                       Interval(-abs(a) - abs(b), -abs(a)), Interval(0.0, abs(b)),
                       Interval(-abs(a), 0.0), Interval(-abs(a), abs(b))))


def test_baumann_centre_lies_in_the_box_and_the_sum_covers_every_offset():
    # the float midpoint of [1, 1 + 3*2**-52] is off-centre (the sum is a tie
    # that rounds up), and lo == hi makes the rounded Baumann quotient land
    # an ulp outside the box for some gradients
    cases = [((1.0, 1.0 + 3 * 2.0**-52), g) for g in
             (Interval(-1.0, 2.0), Interval(-2.0, 1.0), Interval(0.5, 2.0), Interval(-2.0, -0.5))]
    rng = random.Random(41)
    for _ in range(4_000):
        lo = rng.uniform(0.0, 1.0)
        hi = lo + math.ldexp(rng.random(), -rng.randint(0, 56))
        cases.append(((lo, hi), _random_gradient(rng)))
    for (lo1, hi1), g1 in cases:
        (lo2, hi2), g2 = rng.choice(cases)
        centres = []
        excess = optimize._mean_value_upper(
            lambda u, v: centres.append((u, v)) or 0.0, (g1.lo, g1.hi, g2.lo, g2.hi), (lo1, hi1, lo2, hi2)
        )
        [(uc, vc)] = centres
        assert lo1 <= uc <= hi1 and lo2 <= vc <= hi2
        # sup of g*(p - c) is at an end of g and of the box, in exact arithmetic
        worst = sum(
            max(Fraction(d) * (Fraction(p) - Fraction(c)) for d in (g.lo, g.hi) for p in (lo, hi))
            for g, lo, hi, c in ((g1, lo1, hi1, uc), (g2, lo2, hi2, vc))
        )
        assert worst <= Fraction(excess)


#: float rounding of objective_value at one point: a few dozen operations on
#: values below 25, so at most about 1e-14
_VALUE_SLACK = 1e-13


def _curve_boxes(seed: int, count: int):
    """Seeded boxes on a dyadic grid that reach the cap curve (y2 >= c_lo),
    alternately within the low and the high cap branch."""
    rng = random.Random(seed)
    iv_b = CONSTANTS.iv_b
    boxes = []
    while len(boxes) < count:
        high = len(boxes) % 2 == 1
        w = 2.0 ** -rng.randint(4, 10)
        x1 = w * rng.randrange(int(CONSTANTS.iv_a.hi / w))
        x2 = x1 + w
        if x2 > CONSTANTS.iv_a.hi or (x1 < iv_b.lo if high else x2 > iv_b.hi):
            continue
        c_lo = (high_chart if high else low_chart)(x1, x2)[0]
        y2 = cap_sup_up(x1, x2)
        if rng.random() < 0.5:  # a y-split can leave a top between c_lo and the clip
            y2 = c_lo + rng.random() * (y2 - c_lo)
        y1 = max(0.0, y2 - w * rng.choice((0.5, 1.0, 2.0, 4.0)))
        boxes.append(((x1, x2, y1, y2), w))
    return boxes


def _region_points(box, w):
    """Points of box ∩ region: a dyadic grid, plus the curve over grid abscissae."""
    x1, x2, y1, y2 = box
    step = w / 16
    for i in range(17):
        x = x1 + i * step
        top = min(y2, cap_point_down(x))
        if top < y1:
            continue
        yield x, top
        for j in range(math.ceil(y1 / step), math.floor(top / step) + 1):
            yield x, j * step


def _interior_boxes(seed: int, count: int):
    """Seeded boxes on a dyadic grid that stay below the cap curve."""
    rng = random.Random(seed)
    boxes = []
    while len(boxes) < count:
        w = 2.0 ** -rng.randint(3, 10)
        x1 = w * rng.randrange(int(CONSTANTS.iv_a.lo / w))
        y1 = w * rng.randrange(int(0.6 / w))
        x2, y2 = x1 + w, y1 + w * rng.choice((0.5, 1.0, 2.0))
        if y2 < min(cap_point_down(x1), cap_point_down(x2)):
            boxes.append(((x1, x2, y1, y2), w))
    return boxes


def test_xy_bound_covers_the_region_part_of_interior_boxes(monkeypatch):
    forms, centres = [], []
    real = optimize._mean_value_upper

    def spy(f_up, grad, box):
        forms.append((grad, box))
        return real(lambda u, v: centres.append((u, v)) or f_up(u, v), grad, box)

    monkeypatch.setattr(optimize, "_mean_value_upper", spy)
    monkeypatch.setattr(optimize, "_chart_upper", None)  # no box here reaches the curve
    signs = {"one sign": 0, "straddles": 0}
    rising = 0
    for box, w in _interior_boxes(47, 100):
        for oid in TWO_D:
            forms.clear()
            centres.clear()
            offered = []
            ub = optimize._centred_upper(monotone_bounds(oid), REGION, box,
                                         lambda box, face, ub: offered.append((box, face)) or ub)
            assert math.isfinite(ub)  # below the cap the radicand is positive
            [(grad, seen)], [(xc, yc)] = forms, centres
            assert seen == box and box[0] <= xc <= box[1] and box[2] <= yc <= box[3]
            # a box goes to the settle exactly where both gradient components
            # hold zero; none of these reaches x = a, so none goes to a face
            assert offered == ([(box, None)] if grad[0] <= 0.0 <= grad[1] and grad[2] <= 0.0 <= grad[3] else [])
            rising += grad[0] > 0.0 and grad[2] < 0.0 < grad[3]
            for g_lo, g_hi in zip(grad[::2], grad[1::2]):
                signs["straddles" if g_lo < 0.0 < g_hi else "one sign"] += 1
            obj = OBJECTIVES[oid]
            for x, y in _region_points(box, w):
                assert objective_value(obj, x, y) <= ub + _VALUE_SLACK, (oid, box, x, y)
    assert signs["one sign"] >= 500 and signs["straddles"] >= 100, signs
    assert rising >= 20, rising


def test_chart_bound_covers_the_region_part_of_curve_boxes(monkeypatch):
    charts = []
    real = optimize._chart_upper

    def spy(ranges, chart, box, settle=None):
        charts.append(chart)
        return real(ranges, chart, box, settle)

    monkeypatch.setattr(optimize, "_chart_upper", spy)
    finite = {low_chart: 0, high_chart: 0}
    for box, w in _curve_boxes(43, 120):
        for oid in TWO_D:
            charts.clear()
            ub = optimize._centred_upper(monotone_bounds(oid), REGION, box)
            if math.isinf(ub):
                continue  # the radicand reaches zero: no centred form
            assert len(charts) == 1  # every box here reaches the curve
            finite[charts[0]] += 1
            obj = OBJECTIVES[oid]
            for x, y in _region_points(box, w):
                assert objective_value(obj, x, y) <= ub + _VALUE_SLACK, (oid, box, x, y)
    # the high branch is the rim R = 0, so only f7 (no radical) gets a form there
    assert finite[low_chart] >= 200 and finite[high_chart] >= 50


def _face_boxes(seed: int, count: int):
    """Seeded boxes as the branch-and-bound makes them about a face: in turn
    one that reaches x = a below the high cap, one beside it that stops a
    box width short of x = a, and one on curve_low (x2 <= b, y2 above the
    low cap) within a box width of the maximizer of a restriction there."""
    rng = random.Random(seed)
    a_hi, b_lo = CONSTANTS.iv_a.hi, CONSTANTS.iv_b.lo
    peaks = [float.fromhex(EDGE_PINS[oid.value, "curve_low"][1].split()[0]) for oid in TWO_D]
    boxes = []
    while len(boxes) < count:
        kind = len(boxes) % 3
        w = 2.0 ** -rng.randint(3, 10) if kind < 2 else 2.0 ** -rng.randint(6, 12)
        if kind < 2:
            x2 = a_hi - kind * w
            y1 = w * rng.randrange(int(0.35 / w))
            y2 = y1 + w * rng.choice((0.5, 1.0, 2.0))
            if 3.0 * y2 * y2 < 1.0 - x2 * x2:
                boxes.append(((x2 - w, x2, y1, y2), w, EdgeId.X_A))
        else:
            x1 = w * math.floor((rng.choice(peaks) + rng.uniform(-w, w)) / w)
            x2 = x1 + w
            y2 = cap_sup_up(x1, x2)
            if x2 <= b_lo:
                boxes.append(((x1, x2, max(0.0, y2 - w * rng.choice((0.5, 1.0, 2.0))), y2), w, EdgeId.CURVE_LOW))
    return boxes


def _face_forms(box, face, oid, settle, monkeypatch):
    """The mean-value forms that `_centred_upper` builds for a box, and its bound with `settle`."""
    forms = []
    real = optimize._mean_value_upper
    monkeypatch.setattr(optimize, "_mean_value_upper", lambda f_up, grad, b: forms.append((grad, b)) or real(f_up, grad, b))
    ub = optimize._centred_upper(monotone_bounds(oid), REGION, box, settle)
    monkeypatch.undo()
    return forms, ub


def test_only_a_box_on_a_face_where_f_rises_towards_it_goes_to_the_face_search(monkeypatch):
    # f rises towards the face along its normal, and the tangential
    # derivative takes both signs; a box whose normal derivative holds zero,
    # or that does not reach the face, goes to no face search
    seen = {EdgeId.X_A: 0, EdgeId.CURVE_LOW: 0, "normal holds zero": 0, "off the face": 0}
    for box, w, face in _face_boxes(53, 300):
        for oid in TWO_D:
            offered = []
            forms, _ = _face_forms(box, face, oid, lambda b, f, ub: offered.append(f) or ub, monkeypatch)
            if not forms:
                continue  # no form where the radicand reaches zero
            [(grad, form_box)] = forms
            if face is EdgeId.X_A:
                # (f_x, f_y) over the box
                normal, tangent, on_face = grad[:2], grad[2:], box[1] >= CONSTANTS.iv_a.hi
            else:
                # (g_x, g_s) over the chart box (x1, x2, s1, s2); on the face where s2 = 1
                normal, tangent, on_face = grad[2:], grad[:2], form_box[3] == 1.0
            rises = normal[0] > 0.0 and tangent[0] < 0.0 < tangent[1]
            concave = grad[0] <= 0.0 <= grad[1] and grad[2] <= 0.0 <= grad[3] and face is EdgeId.X_A
            assert offered == ([face] if rises and on_face else [None] if concave else [])
            if offered == [face]:
                seen[face] += 1
            elif normal[0] <= 0.0 <= normal[1]:
                seen["normal holds zero"] += 1
            elif not on_face:
                seen["off the face"] += 1
    assert min(seen.values()) >= 10, seen


def test_the_face_bound_covers_the_region_part_of_face_boxes(monkeypatch):
    settled = {EdgeId.X_A: 0, EdgeId.CURVE_LOW: 0}
    for box, w, face in _face_boxes(59, 900):
        for oid in TWO_D:
            obj = OBJECTIVES[oid]
            found = []

            def settle(b, f, ub):
                if f is None:
                    return ub  # the concave settle
                steps, v = optimize._face_maximum(obj, b, f, 10_000)
                found.append(v)
                return ub if v is None else v.hi

            _, ub = _face_forms(box, face, oid, settle, monkeypatch)
            if found in ([], [None]):
                continue
            settled[face] += 1
            for x, y in _region_points(box, w):
                # a point of the region: x = a itself is no float
                x = min(x, CONSTANTS.iv_a.lo)
                assert objective_value(obj, x, min(y, cap_point_down(x))) <= ub + _VALUE_SLACK, (oid, box, x, y)
    assert min(settled.values()) >= 20, settled


def test_the_face_bound_is_the_piece_analysis_of_its_segment():
    # f2's x = a maximizer lies at t = 0.365, inside [0.36, 0.37]
    obj, box = OBJECTIVES[ObjectiveId.F2], (A - 1e-3, CONSTANTS.iv_a.hi, 0.36, 0.37)
    an = optimize.analyze_form(obj.restriction(EdgeId.X_A), (Interval.point(0.36), Interval.point(0.37)),
                               EdgeId.X_A, 10_000)
    assert an.conclusive and an.value.intersects(analyze_edge(ObjectiveId.F2, EdgeId.X_A, 10_000).value)
    assert optimize._face_maximum(obj, box, EdgeId.X_A, 10_000) == (an.iterations, an.value)
    # the least budget that suffices, and one less: the search spends it all and bounds nothing
    assert optimize._face_maximum(obj, box, EdgeId.X_A, an.iterations) == (an.iterations, an.value)
    assert optimize._face_maximum(obj, box, EdgeId.X_A, an.iterations - 1) == (an.iterations - 1, None)
    # a segment that leaves the piece is not searched
    assert optimize._face_maximum(obj, box[:3] + (D + 1e-3,), EdgeId.X_A, 10_000) == (0, None)


# ---------------------------------------------------------------------------
# interior critical points
# ---------------------------------------------------------------------------


def test_critical_f3_empty():
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F3], REGION, CFG)
    assert cs.points == []
    assert cs.certified


def test_critical_f2_empty_with_corner_artifact():
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F2], REGION, CFG)
    assert cs.points == []
    assert cs.certified
    [(bx, by)] = cs.boundary_zeros
    assert contains(bx, 0.0) and contains(by, 0.0)


@pytest.mark.parametrize("oid", list(ObjectiveId)[1:], ids=lambda v: v.value)
def test_corner_zero_is_a_proven_box_that_holds_the_origin(oid):
    obj = OBJECTIVES[oid]
    cs = interior_critical_points(obj, REGION, CFG)
    # f2, f4 and f8 are stationary at (0, 0): their P has no x or y term and M
    # no linear term, so grad f(0, 0) = (P_x + m5l/sqrt5, P_y) vanishes
    assert obj.stationary_at_origin() == (oid in (ObjectiveId.F2, ObjectiveId.F4, ObjectiveId.F8))
    assert len(cs.boundary_zeros) == obj.stationary_at_origin()
    for box in cs.boundary_zeros:
        assert all(b.lo < 0.0 < b.hi and b.width <= 1e-14 for b in box)
        # the retest that crossed x = 0 and y = 0 proves the box
        flat = _flat(box)
        assert optimize._inside(optimize._krawczyk(obj, flat), flat)


def test_critical_f6_isolates_the_known_zero():
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F6], REGION, CFG)
    assert len(cs.points) == 1 and cs.certified
    cp = cs.points[0]
    assert cp.certified
    bx, by = cp.certified_box
    # the zero is (sqrt(11/30), sqrt(281/1800)) and the value there 1079/900,
    # checked in exact arithmetic on the float endpoints (all positive)
    assert Fraction(bx.lo) ** 2 <= Fraction(11, 30) <= Fraction(bx.hi) ** 2
    assert Fraction(by.lo) ** 2 <= Fraction(281, 1800) <= Fraction(by.hi) ** 2
    assert Fraction(cp.value.lo) <= Fraction(1079, 900) <= Fraction(cp.value.hi)


#: the Hankel objective's interior zero (sqrt(11/30), sqrt(281/2)/30)
_F6_ZERO = (math.sqrt(11.0 / 30.0), math.sqrt(281.0 / 2.0) / 30.0)


def _offset_box(dx: float, dy: float, w: float = 1e-5) -> tuple[float, float, float, float]:
    x, y = _F6_ZERO[0] + dx, _F6_ZERO[1] + dy
    return x, x + w, y, y + w


def _found_proven(monkeypatch, *proven):
    """Make the search leave exactly these (piece, proven box) pairs."""
    monkeypatch.setattr(optimize, "_isolate", lambda *args: (list(proven), [], 0))


def _iv_box(box: tuple[float, float, float, float]) -> tuple[Interval, Interval]:
    return Interval(box[0], box[1]), Interval(box[2], box[3])


def _flat(box: tuple[Interval, Interval]) -> tuple[float, float, float, float]:
    return box[0].lo, box[0].hi, box[1].lo, box[1].hi


@pytest.mark.parametrize("near_first", [True, False])
def test_overlapping_proven_boxes_give_one_point(near_first, monkeypatch):
    obj = OBJECTIVES[ObjectiveId.F6]
    [cp] = interior_critical_points(obj, REGION, CFG).points
    # a second proven box about the zero, 2e-6 wide, that overlaps the first
    wide = _offset_box(-1e-6, -1e-6, w=2e-6)
    assert optimize._inside(optimize._krawczyk(obj, wide), wide)
    pairs = [(_flat(cp.cluster), _flat(cp.certified_box)), (wide, wide)]
    _found_proven(monkeypatch, *(pairs if near_first else pairs[::-1]))
    cs = interior_critical_points(obj, REGION, CFG)
    assert cs.certified and cs.boundary_zeros == []
    [merged] = cs.points
    # the hull is proven, so the one zero lies in both boxes
    assert merged.certified_box == cp.certified_box
    assert all(c.lo <= min(a.lo, b.lo) and max(a.hi, b.hi) <= c.hi
               for c, a, b in zip(merged.cluster, cp.cluster, _iv_box(wide)))


def test_overlapping_proven_boxes_without_a_hull_proof_stay_uncertified(monkeypatch):
    # two overlapping boxes about f6's zero whose hull, 0.04 wide, is too large
    # for the Krawczyk test (it holds up to half-width about 1e-3)
    near = _offset_box(-0.02, -0.02, w=0.03)
    far = _offset_box(-0.01, -0.01, w=0.03)
    _found_proven(monkeypatch, (near, near), (far, far))
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F6], REGION, CFG)
    assert not cs.certified
    [cp] = cs.points
    assert not cp.certified
    assert cp.cluster == _iv_box(optimize._hull(near, far))


def _krawczyk_step(obj):
    return lambda box: optimize._krawczyk(obj, box)


def test_contraction_excludes_a_box_near_a_zero_that_holds_none():
    # 1e-4 from f6's zero and 2e-6 wide: K(B) lies about the zero, so K(B) ∩ B is empty
    box = x1, x2, y1, y2 = _offset_box(1e-4, 1e-4, w=2e-6)
    step = _krawczyk_step(OBJECTIVES[ObjectiveId.F6])
    image = step(box)
    assert image[1] < x1 or image[3] < y1
    assert optimize._contract(step, box, box, 0.0) == (None, False, 1)


def test_krawczyk_gives_no_step_on_a_box_that_reaches_the_rim():
    # R = 0 on the high cap: the box holds rim points, its midpoint does not
    x1 = 0.6
    box = (x1, x1 + 1e-3, cap_point_down(x1) - 1e-3, cap_point_down(x1))
    assert optimize._krawczyk(OBJECTIVES[ObjectiveId.F5], box) is None


def test_krawczyk_raises_on_a_nan_in_the_hessian(monkeypatch):
    # a fault in the evaluator is not a box without a step
    oid = ObjectiveId.F6
    prep = objectives._prepared(oid)
    broken = replace(prep, pxx=((0, 0, math.nan, math.nan),) + prep.pxx)
    monkeypatch.setattr(objectives, "_prepared", lambda o: broken if o is oid else prep)
    with pytest.raises(ValueError, match="NaN"):
        optimize._krawczyk(OBJECTIVES[oid], _offset_box(0.0, 0.0))


def test_a_nan_hessian_entry_raises_in_the_critical_search(monkeypatch):
    # the search runs on plain floats, so the check `Interval` made on every
    # result must still meet the Hessian before it decides anything
    pxx = objectives._prepared(ObjectiveId.F6).pxx
    real = objectives._terms_pair
    monkeypatch.setattr(objectives, "_terms_pair",
                        lambda terms, xp, yp: (math.nan, math.nan) if terms is pxx else real(terms, xp, yp))
    with pytest.raises(ValueError, match="NaN"):
        interior_critical_points(OBJECTIVES[ObjectiveId.F6], REGION, CFG)


def test_a_nan_edge_enclosure_raises_in_the_edge_analysis(monkeypatch):
    # NaN from the scaled derivative (label "f6|curve_low'") only, not from the
    # form itself: a NaN exclusion test on plain floats would drop every piece
    # with no error, and the candidate values would not see it
    real = objectives.RadicalForm1D._value_pair
    monkeypatch.setattr(objectives.RadicalForm1D, "_value_pair", lambda self, lo, hi, sq=None: (
        (math.nan, math.nan) if self.label.endswith("'") else real(self, lo, hi, sq)))
    with pytest.raises(ValueError, match="NaN"):
        analyze_edge(ObjectiveId.F6, EdgeId.CURVE_LOW, CFG.max_boxes)


def _intervals_built(monkeypatch, run):
    """run(), after one call that builds the lazy caches, and the count of `Interval`s the second call builds."""
    run()
    built = []
    init = Interval.__init__
    monkeypatch.setattr(Interval, "__init__", lambda self, lo, hi: built.append(1) or init(self, lo, hi))
    return run(), len(built)


def test_the_zero_searches_build_an_interval_only_for_their_records(monkeypatch):
    # the searches run on float boxes: f6's critical search builds only its
    # point's cluster, certified box and value, where it once built 3,385
    cs, n = _intervals_built(monkeypatch, lambda: interior_critical_points(OBJECTIVES[ObjectiveId.F6], REGION, CFG))
    assert len(cs.points) == 1 and not cs.boundary_zeros and n == 2 + 2 + 1
    # the edge analysis builds its clusters, a value per candidate (the two
    # ends and each cluster), its value and its argmax, where it once built 71
    an, n = _intervals_built(monkeypatch, lambda: analyze_edge(ObjectiveId.F6, EdgeId.CURVE_LOW, CFG.max_boxes))
    assert len(an.clusters) == 1 and n == len(an.clusters) + (2 + len(an.clusters)) + 2


@pytest.mark.parametrize("oid", [ObjectiveId.F4, ObjectiveId.F5, ObjectiveId.F6])
def test_certified_boxes_are_contracted_to_rounding_level(oid):
    cs = interior_critical_points(OBJECTIVES[oid], REGION, CFG)
    [cp] = cs.points
    bx, by = cp.certified_box
    assert bx.width <= 1e-14 and by.width <= 1e-14
    assert all(c.lo <= b.lo and b.hi <= c.hi for c, b in zip(cp.cluster, (bx, by)))
    assert cp.value.width <= 1e-13


def test_unsettled_leaf_gives_an_uncertified_point(monkeypatch):
    # with no Krawczyk step the boxes about f6's zero, where the radicand is
    # positive, are split down to CLUSTER_WIDTH and settled by nothing
    monkeypatch.setattr(optimize, "_krawczyk", lambda obj, box: None)
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F6], REGION, CFG)
    assert not cs.certified and cs.rim_boxes == [] and cs.boundary_zeros == []
    assert cs.points and not any(cp.certified for cp in cs.points)
    ranges = monotone_bounds(ObjectiveId.F6)
    for cp in cs.points:
        bx, by = cp.cluster
        assert max(bx.width, by.width) <= optimize.CLUSTER_WIDTH
        assert ranges.scaled_gradient_range(bx.lo, bx.hi, by.lo, by.hi)[4] > 0.0
    assert any(contains(cp.cluster[0], _F6_ZERO[0]) and contains(cp.cluster[1], _F6_ZERO[1])
               for cp in cs.points)


def test_unsettled_leaf_makes_the_row_inconclusive(monkeypatch):
    ctx = SuiteContext()
    monkeypatch.setattr(optimize, "_krawczyk", lambda obj, box: None)
    [row] = run_suite(["THM3_H22"], ctx=ctx)
    assert row.status == "INCONCLUSIVE"
    assert "interior critical-point search not certified" in row.note


@pytest.mark.parametrize("p", [0.35898978923132446, 0.312751645895208, 0.3951089863709937])
def test_krawczyk_radius_encloses_box_minus_centre(p):
    half = 1e-7
    box = Interval(p - half, p + half)
    lo, hi = Fraction(box.lo) - Fraction(p), Fraction(box.hi) - Fraction(p)
    # round-to-nearest endpoints put the box beyond p +- half on both sides
    assert lo < -Fraction(half) and Fraction(half) < hi
    radius = box - Interval.point(p)
    assert Fraction(radius.lo) <= lo and hi <= Fraction(radius.hi)


def test_critical_f4_certified_in_reported_window():
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F4], REGION, CFG)
    assert len(cs.points) == 1 and cs.certified
    bx, by = cs.points[0].certified_box
    assert 0.634 <= bx.lo <= bx.hi < 0.635
    assert 0.358 <= by.lo <= by.hi < 0.359


def test_critical_f5_certified():
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F5], REGION, CFG)
    assert len(cs.points) == 1 and cs.certified
    bx, by = cs.points[0].certified_box
    assert 0.717 <= bx.lo <= bx.hi < 0.718
    assert 0.312 <= by.lo <= by.hi < 0.313


def test_critical_f7_trivially_empty():
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F7], REGION, CFG)
    assert cs.points == [] and cs.certified and not cs.rim_boxes


def test_critical_budget_downgrade():
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F4], REGION, BnBConfig(max_boxes=10))
    assert not cs.certified


def test_krawczyk_steps_count_against_the_budget(monkeypatch):
    obj = OBJECTIVES[ObjectiveId.F6]
    cs = interior_critical_points(obj, REGION, CFG)
    assert cs.certified
    tested = []
    real_search = optimize._isolate

    def counting(root, excluded, *rest):
        return real_search(root, lambda box: tested.append(box) or excluded(box), *rest)

    monkeypatch.setattr(optimize, "_isolate", counting)
    # iterations count the boxes tested and the Krawczyk steps
    assert interior_critical_points(obj, REGION, CFG).iterations == cs.iterations > len(tested)
    # the budget covers boxes and steps: one less leaves the search unsettled
    assert interior_critical_points(obj, REGION, BnBConfig(max_boxes=cs.iterations)).certified
    assert not interior_critical_points(obj, REGION, BnBConfig(max_boxes=cs.iterations - 1)).certified


# Certified boxes of the interior critical points as float.hex of
# (x.lo, x.hi, y.lo, y.hi), and the number of gradient zeros found on the
# boundary, for each 2-D objective.
CRITICAL_POINTS = {
    ObjectiveId.F2: ([], 1),
    ObjectiveId.F3: ([], 0),
    ObjectiveId.F4: ([("0x1.44d5304031245p-1", "0x1.44d5304031254p-1",
                       "0x1.6f9b04f162c8fp-2", "0x1.6f9b04f162c9ep-2")], 1),
    ObjectiveId.F5: ([("0x1.6f696dfa25b81p-1", "0x1.6f696dfa25b99p-1",
                       "0x1.4041f7ab8f72ep-2", "0x1.4041f7ab8f751p-2")], 0),
    ObjectiveId.F6: ([("0x1.36080995d41e6p-1", "0x1.36080995d4224p-1",
                       "0x1.9497733b46c2cp-2", "0x1.9497733b46c7ap-2")], 0),
    ObjectiveId.F7: ([], 0),
    ObjectiveId.F8: ([], 1),
    ObjectiveId.F9: ([], 0),
}


@pytest.mark.parametrize("oid", list(CRITICAL_POINTS))
def test_critical_search_excludes_the_rim_by_gradient_sign(oid):
    cs = interior_critical_points(OBJECTIVES[oid], REGION, CFG)
    assert cs.certified
    assert cs.rim_boxes == []
    boxes = [tuple(e.hex() for iv in p.certified_box for e in (iv.lo, iv.hi)) for p in cs.points]
    assert (boxes, len(cs.boundary_zeros)) == CRITICAL_POINTS[oid]


def _hex_box(box) -> tuple[str, ...]:
    return tuple(e.hex() for iv in box for e in (iv.lo, iv.hi))


#: every critical search at BnBConfig(), by float.hex: (iterations, certified,
#: boundary zeros, rim boxes, points), a box as (x.lo, x.hi, y.lo, y.hi) and a
#: point as (cluster, certified box, value)
CRITICAL_PINS = {
    ObjectiveId.F1: (32, True, [
        ("-0x1.4f33ee6c0885cp-69", "0x1.4f33ee6c0885cp-68", "-0x1.ff395df893e37p-58", "0x1.ff395df893e37p-57"),
    ], [], []),
    ObjectiveId.F2: (81, True, [
        ("-0x1.291bca30de554p-63", "0x1.291bca30de554p-62", "-0x1.4c2d16afb9a1ap-62", "0x1.4c2d16afb9a1ap-61"),
    ], [], []),
    ObjectiveId.F3: (57, True, [], [], []),
    ObjectiveId.F4: (146, True, [
        ("-0x1.3f3a80763d527p-93", "0x1.3f3a80763d527p-92", "-0x1.ed6aa901e608cp-94", "0x1.ed6aa901e608cp-93"),
    ], [], [
        (("0x1.43bae147ae148p-1", "0x1.46b3333333333p-1", "0x1.6a76320f2b4f7p-2", "0x1.713acf07983eap-2"),
         ("0x1.44d5304031245p-1", "0x1.44d5304031254p-1", "0x1.6f9b04f162c8fp-2", "0x1.6f9b04f162c9ep-2"),
         ("0x1.2c918d4e61e3cp+0", "0x1.2c918d4e61e66p+0")),
    ]),
    ObjectiveId.F5: (216, True, [], [], [
        (("0x1.6d4f5c28f5c28p-1", "0x1.7047ae147ae14p-1", "0x1.3b15e74430c52p-2", "0x1.41da843c9db45p-2"),
         ("0x1.6f696dfa25b81p-1", "0x1.6f696dfa25b99p-1", "0x1.4041f7ab8f72ep-2", "0x1.4041f7ab8f751p-2"),
         ("0x1.d29aed74efefdp+0", "0x1.d29aed74eff98p+0")),
    ]),
    ObjectiveId.F6: (498, True, [], [], [
        (("0x1.34e147ae147aep-1", "0x1.365d70a3d70a4p-1", "0x1.9311dfe1b8ea9p-2", "0x1.94c3071fd4266p-2"),
         ("0x1.36080995d41e6p-1", "0x1.36080995d4224p-1", "0x1.9497733b46c2cp-2", "0x1.9497733b46c7ap-2"),
         ("0x1.32ea61d950c10p+0", "0x1.32ea61d950cf8p+0")),
    ]),
    ObjectiveId.F7: (1, True, [], [], []),
    ObjectiveId.F8: (119, True, [
        ("-0x1.c196eab7436e4p-51", "0x1.c196eab7436e4p-50", "-0x1.4f1aaef8e0eb3p-51", "0x1.4f1aaef8e0eb3p-50"),
    ], [], []),
    ObjectiveId.F9: (101, True, [], [], []),
}


@pytest.mark.parametrize("oid", list(CRITICAL_PINS), ids=lambda v: v.value)
def test_critical_searches_are_pinned(oid):
    cs = interior_critical_points(OBJECTIVES[oid], REGION, BnBConfig())
    points = [(_hex_box(p.cluster), p.certified_box and _hex_box(p.certified_box), _hex_box((p.value,)))
              for p in cs.points]
    rims = [tuple(e.hex() for e in box) for box in cs.rim_boxes]
    zeros = [_hex_box(box) for box in cs.boundary_zeros]
    assert (cs.iterations, cs.certified, zeros, rims, points) == CRITICAL_PINS[oid]


#: a point on the rim R = 0 (the high cap), just inside the region
_RIM_POINT = (0.6, cap_point_down(0.6))


class _NoSignAtRim:
    """Monotone bounds whose gradient ranges straddle zero on the rim boxes
    (r_lo <= 0) that hold _RIM_POINT."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def scaled_gradient_range(self, x1, x2, y1, y2):
        g1lo, g1hi, g2lo, g2hi, r_lo, r_hi = self._inner.scaled_gradient_range(x1, x2, y1, y2)
        px, py = _RIM_POINT
        if r_lo <= 0.0 and x1 <= px <= x2 and y1 <= py <= y2:
            g1lo, g1hi, g2lo, g2hi = min(g1lo, -1.0), max(g1hi, 1.0), min(g2lo, -1.0), max(g2hi, 1.0)
        return g1lo, g1hi, g2lo, g2hi, r_lo, r_hi


@pytest.mark.parametrize("oid", [ObjectiveId.F3, ObjectiveId.F5])
def test_unsettled_rim_box_leaves_the_search_uncertified(oid, monkeypatch):
    obj = OBJECTIVES[oid]
    plain = interior_critical_points(obj, REGION, CFG)
    real = optimize.monotone_bounds
    monkeypatch.setattr(optimize, "monotone_bounds", lambda o: _NoSignAtRim(real(o)))
    cs = interior_critical_points(obj, REGION, CFG)
    assert not cs.certified and cs.rim_boxes
    px, py = _RIM_POINT
    for x1, x2, y1, y2 in cs.rim_boxes:
        assert max(x2 - x1, y2 - y1) <= optimize.CLUSTER_WIDTH
        assert x1 <= px <= x2 and y1 <= py <= y2
    assert cs.points == plain.points and cs.boundary_zeros == plain.boundary_zeros


def test_unsettled_rim_box_makes_the_row_inconclusive(monkeypatch):
    ctx = SuiteContext()
    real = optimize.monotone_bounds
    monkeypatch.setattr(optimize, "monotone_bounds", lambda o: _NoSignAtRim(real(o)))
    [row] = run_suite(["THM1_A5"], ctx=ctx)
    assert row.status == "INCONCLUSIVE"
    assert "interior critical-point search not certified" in row.note

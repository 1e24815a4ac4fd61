"""Branch-and-bound, root isolation, uniqueness and critical-point certification."""

import math
import random
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from grunsky_bounds import objectives, optimize
from grunsky_bounds.claims import SuiteContext, analyze_edge
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
    NoBracketError,
    find_root_1d,
    grid_maximum,
    interior_critical_points,
    maximize_1d,
    maximize_2d,
    zero_clusters_1d,
)
from grunsky_bounds.poly import rp_deriv, rp_eval_iv
from grunsky_bounds.report import run_suite
from paper_formulas import (
    full_grid_maximum, objective_value, omega_contains, prove_positive_1d
)

A = CONSTANTS.a_float
D = CONSTANTS.d
B = CONSTANTS.b
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


def test_uniqueness_rejects_three_roots():
    assert len(zero_clusters_1d(_three_roots, -0.05, 0.3)) == 3
    with pytest.raises(NoBracketError, match="single"):
        find_root_1d(_three_roots, -0.05, 0.3)


def test_uniqueness_no_root_at_all():
    with pytest.raises(NoBracketError, match="single"):
        find_root_1d(lambda t: t + Interval.point(5.0), 0.0, 1.0)


def test_find_root_budget_exhausted():
    assert find_root_1d(_three_roots, 0.15, 0.3).contains(0.2)
    with pytest.raises(NoBracketError, match="budget"):
        find_root_1d(_three_roots, 0.15, 0.3, max_boxes=3)


# ---------------------------------------------------------------------------
# zero_clusters_1d, and the bisection of the test helper prove_positive_1d
# ---------------------------------------------------------------------------


def test_zero_clusters_budget_exhausted():
    assert zero_clusters_1d(_three_roots, -0.05, 0.3, max_boxes=3) is None


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
    """fn' of a scaled derivative form: its own scaled derivative over 2*sqrt(S)."""
    def slope(t: Interval):
        s = rp_eval_iv(form.s, t)
        if s.lo <= 0.0:
            return None
        return form.scaled_derivative.value_iv(t) * s.sqrt_clamped().scale(2.0).recip()

    return slope


_EDGE_CASES = [(oid, edge) for oid in ObjectiveId if oid is not ObjectiveId.F1 for edge in EdgeId]


@pytest.mark.parametrize("oid, edge", _EDGE_CASES, ids=lambda v: v.value)
def test_interior_edge_roots_are_newton_proven(oid, edge):
    an = analyze_edge(oid, edge, CFG)
    deriv = OBJECTIVES[oid].restriction(edge).scaled_derivative
    for c in an.interior_clusters():
        assert c.width <= 1e-13, c
        assert _in_newton_proven_box(deriv.value_iv, _form_slope(deriv), c), c
        assert _signs_differ(lambda t: _form_value_50(deriv, t), c), c


def test_interior_edge_root_count():
    # 19 interior roots over the 40 edges of f2..f9: a search that lost one
    # would pass the test above without checking it
    count = sum(len(analyze_edge(oid, edge, CFG).interior_clusters()) for oid, edge in _EDGE_CASES)
    assert count == 19


def test_root_on_a_bisection_midpoint_gives_one_cluster():
    # fn' = 2t - 0.2 changes sign on [0, 1], so the search splits it at 0.5,
    # the root; Newton then presses each half's box against 0.5
    def fn(t: Interval) -> Interval:
        return (t - Interval.point(0.5)) * (t + Interval.point(0.3))

    def slope(t: Interval) -> Interval:
        return t.scale(2.0) - Interval.point(0.2)

    # plain bisection: the two leaves that meet at 0.5 merge
    [c] = zero_clusters_1d(fn, 0.0, 1.0)
    assert c.contains(0.5) and c.width <= 2 * MIN_WIDTH
    # Newton: both halves widen their box across 0.5 and prove it; the two
    # proven boxes overlap, so they hold one zero
    [c] = zero_clusters_1d(fn, 0.0, 1.0, slope=slope)
    assert c.contains(0.5) and c.width <= 1e-13


def test_double_root_falls_back_to_a_min_width_cluster():
    def fn(t: Interval) -> Interval:
        return (t - Interval.point(0.2)) ** 2

    def slope(t: Interval) -> Interval:
        return (t - Interval.point(0.2)).scale(2.0)

    [c] = zero_clusters_1d(fn, 0.0, 1.0, slope=slope)
    assert c.contains(0.2)
    # bisection leaves, not a proven box: fn' vanishes at the root
    assert MIN_WIDTH / 4 <= c.width <= 2 * MIN_WIDTH
    assert not _newton_holds(fn, slope, c)


def test_endpoint_zero_gives_one_cluster():
    # the restriction of f2 to x = 0 is stationary at t = 0, an end of the piece
    an = analyze_edge(ObjectiveId.F2, EdgeId.X_ZERO, CFG)
    [c] = an.clusters
    assert c.contains(0.0) and c.intersects(EDGES[EdgeId.X_ZERO].t_lo)
    assert an.interior_clusters() == []
    # the maximum lies there too, so the edge counts as the corner (0, 0)
    assert an.end == 0


def test_zero_where_the_radicand_vanishes_stays_a_min_width_cluster():
    # f7 on x = a is stationary at the corner (a, d), where S = 0 leaves no slope
    an = analyze_edge(ObjectiveId.F7, EdgeId.X_A, CFG)
    [c] = an.clusters
    assert c.intersects(EDGES[EdgeId.X_A].t_hi) and c.width <= MIN_WIDTH
    assert an.interior_clusters() == []
    # the cluster only meets the end enclosure, and that is enough for the corner
    assert c.lo < EDGES[EdgeId.X_A].t_hi.lo and an.end == 1


@pytest.mark.parametrize("oid, edge, end", [
    (ObjectiveId.F1, EdgeId.X_A, 0),       # the stationary cluster [0, 8e-17] at the corner (a, 0)
    (ObjectiveId.F1, EdgeId.Y_ZERO, 1),
    (ObjectiveId.F2, EdgeId.X_A, None),    # an interior edge root
    (ObjectiveId.F6, EdgeId.CURVE_LOW, None),
])
def test_an_edge_counts_as_a_corner_when_its_maximum_meets_an_end(oid, edge, end):
    an = analyze_edge(oid, edge, CFG)
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

    [c] = zero_clusters_1d(lambda t: t, 0.0, 1.0, slope=one)
    assert c.lo == 0.0 and c.width <= MIN_WIDTH
    with pytest.raises(NoBracketError, match="single"):
        find_root_1d(lambda t: t, 0.0, 1.0, slope=one)


def test_newton_steps_count_against_the_budget():
    def fn(t: Interval) -> Interval:
        return t - Interval.point(0.3)

    def slope(t: Interval) -> Interval:
        return Interval.point(1.0)

    # one piece evaluated, then Newton steps: a budget of one box runs out
    assert zero_clusters_1d(fn, 0.0, 1.0, max_boxes=1, slope=slope) is None
    [c] = zero_clusters_1d(fn, 0.0, 1.0, max_boxes=10, slope=slope)
    assert c.contains(0.3) and _in_newton_proven_box(fn, slope, c)


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
    argmax = analyze_edge(ObjectiveId.F2, EdgeId.X_A, CFG).argmax
    assert argmax.lo < 0.366 and argmax.hi > 0.365


def test_maximize_g5():
    form = OBJECTIVES[ObjectiveId.F4].restriction(EdgeId.CURVE_LOW)
    ext = maximize_1d(form.value_iv, form.lo, form.hi, CFG)
    assert ext.converged
    assert in_window(ext.value, 0.709)
    argmax = analyze_edge(ObjectiveId.F4, EdgeId.CURVE_LOW, CFG).argmax
    assert argmax.lo < 0.253 and argmax.hi > 0.252


@pytest.mark.parametrize("tol", [1e-7, 1e-9, 1e-11])
def test_maximize_f1_with_slope_converges_in_one_box(tol):
    # f1 increases on [a/2, a]: that box is bounded by f1(a), which the
    # incumbent already holds
    ext = maximize_1d(F1_FORM.value_iv, F1_FORM.lo, F1_FORM.hi, BnBConfig(tol_value=tol),
                      slope=F1_FORM.slope_iv)
    assert ext.converged and ext.iterations == 1
    assert ext.value.width <= 1e-14
    assert ext.value.contains(F1_FORM.value_iv(Interval.point(F1_FORM.hi)).mid)


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
#: value.lo is the best point sample: a seed grid point or the top-right
#: corner of a split's lower-left child
BNB_PINS = {
    ("f2", 1e-05): ("0x1.bb11f34820631p+1 0x1.bb12460bdff33p+1", 41),
    ("f3", 1e-05): ("0x1.3f9002d474951p+2 0x1.3f902b0b51176p+2", 46),
    ("f4", 1e-05): ("0x1.2c918cbf4e5f5p+0 0x1.2c9226755e151p+0", 127),
    ("f5", 1e-05): ("0x1.d29ae884d0534p+0 0x1.d29b81f89572fp+0", 167),
    ("f6", 1e-05): ("0x1.47ca4960337d7p+0 0x1.47ca889042f95p+0", 136),
    ("f7", 1e-05): ("0x1.5324a45452562p-1 0x1.5324a45452569p-1", 5),
    ("f8", 1e-05): ("0x1.1a5292af8dfdap-1 0x1.1a53b355d1596p-1", 52),
    ("f9", 1e-05): ("0x1.3a0553e2a6f0bp-1 0x1.3a05a64768910p-1", 60),
    ("f2", 1e-09): ("0x1.bb11ff6d2b39ep+1 0x1.bb11ff6f1b99ep+1", 62),
    ("f3", 1e-09): ("0x1.3f9006356afb4p+2 0x1.3f9006361971ep+2", 70),
    ("f4", 1e-09): ("0x1.2c918d4e3c9b8p+0 0x1.2c918d523386dp+0", 211),
    ("f5", 1e-09): ("0x1.d29aed74d8a78p+0 0x1.d29aed78f18d5p+0", 297),
    ("f6", 1e-09): ("0x1.47ca4dd0ae633p+0 0x1.47ca4dd494e32p+0", 159),
    ("f7", 1e-09): ("0x1.5324a45452562p-1 0x1.5324a45452569p-1", 5),
    ("f8", 1e-09): ("0x1.1a52a2f16420ep-1 0x1.1a52a2f82ee33p-1", 72),
    ("f9", 1e-09): ("0x1.3a05543959b75p-1 0x1.3a05543fbeaccp-1", 86),
}


@pytest.mark.parametrize("name, tol", sorted(BNB_PINS))
def test_maximize_2d_results_are_pinned(name, tol):
    value, iterations = BNB_PINS[name, tol]
    ext = maximize_2d(OBJECTIVES[ObjectiveId(name)], REGION, BnBConfig(tol_value=tol))
    assert " ".join((ext.value.lo.hex(), ext.value.hi.hex())) == value
    assert (ext.iterations, ext.converged) == (iterations, True)


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

    def centred(ranges, region, box):
        ub = real_centred(ranges, region, box)
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


#: the edge analyses of f2-f9 and f1's y_zero analysis: value, argmax and
#: every cluster, each "lo hi" by float.hex
EDGE_PINS = {
    ('f1', 'y_zero'): ('0x1.36b4ba33fdc01p+1 0x1.36b4ba33fdc08p+1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ('0x0.0p+0 0x1.8306000000000p-57',)),
    ('f2', 'x_zero'): ('0x1.c9f25c5bfedd6p-1 0x1.c9f25c5bfeddep-1', '0x0.0p+0 0x1.8000000000000p-79', ('0x0.0p+0 0x1.8000000000000p-79',)),
    ('f2', 'x_a'): ('0x1.bb11ff6d4c46fp+1 0x1.bb11ff6d4c479p+1', '0x1.760c02923590fp-2 0x1.760c029235913p-2', ('0x1.760c02923590fp-2 0x1.760c029235913p-2',)),
    ('f2', 'y_zero'): ('0x1.1e45e5b566634p+1 0x1.1e45e5b56663cp+1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ('0x0.0p+0 0x1.427f490000000p-61', '0x1.32277ade13b34p-4 0x1.32277ade13b42p-4')),
    ('f2', 'curve_low'): ('0x1.36524930f512dp+0 0x1.36524930f513bp+0', '0x1.31f350c15254ap-2 0x1.31f350c15254dp-2', ('0x1.31f350c15254ap-2 0x1.31f350c15254dp-2',)),
    ('f2', 'curve_high'): ('0x1.ae1de73f00b3fp+1 0x1.ae1de73f00b4ap+1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f3', 'x_zero'): ('0x1.20c2479a9fdf7p+0 0x1.20c2479a9fdfdp+0', '0x1.0000000000000p-1 0x1.0000000000000p-1', ('0x0.0p+0 0x1.c000000000000p-97',)),
    ('f3', 'x_a'): ('0x1.3f9006357f063p+2 0x1.3f9006357f06fp+2', '0x1.5af03601bae0dp-2 0x1.5af03601bae13p-2', ('0x1.5af03601bae0dp-2 0x1.5af03601bae13p-2',)),
    ('f3', 'y_zero'): ('0x1.ae2865038f534p+1 0x1.ae2865038f544p+1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f3', 'curve_low'): ('0x1.bfb620df0c1b1p+0 0x1.bfb620df0c1c5p+0', '0x1.26ddd4cbb73dep-2 0x1.26ddd4cbb73e2p-2', ('0x1.26ddd4cbb73dep-2 0x1.26ddd4cbb73e2p-2',)),
    ('f3', 'curve_high'): ('0x1.21b8cffd266adp+2 0x1.21b8cffd266b7p+2', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f4', 'x_zero'): ('0x1.c9f25c5bfedd6p-1 0x1.c9f25c5bfeddep-1', '0x0.0p+0 0x1.8000000000000p-79', ('0x0.0p+0 0x1.8000000000000p-79',)),
    ('f4', 'x_a'): ('0x1.23a31cdbe8f24p+0 0x1.23a31cdbe8f30p+0', '0x1.4ee9130b0bd5ep-2 0x1.4ee9130b0bd63p-2', ('0x1.4ee9130b0bd5ep-2 0x1.4ee9130b0bd63p-2',)),
    ('f4', 'y_zero'): ('0x1.c9f25c5bfedd6p-1 0x1.c9f25c5bfeddfp-1', '0x0.0p+0 0x1.8746940000000p-54', ('0x0.0p+0 0x1.8746940000000p-54',)),
    ('f4', 'curve_low'): ('0x1.6b31cdb559992p-1 0x1.6b31cdb5599a3p-1', '0x1.025d9aab2abedp-2 0x1.025d9aab2abf2p-2', ('0x1.025d9aab2abedp-2 0x1.025d9aab2abf2p-2',)),
    ('f4', 'curve_high'): ('0x1.f02125391c328p-1 0x1.f02125391c340p-1', '0x1.6e1fcc74b3c41p-1 0x1.6e1fcc74b3c45p-1', ('0x1.6e1fcc74b3c41p-1 0x1.6e1fcc74b3c45p-1',)),
    ('f5', 'x_zero'): ('0x1.20c2479a9fdf7p+0 0x1.20c2479a9fdfdp+0', '0x1.0000000000000p-1 0x1.0000000000000p-1', ('0x0.0p+0 0x1.c000000000000p-97',)),
    ('f5', 'x_a'): ('0x1.d1ce1109fb789p+0 0x1.d1ce1109fb79ep+0', '0x1.33b7d4b0181a6p-2 0x1.33b7d4b0181acp-2', ('0x1.33b7d4b0181a6p-2 0x1.33b7d4b0181acp-2',)),
    ('f5', 'y_zero'): ('0x1.5fead8a2c08fbp+0 0x1.5fead8a2c0911p+0', '0x1.55ad34f27ac3cp-1 0x1.55ad34f27ac43p-1', ('0x1.55ad34f27ac3cp-1 0x1.55ad34f27ac43p-1',)),
    ('f5', 'curve_low'): ('0x1.514dcbeb9b73cp+0 0x1.514dcbeb9b749p+0', '0x1.fb7e3b09b85d1p-3 0x1.fb7e3b09b85dep-3', ('0x1.fb7e3b09b85d1p-3 0x1.fb7e3b09b85dep-3',)),
    ('f5', 'curve_high'): ('0x1.66e8de5c74abdp+0 0x1.66e8de5c74ac9p+0', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f6', 'x_zero'): ('0x1.ffffffffffffep-1 0x1.0000000000002p+0', '0x1.0000000000000p-1 0x1.0000000000000p-1', ('0x0.0p+0 0x1.11d2000000000p-55',)),
    ('f6', 'x_a'): ('0x1.3ba49eef274d5p+0 0x1.3ba49eef274ebp+0', '0x1.08cbbeae6c5ddp-2 0x1.08cbbeae6c5ecp-2', ('0x0.0p+0 0x1.389a400000000p-53', '0x1.08cbbeae6c5ddp-2 0x1.08cbbeae6c5ecp-2')),
    ('f6', 'y_zero'): ('0x1.3192aed4d56fcp+0 0x1.3192aed4d5708p+0', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f6', 'curve_low'): ('0x1.47ca4dd107668p+0 0x1.47ca4dd10766fp+0', '0x1.1fd6a644a82b4p-2 0x1.1fd6a644a82b8p-2', ('0x1.1fd6a644a82b4p-2 0x1.1fd6a644a82b8p-2',)),
    ('f6', 'curve_high'): ('0x1.369576d89f334p+0 0x1.369576d89f337p+0', '0x1.3f32c36c7d523p-2 0x1.3f32c36c7d524p-2', ()),
    ('f7', 'x_zero'): ('0x1.fffffffffffffp-2 0x1.0000000000001p-1', '0x1.0000000000000p-1 0x1.0000000000000p-1', ()),
    ('f7', 'x_a'): ('0x1.5324a45452564p-1 0x1.5324a45452567p-1', '0x1.8c0478936f7e0p-2 0x1.8c047894fb828p-2', ('0x1.8c0478936f7e0p-2 0x1.8c047894fb828p-2',)),
    ('f7', 'y_zero'): ('0x1.1a44d013a92a0p-2 0x1.1a44d013a92a5p-2', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ('0x0.0p+0 0x1.c050000000000p-61',)),
    ('f7', 'curve_low'): ('0x1.31bff1a3297c4p-1 0x1.31bff1a3297c6p-1', '0x1.3f32c36b3e1f8p-2 0x1.3f32c36c7d524p-2', ('0x0.0p+0 0x1.4000000000000p-101', '0x1.3f32c36b3e1f8p-2 0x1.3f32c36c7d524p-2')),
    ('f7', 'curve_high'): ('0x1.5324a45452561p-1 0x1.5324a45452569p-1', '0x1.7c28f5c28f5c2p-1 0x1.7c28f5c28f5c3p-1', ()),
    ('f8', 'x_zero'): ('0x1.c9f25c5bfedd6p-2 0x1.c9f25c5bfeddep-2', '0x0.0p+0 0x1.8000000000000p-79', ('0x0.0p+0 0x1.8000000000000p-79',)),
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
    an = analyze_edge(ObjectiveId(name), EdgeId(edge), CFG)
    hexes = [" ".join((iv.lo.hex(), iv.hi.hex())) for iv in (an.value, an.argmax, *an.clusters)]
    assert an.conclusive
    assert (hexes[0], hexes[1], tuple(hexes[2:])) == EDGE_PINS[name, edge]


@pytest.mark.parametrize("n", [500, 200, 123, 7])
def test_grid_maximum_matches_the_full_grid_bit_for_bit(n):
    # 123 and 7 are not multiples of the block size
    want = [full_grid_maximum(oid, n).hex() for oid in ObjectiveId]
    assert [grid_maximum(oid, n).hex() for oid in ObjectiveId] == want
    # one sweep for all nine objectives, in any order
    assert [g.hex() for g in grid_maximum(tuple(ObjectiveId), n)] == want
    reverse = tuple(reversed(ObjectiveId))
    assert [g.hex() for g in grid_maximum(reverse, n)] == want[::-1]


def test_grid_sweep_builds_no_whole_grid_temporary():
    # a 500x500 float array alone is 2 MB; the sweep's block arrays are 100 KB
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
#: mean-value forms (73, 81, 253, 359, 173, 5, 87, 99) and below those of the
#: midpoint-centred ones (215, 222, 623, 838, 362, 44, 174, 209)
MAX_BOXES_AT_1E_11 = dict(zip(TWO_D, (80, 89, 278, 395, 190, 6, 96, 109)))


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
    assert ext.value.intersects(analyze_edge(oid, edge, CFG).value)


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
    for box, w in _interior_boxes(47, 100):
        for oid in TWO_D:
            forms.clear()
            centres.clear()
            ub = optimize._centred_upper(monotone_bounds(oid), REGION, box)
            assert math.isfinite(ub)  # below the cap the radicand is positive
            [(grad, seen)], [(xc, yc)] = forms, centres
            assert seen == box and box[0] <= xc <= box[1] and box[2] <= yc <= box[3]
            for g_lo, g_hi in zip(grad[::2], grad[1::2]):
                signs["straddles" if g_lo < 0.0 < g_hi else "one sign"] += 1
            obj = OBJECTIVES[oid]
            for x, y in _region_points(box, w):
                assert objective_value(obj, x, y) <= ub + _VALUE_SLACK, (oid, box, x, y)
    assert signs["one sign"] >= 500 and signs["straddles"] >= 100, signs


def test_chart_bound_covers_the_region_part_of_curve_boxes(monkeypatch):
    charts = []
    real = optimize._chart_upper

    def spy(ranges, chart, box):
        charts.append(chart)
        return real(ranges, chart, box)

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
    assert bx.contains(0.0) and by.contains(0.0)


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
        assert optimize._inside(optimize._krawczyk(obj, box), box)


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


@pytest.mark.parametrize("near_first", [True, False])
def test_overlapping_proven_boxes_give_one_point(near_first, monkeypatch):
    obj = OBJECTIVES[ObjectiveId.F6]
    [cp] = interior_critical_points(obj, REGION, CFG).points
    # a second proven box about the zero, 2e-6 wide, that overlaps the first
    x1, x2, y1, y2 = _offset_box(-1e-6, -1e-6, w=2e-6)
    wide = _iv_box((x1, x2, y1, y2))
    assert optimize._inside(optimize._krawczyk(obj, wide), wide)
    pairs = [(cp.cluster, cp.certified_box), (wide, wide)]
    _found_proven(monkeypatch, *(pairs if near_first else pairs[::-1]))
    cs = interior_critical_points(obj, REGION, CFG)
    assert cs.certified and cs.boundary_zeros == []
    [merged] = cs.points
    # the hull is proven, so the one zero lies in both boxes
    assert merged.certified_box == cp.certified_box
    assert all(c.lo <= min(a.lo, b.lo) and max(a.hi, b.hi) <= c.hi
               for c, a, b in zip(merged.cluster, cp.cluster, wide))


def test_overlapping_proven_boxes_without_a_hull_proof_stay_uncertified(monkeypatch):
    # two overlapping boxes about f6's zero whose hull, 0.04 wide, is too large
    # for the Krawczyk test (it holds up to half-width about 1e-3)
    near = _iv_box(_offset_box(-0.02, -0.02, w=0.03))
    far = _iv_box(_offset_box(-0.01, -0.01, w=0.03))
    _found_proven(monkeypatch, (near, near), (far, far))
    cs = interior_critical_points(OBJECTIVES[ObjectiveId.F6], REGION, CFG)
    assert not cs.certified
    [cp] = cs.points
    assert not cp.certified
    assert cp.cluster == optimize._hull(near, far)


def _krawczyk_step(obj):
    return lambda box: optimize._krawczyk(obj, box)


def test_contraction_excludes_a_box_near_a_zero_that_holds_none():
    # 1e-4 from f6's zero and 2e-6 wide: K(B) lies about the zero, so K(B) ∩ B is empty
    x1, x2, y1, y2 = _offset_box(1e-4, 1e-4, w=2e-6)
    box = (Interval(x1, x2), Interval(y1, y2))
    step = _krawczyk_step(OBJECTIVES[ObjectiveId.F6])
    image = step(box)
    assert image[0].hi < x1 or image[1].hi < y1
    assert optimize._contract(step, box, box, 0.0) == (None, False, 1)


def test_krawczyk_gives_no_step_on_a_box_that_reaches_the_rim():
    # R = 0 on the high cap: the box holds rim points, its midpoint does not
    x1 = 0.6
    box = (Interval(x1, x1 + 1e-3), Interval(cap_point_down(x1) - 1e-3, cap_point_down(x1)))
    assert optimize._krawczyk(OBJECTIVES[ObjectiveId.F5], box) is None


def test_krawczyk_raises_on_a_nan_in_the_hessian(monkeypatch):
    # a fault in the evaluator is not a box without a step
    oid = ObjectiveId.F6
    prep = objectives._prepared(oid)
    broken = replace(prep, pxx=((0, 0, math.nan, math.nan),) + prep.pxx)
    monkeypatch.setattr(objectives, "_prepared", lambda o: broken if o is oid else prep)
    x1, x2, y1, y2 = _offset_box(0.0, 0.0)
    with pytest.raises(ValueError, match="NaN"):
        optimize._krawczyk(OBJECTIVES[oid], (Interval(x1, x2), Interval(y1, y2)))


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
    assert any(cp.cluster[0].contains(_F6_ZERO[0]) and cp.cluster[1].contains(_F6_ZERO[1])
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
    ctx.extremum(ObjectiveId.F3)  # the branch-and-bound runs on the real bounds
    real = optimize.monotone_bounds
    monkeypatch.setattr(optimize, "monotone_bounds", lambda o: _NoSignAtRim(real(o)))
    [row] = run_suite(["THM1_A5"], ctx=ctx)
    assert row.status == "INCONCLUSIVE"
    assert "interior critical-point search not certified" in row.note

"""Acceptance suite: every reproduced constant at its stated tolerance.

Each criterion prints a single pass/fail line (visible under pytest -s) and
asserts the claim runner outcome plus the headline window directly.  The
shared session context makes the whole file run the underlying maximizations
and oracle passes exactly once.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from grunsky_bounds import claims
from grunsky_bounds.claims import (
    CLAIMS_BY_ID,
    EDGE_CONSTANTS,
    SuiteConfig,
    _grid_gap_bound,
    inside_window,
)
from grunsky_bounds.domain import CONSTANTS, EdgeId
from grunsky_bounds.interval import Interval
from grunsky_bounds.objectives import OBJECTIVES, MonotoneBounds, ObjectiveId
from grunsky_bounds.optimize import grid_maximum
from grunsky_bounds.oracle import PRESETS, check_coefficient_identities, gamma_from_series


def _run(ctx, claim_id: str):
    outcome = CLAIMS_BY_ID[claim_id].runner(ctx)
    line = f"{outcome.status} {claim_id}"
    if outcome.value is not None:
        line += f"  [{outcome.value.lo:.10f}, {outcome.value.hi:.10f}]"
    if outcome.note:
        line += f"  ({outcome.note})"
    print(line)
    return outcome


def test_criterion_01_third_coefficient(suite_ctx):
    out = _run(suite_ctx, "THM1_A3")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F1).value
    assert inside_window(value, "2.427") and value.width <= 1e-12
    assert out.kind == "x_a/y_zero"
    arg_x, arg_y = out.argmax
    assert Fraction(arg_x.lo) <= CONSTANTS.a <= Fraction(arg_x.hi) and arg_y == Interval.point(0.0)


def test_criterion_02_fourth_coefficient(suite_ctx):
    out = _run(suite_ctx, "THM1_A4")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F2).value
    assert inside_window(value, "3.461") and value.width <= 1e-12
    assert out.kind == "x_a"
    roots = suite_ctx.edge(ObjectiveId.F2, EdgeId.X_A).interior_clusters()
    assert len(roots) == 1 and inside_window(roots[0], "0.365")


def test_criterion_03_fifth_coefficient(suite_ctx):
    out = _run(suite_ctx, "THM1_A5")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F3).value
    assert inside_window(value, "4.993") and value.width <= 1e-12
    assert suite_ctx.critical(ObjectiveId.F3).points == []
    roots = suite_ctx.edge(ObjectiveId.F3, EdgeId.X_A).interior_clusters()
    assert len(roots) == 1 and inside_window(roots[0], "0.338")


def test_criterion_04_fourth_third_difference(suite_ctx):
    out = _run(suite_ctx, "THM2_D43")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F4).value
    assert inside_window(value, "1.174") and value.width <= 1e-12
    assert out.kind == "interior"
    bx, by = suite_ctx.critical(ObjectiveId.F4).points[0].certified_box
    assert inside_window(bx, "0.634") and inside_window(by, "0.358")


def test_criterion_05_fifth_fourth_difference(suite_ctx):
    out = _run(suite_ctx, "THM2_D54")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F5).value
    assert inside_window(value, "1.822") and value.width <= 1e-12
    assert out.kind == "interior"
    bx, by = suite_ctx.critical(ObjectiveId.F5).points[0].certified_box
    assert inside_window(bx, "0.717") and inside_window(by, "0.312")


def test_criterion_06_second_hankel(suite_ctx):
    out = _run(suite_ctx, "THM3_H22")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F6).value
    assert inside_window(value, "1.280") and value.width <= 1e-12
    point = suite_ctx.critical(ObjectiveId.F6).points[0]
    assert point.certified
    assert Fraction(point.value.lo) <= Fraction(1079, 900) <= Fraction(point.value.hi)
    g10_b = OBJECTIVES[ObjectiveId.F6].restriction(EdgeId.CURVE_HIGH).value_iv(CONSTANTS.iv_b)
    assert inside_window(g10_b, "1.213")
    assert inside_window(suite_ctx.edge(ObjectiveId.F6, EdgeId.X_A).value, "1.232")


def test_criterion_07_second_log_coefficient(suite_ctx):
    out = _run(suite_ctx, "GAMMA2")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F7).value
    assert inside_window(value, "0.662") and value.width <= 1e-12
    assert out.kind == "x_a/curve_high"


def test_criterion_08_third_log_coefficient(suite_ctx):
    out = _run(suite_ctx, "THM4_GAMMA3")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F8).value
    assert inside_window(value, "0.551") and value.width <= 1e-12
    assert suite_ctx.critical(ObjectiveId.F8).points == []
    assert out.kind == "x_a"
    roots = suite_ctx.edge(ObjectiveId.F8, EdgeId.X_A).interior_clusters()
    assert len(roots) == 1 and inside_window(roots[0], "0.267")


def test_criterion_09_fourth_log_coefficient(suite_ctx):
    out = _run(suite_ctx, "GAMMA4")
    assert out.status == "PASS", out.note
    value = suite_ctx.extremum(ObjectiveId.F9).value
    assert inside_window(value, "0.613") and value.width <= 1e-12


def test_criterion_10_edge_table(suite_ctx):
    out = _run(suite_ctx, "EDGE_TABLE")
    assert out.status == "PASS", out.note
    assert len(EDGE_CONSTANTS) >= 14
    # the one rounded report is explicitly annotated, never silently widened
    assert "g8(a)" in out.note and "rounded" in out.note


def test_edge_table_exact_entry_is_decided_by_containment(suite_ctx, monkeypatch):
    [spec] = [c for c in EDGE_CONSTANTS if c.mode == "exact"]
    iv = spec.evaluate(suite_ctx)
    assert (iv.lo, iv.hi) == (1.3333333333333321, 1.3333333333333346)
    assert Fraction(iv.lo) <= Fraction(4, 3) <= Fraction(iv.hi)
    monkeypatch.setattr(claims, "EDGE_CONSTANTS", (spec,))
    assert _run(suite_ctx, "EDGE_TABLE").status == "PASS"
    # shifted by twice its width the enclosure misses 4/3, though its
    # midpoint stays within 1e-12 of it
    shifted = Interval(iv.lo + 2 * iv.width, iv.hi + 2 * iv.width)
    assert abs(shifted.mid - 4 / 3) <= 1e-12
    monkeypatch.setattr(claims, "EDGE_CONSTANTS", (replace(spec, evaluate=lambda ctx: shifted),))
    out = _run(suite_ctx, "EDGE_TABLE")
    assert out.status == "FAIL" and "misses 4/3" in out.note


def test_criterion_11_identities(suite_ctx):
    out = _run(suite_ctx, "ORACLE_EQ13")
    assert out.status == "PASS", out.note
    for preset in PRESETS:
        assert check_coefficient_identities(PRESETS[preset](16), order=8).max_residual <= 1e-10


def test_criterion_12_inequalities(suite_ctx):
    out = _run(suite_ctx, "ORACLE_INEQ")
    assert out.status == "PASS", out.note
    assert out.value.lo >= -1e-10  # minimum slack across 200 seeded vectors


def test_criterion_13_log_coefficients(suite_ctx):
    out = _run(suite_ctx, "ORACLE_GAMMA")
    assert out.status == "PASS", out.note
    for preset in PRESETS:
        assert gamma_from_series(PRESETS[preset](8)).max_difference <= 1e-12
    koebe = gamma_from_series(PRESETS["koebe"](8))
    for n, g in enumerate(koebe.direct, start=1):
        assert abs(g - 1.0 / n) <= 1e-12


def test_criterion_14_grid_soundness(suite_ctx):
    out = _run(suite_ctx, "PROPERTY_BNB_SOUND")
    assert out.status == "PASS", out.note
    for oid in ObjectiveId:
        value = suite_ctx.extremum(oid).value
        gmax = grid_maximum(oid)
        assert gmax <= value.hi + 1e-12
        assert gmax >= value.lo - suite_ctx.cfg.tol_value


def test_criterion_14_grid_gap_motivates_tolerance(suite_ctx):
    """The 500-point grid genuinely misses the steepest maxima by more than
    1e-6, so no fixed tight slack will do: the lower grid check allows the
    verified gap bound at the grid point nearest `locate`'s argmax instead,
    and that bound covers the measured gap."""
    ext = suite_ctx.extremum(ObjectiveId.F2)
    gap = ext.value.lo - grid_maximum(ObjectiveId.F2)
    assert 1e-6 < gap < suite_ctx.cfg.tol_value
    assert gap <= _grid_gap_bound(ObjectiveId.F2, suite_ctx.locate(ObjectiveId.F2).argmax)


@pytest.mark.parametrize("tol", [None, 1e-9], ids=["default", "1e-9"])
def test_criterion_14_grid_gap_bounds_are_small(tol, suite_ctx):
    """`locate`'s argmax is a few ulps wide, so each gap bound is about the
    grid's own gap: at most 1e-5 for every objective.  Over the
    branch-and-bound's box hull it reached 6.7e-2 for f7."""
    ctx = suite_ctx if tol is None else claims.SuiteContext(SuiteConfig(tol_value=tol))
    for oid in ObjectiveId:
        loc = ctx.locate(oid)
        assert loc.kind is not None and not loc.tied, oid
        assert _grid_gap_bound(oid, loc.argmax) <= 1e-5, oid


def test_criterion_15_curve_identities(suite_ctx):
    out = _run(suite_ctx, "PROPERTY_CURVES")
    assert out.status == "PASS", out.note
    b = CONSTANTS.iv_b.mid
    assert abs(0.5 * (1 + b * b) - math.sqrt((1 - b * b) / 3)) <= 1e-12
    assert abs(1 - 10 * b * b - 3 * b**4) <= 1e-12


def test_full_suite_is_green_and_fast(suite_ctx, monkeypatch):
    from grunsky_bounds.report import all_passed, run_suite

    # point samples of the 2-D maximizer: its best-first search takes a 3 x 3
    # seed grid and box corners, and its certificate only a point of a box
    # left at TOL_BOX
    lower_calls = []
    lower = MonotoneBounds.lower
    monkeypatch.setattr(MonotoneBounds, "lower", lambda *a: lower_calls.append(1) or lower(*a))
    start = time.perf_counter()
    rows = run_suite(cfg=SuiteConfig())
    elapsed = time.perf_counter() - start
    print(f"full suite: {len(rows)} rows in {elapsed:.1f}s")
    assert all_passed(rows)
    assert elapsed <= 60.0
    # every decomposition is settled, so each maximizer certifies it, and no
    # box is left at TOL_BOX.  The best-first search took 423 samples
    assert len(lower_calls) == 0

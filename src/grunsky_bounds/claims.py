"""Registry of reproduced constants and the verification logic behind each.

Every claim row compares a verified enclosure against a published 3-digit
value.  The printed convention is truncation: "v..." means the value lies in
[v, v + 10^-3).  One constant in the source is rounded instead of truncated
(the high-curve restriction of the fifth-coefficient-difference objective at
the right endpoint, printed 1.402 for a true 1.40199...); its window is
widened to the half-ulp rounding window and the row carries a note.

Edge endpoints, (x, y) lifts, edge order and the five corners come from the
table `domain.EDGES`.  Every value row, f1's too, reports what
`SuiteContext.locate` found: the value, where the maximum lies and its
argmax, an edge, a corner named by its two pieces ("x_a/y_zero"), or
"interior".  The 2-D maximizer certifies that no box lies above that value,
but it bounds the boxes on x = a and curve_low by the tops of those edge
analyses, and the boxes about a certified critical point by its f(X*): the
grid check of PROPERTY_BNB_SOUND is the one independent guard of those
values.  The grid check's gap bound takes the argmax too.

One rule sets every row's status, in `_settle`: FAIL if a settled result
refutes the claim, else INCONCLUSIVE if anything the row rests on is
unsettled, else PASS.  Unsettled are a certificate or an edge analysis whose
box budget ran out, a certificate that left a box at TOL_BOX, an uncertified interior critical-point search, an
attribution not separated from its runner-up on a row that names where the
maximum lies (elsewhere a note), and an enclosure that straddles an end of
its window.  A check that reads an unsettled result concludes nothing from
it, and an unsettled decomposition, which locates no maximum, runs no
certificate and reports no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .domain import CAP_PIECES, CONSTANTS, CORNERS, EDGES, REGION, EdgeId
from .interval import Interval
from .objectives import F1_FORM, F2_REDUCED_POLY, OBJECTIVES, ObjectiveId
from .optimize import (
    BnBConfig,
    CriticalSearch,
    EdgeAnalysis,
    Extremum,
    analyze_form,
    grid_maximum,
    grid_point,
    interior_critical_points,
    maximize_1d,
    maximize_2d,
)
from .oracle import (
    PRESETS,
    GammaReport,
    check_coefficient_identities,
    check_inequalities,
    gamma_from_series,
    grunsky_table,
    random_test_vector,
)
from .poly import rp_deriv, rp_eval_iv

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

#: random test vectors of ORACLE_INEQ
INEQUALITY_VECTORS = 200


@dataclass(frozen=True)
class SuiteConfig:
    max_boxes: int = 10_000_000
    seed: int = 0

    def bnb(self) -> BnBConfig:
        return BnBConfig(max_boxes=self.max_boxes)


@dataclass(frozen=True)
class ClaimOutcome:
    status: str
    value: Interval | None = None
    argmax: tuple[Interval, Interval] | None = None
    kind: str | None = None
    note: str = ""


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    description: str
    target: str | None  # published decimal string, e.g. "2.427"
    runner: Callable[["SuiteContext"], ClaimOutcome]


#: one unit in the last printed digit: every constant is published to 3 decimals
PRINTED_ULP = Fraction(1, 1000)


def window(target: str, rounded: bool = False) -> tuple[Fraction, Fraction]:
    """[target, target + 10^-3), or the round-half window [target - 5e-4, target + 5e-4)."""
    v = Fraction(target)
    return (v - PRINTED_ULP / 2, v + PRINTED_ULP / 2) if rounded else (v, v + PRINTED_ULP)


def window_verdict(iv: Interval, target: str, rounded: bool = False) -> str | None:
    """None when the enclosure lies inside the window, "misses" when it lies
    outside it, else "lower" or "upper", the end of the window it straddles."""
    lo, hi = window(target, rounded)
    a, b = Fraction(iv.lo), Fraction(iv.hi)
    if b < lo or a >= hi:
        return "misses"
    return "lower" if a < lo else "upper" if b >= hi else None


def inside_window(iv: Interval, target: str) -> bool:
    """Is the enclosure entirely inside [target, target + 10^-3)?"""
    return window_verdict(iv, target) is None


def _settle(unsettled: Sequence[str] = (), refuted: Sequence[str] = (), info: Sequence[str] = (),
            **fields) -> ClaimOutcome:
    """The one verdict rule: FAIL on a refutation, else INCONCLUSIVE on an
    unsettled result, else PASS.  Refutations come from settled results only.
    The note leads with the refutations, then the unsettled results, then
    the row's residuals and flags."""
    status = FAIL if refuted else INCONCLUSIVE if unsettled else PASS
    return ClaimOutcome(status, note="; ".join([*refuted, *unsettled, *info]), **fields)


# ---------------------------------------------------------------------------
# per-edge analysis
# ---------------------------------------------------------------------------


def analyze_edge(oid: ObjectiveId, edge: EdgeId, max_boxes: int) -> EdgeAnalysis:
    """The maximum of one objective along a whole piece; `analyze_form` is
    read from this module, where tracing wraps it."""
    piece = EDGES[edge]
    return analyze_form(OBJECTIVES[oid].restriction(edge), (piece.t_lo, piece.t_hi), edge, max_boxes)


# ---------------------------------------------------------------------------
# shared computation cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Location:
    """Where the maximum lies by the edge/critical decomposition: on an
    edge, at a corner or at an interior critical point.  `tied` names the
    candidates whose upper bound reaches the winner's lower bound;
    `unsettled` names the analyses the decomposition could not finish.  An
    unsettled decomposition has not located the maximum: `kind` and
    `argmax` are then None, and `value` is only the best candidate's."""

    kind: str | None  # "interior", an EdgeId value, or a corner name such as "x_a/y_zero"
    argmax: tuple[Interval, Interval] | None
    value: Interval
    tied: tuple[str, ...]
    unsettled: tuple[str, ...]


class SuiteContext:
    """Caches the expensive sub-computations shared between claims."""

    def __init__(self, cfg: SuiteConfig | None = None):
        self.cfg = cfg or SuiteConfig()
        self._extrema: dict[ObjectiveId, Extremum] = {}
        self._f1: Extremum | None = None
        self._edges: dict[tuple[ObjectiveId, EdgeId], EdgeAnalysis] = {}
        self._critical: dict[ObjectiveId, CriticalSearch] = {}
        self._locations: dict[ObjectiveId, Location] = {}
        self._tables = {}
        self._gammas: dict[str, GammaReport] = {}
        self._f2_root: Interval | None = None

    # -- maximization layers -------------------------------------------------

    def extremum(self, oid: ObjectiveId) -> Extremum:
        """The 2-D maximizer's certificate of the settled `locate` (see `decomposition`)."""
        if oid not in self._extrema:
            self._extrema[oid] = maximize_2d(OBJECTIVES[oid], REGION, self.cfg.bnb(), **self.decomposition(oid))
            # the certificate was the last reader of the critical search's gradient ranges
            if (cs := self._critical.get(oid)) is not None:
                cs.gradient_ranges.clear()
        return self._extrema[oid]

    def decomposition(self, oid: ObjectiveId) -> dict:
        """The settled `locate` as `maximize_2d` takes it: the value, the
        critical search and the analyses of x = a and curve_low.  An
        unsettled one has located no maximum to certify: ValueError."""
        loc = self.locate(oid)
        if loc.unsettled:
            raise ValueError(f"the maximum of {oid.value} is not located: {'; '.join(loc.unsettled)}")
        return {"located": loc.value, "critical": self.critical(oid),
                "faces": [self.edge(oid, e) for e in (EdgeId.X_A, EdgeId.CURVE_LOW)]}

    def f1_extremum(self) -> Extremum:
        # no row reads f1's 1-D maximum; it stays, with `_f1`, because perfbench reads both
        if self._f1 is None:
            self._f1 = maximize_1d(
                F1_FORM.value_iv, F1_FORM.lo, F1_FORM.hi, self.cfg.bnb(), slope=F1_FORM.slope_iv
            )
        return self._f1

    def edge(self, oid: ObjectiveId, edge: EdgeId) -> EdgeAnalysis:
        key = (oid, edge)
        if key not in self._edges:
            self._edges[key] = analyze_edge(oid, edge, self.cfg.max_boxes)
        return self._edges[key]

    def critical(self, oid: ObjectiveId) -> CriticalSearch:
        if oid not in self._critical:
            self._critical[oid] = interior_critical_points(OBJECTIVES[oid], REGION, self.cfg.bnb())
        return self._critical[oid]

    def locate(self, oid: ObjectiveId) -> Location:
        """Attribute the global maximum to an edge, a corner or an interior
        critical point.  Each corner is evaluated once; an edge whose maximum
        lies at one of its ends is no candidate of its own, and its value
        joins that corner's."""
        if oid in self._locations:
            return self._locations[oid]
        cands: list[tuple[Interval, str, tuple[Interval, Interval]]] = []
        unsettled: list[str] = []
        at_end: dict[tuple[EdgeId, int], Interval] = {}
        for piece in EDGES.values():
            an = self.edge(oid, piece.id)
            if not an.conclusive:
                unsettled.append(f"edge analysis of {oid.value}/{piece.id.value} inconclusive")
            if an.end is None:
                cands.append((an.value, piece.id.value, piece.lift(an.argmax)))
            else:
                at_end[piece.id, an.end] = an.value
        for p, q, box in CORNERS:
            values = [OBJECTIVES[oid].value_iv(*box), *(at_end[e] for e in (p, q) if e in at_end)]
            cands.append((Interval(max(v.lo for v in values), max(v.hi for v in values)),
                          f"{p[0].value}/{q[0].value}", box))
        cs = self.critical(oid)
        if not cs.certified:
            unsettled.append("interior critical-point search not certified")
        for cp in cs.points:
            box = cp.certified_box if cp.certified else cp.cluster
            cands.append((cp.value, "interior", box))
        cands.sort(key=lambda c: c[0].hi, reverse=True)
        value, kind, argmax = cands[0]
        tied = tuple(name for v, name, _ in cands[1:] if v.hi >= value.lo)
        if unsettled:
            kind = argmax = None
        loc = self._locations[oid] = Location(kind, argmax, value, tied, tuple(unsettled))
        return loc

    def f2_reduced_root(self) -> Interval:
        """Root of the reduced f2 stationarity polynomial on [0, 1/6]."""
        if self._f2_root is None:
            # looked up at call time: tracing wraps optimize.find_root_1d
            from .optimize import find_root_1d

            deriv = rp_deriv(F2_REDUCED_POLY)
            self._f2_root = find_root_1d(
                lambda t: rp_eval_iv(F2_REDUCED_POLY, t), 0.0, 1.0 / 6.0, tol=1e-14,
                slope=lambda t: rp_eval_iv(deriv, t),
            )
        return self._f2_root

    # -- oracle layers ---------------------------------------------------------

    def table(self, preset: str, order: int = 8):
        key = (preset, order)
        if key not in self._tables:
            self._tables[key] = grunsky_table(PRESETS[preset](2 * order), order)
        return self._tables[key]

    def gamma(self, preset: str) -> GammaReport:
        if preset not in self._gammas:
            self._gammas[preset] = gamma_from_series(PRESETS[preset](8))
        return self._gammas[preset]


# ---------------------------------------------------------------------------
# claim runners
# ---------------------------------------------------------------------------


def _value_outcome(ctx: SuiteContext, oid: ObjectiveId, target: str, kind: str | None = None,
                   checks: Callable[[], list[str]] | None = None) -> ClaimOutcome:
    """A value row once the decomposition `ctx.locate(oid)` is settled: its
    value against the window, the certificate `ctx.extremum(oid)` that no
    box lies above it, the expected `kind` of the maximum and the row's own
    `checks`.  A tie leaves a row with an expected `kind` unsettled; on any
    other row it is info.  The row reports the located value, `kind` and
    `argmax`; an unsettled decomposition runs no certificate and concludes
    nothing."""
    loc = ctx.locate(oid)
    if loc.unsettled:
        return _settle(loc.unsettled)
    ext = ctx.extremum(oid)
    unsettled: list[str] = []
    refuted: list[str] = []
    info: list[str] = []
    if ext.above is not None:
        refuted.append("a point of box [{:.9g}, {:.9g}] x [{:.9g}, {:.9g}] lies above the located maximum"
                       .format(*ext.above))
    elif not ext.converged:
        unsettled.append("certificate left boxes above the located maximum")
    verdict = window_verdict(loc.value, target)
    if verdict == "misses":
        refuted.append(f"enclosure misses window {target}")
    elif verdict is not None:
        unsettled.append(f"enclosure straddles the {verdict} end of window {target}")
    if loc.tied:
        (info if kind is None else unsettled).append(
            f"maximum on {loc.kind} not separated from {', '.join(loc.tied)}")
    elif kind is not None and loc.kind != kind:
        refuted.append(f"maximum attributed to {loc.kind}, expected {kind}")
    if checks:
        refuted += checks()
    return _settle(unsettled, refuted, info, value=loc.value, argmax=loc.argmax, kind=loc.kind)


def _run_thm1_a3(ctx: SuiteContext) -> ClaimOutcome:
    return _value_outcome(ctx, ObjectiveId.F1, "2.427", kind="x_a/y_zero")


def _edge_maximum(ctx: SuiteContext, oid: ObjectiveId, target: str, root: str,
                  interior_free: bool) -> ClaimOutcome:
    """A maximum on x = a, at the one stationary point of that edge, inside
    [root, root + 1e-3); with `interior_free`, no interior critical point."""

    def checks() -> list[str]:
        points = ctx.critical(oid).points
        refuted = [f"unexpected interior critical points: {len(points)}"] if interior_free and points else []
        clusters = ctx.edge(oid, EdgeId.X_A).interior_clusters()
        if len(clusters) != 1 or not inside_window(clusters[0], root):
            refuted.append(f"expected one edge root in [{root}, {root}+1e-3), found "
                           f"{[(c.lo, c.hi) for c in clusters]}")
        return refuted

    return _value_outcome(ctx, oid, target, kind=EdgeId.X_A.value, checks=checks)


def _run_thm1_a4(ctx: SuiteContext) -> ClaimOutcome:
    return _edge_maximum(ctx, ObjectiveId.F2, "3.461", "0.365", interior_free=False)


def _run_thm1_a5(ctx: SuiteContext) -> ClaimOutcome:
    return _edge_maximum(ctx, ObjectiveId.F3, "4.993", "0.338", interior_free=True)


def _interior_claim(
    ctx: SuiteContext, oid: ObjectiveId, target: str, x_window: str, y_window: str
) -> ClaimOutcome:
    def checks() -> list[str]:
        points = ctx.critical(oid).points
        if len(points) != 1 or not points[0].certified:
            return [f"expected one certified interior critical point, found {len(points)}"]
        bx, by = points[0].certified_box
        return [f"critical {axis} {box.mid:.6f} outside [{w}, {w}+1e-3)"
                for axis, box, w in (("x", bx, x_window), ("y", by, y_window))
                if not inside_window(box, w)]

    return _value_outcome(ctx, oid, target, kind="interior", checks=checks)


def _run_thm2_d43(ctx: SuiteContext) -> ClaimOutcome:
    return _interior_claim(ctx, ObjectiveId.F4, "1.174", "0.634", "0.358")


def _run_thm2_d54(ctx: SuiteContext) -> ClaimOutcome:
    return _interior_claim(ctx, ObjectiveId.F5, "1.822", "0.717", "0.312")


def _run_thm3_h22(ctx: SuiteContext) -> ClaimOutcome:
    f6 = ObjectiveId.F6

    def checks() -> list[str]:
        refuted = []
        points = ctx.critical(f6).points
        certified = [p for p in points if p.certified]
        if len(certified) != 1:
            refuted.append(f"expected one certified interior critical point, found {len(points)}")
        else:
            value = certified[0].value
            if not Fraction(value.lo) <= Fraction(1079, 900) <= Fraction(value.hi):
                refuted.append(f"interior critical value [{value.lo!r}, {value.hi!r}] misses 1079/900")
        g10_at_b = OBJECTIVES[f6].restriction(EdgeId.CURVE_HIGH).value_iv(CONSTANTS.iv_b)
        if not inside_window(g10_at_b, "1.213"):
            refuted.append("high-curve value at the crossover abscissa outside [1.213, 1.213+1e-3)")
        if not inside_window(ctx.edge(f6, EdgeId.X_A).value, "1.232"):
            refuted.append("right-endpoint edge maximum outside [1.232, 1.232+1e-3)")
        return refuted

    return _value_outcome(ctx, f6, "1.280", kind=EdgeId.CURVE_LOW.value, checks=checks)


def _run_gamma2(ctx: SuiteContext) -> ClaimOutcome:
    return _value_outcome(ctx, ObjectiveId.F7, "0.662")


def _run_thm4_gamma3(ctx: SuiteContext) -> ClaimOutcome:
    return _edge_maximum(ctx, ObjectiveId.F8, "0.551", "0.267", interior_free=True)


def _run_gamma4(ctx: SuiteContext) -> ClaimOutcome:
    return _value_outcome(ctx, ObjectiveId.F9, "0.613")


# -- edge-constant table -------------------------------------------------------


@dataclass(frozen=True)
class EdgeConstant:
    label: str
    target: str
    evaluate: Callable[[SuiteContext], Interval]
    mode: str = "truncated"  # or "rounded" / "exact"


def _point_eval(oid: ObjectiveId, edge: EdgeId, at: Callable[[], Interval]):
    return lambda ctx: OBJECTIVES[oid].restriction(edge).value_iv(at())


class BudgetExhausted(Exception):
    """A box budget ran out before an edge-table entry was settled."""


def _conclusive_edge(ctx: SuiteContext, oid: ObjectiveId, edge: EdgeId) -> EdgeAnalysis:
    an = ctx.edge(oid, edge)
    if not an.conclusive:
        raise BudgetExhausted(f"edge analysis of {oid.value}/{edge.value} inconclusive")
    return an


def _edge_max(oid: ObjectiveId, edge: EdgeId):
    return lambda ctx: _conclusive_edge(ctx, oid, edge).value


def _edge_root(oid: ObjectiveId, edge: EdgeId):
    def run(ctx: SuiteContext) -> Interval:
        clusters = _conclusive_edge(ctx, oid, edge).interior_clusters()
        if len(clusters) != 1:
            raise ArithmeticError(f"no isolated edge root for {oid.value}/{edge.value}")
        return clusters[0]

    return run


def _f2_reduced_curve_x(ctx: SuiteContext) -> Interval:
    """x = sqrt(3y^2/(1 - 6y)) over the verified root bracket y, below 1/6."""
    y = ctx.f2_reduced_root()
    return ((y**2).scale(3.0) * (Interval.point(1.0) - y.scale(6.0)).recip()).sqrt_clamped()


def _f6_interior_coord(which: int):
    def run(ctx: SuiteContext) -> Interval:
        cs = ctx.critical(ObjectiveId.F6)
        certified = [p for p in cs.points if p.certified]
        if len(certified) == 1:
            return certified[0].certified_box[which]
        if not cs.certified:
            raise BudgetExhausted("interior critical-point search not certified")
        raise ArithmeticError(f"expected one certified interior critical point, found {len(cs.points)}")

    return run


EDGE_CONSTANTS: tuple[EdgeConstant, ...] = (
    # values quoted along the boundary analyses
    EdgeConstant("f2(0,0)", "0.894", _point_eval(ObjectiveId.F2, EdgeId.X_ZERO, lambda: Interval.point(0.0))),
    EdgeConstant("f2(a,0)", "2.236", _point_eval(ObjectiveId.F2, EdgeId.X_A, lambda: Interval.point(0.0))),
    EdgeConstant("g1 max", "1.212", _edge_max(ObjectiveId.F2, EdgeId.CURVE_LOW)),
    EdgeConstant("g2(a)", "3.360", _point_eval(ObjectiveId.F2, EdgeId.CURVE_HIGH, lambda: CONSTANTS.iv_a)),
    EdgeConstant("f3(0,1/2)", "1.127", _point_eval(ObjectiveId.F3, EdgeId.X_ZERO, lambda: Interval.point(0.5))),
    EdgeConstant("f3(a,0)", "3.360", _point_eval(ObjectiveId.F3, EdgeId.X_A, lambda: Interval.point(0.0))),
    EdgeConstant("g3 max", "1.748", _edge_max(ObjectiveId.F3, EdgeId.CURVE_LOW)),
    EdgeConstant("g4(a)", "4.526", _point_eval(ObjectiveId.F3, EdgeId.CURVE_HIGH, lambda: CONSTANTS.iv_a)),
    EdgeConstant("f4(0,0)", "0.894", _point_eval(ObjectiveId.F4, EdgeId.X_ZERO, lambda: Interval.point(0.0))),
    EdgeConstant("f4(a,.) max", "1.139", _edge_max(ObjectiveId.F4, EdgeId.X_A)),
    EdgeConstant("g5 max", "0.709", _edge_max(ObjectiveId.F4, EdgeId.CURVE_LOW)),
    EdgeConstant("g6 max", "0.969", _edge_max(ObjectiveId.F4, EdgeId.CURVE_HIGH)),
    EdgeConstant("f5(0,1/2)", "1.127", _point_eval(ObjectiveId.F5, EdgeId.X_ZERO, lambda: Interval.point(0.5))),
    EdgeConstant("f5(a,.) max", "1.819", _edge_max(ObjectiveId.F5, EdgeId.X_A)),
    EdgeConstant("f5(.,0) max", "1.374", _edge_max(ObjectiveId.F5, EdgeId.Y_ZERO)),
    EdgeConstant("g7 max", "1.317", _edge_max(ObjectiveId.F5, EdgeId.CURVE_LOW)),
    EdgeConstant("g8(a)", "1.402", _point_eval(ObjectiveId.F5, EdgeId.CURVE_HIGH, lambda: CONSTANTS.iv_a), mode="rounded"),
    EdgeConstant("f6(0,1/sqrt3)", "4/3", _point_eval(ObjectiveId.F6, EdgeId.X_ZERO, lambda: ((Interval.point(1.0) * Interval.from_fraction(Fraction(1, 3))).sqrt_clamped())), mode="exact"),
    EdgeConstant("f6(a,0)", "1.193", _point_eval(ObjectiveId.F6, EdgeId.X_A, lambda: Interval.point(0.0))),
    EdgeConstant("f6(a,.) max", "1.232", _edge_max(ObjectiveId.F6, EdgeId.X_A)),
    EdgeConstant("g9 max", "1.280", _edge_max(ObjectiveId.F6, EdgeId.CURVE_LOW)),
    EdgeConstant("g10(b)", "1.213", _point_eval(ObjectiveId.F6, EdgeId.CURVE_HIGH, lambda: CONSTANTS.iv_b)),
    # maximizer abscissas quoted alongside the values
    EdgeConstant("f2 x=a root", "0.365", _edge_root(ObjectiveId.F2, EdgeId.X_A)),
    EdgeConstant("g1 root", "0.298", _edge_root(ObjectiveId.F2, EdgeId.CURVE_LOW)),
    EdgeConstant("f3 x=a root", "0.338", _edge_root(ObjectiveId.F3, EdgeId.X_A)),
    EdgeConstant("g3 root", "0.287", _edge_root(ObjectiveId.F3, EdgeId.CURVE_LOW)),
    EdgeConstant("f4 x=a root", "0.327", _edge_root(ObjectiveId.F4, EdgeId.X_A)),
    EdgeConstant("g5 root", "0.252", _edge_root(ObjectiveId.F4, EdgeId.CURVE_LOW)),
    EdgeConstant("g6 root", "0.715", _edge_root(ObjectiveId.F4, EdgeId.CURVE_HIGH)),
    EdgeConstant("f5 x=a root", "0.300", _edge_root(ObjectiveId.F5, EdgeId.X_A)),
    EdgeConstant("f5 y=0 root", "0.667", _edge_root(ObjectiveId.F5, EdgeId.Y_ZERO)),
    EdgeConstant("g7 root", "0.247", _edge_root(ObjectiveId.F5, EdgeId.CURVE_LOW)),
    EdgeConstant("f6 x=a root", "0.258", _edge_root(ObjectiveId.F6, EdgeId.X_A)),
    EdgeConstant("g9 root", "0.281", _edge_root(ObjectiveId.F6, EdgeId.CURVE_LOW)),
    EdgeConstant("f8 x=a root", "0.267", _edge_root(ObjectiveId.F8, EdgeId.X_A)),
    # the rejected interior stationary system of the fourth-coefficient objective
    EdgeConstant("f2 reduced y", "0.153", SuiteContext.f2_reduced_root),
    EdgeConstant("f2 reduced x", "0.961", _f2_reduced_curve_x),
    # the certified interior stationary point of the Hankel objective
    EdgeConstant("f6 interior x", "0.605", _f6_interior_coord(0)),
    EdgeConstant("f6 interior y", "0.395", _f6_interior_coord(1)),
)


def _run_edge_table(ctx: SuiteContext) -> ClaimOutcome:
    failures: list[str] = []
    unsettled: list[str] = []
    notes: list[str] = []
    for spec in EDGE_CONSTANTS:
        try:
            iv = spec.evaluate(ctx)
        except BudgetExhausted as exc:
            unsettled.append(f"{spec.label}: {exc}")
            continue
        except ArithmeticError as exc:
            failures.append(f"{spec.label}: {exc}")
            continue
        if spec.mode == "exact":
            if not Fraction(iv.lo) <= Fraction(spec.target) <= Fraction(iv.hi):
                failures.append(f"{spec.label}: [{iv.lo!r}, {iv.hi!r}] misses {spec.target}")
            continue
        rounded = spec.mode == "rounded"
        verdict = window_verdict(iv, spec.target, rounded)
        where = f"[{iv.lo:.7f}, {iv.hi:.7f}]"
        shown = f"the rounding window of {spec.target}" if rounded else f"[{spec.target}, +1e-3)"
        if verdict == "misses":
            failures.append(f"{spec.label}: {where} misses {shown}")
        elif verdict is not None:
            unsettled.append(f"{spec.label}: {where} straddles the {verdict} end of {shown}")
        elif rounded:
            notes.append(f"{spec.label}: computed {iv.mid:.7f}; printed {spec.target} is rounded, not truncated")
    return _settle(unsettled, failures, notes)


# -- oracle claims ---------------------------------------------------------------


def _run_oracle_identities(ctx: SuiteContext) -> ClaimOutcome:
    worst = 0.0
    for preset in PRESETS:
        rep = check_coefficient_identities(PRESETS[preset](16), order=8, table=ctx.table(preset))
        worst = max(worst, rep.max_residual)
    return _settle(
        refuted=[] if worst <= 1e-10 else ["identity residual above 1e-10"],
        info=[f"max identity residual {worst:.2e} over presets at order 8"],
        value=Interval.point(worst),
    )


def _run_oracle_ineq(ctx: SuiteContext) -> ClaimOutcome:
    rng = np.random.default_rng(ctx.cfg.seed)
    vectors = [random_test_vector(rng) for _ in range(INEQUALITY_VECTORS)]
    worst = min(check_inequalities(ctx.table(preset), *vectors).min_slack for preset in PRESETS)
    return _settle(
        refuted=[] if worst >= -1e-10 else ["inequality slack below -1e-10"],
        info=[f"min inequality slack {worst:.2e} over {INEQUALITY_VECTORS} vectors"],
        value=Interval.point(worst),
    )


def _run_oracle_gamma(ctx: SuiteContext) -> ClaimOutcome:
    worst = 0.0
    for preset in PRESETS:
        worst = max(worst, ctx.gamma(preset).max_difference)
    koebe = ctx.gamma("koebe")
    koebe_drift = max(abs(g - 1.0 / n) for n, g in enumerate(koebe.direct, start=1))
    return _settle(
        refuted=[] if max(worst, koebe_drift) <= 1e-12 else ["gamma drift above 1e-12"],
        info=[f"two-path gamma drift {worst:.2e}; koebe 1/n drift {koebe_drift:.2e}"],
        value=Interval.point(max(worst, koebe_drift)),
    )


def _grid_gap_bound(oid: ObjectiveId, argmax: tuple[Interval, Interval]) -> float:
    """sup f(A) - f(p) for the argmax enclosure A and the grid point p nearest it, by the
    mean-value form over hull(A, p); infinite where the radicand is not positive there."""
    ax, ay = argmax
    px, py = map(Interval.point, grid_point(ax.mid, ay.mid))
    grad = OBJECTIVES[oid].gradient_iv(ax.hull(px), ay.hull(py))
    if grad is None:
        return math.inf
    return (grad[0] * (ax - px) + grad[1] * (ay - py)).hi


def _run_property_bnb(ctx: SuiteContext) -> ClaimOutcome:
    problems = []
    unsettled = []
    margins = []
    for oid, gmax in zip(ObjectiveId, grid_maximum(tuple(ObjectiveId))):
        loc = ctx.locate(oid)
        if loc.unsettled:
            # nothing located, so nothing certified or checked
            unsettled.append(f"{oid.value}: maximum not located")
            continue
        ext = ctx.extremum(oid)
        if ext.above is not None:
            problems.append("{}: a point of box [{:.9g}, {:.9g}] x [{:.9g}, {:.9g}] lies above the located maximum"
                            .format(oid.value, *ext.above))
        elif not ext.converged:
            spent = ext.iterations >= ctx.cfg.max_boxes
            unsettled.append(f"{oid.value}: maximizer {'budget exhausted' if spent else 'left boxes at TOL_BOX'}")
        value = ext.value
        # 1e-12 allows for plain-float rounding in the grid evaluation itself
        if gmax > value.hi + 1e-12:
            problems.append(f"{oid.value}: grid max {gmax!r} exceeds enclosure high {value.hi!r}")
        # the gap bound holds only with the maximizer inside the argmax
        if loc.argmax is None or loc.tied:
            unsettled.append(f"{oid.value}: maximum not located")
        elif value.lo > gmax + 1e-12 + _grid_gap_bound(oid, loc.argmax):
            problems.append(
                f"{oid.value}: grid max {gmax!r} below enclosure low - gap bound {value.lo!r}"
            )
        margins.append(value.lo - gmax)
    return _settle(unsettled, problems, [f"max grid-discretization gap {max(margins):.2e}"] if margins else [])


def _run_property_curves(ctx: SuiteContext) -> ClaimOutcome:
    # the low piece ends where the high one starts, at b
    low, high = CAP_PIECES
    crossing = low.lift(low.t_hi)[1] - high.lift(high.t_lo)[1]
    radicand = rp_eval_iv(low.radicand, low.t_hi)
    cross_res, rad_res = (max(abs(iv.lo), abs(iv.hi)) for iv in (crossing, radicand))
    return _settle(
        refuted=[] if max(cross_res, rad_res) <= 1e-12 else ["curve identity residual above 1e-12"],
        info=[f"curve crossing residual within +/-{cross_res:.2e}; "
              f"low-curve radicand at b within +/-{rad_res:.2e}"],
    )


CLAIMS: tuple[ClaimSpec, ...] = (
    ClaimSpec("THM1_A3", "third coefficient bound", "2.427", _run_thm1_a3),
    ClaimSpec("THM1_A4", "fourth coefficient bound", "3.461", _run_thm1_a4),
    ClaimSpec("THM1_A5", "fifth coefficient bound", "4.993", _run_thm1_a5),
    ClaimSpec("THM2_D43", "fourth/third difference bound", "1.174", _run_thm2_d43),
    ClaimSpec("THM2_D54", "fifth/fourth difference bound", "1.822", _run_thm2_d54),
    ClaimSpec("THM3_H22", "second Hankel determinant bound", "1.280", _run_thm3_h22),
    ClaimSpec("GAMMA2", "second log-coefficient bound", "0.662", _run_gamma2),
    ClaimSpec("THM4_GAMMA3", "third log-coefficient bound", "0.551", _run_thm4_gamma3),
    ClaimSpec("GAMMA4", "fourth log-coefficient bound", "0.613", _run_gamma4),
    ClaimSpec("EDGE_TABLE", "per-edge constants", None, _run_edge_table),
    ClaimSpec("ORACLE_EQ13", "coefficient identities", None, _run_oracle_identities),
    ClaimSpec("ORACLE_INEQ", "truncated inequalities", None, _run_oracle_ineq),
    ClaimSpec("ORACLE_GAMMA", "log-coefficient cross-check", None, _run_oracle_gamma),
    ClaimSpec("PROPERTY_BNB_SOUND", "grid soundness of maximizer", None, _run_property_bnb),
    ClaimSpec("PROPERTY_CURVES", "crossover-abscissa identities", None, _run_property_curves),
)

CLAIM_IDS = tuple(c.claim_id for c in CLAIMS)
CLAIMS_BY_ID = {c.claim_id: c for c in CLAIMS}

#: the first log-coefficient bound is recorded as published; the quoted
#: derivation ("half the second-coefficient bound") would give 0.37125 instead,
#: so the larger published figure is kept and flagged wherever it is reported.
GAMMA1_NOTE = (
    "first log-coefficient bound recorded as 0.7425; the quoted derivation a/2 "
    "evaluates to 0.37125, so the published figure is kept and flagged"
)

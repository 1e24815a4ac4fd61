"""Verified global maximization over the admissible region.

maximize_1d and maximize_2d share one best-first branch-and-bound loop,
`_best_first`.  In 2-D, boxes are bisected along their longer side, clipped
in y against the cap curve (the region is y-simple, so clipping is exact),
pruned when their upper bound falls below the certified incumbent, and the
enclosure runs from the incumbent to the highest open bound.  It is a value
enclosure only: where the maximum lies is for `claims.SuiteContext.locate`
to decide.  A box is bounded once, by a mean-value form expanded about the
centre that minimises the form's bound (Baumann 1988).  A box that reaches
the cap curve within one cap branch c takes that form in the chart
(x, s = y/c(x)), where the curve is the face s = 1, so the bound is exact
to second order at a maximum on the curve; every other box takes it in
(x, y).  Where the radicand reaches zero the forms have no bound, since
they need the true gradient, which is singular there; such a box takes its
monotone corner bound instead.  The forms run on float pairs, (lo, hi)
rounded outward as `Interval` rounds them, with no object per box.  The
incumbent comes from a 3 x 3 seed grid and one corner sample per split.

Every zero search runs one subdivision loop, `_isolate`: each caller gives it
an exclusion test, a contraction step and a split.  zero_clusters_1d is the
1-D zero search, for the edge critical points and for find_root_1d.  It
bisects a piece only until the piece's enclosure excludes zero or, given an
enclosure of the derivative that excludes zero, interval Newton steps
N(X) = m - f(m)/f'(X) either empty the piece or prove a box in it.  Only
pieces that Newton cannot settle are bisected on down to MIN_WIDTH.
maximize_1d bounds a box on which the derivative has one sign by the value
at the box's higher end; f1 runs through maximize_2d like f2-f9, so it runs
only for perfbench (`claims.SuiteContext.f1_extremum`).

interior_critical_points runs the same loop over 2-D boxes.  It excludes
gradient zeros with the division-free scaled gradient G = sqrt(R)*grad f,
which stays bounded up to the rim R = 0, so the sign test runs first on every
box, rim boxes included.  A box at most KRAWCZYK_WIDTH wide with positive
radicand then takes Krawczyk steps, built from the true gradient and the
interval Hessian of `Objective.gradient_iv` and `Objective.hessian_iv` (this
module evaluates no objective terms itself): they clear the box or prove that
a box in it holds exactly one zero.  Boxes that nothing settles are bisected
down to CLUSTER_WIDTH; such a leaf at the rim goes to `rim_boxes`, any other
gives an uncertified point, and either leaves the search uncertified.

The 1-D Newton steps and the 2-D Krawczyk steps share one contraction loop,
`_contract`: B <- B ∩ step(B), where an image inside the interior of its box
proves that the box holds exactly one zero (Moore, Kearfott & Cloud 2009,
ch. 8; Neumaier 1990, ch. 5).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .domain import (
    CAP_PIECES, CONSTANTS, REGION, OmegaRegion, cap_point_down, cap_sup_up, high_chart, low_chart
)
from .interval import (
    Interval,
    _add_down,
    _add_up,
    _mul_down,
    _mul_pair,
    _mul_up,
    _recip_down,
    _recip_up,
    _sqrt_down,
    _sqrt_up,
)
from .objectives import OBJECTIVES, MonotoneBounds, Objective, ObjectiveId, monotone_bounds
from .poly import MixedPoly

IvFunc = Callable[[Interval], Interval]
#: an enclosure of a derivative over a box, or None where there is none
SlopeFunc = Callable[[Interval], Interval | None]
#: a box, one interval per coordinate
Box = tuple[Interval, ...]
#: an image of a box that holds every zero in it, or None where there is none
Step = Callable[[Box], Box | None]

#: width at which the critical search stops splitting a box that neither the
#: sign test nor a Krawczyk step settles
CLUSTER_WIDTH = 2e-5

#: widest box on which the critical search tries Krawczyk steps.  One step
#: costs about a dozen sign tests, mostly for the Hessian.  Over the eight
#: searches of f2-f9, 1/16 takes 1,030 boxes and steps for 274 `_krawczyk`
#: calls, 1e-2 takes 1,219 for 103 and 1e-3 takes 1,788 for 72: wider boxes
#: mostly fail the proof, narrower ones are bisected longer before it.
KRAWCZYK_WIDTH = 1e-2


class NoBracketError(RuntimeError):
    """No single zero cluster with a verified sign change across it."""


#: smallest box side the branch-and-bound splits
TOL_BOX = 1e-9

#: width at which zero_clusters_1d stops bisecting a piece that it can neither
#: clear nor prove by Newton: a multiple zero, or a zero where the radicand S
#: reaches 0 (f7 at the corners (a, d) and (b, c(b))), which leaves no slope
#: enclosure.  Unproven pieces within this width of each other form one cluster.
MIN_WIDTH = 1e-10


@dataclass(frozen=True)
class BnBConfig:
    tol_value: float = 1e-6
    max_boxes: int = 10_000_000

    def __post_init__(self):
        if self.tol_value <= 0 or self.max_boxes <= 0:
            raise ValueError("BnBConfig fields must be positive")


@dataclass(frozen=True)
class Extremum:
    """A verified enclosure of a maximum, the boxes split for it, and whether it converged."""

    value: Interval
    iterations: int
    converged: bool


@dataclass(frozen=True)
class CriticalPoint:
    """One gradient zero, or a box left that the search could not settle.

    `cluster` is the box the Krawczyk proof started from, or the unsettled
    box when the point is uncertified.  `certified_box` is the proven box
    contracted by Krawczyk steps to the rounding level of its one zero, and
    `value` encloses the objective over it (over `cluster` when uncertified).
    """

    cluster: tuple[Interval, Interval]
    certified_box: tuple[Interval, Interval] | None
    value: Interval

    @property
    def certified(self) -> bool:
        return self.certified_box is not None


@dataclass
class CriticalSearch:
    """Interior critical points of one objective, and what the search left.

    `boundary_zeros` are the proven boxes that meet the region boundary, each
    holding the one gradient zero (0, 0).  `rim_boxes` are the boxes of width
    CLUSTER_WIDTH that reach the rim R = 0 and that neither the sign test nor
    a Krawczyk step settled; any of them leaves the search uncertified.
    `iterations` counts the boxes tested and the Krawczyk steps taken.
    """

    points: list[CriticalPoint] = field(default_factory=list)
    boundary_zeros: list[tuple[Interval, Interval]] = field(default_factory=list)
    rim_boxes: list[tuple[float, float, float, float]] = field(default_factory=list)
    certified: bool = True
    iterations: int = 0


# ---------------------------------------------------------------------------
# 1-D root isolation and subdivision
# ---------------------------------------------------------------------------


def find_root_1d(
    fn: IvFunc, lo: float, hi: float, tol: float = 1e-12, max_boxes: int = 200_000,
    slope: SlopeFunc | None = None,
) -> Interval:
    """Enclosure of the one zero of fn on [lo, hi].

    The zero search must leave a single cluster.  With `slope` (see
    `zero_clusters_1d`) a Newton-proven cluster is returned as it is: it holds
    exactly one zero.  Any other cluster must show opposite verified signs of
    fn at its two ends, so that it holds every zero and at least one.
    NoBracketError otherwise, and when the box budget runs out.
    """
    found = _roots_1d(fn, lo, hi, tol, max_boxes, slope)
    if found is None:
        raise NoBracketError(f"box budget exhausted isolating a zero of {fn} on [{lo}, {hi}]")
    proven, unproven = found
    if len(proven) == 1 and not unproven:
        return proven[0]
    if len(unproven) == 1 and not proven:
        root = unproven[0]
        a, b = fn(Interval.point(root.lo)), fn(Interval.point(root.hi))
        if a.hi < 0.0 < b.lo or b.hi < 0.0 < a.lo:
            return root
    raise NoBracketError(f"no single sign-changing zero cluster of {fn} on [{lo}, {hi}]")


def _inside(image: Box, box: Box) -> bool:
    """image ⊂ int box, side by side."""
    return all(b.lo < n.lo and n.hi < b.hi for n, b in zip(image, box))


def _contract(step: Step, box: Box, span: Box, min_width: float) -> tuple[Box | None, bool, int]:
    """Contraction B <- B ∩ step(B) from `box`, inside `span`.

    An image inside the interior of its box proves that the box holds exactly
    one zero, which every later box keeps.  The steps go on while each one at
    least halves the longest side, down to the rounding level of `span`, and
    once a box is proven, while they shrink it at all.  An unproven box that
    stalls at most `min_width` wide is widened by its width on each side,
    inside `span`, and tested once more: that proves a zero that the steps
    pressed against an end of the piece.  Returns (box, proven, steps); the
    box is None when an image misses its box, which then holds no zero.
    """
    # without this floor a box pressed against t = 0 would shrink on into
    # subnormal floats
    floor = 4.0 * math.ulp(max(max(-s.lo, s.hi) for s in span))
    proven = False
    steps = 0
    while (image := step(box)) is not None:
        steps += 1
        if any(n.hi < b.lo or b.hi < n.lo for n, b in zip(image, box)):
            return None, False, steps
        proven = proven or _inside(image, box)
        size = max(b.width for b in box)
        box = tuple(Interval(max(n.lo, b.lo), min(n.hi, b.hi)) for n, b in zip(image, box))
        shrunk = max(b.width for b in box)
        if shrunk >= size if proven else not floor < shrunk < 0.5 * size:
            break
    if steps and not proven and max(b.width for b in box) <= min_width:
        rs = [max(b.width, 4.0 * math.ulp(b.mid)) for b in box]
        widened = tuple(Interval(max(b.lo - r, s.lo), min(b.hi + r, s.hi)) for b, s, r in zip(box, span, rs))
        steps += 1
        image = step(widened)
        if image is not None and _inside(image, widened):
            return widened, True, steps
    return box, proven, steps


def _isolate(
    root: Box, excluded: Callable[[Box], bool], step: Step, split: Callable[[Box], Sequence[Box]],
    span: Box, min_width: float, max_boxes: int,
) -> tuple[list[tuple[Box, Box]], list[Box], int] | None:
    """The one subdivision loop of every zero search, from `root`.

    A piece that `excluded` certifies zero-free is dropped.  Any other piece
    takes `step` in `_contract`, which clears it, proves that a box in it
    holds exactly one zero, or shrinks it.  A piece it leaves unproven is
    kept as a leaf once at most `min_width` wide, else `split`: the piece,
    not the shrunk box, so every piece is a cell of one bisection grid.
    Pieces tested and steps share the budget `max_boxes`; None when it runs
    out.  Returns the proven boxes as (piece the proof started from,
    contracted box), the leaves, and the count of pieces and steps.
    """
    stack = [root]
    proven: list[tuple[Box, Box]] = []
    leaves: list[Box] = []
    processed = 0
    while stack:
        piece = stack.pop()
        processed += 1
        if processed > max_boxes:
            return None
        if excluded(piece):
            continue
        box, is_proven, steps = _contract(step, piece, span, min_width)
        processed += steps
        if processed > max_boxes:
            return None
        if box is None:
            continue
        if is_proven:
            proven.append((piece, box))
        elif max(b.width for b in box) <= min_width:
            leaves.append(box)
        else:
            stack.extend(split(piece))
    return proven, leaves, processed


def _roots_1d(
    fn: IvFunc, lo: float, hi: float, min_width: float, max_boxes: int, slope: SlopeFunc | None
) -> tuple[list[Interval], list[Interval]] | None:
    """The Newton-proven boxes and the unproven clusters of `zero_clusters_1d`."""

    def step(box: Box) -> Box | None:
        """Newton's N(X) = m - fn(m)/fn'(X) about the midpoint m; None unless fn'(X) excludes 0."""
        (x,) = box
        d = slope(x) if slope is not None else None
        if d is None or d.contains_zero():
            return None
        m = Interval.point(x.mid)
        fm = fn(m)
        return (m - fm * d.recip() if d.lo > 0.0 else m + fm * (-d).recip(),)

    def split(box: Box) -> list[Box]:
        (x,) = box
        return [(Interval(x.lo, x.mid),), (Interval(x.mid, x.hi),)]

    span = Interval(lo, hi)
    found = _isolate((span,), lambda box: not fn(box[0]).contains_zero(), step, split, (span,),
                     min_width, max_boxes)
    if found is None:
        return None
    proven, leaves, _ = found
    # Two proven boxes that overlap hold one zero: fn' has one sign on each,
    # so on their union.  Unproven leaves within min_width form one cluster.
    return _merge([box[0] for _, box in proven], 0.0), _merge([box[0] for box in leaves], min_width)


def _merge(boxes: list[Interval], gap: float) -> list[Interval]:
    """Hulls of the runs of sorted boxes that lie within `gap` of each other."""
    out: list[Interval] = []
    for c in sorted(boxes, key=lambda c: c.lo):
        if out and c.lo <= out[-1].hi + gap:
            out[-1] = out[-1].hull(c)
        else:
            out.append(c)
    return out


def zero_clusters_1d(
    fn: IvFunc, lo: float, hi: float, min_width: float = MIN_WIDTH, max_boxes: int = 200_000,
    slope: SlopeFunc | None = None,
) -> list[Interval] | None:
    """Every zero of fn on [lo, hi] lies in one of the returned clusters, sorted.

    Pieces whose enclosure excludes zero are certified zero-free.  With
    `slope`, which encloses fn' over a piece or gives None where it cannot, a
    piece on which fn' excludes zero takes Newton steps (`_contract`):
    they clear it, or prove that a box in it holds exactly one zero, which is
    then a cluster of its own.  Other pieces are bisected down to `min_width`
    and merged into clusters when they lie within `min_width` of each other.
    Pieces evaluated and Newton steps share the budget `max_boxes`; None when
    it runs out.
    """
    found = _roots_1d(fn, lo, hi, min_width, max_boxes, slope)
    if found is None:
        return None
    return sorted(found[0] + found[1], key=lambda c: c.lo)


# ---------------------------------------------------------------------------
# best-first branch-and-bound, shared by the 1-D and 2-D maximizers
# ---------------------------------------------------------------------------


def _best_first(root, bound, split, best: float, cfg: BnBConfig) -> Extremum:
    """Best-first branch-and-bound over boxes of any dimension, from the lower bound `best`.

    `bound(box)` is a certified upper bound of the objective over the box;
    `split(box)` returns the children and a certified lower bound of the
    objective sampled before they are bounded (-inf for none), or None once
    the box is at `TOL_BOX`.  The search stops when the best open bound is
    within `tol_value` of the incumbent or the box budget runs out.
    """
    counter = itertools.count()
    heap = [(-bound(root), next(counter), root)]
    finished_ub = -math.inf
    processed = 0
    converged = True

    while heap and -heap[0][0] > best + cfg.tol_value:
        if processed >= cfg.max_boxes:
            converged = False
            break
        neg_ub, _, box = heapq.heappop(heap)
        processed += 1
        out = split(box)
        if out is None:
            finished_ub = max(finished_ub, -neg_ub)
            continue
        children, sampled = out
        best = max(best, sampled)
        for child in children:
            ub_child = bound(child)
            if ub_child > best:
                heapq.heappush(heap, (-ub_child, next(counter), child))

    upper = max(best, finished_ub, -heap[0][0] if heap else -math.inf)
    if upper - best > cfg.tol_value:
        converged = False
    return Extremum(Interval(best, upper), processed, converged)


def maximize_1d(
    fn: IvFunc, lo: float, hi: float, cfg: BnBConfig | None = None, *,
    slope: SlopeFunc | None = None,
) -> Extremum:
    """Verified enclosure of max fn over [lo, hi] by interval branch-and-bound.

    A box is bounded by the interval extension of fn, or, where `slope`
    encloses fn' over it with one sign, by fn at the end where fn is largest.
    The incumbent comes from both ends, the midpoint and one midpoint
    sample per split.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    cfg = cfg or BnBConfig()

    def top(box: tuple[float, float]) -> Interval:
        """The end of the box where fn is largest if fn' has one sign on it, else the box."""
        d = slope(Interval(*box)) if slope is not None else None
        if d is None or d.contains_zero():
            return Interval(*box)
        return Interval.point(box[1] if d.lo > 0.0 else box[0])

    def sample(t: float) -> float:
        return fn(Interval.point(t)).lo

    def split(box: tuple[float, float]):
        t1, t2 = box
        if t2 - t1 <= TOL_BOX:
            return None
        tm = 0.5 * (t1 + t2)
        return ((t1, tm), (tm, t2)), sample(tm)

    best = max(sample(lo), sample(hi), sample(0.5 * (lo + hi)))
    return _best_first((lo, hi), lambda box: fn(top(box)).hi, split, best, cfg)


def _clip_box(x1: float, x2: float, y1: float, y2: float) -> tuple[float, float, float, float] | None:
    """Clip the y-range of a box against the cap curve; None if outside the region."""
    y2c = min(y2, cap_sup_up(x1, x2))
    if y1 > y2c:
        return None
    return x1, x2, y1, y2c


def _root_box(region: OmegaRegion) -> tuple[float, float, float, float]:
    """[0, a] x [0, top of the cap], clipped; the cap peaks where the low piece ends."""
    low = CAP_PIECES[0]
    return _clip_box(0.0, region.constants.iv_a.hi, 0.0, low.lift(low.t_hi)[1].hi)


def maximize_2d(obj: Objective, region: OmegaRegion = REGION, cfg: BnBConfig | None = None) -> Extremum:
    """Verified enclosure of the global maximum of a 2-D objective over the region.

    Each box is bounded once, by `_centred_upper`, a mean-value form about
    Baumann's centre: in the chart for boxes that reach the cap curve within
    one branch, in (x, y) otherwise.  Only where that form has no bound, at
    the rim R = 0, does the box take `ranges.upper` instead.  The incumbent
    comes from a 3 x 3 seed grid and at most one corner sample per split.
    """
    cfg = cfg or BnBConfig()
    ranges = monotone_bounds(obj.id)
    x_in = region.constants.iv_a.lo

    def sample(x: float, y: float) -> float:
        x = min(max(x, 0.0), x_in)
        y = min(max(y, 0.0), cap_point_down(x))
        return ranges.lower(x, x, y, y)

    def split(box: tuple[float, float, float, float]):
        x1, x2, y1, y2 = box
        if max(x2 - x1, y2 - y1) <= TOL_BOX:
            return None
        children = _split_clipped(box)
        # Each top-right corner is sampled once, before either child is
        # bounded.  Only the child at the parent's lower-left corner has a new
        # one: the other child's corner samples as its parent's (clipping
        # lowers its y2 no further than the cap at x2), and the root's corner
        # samples as the seed point (x_in, cap(x_in)).
        if children and children[0][0] == x1 and children[0][2] == y1:
            return children, sample(children[0][1], children[0][3])
        return children, -math.inf

    def bound(box: tuple[float, float, float, float]) -> float:
        ub = _centred_upper(ranges, region, box)
        return ranges.upper(*box) if ub == math.inf else ub

    # coarse seed so pruning starts immediately
    xs = [x_in * i / 2 for i in range(3)]
    best = max(sample(x, cap_point_down(x) * j / 2) for x in xs for j in range(3))
    return _best_first(_root_box(region), bound, split, best, cfg)


def _centred_upper(ranges: MonotoneBounds, region: OmegaRegion, box: tuple[float, ...]) -> float:
    """Mean-value upper bound of the objective over box ∩ region, about Baumann's centre.

    A box that reaches the cap curve within one cap branch is bounded in that
    branch's chart (x, s = y/c(x)), where the curve is the face s = 1; every
    other box in (x, y).  inf where the radicand is not positive, since the
    form needs the true gradient.
    """
    x1, x2, y1, y2 = box
    iv_b = region.constants.iv_b
    # Does the box reach the curve?  Plain floats suffice: the test only picks
    # which of two sound bounds to use.
    if x2 <= iv_b.hi and y2 + y2 >= 1.0 + x1 * x1:
        return _chart_upper(ranges, low_chart, box)
    if x1 >= iv_b.lo and 3.0 * y2 * y2 >= 1.0 - x2 * x2:
        # the high branch is the rim R = 0, which the chart box then contains
        return math.inf if ranges.has_radical else _chart_upper(ranges, high_chart, box)
    grad = _gradient(ranges, box)
    return math.inf if grad is None else _mean_value_upper(lambda x, y: ranges.upper(x, x, y, y), grad, box)


def _chart_upper(
    ranges: MonotoneBounds, chart: Callable[[float, float], tuple[float, ...]], box: tuple[float, ...]
) -> float:
    """Mean-value form of g(x, s) = f(x, s*c(x)) over a chart box that covers box ∩ region.

    The x-derivative g_x = f_x + f_y*s*c' is enclosed as a signed interval:
    at a maximum tangent to the curve its two terms cancel, so the bound is
    exact to second order there.
    """
    x1, x2, y1, y2 = box
    c_lo, c_hi, dc_lo, dc_hi = chart(x1, x2)
    s1 = _mul_down(y1, _recip_down(c_hi))
    s2 = min(1.0, _mul_up(y2, _recip_up(c_lo)))
    # the true gradient over the xy hull of the chart box
    grad = _gradient(ranges, (x1, x2, _mul_down(s1, c_lo), _mul_up(s2, c_hi)))
    if grad is None:
        return math.inf
    fx_lo, fx_hi, fy_lo, fy_hi = grad
    t_lo, t_hi = _mul_pair(*_mul_pair(fy_lo, fy_hi, s1, s2), dc_lo, dc_hi)
    g_s = _mul_pair(fy_lo, fy_hi, c_lo, c_hi)

    def f_up(x: float, s: float) -> float:
        cx_lo, cx_hi = chart(x, x)[:2]
        return ranges.upper(x, x, _mul_down(s, cx_lo), _mul_up(s, cx_hi))
    return _mean_value_upper(f_up, (_add_down(fx_lo, t_lo), _add_up(fx_hi, t_hi), *g_s), (x1, x2, s1, s2))


def _gradient(ranges: MonotoneBounds, box: tuple[float, ...]) -> tuple[float, float, float, float] | None:
    """(fx_lo, fx_hi, fy_lo, fy_hi) over a box: sqrt(R)*grad f times [1/sqrt(r_hi), 1/sqrt(r_lo)].

    None unless R > 0.
    """
    g1lo, g1hi, g2lo, g2hi, r_lo, r_hi = ranges.scaled_gradient_range(*box)
    if r_lo <= 0.0:
        return None
    if not ranges.has_radical:
        return g1lo, g1hi, g2lo, g2hi
    u = _recip_down(_sqrt_up(r_hi)), _recip_up(_sqrt_down(r_lo))
    return (*_mul_pair(g1lo, g1hi, *u), *_mul_pair(g2lo, g2hi, *u))


def _mean_value_upper(f_up: Callable[..., float], grad: tuple[float, ...], box: tuple[float, ...]) -> float:
    """f(c) + sum of sup G_i*[lo_i - c_i, hi_i - c_i] over box = [lo_1, hi_1] x [lo_2, hi_2], rounded up.

    `f_up(u, v)` bounds f from above at a point and grad = (g_lo_1, g_hi_1,
    g_lo_2, g_hi_2) encloses grad f over the box, so by the mean value
    theorem the sum bounds f over the box for any c in it.  Each c_i is
    Baumann's centre (BIT 28, 1988), which minimises its term: the end that
    G_i points to where G_i has one sign, else the point
    g_hi*(hi - c) = g_lo*(lo - c), clamped because rounding can put it an ulp outside.
    """
    centre, excess = [], 0.0
    for g_lo, g_hi, lo, hi in zip(grad[::2], grad[1::2], box[::2], box[1::2]):
        if g_lo >= 0.0:
            c = hi
        elif g_hi <= 0.0:
            c = lo
        else:
            c = max(lo, min(hi, (g_hi * hi - g_lo * lo) / (g_hi - g_lo)))
        centre.append(c)
        # lo - c <= 0 <= hi - c, so the supremum is one of these two products
        excess = _add_up(excess, max(_mul_up(g_hi, _add_up(hi, -c)), _mul_up(g_lo, _add_down(lo, -c))))
    return _add_up(f_up(*centre), excess)


# ---------------------------------------------------------------------------
# interior critical points
# ---------------------------------------------------------------------------


def _krawczyk(obj: Objective, box: Box) -> Box | None:
    """Krawczyk operator K(B) = p - Y g(p) + (I - Y H(B)) (B - p) on B = `box`, about its midpoint p.

    g is the true gradient, H its interval Hessian over B and Y = mid(H(B))^-1.
    K(B) inside the interior of B proves that B holds exactly one gradient
    zero, and K(B) ∩ B holds every zero in B.  None where the radicand is not
    positive on B, so that g and H are undefined there, or mid(H(B)) is
    singular; any other fault in g or H raises.
    """
    bx, by = box
    ix, iy = Interval.point(bx.mid), Interval.point(by.mid)
    if (hessian := obj.hessian_iv(bx, by)) is None:
        return None
    h11, h12, h22 = hessian
    # R > 0 on B, so also at p in B: interval evaluation is inclusion-isotone
    g1, g2 = obj.gradient_iv(ix, iy)
    det = h11.mid * h22.mid - h12.mid * h12.mid
    if det == 0.0 or not math.isfinite(det):
        return None
    # Y is symmetric, as H is
    y11, y12, y22 = h22.mid / det, -h12.mid / det, h11.mid / det
    e11 = Interval.point(1.0) - (h11.scale(y11) + h12.scale(y12))
    e12 = -(h12.scale(y11) + h22.scale(y12))
    e21 = -(h11.scale(y12) + h12.scale(y22))
    e22 = Interval.point(1.0) - (h12.scale(y12) + h22.scale(y22))
    # outward B - p: the endpoints of B need not lie on a float grid about p
    rx, ry = bx - ix, by - iy
    k1 = ix - (g1.scale(y11) + g2.scale(y12)) + e11 * rx + e12 * ry
    k2 = iy - (g1.scale(y12) + g2.scale(y22)) + e21 * rx + e22 * ry
    return k1, k2


def _in_interior(region: OmegaRegion, box: Box) -> bool:
    """The box lies in the interior of the region; the cap rises, then falls, so is least at an end."""
    x, y = box
    return (0.0 < x.lo and x.hi < region.constants.iv_a.lo and 0.0 < y.lo
            and y.hi < min(cap_point_down(x.lo), cap_point_down(x.hi)))


def _hull(a: Box, b: Box) -> Box:
    return tuple(u.hull(v) for u, v in zip(a, b))


def interior_critical_points(
    obj: Objective, region: OmegaRegion = REGION, cfg: BnBConfig | None = None
) -> CriticalSearch:
    """Isolate and certify every gradient zero in the interior of the region.

    The sign certificate of `_isolate` holds on boxes that reach the rim too:
    the ranges enclose G = sqrt(R)*grad f wherever R >= 0, and G has the zeros
    of grad f where R > 0.  Two proven boxes that overlap hold one zero if
    Krawczyk proves their hull.  A proven box inside the interior is a
    certified point; one that meets the boundary and holds (0, 0), where the
    exact gradient vanishes, is a boundary zero.  Any other box left, a rim
    box or an exhausted budget leaves the search uncertified.
    """
    cfg = cfg or BnBConfig()
    ranges = monotone_bounds(obj.id)

    def floats(box: Box) -> tuple[float, float, float, float]:
        return box[0].lo, box[0].hi, box[1].lo, box[1].hi

    def excluded(box: Box) -> bool:
        """One scaled-gradient component has one sign on the box."""
        g1lo, g1hi, g2lo, g2hi = ranges.scaled_gradient_range(*floats(box))[:4]
        return g1lo > 0.0 or g1hi < 0.0 or g2lo > 0.0 or g2hi < 0.0

    def step(box: Box) -> Box | None:
        return _krawczyk(obj, box) if max(b.width for b in box) <= KRAWCZYK_WIDTH else None

    def split(box: Box) -> list[Box]:
        return [(Interval(x1, x2), Interval(y1, y2)) for x1, x2, y1, y2 in _split_clipped(floats(box))]

    x1, x2, y1, y2 = _root_box(region)
    # the widened retest of a box pressed against (0, 0) may cross both axes
    found = _isolate((Interval(x1, x2), Interval(y1, y2)), excluded, step, split,
                     (Interval(-1.0, 1.0),) * 2, CLUSTER_WIDTH, cfg.max_boxes)
    if found is None:
        return CriticalSearch(certified=False, iterations=cfg.max_boxes)
    proven, leaves, processed = found
    out = CriticalSearch(iterations=processed)

    zeros: list[tuple[Box, Box]] = []  # (piece the proof started from, contracted box), one per zero
    unsettled: list[Box] = []
    for piece, box in proven:
        twin = next((z for z in zeros if all(u.intersects(v) for u, v in zip(z[1], box))), None)
        if twin is not None:
            zeros.remove(twin)
            hull = _hull(twin[1], box)
            out.iterations += 1
            k = _krawczyk(obj, hull)
            if k is None or not _inside(k, hull):
                unsettled.append(hull)
                continue
            # one zero, in both boxes
            piece = _hull(twin[0], piece)
            box = tuple(Interval(max(u.lo, v.lo), min(u.hi, v.hi)) for u, v in zip(twin[1], box))
        zeros.append((piece, box))
    for piece, box in zeros:
        if _in_interior(region, box):
            out.points.append(CriticalPoint(piece, box, obj.value_iv(*box)))
        elif all(b.contains(0.0) for b in box) and obj.stationary_at_origin():
            out.boundary_zeros.append(box)
        else:
            unsettled.append(box)
    for box in leaves:
        if ranges.scaled_gradient_range(*floats(box))[4] <= 0.0:
            out.rim_boxes.append(floats(box))
        else:
            unsettled.append(box)
    out.points.extend(CriticalPoint(box, None, obj.value_iv(*box)) for box in unsettled)
    out.certified = not (unsettled or out.rim_boxes)
    return out


def _split_clipped(box: tuple[float, float, float, float]) -> list[tuple[float, float, float, float]]:
    x1, x2, y1, y2 = box
    if x2 - x1 >= y2 - y1:
        xm = 0.5 * (x1 + x2)
        raw = ((x1, xm, y1, y2), (xm, x2, y1, y2))
    else:
        ym = 0.5 * (y1 + y2)
        raw = ((x1, x2, y1, ym), (x1, x2, ym, y2))
    return [clipped for clipped in (_clip_box(*child) for child in raw) if clipped is not None]


# ---------------------------------------------------------------------------
# float grid brute force (soundness cross-check, not verified arithmetic)
# ---------------------------------------------------------------------------


#: x-values per block of the grid sweep: at n = 500 a block's arrays are 100 KB
#: each, so y, y^2, the radical and one objective's sum stay in cache together
GRID_ROWS = 25


def _grid_axes(n: int):
    """The grid's n x-values, the cap at each, and the n fractions t of the cap."""
    x = np.linspace(0.0, CONSTANTS.a_float, n)
    return x, np.minimum(*(piece.cap(x) for piece in CAP_PIECES)), np.linspace(0.0, 1.0, n)


def _mult_float(mult: MixedPoly, x: np.ndarray) -> np.ndarray:
    """M(x) in plain floats: each part by Horner from 0, over its square root, summed from 0 in part order."""
    out = np.zeros_like(x)
    for part, k in zip(mult.parts, (1.0, 3.0, 5.0, 7.0)):
        acc = 0.0
        for c in reversed(part):
            acc = acc * x + float(c)
        out = out + acc / math.sqrt(k)
    return out


def grid_maximum(oids: ObjectiveId | Sequence[ObjectiveId], n: int = 500) -> float | tuple[float, ...]:
    """Plain float maxima over an n-by-n grid on the region.

    A float-only cross-check of the verified maxima; it decides nothing on its
    own.  One objective gives its maximum, a sequence their maxima from one
    sweep in blocks of GRID_ROWS x-values, which computes x-only factors once,
    and y, its powers and the radical sqrt(max((1 - x^2) - 3*y*y, 0)) once per
    block.  Every grid point takes the float operations of the full grid, in
    its order (c*x^i*y^j summed from zero in `poly` order, then M(x) times the
    radical), so each maximum is the same bit for bit.
    """
    if isinstance(oids, ObjectiveId):
        return grid_maximum((oids,), n)[0]
    best = dict.fromkeys(oids, -math.inf)
    x, cap, t = _grid_axes(n)
    xc = x[:, None]
    one_minus_x2 = 1.0 - xc * xc
    forms = [(obj, [(float(c) * xc**i, j) for (i, j), c in obj.poly.items()], _mult_float(obj.mult, xc))
             for obj in (OBJECTIVES[oid] for oid in best)]
    degrees = {j for _, terms, _ in forms for _, j in terms if j > 1}
    for k in range(0, n if forms else 0, GRID_ROWS):
        rows = slice(k, k + GRID_ROWS)
        ys = np.multiply.outer(cap[rows], t)
        # y**1 is y; y**0 is 1.0, so a j = 0 term adds its x column as it is
        powers = {1: ys} | {j: ys**j for j in degrees}
        radical = np.sqrt(np.maximum(one_minus_x2[rows] - 3.0 * ys * ys, 0.0))
        for obj, terms, mult in forms:
            out = np.zeros_like(ys)
            for cx, j in terms:
                out += cx[rows] * powers[j] if j else cx[rows]
            if obj.has_radical:
                out += mult[rows] * radical
            best[obj.id] = max(best[obj.id], float(out.max()))
    return tuple(best[oid] for oid in oids)


def grid_point(x: float, y: float, n: int = 500) -> tuple[float, float]:
    """The grid point of `grid_maximum` nearest (x, y); the grid is the same for every objective."""
    xs, cap, t = _grid_axes(n)
    i = min(max(round(x / CONSTANTS.a_float * (n - 1)), 0), n - 1)
    j = min(round(y / cap[i] * (n - 1)), n - 1)
    return float(xs[i]), float(cap[i] * t[j])

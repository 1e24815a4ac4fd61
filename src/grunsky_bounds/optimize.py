"""Verified global maximization over the admissible region.

- `maximize_2d` and `maximize_1d` share one best-first branch-and-bound,
  `_best_first`, which gives a value enclosure only: where the maximum lies
  is for `claims.SuiteContext.locate`.  A 2-D box is bounded once, by a
  mean-value form about Baumann's centre (`_centred_upper`; Baumann 1988),
  in the chart (x, s = y/c(x)) where it reaches the cap curve
  (`_chart_upper`).  About a maximum a box settles instead of splitting on:
  in the interior on a concave box by Krawczyk steps (`_concave`; Schichl &
  Neumaier 2004), on x = a and curve_low by `analyze_form` on its face
  segment (`_face_maximum`).  The incumbent comes from a 3 x 3 seed grid,
  then from one corner sample per split until the first settle, and from
  the low end of each settled value.
- `_isolate` is the one subdivision loop of every zero search, and
  `_contract` its steps B <- B ∩ step(B): an image inside the interior of
  its box proves that the box holds exactly one zero (Moore, Kearfott &
  Cloud 2009, ch. 8; Neumaier 1990, ch. 5).  `_roots_1d` takes interval
  Newton steps, for `find_root_1d` and for `analyze_form`, the maximum of a
  restriction over a parameter range: the largest of the form at the two
  ends and on every zero cluster of its scaled derivative.
  `interior_critical_points` takes Krawczyk steps (`_krawczyk`) after a
  sign test on the scaled gradient.
- `grid_maximum` is a float-only cross-check, which decides nothing.  It
  evaluates only the grid's sub-blocks whose float bound (`_grid_blocks`)
  lies above its running maximum, and finds the whole grid's maximum.

Every search runs on flat float boxes (`Box`), the zero searches through the
pair kernel of `interval`, rounded outward as `Interval` rounds and checked
by `_checked` wherever an enclosure decides an exclusion, a step image or a
proof.  `Interval` is the type of the records they return.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .domain import (
    CAP_PIECES, CONSTANTS, EDGES, REGION, EdgeId, OmegaRegion, cap_point_down, cap_sup_up, high_chart, low_chart
)
from .interval import (
    Interval, _add, _add_down, _add_up, _checked, _intervals, _mul, _mul_down, _mul_pair, _mul_up,
    _recip_down, _recip_up, _scale_pair, _sqrt_down, _sqrt_up, _sub, hull_of
)
from .objectives import OBJECTIVES, MonotoneBounds, Objective, ObjectiveId, RadicalForm1D, monotone_bounds
from .poly import MixedPoly

IvFunc = Callable[[Interval], Interval]
#: an enclosure of a derivative over a box, or None where there is none
SlopeFunc = Callable[[Interval], Interval | None]
#: an enclosure over [lo, hi] as a (lo, hi) pair, or None where there is none
PairFunc = Callable[[float, float], tuple[float, float] | None]
#: a flat box of floats: (lo, hi) in 1-D, (x1, x2, y1, y2) in 2-D
Box = tuple[float, ...]
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

#: width at which `_roots_1d` stops bisecting a piece that it can neither
#: clear nor prove by Newton: a multiple zero, a zero where the radicand S of
#: a form with a radical reaches 0, which leaves no slope enclosure, or a
#: zero at an end of the range, against which Newton steps press the box
#: (every unproven cluster of the edge analyses is one of these, at t = 0).
#: Unproven pieces within this width of each other form one cluster.
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
    """A verified enclosure of a maximum, the boxes split and steps taken for it, and whether it converged."""

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
# 1-D root isolation, subdivision and the maximum of a piece
# ---------------------------------------------------------------------------


def find_root_1d(
    fn: IvFunc, lo: float, hi: float, tol: float = 1e-12, max_boxes: int = 200_000,
    slope: SlopeFunc | None = None,
) -> Interval:
    """Enclosure of the one zero of fn on [lo, hi].

    The zero search must leave a single cluster.  With `slope` (see
    `_roots_1d`) a Newton-proven cluster is returned as it is: it holds
    exactly one zero.  Any other cluster must show opposite verified signs of
    fn at its two ends, so that it holds every zero and at least one.
    NoBracketError otherwise, and when the box budget runs out.
    """
    found = _roots_1d(_on_pairs(fn), lo, hi, tol, max_boxes, slope and _on_pairs(slope))
    if found is None:
        raise NoBracketError(f"box budget exhausted isolating a zero of {fn} on [{lo}, {hi}]")
    proven, unproven, _ = found
    if len(proven) == 1 and not unproven:
        return Interval(*proven[0])
    if len(unproven) == 1 and not proven:
        root = Interval(*unproven[0])
        a, b = fn(Interval.point(root.lo)), fn(Interval.point(root.hi))
        if a.hi < 0.0 < b.lo or b.hi < 0.0 < a.lo:
            return root
    raise NoBracketError(f"no single sign-changing zero cluster of {fn} on [{lo}, {hi}]")


def _on_pairs(fn: SlopeFunc) -> PairFunc:
    """fn on (lo, hi) pairs: the endpoints of fn(Interval(lo, hi)), or None where fn gives None."""
    return lambda lo, hi: None if (v := fn(Interval(lo, hi))) is None else (v.lo, v.hi)


# Set operations on flat boxes, 1-D or 2-D.
def _width(box: Box) -> float:
    return box[1] - box[0] if len(box) == 2 else max(box[1] - box[0], box[3] - box[2])


def _inside(image: Box, box: Box) -> bool:
    """image ⊂ int box."""
    return box[0] < image[0] and image[1] < box[1] and (len(box) == 2 or box[2] < image[2] and image[3] < box[3])


def _meets(a: Box, b: Box) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and (len(a) == 2 or a[2] <= b[3] and b[2] <= a[3])


def _intersect(a: Box, b: Box) -> Box:
    x = max(a[0], b[0]), min(a[1], b[1])
    return x if len(a) == 2 else (*x, max(a[2], b[2]), min(a[3], b[3]))


def _hull(a: Box, b: Box) -> Box:
    x = min(a[0], b[0]), max(a[1], b[1])
    return x if len(a) == 2 else (*x, min(a[2], b[2]), max(a[3], b[3]))


def _contract(
    step: Step, box: Box, span: Box, min_width: float, max_steps: float = math.inf
) -> tuple[Box | None, bool, int]:
    """Contraction B <- B ∩ step(B) from `box`, inside `span`, in at most `max_steps` steps.

    An image inside the interior of its box proves that the box holds exactly
    one zero, which every later box keeps.  The steps go on while each one at
    least halves the longest side, down to the rounding level of `span`, and
    once a box is proven, while they shrink it at all.  An unproven box that
    stalls at most `min_width` wide is widened by its width on each side,
    inside `span`, and tested once more: that proves a zero that the steps
    pressed against an end of the piece.  Returns (box, proven, steps), flat
    boxes all; the box is None when an image misses its box, which then
    holds no zero.  `step` gives its image `_checked`.
    """
    # without this floor a box pressed against t = 0 would shrink on into
    # subnormal floats
    floor = 4.0 * math.ulp(max(map(abs, span)))
    proven = False
    steps = 0
    while steps < max_steps and (image := step(box)) is not None:
        steps += 1
        if not _meets(image, box):
            return None, False, steps
        proven = proven or _inside(image, box)
        size = _width(box)
        box = _intersect(image, box)
        shrunk = _width(box)
        if shrunk >= size if proven else not floor < shrunk < 0.5 * size:
            break
    if steps and not proven and steps < max_steps and _width(box) <= min_width:
        ends = []
        for lo, hi, s_lo, s_hi in zip(box[::2], box[1::2], span[::2], span[1::2]):
            r = max(hi - lo, 4.0 * math.ulp(0.5 * (lo + hi)))
            ends += max(lo - r, s_lo), min(hi + r, s_hi)
        widened = tuple(ends)
        steps += 1
        image = step(widened)
        if image is not None and _inside(image, widened):
            return widened, True, steps
    return box, proven, steps


def _isolate(
    root: Box, excluded: Callable[[Box], bool], step: Step, split: Callable[[Box], Sequence[Box]],
    span: Box, min_width: float, max_boxes: int,
) -> tuple[list[tuple[Box, Box]], list[Box], int] | None:
    """The one subdivision loop of every zero search, from `root`, on flat boxes.

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
        elif _width(box) <= min_width:
            leaves.append(box)
        else:
            stack.extend(split(piece))
    return proven, leaves, processed


def _roots_1d(
    fn: PairFunc, lo: float, hi: float, min_width: float, max_boxes: int, slope: PairFunc | None
) -> tuple[list[Box], list[Box], int] | None:
    """Every zero of fn on [lo, hi]: the Newton-proven boxes, the unproven clusters, and the pieces and steps taken.

    fn encloses the function over a (lo, hi) pair as a pair.  Pieces whose
    enclosure excludes zero are certified zero-free.  With `slope`, which
    encloses fn' over a piece or gives None where it cannot, a piece on which
    fn' excludes zero takes Newton steps (`_contract`): they clear it, or
    prove that a box in it holds exactly one zero.  Other pieces are bisected
    down to `min_width` and merged into clusters when they lie within
    `min_width` of each other.  Both lists hold (lo, hi) pairs, sorted.
    Pieces evaluated and Newton steps share the budget `max_boxes`; None when
    it runs out.
    """

    def excluded(box: Box) -> bool:
        v_lo, v_hi = _checked(fn(*box))
        return not v_lo <= 0.0 <= v_hi

    def step(box: Box) -> Box | None:
        """Newton's N(X) = m - fn(m)/fn'(X) about the midpoint m; None unless fn'(X) excludes 0."""
        if slope is None or (d := slope(*box)) is None or _checked(d)[0] <= 0.0 <= d[1]:
            return None
        m = 0.5 * (box[0] + box[1])
        if d[0] > 0.0:
            return _checked(_sub((m, m), _mul(fn(m, m), (_recip_down(d[1]), _recip_up(d[0])))))
        # m + fn(m) * 1/(-fn'(X)) where fn' < 0
        return _checked(_add((m, m), _mul(fn(m, m), (_recip_down(-d[0]), _recip_up(-d[1])))))

    def split(box: Box) -> list[Box]:
        m = 0.5 * (box[0] + box[1])
        return [(box[0], m), (m, box[1])]

    found = _isolate((lo, hi), excluded, step, split, (lo, hi), min_width, max_boxes)
    if found is None:
        return None
    proven, leaves, processed = found
    # Two proven boxes that overlap hold one zero: fn' has one sign on each,
    # so on their union.  Unproven leaves within min_width form one cluster.
    return _merge([box for _, box in proven], 0.0), _merge(leaves, min_width), processed


def _merge(boxes: list[Box], gap: float) -> list[Box]:
    """Hulls of the runs of sorted (lo, hi) pairs that lie within `gap` of each other."""
    out: list[Box] = []
    for c in sorted(boxes, key=lambda c: c[0]):
        if out and c[0] <= out[-1][1] + gap:
            out[-1] = _hull(out[-1], c)
        else:
            out.append(c)
    return out


@dataclass(frozen=True)
class EdgeAnalysis:
    """Maximum of one objective along one boundary piece, or along a segment of one.

    The restriction's critical points are trapped in derivative-sign clusters,
    so the maximum is the best of {endpoint values, cluster values}; when that
    winner is isolated, `argmax` is a tight enclosure of the maximizer.  `end`
    is the index of the end enclosure (0 for the first, 1 for the second) that
    every candidate tied for the maximum meets, where the maximum then lies
    (on a whole piece, the corner of the region there), or None.
    `iterations` counts the zero search's pieces and Newton steps, the whole
    budget where it ran out.
    """

    edge: EdgeId
    value: Interval
    argmax: Interval
    clusters: tuple[Interval, ...]
    conclusive: bool
    endpoints: tuple[Interval, Interval]
    end: int | None
    iterations: int

    def interior_clusters(self) -> list[Interval]:
        """Stationary clusters disjoint from both end enclosures of the piece;
        a cluster that meets an end duplicates the endpoint candidate."""
        return [c for c in self.clusters if not any(c.intersects(e) for e in self.endpoints)]


def analyze_form(form: RadicalForm1D, endpoints: tuple[Interval, Interval],
                 edge: EdgeId, max_boxes: int) -> EdgeAnalysis:
    """Maximum of the form over [endpoints[0].lo, endpoints[1].hi], a piece of `edge` or a segment of it.

    It lies at an end or at a critical point, a zero of the scaled
    derivative D, which `_roots_1d` proves by Newton steps on the slope of D.
    When the budget `max_boxes` runs out, the analysis is inconclusive and
    its value is the form's range over all of [lo, hi].
    """
    lo, hi = endpoints[0].lo, endpoints[1].hi
    deriv = form.scaled_derivative
    found = _roots_1d(deriv._value_pair, lo, hi, MIN_WIDTH, max_boxes, deriv.slope_pair)
    if found is None:
        span = Interval(lo, hi)
        return EdgeAnalysis(edge, form.value_iv(span), span, (), False, endpoints, None, max_boxes)
    proven, unproven, processed = found
    clusters = [Interval(*c) for c in sorted(proven + unproven, key=lambda c: c[0])]
    candidates = [*endpoints, *clusters]
    evals = [form.value_iv(c) for c in candidates]
    order = sorted(range(len(evals)), key=lambda k: evals[k].hi, reverse=True)
    tied = [candidates[k] for k in order if evals[k].hi >= evals[order[0]].lo]
    end = next((i for i, e in enumerate(endpoints) if all(c.intersects(e) for c in tied)), None)
    value = Interval(max(e.lo for e in evals), max(e.hi for e in evals))
    return EdgeAnalysis(edge, value, hull_of(tied), tuple(clusters), True, endpoints, end, processed)


# ---------------------------------------------------------------------------
# best-first branch-and-bound, shared by the 1-D and 2-D maximizers
# ---------------------------------------------------------------------------


def _best_first(root, bound, split, best: float, cfg: BnBConfig, work: list | None = None) -> Extremum:
    """Best-first branch-and-bound over boxes of any dimension, from the lower bound `best`.

    `bound(box)` is a certified upper bound of the objective over the box;
    `split(box)` returns the children and a certified lower bound of the
    objective sampled before they are bounded (-inf for none), or None once
    the box is not to be split.  `work` is [the incumbent, the boxes split
    and the steps taken so far]; `bound` may read both and raise both.  The
    search stops when the best open bound is within `tol_value` of the
    incumbent or the box budget runs out.
    """
    work = work or [-math.inf, 0]
    best = work[0] = max(best, work[0])
    counter = itertools.count()
    heap = [(-bound(root), next(counter), root)]
    finished_ub = -math.inf
    converged = True

    while heap and -heap[0][0] > best + cfg.tol_value:
        if work[1] >= cfg.max_boxes:
            converged = False
            break
        neg_ub, _, box = heapq.heappop(heap)
        work[1] += 1
        out = split(box)
        if out is None:
            finished_ub = max(finished_ub, -neg_ub)
            continue
        children, sampled = out
        best = work[0] = max(best, sampled, work[0])
        for child in children:
            ub_child = bound(child)
            if ub_child > best:
                heapq.heappush(heap, (-ub_child, next(counter), child))

    upper = max(best, finished_ub, -heap[0][0] if heap else -math.inf)
    if upper - best > cfg.tol_value:
        converged = False
    return Extremum(Interval(best, upper), work[1], converged)


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


@lru_cache(maxsize=None)
def _root_box(region: OmegaRegion) -> tuple[float, float, float, float]:
    """[0, a] x [0, top of the cap], clipped; the cap peaks where the low piece ends.  Built once per region."""
    low = CAP_PIECES[0]
    return _clip_box(0.0, region.constants.iv_a.hi, 0.0, low.lift(low.t_hi)[1].hi)


def maximize_2d(obj: Objective, region: OmegaRegion = REGION, cfg: BnBConfig | None = None) -> Extremum:
    """Verified enclosure of the global maximum of a 2-D objective over the region.

    Each box is bounded once, by `_centred_upper`, a mean-value form about
    Baumann's centre: in the chart for boxes that reach the cap curve within
    one branch, in (x, y) otherwise.  Only where that form has no bound, at
    the rim R = 0, does the box take `ranges.upper` instead.  The incumbent
    comes from a 3 x 3 seed grid, then from at most one corner sample per
    split until the first settle, and from the low end of each settled
    value; f1 and f7, whose maxima lie at corners, never settle.
    An (x, y) box at most KRAWCZYK_WIDTH wide whose gradient holds zero, and
    that meets no concave box S of a settled maximum and lies in no box that
    a Krawczyk step proved free of gradient zeros, tries `_concave`.  A box on
    the face x = a or on curve_low, where f rises towards the face, takes the
    maximum of that piece's restriction over the face from `_face_maximum`.
    Krawczyk steps and the face searches' pieces and Newton steps count as
    boxes, and each settle gets only the budget left, so `iterations` never
    exceeds `max_boxes`.
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
        if max(x2 - x1, y2 - y1) <= TOL_BOX or settled and covered(box) is not None:
            return None
        children = _split_clipped(box)
        # Each top-right corner is sampled once, before either child is
        # bounded.  Only the child at the parent's lower-left corner has a new
        # one: the other child's corner samples as its parent's (clipping
        # lowers its y2 no further than the cap at x2), and the root's corner
        # samples as the seed point (x_in, cap(x_in)).  After the first
        # settle none is taken.  That costs no pruning because each objective
        # that settles (f2-f6, f8, f9) first settles at its global maximum,
        # as `test_no_corner_sample_follows_a_settle` checks; nothing here
        # ensures it.  A sample only raises a lower bound, so the result
        # stays sound either way.
        if not raised and children and children[0][0] == x1 and children[0][2] == y1:
            return children, sample(children[0][1], children[0][3])
        return children, -math.inf

    def within(box: Box, s: Box) -> bool:
        x1, x2, y1, y2 = box
        return s[0] <= x1 and x2 <= s[1] and s[2] <= y1 and y2 <= s[3]

    def covered(box: Box) -> float | None:
        """sup f over a box inside a settled concave box, else None."""
        return next((v.hi for s, v in settled if v is not None and within(box, s)), None)

    def settle(box: tuple[float, float, float, float], face: EdgeId | None, ub: float) -> float:
        """A bound of sup f over the box in place of its mean-value bound `ub`.

        On `face`, the face maximum, unless `ub` already prunes the box; with
        no face, the value `_concave` settles.  `ub` where neither settles.
        """
        nonlocal raised
        x1, x2, y1, y2 = box
        left = cfg.max_boxes - work[1]
        if face is not None:
            if ub <= work[0]:
                return ub
            steps, v = _face_maximum(obj, box, face, left)
        elif max(x2 - x1, y2 - y1) > KRAWCZYK_WIDTH or any(
                _meets(s, box) if v is not None else within(box, s) for s, v in settled):
            return ub
        else:
            steps, s, v = _concave(obj, region, box, left)
            if s is not None:
                settled.append((s, v))
        work[1] += steps
        if v is None:
            return ub
        work[0], raised = max(work[0], v.lo), True
        return v.hi

    def bound(box: tuple[float, float, float, float]) -> float:
        if settled and (v_hi := covered(box)) is not None:
            return v_hi
        ub = _centred_upper(ranges, region, box, settle)
        return ranges.upper(*box) if ub == math.inf else ub

    # (box S, f over x*) of each settled maximum, or (box, None) where a
    # Krawczyk image missed the box, which then holds no gradient zero
    settled: list[tuple[Box, Interval | None]] = []
    # [the incumbent, boxes split, Krawczyk steps and face-search pieces and steps]
    work = [-math.inf, 0]
    # whether any settle has given a value, which ends the corner samples
    raised = False
    # coarse seed so pruning starts immediately
    xs = [x_in * i / 2 for i in range(3)]
    best = max(sample(x, cap_point_down(x) * j / 2) for x in xs for j in range(3))
    return _best_first(_root_box(region), bound, split, best, cfg, work)


def _centred_upper(ranges: MonotoneBounds, region: OmegaRegion, box: tuple[float, ...], settle=None) -> float:
    """Mean-value upper bound of the objective over box ∩ region, about Baumann's centre.

    A box that reaches the cap curve within one cap branch is bounded in that
    branch's chart (x, s = y/c(x)), where the curve is the face s = 1; every
    other box in (x, y).  inf where the radicand is not positive, since the
    form needs the true gradient.  An (x, y) box takes `settle(box, None,
    ub)` in place of its bound ub where both gradient components hold zero,
    and `settle(box, EdgeId.X_A, ub)` where it reaches x = a, f_x > 0 and f_y
    takes both signs; where f_y has one sign, ub is already f at a corner.
    A low-chart box goes to `settle` as `_chart_upper` says.
    """
    x1, x2, y1, y2 = box
    iv_b = region.constants.iv_b
    # Does the box reach the curve?  Plain floats suffice: the test only picks
    # which of two sound bounds to use.
    if x2 <= iv_b.hi and y2 + y2 >= 1.0 + x1 * x1:
        return _chart_upper(ranges, low_chart, box, settle)
    if x1 >= iv_b.lo and 3.0 * y2 * y2 >= 1.0 - x2 * x2:
        # the high branch is the rim R = 0, which the chart box then contains
        return math.inf if ranges.has_radical else _chart_upper(ranges, high_chart, box)
    grad = _gradient(ranges, box)
    if grad is None:
        return math.inf
    ub = _mean_value_upper(lambda x, y: ranges.upper(x, x, y, y), grad, box)
    fx_lo, fx_hi, fy_lo, fy_hi = grad
    if settle is not None and fy_lo <= 0.0 <= fy_hi:
        if fx_lo <= 0.0 <= fx_hi:
            return settle(box, None, ub)
        if fx_lo > 0.0 and x2 >= region.constants.iv_a.hi and fy_lo < 0.0 < fy_hi:
            return settle(box, EdgeId.X_A, ub)
    return ub


def _chart_upper(
    ranges: MonotoneBounds, chart: Callable[[float, float], tuple[float, ...]], box: tuple[float, ...],
    settle=None,
) -> float:
    """Mean-value form of g(x, s) = f(x, s*c(x)) over a chart box that covers box ∩ region.

    The x-derivative g_x = f_x + f_y*s*c' is enclosed as a signed interval:
    at a maximum tangent to the curve its two terms cancel, so the bound is
    exact to second order there.  `settle` is given with the low chart only,
    whose face s = 1 is curve_low: a box on that face where g_s > 0 and g_x
    takes both signs takes `settle(box, EdgeId.CURVE_LOW, ub)` in place of
    its bound ub.
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
    g_x = _add_down(fx_lo, t_lo), _add_up(fx_hi, t_hi)
    g_s = _mul_pair(fy_lo, fy_hi, c_lo, c_hi)

    def f_up(x: float, s: float) -> float:
        cx_lo, cx_hi = chart(x, x)[:2]
        return ranges.upper(x, x, _mul_down(s, cx_lo), _mul_up(s, cx_hi))
    ub = _mean_value_upper(f_up, (*g_x, *g_s), (x1, x2, s1, s2))
    if settle is not None and s2 == 1.0 and g_s[0] > 0.0 and g_x[0] < 0.0 < g_x[1]:
        return settle(box, EdgeId.CURVE_LOW, ub)
    return ub


def _face_maximum(
    obj: Objective, box: tuple[float, ...], face: EdgeId, max_boxes: int
) -> tuple[int, Interval | None]:
    """sup f over box ∩ region for a box on `face` where f rises towards it, and the pieces and steps taken.

    f_x > 0 on the box (x = a), or g_s > 0 on its chart box (curve_low), so
    by the mean value theorem along the normal every point of box ∩ region
    lies below a point of the face segment, [y1, y2] or [x1, x2].  Its bound
    is `analyze_form` on that segment of the piece.  None for a segment that
    leaves the piece (R > 0 on the box keeps it there where f has a radical)
    and for a search that exhausts `max_boxes`.
    """
    x1, x2, y1, y2 = box
    lo, hi = (y1, y2) if face is EdgeId.X_A else (x1, x2)
    if hi > EDGES[face].t_hi.lo:
        return 0, None
    an = analyze_form(obj.restriction(face), (Interval.point(lo), Interval.point(hi)), face, max_boxes)
    return an.iterations, an.value if an.conclusive else None


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


def _mean_value_upper(f_up: Callable[[float, float], float], grad: tuple[float, ...], box: tuple[float, ...]) -> float:
    """f(c) + sup G_x*[x1 - c_x, x2 - c_x] + sup G_y*[y1 - c_y, y2 - c_y] over box = [x1, x2] x [y1, y2], rounded up.

    `f_up(u, v)` bounds f from above at a point and grad = (g_lo_x, g_hi_x,
    g_lo_y, g_hi_y) encloses grad f over the box, so by the mean value
    theorem the sum bounds f over the box for any c in it.  Each c_i is
    Baumann's centre (`_baumann`).
    """
    x1, x2, y1, y2 = box
    cx, ex = _baumann(grad[0], grad[1], x1, x2)
    cy, ey = _baumann(grad[2], grad[3], y1, y2)
    return _add_up(f_up(cx, cy), _add_up(ex, ey))


def _baumann(g_lo: float, g_hi: float, lo: float, hi: float) -> tuple[float, float]:
    """Baumann's centre c of [lo, hi] for a derivative in [g_lo, g_hi], and sup [g_lo, g_hi]*[lo - c, hi - c] rounded up.

    c minimises that term (BIT 28, 1988): the end that the derivative points
    to where it has one sign, else the point g_hi*(hi - c) = g_lo*(lo - c),
    clamped because rounding can put it an ulp outside.
    """
    if g_lo >= 0.0:
        c = hi
    elif g_hi <= 0.0:
        c = lo
    else:
        c = max(lo, min(hi, (g_hi * hi - g_lo * lo) / (g_hi - g_lo)))
    # lo - c <= 0 <= hi - c, so the supremum is one of these two products
    return c, max(_mul_up(g_hi, _add_up(hi, -c)), _mul_up(g_lo, _add_down(lo, -c)))


# ---------------------------------------------------------------------------
# interior critical points
# ---------------------------------------------------------------------------


def _krawczyk(obj: Objective, box: Box, hessian: tuple[float, ...] | None = None) -> Box | None:
    """Krawczyk operator K(B) = p - Y g(p) + (I - Y H(B)) (B - p) on the flat box B, about its midpoint p.

    g is the true gradient, H its interval Hessian over B, or `hessian` where
    the caller has it, and Y = mid(H(B))^-1.
    K(B) inside the interior of B proves that B holds exactly one gradient
    zero, and K(B) ∩ B holds every zero in B.  None where the radicand is not
    positive on B, so that g and H are undefined there, or mid(H(B)) is
    singular; a NaN in H, g or K(B) raises.  Each operation is the one the
    interval formula takes, in its order, on (lo, hi) pairs.
    """
    x1, x2, y1, y2 = box
    if (hessian := hessian or obj.hessian_pairs(*box)) is None:
        return None
    _checked(hessian)
    h11, h12, h22 = hessian[:2], hessian[2:4], hessian[4:]
    px, py = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
    # R > 0 on B, so also at p in B: interval evaluation is inclusion-isotone
    g = _checked(obj.gradient_pairs(px, px, py, py))
    g1, g2 = g[:2], g[2:]
    m11, m12, m22 = 0.5 * (h11[0] + h11[1]), 0.5 * (h12[0] + h12[1]), 0.5 * (h22[0] + h22[1])
    det = m11 * m22 - m12 * m12
    if det == 0.0 or not math.isfinite(det):
        return None
    # Y is symmetric, as H is
    y11, y12, y22 = m22 / det, -m12 / det, m11 / det

    def comb(u: tuple[float, float], v: tuple[float, float], a: float, b: float) -> tuple[float, float]:
        """u*a + v*b, as `Interval.scale` and `+` form it."""
        return _add(_scale_pair(*u, a), _scale_pair(*v, b))

    one = (1.0, 1.0)
    (n12, p12), (n21, p21) = comb(h12, h22, y11, y12), comb(h11, h12, y12, y22)
    e11, e12 = _sub(one, comb(h11, h12, y11, y12)), (-p12, -n12)
    e21, e22 = (-p21, -n21), _sub(one, comb(h12, h22, y12, y22))
    # outward B - p: the endpoints of B need not lie on a float grid about p
    rx, ry = _sub((x1, x2), (px, px)), _sub((y1, y2), (py, py))
    k1 = _add(_add(_sub((px, px), comb(g1, g2, y11, y12)), _mul(e11, rx)), _mul(e12, ry))
    k2 = _add(_add(_sub((py, py), comb(g1, g2, y12, y22)), _mul(e21, rx)), _mul(e22, ry))
    return _checked((*k1, *k2))


def _in_interior(region: OmegaRegion, box: Box) -> bool:
    """The box lies in the interior of the region; the cap rises, then falls, so is least at an end."""
    x1, x2, y1, y2 = box
    return (0.0 < x1 and x2 < region.constants.iv_a.lo and 0.0 < y1
            and y2 < min(cap_point_down(x1), cap_point_down(x2)))


def _negative_definite(obj: Objective, box: Box) -> tuple[float, ...] | None:
    """The flat interval Hessian over the box where it is negative definite, so f is strictly concave there; else None."""
    if (hessian := obj.hessian_pairs(*box)) is None:
        return None
    _checked(hessian)
    h11, h12, h22 = hessian[:2], hessian[2:4], hessian[4:]
    return hessian if h11[1] < 0.0 and _checked(_sub(_mul(h11, h22), _mul(h12, h12)))[0] > 0.0 else None


def _concave(obj: Objective, region: OmegaRegion, box: Box, max_steps: int) -> tuple[int, Box | None, Interval | None]:
    """Settle a branch-and-bound box at an interior maximum: Krawczyk steps, then S and v, or None twice.

    It settles when f is concave on it and at most `max_steps` Krawczyk
    steps prove a box X* in the region interior that holds its one gradient
    zero x*: x* is a point of the region and the maximum over any concave S
    that holds it, and v = f(X*) ∋ f(x*).  S is X* grown by the box's width
    on each side, else the box and X*.  S is the box itself and v None where
    a Krawczyk image misses the box, which then holds no gradient zero.
    """
    if (hessian := _negative_definite(obj, box)) is None:
        return 0, None, None
    # the first step takes the Hessian over the box that the concavity test evaluated
    k, proven, steps = _contract(lambda c: _krawczyk(obj, c, hessian if c is box else None), box,
                                 (-1.0, 1.0, -1.0, 1.0), CLUSTER_WIDTH, max_steps)
    if k is None:
        return steps, box, None
    if not proven or not _in_interior(region, k):
        return steps, None, None
    # each S holds the box: the widened retest of `_contract` may leave X* partly outside it
    x1, x2, y1, y2 = box
    grown = _hull(box, (k[0] - (x2 - x1), k[1] + (x2 - x1), k[2] - (y2 - y1), k[3] + (y2 - y1)))
    s = next((s for s in (grown, _hull(box, k)) if _negative_definite(obj, s) is not None), None)
    return steps, s, None if s is None else obj.value_iv(*_intervals(k))


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
    box or an exhausted budget leaves the search uncertified.  The search
    runs on flat boxes; only the records it returns hold `Interval`s.
    """
    cfg = cfg or BnBConfig()
    ranges = monotone_bounds(obj.id)

    def excluded(box: Box) -> bool:
        """One scaled-gradient component has one sign on the box."""
        g1lo, g1hi, g2lo, g2hi = ranges.scaled_gradient_range(*box)[:4]
        return g1lo > 0.0 or g1hi < 0.0 or g2lo > 0.0 or g2hi < 0.0

    def step(box: Box) -> Box | None:
        return _krawczyk(obj, box) if _width(box) <= KRAWCZYK_WIDTH else None

    # the widened retest of a box pressed against (0, 0) may cross both axes
    found = _isolate(_root_box(region), excluded, step, _split_clipped, (-1.0, 1.0, -1.0, 1.0),
                     CLUSTER_WIDTH, cfg.max_boxes)
    if found is None:
        return CriticalSearch(certified=False, iterations=cfg.max_boxes)
    proven, leaves, processed = found
    out = CriticalSearch(iterations=processed)

    zeros: list[tuple[Box, Box]] = []  # (piece the proof started from, contracted box), one per zero
    unsettled: list[Box] = []
    for piece, box in proven:
        twin = next((z for z in zeros if _meets(z[1], box)), None)
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
            box = _intersect(twin[1], box)
        zeros.append((piece, box))
    for piece, box in zeros:
        if _in_interior(region, box):
            x, y = _intervals(box)
            out.points.append(CriticalPoint(_intervals(piece), (x, y), obj.value_iv(x, y)))
        elif _meets(box, (0.0,) * 4) and obj.stationary_at_origin():
            out.boundary_zeros.append(_intervals(box))
        else:
            unsettled.append(box)
    for box in leaves:
        if ranges.scaled_gradient_range(*box)[4] <= 0.0:
            out.rim_boxes.append(box)
        else:
            unsettled.append(box)
    out.points.extend(CriticalPoint(c, None, obj.value_iv(*c)) for c in map(_intervals, unsettled))
    out.certified = not (unsettled or out.rim_boxes)
    return out


def _split_clipped(box: tuple[float, float, float, float]) -> list[tuple[float, float, float, float]]:
    """The two halves of a box across its longer side, clipped against the cap curve.

    Only the children of an x-split are clipped.  A y-split child keeps its
    parent's x-range, and every box split here descends from the clipped
    root box by these splits, so the parent's top is already at most the cap
    bound over that range, and so is each child's.
    """
    x1, x2, y1, y2 = box
    if x2 - x1 >= y2 - y1:
        xm = 0.5 * (x1 + x2)
        return [clipped for clipped in (_clip_box(x1, xm, y1, y2), _clip_box(xm, x2, y1, y2)) if clipped is not None]
    ym = 0.5 * (y1 + y2)
    return [(x1, x2, y1, ym), (x1, x2, ym, y2)]


# ---------------------------------------------------------------------------
# float grid brute force (soundness cross-check, not verified arithmetic)
# ---------------------------------------------------------------------------


#: side of the sub-blocks of the grid sweep, in x-values and in cap fractions
#: t.  Smaller sub-blocks have tighter bounds, so fewer points survive, but
#: more bounds and more gathering.  One nine-objective call at n = 500, with
#: 6,400 points per batch, took 2.2-2.4 ms at 5, 2.6-2.7 ms at 10 (805 of
#: 22,500 sub-blocks evaluated), 4.4-4.5 ms at 20, 5.5-5.6 ms at 25 and
#: 8.4-10.8 ms at 50, against 10.9 ms for every point in blocks of 25
#: x-values (a shared 2-core Xeon, numpy 2.4.6).  At 5 the call's
#: `tracemalloc` peak is 709 KB, at 10 470 KB.
GRID_BLOCK = 10

#: sub-blocks evaluated at once: a batch of 64 makes arrays of 51 KB, and
#: gathering every surviving sub-block at once peaked at 1.3 MB
GRID_BATCH = 64


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


def _grid_blocks(oids: Sequence[ObjectiveId], n: int):
    """For each objective, a float bound of each GRID_BLOCK-square sub-block of the grid, and their evaluator.

    Yields (bound, values): bound[I, J] bounds the sub-block of x-block I and
    t-block J, and values(cells) gives, as one flat array, the grid values of
    the sub-blocks whose flat indices into `bound` are `cells`.  A grid value
    is a chain of float *, +, -, max and sqrt on computed arrays: the columns
    c*x^i, M(x) and 1 - x^2, y = cap*t, y^2 = y*y and the radicand
    (1 - x^2) - (3y)*y.  Rounding to nearest is monotone, so each operation
    is monotone wherever its exact counterpart is: with non-negative columns
    every product and sum rises in them and in y, and the radicand falls in
    y.  So the same operations, in the same order, on the sub-block's largest
    columns, y from its largest cap and t, and the radicand from its
    smallest y, give a float at least every grid value in it, with no slack.
    ValueError for an objective with a negative coefficient, whose columns
    may be negative, or with a y-power above 2: numpy forms y**2 as y*y, but
    a higher power through libm `pow`, which need not be monotone.
    """
    x, cap, t = _grid_axes(n)
    one_minus_x2 = 1.0 - x * x
    starts = np.arange(0, n, GRID_BLOCK)

    def top(a: np.ndarray) -> np.ndarray:
        """The largest value in each block, as a column."""
        return np.maximum.reduceat(a, starts)[:, None]

    y_hi = top(cap) * top(t).T
    y_lo = np.multiply.outer(np.minimum.reduceat(cap, starts), np.minimum.reduceat(t, starts))
    radical_hi = np.sqrt(np.maximum(top(one_minus_x2) - 3.0 * y_lo * y_lo, 0.0))
    # the indices of each block, clamped at n - 1: a partial block repeats its last row or column
    indices = np.minimum(starts[:, None] + np.arange(GRID_BLOCK), n - 1)

    def values(terms: list[tuple[np.ndarray, int]], mult: np.ndarray | None, cells: np.ndarray) -> np.ndarray:
        """The grid's float operations, in its order, on every point of the sub-blocks `cells`, as one flat array."""
        bi, bj = np.divmod(cells, len(starts))
        # point (row r, column c) of a sub-block at r*GRID_BLOCK + c
        rows = np.repeat(indices[bi], GRID_BLOCK)
        ys = cap[rows] * t[np.tile(indices[bj], GRID_BLOCK).ravel()]
        out = np.zeros_like(ys)
        # y**0 is 1.0, so a j = 0 term adds its x column as it is
        for cx, j in terms:
            out += cx[rows] * ys**j if j else cx[rows]
        if mult is not None:
            out += mult[rows] * np.sqrt(np.maximum(one_minus_x2[rows] - 3.0 * ys * ys, 0.0))
        return out

    for oid in oids:
        obj = OBJECTIVES[oid]
        if not obj.nonnegative or any(j > 2 for _, j in obj.poly):
            raise ValueError(f"{oid.value}: the grid bound needs non-negative coefficients and y-powers at most 2")
        terms = [(float(c) * x**i, j) for (i, j), c in obj.poly.items()]
        mult = _mult_float(obj.mult, x) if obj.has_radical else None
        bound = np.zeros_like(y_hi)
        for cx, j in terms:
            bound += top(cx) * y_hi**j if j else top(cx)
        if mult is not None:
            bound += top(mult) * radical_hi
        yield bound, partial(values, terms, mult)


def grid_maximum(oids: ObjectiveId | Sequence[ObjectiveId], n: int = 500) -> float | tuple[float, ...]:
    """Plain float maxima over an n-by-n grid on the region.

    A float-only cross-check of the verified maxima; it decides nothing on its
    own.  One objective gives its maximum, a sequence their maxima.  Each
    objective evaluates the sub-block of `_grid_blocks` with the highest
    bound, then, GRID_BATCH at a time, every sub-block whose bound lies above
    the running maximum.  A sub-block it skips holds no value above that
    maximum, and every grid point it evaluates takes the float operations of
    the whole grid, in its order (c*x^i*y^j summed from zero in `poly` order,
    then M(x) times the radical), so each maximum is the same bit for bit.
    """
    if isinstance(oids, ObjectiveId):
        return grid_maximum((oids,), n)[0]
    out = []
    for bound, values in _grid_blocks(oids, n):
        flat = bound.ravel()
        best, cells = -math.inf, flat.argmax(keepdims=True)
        while cells.size:
            best = max(best, float(values(cells).max()))
            # an evaluated sub-block leaves the candidates
            flat[cells] = -math.inf
            cells = np.flatnonzero(flat > best)[:GRID_BATCH]
        out.append(best)
    return tuple(out)


def grid_point(x: float, y: float, n: int = 500) -> tuple[float, float]:
    """The grid point of `grid_maximum` nearest (x, y); the grid is the same for every objective."""
    xs, cap, t = _grid_axes(n)
    i = min(max(round(x / CONSTANTS.a_float * (n - 1)), 0), n - 1)
    j = min(round(y / cap[i] * (n - 1)), n - 1)
    return float(xs[i]), float(cap[i] * t[j])

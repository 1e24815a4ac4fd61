"""In-memory spans and counters around the public functions of each layer.

The tracer patches, for the duration of a traced run, the name binding that
each caller actually looks up (``claims.maximize_2d`` as well as
``optimize.maximize_2d``), so every call passes through exactly one wrapper.
Spans record name, start, end, parent span and op id; counters are bumped at
the same boundaries.  Nothing under ``src/`` is modified: ``uninstall``
restores every original binding.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable

from grunsky_bounds import claims, objectives, optimize, oracle, series
from grunsky_bounds.interval import Interval
from workloads import tol_label

#: tolerances whose BnB time and box count form the work-precision curve
CURVE_TOLS = ("1e-7", "1e-9", "1e-11")

#: span name -> per-layer self-time metric
SELF_TIME_SPANS = {
    "claims.edges": "claims.edges.self_s",
    "optimize.bnb": "optimize.bnb.self_s",
    "optimize.critical": "optimize.critical.self_s",
    "optimize.grid": "optimize.grid.self_s",
    "optimize.root": "optimize.root.self_s",
    "oracle.table": "oracle.table.self_s",
    "oracle.identities": "oracle.identities.self_s",
    "oracle.ineq": "oracle.ineq.self_s",
    "oracle.gamma": "oracle.gamma.self_s",
    "series.odd_transform": "series.odd_transform.self_s",
    "series.log": "series.log.self_s",
}

#: counter key -> per-layer count metric
COUNTS = {
    "objectives.upper": "objectives.upper_calls",
    "objectives.lower": "objectives.lower_calls",
    "objectives.gradient_range": "objectives.gradient_range_calls",
    "objectives.value_iv": "objectives.value_iv_calls",
    "objectives.restriction_value_iv": "objectives.restriction_value_iv_calls",
    "interval.new": "interval.new",
    "interval.add": "interval.add",
    "interval.mul": "interval.mul",
    "interval.pow": "interval.pow",
    "interval.sqrt": "interval.sqrt",
    "series.mul": "series.mul.calls",
}

# SuiteContext cache methods: name -> (cache attribute, cache key of the call
# arguments); f1_extremum caches one value in `_f1`, None until computed
_CTX_CACHES: dict[str, tuple[str, Callable[..., Any] | None]] = {
    "extremum": ("_extrema", lambda oid: oid),
    "f1_extremum": ("_f1", None),
    "edge": ("_edges", lambda oid, edge: (oid, edge)),
    "critical": ("_critical", lambda oid: oid),
    "table": ("_tables", lambda preset, order=8: (preset, order)),
    "gamma": ("_gammas", lambda preset: preset),
}


def _cached_entries(ctx: claims.SuiteContext, attr: str) -> int:
    cache = getattr(ctx, attr)
    return len(cache) if isinstance(cache, dict) else int(cache is not None)


def _bnb_cfg(args: tuple, kwargs: dict, position: int) -> optimize.BnBConfig:
    cfg = kwargs.get("cfg", args[position] if len(args) > position else None)
    return cfg or optimize.BnBConfig()


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name: str, start: float, parent: int, op: str | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.info}


class Tracer:
    """Spans and counters kept in memory; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._op: str | None = None
        self._patches: list[tuple[Any, str, Any]] = []
        #: time source of the spans; a pass sets it to its Sampler.clock
        self.clock: Callable[[], float] = time.perf_counter

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str, op: str | None = None) -> int:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if not self._stack:
            self._op = None
        return span

    def _spanned(self, name: str, fn: Callable, on_result=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.end(index)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _ctx_cached(self, method: str, fn: Callable) -> Callable:
        """Count calls, hits (key cached before the call) and misses (cache grew)."""
        attr, key_of = _CTX_CACHES[method]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs):
            if key_of is None:
                hit = getattr(ctx, attr) is not None
            else:
                hit = key_of(*args, **kwargs) in getattr(ctx, attr)
            before = _cached_entries(ctx, attr)
            result = fn(ctx, *args, **kwargs)
            miss = _cached_entries(ctx, attr) > before
            counts["ctx.calls"] += 1
            counts["ctx.hits"] += hit
            counts["ctx.misses"] += miss
            counts[f"ctx.calls.{method}"] += 1
            counts[f"ctx.misses.{method}"] += miss
            return result

        return wrapper

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")

        def on_edges(span, args, kwargs, result):
            span.info.update(clusters=len(result.clusters), conclusive=result.conclusive)

        def on_bnb(position):
            def record(span, args, kwargs, result):
                span.info.update(
                    tol=tol_label(_bnb_cfg(args, kwargs, position).tol_value),
                    boxes=result.iterations,
                    width=result.value.width,
                    converged=result.converged,
                )
            return record

        def on_critical(span, args, kwargs, result):
            span.info.update(
                boxes=result.iterations,
                rim_boxes=len(result.rim_boxes),
                points=len(result.points),
                certified_points=sum(p.certified for p in result.points),
            )

        self._patch(claims, "analyze_form", self._spanned("claims.edges", claims.analyze_form, on_edges))
        for owner in (claims, optimize):
            self._patch(owner, "maximize_1d", self._spanned("optimize.bnb", owner.maximize_1d, on_bnb(3)))
            self._patch(owner, "maximize_2d", self._spanned("optimize.bnb", owner.maximize_2d, on_bnb(2)))
        self._patch(claims, "interior_critical_points",
                    self._spanned("optimize.critical", claims.interior_critical_points, on_critical))
        self._patch(claims, "grid_maximum", self._spanned("optimize.grid", claims.grid_maximum))
        # claims imports find_root_1d from optimize at call time
        self._patch(optimize, "find_root_1d", self._spanned("optimize.root", optimize.find_root_1d))

        for fn_name, span_name in (
            ("grunsky_table", "oracle.table"),
            ("check_coefficient_identities", "oracle.identities"),
            ("check_inequalities", "oracle.ineq"),
            ("gamma_from_series", "oracle.gamma"),
        ):
            wrapper = self._spanned(span_name, getattr(oracle, fn_name))
            for owner in (oracle, claims):
                self._patch(owner, fn_name, wrapper)
        self._patch(oracle, "odd_transform", self._spanned("series.odd_transform", oracle.odd_transform))
        bivariate = series.BivariateSeries
        self._patch(bivariate, "log", self._spanned("series.log", bivariate.log))
        self._patch(bivariate, "mul", self._counted("series.mul", bivariate.mul))

        bounds = objectives.MonotoneBounds
        for attr, key in (("upper", "objectives.upper"), ("lower", "objectives.lower"),
                          ("scaled_gradient_range", "objectives.gradient_range")):
            self._patch(bounds, attr, self._counted(key, getattr(bounds, attr)))
        self._patch(objectives.Objective, "value_iv",
                    self._counted("objectives.value_iv", objectives.Objective.value_iv))
        self._patch(objectives.RadicalForm1D, "value_iv",
                    self._counted("objectives.restriction_value_iv", objectives.RadicalForm1D.value_iv))

        for attr, key in (("__init__", "interval.new"), ("__add__", "interval.add"),
                          ("__mul__", "interval.mul"), ("__pow__", "interval.pow"),
                          ("sqrt_clamped", "interval.sqrt")):
            self._patch(Interval, attr, self._counted(key, Interval.__dict__[attr]))

        for method in _CTX_CACHES:
            self._patch(claims.SuiteContext, method,
                        self._ctx_cached(method, claims.SuiteContext.__dict__[method]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------------

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self time per span name over spans[first:last]: duration minus children."""
        child_time = [0.0] * (last - first)
        for index in range(first, last):
            parent = self.spans[index].parent
            if parent >= first:
                child_time[parent - first] += self.spans[index].duration
        out: dict[str, float] = {}
        for index in range(first, last):
            span = self.spans[index]
            out[span.name] = out.get(span.name, 0.0) + span.duration - child_time[index - first]
        return out

    def records(self) -> list[dict]:
        return [span.as_record(index) for index, span in enumerate(self.spans)]

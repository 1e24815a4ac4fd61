"""The three benchmark workloads, their inputs, operations and output checks.

A workload is built from the benchmark seed once (inputs and reference
outputs, untimed), then runs whole passes.  A pass is a list of operations;
each operation is timed on its own, and every output is checked after the
pass, outside the timed region.  An operation fails if it raises, does not
converge, or fails its output check.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import calibrate
from grunsky_bounds import claims, objectives, optimize, oracle, report
from grunsky_bounds.domain import REGION

#: requested enclosure widths of the work-precision curve
PRECISION_TOLS = (1e-7, 1e-9, 1e-11)
ORACLE_ORDERS = (8, 12, 16)
ORACLE_VECTORS = 200
#: the suite's own oracle tolerances (claims._run_oracle_*)
IDENTITY_TOL = 1e-10
SLACK_TOL = -1e-10
GAMMA_TOL = 1e-12
#: plain-float rounding allowance of the grid evaluation (claims._run_property_bnb)
GRID_SLACK = 1e-12

#: ops that fail on the program this benchmark was defined against, with the
#: cause; an op that fails and is not listed here makes the run incorrect
KNOWN_FAILURES: dict[str, dict[str, str]] = {
    "suite": {},
    "precision": {
        "f1@1e-11": "unconverged: 1-D boxes reach tol_box 1e-9 with width 8.9e-10",
        "f6@1e-11": "unconverged: 40k boxes stop at the tol_box 1e-9 floor on curve_low",
        "f7@1e-11": "unconverged: corner maximum on curve_high, boxes stop at tol_box 1e-9",
    },
    "oracle": {
        "geometric@12": "asymmetry: table asymmetry 1.3e-9 above SYMMETRY_TOL 1e-13",
        "geometric@16": "asymmetry: table asymmetry 1.4e-6 above SYMMETRY_TOL 1e-13",
        "koebe@12": "slack: min inequality slack about -1e-4 (seed-dependent) below -1e-10",
        "koebe@16": "asymmetry: table asymmetry 11.25 above SYMMETRY_TOL 1e-13",
    },
}


def tol_label(tol: float) -> str:
    """"1e-7" for 1e-07; the plain repr for tolerances off the decade grid."""
    exp = round(math.log10(tol))
    return f"1e{exp}" if tol == 10.0**exp else repr(tol)


@dataclass
class OpResult:
    op: str
    #: Sampler.clock at the start and end of the op
    start: float
    end: float
    output: Any = None
    error: str | None = None
    failure: str | None = None  # set by the output check

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    #: wall time of the pass, calibration samples excluded
    seconds: float
    ops: list[OpResult]
    #: (clock, seconds) calibration samples taken while the pass ran
    calibration: list[tuple[float, float]]
    #: sum of Extremum.iterations over the BnB results the workload can see
    visible_boxes: int = 0
    #: workload-side failure causes, by cause
    counts: dict[str, int] = field(default_factory=dict)
    #: traced passes only: [first, last) index range into Tracer.spans, counter deltas
    span_range: tuple[int, int] = (0, 0)
    counters: Counter = field(default_factory=Counter)

    @property
    def slowdown(self) -> float:
        """Machine slowdown during this pass, relative to the reference speed."""
        return calibrate.slowdown([seconds for _, seconds in self.calibration])

    def op_slowdown(self, op: OpResult) -> float:
        return calibrate.local_slowdown(self.calibration, op.start, op.end)


class Workload:
    name = ""

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def ops(self) -> list[tuple[str, Callable[[], Any]]]:
        raise NotImplementedError

    def check(self, result: Pass) -> None:
        """Set `failure` on every op whose output is wrong, and `visible_boxes`."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill lazily built caches before any pass is timed."""

    def run_pass(self, tracer=None) -> Pass:
        ops = self.ops()
        results: list[OpResult] = []
        with calibrate.Sampler() as sampler:
            clock = sampler.clock
            if tracer is not None:
                tracer.clock = clock
            start = clock()
            for op_id, call in ops:
                span = tracer.begin("op", op_id) if tracer is not None else None
                t0 = clock()
                try:
                    output, error = call(), None
                except Exception as exc:  # an op that raises is a failed op
                    output, error = None, f"{type(exc).__name__}: {exc}"
                results.append(OpResult(op_id, t0, clock(), output, error, failure=error))
                if span is not None:
                    tracer.end(span)
            seconds = clock() - start
        result = Pass(seconds, results, sampler.samples)
        self.check(result)
        return result


# ---------------------------------------------------------------------------
# suite: all 15 claims, one op per claim, fresh SuiteContext per pass
# ---------------------------------------------------------------------------


def _comparable(record: dict) -> dict:
    """A report record without its timing field, as JSON would carry it."""
    return {k: v for k, v in json.loads(json.dumps(record)).items() if k != "runtime_ms"}


class SuiteWorkload(Workload):
    name = "suite"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.cfg = claims.SuiteConfig(seed=seed)
        self.reference = self._cli_reference()
        self._ctx: claims.SuiteContext | None = None

    def _cli_reference(self) -> dict[str, dict]:
        """`grunsky-bounds verify --format json` for this seed, in its own interpreter."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "grunsky_bounds.cli", "verify", "--format", "json",
             "--seed", str(self.seed)],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            raise RuntimeError(f"reference verify run failed: {proc.stderr.strip()[-500:]}")
        return {rec["claim_id"]: _comparable(rec) for rec in json.loads(proc.stdout)}

    def ops(self):
        self._ctx = ctx = claims.SuiteContext(self.cfg)
        return [(spec.claim_id, lambda cid=spec.claim_id: report.run_suite([cid], ctx=ctx))
                for spec in claims.CLAIMS]

    def warm_up(self):
        for _, call in self.ops():
            call()

    def check(self, result):
        for op in result.ops:
            if op.failure:
                continue
            rows = op.output
            if len(rows) != 1 or rows[0].claim_id != op.op:
                op.failure = f"expected one row for {op.op}"
            elif rows[0].status != claims.PASS:
                op.failure = f"status {rows[0].status}: {rows[0].note}"
            elif _comparable(rows[0].as_record()) != self.reference.get(op.op):
                op.failure = "record differs from `verify --format json`"
        ctx = self._ctx
        extrema = list(ctx._extrema.values()) + ([ctx._f1] if ctx._f1 is not None else [])
        result.visible_boxes = sum(ext.iterations for ext in extrema)


# ---------------------------------------------------------------------------
# precision: every objective at widths 1e-7, 1e-9, 1e-11 through the BnB
# ---------------------------------------------------------------------------


class PrecisionWorkload(Workload):
    name = "precision"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.rng = random.Random(seed)
        self.grid_max = {oid: optimize.grid_maximum(oid) for oid in objectives.ObjectiveId}

    @staticmethod
    def _maximize(oid: objectives.ObjectiveId, tol: float):
        cfg = optimize.BnBConfig(tol_value=tol)
        if oid is objectives.ObjectiveId.F1:
            form = objectives.F1_FORM
            return optimize.maximize_1d(form.value_iv, form.lo, form.hi, cfg)
        return optimize.maximize_2d(objectives.OBJECTIVES[oid], REGION, cfg)

    def ops(self):
        plan = [(oid, tol) for oid in objectives.ObjectiveId for tol in PRECISION_TOLS]
        self.rng.shuffle(plan)
        return [(f"{oid.value}@{tol_label(tol)}",
                 lambda oid=oid, tol=tol: self._maximize(oid, tol)) for oid, tol in plan]

    def warm_up(self):
        for oid in objectives.ObjectiveId:
            self._maximize(oid, PRECISION_TOLS[0])

    def check(self, result):
        done = [op for op in result.ops if op.output is not None]
        for op in done:
            ext = op.output
            oid = objectives.ObjectiveId(op.op.split("@")[0])
            others = [o.output.value for o in done
                      if o is not op and o.op.split("@")[0] == oid.value]
            if not ext.converged:
                op.failure = "unconverged"
            elif ext.value.hi < self.grid_max[oid] - GRID_SLACK:
                op.failure = f"enclosure top {ext.value.hi!r} below grid maximum"
            elif not all(ext.value.intersects(v) for v in others):
                op.failure = "enclosure disjoint from another width's enclosure"
        result.visible_boxes = sum(op.output.iterations for op in result.ops
                                   if op.output is not None)


# ---------------------------------------------------------------------------
# oracle: every preset at orders 8, 12, 16, as `grunsky --preset P --order N`
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleOutput:
    max_residual: float
    min_slack: float
    gamma_drift: float


class OracleWorkload(Workload):
    name = "oracle"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.inputs = []
        for index, (preset, order) in enumerate(
            (p, n) for p in oracle.PRESETS for n in ORACLE_ORDERS
        ):
            rng = np.random.default_rng([seed, index])
            vectors = [oracle.random_test_vector(rng, max_len=order)
                       for _ in range(ORACLE_VECTORS)]
            self.inputs.append((f"{preset}@{order}", oracle.PRESETS[preset](max(2 * order, 8)),
                                order, vectors))

    @staticmethod
    def _check_series(f, order, vectors) -> OracleOutput:
        table = oracle.grunsky_table(f, order)
        identities = oracle.check_coefficient_identities(f, order)
        slack = min(oracle.check_inequalities(table, vec).min_slack for vec in vectors)
        gamma = oracle.gamma_from_series(f)
        return OracleOutput(identities.max_residual, slack, gamma.max_difference)

    def ops(self):
        return [(op_id, lambda f=f, n=n, v=v: self._check_series(f, n, v))
                for op_id, f, n, v in self.inputs]

    def check(self, result):
        counts = {"asymmetry": 0, "slack": 0}
        for op in result.ops:
            if op.error is not None:
                if "asymmetry" in op.error:
                    counts["asymmetry"] += 1
                continue
            out = op.output
            if not out.max_residual <= IDENTITY_TOL:
                op.failure = f"identity residual {out.max_residual:.2e}"
            elif not out.min_slack >= SLACK_TOL:
                op.failure = f"slack {out.min_slack:.2e}"
                counts["slack"] += 1
            elif not out.gamma_drift <= GAMMA_TOL:
                op.failure = f"gamma drift {out.gamma_drift:.2e}"
        result.counts = counts


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SuiteWorkload, PrecisionWorkload, OracleWorkload)
}

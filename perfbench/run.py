"""Benchmark of grunsky-bounds: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads are ``suite``, ``precision`` and ``oracle`` (see perfbench/README.md).
The run is single-process and single-threaded apart from the short-lived
interpreters that time set-up and produce the reference ``verify`` report.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the environment stamp and the detail behind each metric.  With
``--trace 1`` the spans are also written to ``.perfbench/`` in the root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 11
#: a run measures at least this many ops, so >= 10 samples lie beyond p90
MIN_OPS = 100


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "precision", "oracle"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def _spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _die(f"{path} not found")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics 'inclusive')."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _environment(args: argparse.Namespace) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_times() -> list[dict]:
    """import and first-use table build, each in a fresh interpreter.

    Each probe carries the slowdown of calibration samples taken right
    before and after it.
    """
    import calibrate

    probe = os.path.join(HERE, "setup_probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        samples = [calibrate.sample() for _ in range(2)]
        proc = subprocess.run([sys.executable, probe, SRC], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        samples += [calibrate.sample() for _ in range(2)]
        if proc.returncode != 0:
            _die(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        times["slowdown"] = calibrate.slowdown(samples)
        out.append(times)
    return out


def _measure(workload, seconds: float, min_ops: int, tracer=None) -> list:
    """Whole passes until `seconds` have elapsed and at least `min_ops` ops ran."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            first, before = len(tracer.spans), tracer.counts.copy()
        result = workload.run_pass(tracer)
        if tracer is not None:
            result.span_range = (first, len(tracer.spans))
            result.counters = tracer.counts - before
        passes.append(result)
        ops = sum(len(p.ops) for p in passes)
        if time.perf_counter() - start >= seconds and ops >= min_ops:
            return passes


def _failures(passes: list) -> dict[str, str]:
    return {op.op: op.failure for p in passes for op in p.ops if op.failure}


def _end_to_end(passes: list, setup: list[dict]) -> dict[str, float]:
    """Times are rescaled to the reference speed (see calibrate.py)."""
    latencies = [op.seconds / p.op_slowdown(op) for p in passes for op in p.ops]
    failed = sum(1 for p in passes for op in p.ops if op.failure)
    return {
        "pass_s": statistics.median(p.seconds / p.slowdown for p in passes),
        "op_ms_p50": 1000.0 * _quantile(latencies, 0.5),
        "op_ms_p90": 1000.0 * _quantile(latencies, 0.9),
        "ok_frac": 1.0 - failed / len(latencies),
        "setup_s": statistics.median((s["import_s"] + s["tables_s"]) / s["slowdown"]
                                     for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_metrics(tracer, result, claim_ids) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from tracer import COUNTS, CURVE_TOLS, SELF_TIME_SPANS

    first, last = result.span_range
    spans = tracer.spans[first:last]
    self_times = tracer.self_times(first, last)
    counts = result.counters
    out: dict[str, float] = {metric: self_times.get(name, 0.0)
                             for name, metric in SELF_TIME_SPANS.items()}
    out.update({metric: counts[key] for key, metric in COUNTS.items()})

    def named(name):
        return [s for s in spans if s.name == name]

    ops = named("op")
    for cid in claim_ids:
        out[f"claims.op_ms.{cid}"] = 1000.0 * sum(s.duration for s in ops if s.op == cid)
    out["trace.op_share"] = sum(s.duration for s in ops) / result.seconds

    calls = counts["ctx.calls"]
    out["claims.ctx.calls"] = calls
    out["claims.ctx.hits"] = counts["ctx.hits"]
    out["claims.ctx.misses"] = counts["ctx.misses"]
    out["claims.ctx.hit_ratio"] = counts["ctx.hits"] / calls if calls else 0.0

    edges = named("claims.edges")
    out["claims.edges.calls"] = len(edges)
    out["claims.edges.clusters"] = sum(s.info["clusters"] for s in edges if s.info)
    out["claims.edges.inconclusive"] = sum(not s.info["conclusive"] for s in edges if s.info)

    bnb = [s for s in named("optimize.bnb") if s.info]
    out["optimize.bnb.calls"] = len(bnb)
    out["optimize.bnb.boxes"] = sum(s.info["boxes"] for s in bnb)
    out["optimize.bnb.width_max"] = max((s.info["width"] for s in bnb), default=0.0)
    out["optimize.bnb.unconverged"] = sum(not s.info["converged"] for s in bnb)
    for tol in CURVE_TOLS:
        at_tol = [s for s in bnb if s.info["tol"] == tol]
        out[f"optimize.bnb.s.tol{tol}"] = sum(s.duration for s in at_tol)
        out[f"optimize.bnb.boxes.tol{tol}"] = sum(s.info["boxes"] for s in at_tol)

    critical = [s for s in named("optimize.critical") if s.info]
    points = sum(s.info["points"] for s in critical)
    out["optimize.critical.boxes"] = sum(s.info["boxes"] for s in critical)
    out["optimize.critical.rim_boxes"] = sum(s.info["rim_boxes"] for s in critical)
    out["optimize.critical.points"] = points
    out["optimize.critical.certified_ratio"] = (
        sum(s.info["certified_points"] for s in critical) / points if points else 0.0
    )

    boxes = out["optimize.bnb.boxes"] + out["optimize.critical.boxes"]
    evals = sum(counts[k] for k in COUNTS if k.startswith("objectives."))
    out["objectives.evals_per_box"] = evals / boxes if boxes else 0.0

    out["oracle.ineq.calls"] = len(named("oracle.ineq"))
    out["oracle.fail.asymmetry"] = result.counts.get("asymmetry", 0)
    out["oracle.fail.slack"] = result.counts.get("slack", 0)
    return out


def _consistency(tracer, result, share_bound: float) -> list[str]:
    """Trace checks: cache balance, BnB box totals, op spans against pass wall time."""
    problems = []
    counts = result.counters
    if counts["ctx.calls"] != counts["ctx.hits"] + counts["ctx.misses"]:
        problems.append(f"ctx calls {counts['ctx.calls']} != hits {counts['ctx.hits']}"
                        f" + misses {counts['ctx.misses']}")
    first, last = result.span_range
    traced_boxes = sum(
        s.info["boxes"] for s in tracer.spans[first:last]
        if s.name == "optimize.bnb" and s.info
        and (s.parent < 0 or tracer.spans[s.parent].name != "claims.edges")
    )
    if traced_boxes != result.visible_boxes:
        problems.append(f"traced BnB boxes {traced_boxes} != Extremum.iterations sum"
                        f" {result.visible_boxes}")
    share = sum(s.duration for s in tracer.spans[first:last] if s.name == "op") / result.seconds
    if abs(share - 1.0) > share_bound:
        problems.append(f"op spans cover {share:.4f} of the pass wall time")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "grunsky_bounds", "__init__.py")):
        _die(f"no grunsky_bounds sources under {SRC}")
    spec = _spec()
    # numpy's BLAS pool would add threads; the benchmark is single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sys.path.insert(0, SRC)

    import grunsky_bounds
    from grunsky_bounds.claims import CLAIM_IDS
    from tracer import Tracer
    from workloads import KNOWN_FAILURES, WORKLOADS

    if os.path.dirname(os.path.abspath(grunsky_bounds.__file__)) != os.path.join(SRC, "grunsky_bounds"):
        _die(f"imported grunsky_bounds from {grunsky_bounds.__file__}, not {SRC}")

    env = _environment(args)
    print(json.dumps({"env": env}), flush=True)
    setup = _setup_times()
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    workload.warm_up()

    problems: list[str] = []
    if args.trace == 0:
        passes = _measure(workload, args.seconds, MIN_OPS)
        metrics = _end_to_end(passes, setup)
        expected = [m["name"] for m in spec["end_to_end"]]
    else:
        untraced = _measure(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _measure(workload, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        per_pass = [_layer_metrics(tracer, p, CLAIM_IDS) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
        metrics["setup.tables_s"] = statistics.median(s["tables_s"] for s in setup)
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.seconds / p.slowdown for p in traced)
            / statistics.median(p.seconds / p.slowdown for p in untraced))
        for p in traced:
            problems.extend(_consistency(tracer, p, bounds["pass_s"]))
        passes = untraced + traced
        expected = [m["name"] for m in spec["per_layer"]]
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "metrics": metrics,
                       "passes": [{"seconds": p.seconds, "span_range": p.span_range,
                                   "counters": dict(p.counters)} for p in traced],
                       "spans": tracer.records()}, handle)

    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        _die(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")

    failures = _failures(passes)
    unexpected = {op: why for op, why in failures.items()
                  if op not in KNOWN_FAILURES[args.workload]}
    problems.extend(f"{op}: {why}" for op, why in sorted(unexpected.items()))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    latencies = [op.seconds for p in passes for op in p.ops]
    pass_times = [p.seconds for p in passes]
    print(json.dumps({"detail": {
        "passes": len(passes),
        "unscaled_pass_s_quartiles": [_quantile(pass_times, q) for q in (0.25, 0.5, 0.75)],
        "slowdown_quartiles": [_quantile([p.slowdown for p in passes], q)
                               for q in (0.25, 0.5, 0.75)],
        "ops": len(latencies),
        "failed_ops": failures,
        "setup_probes": setup,
    }}))
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(latencies),
        "failed": sum(1 for p in passes for op in p.ops if op.failure),
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]} for name in expected},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

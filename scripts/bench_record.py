"""Record one BENCH_<n>.json: the benchmark's results, both end-to-end wall times and the work-precision curve.

    python scripts/bench_record.py --out BENCH_1.json
    python scripts/bench_record.py --out /tmp/bench.json --seconds 8

Run it from the repository root on an otherwise idle machine.  It runs
`perfbench/run.py` as it is, in child processes, at seed 1 (`SEED`), and
records:

- `env`: the benchmark's environment stamp, without the per-run fields, plus
  `PYTHONDONTWRITEBYTECODE`, which decides whether imports read cached
  bytecode;
- `end_to_end`: the result line and the detail line of one `--trace 0` run
  of `suite`, `precision` and `oracle`;
- `per_layer`: the metrics of one `--trace 1` run of `suite` and `precision`;
- `tier1`: the time of the Tier-1 test run and its summary line;
- `verify`: the time of `grunsky-bounds verify --format json`, split into a
  bare interpreter, `import grunsky_bounds.cli` and the rest, each the
  median of `REPEATS` rounds that alternate the three commands;
- `work_precision`: `maximize_2d` for f1-f9 at widths 1e-5 to 1e-11, with
  the median time of `REPEATS` calls after a warm-up call, the boxes and
  the width reached.

The speed of a shared machine swings by half within seconds, so every time
outside the benchmark's own is rescaled to the benchmark's reference speed
the way its set-up probes are: divided by the slowdown of its calibration
kernel (`perfbench/calibrate.py`), sampled twice just before and twice just
after each timed command or call.  Counts (boxes, tests, ops that failed)
are deterministic; the numbers of passes and ops that fit in `--seconds`
are not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOLS = (1e-5, 1e-7, 1e-9, 1e-11)
SEED = 1
REPEATS = 5
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import calibrate  # noqa: E402  the benchmark's machine-speed kernel, read as it is


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def _perfbench(workload: str, seconds: float, trace: int) -> dict:
    """The env stamp, detail and result lines of one perfbench run."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    env = next(line["env"] for line in lines if "env" in line)
    detail = next(line["detail"] for line in lines if "detail" in line)
    return {"env": env, "detail": detail, "result": lines[-1]}


def _timed(fn):
    """fn()'s result and its time at the reference speed: wall time over the slowdown sampled around it."""
    samples = [calibrate.sample() for _ in range(2)]
    start = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - start
    samples += [calibrate.sample() for _ in range(2)]
    return out, seconds / calibrate.slowdown(samples)


def _run(cmd: list[str], **kwargs) -> tuple[subprocess.CompletedProcess, float]:
    return _timed(lambda: subprocess.run(cmd, cwd=ROOT, env=_env(), text=True, **kwargs))


def _tier1() -> dict:
    run, seconds = _run(TIER1, capture_output=True)
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    return {"seconds": seconds, "summary": summary, "exit_code": run.returncode}


def _verify() -> dict:
    commands = {
        "interpreter": [sys.executable, "-c", "pass"],
        "import": [sys.executable, "-c", "import grunsky_bounds.cli"],
        "verify": [sys.executable, "-m", "grunsky_bounds.cli", "verify", "--format", "json"],
    }
    runs: dict[str, list[float]] = {name: [] for name in commands}
    codes = set()
    for _ in range(REPEATS):
        for name, cmd in commands.items():
            run, seconds = _run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            runs[name].append(seconds)
            if name == "verify":
                codes.add(run.returncode)
    med = {name: statistics.median(times) for name, times in runs.items()}
    return {
        "repeats": REPEATS,
        "interpreter_s": med["interpreter"],
        "import_s": med["import"] - med["interpreter"],
        "rest_s": med["verify"] - med["import"],
        "total_s": med["verify"],
        "exit_codes": sorted(codes),
        "runs_s": runs,
    }


def _work_precision() -> list[dict]:
    sys.path.insert(0, SRC)
    from grunsky_bounds.domain import REGION
    from grunsky_bounds.objectives import OBJECTIVES, ObjectiveId
    from grunsky_bounds.optimize import BnBConfig, maximize_2d

    rows = []
    for oid in ObjectiveId:
        obj = OBJECTIVES[oid]
        for tol in TOLS:
            cfg = BnBConfig(tol_value=tol)
            ext = maximize_2d(obj, REGION, cfg)  # warms the lazily built caches
            times = [_timed(lambda: maximize_2d(obj, REGION, cfg))[1] for _ in range(REPEATS)]
            rows.append({"objective": oid.value, "tol": tol, "seconds": statistics.median(times),
                         "boxes": ext.iterations, "width": ext.value.hi - ext.value.lo,
                         "converged": ext.converged})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--seconds", type=float, default=30.0, help="per perfbench run")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    end_to_end = {w: _perfbench(w, args.seconds, 0) for w in ("suite", "precision", "oracle")}
    per_layer = {w: _perfbench(w, args.seconds, 1) for w in ("suite", "precision")}
    env = {k: v for k, v in end_to_end["suite"]["env"].items() if k not in ("workload", "trace")}
    env["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    record = {
        "env": env,
        "end_to_end": {w: {"result": r["result"], "detail": r["detail"]} for w, r in end_to_end.items()},
        "per_layer": {w: {"correct": r["result"]["correct"],
                          "metrics": {k: m["value"] for k, m in r["result"]["metrics"].items()}}
                      for w, r in per_layer.items()},
        "tier1": _tier1(),
        "verify": _verify(),
        "work_precision": _work_precision(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

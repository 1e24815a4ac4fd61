"""Print every branch-and-bound result of a fixed grid of runs, one line each.

The grid covers f1-f9 through maximize_2d's best-first search and f1's
y = 0 form through maximize_1d, with and without its slope, then f1-f9
through the certificate that `verify` runs, of the decomposition located at
the default budget, at tol_value 1e-3 to 1e-11 and max_boxes 5, 50 and 1e7:
300 runs.  Each line gives the value enclosure by float.hex, the boxes split
and whether the search converged; a certificate's line also gives the box
that refutes the decomposition, or None.

    PYTHONPATH=src python scripts/bnb_results.py
    PYTHONPATH=src python scripts/bnb_results.py --compare OTHER/src

With --compare, the same grid also runs on the package under OTHER/src, in a
child process, and the script exits 1 unless every line is the same.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys

TOLS = (1e-3, 1e-5, 1e-7, 1e-9, 1e-11)
BUDGETS = (5, 50, 10_000_000)


def results() -> list[str]:
    from grunsky_bounds.claims import SuiteContext
    from grunsky_bounds.domain import REGION
    from grunsky_bounds.objectives import F1_FORM, OBJECTIVES, ObjectiveId
    from grunsky_bounds.optimize import BnBConfig, maximize_1d, maximize_2d

    runs = [(oid.value, lambda cfg, obj=OBJECTIVES[oid]: maximize_2d(obj, REGION, cfg)) for oid in ObjectiveId]
    runs.append(("f1-1d", lambda cfg: maximize_1d(F1_FORM.value_iv, F1_FORM.lo, F1_FORM.hi, cfg)))
    runs.append(("f1-1d-slope", lambda cfg: maximize_1d(F1_FORM.value_iv, F1_FORM.lo, F1_FORM.hi, cfg,
                                                        slope=F1_FORM.slope_iv)))
    lines = []
    for name, run in runs:
        for tol in TOLS:
            for budget in BUDGETS:
                ext = run(BnBConfig(tol_value=tol, max_boxes=budget))
                lines.append(f"{name} tol={tol:g} max_boxes={budget}: {ext.value.lo.hex()} "
                             f"{ext.value.hi.hex()} iterations={ext.iterations} converged={ext.converged}")
    ctx = SuiteContext()
    for oid in ObjectiveId:
        for tol in TOLS:
            for budget in BUDGETS:
                ext = maximize_2d(OBJECTIVES[oid], REGION, BnBConfig(tol, budget), **ctx.decomposition(oid))
                lines.append(f"{oid.value}-certificate tol={tol:g} max_boxes={budget}: {ext.value.lo.hex()} "
                             f"{ext.value.hi.hex()} iterations={ext.iterations} converged={ext.converged} "
                             f"above={ext.above}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="SRC", help="a src directory to compare against")
    args = parser.parse_args()
    ours = results()
    if not args.compare:
        print("\n".join(ours))
        return 0
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.compare))
    theirs = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env, check=True,
                            capture_output=True, text=True).stdout.splitlines()
    diff = list(difflib.unified_diff(theirs, ours, args.compare, "this tree", lineterm=""))
    print("\n".join(diff) if diff else f"{len(ours)} results identical")
    return 1 if diff or len(ours) != len(theirs) else 0


if __name__ == "__main__":
    raise SystemExit(main())

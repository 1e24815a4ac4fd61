"""Command-line driver.

Subcommands:
  verify    run the claim suite and compare against the published constants
  maximize  verified global maximum of one objective, and where it lies
  edges     per-edge maxima table for one objective
  grunsky   coefficient table, identity residuals and inequality slacks for a
            preset function or a coefficient file
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .claims import CLAIM_IDS, SuiteConfig, SuiteContext, analyze_edge
from .domain import EdgeId
from .objectives import CLAIM_NAMES, ObjectiveId
from .oracle import (
    PRESETS,
    check_coefficient_identities,
    check_inequalities,
    gamma_from_series,
    grunsky_table,
    parse_coefficients,
    random_test_vector,
)
from .report import all_passed, emit, run_suite


def _objective_id(name: str) -> ObjectiveId:
    try:
        return ObjectiveId(name.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown objective {name!r}; use f1..f9")


def _bounded_int(minimum: int, what: str, maximum: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


#: largest `grunsky --order`: koebe takes about 1.9 s at 128, and about 12x as long per doubling
MAX_TABLE_ORDER = 128
#: largest `grunsky --vectors`: 10,000 at order 128 add about 0.5 s and 125 MB, growing with both
MAX_TEST_VECTORS = 10_000

_positive_int = _bounded_int(1, "a positive integer")
_non_negative_int = _bounded_int(0, "a non-negative integer")
# the coefficient identities read omega_17, which needs table order 4
_table_order = _bounded_int(4, "a positive integer >= 4", MAX_TABLE_ORDER)
_test_vectors = _bounded_int(1, "a positive integer", MAX_TEST_VECTORS)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("table", "json", "csv"), default="table")
    report.add_argument("--out", metavar="PATH", help="write the report to a file")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-boxes", type=_positive_int, default=10_000_000)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_non_negative_int, default=0, help="seed for randomized oracle checks")

    parser = argparse.ArgumentParser(
        prog="grunsky-bounds",
        description="Verified reproduction of coefficient bounds for bi-univalent functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[report, budget, seed], help="run the verification suite")
    p_verify.add_argument("--claims", nargs="+", metavar="ID", choices=CLAIM_IDS,
                          help="subset of claim ids (default: all)")
    p_verify.add_argument("--tol", type=_positive_float, default=1e-5, help="stopping tolerance of the best-first search")

    p_max = sub.add_parser("maximize", parents=[budget],
                           help="maximize one objective over the region")
    p_max.add_argument("--objective", required=True, type=_objective_id)
    p_max.add_argument("--tol", type=_positive_float, default=1e-6)

    p_edges = sub.add_parser("edges", parents=[budget],
                             help="per-edge maxima for one objective")
    p_edges.add_argument("--objective", required=True, type=_objective_id)

    p_gr = sub.add_parser("grunsky", parents=[seed],
                          help="coefficient table and oracle checks")
    src = p_gr.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS))
    src.add_argument("--coeffs", metavar="FILE", help="file with one 're im' pair per line, from a1")
    p_gr.add_argument("--order", type=_table_order, default=8)
    p_gr.add_argument("--vectors", type=_test_vectors, default=20, help="random inequality test vectors")
    return parser


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(tol_value=args.tol, max_boxes=args.max_boxes, seed=args.seed)
    rows = run_suite(args.claims, cfg)
    text = emit(rows, args.format, args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0 if all_passed(rows) else 1


def _cmd_maximize(args) -> int:
    ctx = SuiteContext(SuiteConfig(tol_value=args.tol, max_boxes=args.max_boxes))
    oid = args.objective
    ext, loc = ctx.extremum(oid), ctx.locate(oid)
    print(f"{oid.value} ({CLAIM_NAMES[oid]})")
    print(f"  max in [{ext.value.lo:.12f}, {ext.value.hi:.12f}]")
    if loc.argmax is not None:
        ax, ay = loc.argmax
        print(f"  argmax x in [{ax.lo:.9f}, {ax.hi:.9f}], y in [{ay.lo:.9f}, {ay.hi:.9f}]")
    print(f"  location {loc.kind or 'not settled'}, boxes {ext.iterations}, converged {ext.converged}")
    notes = [*loc.unsettled, *([f"not separated from {', '.join(loc.tied)}"] if loc.tied and loc.kind else []),
             *([f"a point of box {ext.above} lies above the located maximum"] if ext.above else [])]
    if notes:
        print(f"  note: {'; '.join(notes)}")
    return 0 if ext.converged and not loc.unsettled else 1


def _cmd_edges(args) -> int:
    oid = args.objective
    print(f"{oid.value} ({CLAIM_NAMES[oid]}) edge maxima:")
    conclusive = True
    for edge in EdgeId:
        an = analyze_edge(oid, edge, args.max_boxes)
        conclusive = conclusive and an.conclusive
        if an.conclusive:
            roots = ", ".join(f"[{c.lo:.9f}, {c.hi:.9f}]" for c in an.clusters) or "none"
        else:
            roots = "inconclusive (box budget exhausted)"
        print(f"  {edge.value:<11} max in [{an.value.lo:.10f}, {an.value.hi:.10f}]"
              f"  stationary: {roots}")
    return 0 if conclusive else 1


def _cmd_grunsky(args) -> int:
    # everything is computed before anything is printed, so that bad input
    # gives one error line and no partial report
    try:
        if args.preset:
            f = PRESETS[args.preset](2 * args.order)
            name = args.preset
        else:
            with open(args.coeffs, encoding="utf-8") as handle:
                f = parse_coefficients(handle.read())
            name = args.coeffs
        with np.errstate(over="raise", invalid="raise"):
            table = grunsky_table(f, args.order)
            if not np.isfinite(table.omega).all():
                raise OverflowError("coefficient table is not finite")
            rep = check_coefficient_identities(f, args.order, table=table)
            rng = np.random.default_rng(args.seed)
            vectors = [random_test_vector(rng, max_len=args.order) for _ in range(args.vectors)]
            worst = check_inequalities(table, *vectors).min_slack
            g = gamma_from_series(f)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"grunsky-bounds grunsky: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # OverflowError, numpy's FloatingPointError
        print(f"grunsky-bounds grunsky: error: coefficients overflow in floating point: {exc}",
              file=sys.stderr)
        return 2
    print(f"odd-index coefficient table for {name} (order {args.order}):")
    show = min(args.order, 4)
    for p in range(1, 2 * show, 2):
        row = "  ".join(f"w[{p},{q}]={table.entry(p, q):.10g}" for q in range(p, 2 * show, 2))
        print(f"  {row}")
    print("identity residuals:")
    for key, val in rep.residuals.items():
        print(f"  {key:<12} {val:.3e}")
    print(f"min inequality slack over {args.vectors} random vectors: {worst:.3e}")
    print("log-coefficients (series / closed-form):")
    for n, (d, c) in enumerate(zip(g.direct, g.closed), start=1):
        print(f"  gamma_{n}: {d:.10g} / {c:.10g}")
    print(f"max two-path difference: {g.max_difference:.3e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"verify": _cmd_verify, "maximize": _cmd_maximize, "edges": _cmd_edges, "grunsky": _cmd_grunsky}
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

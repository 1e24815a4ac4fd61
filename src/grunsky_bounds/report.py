"""Suite driver: run claims, collect rows, emit table / JSON / CSV."""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .claims import CLAIMS, CLAIMS_BY_ID, GAMMA1_NOTE, ClaimOutcome, SuiteConfig, SuiteContext
from .interval import Interval

CSV_COLUMNS = (
    "claim_id",
    "paper_value",
    "lo",
    "hi",
    "argmax_x",
    "argmax_y",
    "kind",
    "status",
    "runtime_ms",
)


@dataclass
class ClaimRow:
    claim_id: str
    paper_value: float | None
    computed: Interval | None
    argmax: tuple[Interval, Interval] | None
    kind: str | None
    status: str
    runtime_ms: int
    note: str = ""

    def as_record(self) -> dict:
        """The JSON record: the CSV columns, then the row's note."""
        return {
            "claim_id": self.claim_id,
            "paper_value": self.paper_value,
            "lo": None if self.computed is None else self.computed.lo,
            "hi": None if self.computed is None else self.computed.hi,
            "argmax_x": None if self.argmax is None else self.argmax[0].mid,
            "argmax_y": None if self.argmax is None else self.argmax[1].mid,
            "kind": self.kind,
            "status": self.status,
            "runtime_ms": self.runtime_ms,
            "note": self.note,
        }


def run_suite(
    selection: list[str] | None = None,
    cfg: SuiteConfig | None = None,
    ctx: SuiteContext | None = None,
) -> list[ClaimRow]:
    """Run the selected claims (default: all) and return one row per claim."""
    if selection is None:
        selection = [c.claim_id for c in CLAIMS]
    unknown = [cid for cid in selection if cid not in CLAIMS_BY_ID]
    if unknown:
        raise ValueError(f"unknown claim ids: {unknown}")
    ctx = ctx or SuiteContext(cfg)
    rows: list[ClaimRow] = []
    # canonical order regardless of selection order
    for spec in CLAIMS:
        if spec.claim_id not in selection:
            continue
        t0 = time.perf_counter()
        outcome: ClaimOutcome = spec.runner(ctx)
        ms = int((time.perf_counter() - t0) * 1000)
        rows.append(
            ClaimRow(
                claim_id=spec.claim_id,
                paper_value=float(Fraction(spec.target)) if spec.target else None,
                computed=outcome.value,
                argmax=outcome.argmax,
                kind=outcome.kind,
                status=outcome.status,
                runtime_ms=ms,
                note=outcome.note,
            )
        )
    return rows


def all_passed(rows: list[ClaimRow]) -> bool:
    return all(r.status == "PASS" for r in rows)


def emit(rows: list[ClaimRow], fmt: str = "table", path: str | None = None) -> str:
    """Format rows; write to `path` when given, and return the text."""
    if fmt == "json":
        text = json.dumps([r.as_record() for r in rows], indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            rec = r.as_record()
            writer.writerow(["" if rec[c] is None else rec[c] for c in CSV_COLUMNS])
        text = buf.getvalue()
    elif fmt == "table":
        text = _format_table(rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _format_table(rows: list[ClaimRow]) -> str:
    # the kind column fits the longest corner name, "curve_low/curve_high"
    header = f"{'claim':<20} {'target':>9} {'computed enclosure':>34} {'kind':>20} {'status':>12} {'ms':>7}"
    lines = [header, "-" * len(header)]
    for r in rows:
        target = "" if r.paper_value is None else f"{r.paper_value:.3f}"
        enclosure = "" if r.computed is None else f"[{r.computed.lo:.10f}, {r.computed.hi:.10f}]"
        lines.append(
            f"{r.claim_id:<20} {target:>9} {enclosure:>34} {r.kind or '':>20} {r.status:>12} {r.runtime_ms:>7}"
        )
        if r.note:
            lines.append(f"    note: {r.note}")
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(Counter(r.status for r in rows).items()))
    lines += ["", f"note: {GAMMA1_NOTE}", f"{len(rows)} claims ({summary})"]
    return "\n".join(lines) + "\n"

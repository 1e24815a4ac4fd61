"""Report rows, emission formats, CLI exit codes, determinism."""

import csv
import dataclasses
import io
import json
import re
from fractions import Fraction

import pytest

from grunsky_bounds import claims, cli, oracle
from grunsky_bounds.claims import SuiteConfig
from grunsky_bounds.cli import main
from grunsky_bounds.domain import EdgeId
from grunsky_bounds.interval import Interval
from grunsky_bounds.objectives import OBJECTIVES, ObjectiveId
from grunsky_bounds.optimize import CriticalSearch
from grunsky_bounds.report import CSV_COLUMNS, all_passed, emit, run_suite

CHEAP = ["THM1_A3", "ORACLE_GAMMA", "PROPERTY_CURVES"]


@pytest.fixture(scope="module")
def cheap_rows():
    return run_suite(CHEAP, SuiteConfig())


def test_csv_header_is_pinned(cheap_rows):
    text = emit(cheap_rows, "csv")
    assert text.splitlines()[0] == "claim_id,paper_value,lo,hi,argmax_x,argmax_y,kind,status,runtime_ms"
    assert ",".join(CSV_COLUMNS) == text.splitlines()[0]
    # the note is JSON-only: every CSV row keeps the nine columns
    assert all(len(row) == len(CSV_COLUMNS) for row in csv.reader(io.StringIO(text)))


def test_json_schema(cheap_rows):
    records = json.loads(emit(cheap_rows, "json"))
    assert len(records) == len(CHEAP)
    for rec, row in zip(records, cheap_rows):
        assert list(rec) == [*CSV_COLUMNS, "note"]
        assert rec["note"] == row.note
    assert records[0]["status"] == "PASS"
    assert records[2]["note"].startswith("curve crossing residual")


def test_empty_selection_gives_empty_report():
    rows = run_suite([], SuiteConfig())
    assert rows == []
    assert json.loads(emit(rows, "json")) == []


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_suite(["NOT_A_CLAIM"])


def test_rows_keep_canonical_order():
    rows = run_suite(["PROPERTY_CURVES", "THM1_A3"], SuiteConfig())
    assert [r.claim_id for r in rows] == ["THM1_A3", "PROPERTY_CURVES"]


def test_single_pass_row_roundtrip(tmp_path):
    rows = run_suite(["PROPERTY_CURVES"], SuiteConfig())
    out = tmp_path / "report.json"
    emit(rows, "json", str(out))
    records = json.loads(out.read_text())
    assert len(records) == 1 and records[0]["status"] == "PASS"


def test_report_deterministic_modulo_runtime():
    # runtime_ms is wall-clock and necessarily varies; everything else must not
    def normalized(rows):
        recs = json.loads(emit(rows, "json"))
        for r in recs:
            r["runtime_ms"] = 0
        return json.dumps(recs)

    a = run_suite(CHEAP, SuiteConfig())
    b = run_suite(CHEAP, SuiteConfig())
    assert normalized(a) == normalized(b)


def test_table_format_carries_flag_note(cheap_rows):
    text = emit(cheap_rows, "table")
    assert "0.7425" in text and "0.37125" in text  # recorded-vs-derived flag
    assert "PASS" in text


def test_all_passed_helper(cheap_rows):
    assert all_passed(cheap_rows)


def test_full_selection_row_inventory():
    from grunsky_bounds.claims import CLAIM_IDS

    assert CLAIM_IDS == (
        "THM1_A3", "THM1_A4", "THM1_A5", "THM2_D43", "THM2_D54", "THM3_H22",
        "GAMMA2", "THM4_GAMMA3", "GAMMA4", "EDGE_TABLE",
        "ORACLE_EQ13", "ORACLE_INEQ", "ORACLE_GAMMA",
        "PROPERTY_BNB_SOUND", "PROPERTY_CURVES",
    )
    # ten claim rows plus oracle/property summary rows
    assert len([c for c in CLAIM_IDS if not c.startswith(("ORACLE", "PROPERTY"))]) == 10


def test_every_claim_runnable_individually(suite_ctx):
    from grunsky_bounds.claims import CLAIM_IDS

    for cid in CLAIM_IDS:
        rows = run_suite([cid], ctx=suite_ctx)
        assert len(rows) == 1 and rows[0].claim_id == cid
        assert rows[0].status == "PASS", (cid, rows[0].note)


#: `verify --format json` at the default config: (lo, hi, argmax_x, argmax_y)
#: by float.hex, then kind, status and note.  The ORACLE_* rows are left out:
#: their numbers are rounding noise that depends on the numpy/BLAS build.
#: THM1_A3 and GAMMA2 are maximal at corners, which `locate` names by their
#: two pieces.  Every lo and hi is `locate`'s value, which the 2-D maximizer
#: certifies: for THM2_D43 and THM2_D54 the certified critical value's.  The
#: best-first search gave THM1_A3's and GAMMA2's lo 1 and 2 ulps lower and
#: GAMMA4's lo and hi 1 ulp wider on each side.
VERIFY_PINS = {
    "THM1_A3": ("0x1.36b4ba33fdc02p+1", "0x1.36b4ba33fdc08p+1", "0x1.7c28f5c28f5c2p-1", "0x0.0p+0",
                "x_a/y_zero", "PASS", ""),
    "THM1_A4": ("0x1.bb11ff6d4c46fp+1", "0x1.bb11ff6d4c479p+1", "0x1.7c28f5c28f5c2p-1", "0x1.760c029235911p-2",
                "x_a", "PASS", ""),
    "THM1_A5": ("0x1.3f9006357f063p+2", "0x1.3f9006357f06fp+2", "0x1.7c28f5c28f5c2p-1", "0x1.5af03601bae10p-2",
                "x_a", "PASS", ""),
    "THM2_D43": ("0x1.2c918d4e61e3cp+0", "0x1.2c918d4e61e66p+0", "0x1.44d530403124cp-1", "0x1.6f9b04f162c96p-2",
                 "interior", "PASS", ""),
    "THM2_D54": ("0x1.d29aed74efefdp+0", "0x1.d29aed74eff98p+0", "0x1.6f696dfa25b8dp-1", "0x1.4041f7ab8f740p-2",
                 "interior", "PASS", ""),
    "THM3_H22": ("0x1.47ca4dd107668p+0", "0x1.47ca4dd10766fp+0", "0x1.1fd6a644a82b6p-2", "0x1.143a2fcc857d8p-1",
                 "curve_low", "PASS", ""),
    "GAMMA2": ("0x1.5324a45452564p-1", "0x1.5324a45452569p-1", "0x1.7c28f5c28f5c2p-1", "0x1.8c047894fb828p-2",
               "x_a/curve_high", "PASS", ""),
    "THM4_GAMMA3": ("0x1.1a52a2f1697a3p-1", "0x1.1a52a2f1697abp-1", "0x1.7c28f5c28f5c2p-1", "0x1.120a77a3800b8p-2",
                    "x_a", "PASS", ""),
    "GAMMA4": ("0x1.3a055439bb24ap-1", "0x1.3a055439bb256p-1", "0x1.7c28f5c28f5c2p-1", "0x1.9db78d862f900p-3",
               "x_a", "PASS", ""),
    "EDGE_TABLE": (None, None, None, None, None, "PASS",
                   "g8(a): computed 1.4019908; printed 1.402 is rounded, not truncated"),
    "PROPERTY_BNB_SOUND": (None, None, None, None, None, "PASS", "max grid-discretization gap 3.37e-06"),
    "PROPERTY_CURVES": (None, None, None, None, None, "PASS",
                        "curve crossing residual within +/-3.33e-16; low-curve radicand at b within +/-1.67e-16"),
}


@pytest.mark.parametrize("cid", VERIFY_PINS)
def test_verify_rows_are_pinned(cid, suite_ctx):
    (row,) = run_suite([cid], ctx=suite_ctx)
    rec = row.as_record()
    numbers = tuple(None if rec[k] is None else float(rec[k]).hex() for k in ("lo", "hi", "argmax_x", "argmax_y"))
    assert numbers + (rec["kind"], rec["status"], rec["note"]) == VERIFY_PINS[cid]


def test_cli_verify_exit_zero(capsys):
    code = main(["verify", "--claims", "PROPERTY_CURVES", "ORACLE_GAMMA", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("claim_id,")


def test_cli_budget_exhaustion_nonzero_exit(capsys):
    code = main(["maximize", "--objective", "f2", "--max-boxes", "5"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("max_boxes", [1, 10, 100, 300, 400])
def test_cli_verify_budget_gives_no_fail_row(max_boxes, capsys):
    # a budget that runs out leaves a row unsettled: INCONCLUSIVE, never FAIL
    code = main(["verify", "--max-boxes", str(max_boxes), "--format", "json"])
    records = {r["claim_id"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 1
    assert [cid for cid, r in records.items() if r["status"] == "FAIL"] == []
    edge_table = records["EDGE_TABLE"]
    assert edge_table["status"] == "INCONCLUSIVE"
    assert "inconclusive" in edge_table["note"] or "not certified" in edge_table["note"]
    # every row that is not PASS says why
    assert [cid for cid, r in records.items() if r["status"] != "PASS" and not r["note"]] == []
    # a value row whose decomposition is unsettled names no maximizer and no value
    for cid in claims.CLAIM_IDS[:9]:
        r = records[cid]
        located = not ("edge analysis of" in r["note"] or "critical-point search not certified" in r["note"])
        assert {k: r[k] is not None for k in ("lo", "hi", "kind", "argmax_x", "argmax_y")} == dict.fromkeys(
            ("lo", "hi", "kind", "argmax_x", "argmax_y"), located)
    if max_boxes == 1:
        assert records["THM1_A3"]["status"] == "INCONCLUSIVE"
        assert records["THM1_A3"]["note"].startswith("edge analysis of f1/x_zero inconclusive; ")
    bnb_sound = records["PROPERTY_BNB_SOUND"]
    if max_boxes in (1, 10, 100):
        # f4 needs 148 boxes and f5 201: an unconverged maximizer settles no
        # grid check, and neither does an unsettled location
        assert bnb_sound["status"] == "INCONCLUSIVE"
        assert ("f4: maximizer budget exhausted; f4: maximum not located; "
                "f5: maximizer budget exhausted; f5: maximum not located") in bnb_sound["note"]
    if max_boxes == 10:
        # f1's maximizer converges in 5 boxes, but its decomposition does not
        assert records["THM1_A3"]["status"] == "INCONCLUSIVE"
        assert records["THM1_A3"]["note"] == ("edge analysis of f1/curve_low inconclusive; "
                                              "interior critical-point search not certified")
        # f7 has no radical, so each of its edge analyses searches a plain
        # derivative in at most 8 pieces and steps, and its row settles: its
        # x_a and curve_low analyses took 65 and 70 when the derivative was
        # scaled by 2*sqrt(S), and left the row INCONCLUSIVE
        assert records["GAMMA2"]["status"] == "PASS"
        assert records["GAMMA2"]["kind"] == "x_a/curve_high" and records["GAMMA2"]["note"] == ""
        # nothing is concluded from an unsettled decomposition
        value_notes = [records[cid]["note"] for cid in claims.CLAIM_IDS[:9]]
        assert not any("misses window" in note or "found 0" in note for note in value_notes)
        # THM1_A4 reports no value: the best-first search, which a budget-starved
        # face search left 0.78 wide, is not what a row reports
        assert records["THM1_A4"]["status"] == "INCONCLUSIVE" and records["THM1_A4"]["lo"] is None
    if max_boxes == 100:
        # f9's critical search needs 101 boxes
        assert records["GAMMA4"]["status"] == "INCONCLUSIVE"
        assert records["GAMMA4"]["note"] == "interior critical-point search not certified"
    if max_boxes in (300, 400):
        # every branch-and-bound converges, but f6's location is unsettled
        assert bnb_sound["status"] == "INCONCLUSIVE"
        assert bnb_sound["note"].startswith("f6: maximum not located; ")
    if max_boxes == 400:
        # enough for every branch-and-bound, edge analysis and critical search
        # but f6's, which takes 498 boxes and Krawczyk steps
        unsettled = {cid: r["note"] for cid, r in records.items() if r["status"] != "PASS"}
        assert sorted(unsettled) == ["EDGE_TABLE", "PROPERTY_BNB_SOUND", "THM3_H22"]
        assert all("interior critical-point search not certified" in unsettled[cid]
                   for cid in ("EDGE_TABLE", "THM3_H22"))


@pytest.mark.parametrize("tol", ["1e-3", "1e-2"])
def test_cli_verify_coarse_tol_gives_no_fail_row(tol, capsys):
    # the certificate does not read --tol: every row reports `locate`'s
    # value, a few ulps wide, so a coarse tol leaves no row unsettled.  The
    # best-first search left THM2_D43, THM2_D54, THM3_H22, THM4_GAMMA3 and
    # GAMMA4 up to 1e-3 wide at 1e-3, and THM1_A3 and GAMMA2 too at 1e-2
    code = main(["verify", "--tol", tol, "--format", "json"])
    records = {r["claim_id"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 0
    assert [cid for cid, r in records.items() if r["status"] != "PASS"] == []
    assert max(r["hi"] - r["lo"] for r in list(records.values())[:9]) <= 1e-12


@pytest.mark.parametrize("tol", ["1e-9", "1e-12"])
def test_cli_verify_fine_tol_gives_no_fail_row(tol, capsys):
    # the grid's discretization gap (about 3.4e-6) is checked against its own
    # verified bound, not against the solver tolerance
    code = main(["verify", "--tol", tol, "--format", "json"])
    records = {r["claim_id"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 0
    assert [cid for cid, r in records.items() if r["status"] != "PASS"] == []


def test_an_enclosure_above_the_grid_gap_bound_fails_grid_soundness(monkeypatch):
    ctx = claims.SuiteContext(SuiteConfig())
    ext = ctx.extremum(claims.ObjectiveId.F2)
    raised = claims.Interval(ext.value.lo + 1e-3, ext.value.hi + 1e-3)
    monkeypatch.setitem(ctx._extrema, claims.ObjectiveId.F2, dataclasses.replace(ext, value=raised))
    out = claims._run_property_bnb(ctx)
    assert out.status == "FAIL"
    assert out.note.startswith("f2: grid max") and "below enclosure low - gap bound" in out.note


@pytest.mark.parametrize("unlocated", [
    pytest.param({"tied": ("curve_low",)}, id="tie"),
    pytest.param({"kind": None, "argmax": None}, id="no-argmax"),
])
def test_an_unlocated_maximum_leaves_grid_soundness_inconclusive(unlocated):
    # the gap bound holds only with the maximizer inside `locate`'s argmax, so
    # without one the lower check concludes nothing, even from a raised enclosure
    ctx = claims.SuiteContext(SuiteConfig())
    ext, loc = ctx.extremum(ObjectiveId.F2), ctx.locate(ObjectiveId.F2)
    ctx._locations[ObjectiveId.F2] = dataclasses.replace(loc, **unlocated)
    out = claims._run_property_bnb(ctx)
    assert (out.status, out.note) == ("INCONCLUSIVE", "f2: maximum not located; max grid-discretization gap 3.37e-06")
    raised = claims.Interval(ext.value.lo + 1e-3, ext.value.hi + 1e-3)
    ctx._extrema[ObjectiveId.F2] = dataclasses.replace(ext, value=raised)
    out = claims._run_property_bnb(ctx)
    assert out.status == "INCONCLUSIVE" and out.note.startswith("f2: maximum not located; ")


def test_a_wide_enclosure_that_misses_its_window_still_fails():
    # f6's located value widened to 6.7e-4, as wide as the best-first search
    # left it at --tol 1e-3: it straddles the upper end of [1.280, 1.281),
    # which leaves the row unsettled, and misses [1.300, 1.301)
    ctx = claims.SuiteContext(SuiteConfig(tol_value=1e-3))
    ext, loc = ctx.extremum(ObjectiveId.F6), ctx.locate(ObjectiveId.F6)
    wide = dataclasses.replace(loc, value=Interval(loc.value.lo, loc.value.lo + 6.7e-4))
    meets = claims._value_outcome(ext, wide, "1.280")
    assert (meets.status, meets.note) == ("INCONCLUSIVE", "enclosure straddles the upper end of window 1.280")
    out = claims._value_outcome(ext, wide, "1.300")
    assert (out.status, out.note) == ("FAIL", "enclosure misses window 1.300")


def test_a_narrowed_window_leaves_a_value_row_inconclusive(monkeypatch):
    # THM3_H22's enclosure lies inside [1.280, 1.281); a window [1.280, e)
    # whose end e lies between its two ends is straddled
    ctx = claims.SuiteContext(SuiteConfig())
    ext, loc = ctx.extremum(ObjectiveId.F6), ctx.locate(ObjectiveId.F6)
    assert claims._value_outcome(ext, loc, "1.280").status == "PASS"
    end = (Fraction(loc.value.lo) + Fraction(loc.value.hi)) / 2
    monkeypatch.setattr(claims, "PRINTED_ULP", end - Fraction("1.280"))
    out = claims._value_outcome(ext, loc, "1.280")
    assert (out.status, out.note) == ("INCONCLUSIVE", "enclosure straddles the upper end of window 1.280")


def test_a_moved_window_fails_a_value_row():
    # [1.279, 1.280) ends below THM3_H22's enclosure
    ctx = claims.SuiteContext(SuiteConfig())
    out = claims._value_outcome(ctx.extremum(ObjectiveId.F6), ctx.locate(ObjectiveId.F6), "1.279")
    assert (out.status, out.note) == ("FAIL", "enclosure misses window 1.279")


def test_an_uncertified_critical_search_leaves_a_value_row_inconclusive():
    # f9's maximum is on x = a, but an interior point the search left could beat it
    ctx = claims.SuiteContext(SuiteConfig())
    ctx._critical[ObjectiveId.F9] = CriticalSearch(certified=False)
    (row,) = run_suite(["GAMMA4"], ctx=ctx)
    assert row.status == "INCONCLUSIVE"
    assert row.note == "interior critical-point search not certified"


def test_an_attribution_tie_leaves_a_row_with_an_expected_kind_inconclusive():
    # give f2's low cap, whose maximum is an interior root of that piece, the
    # maximum of its x = a edge: the two tie
    ctx = claims.SuiteContext(SuiteConfig())
    top = ctx.edge(ObjectiveId.F2, EdgeId.X_A).value
    tied = ctx.edge(ObjectiveId.F2, EdgeId.CURVE_LOW)
    assert tied.end is None
    ctx._edges[(ObjectiveId.F2, EdgeId.CURVE_LOW)] = dataclasses.replace(tied, value=top)
    loc = ctx.locate(ObjectiveId.F2)
    assert (loc.kind, loc.tied) == ("x_a", ("curve_low",))
    (row,) = run_suite(["THM1_A4"], ctx=ctx)
    assert row.status == "INCONCLUSIVE"
    assert row.note == "maximum on x_a not separated from curve_low"
    # without an expected kind the tie decides nothing, and the note says so
    out = claims._value_outcome(ctx.extremum(ObjectiveId.F2), loc, "3.461")
    assert (out.status, out.note) == ("PASS", "maximum on x_a not separated from curve_low")


def test_a_corner_tie_leaves_a_row_with_an_expected_kind_inconclusive():
    # f2's y = 0 edge is maximal at its end (a, 0), so its value is that
    # corner's; given the maximum of the x = a edge, the corner ties with it
    ctx = claims.SuiteContext(SuiteConfig())
    top = ctx.edge(ObjectiveId.F2, EdgeId.X_A).value
    tied = ctx.edge(ObjectiveId.F2, EdgeId.Y_ZERO)
    assert tied.end == 1
    ctx._edges[(ObjectiveId.F2, EdgeId.Y_ZERO)] = dataclasses.replace(tied, value=top)
    loc = ctx.locate(ObjectiveId.F2)
    assert (loc.kind, loc.tied) == ("x_a", ("x_a/y_zero",))
    (row,) = run_suite(["THM1_A4"], ctx=ctx)
    assert row.status == "INCONCLUSIVE"
    assert row.note == "maximum on x_a not separated from x_a/y_zero"


def test_a_decomposition_without_its_best_candidate_disagrees_with_the_global_enclosure():
    # f2's maximum is the interior root of its x = a edge; an analysis of that
    # edge whose value is the restriction at t = 0.3, below the root, leaves
    # the decomposition without its best candidate, so it locates the
    # maximum at the corner (a, d).  The certificate bounds the face x = a
    # by the tampered analysis, but off that face, near the corner, it finds
    # a point above the located value.  The window check and the grid check
    # of PROPERTY_BNB_SOUND catch it too, so the row cannot pass
    ctx = claims.SuiteContext(SuiteConfig())
    an = ctx.edge(ObjectiveId.F2, EdgeId.X_A)
    below = OBJECTIVES[ObjectiveId.F2].restriction(EdgeId.X_A).value_iv(Interval.point(0.3))
    assert below.hi < an.value.lo
    ctx._edges[(ObjectiveId.F2, EdgeId.X_A)] = dataclasses.replace(an, value=below)
    loc = ctx.locate(ObjectiveId.F2)
    assert loc.unsettled == () and loc.value.hi < an.value.lo
    (row,) = run_suite(["THM1_A4"], ctx=ctx)
    assert row.status != "PASS"
    assert "lies above the located maximum" in row.note and "misses window 3.461" in row.note
    (grid,) = run_suite(["PROPERTY_BNB_SOUND"], ctx=ctx)
    assert grid.status == "FAIL" and grid.note.startswith("f2: a point of box [")
    assert "f2: grid max" in grid.note and "budget exhausted" not in grid.note


def test_a_refuting_certificate_fails_grid_soundness():
    # the tampered f2 certificate of the test above, on its own: the grid
    # check of the true (located) value passes, and the refuting box fails the row
    ctx = claims.SuiteContext(SuiteConfig())
    ext = ctx.extremum(ObjectiveId.F2)
    box = (0.36, 0.36 + 1e-9, 0.5, 0.5 + 1e-9)
    ctx._extrema[ObjectiveId.F2] = dataclasses.replace(ext, converged=False, above=box)
    out = claims._run_property_bnb(ctx)
    assert (out.status, out.note) == (
        "FAIL", "f2: a point of box [0.36, 0.360000001] x [0.5, 0.500000001] lies above the located maximum; "
        "max grid-discretization gap 3.37e-06")


def test_an_unconverged_certificate_with_budget_left_is_not_a_spent_budget(suite_ctx):
    # without the top of f2's face analyses the certificate stops at TOL_BOX
    # about the face maximum after 108 splits of a 10,000,000 budget
    ctx = claims.SuiteContext(SuiteConfig())
    ctx._edges.update(((ObjectiveId.F2, e), dataclasses.replace(suite_ctx.edge(ObjectiveId.F2, e), conclusive=False))
                      for e in (EdgeId.X_A, EdgeId.CURVE_LOW))
    ctx._locations[ObjectiveId.F2] = suite_ctx.locate(ObjectiveId.F2)
    assert ctx.extremum(ObjectiveId.F2).iterations == 108
    out = claims._run_property_bnb(ctx)
    assert out.status == "INCONCLUSIVE" and out.note.startswith("f2: maximizer left boxes at TOL_BOX; ")


#: wrong targets for entries of each kind: a point value, an edge maximum, an
#: edge root and an interior coordinate
WRONG_TARGETS = {"f2(0,0)": "0.900", "g1 max": "1.300", "f2 x=a root": "0.400",
                 "f6 interior x": "0.700"}


@pytest.mark.parametrize("max_boxes, failing", [
    pytest.param(10_000_000, sorted(WRONG_TARGETS), id="default-budget"),
    pytest.param(1, ["f2(0,0)"], id="one-box"),  # the other three are unsettled
])
def test_a_wrong_edge_table_target_still_fails(max_boxes, failing, monkeypatch):
    table = tuple(dataclasses.replace(c, target=WRONG_TARGETS.get(c.label, c.target))
                  for c in claims.EDGE_CONSTANTS)
    monkeypatch.setattr(claims, "EDGE_CONSTANTS", table)
    row = run_suite(["EDGE_TABLE"], SuiteConfig(max_boxes=max_boxes))[0]
    assert row.status == "FAIL"
    missed = sorted(label for label in WRONG_TARGETS if f"{label}: [" in row.note)
    assert missed == failing, row.note


def test_cli_edges_lists_the_pieces_in_table_order(capsys):
    code = main(["edges", "--objective", "f6"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert [row.split()[0] for row in rows] == [edge.value for edge in EdgeId]
    low = re.search(r"max in \[([^,]+), ([^\]]+)\]", rows[3])
    lo, hi = float(low.group(1)), float(low.group(2))
    assert 1.280 <= lo <= hi < 1.281


def test_cli_edges_budget_exhaustion_marks_the_edge_inconclusive(capsys):
    code = main(["edges", "--objective", "f2", "--max-boxes", "1"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 1
    assert [row.split()[0] for row in rows] == [edge.value for edge in EdgeId]
    # the x_a derivative needs more than one box; an edge settled by one box is not marked
    assert rows[1].endswith("stationary: inconclusive (box budget exhausted)")
    assert "inconclusive" not in rows[4]


def test_cli_edges_of_f1_hold_the_a3_enclosure(capsys):
    code = main(["edges", "--objective", "f1"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert [row.split()[0] for row in rows] == [edge.value for edge in EdgeId]
    a3 = claims.SuiteContext(SuiteConfig()).extremum(ObjectiveId.F1).value
    printed = f"max in [{a3.lo:.10f}, {a3.hi:.10f}]"
    for edge in (EdgeId.X_A, EdgeId.Y_ZERO):
        assert printed in rows[list(EdgeId).index(edge)]
        assert claims.analyze_edge(ObjectiveId.F1, edge, SuiteConfig().max_boxes).value.intersects(a3)


def test_cli_maximize_f1(capsys):
    code = main(["maximize", "--objective", "f1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2.42739" in out
    assert "location x_a/y_zero," in out


def test_cli_maximize_f1_converges_at_1e_11(capsys):
    # f1 runs through the 2-D maximizer like f2-f9
    code = main(["maximize", "--objective", "f1", "--tol", "1e-11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "boxes 5, converged True" in out


def test_cli_maximize_names_the_location_of_the_verify_row(capsys):
    # one label per maximum: the f7 corner (a, d), as GAMMA2 reports it
    code = main(["maximize", "--objective", "f7"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    (row,) = run_suite(["GAMMA2"], SuiteConfig())
    assert lines[3].startswith(f"  location {row.kind}, ") and row.kind == "x_a/curve_high"
    # the argmax is the corner's box, not the branch-and-bound's hull
    x, y = (float(v) for v in re.findall(r"in \[([^,]+),", lines[2]))
    assert (x, y) == (pytest.approx(row.argmax[0].mid, abs=1e-9), pytest.approx(row.argmax[1].mid, abs=1e-9))


def test_cli_maximize_exits_1_when_an_analysis_under_locate_runs_out(capsys):
    # f7's branch-and-bound converges in 5 boxes, but its curve_high analysis needs more than 5
    code = main(["maximize", "--objective", "f7", "--max-boxes", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "converged True" in out
    assert "note: edge analysis of f7/curve_high inconclusive" in out


def test_cli_maximize_names_no_location_when_the_decomposition_is_unsettled(capsys):
    # f8's maximum is on x = a, but with 10 boxes its y_zero and curve_low
    # analyses and its critical search run out, and y_zero's whole-piece range
    # ranks first: that is no location, so no argmax and no tie is printed
    code = main(["maximize", "--objective", "f8", "--max-boxes", "10"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert not any("argmax" in line for line in lines)
    assert lines[2] == "  location not settled, boxes 10, converged False"
    assert lines[3] == ("  note: edge analysis of f8/y_zero inconclusive; edge analysis of f8/curve_low "
                        "inconclusive; interior critical-point search not certified")


def test_cli_grunsky_with_coefficient_file(tmp_path, capsys):
    path = tmp_path / "series.txt"
    # the geometric preset written out through a16
    path.write_text("\n".join("1 0" for _ in range(16)) + "\n")
    code = main(["grunsky", "--coeffs", str(path), "--order", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "w[1,1]=0.5" in out


def _count_table_builds(monkeypatch) -> list:
    calls = []
    build = oracle.grunsky_table
    for module in (oracle, claims, cli):
        monkeypatch.setattr(module, "grunsky_table", lambda *a: calls.append(a) or build(*a))
    return calls


def test_oracle_claims_build_each_preset_table_once(monkeypatch):
    calls = _count_table_builds(monkeypatch)
    assert all_passed(run_suite(["ORACLE_EQ13", "ORACLE_INEQ"]))
    assert len(calls) == 4


KOEBE_ORDER_8 = """\
odd-index coefficient table for koebe (order 8):
  w[1,1]=1+0j  w[1,3]=0+0j  w[1,5]=0+0j  w[1,7]=0+0j
  w[3,3]=0.3333333333+0j  w[3,5]=0+0j  w[3,7]=0+0j
  w[5,5]=0.2+0j  w[5,7]=0+0j
  w[7,7]=0.1428571429+0j
identity residuals:
  a2           0.000e+00
  a3           0.000e+00
  a4           0.000e+00
  a5           0.000e+00
  zero_33      0.000e+00
  zero_35      0.000e+00
  a4_reduced   0.000e+00
  a5_reduced   0.000e+00
min inequality slack over 20 random vectors: -3.932e-16
log-coefficients (series / closed-form):
  gamma_1: 1+0j / 1+0j
  gamma_2: 0.5+0j / 0.5+0j
  gamma_3: 0.3333333333+0j / 0.3333333333+0j
  gamma_4: 0.25+0j / 0.25+0j
max two-path difference: 5.551e-17
"""


def test_cli_grunsky_builds_its_table_once(monkeypatch, capsys):
    calls = _count_table_builds(monkeypatch)
    assert main(["grunsky", "--preset", "koebe", "--order", "8"]) == 0
    assert capsys.readouterr().out == KOEBE_ORDER_8
    assert len(calls) == 1


def test_cli_writes_report_file(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["verify", "--claims", "PROPERTY_CURVES", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("claim_id,")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--max-boxes", "0"], "--max-boxes"),
        (["verify", "--tol", "-1"], "--tol"),
        (["verify", "--tol", "nan"], "--tol"),
        (["maximize", "--objective", "f2", "--tol", "0"], "--tol"),
        (["edges", "--objective", "f2", "--max-boxes", "0"], "--max-boxes"),
        (["grunsky", "--preset", "identity", "--order", "0"], "--order"),
        (["grunsky", "--preset", "identity", "--vectors", "0"], "--vectors"),
        # the coefficient identities read omega_17, so the table needs order 4
        (["grunsky", "--preset", "identity", "--order", "1"], "--order"),
        (["grunsky", "--preset", "identity", "--order", "3"], "--order"),
    ],
)
def test_cli_rejects_non_positive_flags(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert exc.value.code == 2
    assert f"error: argument {flag}: must be a positive" in err[-1]


@pytest.mark.parametrize("flag, cap", [("--order", cli.MAX_TABLE_ORDER), ("--vectors", cli.MAX_TEST_VECTORS)])
def test_cli_grunsky_rejects_a_flag_above_its_cap(flag, cap, capsys):
    # rejected while parsing, so nothing above the cap is ever built
    with pytest.raises(SystemExit) as exc:
        main(["grunsky", "--preset", "koebe", flag, str(cap + 1)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"grunsky-bounds grunsky: error: argument {flag}: must be at most {cap}, got {cap + 1}"]
    # the cap itself parses
    parse = {"--order": cli._table_order, "--vectors": cli._test_vectors}[flag]
    assert parse(str(cap)) == cap


def test_cli_grunsky_reports_running_out_of_memory(monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "grunsky_table", no_memory)
    assert main(["grunsky", "--preset", "koebe"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "grunsky-bounds grunsky: error: out of memory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "-1"],
        ["verify", "--claims", "ORACLE_INEQ", "--seed", "-1"],
        ["grunsky", "--preset", "identity", "--seed", "-1"],
    ],
)
def test_cli_rejects_negative_seed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert exc.value.code == 2
    assert err[-1].endswith("error: argument --seed: must be a non-negative integer, got -1")


def test_an_unsettled_decomposition_reports_no_kind_and_no_argmax(capsys):
    # with 10 boxes two of f8's edge analyses and its critical search run out,
    # and the whole-piece range of y_zero would have ranked first
    code = main(["verify", "--max-boxes", "10", "--claims", "THM4_GAMMA3", "--format", "json"])
    (rec,) = json.loads(capsys.readouterr().out)
    assert code == 1 and rec["status"] == "INCONCLUSIVE"
    assert (rec["kind"], rec["argmax_x"], rec["argmax_y"]) == (None, None, None)
    assert rec["note"].endswith("edge analysis of f8/y_zero inconclusive; edge analysis of f8/curve_low "
                                "inconclusive; interior critical-point search not certified")


@pytest.mark.parametrize(
    "argv",
    [
        ["maximize", "--objective", "f2", "--format", "json"],
        ["maximize", "--objective", "f2", "--seed", "1"],
        ["edges", "--objective", "f2", "--out", "edges.txt"],
        # the edge analyses read only the budget
        ["edges", "--objective", "f2", "--tol", "inf"],
        ["grunsky", "--preset", "identity", "--max-boxes", "5"],
        ["grunsky", "--preset", "identity", "--format", "csv"],
    ],
)
def test_cli_rejects_an_option_its_subcommand_does_not_read(argv, capsys):
    # rejected while parsing, so nothing runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"grunsky-bounds: error: unrecognized arguments: {' '.join(argv[-2:])}"]


@pytest.mark.parametrize(
    "lines, message",
    [
        (None, "No such file or directory"),
        (["1 0", "x 0"], "line 2: expected 're im', got 'x 0'"),
        (["1 0", "1 0 0"], "line 2: expected 're im', got '1 0 0'"),
        (["1 0", "nan 0"], "line 2: coefficient must be finite, got 'nan 0'"),
        (["1 0", "0 inf"], "line 2: coefficient must be finite, got '0 inf'"),
        (["1 0"] * 7, "table order 4 needs 8 input coefficients, have 7"),
        # finite input whose table overflows
        (["1 0"] + ["1e200 0"] * 15, "coefficients overflow in floating point"),
    ],
)
def test_cli_grunsky_rejects_bad_coefficient_files(tmp_path, lines, message, capsys):
    path = tmp_path / "series.txt"
    if lines is not None:
        path.write_text("\n".join(lines) + "\n")
    code = main(["grunsky", "--coeffs", str(path), "--order", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("grunsky-bounds grunsky: error: ")
    assert message in captured.err

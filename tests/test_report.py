"""Report rows, emission formats, CLI exit codes, determinism."""

import csv
import dataclasses
import io
import json
import re

import pytest

from grunsky_bounds import claims, cli, oracle
from grunsky_bounds.claims import SuiteConfig
from grunsky_bounds.cli import main
from grunsky_bounds.domain import EdgeId
from grunsky_bounds.objectives import ObjectiveId
from grunsky_bounds.optimize import BnBConfig, CriticalSearch
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
VERIFY_PINS = {
    "THM1_A3": ("0x1.36b4ba33fdc02p+1", "0x1.36b4ba33fdc08p+1", "0x1.7c28f5c28f5c2p-1", "0x0.0p+0",
                "x_a", "PASS", ""),
    "THM1_A4": ("0x1.bb11f34820631p+1", "0x1.bb12460bdff33p+1", "0x1.7c28f5c28f5c2p-1", "0x1.760c029235911p-2",
                "x_a", "PASS", ""),
    "THM1_A5": ("0x1.3f9002d474951p+2", "0x1.3f902b0b51176p+2", "0x1.7c28f5c28f5c2p-1", "0x1.5af03601bae10p-2",
                "x_a", "PASS", ""),
    "THM2_D43": ("0x1.2c918cbf4e5f5p+0", "0x1.2c9226755e151p+0", "0x1.44d530403124cp-1", "0x1.6f9b04f162c96p-2",
                 "interior", "PASS", ""),
    "THM2_D54": ("0x1.d29aeba98d895p+0", "0x1.d29b81f89572fp+0", "0x1.6f696dfa25b8dp-1", "0x1.4041f7ab8f740p-2",
                 "interior", "PASS", ""),
    "THM3_H22": ("0x1.47ca4960337d7p+0", "0x1.47ca889042f95p+0", "0x1.1fd6a644a82b6p-2", "0x1.143a2fcc857d8p-1",
                 "curve_low", "PASS", ""),
    "GAMMA2": ("0x1.5324a45452562p-1", "0x1.5324a45452569p-1", "0x1.7c28f5c28f5c2p-1", "0x1.8c047894fb828p-2",
               "curve_high", "PASS", ""),
    "THM4_GAMMA3": ("0x1.1a5292af8dfdap-1", "0x1.1a53b355d1596p-1", "0x1.7c28f5c28f5c2p-1", "0x1.120a77a3800b8p-2",
                    "x_a", "PASS", ""),
    "GAMMA4": ("0x1.3a0553e2a6f0bp-1", "0x1.3a05a64768910p-1", "0x1.7c28f5c28f5c2p-1", "0x1.9db78d862f900p-3",
               "x_a", "PASS", ""),
    "EDGE_TABLE": (None, None, None, None, None, "PASS",
                   "g8(a): computed 1.4019908; printed 1.402 is rounded, not truncated"),
    "PROPERTY_BNB_SOUND": (None, None, None, None, None, "PASS", "max grid-discretization gap 1.93e-06"),
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
    if max_boxes == 1:
        assert records["THM1_A3"]["status"] == "INCONCLUSIVE"
        assert "endpoint analysis inconclusive" in records["THM1_A3"]["note"]
    if max_boxes == 10:
        # f7's global enclosure converges, but two of its edge analyses do not
        assert records["GAMMA2"]["status"] == "INCONCLUSIVE"
        assert records["GAMMA2"]["note"] == ("edge analysis of f7/x_a inconclusive; "
                                             "edge analysis of f7/curve_low inconclusive")
        # nothing is concluded from an unsettled decomposition
        value_notes = [records[cid]["note"] for cid in claims.CLAIM_IDS[:9]]
        assert not any("decomposition disagrees" in note or "found 0" in note for note in value_notes)
    if max_boxes == 100:
        # f9's critical search needs 101 boxes
        assert records["GAMMA4"]["status"] == "INCONCLUSIVE"
        assert records["GAMMA4"]["note"] == "interior critical-point search not certified"
    if max_boxes == 400:
        # enough for every branch-and-bound, edge analysis and critical search
        # but f6's, which takes 498 boxes and Krawczyk steps
        unsettled = {cid: r["note"] for cid, r in records.items() if r["status"] != "PASS"}
        assert sorted(unsettled) == ["EDGE_TABLE", "THM3_H22"]
        assert all("interior critical-point search not certified" in note for note in unsettled.values())


#: the value rows whose enclosure stays wider than the width bound at --tol 1e-3.
#: GAMMA2 is not one of them: f7's maximum is the corner (a, d), where the
#: Baumann centre is that corner, so its enclosure is 8e-16 wide after 5 boxes.
WIDE_AT_1E_3 = ["THM1_A4", "THM1_A5", "THM2_D43", "THM2_D54", "THM3_H22", "THM4_GAMMA3", "GAMMA4"]


@pytest.mark.parametrize("tol, wide", [
    pytest.param("1e-3", WIDE_AT_1E_3, id="1e-3"),
    pytest.param("1e-2", WIDE_AT_1E_3 + ["GAMMA2"], id="1e-2"),
])
def test_cli_verify_coarse_tol_gives_no_fail_row(tol, wide, capsys):
    # an enclosure wider than the bound that meets its window refutes nothing
    code = main(["verify", "--tol", tol, "--format", "json"])
    records = {r["claim_id"]: r for r in json.loads(capsys.readouterr().out)}
    assert code == 1
    assert [cid for cid, r in records.items() if r["status"] == "FAIL"] == []
    assert sorted(cid for cid, r in records.items() if "above bound" in r["note"]) == sorted(wide)
    assert {records[cid]["status"] for cid in wide} == {"INCONCLUSIVE"}


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


def test_a_wide_enclosure_that_misses_its_window_still_fails():
    ctx = claims.SuiteContext(SuiteConfig(tol_value=1e-3))
    ext, loc = ctx.extremum(ObjectiveId.F2), ctx.locate(ObjectiveId.F2)
    meets = claims._value_outcome(ext, loc, "3.461")
    assert meets.status == "INCONCLUSIVE" and "above bound" in meets.note
    out = claims._value_outcome(ext, loc, "3.500")
    assert out.status == "FAIL"
    assert "above bound" in out.note and "misses window 3.500" in out.note


def test_an_uncertified_critical_search_leaves_a_value_row_inconclusive():
    # f9's maximum is on x = a, but an interior point the search left could beat it
    ctx = claims.SuiteContext(SuiteConfig())
    ctx._critical[ObjectiveId.F9] = CriticalSearch(certified=False)
    (row,) = run_suite(["GAMMA4"], ctx=ctx)
    assert row.status == "INCONCLUSIVE"
    assert row.note == "interior critical-point search not certified"


def test_an_attribution_tie_leaves_a_row_with_an_expected_kind_inconclusive():
    # give f2's x = 0 edge the maximum of its x = a edge: the two tie
    ctx = claims.SuiteContext(SuiteConfig())
    top = ctx.edge(ObjectiveId.F2, EdgeId.X_A).value
    tied = ctx.edge(ObjectiveId.F2, EdgeId.X_ZERO)
    ctx._edges[(ObjectiveId.F2, EdgeId.X_ZERO)] = dataclasses.replace(tied, value=top)
    loc = ctx.locate(ObjectiveId.F2)
    assert not loc.separated and loc.kind == EdgeId.X_ZERO.value
    (row,) = run_suite(["THM1_A4"], ctx=ctx)
    assert row.status == "INCONCLUSIVE"
    assert row.note == "maximum on x_zero not separated from the runner-up"
    # without an expected kind the tie decides nothing
    assert claims._value_outcome(ctx.extremum(ObjectiveId.F2), loc, "3.461").status == "PASS"


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
    a3 = claims.SuiteContext(SuiteConfig()).f1_extremum().value
    printed = f"max in [{a3.lo:.10f}, {a3.hi:.10f}]"
    for edge in (EdgeId.X_A, EdgeId.Y_ZERO):
        assert printed in rows[list(EdgeId).index(edge)]
        assert claims.analyze_edge(ObjectiveId.F1, edge, BnBConfig()).value.intersects(a3)


def test_cli_maximize_f1(capsys):
    code = main(["maximize", "--objective", "f1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2.42739" in out


def test_cli_maximize_f1_converges_at_1e_11(capsys):
    code = main(["maximize", "--objective", "f1", "--tol", "1e-11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "boxes 1, converged True" in out


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
        (["edges", "--objective", "f2", "--tol", "inf"], "--tol"),
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

"""The value-move report of tools/value_diff.py on synthetic CSV pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "value_diff.py"
_SPEC = importlib.util.spec_from_file_location("value_diff", _PATH)
value_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(value_diff)

SUMMARY = "check,value,bound,margin,pass\r\nresidual,1e-15,1e-08,9.999999e-09,true\r\n"
TABLE = "index,eigenvalue\r\n0,-2.5\r\n1,0.5\r\n2,4.0\r\n"


def _run(code=0, table=TABLE, summary=SUMMARY, stdio="[PASS] residual\n"):
    return {"code": code, "files": {"o.csv": table, "o_summary.csv": summary}, "stdio": stdio}


def test_identical_files_print_nothing():
    assert value_diff.diff_csv("o.csv", TABLE, TABLE) == ([], [], {})
    assert value_diff.diff_run(_run(), _run()) == ([], [], {})
    assert value_diff.report({"spectrum c 3 -": _run()}, {"spectrum c 3 -": _run()}) == []


def test_a_moved_cell_gives_its_absolute_and_relative_move():
    moved = TABLE.replace("1,0.5", "1,0.75")
    lines, flips, moves = value_diff.diff_csv("o.csv", TABLE, moved)
    assert lines == ["o.csv eigenvalue: 1 cells moved, max |d| 0.25, max |d|/|x| 0.5"]
    assert flips == [] and moves == {"o.csv eigenvalue": (0.25, 0.5)}
    # the index column did not move, so it is not reported
    assert not any("index" in line for line in lines)


def test_a_flipped_verdict_is_named_with_its_check():
    failed = SUMMARY.replace("1e-15,1e-08,9.999999e-09,true", "2e-08,1e-08,-1e-08,false")
    lines, flips, _ = value_diff.diff_csv("o_summary.csv", SUMMARY, failed)
    assert flips == ["o_summary.csv row 1 (residual): pass true -> false"]
    assert "o_summary.csv value: 1 cells moved, max |d| 2e-08, max |d|/|x| 2e+07" in lines


def test_an_added_row_is_listed_and_the_paired_rows_compared():
    grown = TABLE + "3,6.0\r\n"
    lines, flips, moves = value_diff.diff_csv("o.csv", TABLE, grown)
    assert lines == ["o.csv rows: 3 -> 4", "o.csv + 3,6.0"]
    assert flips == [] and moves == {}
    lines, _, _ = value_diff.diff_csv("o.csv", grown, TABLE)
    assert lines == ["o.csv rows: 4 -> 3", "o.csv - 3,6.0"]


def test_text_cells_and_a_zero_reference_are_reported():
    old = 'x,z,value\r\n"(0,)",0.5+1j,0.0\r\n'
    new = 'x,z,value\r\n"(1,)",0.5+2j,0.5\r\n'
    lines, _, moves = value_diff.diff_csv("o.csv", old, new)
    assert lines == ["o.csv x: 1 other cells changed",
                     "o.csv z: 1 cells moved, max |d| 1, max |d|/|x| 0.894",
                     "o.csv value: 1 cells moved, max |d| 0.5, max |d|/|x| inf"]
    assert moves["o.csv z"] == pytest.approx((1.0, 1.0 / abs(0.5 + 1j)))


def test_report_counts_moved_runs_and_exit_code_flips():
    old = {"spectrum a 3 -": _run(), "spectrum b 3 -": _run(), "wegner a 3 -": _run()}
    new = {"spectrum a 3 -": _run(table=TABLE.replace("2,4.0", "2,5.0"), stdio="moved\n"),
           "spectrum b 3 -": _run(),
           "wegner a 3 -": _run(code=2)}
    assert value_diff.report(old, new) == [
        "spectrum a 3 -",
        "  moved: o.csv stdio",
        "  o.csv eigenvalue: 1 cells moved, max |d| 1, max |d|/|x| 0.25",
        "wegner a 3 -",
        "  FLIP exit code 0 -> 2",
        "spectrum o.csv eigenvalue: max |d| 1, max |d|/|x| 0.25",
        "2 of 3 runs moved (spectrum 1, wegner 1); 1 exit codes or pass cells flipped",
    ]


def test_a_run_only_one_side_has_is_reported():
    assert value_diff.report({}, {"poscomb a 3 -": _run()}) == [
        "poscomb a 3 -: run added",
        "1 of 1 runs moved (poscomb 1); 0 exit codes or pass cells flipped",
    ]

import subprocess
import sys
from pathlib import Path

import pytest

from reportdiff import diff_reports, main, relative_error

SCRIPT = Path(__file__).resolve().parent / "reportdiff.py"

CSV = "element,group,n,mean,note\nTitle,Blocker,597,2.17562394545,\nTitle,Critical,1028,nan,few rows\n"
TEXT = "issues: 10000\n  Title  Blocker=2.17562394545(n=597)  p=7.45914575083e-08 *\n"


def reports(root: Path, name: str, csv_text: str = CSV, text: str = TEXT) -> Path:
    directory = root / name
    directory.mkdir()
    (directory / "rq1.csv").write_text(csv_text, encoding="utf-8")
    (directory / "report.txt").write_text(text, encoding="utf-8")
    return directory


def test_equal_directories_exit_0_with_no_moved_cells(tmp_path, capsys):
    assert main([str(reports(tmp_path, "a")), str(reports(tmp_path, "b"))]) == 0
    assert capsys.readouterr().out.splitlines() == ["report.txt: 0 moved cells", "rq1.csv: 0 moved cells"]


def test_moved_cells_are_counted_per_file_with_the_worst_named(tmp_path, capsys):
    moved_csv = CSV.replace("2.17562394545", "2.17562394546").replace("1028", "1029")
    moved_text = TEXT.replace("e-08", "e-09").replace("Blocker", "Critical")
    code = main([str(reports(tmp_path, "a")), str(reports(tmp_path, "b", moved_csv, moved_text))])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "report.txt: 2 moved cells, worst row 2 cell 2: Blocker= -> Critical= (text)",
        "rq1.csv: 2 moved cells, worst row 3 column n: 1028 -> 1029 (relative 0.000972)",
    ]


def test_rows_and_files_that_one_side_lacks_are_differences(tmp_path):
    a = reports(tmp_path, "a")
    b = reports(tmp_path, "b", CSV + "Desc,Major,4531,1.48131089472,\n")
    (b / "report.txt").unlink()
    lonely, files = diff_reports(a, b)
    assert lonely == ["report.txt"]
    header = CSV.split("\n")[0].split(",")
    assert [(cell.row, cell.cell, cell.left, cell.right) for cell in files["rq1.csv"]] == [
        (4, f"column {name}", None, value)
        for name, value in zip(header, ["Desc", "Major", "4531", "1.48131089472", ""])]
    assert main([str(a), str(b)]) == 1


@pytest.mark.parametrize("left, right, error", [
    ("1.5", "1.5", 0.0),
    ("nan", "nan", 0.0),
    ("-0", "0", 0.0),  # a move all the same: its text differs
    ("2", "1", 0.5),
    ("1e-300", "-1e-300", 2.0),
    ("inf", "1e308", float("inf")),
    ("nan", "0", float("inf")),
    ("yes", "no", float("inf")),
])
def test_relative_error(left, right, error):
    assert relative_error(left, right) == error


def test_runs_as_a_script(tmp_path):
    a, b = reports(tmp_path, "a"), reports(tmp_path, "b", text=TEXT.replace("e-08", "e-07"))
    same = subprocess.run([sys.executable, str(SCRIPT), str(a), str(a)], capture_output=True, text=True)
    moved = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True)
    assert (same.returncode, moved.returncode) == (0, 1)
    assert "report.txt: 1 moved cells, worst row 2 cell 8: 7.45914575083e-08 -> 7.45914575083e-07" in moved.stdout
    usage = subprocess.run([sys.executable, str(SCRIPT), str(a)], capture_output=True, text=True)
    assert usage.returncode == 2 and "usage" in usage.stderr

#!/usr/bin/env python3
"""Compare two report directories cell by cell.

    python tests/reportdiff.py A B

Both directories must hold the same file names. Within each file, lines are
paired by position. A ``.csv`` line's cells are its CSV fields; any other
file's line is cut into words, and each word into numbers and the text
between them. A cell that reads
as a number on both sides is compared by relative error, anything else
exactly; a cell moves when its text differs, so ``-0`` against ``0`` is a
move of relative error 0. Per file, it prints the number of moved cells and
the worst one: a text change, or a cell that only one side has, is worse than
any numeric move.
The exit status is 0 when no cell moved and 1 otherwise.
"""
from __future__ import annotations

import csv
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

# a number as the report writer prints one, including "nan" and "inf"
_NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf))")


@dataclass(frozen=True)
class Moved:
    row: int  # 1-based line of the file
    cell: str  # "column" and the CSV header's name, or "cell" and the 1-based index in a text line
    left: str | None  # None: the side has no such row or cell
    right: str | None
    error: float  # relative error; inf for a text change or a missing cell

    def __str__(self) -> str:
        how = "text" if math.isinf(self.error) else f"relative {self.error:.3g}"
        return f"row {self.row} {self.cell}: {self.left} -> {self.right} ({how})"


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def relative_error(left: str, right: str) -> float:
    """0 for equal cells (NaN equals NaN), the relative error of two numbers, else inf."""
    if left == right:
        return 0.0
    a, b = _number(left), _number(right)
    if a is None or b is None:
        return math.inf
    if math.isnan(a) and math.isnan(b) or a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    if math.isnan(a) or math.isnan(b) or math.isinf(scale):
        return math.inf
    return abs(a - b) / scale


def _rows(path: Path) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return list(csv.reader(text.splitlines()))
    return [[piece for word in line.split() for piece in _NUMBER.split(word) if piece]
            for line in text.splitlines()]


def diff_file(left: Path, right: Path) -> list[Moved]:
    """Every cell that differs between two files of one name."""
    rows_a, rows_b = _rows(left), _rows(right)
    header = rows_a[0] if left.suffix == ".csv" and rows_a else []
    moved = []
    for row in range(max(len(rows_a), len(rows_b))):
        cells_a = rows_a[row] if row < len(rows_a) else []
        cells_b = rows_b[row] if row < len(rows_b) else []
        for index in range(max(len(cells_a), len(cells_b))):
            a = cells_a[index] if index < len(cells_a) else None
            b = cells_b[index] if index < len(cells_b) else None
            if a != b:
                cell = f"column {header[index]}" if index < len(header) else f"cell {index + 1}"
                error = math.inf if a is None or b is None else relative_error(a, b)
                moved.append(Moved(row + 1, cell, a, b, error))
    return moved


def diff_reports(left: Path, right: Path) -> tuple[list[str], dict[str, list[Moved]]]:
    """The file names that only one directory holds, and the moved cells of each shared file."""
    names_a = {p.name for p in Path(left).iterdir() if p.is_file()}
    names_b = {p.name for p in Path(right).iterdir() if p.is_file()}
    lonely = sorted(names_a ^ names_b)
    return lonely, {name: diff_file(Path(left) / name, Path(right) / name) for name in sorted(names_a & names_b)}


def summary(left, right) -> tuple[list[str], bool]:
    """The per-file lines that ``main`` prints, and whether any cell or file differs."""
    lonely, files = diff_reports(Path(left), Path(right))
    lines = [f"{name}: only in {left if (Path(left) / name).is_file() else right}" for name in lonely]
    for name, moved in files.items():
        worst = max(moved, key=lambda cell: cell.error, default=None)
        lines.append(f"{name}: {len(moved)} moved cells" + (f", worst {worst}" if worst else ""))
    return lines, bool(lonely or any(files.values()))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: reportdiff.py A B  (two report directories)", file=sys.stderr)
        return 2
    lines, differ = summary(*args)
    for line in lines:
        print(line)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())

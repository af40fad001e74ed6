"""Deterministic CSV and plain-text rendering of analysis results.

Float formatting is fixed (12 significant digits, '' for absent values) so
reruns with identical inputs produce byte-identical files. A run into an
existing directory deletes the files of ``REPORT_FILES`` that it does not
write, so the directory never mixes two runs, and leaves every other file.
``report.txt`` escapes each control or line-breaking character as ``repr``
does, so an external feature's name cannot split one of its lines.
"""
from __future__ import annotations

import csv
import re
from collections.abc import Iterable, Sequence
from pathlib import Path
from types import SimpleNamespace

from .analyses import (PRUNE_ALPHA, SIGN_ALPHA, AnalysisResults, GroupTable, PairedDeltaTable, Rq3Report, SignTable,
                       SummaryResult)


POINT_ROWS = 8192  # rq1_summary_points.csv is formatted this many rows at a time


# the characters that str.splitlines breaks a line on, and the other control characters
_UNPRINTABLE = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def _one_line(text: str) -> str:
    """``text`` with each of ``_UNPRINTABLE`` escaped as ``repr`` escapes it, a
    carriage return as ``\\r``; other text, a backslash included, is kept."""
    return _UNPRINTABLE.sub(lambda match: repr(match.group())[1:-1], text)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        # the writer quotes a field that holds a character of its terminator, so
        # "\r\n" quotes an id or a name with "\r" as "\n" alone does not; each
        # row is written with that "\r\n" cut back to "\n"
        lines = SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
        writer = csv.writer(lines, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _test_columns(cell) -> list:
    """The p, d, d_label, significant and note columns of a tested cell, a
    ``GroupComparison`` or a ``PairedCell``; all blank for no cell."""
    res = None if cell is None else cell.result
    if res is None:
        return [None, None, None, None, None if cell is None else cell.note]
    return [res.p, res.d, res.d_label, res.significant, None]


def group_table_rows(table: GroupTable) -> tuple[list[str], list[list]]:
    header = ["element", "group", "n", "mean", "p_vs_right", "d_vs_right", "d_label", "significant", "note"]
    rows = []
    for row in table.rows:
        by_left = {c.left: c for c in row.comparisons}
        for group in table.groups:
            # the rightmost group has no right-hand neighbour
            rows.append([row.element, group, row.ns[group], row.means[group], *_test_columns(by_left.get(group))])
    return header, rows


def paired_table_rows(table: PairedDeltaTable) -> tuple[list[str], list[list]]:
    header = ["dimension", "scope", "n_pairs", "mean_first", "mean_last", "p", "d", "d_label", "significant", "note"]
    rows = []
    for cell in table.cells:
        means = [None, None] if cell.result is None else [cell.result.mean_a, cell.result.mean_b]
        rows.append([cell.dimension, cell.scope, cell.n_pairs, *means, *_test_columns(cell)])
    return header, rows


def sign_table_rows(table: SignTable) -> tuple[list[str], list[list]]:
    header = ["characteristic"] + [f"{role}_{dim[0].upper()}" for role, dim in table.columns]
    rows = []
    for row in table.rows:
        rows.append([row] + [table.cells[(row, role, dim)] for role, dim in table.columns])
    return header, rows


def summary_point_rows(summary: SummaryResult) -> tuple[list[str], Iterable[tuple]]:
    def points():
        for start in range(0, len(summary.ids), POINT_ROWS):
            block = slice(start, start + POINT_ROWS)
            yield from zip(summary.ids[block].tolist(), summary.valence[block].tolist(),
                           summary.arousal[block].tolist())

    return ["issue_id", "valence", "arousal"], points()


def summary_fit_rows(summary: SummaryResult) -> tuple[list[str], list[list]]:
    rows = []
    for degree, fit in (("1", summary.linear), ("2", summary.quadratic)):
        if fit is not None:
            coeffs = list(fit.coefficients) + [None] * (3 - len(fit.coefficients))
            rows.append([degree, coeffs[0], coeffs[1], coeffs[2], fit.r_squared, fit.residual_ss])
    return ["degree", "c0", "c1", "c2", "r_squared", "residual_ss"], rows


def rq3_coefficient_rows(report: Rq3Report) -> tuple[list[str], list[list]]:
    models = [(stage.name, stage.model) for stage in report.stages]
    if report.final_model is not None:
        models.append(("final", report.final_model))
    rows = []
    for label, model in models:
        names = ["intercept", *model.columns]
        for name, b, s, p in zip(names, model.coefficients, model.std_errors, model.p_values):
            rows.append([label, name, b, s, p])
    return ["stage", "column", "estimate", "std_error", "p_value"], rows


def rq3_performance_rows(report: Rq3Report) -> tuple[list[str], list[list]]:
    rows = []
    for name, cv in [("ZeroR", report.zero_r), *((stage.name, stage.cv) for stage in report.stages)]:
        if cv is not None:
            rows.append([name, "Short", cv.short.precision, cv.short.recall, cv.short.f1, cv.auc])
            rows.append([name, "Long", cv.long.precision, cv.long.recall, cv.long.f1, cv.auc])
            rows.append([name, "Weighted Avg.", cv.weighted_precision, cv.weighted_recall,
                         cv.weighted_f1, cv.auc])
    return ["classifier", "class", "precision", "recall", "f1", "auc"], rows


def rq3_comparison_rows(report: Rq3Report) -> tuple[list[str], list[list]]:
    rows = []
    for earlier, later in zip(report.stages, report.stages[1:]):
        rows.append([earlier.name, later.name, later.lr_p_vs_previous])
    return ["reduced", "full", "p_value"], rows


def rq3_filter_rows(report: Rq3Report) -> tuple[list[str], list[list]]:
    return (["kept", "candidate_drop", "r", "dropped"],
            [[d.keep, d.drop, d.r, d.dropped] for d in report.filter_decisions])


def rq3_impact_rows(report: Rq3Report) -> tuple[list[str], list[list]]:
    return ["feature", "impact_pct"], [[entry.feature, entry.impact] for entry in report.impacts]


# each CSV of a report, in the order written: its file name, the AnalysisResults
# attribute that it renders (no file when that is None) and its (header, rows) builder
TABLES = (
    ("rq1_priority_arousal.csv", "rq1_priority", group_table_rows),
    ("rq1_type_valence.csv", "rq1_type", group_table_rows),
    ("rq1_dominance_time.csv", "rq1_time", group_table_rows),
    ("rq1_summary_points.csv", "summary", summary_point_rows),
    ("rq1_summary_fits.csv", "summary", summary_fit_rows),
    ("rq2_first_last.csv", "rq2", paired_table_rows),
    ("rq3_coefficients.csv", "rq3", rq3_coefficient_rows),
    ("rq3_performance.csv", "rq3", rq3_performance_rows),
    ("rq3_model_comparison.csv", "rq3", rq3_comparison_rows),
    ("rq3_correlation_filter.csv", "rq3", rq3_filter_rows),
    ("rq3_impacts.csv", "rq3", rq3_impact_rows),
    ("rq4_sign_table.csv", "rq4", sign_table_rows),
)
REPORT_FILES = (*(name for name, _, _ in TABLES), "report.txt")


def write_reports(results: AnalysisResults, outdir: str | Path) -> list[Path]:
    """Write one CSV per produced table plus a combined report.txt, and
    delete the other ``REPORT_FILES`` that an earlier run left in ``outdir``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, attribute, table_rows in TABLES:
        path = outdir / name
        result = getattr(results, attribute)
        if result is not None:
            _write_csv(path, *table_rows(result))
            written.append(path)
        elif path.is_file():
            path.unlink()

    text = render_text_report(results)
    report_path = outdir / "report.txt"
    report_path.write_text(text, encoding="utf-8")
    written.append(report_path)
    return written


# ---------------------------------------------------------------------------
# combined human-readable report
# ---------------------------------------------------------------------------

def _render_group_table(table: GroupTable, title: str, lines: list[str]) -> None:
    lines.append(title)
    lines.append(f"  groups: {', '.join(table.groups)} (each tested against the group to its right)")
    lines.append(f"  comparisons: {table.comparisons}, adjusted alpha: {_fmt(table.adjusted_alpha)}")
    lines.append(f"  issues used: {table.n_used}/{table.n_total}"
                 + (f" ({table.n_skipped} skipped: {table.skip_reason})" if table.n_skipped else ""))
    for row in table.rows:
        means = "  ".join(f"{g}={_fmt(row.means[g])}(n={row.ns[g]})" for g in table.groups)
        lines.append(f"  {row.element:<6} {means}")
        for comparison in row.comparisons:
            if comparison.result is None:
                lines.append(f"         {comparison.left} vs {comparison.right}: {comparison.note}")
            else:
                res = comparison.result
                flag = " *" if res.significant else ""
                lines.append(
                    f"         {comparison.left} vs {comparison.right}: "
                    f"p={_fmt(res.p)} d={_fmt(res.d)} ({res.d_label}){flag}"
                )
    lines.append("")


def render_text_report(results: AnalysisResults) -> str:
    lines: list[str] = []
    lines.append("vadminer analysis report")
    lines.append("========================")
    lines.append(f"issues: {results.n_issues} ({results.n_scored} with at least one scored element)")
    lines.append("")

    if results.rq1_priority is not None:
        _render_group_table(results.rq1_priority, "Arousal by priority", lines)
    if results.rq1_type is not None:
        _render_group_table(results.rq1_type, "Valence by issue-type group", lines)
    if results.rq1_time is not None:
        _render_group_table(results.rq1_time, "Dominance by resolution-time half", lines)

    if results.summary is not None:
        summary = results.summary
        lines.append("Per-issue valence/arousal summary")
        lines.append(f"  points: {len(summary.ids)} ({summary.n_skipped} skipped)")
        if summary.linear is not None and summary.quadratic is not None:
            lines.append(f"  linear R^2: {_fmt(summary.linear.r_squared)}; "
                         f"quadratic R^2: {_fmt(summary.quadratic.r_squared)}")
        elif summary.note:
            lines.append(f"  {summary.note}")
        lines.append("")

    if results.rq2 is not None:
        table = results.rq2
        lines.append("First vs last comment (paired)")
        lines.append(f"  comparisons: {table.comparisons}, adjusted alpha: {_fmt(table.adjusted_alpha)}")
        for scope in sorted(table.scope_counts):
            counts = table.scope_counts[scope]
            lines.append(f"  scope {scope}: {counts['qualified']} qualified, {counts['excluded']} excluded")
        for cell in table.cells:
            if cell.result is None:
                lines.append(f"  {cell.dimension[0].upper()}/{cell.scope}: {cell.note}")
            else:
                res = cell.result
                flag = " *" if res.significant else ""
                lines.append(f"  {cell.dimension[0].upper()}/{cell.scope}: n={cell.n_pairs} "
                             f"p={_fmt(res.p)} d={_fmt(res.d)}{flag}")
        lines.append("")

    if results.rq3 is not None:
        report = results.rq3
        lines.append("Resolution-time classification (hierarchical logistic)")
        lines.append(f"  issues: {report.n_used} used / {report.n_resolved} resolved / {report.n_total} total"
                     f" (unresolved skipped: {report.n_skipped_unresolved},"
                     f" incomplete scores: {report.n_skipped_incomplete})")
        if report.long_share is not None:
            lines.append(f"  Long share: {_fmt(report.long_share)}")
        if report.zero_r is not None:
            zr = report.zero_r
            lines.append(f"  ZeroR: Long precision={_fmt(zr.long.precision)} recall={_fmt(zr.long.recall)} "
                         f"f1={_fmt(zr.long.f1)} auc={_fmt(zr.auc)}")
        for stage in report.stages:
            parts = [f"  stage {stage.name}: deviance={_fmt(stage.model.deviance)}"]
            if stage.cv is not None:
                parts.append(f"cv auc={_fmt(stage.cv.auc)} weighted f1={_fmt(stage.cv.weighted_f1)}")
            if stage.lr_p_vs_previous is not None:
                parts.append(f"lr p vs previous={_fmt(stage.lr_p_vs_previous)}")
            lines.append(" ".join(parts))
        if report.pruned:
            lines.append(f"  pruned (p >= {_fmt(PRUNE_ALPHA)}): {', '.join(report.pruned)}")
        for entry in report.impacts:
            lines.append(f"  impact {entry.feature}: {_fmt(entry.impact)}%")
        for notice in report.notices:
            lines.append(f"  note: {notice}")
        lines.append("")

    if results.rq4 is not None:
        table = results.rq4
        lines.append(f"Issue characteristics vs role scores (signs at p < {_fmt(SIGN_ALPHA)})")
        header = "  " + " ".join(f"{role[:3]}/{dim[0].upper()}" for role, dim in table.columns)
        lines.append(f"  {'':<26}{header}")
        for row in table.rows:
            cells = "    ".join(f"{table.cells[(row, role, dim)] or '.':<3}" for role, dim in table.columns)
            lines.append(f"  {row:<26}  {cells}")
        for notice in table.notices:
            lines.append(f"  note: {notice}")
        lines.append("")

    return "\n".join(map(_one_line, lines)) + "\n"

"""Deterministic CSV and plain-text rendering of analysis results.

Float formatting is fixed (12 significant digits, '' for absent values) so
reruns with identical inputs produce byte-identical files.
"""
from __future__ import annotations

import csv
from pathlib import Path

from .analyses import AnalysisResults, GroupTable, PairedDeltaTable, SignTable


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def group_table_rows(table: GroupTable) -> tuple[list[str], list[list]]:
    header = ["element", "group", "n", "mean", "p_vs_right", "d_vs_right", "d_label", "significant", "note"]
    rows = []
    for row in table.rows:
        by_left = {c.left: c for c in row.comparisons}
        for group in table.groups:
            comparison = by_left.get(group)
            if comparison is None:  # rightmost group has no right-hand neighbour
                rows.append([row.element, group, row.ns[group], row.means[group], None, None, None, None, None])
            elif comparison.result is None:
                rows.append([row.element, group, row.ns[group], row.means[group],
                             None, None, None, None, comparison.note])
            else:
                res = comparison.result
                rows.append([row.element, group, row.ns[group], row.means[group],
                             res.p, res.d, res.d_label, res.significant, None])
    return header, rows


def paired_table_rows(table: PairedDeltaTable) -> tuple[list[str], list[list]]:
    header = ["dimension", "scope", "n_pairs", "mean_first", "mean_last", "p", "d", "d_label", "significant", "note"]
    rows = []
    for cell in table.cells:
        if cell.result is None:
            rows.append([cell.dimension, cell.scope, cell.n_pairs,
                         None, None, None, None, None, None, cell.note])
        else:
            res = cell.result
            rows.append([cell.dimension, cell.scope, cell.n_pairs,
                         res.mean_a, res.mean_b, res.p, res.d, res.d_label, res.significant, None])
    return header, rows


def sign_table_rows(table: SignTable) -> tuple[list[str], list[list]]:
    header = ["characteristic"] + [f"{role}_{dim[0].upper()}" for role, dim in table.columns]
    rows = []
    for row in table.rows:
        rows.append([row] + [table.cells[(row, role, dim)] for role, dim in table.columns])
    return header, rows


def write_reports(results: AnalysisResults, outdir: str | Path) -> list[Path]:
    """Write one CSV per produced table plus a combined report.txt."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, header: list[str], rows: list[list]) -> None:
        path = outdir / name
        _write_csv(path, header, rows)
        written.append(path)

    if results.rq1_priority is not None:
        emit("rq1_priority_arousal.csv", *group_table_rows(results.rq1_priority))
    if results.rq1_type is not None:
        emit("rq1_type_valence.csv", *group_table_rows(results.rq1_type))
    if results.rq1_time is not None:
        emit("rq1_dominance_time.csv", *group_table_rows(results.rq1_time))

    if results.summary is not None:
        summary = results.summary
        fitted = [fit.predict(summary.valence).tolist() if fit else [None] * len(summary.ids)
                  for fit in (summary.linear, summary.quadratic)]
        rows = list(zip(summary.ids.tolist(), summary.valence.tolist(), summary.arousal.tolist(), *fitted))
        emit("rq1_summary_points.csv",
             ["issue_id", "valence", "arousal", "linear_fit", "quadratic_fit"], rows)
        fit_rows = []
        for degree, fit in (("1", summary.linear), ("2", summary.quadratic)):
            if fit is not None:
                coeffs = list(fit.coefficients) + [None] * (3 - len(fit.coefficients))
                fit_rows.append([degree, coeffs[0], coeffs[1], coeffs[2], fit.r_squared, fit.residual_ss])
        emit("rq1_summary_fits.csv",
             ["degree", "c0", "c1", "c2", "r_squared", "residual_ss"], fit_rows)

    if results.rq2 is not None:
        emit("rq2_first_last.csv", *paired_table_rows(results.rq2))

    if results.rq3 is not None:
        report = results.rq3
        models = [(stage.name, stage.model) for stage in report.stages]
        if report.final_model is not None:
            models.append(("final", report.final_model))
        coeff_rows = []
        for label, model in models:
            names = ["intercept", *model.columns]
            for name, b, s, p in zip(names, model.coefficients, model.std_errors, model.p_values):
                coeff_rows.append([label, name, b, s, p])
        emit("rq3_coefficients.csv",
             ["stage", "column", "estimate", "std_error", "p_value"], coeff_rows)

        perf_rows = []

        def perf(name: str, cv) -> None:
            if cv is None:
                return
            perf_rows.append([name, "Short", cv.short.precision, cv.short.recall, cv.short.f1, cv.auc])
            perf_rows.append([name, "Long", cv.long.precision, cv.long.recall, cv.long.f1, cv.auc])
            perf_rows.append([name, "Weighted Avg.", cv.weighted_precision, cv.weighted_recall,
                              cv.weighted_f1, cv.auc])

        perf("ZeroR", report.zero_r)
        for stage in report.stages:
            perf(stage.name, stage.cv)
        emit("rq3_performance.csv",
             ["classifier", "class", "precision", "recall", "f1", "auc"], perf_rows)

        lr_rows = []
        for earlier, later in zip(report.stages, report.stages[1:]):
            lr_rows.append([earlier.name, later.name, later.lr_p_vs_previous])
        emit("rq3_model_comparison.csv", ["reduced", "full", "p_value"], lr_rows)

        emit("rq3_correlation_filter.csv",
             ["kept", "candidate_drop", "r", "dropped"],
             [[d.keep, d.drop, d.r, d.dropped] for d in report.filter_decisions])

        emit("rq3_impacts.csv", ["feature", "impact_pct"],
             [[entry.feature, entry.impact] for entry in report.impacts])

    if results.rq4 is not None:
        emit("rq4_sign_table.csv", *sign_table_rows(results.rq4))

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
            lines.append(f"  pruned (p >= {_fmt(report.prune_alpha)}): {', '.join(report.pruned)}")
        for entry in report.impacts:
            lines.append(f"  impact {entry.feature}: {_fmt(entry.impact)}%")
        for notice in report.notices:
            lines.append(f"  note: {notice}")
        lines.append("")

    if results.rq4 is not None:
        table = results.rq4
        lines.append(f"Issue characteristics vs role scores (signs at p < {_fmt(table.alpha)})")
        header = "  " + " ".join(f"{role[:3]}/{dim[0].upper()}" for role, dim in table.columns)
        lines.append(f"  {'':<26}{header}")
        for row in table.rows:
            cells = "    ".join(f"{table.cells[(row, role, dim)] or '.':<3}" for role, dim in table.columns)
            lines.append(f"  {row:<26}  {cells}")
        for notice in table.notices:
            lines.append(f"  note: {notice}")
        lines.append("")

    return "\n".join(lines) + "\n"

"""Analysis pipelines over a scored issue corpus.

``score_corpus`` scans every title, description and comment once into a
columnar ``ScoreTable``; every pipeline reads its arrays. Four pipelines
compose the score table with the statistics and model layers:

1. group comparisons of one dimension across priority, type-group and
   resolution-time halves (adjacent-pair tests, Bonferroni-adjusted);
2. paired first-vs-last comment deltas per dimension and commenter role;
3. a hierarchical logistic model of the Short/Long resolution split
   (controls, then external affective columns, then text-score columns)
   with cross-validated performance, a majority baseline and impact sizes;
4. per-role linear regressions summarized as a +/- sign table.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    IssueReport,
    PRIORITIES,
    PRIORITY_LEVEL,
    ROLES,
    TYPE_GROUP_ORDER,
    role_of,
)
from .lexicon import DIMENSIONS, Lexicon
from .models import (
    CvReport,
    DesignMatrix,
    FilterDecision,
    FittedModel,
    ImpactEntry,
    LONG,
    binarize_outcome,
    correlation_filter,
    crossval,
    fit_linear,
    fit_logistic,
    impact_sizes,
    lr_test,
    zero_r,
)
from .stats import ComparisonResult, FitResult, bonferroni_alpha, paired_t_test, polyfit, welch_t_test
from .textscore import scan

ELEMENTS = ("Title", "Desc", "All", "First", "Last")

RQ2_SCOPES = ("All", "Assignees'", "Reporters'", "Others'")
_SCOPE_ROLE = {"Assignees'": "Assignee", "Reporters'": "Reporter", "Others'": "Other"}

TIME_GROUPS = ("Short time", "High time")

VAD_ELEMENT_KEYS = ("title", "desc", "all", "first", "last")

SIGN_TABLE_ROWS = (
    "Priority", "Issue Type", "Resolution Time", "# votes", "# comments",
    "# watchers", "# assignee prev. issues", "# reporter prev. issues",
)
_SIGN_ROW_COLUMN = {
    "Priority": "priority_level",
    "Issue Type": "bug_group",  # sign of the Bug indicator (All Tasks reference)
    "Resolution Time": "resolution_time",
    "# votes": "votes",
    "# comments": "n_comments",
    "# watchers": "n_watchers",
    "# assignee prev. issues": "assignee_prev_issues",
    "# reporter prev. issues": "reporter_prev_issues",
}


# ---------------------------------------------------------------------------
# corpus scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Range scores of a corpus, one row per issue; NaN where the element is
    absent or nothing in it matched the lexicon.

    ``elements[i, e, k]`` scores issue ``i``'s element ``ELEMENTS[e]`` on
    ``DIMENSIONS[k]``. Issue ``i``'s comments are rows
    ``offsets[i]:offsets[i + 1]`` of ``comments`` (their scores) and of
    ``roles`` (index into ``ROLES``, from ``role_of``).
    """

    issues: tuple[IssueReport, ...] = field(repr=False)
    elements: np.ndarray  # (issues, 5, 3)
    comments: np.ndarray  # (comments, 3)
    offsets: np.ndarray   # (issues + 1,)
    roles: np.ndarray     # (comments,)

    __hash__ = None

    def __len__(self) -> int:
        return len(self.issues)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return self.issues == other.issues and all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in ("elements", "comments", "offsets", "roles"))

    @property
    def comment_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def owner(self) -> np.ndarray:
        """Issue row of every comment row."""
        return np.repeat(np.arange(len(self.issues)), self.comment_counts)

    def select(self, rows) -> "ScoreTable":
        """The table of the given issue rows (indices or a boolean mask), in that order."""
        rows = np.arange(len(self.issues))[rows]
        counts = self.comment_counts[rows]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        comment_rows = np.repeat(self.offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
        return ScoreTable(tuple(self.issues[i] for i in rows), self.elements[rows],
                          self.comments[comment_rows], offsets, self.roles[comment_rows])


def _fold_columns(lo: np.ndarray, hi: np.ndarray, baselines: np.ndarray) -> np.ndarray:
    # textscore.fold over arrays of extremes; NaN extremes give NaN
    return np.where(lo > baselines, hi - baselines,
                    np.where(hi < baselines, baselines - lo, hi - lo))


def score_corpus(issues, lexicon: Lexicon, jobs: int = 1) -> ScoreTable:
    """Scan every title, description and comment once into a ScoreTable.

    First and Last are their comment's row. All folds the per-comment
    extremes, which equals scoring the newline-joined comments: a newline
    never joins two words, and min/max are exact. ``jobs`` is accepted for
    compatibility and has no effect; scoring runs in this process.
    """
    issues = tuple(issues)
    counts = np.fromiter((len(issue.comments) for issue in issues), dtype=np.int64, count=len(issues))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    extremes = np.dtype((np.float64, 7))  # one textscore.scan result
    heads = np.fromiter((scan(text, lexicon) for issue in issues
                         for text in (issue.title, issue.description)),
                        dtype=extremes, count=2 * len(issues)).reshape(len(issues), 2, 7)
    thread = np.fromiter((scan(c.body, lexicon) for issue in issues for c in issue.comments),
                         dtype=extremes, count=offsets[-1])
    role_code = {role: code for code, role in enumerate(ROLES)}
    roles = np.fromiter((role_code[role_of(c, issue)] for issue in issues for c in issue.comments),
                        dtype=np.int8, count=offsets[-1])

    baselines = np.array([lexicon.baseline(dim) for dim in DIMENSIONS])
    comments = _fold_columns(thread[:, :3], thread[:, 3:6], baselines)
    elements = np.full((len(issues), len(ELEMENTS), len(DIMENSIONS)), np.nan)
    elements[:, :2] = _fold_columns(heads[:, :, :3], heads[:, :, 3:6], baselines)
    threaded = counts > 0
    firsts, lasts = offsets[:-1][threaded], offsets[1:][threaded] - 1
    if len(firsts):
        lo = np.fmin.reduceat(thread[:, :3], firsts, axis=0)
        hi = np.fmax.reduceat(thread[:, 3:6], firsts, axis=0)
        elements[threaded, 2] = _fold_columns(lo, hi, baselines)
        elements[threaded, 3] = comments[firsts]
        elements[threaded, 4] = comments[lasts]
    return ScoreTable(issues, elements, comments, offsets, roles)


def participant_history(issues) -> dict[str, dict[str, int]]:
    """Per issue: prior comment and issue counts of its assignee/reporter.

    "Prior" is by issue creation order (ties broken by id); the current
    issue's own activity is excluded.
    """
    ordered = sorted(issues, key=lambda i: (i.created, i.id))
    comments_by: dict[str, int] = {}
    reported_by: dict[str, int] = {}
    assigned_to: dict[str, int] = {}
    history: dict[str, dict[str, int]] = {}
    for issue in ordered:
        history[issue.id] = {
            "assignee_prev_comments": comments_by.get(issue.assignee, 0) if issue.assignee else 0,
            "reporter_prev_comments": comments_by.get(issue.reporter, 0),
            "assignee_prev_issues": assigned_to.get(issue.assignee, 0) if issue.assignee else 0,
            "reporter_prev_issues": reported_by.get(issue.reporter, 0),
        }
        for comment in issue.comments:
            comments_by[comment.author] = comments_by.get(comment.author, 0) + 1
        reported_by[issue.reporter] = reported_by.get(issue.reporter, 0) + 1
        if issue.assignee:
            assigned_to[issue.assignee] = assigned_to.get(issue.assignee, 0) + 1
    return history


# ---------------------------------------------------------------------------
# group tables (priority / type group / resolution-time half)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupComparison:
    left: str
    right: str
    n_left: int
    n_right: int
    result: ComparisonResult | None
    note: str | None = None


@dataclass(frozen=True)
class GroupRow:
    element: str
    means: dict[str, float | None]
    ns: dict[str, int]
    comparisons: tuple[GroupComparison, ...]


@dataclass(frozen=True)
class GroupTable:
    dimension: str
    groups: tuple[str, ...]
    rows: tuple[GroupRow, ...]
    comparisons: int
    adjusted_alpha: float
    n_total: int
    n_used: int
    n_skipped: int = 0
    skip_reason: str | None = None


def _build_group_table(table: ScoreTable, dimension: str, labels, groups, alpha: float,
                       n_skipped: int = 0, skip_reason: str | None = None) -> GroupTable:
    """``labels`` holds each issue's group, None for issues left out."""
    groups = tuple(groups)
    code_of = {group: code for code, group in enumerate(groups)}
    codes = np.fromiter((code_of.get(label, -1) for label in labels), dtype=np.int64, count=len(table))
    scores = table.elements[:, :, DIMENSIONS.index(dimension)]
    per_cell = {}
    for e, element in enumerate(ELEMENTS):
        scored = ~np.isnan(scores[:, e])
        for code, group in enumerate(groups):
            per_cell[(element, group)] = scores[scored & (codes == code), e]

    n_comparisons = len(ELEMENTS) * (len(groups) - 1)
    adjusted = bonferroni_alpha(alpha, n_comparisons)

    rows = []
    for element in ELEMENTS:
        means = {}
        ns = {}
        for group in groups:
            values = per_cell[(element, group)]
            ns[group] = len(values)
            means[group] = float(np.mean(values)) if len(values) else None
        comparisons = []
        for left, right in zip(groups, groups[1:]):
            a = per_cell[(element, left)]
            b = per_cell[(element, right)]
            if len(a) < 2 or len(b) < 2:
                comparisons.append(GroupComparison(left, right, len(a), len(b),
                                                   result=None, note="insufficient data"))
            else:
                result = welch_t_test(a, b, alpha=adjusted)
                comparisons.append(GroupComparison(left, right, len(a), len(b), result=result))
        rows.append(GroupRow(element=element, means=means, ns=ns, comparisons=tuple(comparisons)))

    return GroupTable(
        dimension=dimension, groups=groups, rows=tuple(rows),
        comparisons=n_comparisons, adjusted_alpha=adjusted,
        n_total=len(table), n_used=int(np.count_nonzero(codes >= 0)),
        n_skipped=n_skipped, skip_reason=skip_reason,
    )


def rq1_priority_arousal(corpus, lexicon: Lexicon, alpha: float = 0.05, scores=None) -> GroupTable:
    """Arousal means per priority with Blocker->Trivial adjacent-pair tests."""
    table = scores if scores is not None else score_corpus(corpus, lexicon)
    return _build_group_table(table, "arousal", [issue.priority for issue in table.issues],
                              PRIORITIES, alpha)


def rq1_type_valence(corpus, lexicon: Lexicon, alpha: float = 0.05, scores=None) -> GroupTable:
    """Valence means for Future Dev / All Tasks / Bug groups; type Other excluded."""
    table = scores if scores is not None else score_corpus(corpus, lexicon)
    return _build_group_table(table, "valence", [issue.type_group for issue in table.issues],
                              TYPE_GROUP_ORDER, alpha)


def rq1_dominance_time(corpus, lexicon: Lexicon, alpha: float = 0.05, scores=None) -> GroupTable:
    """Dominance means across a half split of resolution time (resolved issues).

    The faster half of the resolved issues is "Short time", the rest "High
    time" (ties broken by corpus order), so each side holds half the issues.
    """
    table = scores if scores is not None else score_corpus(corpus, lexicon)
    times = [issue.resolution_time for issue in table.issues]
    resolved = [row for row, time in enumerate(times) if time is not None]
    labels = [None] * len(table)
    for rank, row in enumerate(sorted(resolved, key=times.__getitem__)):
        labels[row] = "Short time" if rank < len(resolved) // 2 else "High time"
    return _build_group_table(table, "dominance", labels, TIME_GROUPS, alpha,
                              n_skipped=len(table) - len(resolved), skip_reason="unresolved")


# ---------------------------------------------------------------------------
# per-issue summary scatter and curvature fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryPoint:
    issue_id: str
    valence: float
    arousal: float


@dataclass(frozen=True)
class SummaryResult:
    points: tuple[SummaryPoint, ...]
    linear: FitResult | None
    quadratic: FitResult | None
    n_total: int
    n_skipped: int
    note: str | None = None


def rq1_summary(corpus, lexicon: Lexicon, scores=None) -> SummaryResult:
    """One (valence, arousal) point per issue, averaging Title/Desc/All scores,
    with linear and quadratic fits of arousal on valence."""
    table = scores if scores is not None else score_corpus(corpus, lexicon)
    head = table.elements[:, :3, :2]  # Title, Desc, All x valence, arousal
    present = ~np.isnan(head[:, :, :1])
    counts = present.sum(axis=1)
    terms = np.where(present, head, 0.0)
    # summed in element order, as np.mean sums fewer than eight values
    means = (terms[:, 0] + terms[:, 1] + terms[:, 2]) / np.maximum(counts, 1)
    rows = np.flatnonzero(counts[:, 0])
    points = [SummaryPoint(issue_id=table.issues[row].id, valence=valence, arousal=arousal)
              for row, (valence, arousal) in zip(rows.tolist(), means[rows].tolist())]

    linear = quadratic = None
    note = None
    v = [p.valence for p in points]
    a = [p.arousal for p in points]
    if len(points) >= 4 and len(set(v)) > 2:
        linear = polyfit(v, a, 1)
        quadratic = polyfit(v, a, 2)
    else:
        note = "too few distinct points for curvature fits"
    return SummaryResult(
        points=tuple(points), linear=linear, quadratic=quadratic,
        n_total=len(table), n_skipped=len(table) - len(points), note=note,
    )


# ---------------------------------------------------------------------------
# first-vs-last paired deltas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedCell:
    dimension: str
    scope: str
    n_pairs: int
    result: ComparisonResult | None
    note: str | None = None


@dataclass(frozen=True)
class PairedDeltaTable:
    cells: tuple[PairedCell, ...]
    comparisons: int
    adjusted_alpha: float
    n_total: int
    scope_counts: dict[str, dict[str, int]]


def _scope_pairs(table: ScoreTable, closed: np.ndarray, scope: str):
    """Issue rows qualifying for a scope, with their paired comment rows."""
    if scope == "All":
        qualified = np.flatnonzero(closed & (table.comment_counts >= 4))
        return qualified, table.offsets[qualified], table.offsets[qualified + 1] - 1
    rows = np.flatnonzero(table.roles == ROLES.index(_SCOPE_ROLE[scope]))
    counts = np.bincount(table.owner[rows], minlength=len(table))
    ends = np.cumsum(counts)  # issue i owns rows[ends[i] - counts[i]:ends[i]]
    qualified = np.flatnonzero(closed & (counts >= 2))
    return qualified, rows[ends[qualified] - counts[qualified]], rows[ends[qualified] - 1]


def rq2_first_last(corpus, lexicon: Lexicon, alpha: float = 0.05, scores=None) -> PairedDeltaTable:
    """Paired first-vs-last comment tests per dimension and commenter scope.

    The All scope uses closed issues with >= 4 comments; each role scope uses
    closed issues where that role wrote >= 2 comments, pairing the role's own
    first and last comment. Positive d means the score rose.
    """
    table = scores if scores is not None else score_corpus(corpus, lexicon)
    n_comparisons = len(DIMENSIONS) * len(RQ2_SCOPES)
    adjusted = bonferroni_alpha(alpha, n_comparisons)

    closed = np.array([issue.status == "Closed" for issue in table.issues], dtype=bool)
    pairs_by_scope = {}
    scope_counts = {}
    for scope in RQ2_SCOPES:
        qualified, first_rows, last_rows = _scope_pairs(table, closed, scope)
        pairs_by_scope[scope] = (table.comments[first_rows], table.comments[last_rows])
        scope_counts[scope] = {"qualified": len(qualified), "excluded": len(table) - len(qualified)}

    cells = []
    for k, dim in enumerate(DIMENSIONS):
        for scope in RQ2_SCOPES:
            firsts, lasts = (pair[:, k] for pair in pairs_by_scope[scope])
            both = ~(np.isnan(firsts) | np.isnan(lasts))
            firsts, lasts = firsts[both], lasts[both]
            if len(firsts) < 2:
                cells.append(PairedCell(dim, scope, len(firsts), result=None, note="insufficient data"))
            else:
                result = paired_t_test(firsts, lasts, alpha=adjusted)
                cells.append(PairedCell(dim, scope, len(firsts), result=result))

    return PairedDeltaTable(
        cells=tuple(cells), comparisons=n_comparisons, adjusted_alpha=adjusted,
        n_total=len(table), scope_counts=scope_counts,
    )


# ---------------------------------------------------------------------------
# hierarchical resolution-time model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageResult:
    name: str
    columns: tuple[str, ...]
    model: FittedModel
    cv: CvReport | None
    lr_p_vs_previous: float | None


@dataclass(frozen=True)
class Rq3Report:
    n_total: int
    n_resolved: int
    n_used: int
    n_skipped_unresolved: int
    n_skipped_incomplete: int
    long_share: float | None
    zero_r: CvReport | None
    stages: tuple[StageResult, ...]
    filter_decisions: tuple[FilterDecision, ...]
    pruned: tuple[str, ...]
    final_model: FittedModel | None
    impacts: tuple[ImpactEntry, ...]
    notices: tuple[str, ...]
    prune_alpha: float = 0.01


CONTROL_COLUMNS = (
    "n_comments", "assignee_prev_comments", "reporter_prev_comments",
    "n_developers", "n_watchers", "n_changes",
    "Critical", "Major", "Minor", "Trivial",
)


def rq3_resolution_model(corpus, lexicon: Lexicon, seed: int = 0, scores=None,
                         folds: int = 10, prune_alpha: float = 0.01) -> Rq3Report:
    """Hierarchical logistic models of the Short/Long resolution-time split.

    Stage 1 uses issue controls, stage 2 adds external affective columns when
    every used issue carries them, stage 3 adds the fifteen text-score
    columns after dropping any dominance column correlating > 0.7 with its
    element's valence. Emits likelihood-ratio p-values between stages,
    cross-validated metrics per stage, the majority baseline, and impact
    sizes of the final model pruned to coefficients with p < prune_alpha.
    """
    table = scores if scores is not None else score_corpus(corpus, lexicon)
    notices: list[str] = []
    resolved = np.array([issue.resolution_time is not None for issue in table.issues], dtype=bool)
    n_resolved = int(np.count_nonzero(resolved))
    n_skipped_unresolved = len(table) - n_resolved

    history = participant_history(table.issues)

    # every element scored on every dimension
    rows = np.flatnonzero(resolved & ~np.isnan(table.elements).any(axis=(1, 2)))
    used = [table.issues[row] for row in rows]
    n_skipped_incomplete = n_resolved - len(used)

    def empty_report(reason: str) -> Rq3Report:
        notices.append(reason)
        return Rq3Report(
            n_total=len(table), n_resolved=n_resolved, n_used=0,
            n_skipped_unresolved=n_skipped_unresolved,
            n_skipped_incomplete=n_skipped_incomplete,
            long_share=None, zero_r=None, stages=(), filter_decisions=(),
            pruned=(), final_model=None, impacts=(), notices=tuple(notices),
            prune_alpha=prune_alpha,
        )

    affective_keys: list[str] = []
    if used:
        common = set(used[0].external_features)
        for issue in used[1:]:
            common &= set(issue.external_features)
        affective_keys = sorted(common)
    if not affective_keys:
        notices.append("no shared affective columns; stage 2 skipped")

    min_rows = max(2 * folds, len(CONTROL_COLUMNS) + len(affective_keys) + 15 + 2)
    if len(used) < min_rows:
        return empty_report(f"only {len(used)} usable resolved issues (need >= {min_rows})")

    columns: dict[str, list[float]] = {name: [] for name in CONTROL_COLUMNS}
    for key in affective_keys:
        columns[key] = []
    times = []
    for issue in used:
        record = history[issue.id]
        columns["n_comments"].append(len(issue.comments))
        columns["assignee_prev_comments"].append(record["assignee_prev_comments"])
        columns["reporter_prev_comments"].append(record["reporter_prev_comments"])
        columns["n_developers"].append(issue.developer_count)
        columns["n_watchers"].append(issue.watchers)
        columns["n_changes"].append(issue.change_count)
        for indicator in ("Critical", "Major", "Minor", "Trivial"):
            columns[indicator].append(1.0 if issue.priority == indicator else 0.0)
        for key in affective_keys:
            columns[key].append(issue.external_features[key])
        times.append(issue.resolution_time)
    # element-major like ELEMENTS, whose order VAD_ELEMENT_KEYS follows
    vad_columns = [f"{el}_{dim[0]}" for el in VAD_ELEMENT_KEYS for dim in DIMENSIONS]
    columns.update(zip(vad_columns, table.elements[rows].reshape(len(rows), -1).T))

    labels = binarize_outcome(times)
    long_share = labels.count(LONG) / len(labels)
    baseline = zero_r(labels)

    design = DesignMatrix.from_mapping(columns, labels)
    filter_pairs = [(f"{el}_v", f"{el}_d") for el in VAD_ELEMENT_KEYS]
    design, decisions = correlation_filter(design, filter_pairs, threshold=0.7)
    kept_vad = [name for name in vad_columns if name in design.columns]
    for decision in decisions:
        if decision.dropped:
            notices.append(f"dropped {decision.drop} (|r|={abs(decision.r):.3f} with {decision.keep})")

    stage_columns = [("controls", list(CONTROL_COLUMNS))]
    if affective_keys:
        stage_columns.append(("controls+affective", list(CONTROL_COLUMNS) + affective_keys))
    stage_columns.append((
        "controls+affective+vad" if affective_keys else "controls+vad",
        list(CONTROL_COLUMNS) + affective_keys + kept_vad,
    ))

    stages: list[StageResult] = []
    previous: FittedModel | None = None
    for name, cols in stage_columns:
        stage_design = design.subset(cols)
        try:
            model = fit_logistic(stage_design)
        except ValueError as exc:
            return empty_report(f"stage {name} failed: {exc}")
        if not model.converged:
            notices.append(f"stage {name}: fit did not converge (possible separation)")
        try:
            cv = crossval(stage_design, folds=folds, seed=seed)
        except ValueError as exc:
            cv = None
            notices.append(f"stage {name}: cross-validation skipped ({exc})")
        lr_p = lr_test(previous, model) if previous is not None else None
        stages.append(StageResult(name=name, columns=tuple(cols), model=model, cv=cv, lr_p_vs_previous=lr_p))
        previous = model

    final_stage = stages[-1]
    keep = [name for name in final_stage.columns if final_stage.model.p_value(name) < prune_alpha]
    pruned = tuple(name for name in final_stage.columns if name not in keep)
    try:
        final_model = fit_logistic(design.subset(keep))
        impacts = tuple(impact_sizes(final_model, design.subset(keep)))
    except ValueError as exc:
        final_model = None
        impacts = ()
        notices.append(f"final pruned model failed: {exc}")

    return Rq3Report(
        n_total=len(table), n_resolved=n_resolved, n_used=len(used),
        n_skipped_unresolved=n_skipped_unresolved,
        n_skipped_incomplete=n_skipped_incomplete,
        long_share=long_share, zero_r=baseline, stages=tuple(stages),
        filter_decisions=tuple(decisions), pruned=pruned,
        final_model=final_model, impacts=impacts, notices=tuple(notices),
        prune_alpha=prune_alpha,
    )


# ---------------------------------------------------------------------------
# per-role sign tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignTable:
    rows: tuple[str, ...]
    columns: tuple[tuple[str, str], ...]  # (role, dimension) pairs
    cells: dict[tuple[str, str, str], str]  # (row, role, dimension) -> "+" | "-" | ""
    alpha: float
    n_designs: dict[tuple[str, str], int]
    notices: tuple[str, ...]


def rq4_sign_tables(corpus, lexicon: Lexicon, alpha: float = 0.001, scores=None) -> SignTable:
    """Nine linear regressions (role x dimension) of the role's mean comment
    score on issue characteristics; cells show the coefficient sign when
    p < alpha, blank otherwise.

    The Issue Type row carries the Bug-indicator sign (All Tasks reference,
    Future Dev entering as the second indicator). Uses resolved issues whose
    type falls in one of the three groups.
    """
    table = scores if scores is not None else score_corpus(corpus, lexicon)
    notices: list[str] = []
    history = participant_history(table.issues)

    eligible = np.array([issue.resolution_time is not None and issue.type_group is not None
                         for issue in table.issues], dtype=bool)
    predictor_names = list(_SIGN_ROW_COLUMN.values()) + ["future_dev_group"]
    predictors: dict[str, list[float]] = {name: [] for name in predictor_names}
    for i in np.flatnonzero(eligible):
        issue = table.issues[i]
        record = history[issue.id]
        predictors["priority_level"].append(PRIORITY_LEVEL[issue.priority])
        predictors["bug_group"].append(1.0 if issue.type_group == "Bug" else 0.0)
        predictors["future_dev_group"].append(1.0 if issue.type_group == "Future Dev" else 0.0)
        predictors["resolution_time"].append(issue.resolution_time)
        predictors["votes"].append(issue.votes)
        predictors["n_comments"].append(len(issue.comments))
        predictors["n_watchers"].append(issue.watchers)
        predictors["assignee_prev_issues"].append(record["assignee_prev_issues"])
        predictors["reporter_prev_issues"].append(record["reporter_prev_issues"])
    X = np.column_stack([np.asarray(predictors[name], dtype=float) for name in predictor_names])

    columns = tuple((role, dim) for role in ROLES for dim in DIMENSIONS)
    cells: dict[tuple[str, str, str], str] = {}
    n_designs: dict[tuple[str, str], int] = {}
    owner = table.owner
    for role, dim in columns:
        k = DIMENSIONS.index(dim)
        chosen = np.flatnonzero((table.roles == ROLES.index(role)) & ~np.isnan(table.comments[:, k])
                                & eligible[owner])
        counts = np.bincount(owner[chosen], minlength=len(table))
        means = np.bincount(owner[chosen], weights=table.comments[chosen, k],
                            minlength=len(table)) / np.maximum(counts, 1)
        # bincount sums in comment order, as np.mean does below eight values;
        # from eight on np.mean sums pairwise, so it is called there
        ends = np.cumsum(counts)
        for i in np.flatnonzero(counts >= 8):
            means[i] = np.mean(table.comments[chosen[ends[i] - counts[i]:ends[i]], k])
        has_values = counts[eligible] > 0
        response = means[eligible][has_values]

        n_designs[(role, dim)] = len(response)
        if len(response) <= len(predictor_names) + 1:
            notices.append(f"{role}/{dim}: insufficient rows ({len(response)}); column left blank")
            for row in SIGN_TABLE_ROWS:
                cells[(row, role, dim)] = ""
            continue
        try:
            design = DesignMatrix(predictor_names, X[has_values], response, outcome_kind="real")
            model = fit_linear(design)
        except ValueError as exc:
            notices.append(f"{role}/{dim}: {exc}; column left blank")
            for row in SIGN_TABLE_ROWS:
                cells[(row, role, dim)] = ""
            continue
        for row in SIGN_TABLE_ROWS:
            column = _SIGN_ROW_COLUMN[row]
            if model.p_value(column) < alpha:
                cells[(row, role, dim)] = "+" if model.coefficient(column) > 0 else "-"
            else:
                cells[(row, role, dim)] = ""

    return SignTable(
        rows=SIGN_TABLE_ROWS, columns=columns, cells=cells, alpha=alpha,
        n_designs=n_designs, notices=tuple(notices),
    )


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

ANALYSIS_NAMES = ("rq1", "rq2", "rq3", "rq4", "summary")


@dataclass
class AnalysisResults:
    n_issues: int
    n_scored: int  # issues with at least one scored element
    rq1_priority: GroupTable | None = None
    rq1_type: GroupTable | None = None
    rq1_time: GroupTable | None = None
    rq2: PairedDeltaTable | None = None
    rq3: Rq3Report | None = None
    rq4: SignTable | None = None
    summary: SummaryResult | None = None


def run_analyses(corpus, lexicon: Lexicon, which=ANALYSIS_NAMES, seed: int = 0,
                 alpha: float = 0.05, jobs: int = 1) -> AnalysisResults:
    """Score once and run the selected pipelines deterministically."""
    unknown = set(which) - set(ANALYSIS_NAMES)
    if unknown:
        raise ValueError(f"unknown analyses: {sorted(unknown)}")
    scored = score_corpus(corpus, lexicon, jobs=jobs)
    n_scored = int(np.count_nonzero(~np.isnan(scored.elements).all(axis=(1, 2))))
    results = AnalysisResults(n_issues=len(scored), n_scored=n_scored)
    if "rq1" in which:
        results.rq1_priority = rq1_priority_arousal(corpus, lexicon, alpha, scores=scored)
        results.rq1_type = rq1_type_valence(corpus, lexicon, alpha, scores=scored)
        results.rq1_time = rq1_dominance_time(corpus, lexicon, alpha, scores=scored)
    if "summary" in which:
        results.summary = rq1_summary(corpus, lexicon, scores=scored)
    if "rq2" in which:
        results.rq2 = rq2_first_last(corpus, lexicon, alpha, scores=scored)
    if "rq3" in which:
        results.rq3 = rq3_resolution_model(corpus, lexicon, seed=seed, scores=scored)
    if "rq4" in which:
        results.rq4 = rq4_sign_tables(corpus, lexicon, scores=scored)
    return results

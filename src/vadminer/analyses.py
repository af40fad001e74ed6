"""Analysis pipelines over a scored issue corpus.

``score_corpus`` walks the issues once: it scans every title, description
and comment into a columnar ``ScoreTable`` and takes the issue ids and
attributes as columns of that table. Every pipeline takes that table and
nothing else; ``run_analyses`` scores once and passes the table on. Four
pipelines compose the score table with the statistics and model layers:

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
    ATTRIBUTE_COLUMNS,
    CONTROL_COLUMNS,
    HISTORY_COLUMNS,
    PRIORITIES,
    PRIORITY_LEVEL,
    RESERVED_FEATURES,
    ROLES,
    TYPE_GROUP_ORDER,
    VAD_COLUMNS,
    VAD_ELEMENT_KEYS,
    role_of,
)
from .lexicon import DIMENSIONS, Lexicon
from .models import (
    CvReport,
    DesignMatrix,
    FilterDecision,
    FittedModel,
    ImpactEntry,
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
from .textscore import fold, scan_texts

ELEMENTS = ("Title", "Desc", "All", "First", "Last")

RQ2_SCOPES = ("All", "Assignees'", "Reporters'", "Others'")
_SCOPE_ROLE = {"Assignees'": "Assignee", "Reporters'": "Reporter", "Others'": "Other"}

TIME_GROUPS = ("Short time", "High time")

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
    """Range scores and attributes of a corpus, one row per issue; a score is
    NaN where the element is absent or nothing in it matched the lexicon.

    Issue ``i`` has id ``ids[i]``; ``elements[i, e, k]`` scores its element
    ``ELEMENTS[e]`` on ``DIMENSIONS[k]``. Issue ``i``'s comments are rows
    ``offsets[i]:offsets[i + 1]`` of ``comments`` (their scores) and of
    ``roles`` (index into ``ROLES``, from ``role_of``). ``features`` maps
    each name of ``ATTRIBUTE_COLUMNS`` and ``HISTORY_COLUMNS`` (see
    ``corpus``), then each external feature, to a float column over the
    issues; an external column is NaN where the issue lacks the key.

    The table keeps no issue records. Equal tables hold the same ids, scores
    and roles; features are not compared. The history counts are those of
    the corpus the table was scored from, which ``select`` keeps.
    """

    ids: np.ndarray       # (issues,) of str objects
    elements: np.ndarray  # (issues, 5, 3)
    comments: np.ndarray  # (comments, 3)
    offsets: np.ndarray   # (issues + 1,)
    roles: np.ndarray     # (comments,)
    features: dict[str, np.ndarray] = field(repr=False)

    __hash__ = None

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in ("elements", "comments", "offsets", "roles"))

    @property
    def comment_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def owner(self) -> np.ndarray:
        """Issue row of every comment row."""
        return np.repeat(np.arange(len(self)), self.comment_counts)

    def select(self, rows) -> "ScoreTable":
        """The table of the given issue rows (indices or a boolean mask), in that order."""
        rows = np.arange(len(self))[rows]
        counts = self.comment_counts[rows]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        comment_rows = np.repeat(self.offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
        return ScoreTable(self.ids[rows], self.elements[rows],
                          self.comments[comment_rows], offsets, self.roles[comment_rows],
                          {name: column[rows] for name, column in self.features.items()})


def _attributes(issue) -> tuple:
    """The issue's values of ATTRIBUTE_COLUMNS; None becomes NaN."""
    return (len(issue.comments), issue.watchers, issue.developer_count, issue.change_count,
            issue.votes, PRIORITY_LEVEL[issue.priority], issue.resolution_time,
            issue.status == "Closed", PRIORITIES.index(issue.priority),
            TYPE_GROUP_ORDER.index(issue.type_group) if issue.type_group else None)


def score_corpus(issues, lexicon: Lexicon, jobs: int = 1) -> ScoreTable:
    """Scan every title, description and comment once into a ScoreTable,
    with the issue attributes as its feature columns.

    First and Last are their comment's row. All folds the per-comment
    extremes, which equals scoring the newline-joined comments: a newline
    never joins two words, and min/max are exact. ``jobs`` is accepted for
    compatibility and has no effect; scoring runs in this process.
    """
    issues = tuple(issues)
    counts = np.fromiter((len(issue.comments) for issue in issues), dtype=np.int64, count=len(issues))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    heads_lo, heads_hi, _ = scan_texts(
        [text for issue in issues for text in (issue.title, issue.description)], lexicon)
    thread_lo, thread_hi, _ = scan_texts([c.body for issue in issues for c in issue.comments], lexicon)
    role_code = {role: code for code, role in enumerate(ROLES)}
    roles = np.fromiter((role_code[role_of(c, issue)] for issue in issues for c in issue.comments),
                        dtype=np.int8, count=offsets[-1])

    attributes = np.array([_attributes(issue) for issue in issues], dtype=float)
    attributes = attributes.reshape(len(issues), len(ATTRIBUTE_COLUMNS))  # also when empty
    features = dict(zip(ATTRIBUTE_COLUMNS, attributes.T.copy()))
    features.update(participant_history(issues))
    external: dict[str, np.ndarray] = {}
    for row, issue in enumerate(issues):
        for key, value in issue.external_features.items():
            if key not in external:
                external[key] = np.full(len(issues), np.nan)
            external[key][row] = value
    clash = sorted(external.keys() & set(RESERVED_FEATURES))
    if clash:
        raise ValueError(f"external features {clash} take the names of built-in columns")
    features.update(sorted(external.items()))

    baselines = np.array([lexicon.baseline(dim) for dim in DIMENSIONS])
    comments = fold(thread_lo, thread_hi, baselines)
    elements = np.full((len(issues), len(ELEMENTS), len(DIMENSIONS)), np.nan)
    elements[:, :2] = fold(heads_lo, heads_hi, baselines).reshape(len(issues), 2, len(DIMENSIONS))
    threaded = counts > 0
    firsts, lasts = offsets[:-1][threaded], offsets[1:][threaded] - 1
    if len(firsts):
        lo = np.fmin.reduceat(thread_lo, firsts, axis=0)
        hi = np.fmax.reduceat(thread_hi, firsts, axis=0)
        elements[threaded, 2] = fold(lo, hi, baselines)
        elements[threaded, 3] = comments[firsts]
        elements[threaded, 4] = comments[lasts]
    # object, not a fixed-width str dtype, which drops an id's trailing NULs
    ids = np.array([issue.id for issue in issues], dtype=object)
    return ScoreTable(ids, elements, comments, offsets, roles, features)


def participant_history(issues) -> dict[str, np.ndarray]:
    """Prior comment and issue counts of each issue's assignee/reporter: one
    float column per name of HISTORY_COLUMNS, row-aligned with ``issues``.

    "Prior" is by issue creation order (ties broken by id); the current
    issue's own activity is excluded.
    """
    issues = tuple(issues)
    comments_by: dict[str, int] = {}
    reported_by: dict[str, int] = {}
    assigned_to: dict[str, int] = {}
    counts = np.zeros((len(issues), len(HISTORY_COLUMNS)))
    for row in sorted(range(len(issues)), key=lambda row: (issues[row].created, issues[row].id)):
        issue = issues[row]
        counts[row] = (
            comments_by.get(issue.assignee, 0) if issue.assignee else 0,
            comments_by.get(issue.reporter, 0),
            assigned_to.get(issue.assignee, 0) if issue.assignee else 0,
            reported_by.get(issue.reporter, 0),
        )
        for comment in issue.comments:
            comments_by[comment.author] = comments_by.get(comment.author, 0) + 1
        reported_by[issue.reporter] = reported_by.get(issue.reporter, 0) + 1
        if issue.assignee:
            assigned_to[issue.assignee] = assigned_to.get(issue.assignee, 0) + 1
    return dict(zip(HISTORY_COLUMNS, counts.T.copy()))


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


def _build_group_table(table: ScoreTable, dimension: str, codes: np.ndarray, groups, alpha: float,
                       n_skipped: int = 0, skip_reason: str | None = None) -> GroupTable:
    """``codes`` holds each issue's index into ``groups``, NaN for issues left out."""
    groups = tuple(groups)
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
        n_total=len(table), n_used=int(np.count_nonzero(~np.isnan(codes))),
        n_skipped=n_skipped, skip_reason=skip_reason,
    )


def rq1_priority_arousal(table: ScoreTable, alpha: float = 0.05) -> GroupTable:
    """Arousal means per priority with Blocker->Trivial adjacent-pair tests."""
    return _build_group_table(table, "arousal", table.features["priority"], PRIORITIES, alpha)


def rq1_type_valence(table: ScoreTable, alpha: float = 0.05) -> GroupTable:
    """Valence means for Future Dev / All Tasks / Bug groups; type Other excluded."""
    return _build_group_table(table, "valence", table.features["type_group"], TYPE_GROUP_ORDER, alpha)


def rq1_dominance_time(table: ScoreTable, alpha: float = 0.05) -> GroupTable:
    """Dominance means across a half split of resolution time (resolved issues).

    The faster half of the resolved issues is "Short time", the rest "High
    time" (ties broken by corpus order), so each side holds half the issues.
    """
    times = table.features["resolution_time"]
    resolved = np.flatnonzero(~np.isnan(times))
    codes = np.full(len(table), np.nan)
    codes[resolved[np.argsort(times[resolved], kind="stable")]] = np.arange(len(resolved)) >= len(resolved) // 2
    return _build_group_table(table, "dominance", codes, TIME_GROUPS, alpha,
                              n_skipped=len(table) - len(resolved), skip_reason="unresolved")


# ---------------------------------------------------------------------------
# per-issue summary scatter and curvature fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryResult:
    """Point ``i`` of the scatter is issue ``ids[i]`` at (``valence[i]``, ``arousal[i]``)."""

    ids: np.ndarray  # (points,) of str objects
    valence: np.ndarray
    arousal: np.ndarray
    linear: FitResult | None
    quadratic: FitResult | None
    n_total: int
    n_skipped: int
    note: str | None = None


def rq1_summary(table: ScoreTable) -> SummaryResult:
    """One (valence, arousal) point per issue, averaging Title/Desc/All scores,
    with linear and quadratic fits of arousal on valence."""
    head = table.elements[:, :3, :2]  # Title, Desc, All x valence, arousal
    present = ~np.isnan(head[:, :, :1])
    counts = present.sum(axis=1)
    terms = np.where(present, head, 0.0)
    # summed in element order, as np.mean sums fewer than eight values
    means = (terms[:, 0] + terms[:, 1] + terms[:, 2]) / np.maximum(counts, 1)
    rows = np.flatnonzero(counts[:, 0])
    valence, arousal = means[rows, 0], means[rows, 1]

    linear = quadratic = None
    note = None
    if len(rows) >= 4 and len(np.unique(valence)) > 2:
        linear = polyfit(valence, arousal, 1)
        quadratic = polyfit(valence, arousal, 2)
    else:
        note = "too few distinct points for curvature fits"
    return SummaryResult(
        ids=table.ids[rows], valence=valence, arousal=arousal, linear=linear, quadratic=quadratic,
        n_total=len(table), n_skipped=len(table) - len(rows), note=note,
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


def rq2_first_last(table: ScoreTable, alpha: float = 0.05) -> PairedDeltaTable:
    """Paired first-vs-last comment tests per dimension and commenter scope.

    The All scope uses closed issues with >= 4 comments; each role scope uses
    closed issues where that role wrote >= 2 comments, pairing the role's own
    first and last comment. Positive d means the score rose.
    """
    n_comparisons = len(DIMENSIONS) * len(RQ2_SCOPES)
    adjusted = bonferroni_alpha(alpha, n_comparisons)

    closed = table.features["closed"] == 1
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


def rq3_resolution_model(table: ScoreTable, seed: int = 0, folds: int = 10,
                         prune_alpha: float = 0.01) -> Rq3Report:
    """Hierarchical logistic models of the Short/Long resolution-time split.

    Stage 1 uses issue controls, stage 2 adds external affective columns when
    every used issue carries them, stage 3 adds the fifteen text-score
    columns after dropping any dominance column correlating > 0.7 with its
    element's valence. Emits likelihood-ratio p-values between stages,
    cross-validated metrics per stage, the majority baseline, and impact
    sizes of the final model pruned to coefficients with p < prune_alpha.
    """
    notices: list[str] = []
    features = table.features
    resolved = ~np.isnan(features["resolution_time"])
    n_resolved = int(np.count_nonzero(resolved))
    n_skipped_unresolved = len(table) - n_resolved

    # every element scored on every dimension
    rows = np.flatnonzero(resolved & ~np.isnan(table.elements).any(axis=(1, 2)))
    n_skipped_incomplete = n_resolved - len(rows)

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

    # external columns that every used issue carries (none when no issue is used)
    affective_keys = [name for name in features if name not in RESERVED_FEATURES
                      and len(rows) and not np.isnan(features[name][rows]).any()]
    if not affective_keys:
        notices.append("no shared affective columns; stage 2 skipped")

    min_rows = max(2 * folds, len(CONTROL_COLUMNS) + len(affective_keys) + len(VAD_COLUMNS) + 2)
    if len(rows) < min_rows:
        return empty_report(f"only {len(rows)} usable resolved issues (need >= {min_rows})")

    # VAD_COLUMNS are element-major like ELEMENTS, whose order VAD_ELEMENT_KEYS follows
    columns = {**features, **dict(zip(VAD_COLUMNS, table.elements.reshape(len(table), -1).T)),
               **{name: features["priority"] == PRIORITIES.index(name) for name in PRIORITIES[1:]}}
    names = [*CONTROL_COLUMNS, *affective_keys, *VAD_COLUMNS]
    labels = binarize_outcome(features["resolution_time"][rows])
    long_share = np.count_nonzero(labels) / len(labels)
    baseline = zero_r(labels)

    design = DesignMatrix(names, np.column_stack([columns[name][rows] for name in names]), labels)
    filter_pairs = [(f"{el}_v", f"{el}_d") for el in VAD_ELEMENT_KEYS]
    design, decisions = correlation_filter(design, filter_pairs, threshold=0.7)
    kept_vad = [name for name in VAD_COLUMNS if name in design.columns]
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
    final_design = design.subset(keep)
    try:
        final_model = fit_logistic(final_design)
        impacts = tuple(impact_sizes(final_model, final_design))
    except ValueError as exc:
        final_model = None
        impacts = ()
        notices.append(f"final pruned model failed: {exc}")

    return Rq3Report(
        n_total=len(table), n_resolved=n_resolved, n_used=len(rows),
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


def rq4_sign_tables(table: ScoreTable, alpha: float = 0.001) -> SignTable:
    """Nine linear regressions (role x dimension) of the role's mean comment
    score on issue characteristics; cells show the coefficient sign when
    p < alpha, blank otherwise.

    The Issue Type row carries the Bug-indicator sign (All Tasks reference,
    Future Dev entering as the second indicator). Uses resolved issues whose
    type falls in one of the three groups.
    """
    notices: list[str] = []

    features = table.features
    group = features["type_group"]
    eligible = ~np.isnan(features["resolution_time"]) & ~np.isnan(group)
    predictor_names = list(_SIGN_ROW_COLUMN.values()) + ["future_dev_group"]
    columns = {**features, "bug_group": group == TYPE_GROUP_ORDER.index("Bug"),
               "future_dev_group": group == TYPE_GROUP_ORDER.index("Future Dev")}
    X = np.column_stack([columns[name][eligible] for name in predictor_names])

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
        cells.update({(row, role, dim): "" for row in SIGN_TABLE_ROWS})
        if len(response) <= len(predictor_names) + 1:
            notices.append(f"{role}/{dim}: insufficient rows ({len(response)}); column left blank")
            continue
        try:
            design = DesignMatrix(predictor_names, X[has_values], response)
            model = fit_linear(design)
        except ValueError as exc:
            notices.append(f"{role}/{dim}: {exc}; column left blank")
            continue
        for row, column in _SIGN_ROW_COLUMN.items():
            if model.p_value(column) < alpha:
                cells[(row, role, dim)] = "+" if model.coefficient(column) > 0 else "-"

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
                 alpha: float = 0.05) -> AnalysisResults:
    """Score once and run the selected pipelines on that table deterministically."""
    unknown = set(which) - set(ANALYSIS_NAMES)
    if unknown:
        raise ValueError(f"unknown analyses: {sorted(unknown)}")
    table = score_corpus(corpus, lexicon)
    n_scored = int(np.count_nonzero(~np.isnan(table.elements).all(axis=(1, 2))))
    results = AnalysisResults(n_issues=len(table), n_scored=n_scored)
    if "rq1" in which:
        results.rq1_priority = rq1_priority_arousal(table, alpha)
        results.rq1_type = rq1_type_valence(table, alpha)
        results.rq1_time = rq1_dominance_time(table, alpha)
    if "summary" in which:
        results.summary = rq1_summary(table)
    if "rq2" in which:
        results.rq2 = rq2_first_last(table, alpha)
    if "rq3" in which:
        results.rq3 = rq3_resolution_model(table, seed=seed)
    if "rq4" in which:
        results.rq4 = rq4_sign_tables(table)
    return results

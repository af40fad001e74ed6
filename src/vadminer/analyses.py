"""Analysis pipelines over a scored issue corpus.

``score_corpus`` builds a columnar ``ScoreTable`` from the text scores of a
``textscore.TextScan``, which scanned every title, description and comment
(during loading, for ``analyze``), and takes the issue ids and attributes as
columns of that table. Every pipeline takes that table and nothing else, and
so does ``run_analyses``, which runs the selected ones; the records can be
freed once the table is built. Four pipelines compose the
score table with the statistics and model layers:

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
    ATTRIBUTES,
    CONTROL_COLUMNS,
    HISTORY_COLUMNS,
    PRIORITIES,
    RESERVED_FEATURES,
    ROLES,
    TYPE_GROUP_ORDER,
    VAD_COLUMNS,
    VAD_ELEMENT_KEYS,
)
from .lexicon import DIMENSIONS, Lexicon
from .models import (
    CV_FOLDS,
    CvReport,
    DesignMatrix,
    FilterDecision,
    FitResult,
    FittedModel,
    ImpactEntry,
    binarize_outcome,
    correlation_filter,
    crossval,
    fit_linear,
    fit_logistic,
    impact_sizes,
    lr_test,
    polyfit,
    zero_r,
)
from .stats import ComparisonResult, bonferroni_alpha, paired_t_test, welch_t_test
from .textscore import TextScan

ELEMENTS = tuple(key.capitalize() for key in VAD_ELEMENT_KEYS)

RQ2_SCOPES = ("All", "Assignees'", "Reporters'", "Others'")
_SCOPE_ROLE = {"Assignees'": "Assignee", "Reporters'": "Reporter", "Others'": "Other"}

TIME_GROUPS = ("Short time", "High time")
PRUNE_ALPHA = 0.01  # rq3 keeps final-model coefficients below it
SIGN_ALPHA = 0.001  # rq4 shows a sign below it

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
SIGN_TABLE_ROWS = tuple(_SIGN_ROW_COLUMN)


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
    ``roles`` (index into ``ROLES``). ``features`` maps each name of
    ``ATTRIBUTE_COLUMNS`` and ``HISTORY_COLUMNS`` (see ``corpus``), then each
    external feature, to a float column over the issues; an attribute is read
    off each issue by its getter in ``corpus.ATTRIBUTES``, and an external
    column is NaN where the issue lacks the key.

    A name is one person in every role. A comment's role is Assignee when its
    author is the issue's assignee, else Reporter when they reported it, else
    Other. A history count is the person's comments, reports or assignments
    on issues of a lower (created, id) rank, so the issue's own are excluded.

    The table keeps no issue records, and the id strings belong to the table:
    they are copies, not the records' own strings. Equal tables hold the same
    ids, scores and roles; features are not compared. The history counts are
    those of the corpus the table was scored from, which ``select`` keeps.
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


def score_corpus(issues, lexicon: Lexicon, jobs: int = 1, *, scan: TextScan | None = None) -> ScoreTable:
    """Scan every title, description and comment once into a ScoreTable,
    with the issue attributes, read by the getters of ``corpus.ATTRIBUTES``,
    and the history counts as its feature columns.

    The texts come from ``scan``, a ``textscore.TextScan`` over ``lexicon``
    that was handed these issues in this order, say by the loader as it read
    them; the records' own texts are then not read, and may be None. Without
    it, the issues are handed to a new scan here, so both ways run the one
    scanning path and build equal tables. A scan that counted other issues
    or comments, or used another lexicon, is a ValueError.

    First and Last are their comment's row. All is the spread of the clamped
    per-comment extremes, which equals scoring the newline-joined comments: a
    newline never joins two words, and min/max are exact. The table holds
    copies of the ids and nothing else of the records, so they can be freed
    once it is built. ``jobs`` is accepted for compatibility and has no
    effect; scoring runs in this process.

    Roles and history counts compare one integer code per name, under the
    rules of ``ScoreTable``: Assignee wins over Reporter, "prior" means a
    lower (created, id) rank, and the issue's own activity is excluded.
    """
    issues = tuple(issues)
    if scan is None:
        scan = TextScan(lexicon)
        for issue in issues:
            scan.add(issue)
    n = len(issues)
    counts = np.fromiter((len(issue.comments) for issue in issues), dtype=np.int64, count=n)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    if scan.lexicon is not lexicon:
        raise ValueError("the scan used another lexicon")
    if (scan.issues, scan.comments) != (n, offsets[-1]):
        raise ValueError(f"the scan holds {scan.issues} issues and {scan.comments} comments, "
                         f"but {n} issues with {offsets[-1]} comments were given")

    elements = np.full((n, len(ELEMENTS), len(DIMENSIONS)), np.nan)
    lo, hi = scan.extremes("issue")
    elements[:, :2] = (hi - lo).reshape(n, 2, len(DIMENSIONS))
    del lo, hi
    lo, hi = scan.extremes("comment")
    comments = hi - lo
    threaded = counts > 0
    firsts, lasts = offsets[:-1][threaded], offsets[1:][threaded] - 1
    if len(firsts):
        elements[threaded, 2] = np.fmax.reduceat(hi, firsts, axis=0) - np.fmin.reduceat(lo, firsts, axis=0)
        elements[threaded, 3] = comments[firsts]
        elements[threaded, 4] = comments[lasts]
    del lo, hi  # the per-comment extremes go before the feature columns are built

    # one code per name (-1: no assignee); the only place that matches names
    people: dict[str, int] = {}
    reporters = np.fromiter((people.setdefault(issue.reporter, len(people)) for issue in issues),
                            dtype=np.int64, count=n)
    assignees = np.fromiter((-1 if issue.assignee is None else people.setdefault(issue.assignee, len(people))
                             for issue in issues), dtype=np.int64, count=n)
    authors = np.fromiter((people.setdefault(c.author, len(people)) for issue in issues for c in issue.comments),
                          dtype=np.int64, count=offsets[-1])
    owner = np.repeat(np.arange(n), counts)
    roles = np.full(offsets[-1], ROLES.index("Other"), dtype=np.int8)
    roles[authors == reporters[owner]] = ROLES.index("Reporter")
    roles[authors == assignees[owner]] = ROLES.index("Assignee")  # Assignee wins

    features = {name: np.fromiter(map(get, issues), dtype=float, count=n) for name, get in ATTRIBUTES.items()}
    # each issue's rank in (created, id) order, the inverse of the sorting permutation
    rank = np.argsort(sorted(range(n), key=lambda row: (issues[row].created, issues[row].id)))
    assigned = assignees >= 0
    comment_events = np.sort(authors * n + rank[owner])
    features.update(zip(HISTORY_COLUMNS, (
        _prior(comment_events, assignees, rank),
        _prior(comment_events, reporters, rank),
        _prior(np.sort(assignees[assigned] * n + rank[assigned]), assignees, rank),
        _prior(np.sort(reporters * n + rank), reporters, rank),
    )))
    external: dict[str, np.ndarray] = {}
    for row, issue in enumerate(issues):
        for key, value in issue.external_features.items():
            if key not in external:
                external[key] = np.full(n, np.nan)
            external[key][row] = value
    clash = sorted(external.keys() & set(RESERVED_FEATURES))
    if clash:
        raise ValueError(f"external features {clash} take the names of built-in columns")
    features.update(sorted(external.items()))

    # Object, not a fixed-width str dtype, which drops an id's trailing NULs.
    # Each id is a copy: a record's own string would keep the memory around
    # it from being reused after the records are freed.
    ids = np.array([issue.id.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")
                    for issue in issues], dtype=object)
    return ScoreTable(ids, elements, comments, offsets, roles, features)


def _prior(keys, people, at) -> np.ndarray:
    """For each person ``people[i]`` and rank ``at[i]``, the number of events
    that are theirs at a lower rank, as floats. ``keys`` holds one sorted key
    per event, ``person * len(at) + issue rank``: ranks lie below the issue
    count ``len(at)``, and event persons are not negative, so person -1 (no
    assignee) counts 0."""
    n = len(at)
    return (np.searchsorted(keys, people * n + at) - np.searchsorted(keys, people * n)).astype(float)


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


def _tested(test, a: np.ndarray, b: np.ndarray, alpha: float) -> tuple[ComparisonResult | None, str | None]:
    """The result of ``test(a, b, alpha=alpha)`` and no note, where both samples
    hold two values or more; else no result and the note "insufficient data"."""
    if len(a) < 2 or len(b) < 2:
        return None, "insufficient data"
    return test(a, b, alpha=alpha), None


def _build_group_table(table: ScoreTable, dimension: str, codes: np.ndarray, groups, alpha: float,
                       n_skipped: int = 0, skip_reason: str | None = None) -> GroupTable:
    """``codes`` holds each issue's index into ``groups``, NaN for issues left out."""
    groups = tuple(groups)
    scores = table.elements[:, :, DIMENSIONS.index(dimension)]
    n_comparisons = len(ELEMENTS) * (len(groups) - 1)
    adjusted = bonferroni_alpha(alpha, n_comparisons)

    rows = []
    for e, element in enumerate(ELEMENTS):
        scored = ~np.isnan(scores[:, e])
        samples = [scores[scored & (codes == code), e] for code in range(len(groups))]
        comparisons = tuple(GroupComparison(left, right, len(a), len(b), *_tested(welch_t_test, a, b, adjusted))
                            for left, right, a, b in zip(groups, groups[1:], samples, samples[1:]))
        rows.append(GroupRow(element=element,
                             means={g: float(np.mean(s)) if len(s) else None for g, s in zip(groups, samples)},
                             ns={g: len(s) for g, s in zip(groups, samples)}, comparisons=comparisons))

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
            cells.append(PairedCell(dim, scope, len(firsts), *_tested(paired_t_test, firsts, lasts, adjusted)))

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


def rq3_resolution_model(table: ScoreTable, seed: int = 0) -> Rq3Report:
    """Hierarchical logistic models of the Short/Long resolution-time split.

    Stage 1 uses issue controls, stage 2 adds external affective columns when
    every used issue carries them, stage 3 adds the fifteen text-score
    columns after dropping any dominance column correlating > 0.7 with its
    element's valence. Emits likelihood-ratio p-values between stages,
    cross-validated metrics per stage, the majority baseline, and impact
    sizes of the final model pruned to coefficients with p < ``PRUNE_ALPHA``.
    One design of the final stage's columns is built, and each stage and its
    folds are fitted on a column prefix of it.
    """
    notices: list[str] = []
    features = table.features
    resolved = ~np.isnan(features["resolution_time"])
    n_resolved = int(np.count_nonzero(resolved))
    n_skipped_unresolved = len(table) - n_resolved

    # every element scored on every dimension
    rows = np.flatnonzero(resolved & ~np.isnan(table.elements).any(axis=(1, 2)))
    n_skipped_incomplete = n_resolved - len(rows)

    decisions: list[FilterDecision] = []  # reported by a run that fails after the filter

    def empty_report(reason: str, n_used: int) -> Rq3Report:
        notices.append(reason)
        return Rq3Report(
            n_total=len(table), n_resolved=n_resolved, n_used=n_used,
            n_skipped_unresolved=n_skipped_unresolved,
            n_skipped_incomplete=n_skipped_incomplete,
            long_share=None, zero_r=None, stages=(), filter_decisions=tuple(decisions),
            pruned=(), final_model=None, impacts=(), notices=tuple(notices),
        )

    # external columns that every used issue carries (none when no issue is used)
    affective_keys = [name for name in features if name not in RESERVED_FEATURES
                      and len(rows) and not np.isnan(features[name][rows]).any()]
    if not affective_keys:
        notices.append("no shared affective columns; stage 2 skipped")

    min_rows = max(2 * CV_FOLDS, len(CONTROL_COLUMNS) + len(affective_keys) + len(VAD_COLUMNS) + 2)
    if len(rows) < min_rows:
        return empty_report(f"only {len(rows)} usable resolved issues (need >= {min_rows})", 0)

    columns = {**features, **dict(zip(VAD_COLUMNS, table.elements.reshape(len(table), -1).T)),
               **{name: features["priority"] == PRIORITIES.index(name) for name in PRIORITIES[1:]}}
    labels = binarize_outcome(features["resolution_time"][rows])
    long_share = np.count_nonzero(labels) / len(labels)
    baseline = zero_r(labels)

    def used(names) -> dict[str, np.ndarray]:
        return {name: columns[name][rows] for name in names}

    # column-major, so that each column's mean is summed over that column alone
    def design_of(names) -> DesignMatrix:
        X = np.empty((len(rows), len(names)), order="F")
        for j, name in enumerate(names):
            X[:, j] = columns[name][rows]
        return DesignMatrix(names, X)

    decisions = correlation_filter(used(VAD_COLUMNS), [(f"{el}_v", f"{el}_d") for el in VAD_ELEMENT_KEYS])
    dropped = {decision.drop for decision in decisions if decision.dropped}
    kept_vad = [name for name in VAD_COLUMNS if name not in dropped]
    for decision in decisions:
        if decision.dropped:
            notices.append(f"dropped {decision.drop} (|r|={abs(decision.r):.3f} with {decision.keep})")
        elif decision.r is None:
            constant = [name for name in (decision.keep, decision.drop) if np.ptp(columns[name][rows]) == 0]
            notices.append(f"kept {decision.drop}: no r with {decision.keep}, constant: {constant}")

    stage_columns = [("controls", list(CONTROL_COLUMNS))]
    if affective_keys:
        stage_columns.append(("controls+affective", list(CONTROL_COLUMNS) + affective_keys))
    stage_columns.append((
        "controls+affective+vad" if affective_keys else "controls+vad",
        list(CONTROL_COLUMNS) + affective_keys + kept_vad,
    ))

    # the stages are column prefixes of one design
    design = design_of(stage_columns[-1][1])
    stages: list[StageResult] = []
    previous: FittedModel | None = None
    for name, cols in stage_columns:
        stage_design = design.prefix(len(cols))
        try:
            model = fit_logistic(stage_design, labels)
        except ValueError as exc:
            return empty_report(f"stage {name} failed: {exc}", len(rows))
        if not model.converged:
            notices.append(f"stage {name}: fit did not converge (possible separation)")
        try:  # each fold's fit starts from the stage's, when that converged
            cv = crossval(stage_design, labels, seed=seed, start=model)
        except ValueError as exc:
            cv = None
            notices.append(f"stage {name}: cross-validation skipped ({exc})")
        lr_p = lr_test(previous, model) if previous is not None else None
        stages.append(StageResult(name=name, columns=tuple(cols), model=model, cv=cv, lr_p_vs_previous=lr_p))
        previous = model
    del design, stage_design

    final_stage = stages[-1]
    keep = [name for name in final_stage.columns if final_stage.model.p_value(name) < PRUNE_ALPHA]
    pruned = tuple(name for name in final_stage.columns if name not in keep)
    try:
        final_model = fit_logistic(design_of(keep), labels)
        impacts = tuple(impact_sizes(final_model, used(keep)))
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
    )


# ---------------------------------------------------------------------------
# per-role sign tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignTable:
    rows: tuple[str, ...]
    columns: tuple[tuple[str, str], ...]  # (role, dimension) pairs
    cells: dict[tuple[str, str, str], str]  # (row, role, dimension) -> "+" | "-" | ""
    n_designs: dict[tuple[str, str], int]
    notices: tuple[str, ...]


def rq4_sign_tables(table: ScoreTable) -> SignTable:
    """Nine linear regressions (role x dimension) of the role's mean comment
    score on issue characteristics, the three of a role on one design; cells
    show the coefficient sign when p < ``SIGN_ALPHA``, blank otherwise.

    The Issue Type row carries the Bug-indicator sign (All Tasks reference,
    Future Dev entering as the second indicator). Uses resolved issues whose
    type falls in one of the three groups.
    """
    notices: list[str] = []

    features = table.features
    group = features["type_group"]
    eligible = ~np.isnan(features["resolution_time"]) & ~np.isnan(group)
    predictor_names = list(_SIGN_ROW_COLUMN.values()) + ["future_dev_group"]
    predictors = {**features, "bug_group": group == TYPE_GROUP_ORDER.index("Bug"),
                  "future_dev_group": group == TYPE_GROUP_ORDER.index("Future Dev")}

    columns = tuple((role, dim) for role in ROLES for dim in DIMENSIONS)
    cells = {(row, role, dim): "" for role, dim in columns for row in SIGN_TABLE_ROWS}
    n_designs: dict[tuple[str, str], int] = {}
    owner = table.owner
    # a comment scores on all three dimensions or on none (every lexicon entry carries all three)
    scored = ~np.isnan(table.comments).any(axis=1)
    for role in ROLES:
        design = None  # the last role's design goes before this one's is built
        chosen = np.flatnonzero((table.roles == ROLES.index(role)) & scored & eligible[owner])
        counts = np.bincount(owner[chosen], minlength=len(table))
        used = counts > 0  # the eligible issues with a scored comment of the role
        n_rows = int(np.count_nonzero(used))
        n_designs.update({(role, dim): n_rows for dim in DIMENSIONS})
        try:
            if n_rows <= len(predictor_names) + 1:
                raise ValueError(f"insufficient rows ({n_rows})")
            design = DesignMatrix(predictor_names,
                                  np.column_stack([predictors[name][used] for name in predictor_names]))
        except ValueError as exc:
            notices.extend(f"{role}/{dim}: {exc}; column left blank" for dim in DIMENSIONS)
            continue
        for k, dim in enumerate(DIMENSIONS):
            # bincount sums each issue's scores in comment order
            sums = np.bincount(owner[chosen], weights=table.comments[chosen, k], minlength=len(table))
            try:
                model = fit_linear(design, sums[used] / counts[used])
            except ValueError as exc:
                notices.append(f"{role}/{dim}: {exc}; column left blank")
                continue
            for row, column in _SIGN_ROW_COLUMN.items():
                if model.p_value(column) < SIGN_ALPHA:
                    cells[(row, role, dim)] = "+" if model.coefficient(column) > 0 else "-"

    return SignTable(
        rows=SIGN_TABLE_ROWS, columns=columns, cells=cells,
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


def run_analyses(table: ScoreTable, which=ANALYSIS_NAMES, seed: int = 0,
                 alpha: float = 0.05) -> AnalysisResults:
    """Run the selected pipelines on the score table deterministically."""
    unknown = set(which) - set(ANALYSIS_NAMES)
    if unknown:
        raise ValueError(f"unknown analyses: {sorted(unknown)}")
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

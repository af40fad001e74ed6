import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from vadminer import analyses
from vadminer.analyses import (
    SIGN_TABLE_ROWS,
    AnalysisResults,
    SummaryResult,
    rq1_dominance_time,
    rq1_priority_arousal,
    rq1_summary,
    rq1_type_valence,
    rq2_first_last,
    rq3_resolution_model,
    rq4_sign_tables,
    run_analyses,
    score_corpus,
)
from vadminer.corpus import HISTORY_COLUMNS, PRIORITY_LEVEL, ROLES, Comment, IssueReport
from vadminer.lexicon import DIMENSIONS, Lexicon, LexiconEntry
from vadminer.models import binarize_outcome, polyfit
from vadminer.report import write_reports
from vadminer.stats import paired_t_test, welch_t_test
from vadminer.synth import EffectConfig, GeneratorConfig, generate_corpus, planted_config, u_shape_config
from vadminer.textscore import score_text

import oracles


def make_issue(i=1, **overrides):
    base = dict(
        id=f"PRJ-{i}", project="PRJ", issue_type="Bug", priority="Major",
        created=1000 + i, resolved=2000 + i, status="Closed", reporter="rep",
        assignee="asg", votes=1, watchers=1, change_count=1, developer_count=1,
        title="joy", description="sadness",
        comments=(), external_features={},
    )
    base.update(overrides)
    return IssueReport(**base)


# ---------------------------------------------------------------------------
# group tables
# ---------------------------------------------------------------------------

def test_rq1_priority_table_shape(planted_scored):
    table = rq1_priority_arousal(planted_scored)
    assert table.comparisons == 20
    assert table.adjusted_alpha == 0.0025
    assert table.groups == ("Blocker", "Critical", "Major", "Minor", "Trivial")
    assert [row.element for row in table.rows] == ["Title", "Desc", "All", "First", "Last"]


def test_rq1_priority_planted_direction(planted_scored):
    table = rq1_priority_arousal(planted_scored)
    for row in table.rows:
        means = [row.means[g] for g in table.groups]
        assert all(a >= b for a, b in zip(means, means[1:]))  # Blocker -> Trivial non-increasing
        # the planted gaps are equal per step; the pairs among the three
        # largest groups must reach adjusted significance at this corpus size
        assert row.comparisons[2].result.significant  # Major vs Minor
        assert row.comparisons[3].result.significant  # Minor vs Trivial


def test_rq1_type_groups_and_exclusion(synth_lexicon):
    issues = [
        make_issue(1, issue_type="Test"),
        make_issue(2, issue_type="Task"),
        make_issue(3, issue_type="Bug"),
        make_issue(4, issue_type="Wish"),
        make_issue(5, issue_type="Other"),
    ]
    table = rq1_type_valence(score_corpus(issues, synth_lexicon))
    assert table.groups == ("Future Dev", "All Tasks", "Bug")
    assert table.comparisons == 10
    assert table.n_used == 4  # "Other" contributes to no group
    title_row = table.rows[0]
    assert title_row.ns["All Tasks"] == 2  # Test and Task both land here
    assert title_row.ns["Future Dev"] == 1


def test_rq1_type_planted_bug_lowest(planted_scored):
    table = rq1_type_valence(planted_scored)
    for row in table.rows:
        assert row.means["Bug"] < row.means["All Tasks"]
        assert row.means["Bug"] < row.means["Future Dev"]


def test_rq1_time_planted_direction(planted_scored):
    table = rq1_dominance_time(planted_scored)
    assert table.groups == ("Short time", "High time")
    for row in table.rows:
        assert row.means["High time"] > row.means["Short time"]
    significant = sum(row.comparisons[0].result.significant for row in table.rows)
    assert significant >= 3  # every row at the full acceptance corpus size


def test_rq1_time_two_issue_split_insufficient(synth_lexicon):
    issues = [
        make_issue(1, resolved=1500),   # resolution 499
        make_issue(2, resolved=9000),   # resolution 7998
    ]
    table = rq1_dominance_time(score_corpus(issues, synth_lexicon))
    row = table.rows[0]
    assert row.ns["Short time"] == 1 and row.ns["High time"] == 1
    assert all(c.note == "insufficient data" for row in table.rows for c in row.comparisons)


def test_rq1_time_unresolved_only(synth_lexicon):
    issues = [make_issue(i, resolved=None, status="Open") for i in range(1, 4)]
    table = rq1_dominance_time(score_corpus(issues, synth_lexicon))
    assert table.n_used == 0
    assert table.n_skipped == 3
    assert table.skip_reason == "unresolved"
    assert all(row.means[g] is None for row in table.rows for g in table.groups)


def test_rq1_skip_counts_conserved(planted_scored):
    table = rq1_dominance_time(planted_scored)
    assert table.n_used + table.n_skipped == table.n_total


def test_rq1_single_group_restriction_consistent(planted_corpus, planted_scored):
    issues, _ = planted_corpus
    full = rq1_priority_arousal(planted_scored)
    subset = planted_scored.select([row for row, issue in enumerate(issues) if issue.priority == "Major"])
    restricted = rq1_priority_arousal(subset)
    for full_row, sub_row in zip(full.rows, restricted.rows):
        assert full_row.means["Major"] == sub_row.means["Major"]
        assert full_row.ns["Major"] == sub_row.ns["Major"]


# ---------------------------------------------------------------------------
# summary scatter and fits
# ---------------------------------------------------------------------------

def test_summary_single_element_equals_title(table1_lexicon):
    issue = make_issue(1, title="joy", description="zzz qqq", comments=(),
                       resolved=None, status="Open")
    result = rq1_summary(score_corpus([issue], table1_lexicon))
    assert len(result.ids) == 1
    assert result.valence[0] == pytest.approx(8.21 - 5.2775, abs=1e-12)
    assert result.linear is None and result.note is not None


def test_summary_quadratic_at_least_linear(planted_scored):
    result = rq1_summary(planted_scored)
    assert result.quadratic.r_squared + 1e-12 >= result.linear.r_squared
    assert result.n_total == result.n_skipped + len(result.ids)


def test_summary_u_shape_prefers_quadratic(synth_lexicon):
    issues, _ = generate_corpus(u_shape_config(2000), seed=77)
    result = rq1_summary(score_corpus(issues, synth_lexicon))
    assert result.quadratic.r_squared > result.linear.r_squared + 0.05


# ---------------------------------------------------------------------------
# first vs last comments
# ---------------------------------------------------------------------------

def _comments(bodies, authors=None, start=1100):
    authors = authors or ["asg", "rep", "other1", "other2"]
    return tuple(
        Comment(author=authors[i % len(authors)], created=start + i, body=body)
        for i, body in enumerate(bodies)
    )


def test_rq2_comment_count_filter(synth_lexicon):
    four = make_issue(1, comments=_comments(["joy"] * 4))
    three = make_issue(2, comments=_comments(["joy"] * 3))
    table = rq2_first_last(score_corpus([four, three], synth_lexicon))
    assert table.scope_counts["All"]["qualified"] == 1
    assert table.scope_counts["All"]["excluded"] == 1


def test_rq2_verbatim_repeat_gives_null_delta(synth_lexicon):
    middles = ["love", "anger", "sadness"]
    issues = [
        make_issue(i, comments=_comments(
            ["joy story here", middles[i - 1], middles[-i], "joy story here"],
            authors=["asg", "asg", "rep", "rep"],
        ))
        for i in range(1, 4)
    ]
    table = rq2_first_last(score_corpus(issues, synth_lexicon))
    all_cells = [c for c in table.cells if c.scope == "All"]
    for cell in all_cells:
        assert cell.result.t == 0.0 and cell.result.p == 1.0 and cell.result.d == 0.0
    # assignee wrote comments 0 and 1, reporter 2 and 3; their own pairs differ
    assignee_cells = [c for c in table.cells if c.scope == "Assignees'"]
    assert all(c.n_pairs == 3 for c in assignee_cells)
    others = [c for c in table.cells if c.scope == "Others'"]
    assert all(c.note == "insufficient data" for c in others)


def test_rq2_planted_valence_rise(planted_scored):
    table = rq2_first_last(planted_scored)
    assert table.comparisons == 12
    assert table.adjusted_alpha == pytest.approx(0.05 / 12)
    for cell in table.cells:
        if cell.dimension == "valence":
            assert cell.result.d > 0
            assert cell.result.significant


def test_rq2_counts_conserved(planted_scored):
    table = rq2_first_last(planted_scored)
    for scope, counts in table.scope_counts.items():
        assert counts["qualified"] + counts["excluded"] == table.n_total


# ---------------------------------------------------------------------------
# hierarchical resolution model
# ---------------------------------------------------------------------------

def test_rq3_no_resolved_issues(synth_lexicon):
    issues = [make_issue(i, resolved=None, status="Open") for i in range(1, 6)]
    report = rq3_resolution_model(score_corpus(issues, synth_lexicon))
    assert report.n_used == 0
    assert report.n_skipped_unresolved == 5
    assert report.stages == ()
    assert report.zero_r is None
    assert any("usable resolved issues" in note for note in report.notices)


def test_rq3_planted_pipeline(planted_scored):
    report = rq3_resolution_model(planted_scored, seed=4)
    assert report.n_used + report.n_skipped_incomplete == report.n_resolved
    assert report.n_resolved + report.n_skipped_unresolved == report.n_total
    # ZeroR row follows from the majority share exactly
    assert report.zero_r.long.precision == pytest.approx(report.long_share, abs=1e-12)
    assert report.zero_r.long.recall == 1.0
    q = report.long_share
    assert report.zero_r.long.f1 == pytest.approx(2 * q / (1 + q), abs=1e-12)
    assert report.zero_r.auc == 0.5
    # three stages, nested improvements
    assert [s.name for s in report.stages] == [
        "controls", "controls+affective", "controls+affective+vad"]
    assert report.stages[1].lr_p_vs_previous is not None
    assert report.stages[2].lr_p_vs_previous < 0.001
    assert len(report.filter_decisions) == 5
    assert report.final_model is not None
    assert len(report.impacts) == len(report.final_model.columns)


def test_rq3_all_comments_valence_negative_impact(synth_lexicon):
    config = GeneratorConfig(n_issues=4000, effects=EffectConfig(valence_resolution=0.8),
                             external_features=True)
    issues, _ = generate_corpus(config, seed=5)
    report = rq3_resolution_model(score_corpus(issues, synth_lexicon), seed=1)
    impacts = {e.feature: e.impact for e in report.impacts}
    assert "all_v" in impacts and impacts["all_v"] < 0


def test_rq3_stage2_skipped_without_external_features(synth_lexicon):
    issues, _ = generate_corpus(GeneratorConfig(n_issues=600, external_features=False), seed=8)
    report = rq3_resolution_model(score_corpus(issues, synth_lexicon), seed=2)
    assert [s.name for s in report.stages] == ["controls", "controls+vad"]
    assert any("stage 2 skipped" in note for note in report.notices)


def test_rq3_deterministic(planted_scored):
    first = rq3_resolution_model(planted_scored, seed=4)
    second = rq3_resolution_model(planted_scored, seed=4)
    assert first == second


def test_rq3_folds_start_from_their_stage_fit(planted_scored, monkeypatch):
    starts = []
    crossval = analyses.crossval

    def recorded(design, y, seed=0, start=None):
        starts.append(start)
        return crossval(design, y, seed=seed, start=start)

    monkeypatch.setattr(analyses, "crossval", recorded)
    report = rq3_resolution_model(planted_scored, seed=4)
    assert len(report.stages) == 3 and starts == [stage.model for stage in report.stages]


@pytest.mark.parametrize("case,notice", [
    ("title_d = title_v", "dropped title_d (|r|=1.000 with title_v)"),
    ("constant n_developers", "stage controls failed: singular design; collinear columns: ['n_developers']"),
    ("constant title_d", "kept title_d: no r with title_v, constant: ['title_d']"),
    ("avg_politeness = Long", "stage controls+affective: fit did not converge (possible separation)"),
    ("avg_politeness = 1 on one issue", "stage controls+affective: cross-validation skipped "
                                        "(singular design; collinear columns: ['avg_politeness'])"),
])
def test_rq3_notices_reach_the_report(planted_scored, tmp_path, case, notice):
    table, features = planted_scored, dict(planted_scored.features)
    used = np.flatnonzero(~np.isnan(features["resolution_time"]) & ~np.isnan(table.elements).any(axis=(1, 2)))
    if case in ("title_d = title_v", "constant title_d"):
        elements = table.elements.copy()
        elements[:, 0, 2] = 5.0 if case == "constant title_d" else elements[:, 0, 0]
        table = dataclasses.replace(table, elements=elements)
    elif case == "constant n_developers":
        features["n_developers"] = np.ones(len(table))
    else:
        features["avg_politeness"] = np.zeros(len(table))
        if case == "avg_politeness = Long":
            features["avg_politeness"][used] = binarize_outcome(features["resolution_time"][used])
        else:
            features["avg_politeness"][used[0]] = 1.0
    report = rq3_resolution_model(dataclasses.replace(table, features=features))
    assert notice in report.notices
    assert (report.stages == ()) == case.startswith("constant")
    # a failed stage fit still counts the rows that reached it
    assert report.n_used == len(used)
    assert report.n_used + report.n_skipped_incomplete == report.n_resolved
    write_reports(AnalysisResults(n_issues=len(table), n_scored=len(table), rq3=report), tmp_path)
    assert f"\n  note: {notice}\n" in (tmp_path / "report.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def planted_3000(synth_lexicon):
    issues, _ = generate_corpus(planted_config(3000), seed=3)
    return score_corpus(issues, synth_lexicon)


def test_rq3_external_feature_scale_does_not_change_the_fits(planted_3000):
    # an external column times 1e12 was once declared collinear at stage 2
    base = rq3_resolution_model(planted_3000, seed=0)
    features = {**planted_3000.features, "avg_politeness": planted_3000.features["avg_politeness"] * 1e12}
    scaled = rq3_resolution_model(dataclasses.replace(planted_3000, features=features), seed=0)
    assert [s.name for s in scaled.stages] == ["controls", "controls+affective", "controls+affective+vad"]
    assert scaled.notices == base.notices
    for before, after in zip(base.stages, scaled.stages):
        assert after.model.p_values == pytest.approx(before.model.p_values, rel=1e-9, abs=0.0)
    assert scaled.pruned == base.pruned


# ---------------------------------------------------------------------------
# sign tables
# ---------------------------------------------------------------------------

def test_rq4_planted_priority_arousal(planted_scored):
    table = rq4_sign_tables(planted_scored)
    assert table.cells[("Priority", "Assignee", "arousal")] == "+"
    assert analyses.SIGN_ALPHA == 0.001


def test_rq4_huge_votes_on_one_issue_blank_nothing(planted_3000):
    # a votes count of 2**52 passes the loader; it once made six designs singular
    votes = planted_3000.features["votes"].copy()
    votes[0] = 2.0 ** 52
    table = rq4_sign_tables(dataclasses.replace(planted_3000, features={**planted_3000.features, "votes": votes}))
    assert table.notices == ()  # no "singular design" notice
    assert len(table.columns) == 9 and all(n > len(SIGN_TABLE_ROWS) + 2 for n in table.n_designs.values())
    # every column is computed: the planted priority effect shows in each role's arousal
    assert all(table.cells[("Priority", role, "arousal")] == "+" for role in ROLES)


def test_rq4_constant_response_blanks_with_notice(synth_lexicon):
    issues = [
        make_issue(i, priority=p, votes=i, watchers=i % 3,
                   comments=_comments(["joy"], authors=["asg"]))
        for i, p in enumerate(
            ["Blocker", "Critical", "Major", "Minor", "Trivial"] * 4, start=1)
    ]
    table = rq4_sign_tables(score_corpus(issues, synth_lexicon))
    assert any("degenerate variance" in note for note in table.notices)
    assert all(table.cells[(row, "Assignee", "valence")] == "" for row in table.rows)


def test_rq4_insufficient_rows_blank(synth_lexicon):
    issues = [make_issue(i, comments=_comments(["joy"], authors=["asg"])) for i in range(1, 5)]
    table = rq4_sign_tables(score_corpus(issues, synth_lexicon))
    assert any("insufficient rows" in note for note in table.notices)
    assert all(value == "" for value in table.cells.values())


def _traced_peak(function, *args):
    """The ``tracemalloc`` peak of ``function(*args)``, from its start."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def design_sizes(monkeypatch):
    """The ``Z.nbytes`` of each design that the analyses build, in order."""
    sizes = []
    design_matrix = analyses.DesignMatrix

    def recorded(columns, X):
        design = design_matrix(columns, X)
        sizes.append(design.Z.nbytes)
        return design

    monkeypatch.setattr(analyses, "DesignMatrix", recorded)
    return sizes


def test_rq4_holds_no_whole_corpus_copy_of_its_predictors(planted_scored, design_sizes):
    peak = _traced_peak(rq4_sign_tables, planted_scored)
    assert len(design_sizes) == len(ROLES)
    # one design is alive at a time, next to masks and bincounts over the
    # corpus: about 5.9 designs here. Keeping the last role's design while the
    # next is standardized reads about 6.8, and a stack of the 9 predictors over
    # the whole corpus adds about 1.7 designs; both are past the bound.
    assert peak < 6.4 * max(design_sizes)


# Each bound is a multiple of the bytes of the table's scores, ``elements``. A
# group table keeps one element's samples at a time (about 0.2-0.35 here), so a
# copy of ``elements`` fails it. The summary's fits standardize a design of
# valence powers (about 6.1). rq2 gathers each scope's first and last comment
# rows (about 0.9).
@pytest.mark.parametrize("stage,bound", [
    (rq1_priority_arousal, 0.75),
    (rq1_type_valence, 0.75),
    (rq1_dominance_time, 0.75),
    (rq1_summary, 7.0),
    (rq2_first_last, 1.2),
])
def test_stage_memory_is_a_bounded_multiple_of_the_scores(planted_scored, stage, bound):
    assert _traced_peak(stage, planted_scored) < bound * planted_scored.elements.nbytes


def test_rq3_memory_is_a_bounded_multiple_of_its_design(planted_scored, design_sizes):
    peak = _traced_peak(rq3_resolution_model, planted_scored)
    # the design and one fold's copy of its training rows (0.9 designs) are
    # alive during each fold's fit: about 5.7 designs here
    assert peak < 6.5 * max(design_sizes)


def test_rq4_null_corpus_mostly_blank(synth_lexicon):
    from vadminer.synth import null_config

    total = blank = 0
    for seed in range(10):
        issues, _ = generate_corpus(null_config(250), seed=500 + seed)
        table = rq4_sign_tables(score_corpus(issues, synth_lexicon))
        for value in table.cells.values():
            total += 1
            blank += value == ""
    assert blank >= 0.95 * total


@pytest.fixture(scope="module")
def jittered(planted_corpus, synth_lexicon):
    """The planted corpus scored with full-precision random word scores, so
    that a change in summation order shows in the last bits."""
    rng = random.Random(3)
    lexicon = Lexicon([LexiconEntry(word=e.word, valence=rng.uniform(1, 9), arousal=rng.uniform(1, 9),
                                    dominance=rng.uniform(1, 9)) for e in synth_lexicon])
    issues, _ = planted_corpus
    return issues, lexicon, score_corpus(issues, lexicon)


def _element_scores(issue, lexicon):
    """Title, Desc, All, First, Last scores from score_text; None where absent."""
    bodies = [c.body for c in issue.comments]
    threads = ("\n".join(bodies), bodies[0], bodies[-1]) if bodies else ()
    scores = [score_text(text, lexicon) for text in (issue.title, issue.description, *threads)]
    return scores + [None] * (5 - len(scores))


def test_rq1_summary_rq2_equal_per_issue_loop(jittered):
    # reference: the per-issue loops over score_text, bit for bit
    issues, lexicon, table = jittered
    elements = [_element_scores(issue, lexicon) for issue in issues]

    priority = rq1_priority_arousal(table)
    for e, row in enumerate(priority.rows):
        cells = {group: [scores[e].arousal for issue, scores in zip(issues, elements)
                         if issue.priority == group and scores[e] is not None and scores[e].has_scores]
                 for group in priority.groups}
        assert row.means == {group: float(np.mean(values)) for group, values in cells.items()}
        for comparison in row.comparisons:
            expected = welch_t_test(cells[comparison.left], cells[comparison.right], alpha=priority.adjusted_alpha)
            assert comparison.result == expected

    summary = rq1_summary(table)
    expected_points = []
    for issue, scores in zip(issues, elements):
        scored = [vad for vad in scores[:3] if vad is not None and vad.has_scores]
        if scored:
            expected_points.append((issue.id, float(np.mean([vad.valence for vad in scored])),
                                    float(np.mean([vad.arousal for vad in scored]))))
    assert list(zip(summary.ids.tolist(), summary.valence.tolist(), summary.arousal.tolist())) == expected_points

    paired = rq2_first_last(table)
    for cell in paired.cells:
        pairs = []
        for issue in issues:
            if issue.status != "Closed":
                continue
            if cell.scope == "All":
                thread = list(issue.comments) if len(issue.comments) >= 4 else []
            else:
                role = {"Assignees'": "Assignee", "Reporters'": "Reporter", "Others'": "Other"}[cell.scope]
                thread = [c for c in issue.comments if oracles.commenter_role(c.author, issue) == role]
                thread = thread if len(thread) >= 2 else []
            if thread:
                first = score_text(thread[0].body, lexicon).get(cell.dimension)
                last = score_text(thread[-1].body, lexicon).get(cell.dimension)
                if first is not None and last is not None:
                    pairs.append((first, last))
        assert cell.n_pairs == len(pairs)
        assert cell.result == paired_t_test(*zip(*pairs), alpha=paired.adjusted_alpha)


def _record_designs(monkeypatch, fit: str) -> tuple[list, list]:
    """(columns, raw matrix, design) of each DesignMatrix the pipelines build,
    and (design, response) of each call of the fit named ``fit``."""
    built, fits = [], []
    design_matrix, fitted = analyses.DesignMatrix, getattr(analyses, fit)

    def recorded(columns, X):
        built.append((list(columns), X, design_matrix(columns, X)))
        return built[-1][2]

    def recorded_fit(design, y, *args, **kwargs):
        fits.append((design, np.asarray(y)))
        return fitted(design, y, *args, **kwargs)

    monkeypatch.setattr(analyses, "DesignMatrix", recorded)
    monkeypatch.setattr(analyses, fit, recorded_fit)
    return built, fits


def test_rq4_designs_equal_per_issue_loop(jittered, monkeypatch):
    # reference: each role's design built issue by issue from score_text, and
    # each dimension's response the mean of the role's scored comments summed
    # in order
    built, fits = _record_designs(monkeypatch, "fit_linear")
    issues, lexicon, table = jittered
    rq4_sign_tables(table)

    history = oracles.prior_activity(issues)
    comment_scores = {id(c): score_text(c.body, lexicon) for issue in issues for c in issue.comments}
    long_means = 0
    # one design per role, fitted once per dimension
    assert len(built) == len(ROLES) and len(fits) == len(ROLES) * len(DIMENSIONS)
    responses = iter(fits)
    for role, (_, X, design) in zip(ROLES, built):
        for dim in DIMENSIONS:
            rows, response = [], []
            for row, issue in enumerate(issues):
                if issue.resolution_time is None or issue.type_group is None:
                    continue
                values = [comment_scores[id(c)].get(dim) for c in issue.comments
                          if oracles.commenter_role(c.author, issue) == role
                          and comment_scores[id(c)].get(dim) is not None]
                if not values:
                    continue
                long_means += len(values) >= 8
                rows.append([PRIORITY_LEVEL[issue.priority], issue.type_group == "Bug",
                             issue.resolution_time, issue.votes, len(issue.comments), issue.watchers,
                             history["assignee_prev_issues"][row], history["reporter_prev_issues"][row],
                             issue.type_group == "Future Dev"])
                response.append(float(np.cumsum(values)[-1] / len(values)))
            fitted_design, y = next(responses)
            assert fitted_design is design
            assert np.array_equal(X, np.array(rows, dtype=float))
            assert np.array_equal(y, np.array(response))
    assert long_means > 0  # groups where np.mean would sum pairwise are covered


def test_rq3_design_equals_per_issue_loop(jittered, monkeypatch):
    # reference: the control, affective and VAD columns built issue by issue
    # from the issue records and score_text
    designs, fits = _record_designs(monkeypatch, "fit_logistic")
    issues, lexicon, table = jittered
    report = rq3_resolution_model(table)

    history = oracles.prior_activity(issues)
    affective = ["avg_politeness", "avg_sentiment"]
    rows, times = [], []
    for row, issue in enumerate(issues):
        elements = _element_scores(issue, lexicon)
        if issue.resolution_time is None or not all(vad is not None and vad.has_scores for vad in elements):
            continue
        rows.append([len(issue.comments), history["assignee_prev_comments"][row],
                     history["reporter_prev_comments"][row], issue.developer_count, issue.watchers,
                     issue.change_count, *(issue.priority == p for p in ("Critical", "Major", "Minor", "Trivial")),
                     *(issue.external_features[key] for key in affective),
                     *(vad.get(dim) for vad in elements for dim in DIMENSIONS)])
        times.append(issue.resolution_time)
    median = sorted(times)[(len(times) - 1) // 2]
    # the stages' design comes first; no column is dropped by the filter here
    (columns, X, design), _ = designs
    assert not any(decision.dropped for decision in report.filter_decisions)
    assert columns == ["n_comments", "assignee_prev_comments", "reporter_prev_comments",
                       "n_developers", "n_watchers", "n_changes", "Critical", "Major", "Minor",
                       "Trivial", *affective,
                       *(f"{el}_{d}" for el in ("title", "desc", "all", "first", "last") for d in "vad")]
    assert np.array_equal(X, np.array(rows, dtype=float))
    # every stage and the pruned model fit the same labels
    assert len(fits) == len(report.stages) + 1
    assert all(np.array_equal(y, [float(time >= median) for time in times]) for _, y in fits)
    assert report.n_used == len(rows) and report.stages[1].columns[-2:] == tuple(affective)

    # a column missing on one used issue is no longer shared
    used_row = next(row for row, issue in enumerate(issues) if issue.resolution_time is not None
                    and not np.isnan(table.elements[row]).any())
    sentiment = table.features["avg_sentiment"].copy()
    sentiment[used_row] = np.nan
    partial = dataclasses.replace(table, features={**table.features, "avg_sentiment": sentiment})
    designs.clear()
    rq3_resolution_model(partial)
    assert designs[0][0][10:12] == ["avg_politeness", "title_v"]


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def test_history_counts(table1_lexicon):
    issues = [
        make_issue(1, created=100, reporter="ann", assignee="bob",
                   comments=_comments(["a", "b"], authors=["bob", "ann"], start=110)),
        make_issue(2, created=200, reporter="ann", assignee="cid",
                   comments=_comments(["c"], authors=["cid"], start=210)),
        make_issue(3, created=300, reporter="bob", assignee="ann", comments=()),
    ]
    history = score_corpus(issues, table1_lexicon).features
    assert {name: history[name][0] for name in HISTORY_COLUMNS} == {
        "assignee_prev_comments": 0, "reporter_prev_comments": 0,
        "assignee_prev_issues": 0, "reporter_prev_issues": 0}
    assert history["reporter_prev_issues"][1] == 1    # ann reported PRJ-1
    assert history["reporter_prev_comments"][1] == 1  # ann commented on PRJ-1
    assert history["assignee_prev_comments"][2] == 1  # ann, before PRJ-3
    assert history["reporter_prev_issues"][2] == 0    # bob reported nothing before


def test_score_corpus_parallel_matches_serial(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    sample = issues[:200]
    serial = score_corpus(sample, synth_lexicon, jobs=1)
    parallel = score_corpus(sample, synth_lexicon, jobs=2)
    assert serial == parallel


def test_run_analyses_selection(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    table = score_corpus(issues[:300], synth_lexicon)
    results = run_analyses(table, which=("rq1",), seed=0)
    assert results.rq1_priority is not None
    assert results.rq2 is None and results.rq3 is None and results.rq4 is None
    with pytest.raises(ValueError, match="unknown analyses"):
        run_analyses(table, which=("rq9",))


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def test_write_reports_formats_the_points_in_row_blocks(tmp_path):
    n = 40_000  # about five row blocks
    rng = np.random.RandomState(5)
    valence = rng.uniform(0.0, 4.0, n)
    arousal = 1.0 + 0.2 * valence + rng.normal(0.0, 0.5, n)
    ids = np.array([f"PRJ-{i}" for i in range(n)], dtype=object)
    summary = SummaryResult(ids=ids, valence=valence, arousal=arousal, linear=polyfit(valence, arousal, 1),
                            quadratic=polyfit(valence, arousal, 2), n_total=n, n_skipped=0)
    peak = _traced_peak(write_reports, AnalysisResults(n_issues=n, n_scored=n, summary=summary), tmp_path)
    # one block of formatted rows takes about 1.3 MB at any row count; one list
    # of every row takes about 9 times the three columns
    assert peak < 2 * (ids.nbytes + valence.nbytes + arousal.nbytes)
    # the blocks join into the rows of the whole columns
    columns = [valence, arousal]
    rows = [",".join([issue_id, *(format(value, ".12g") for value in values)])
            for issue_id, *values in zip(ids.tolist(), *(column.tolist() for column in columns))]
    text = (tmp_path / "rq1_summary_points.csv").read_text(encoding="utf-8")
    assert text.splitlines() == ["issue_id,valence,arousal", *rows]

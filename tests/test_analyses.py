import dataclasses
import random

import numpy as np
import pytest

from vadminer import analyses
from vadminer.analyses import (
    participant_history,
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
from vadminer.corpus import PRIORITY_LEVEL, ROLES, Comment, IssueReport, role_of
from vadminer.lexicon import DIMENSIONS, Lexicon, LexiconEntry
from vadminer.stats import paired_t_test, welch_t_test
from vadminer.synth import EffectConfig, GeneratorConfig, generate_corpus, u_shape_config
from vadminer.textscore import score_text


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


# ---------------------------------------------------------------------------
# sign tables
# ---------------------------------------------------------------------------

def test_rq4_planted_priority_arousal(planted_scored):
    table = rq4_sign_tables(planted_scored)
    assert table.cells[("Priority", "Assignee", "arousal")] == "+"
    assert table.alpha == 0.001


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
                thread = [c for c in issue.comments if role_of(c, issue) == role]
                thread = thread if len(thread) >= 2 else []
            if thread:
                first = score_text(thread[0].body, lexicon).get(cell.dimension)
                last = score_text(thread[-1].body, lexicon).get(cell.dimension)
                if first is not None and last is not None:
                    pairs.append((first, last))
        assert cell.n_pairs == len(pairs)
        assert cell.result == paired_t_test(*zip(*pairs), alpha=paired.adjusted_alpha)


def test_rq4_designs_equal_per_issue_loop(jittered, monkeypatch):
    # reference: each design built issue by issue from score_text, the
    # response being np.mean of the role's scored comments
    from vadminer import analyses

    fitted = []
    fit_linear = analyses.fit_linear
    monkeypatch.setattr(analyses, "fit_linear", lambda design: fitted.append(design) or fit_linear(design))
    issues, lexicon, table = jittered
    rq4_sign_tables(table)

    history = participant_history(issues)
    comment_scores = {id(c): score_text(c.body, lexicon) for issue in issues for c in issue.comments}
    long_means = 0
    assert len(fitted) == len(ROLES) * len(DIMENSIONS)
    designs = iter(fitted)
    for role in ROLES:
        for dim in DIMENSIONS:
            rows, response = [], []
            for row, issue in enumerate(issues):
                if issue.resolution_time is None or issue.type_group is None:
                    continue
                values = [comment_scores[id(c)].get(dim) for c in issue.comments
                          if role_of(c, issue) == role and comment_scores[id(c)].get(dim) is not None]
                if not values:
                    continue
                long_means += len(values) >= 8
                rows.append([PRIORITY_LEVEL[issue.priority], issue.type_group == "Bug",
                             issue.resolution_time, issue.votes, len(issue.comments), issue.watchers,
                             history["assignee_prev_issues"][row], history["reporter_prev_issues"][row],
                             issue.type_group == "Future Dev"])
                response.append(float(np.mean(values)))
            design = next(designs)
            assert np.array_equal(design.X, np.array(rows, dtype=float))
            assert np.array_equal(design.outcome, np.array(response))
    assert long_means > 0  # the pairwise-summed np.mean case is covered


def test_rq3_design_equals_per_issue_loop(jittered, monkeypatch):
    # reference: the control, affective and VAD columns built issue by issue
    # from the issue records and score_text
    designs = []
    correlation_filter = analyses.correlation_filter
    monkeypatch.setattr(analyses, "correlation_filter",
                        lambda design, *args, **kwargs: designs.append(design)
                        or correlation_filter(design, *args, **kwargs))
    issues, lexicon, table = jittered
    report = rq3_resolution_model(table)

    history = participant_history(issues)
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
    [design] = designs
    assert design.columns == ["n_comments", "assignee_prev_comments", "reporter_prev_comments",
                              "n_developers", "n_watchers", "n_changes", "Critical", "Major", "Minor",
                              "Trivial", *affective,
                              *(f"{el}_{d}" for el in ("title", "desc", "all", "first", "last") for d in "vad")]
    assert np.array_equal(design.X, np.array(rows, dtype=float))
    assert np.array_equal(design.outcome, [float(time >= median) for time in times])
    assert report.n_used == len(rows) and report.stages[1].columns[-2:] == tuple(affective)

    # a column missing on one used issue is no longer shared
    used_row = next(row for row, issue in enumerate(issues) if issue.resolution_time is not None
                    and not np.isnan(table.elements[row]).any())
    sentiment = table.features["avg_sentiment"].copy()
    sentiment[used_row] = np.nan
    partial = dataclasses.replace(table, features={**table.features, "avg_sentiment": sentiment})
    rq3_resolution_model(partial)
    assert designs[1].columns[10:12] == ["avg_politeness", "title_v"]


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def test_participant_history_counts():
    issues = [
        make_issue(1, created=100, reporter="ann", assignee="bob",
                   comments=_comments(["a", "b"], authors=["bob", "ann"], start=110)),
        make_issue(2, created=200, reporter="ann", assignee="cid",
                   comments=_comments(["c"], authors=["cid"], start=210)),
        make_issue(3, created=300, reporter="bob", assignee="ann", comments=()),
    ]
    history = participant_history(issues)
    assert {name: column[0] for name, column in history.items()} == {
        "assignee_prev_comments": 0, "reporter_prev_comments": 0,
        "assignee_prev_issues": 0, "reporter_prev_issues": 0}
    assert history["reporter_prev_issues"][1] == 1    # ann reported PRJ-1
    assert history["reporter_prev_comments"][1] == 1  # ann commented on PRJ-1
    assert history["assignee_prev_comments"][2] == 1  # ann, before PRJ-3
    assert history["reporter_prev_issues"][2] == 0    # bob reported nothing before


def test_participant_history_runs_once_per_run(planted_corpus, synth_lexicon, monkeypatch):
    calls = []
    original = analyses.participant_history

    def counted(issues):
        calls.append(len(issues))
        return original(issues)

    monkeypatch.setattr(analyses, "participant_history", counted)
    issues, _ = planted_corpus
    results = run_analyses(issues, synth_lexicon, seed=0)
    assert results.rq3.n_used > 0 and sum(results.rq4.n_designs.values()) > 0
    assert calls == [len(issues)]


def test_score_corpus_parallel_matches_serial(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    sample = issues[:200]
    serial = score_corpus(sample, synth_lexicon, jobs=1)
    parallel = score_corpus(sample, synth_lexicon, jobs=2)
    assert serial == parallel


def test_run_analyses_selection(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    results = run_analyses(issues[:300], synth_lexicon, which=("rq1",), seed=0)
    assert results.rq1_priority is not None
    assert results.rq2 is None and results.rq3 is None and results.rq4 is None
    with pytest.raises(ValueError, match="unknown analyses"):
        run_analyses(issues[:10], synth_lexicon, which=("rq9",))

"""Identities of the score table against the text kernel, bit for bit.

A table cell is NaN exactly where ``score_text`` gives None (or the element
is absent), and otherwise holds the very same float.
"""
import dataclasses
import io
import json
import math
import random

import numpy as np
import pytest

from vadminer.analyses import ELEMENTS, score_corpus
from vadminer.corpus import (
    ATTRIBUTE_COLUMNS,
    HISTORY_COLUMNS,
    PRIORITIES,
    PRIORITY_LEVEL,
    ROLES,
    TYPE_GROUP_ORDER,
    Comment,
    IssueReport,
    load_corpus,
    write_corpus,
)
from vadminer.synth import GeneratorConfig, generate_corpus, null_config, planted_config
from vadminer.textscore import TextScan, score_text

import oracles

NAN_ROW = [math.nan] * 3


def text_row(text, lexicon):
    score = score_text(text, lexicon)
    if score.valence is None:
        return NAN_ROW
    return [score.valence, score.arousal, score.dominance]


def expected_elements(issue, lexicon):
    bodies = [c.body for c in issue.comments]
    rows = {"Title": text_row(issue.title, lexicon), "Desc": text_row(issue.description, lexicon)}
    if bodies:
        rows.update(All=text_row("\n".join(bodies), lexicon), First=text_row(bodies[0], lexicon),
                    Last=text_row(bodies[-1], lexicon))
    else:
        rows.update(All=NAN_ROW, First=NAN_ROW, Last=NAN_ROW)
    return np.array([rows[element] for element in ELEMENTS])


def assert_table_matches_kernel(table, issues, lexicon):
    assert table.ids.tolist() == [issue.id for issue in issues]
    assert table.elements.shape == (len(issues), len(ELEMENTS), 3)
    for row, issue in enumerate(issues):
        assert np.array_equal(table.elements[row], expected_elements(issue, lexicon), equal_nan=True)
        start, end = table.offsets[row], table.offsets[row + 1]
        assert end - start == len(issue.comments)
        comment_rows = [text_row(c.body, lexicon) for c in issue.comments]
        assert np.array_equal(table.comments[start:end].reshape(-1, 3),
                              np.array(comment_rows).reshape(-1, 3), equal_nan=True)
        assert [ROLES[code] for code in table.roles[start:end]] == [
            oracles.commenter_role(c.author, issue) for c in issue.comments]


def test_planted_corpus_rows_equal_kernel(planted_corpus, synth_lexicon, planted_scored):
    issues, _ = planted_corpus
    assert_table_matches_kernel(planted_scored, issues, synth_lexicon)


def make_issue(i, title, description, bodies, authors=("asg", "rep", "someone")):
    return IssueReport(
        id=f"PRJ-{i}", project="PRJ", issue_type="Bug", priority="Major",
        created=100 + i, resolved=None, status="Open", reporter="rep", assignee="asg",
        votes=0, watchers=0, change_count=0, developer_count=0,
        title=title, description=description,
        comments=tuple(Comment(author=authors[k % len(authors)], created=200 + k, body=body)
                       for k, body in enumerate(bodies)),
    )


EDGE_ISSUES = [
    make_issue(1, "", "", []),
    make_issue(2, "JOY", "no match here", ["", "zzz qqq", "Sadness!"]),
    make_issue(3, "joy_sadness", "love4anger", ["qqq", "zzz"]),
    make_issue(4, "Ünïcode joy — «love»", "İstanbul sadness", ["ΟΔΟΣ anger", "naïve joy"]),
    make_issue(5, "joy", "joy", ["anger\njoy", "sadness\r\nlove", "joy"]),
    make_issue(6, "x", "y", ["joy"], authors=("asg",)),
]


def test_edge_issues_rows_equal_kernel(table1_lexicon):
    table = score_corpus(EDGE_ISSUES, table1_lexicon)
    assert_table_matches_kernel(table, EDGE_ISSUES, table1_lexicon)


def test_a_text_scores_on_every_dimension_or_on_none(planted_scored, table1_lexicon):
    # every lexicon entry carries all three dimensions; rq4 builds one design
    # per role on this
    edge = score_corpus(EDGE_ISSUES, table1_lexicon)
    for table in (planted_scored, edge):
        for scores in (table.comments, table.elements):
            missing = np.isnan(scores)
            assert np.array_equal(missing.all(axis=-1), missing.any(axis=-1))
    # the edge issues hold both kinds of comment
    assert np.isnan(edge.comments).all(axis=1).any() and np.isfinite(edge.comments).all(axis=1).any()


def test_empty_corpus(table1_lexicon):
    table = score_corpus([], table1_lexicon)
    assert len(table) == 0
    assert table.elements.shape == (0, 5, 3) and table.comments.shape == (0, 3)
    assert list(table.offsets) == [0]
    assert table.roles.shape == (0,)
    assert all(table.features[name].shape == (0,) for name in HISTORY_COLUMNS)


def test_comment_fold_invariant_to_permutation_and_duplication(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    rng = random.Random(4)
    threads = [issue for issue in issues if len(issue.comments) >= 2][:300]
    shuffled, duplicated = [], []
    for issue in threads:
        comments = list(issue.comments)
        rng.shuffle(comments)
        shuffled.append(dataclasses.replace(issue, comments=tuple(comments)))
        extra = tuple(rng.choices(issue.comments, k=rng.randint(1, 3)))
        duplicated.append(dataclasses.replace(issue, comments=issue.comments + extra))
    all_column = ELEMENTS.index("All")
    base = score_corpus(threads, synth_lexicon).elements[:, all_column]
    for variant in (shuffled, duplicated):
        scored = score_corpus(variant, synth_lexicon).elements[:, all_column]
        assert np.array_equal(scored, base, equal_nan=True)


@pytest.mark.parametrize("rows", [
    [5, 0, 17, 3],
    np.arange(200) % 3 == 0,
    [],
])
def test_select_equals_scoring_the_subset(planted_corpus, synth_lexicon, rows):
    issues, _ = planted_corpus
    table = score_corpus(issues[:200], synth_lexicon)
    picked = np.arange(200)[rows]
    selected = table.select(rows)
    assert selected == score_corpus([issues[row] for row in picked], synth_lexicon)
    # every feature column is sliced; the history counts stay those of the 200 issues
    assert {"avg_sentiment", "reporter_prev_issues", "resolution_time"} < set(table.features)
    assert list(selected.features) == list(table.features)
    for name, column in table.features.items():
        assert np.array_equal(selected.features[name], column[picked], equal_nan=True), name


def test_external_columns_nan_where_the_key_is_missing(table1_lexicon):
    issues = [dataclasses.replace(issue, external_features=features) for issue, features in zip(
        EDGE_ISSUES, [{"b": 2.5}, {}, {"a": -1, "b": 0.0}])]
    features = score_corpus(issues, table1_lexicon).features
    assert list(features)[-2:] == ["a", "b"]
    assert np.array_equal(features["a"], [math.nan, math.nan, -1.0], equal_nan=True)
    assert np.array_equal(features["b"], [2.5, math.nan, 0.0], equal_nan=True)
    clash = dataclasses.replace(EDGE_ISSUES[0], external_features={"n_comments": 1.0})
    with pytest.raises(ValueError, match="n_comments"):
        score_corpus([clash], table1_lexicon)


def test_equality_sees_every_column(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    table = score_corpus(issues[:50], synth_lexicon)
    assert table == score_corpus(issues[:50], synth_lexicon)
    assert table != score_corpus(issues[1:51], synth_lexicon)
    changed = dataclasses.replace(table, comments=table.comments + 1.0)
    assert table != changed
    ids = table.ids.copy()
    ids[7] = "PRJ-renamed"
    assert table != dataclasses.replace(table, ids=ids)


def reference_features(issues):
    """Every feature column by a walk over the records, with the history
    columns of ``oracles.prior_activity``; an external column is NaN where
    the issue lacks the key."""
    columns = {name: [] for name in ATTRIBUTE_COLUMNS}
    for issue in issues:
        values = {
            "n_comments": len(issue.comments),
            "n_watchers": issue.watchers,
            "n_developers": issue.developer_count,
            "n_changes": issue.change_count,
            "votes": issue.votes,
            "priority_level": PRIORITY_LEVEL[issue.priority],
            "resolution_time": math.nan if issue.resolved is None else issue.resolved - issue.created,
            "closed": 1.0 if issue.status == "Closed" else 0.0,
            "priority": PRIORITIES.index(issue.priority),
            "type_group": math.nan if issue.type_group is None else TYPE_GROUP_ORDER.index(issue.type_group),
        }
        for name, value in values.items():
            columns[name].append(value)
    columns.update(oracles.prior_activity(issues))
    for name in sorted({name for issue in issues for name in issue.external_features}):
        columns[name] = [issue.external_features.get(name, math.nan) for issue in issues]
    return {name: np.array(values, dtype=float) for name, values in columns.items()}


@pytest.fixture(scope="module")
def crowded(planted_corpus):
    """Planted issues on a few people and a few creation times, so that
    creation ties, missing assignees and assignees who reported the issue are
    common, and with external features that some issues lack."""
    rng = random.Random(17)
    people = ["ann", "bob", "cid", "dee", "eve"]
    issues = []
    for issue in planted_corpus[0][:400]:
        reporter = rng.choice(people)
        features = {key: value for key, value in issue.external_features.items() if rng.random() < 0.8}
        if rng.random() < 0.1:
            features["rare"] = rng.uniform(-1.0, 1.0)
        issues.append(dataclasses.replace(
            issue, created=rng.randrange(30), reporter=reporter,
            assignee=rng.choice([*people, None, reporter, reporter]),
            comments=tuple(dataclasses.replace(c, author=rng.choice(people)) for c in issue.comments),
            external_features=features))
    return issues


def test_features_equal_per_issue_walk(crowded, synth_lexicon):
    # ScoreTable equality ignores the features: this walk covers them
    creations = [issue.created for issue in crowded]
    assert len(set(creations)) < len(creations)
    assert any(issue.assignee is None for issue in crowded)
    assert any(issue.assignee == issue.reporter for issue in crowded)
    expected = reference_features(crowded)
    assert all(np.count_nonzero(expected[name]) for name in HISTORY_COLUMNS)
    assert np.isnan(expected["rare"]).any() and not np.isnan(expected["rare"]).all()

    features = score_corpus(crowded, synth_lexicon).features
    assert list(features) == list(expected)
    for name, column in features.items():
        assert column.dtype == np.float64 and column.shape == (len(crowded),), name
        assert column.tobytes() == expected[name].tobytes(), name


def test_history_equals_reference(planted_corpus, planted_scored, table1_lexicon):
    tables = [(planted_corpus[0], planted_scored),
              *((issues, score_corpus(issues, table1_lexicon)) for issues in (EDGE_ISSUES, []))]
    for issues, table in tables:
        expected = oracles.prior_activity(issues)
        for name in HISTORY_COLUMNS:
            assert table.features[name].tobytes() == np.array(expected[name], dtype=float).tobytes(), name


def test_roles_equal_per_comment_reference(crowded, synth_lexicon):
    roles = [oracles.commenter_role(c.author, issue) for issue in crowded for c in issue.comments]
    assert set(roles) == set(ROLES)
    assert any(issue.assignee == issue.reporter and issue.comments for issue in crowded)
    assert [ROLES[code] for code in score_corpus(crowded, synth_lexicon).roles] == roles


def test_shuffled_records_only_move_rows(crowded, synth_lexicon):
    # history follows (created, id), not the order of the records
    order = list(range(len(crowded)))
    random.Random(5).shuffle(order)
    table = score_corpus(crowded, synth_lexicon)
    shuffled = score_corpus([crowded[row] for row in order], synth_lexicon)
    assert shuffled == table.select(order)
    for name in HISTORY_COLUMNS:
        assert shuffled.features[name].tobytes() == table.features[name][order].tobytes(), name


def test_ids_belong_to_the_table(planted_corpus, table1_lexicon):
    # a record's id string would keep the memory around it alive once the
    # records are freed, so the table holds equal strings of its own
    issues = planted_corpus[0][:50] + [dataclasses.replace(EDGE_ISSUES[0], id=name)
                                       for name in ("PRJ-x\x00", "PRJ-\ud800", "PRJ-ü")]
    table = score_corpus(issues, table1_lexicon)
    assert table.ids.dtype == object
    assert table.ids.tolist() == [issue.id for issue in issues]
    assert not any(own is issue.id for own, issue in zip(table.ids, issues))


def _edge_file(path, config, seed, lexicon):
    """A synth corpus rewritten so that it holds non-ASCII and empty texts,
    issues without comments and comments out of time order, written after a
    UTF-8 byte-order mark; returns how many of each edge it holds."""
    words = sorted(entry.word for entry in lexicon)
    edges = dict.fromkeys(("non_ascii", "empty", "no_comments", "out_of_order"), 0)
    lines = []
    buffer = io.StringIO()
    write_corpus(generate_corpus(config, seed)[0], buffer)
    for i, line in enumerate(buffer.getvalue().splitlines()):
        obj = json.loads(line)
        comments = obj["comments"]
        if i % 5 == 0:  # a lexicon word in capitals among words that are not ASCII
            obj["title"] = f"Überfluss ☃ {words[i % len(words)].upper()} naïve {obj['title']}"
            edges["non_ascii"] += 1
        if i % 7 == 0:
            obj["description"] = ""
            edges["empty"] += 1
        if i % 6 == 0:
            obj["comments"] = []
            edges["no_comments"] += 1
        elif len(comments) > 1 and i % 4 == 1:
            comments.reverse()
            comments[0]["body"] = f"😀 {words[-i % len(words)]} café {comments[0]['body']}"
            comments[-1]["body"] = ""
            edges["out_of_order"] += 1
        lines.append(json.dumps(obj, ensure_ascii=i % 2 == 0))
    path.write_bytes(b"\xef\xbb\xbf" + ("\n".join(lines) + "\n").encode("utf-8"))
    return edges


@pytest.mark.parametrize("config, seed", [
    (planted_config(400), 6),
    (null_config(300), 7),
    (GeneratorConfig(n_issues=300, comment_count_weights={0: 1.0, 1: 1.0, 12: 1.0}), 8),
])
def test_scanning_while_loading_builds_the_table_of_the_records_with_text(tmp_path, synth_lexicon, config, seed):
    path = tmp_path / "corpus.jsonl"
    edges = _edge_file(path, config, seed, synth_lexicon)
    assert min(edges.values()) >= 10, edges
    full = load_corpus(path)
    expected = score_corpus(full, synth_lexicon)
    scan = TextScan(synth_lexicon)
    loaded = load_corpus(path, keep_text=False, on_issue=scan.add)
    assert all(issue.title is None and all(c.body is None for c in issue.comments) for issue in loaded)
    table = score_corpus(loaded, synth_lexicon, scan=scan)
    assert table == expected
    assert list(table.features) == list(expected.features)
    for name, column in expected.features.items():
        assert np.array_equal(table.features[name], column, equal_nan=True), name
    # First and Last follow the comments sorted by time, not their order in the file
    assert_table_matches_kernel(table, full, synth_lexicon)


def test_a_scan_of_other_issues_or_another_lexicon_is_an_error(planted_corpus, synth_lexicon, table1_lexicon):
    issues = [issue for issue in planted_corpus[0][:40] if issue.comments][:20]
    n_comments = sum(len(issue.comments) for issue in issues)

    def scanned(records, lexicon=synth_lexicon):
        scan = TextScan(lexicon)
        for issue in records:
            scan.add(issue)
        return scan

    with pytest.raises(ValueError, match=rf"^the scan holds 19 issues and {n_comments - len(issues[-1].comments)} "
                                         rf"comments, but 20 issues with {n_comments} comments were given$"):
        score_corpus(issues, synth_lexicon, scan=scanned(issues[:19]))
    fewer = [dataclasses.replace(issues[0], comments=issues[0].comments[1:]), *issues[1:]]
    with pytest.raises(ValueError, match=rf"^the scan holds 20 issues and {n_comments - 1} comments, "
                                         rf"but 20 issues with {n_comments} comments were given$"):
        score_corpus(issues, synth_lexicon, scan=scanned(fewer))
    with pytest.raises(ValueError, match="^the scan used another lexicon$"):
        score_corpus(issues, synth_lexicon, scan=scanned(issues, table1_lexicon))
    assert score_corpus(issues, synth_lexicon, scan=scanned(issues)) == score_corpus(issues, synth_lexicon)


def test_score_corpus_leaves_the_scan_holding_no_codes(planted_corpus, synth_lexicon):
    issues = planted_corpus[0][:50]
    scan = TextScan(synth_lexicon)
    for issue in issues:
        scan.add(issue)
    score_corpus(issues, synth_lexicon, scan=scan)
    assert [len(column) for column in scan.codes()] == [0, 0, 0]
    # each column is a fresh array of its own: an issue added after the release is coded alone
    threaded = next(issue for issue in issues if issue.comments)
    scan.add(threaded)
    codes = scan.codes()
    assert [len(column) for column in codes] == [1, 1, len(threaded.comments)]
    # int64: a code times the issue count, as _prior's keys take it, does not overflow at any corpus size
    assert all(column.dtype == np.int64 for column in codes)


def test_score_corpus_leaves_the_scan_holding_no_features(planted_corpus, synth_lexicon):
    issues = planted_corpus[0][:50]
    scan = TextScan(synth_lexicon)
    for issue in issues:
        scan.add(issue)
    table = score_corpus(issues, synth_lexicon, scan=scan)
    assert scan.features() == {}
    assert table.features["avg_sentiment"].dtype == np.float64
    # after the release a column still has a row for every issue added, NaN where it lacks the key
    scan.add(dataclasses.replace(issues[0], external_features={}))
    scan.add(dataclasses.replace(issues[1], external_features={"late": 2}))
    scan.add(issues[2])
    columns = scan.features()
    assert list(columns) == ["late", *issues[2].external_features]
    assert np.array_equal(columns["late"], [math.nan] * 51 + [2.0, math.nan], equal_nan=True)
    for key, value in issues[2].external_features.items():
        assert np.array_equal(columns[key], [math.nan] * 52 + [value], equal_nan=True)

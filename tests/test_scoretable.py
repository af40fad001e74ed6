"""Identities of the score table against the text kernel, bit for bit.

A table cell is NaN exactly where ``score_text`` gives None (or the element
is absent), and otherwise holds the very same float.
"""
import dataclasses
import math
import random

import numpy as np
import pytest

from vadminer.analyses import ELEMENTS, score_corpus
from vadminer.corpus import ROLES, Comment, IssueReport, role_of
from vadminer.textscore import score_text

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
    assert table.issues == tuple(issues)
    assert table.elements.shape == (len(issues), len(ELEMENTS), 3)
    for row, issue in enumerate(issues):
        assert np.array_equal(table.elements[row], expected_elements(issue, lexicon), equal_nan=True)
        start, end = table.offsets[row], table.offsets[row + 1]
        assert end - start == len(issue.comments)
        comment_rows = [text_row(c.body, lexicon) for c in issue.comments]
        assert np.array_equal(table.comments[start:end].reshape(-1, 3),
                              np.array(comment_rows).reshape(-1, 3), equal_nan=True)
        assert [ROLES[code] for code in table.roles[start:end]] == [
            role_of(c, issue) for c in issue.comments]


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


def test_empty_corpus(table1_lexicon):
    table = score_corpus([], table1_lexicon)
    assert len(table) == 0
    assert table.elements.shape == (0, 5, 3) and table.comments.shape == (0, 3)
    assert list(table.offsets) == [0]


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
    assert table.select(rows) == score_corpus([issues[row] for row in picked], synth_lexicon)


def test_equality_sees_every_column(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    table = score_corpus(issues[:50], synth_lexicon)
    assert table == score_corpus(issues[:50], synth_lexicon)
    assert table != score_corpus(issues[1:51], synth_lexicon)
    changed = dataclasses.replace(table, comments=table.comments + 1.0)
    assert table != changed

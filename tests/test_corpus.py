import gc
import io
import json
from collections import Counter

import numpy as np
import pytest

from vadminer.analyses import ELEMENTS, score_corpus
from vadminer.corpus import (
    Comment,
    CorpusFormatError,
    ISSUE_TYPES,
    IssueReport,
    PRIORITIES,
    STATUSES,
    corpus_histograms,
    load_corpus,
    parse_issue,
    role_of,
    write_corpus,
)
from vadminer.textscore import tokenize


def make_issue(**overrides):
    base = dict(
        id="PRJ-1", project="PRJ", issue_type="Bug", priority="Blocker",
        created=100, resolved=500, status="Closed", reporter="rep",
        assignee="asg", votes=2, watchers=1, change_count=3, developer_count=2,
        title="joy at work", description="sadness in the stack trace",
        comments=(
            Comment(author="asg", created=150, body="anger rising"),
            Comment(author="rep", created=200, body="love it"),
        ),
        external_features={},
    )
    base.update(overrides)
    return IssueReport(**base)


def issue_json(**overrides):
    obj = {
        "id": "PRJ-1", "project": "PRJ", "type": "Bug", "priority": "Blocker",
        "created": 100, "resolved": 500, "status": "Closed", "reporter": "rep",
        "assignee": "asg", "votes": 2, "watchers": 1, "changes": 3, "developers": 2,
        "title": "t", "description": "d",
        "comments": [
            {"author": "asg", "created": 150, "body": "first"},
            {"author": "rep", "created": 200, "body": "second"},
        ],
        "external_features": {},
    }
    obj.update(overrides)
    return obj


def test_load_single_issue_round_trip():
    line = json.dumps(issue_json())
    issues = load_corpus(io.StringIO(line + "\n"))
    assert len(issues) == 1
    issue = issues[0]
    assert issue.issue_type == "Bug" and issue.priority == "Blocker"
    assert [c.created for c in issue.comments] == [150, 200]


def test_load_missing_priority_reports_line():
    obj = issue_json()
    del obj["priority"]
    stream = io.StringIO(json.dumps(issue_json()) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(stream)
    assert excinfo.value.errors == [(2, "missing field priority")]
    assert "missing field priority" in str(excinfo.value)
    assert "line 2" in str(excinfo.value)


def test_load_collects_multiple_errors():
    bad1 = issue_json(priority="Urgent")
    bad2 = "not json at all"
    stream = io.StringIO(json.dumps(bad1) + "\n" + bad2 + "\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(stream)
    assert [line for line, _ in excinfo.value.errors] == [1, 2]


def test_duplicate_issue_id_names_both_lines():
    first = json.dumps(issue_json())
    other = json.dumps(issue_json(id="PRJ-2"))
    stream = io.StringIO("\n".join([first, other, "", first, first]) + "\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(stream)
    assert excinfo.value.errors == [
        (4, "duplicate issue id 'PRJ-1', first on line 1"),
        (5, "duplicate issue id 'PRJ-1', first on line 1"),
    ]


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_non_finite_external_feature_rejected(raw):
    good = json.dumps(issue_json(external_features={"avg_sentiment": 0.5}))
    bad = json.dumps(issue_json(id="PRJ-2", external_features={"avg_sentiment": 0.5})).replace("0.5", raw)
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(io.StringIO(good + "\n" + bad + "\n"))
    [(line, message)] = excinfo.value.errors
    assert line == 2
    assert message.startswith("field external_features.avg_sentiment must be finite")


@pytest.mark.parametrize("name,value,message", [
    ("votes", 2**53 + 1, "field votes must be between 0 and 2**53"),
    ("developers", 10**400, "field developers must be between 0 and 2**53"),
    ("watchers", -1, "field watchers must be between 0 and 2**53"),
    ("created", -2**60, "field created must be an integer timestamp between -2**53 and 2**53"),
    ("resolved", 10**400, "field resolved must be null or an integer timestamp up to 2**53"),
])
def test_integer_beyond_float_columns_rejected(name, value, message):
    # the analyses read these fields as floats; 10**400 overflows one
    lines = [json.dumps(issue_json(votes=2**53)), json.dumps(issue_json(id="PRJ-2", **{name: value}))]
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(io.StringIO("\n".join(lines) + "\n"))
    assert info.value.errors == [(2, message)]


@pytest.mark.parametrize("key", ["n_comments", "title_v", "Critical", "votes", "closed",
                                 "reporter_prev_issues", "last_d"])
def test_reserved_external_feature_rejected(key):
    good = json.dumps(issue_json(external_features={"avg_sentiment": 0.5}))
    bad = json.dumps(issue_json(id="PRJ-2", external_features={"avg_sentiment": 0.5, key: 1}))
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(io.StringIO(good + "\n" + bad + "\n"))
    assert info.value.errors == [(2, f"field external_features.{key} takes the name of a built-in column")]


@pytest.mark.parametrize("project", [None, 7, {"a": 1}, "", ["PRJ"]])
def test_project_must_be_non_empty_string(project):
    # str(project) used to load null as "None" and write it back
    lines = [json.dumps(issue_json()), json.dumps(issue_json(id="PRJ-2", project=project))]
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(io.StringIO("\n".join(lines) + "\n"))
    assert info.value.errors == [(2, "field project must be a non-empty string")]


def test_repeated_names_share_one_object():
    lines = [
        json.dumps(issue_json(id=f"PRJ-{n}", project="PRJX", reporter="reporter-a", assignee="assignee-b",
                              comments=[{"author": "author-c", "created": 150, "body": "text"}],
                              external_features={"avg_sentiment": 0.5}))
        for n in range(2)
    ]
    first, second = load_corpus(io.StringIO("\n".join(lines) + "\n"))
    assert first.project == "PRJX" and first.project is second.project
    assert first.reporter == "reporter-a" and first.reporter is second.reporter
    assert first.assignee == "assignee-b" and first.assignee is second.assignee
    assert first.comments[0].author == "author-c" and first.comments[0].author is second.comments[0].author
    [(key_a, _)], [(key_b, _)] = first.external_features.items(), second.external_features.items()
    assert key_a == "avg_sentiment" and key_a is key_b


def test_type_priority_status_are_module_constants():
    for issue_type, priority, status in zip(ISSUE_TYPES, PRIORITIES * 2, STATUSES * 5):
        obj = issue_json(type=issue_type, priority=priority, status=status)
        if status == "Open":
            obj["resolved"] = None
        # a decoded copy, not the constant the test passed in
        issue = parse_issue(json.loads(json.dumps(obj)))
        assert issue.issue_type is issue_type
        assert issue.priority is priority
        assert issue.status is status


def test_collector_paused_during_load_and_restored():
    seen = []

    def lines():
        for n in range(3):
            seen.append(gc.isenabled())
            yield json.dumps(issue_json(id=f"PRJ-{n}")) + "\n"

    assert gc.isenabled()
    assert len(load_corpus(lines())) == 3
    assert seen == [False] * 3 and gc.isenabled()
    with pytest.raises(CorpusFormatError):
        load_corpus(io.StringIO("not json\n"))
    assert gc.isenabled()
    gc.disable()
    try:
        load_corpus(io.StringIO(json.dumps(issue_json()) + "\n"))
        with pytest.raises(CorpusFormatError):
            load_corpus(io.StringIO("not json\n"))
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("bad,message", [
    ({"created": 1, "body": "x"}, "missing field comments[1].author"),
    ({"author": "a", "body": "x"}, "missing field comments[1].created"),
    ({"author": "a", "created": 1}, "missing field comments[1].body"),
    ({"author": "a", "created": True, "body": "x"}, "field comments[1].created must be an integer timestamp"),
    ({"author": "a", "created": 1.5, "body": "x"}, "field comments[1].created must be an integer timestamp"),
    ({"author": "", "created": 1, "body": "x"}, "field comments[1].author must be a non-empty string"),
    ({"author": None, "created": 1, "body": "x"}, "field comments[1].author must be a non-empty string"),
    ({"author": "a", "created": 1, "body": 7}, "field comments[1].body must be a string"),
    ({"author": "a", "created": 1, "body": None}, "field comments[1].body must be a string"),
    ("just text", "comments[1] must be an object"),
    ([1, "a", "x"], "comments[1] must be an object"),
])
def test_malformed_comment_messages(bad, message):
    good = {"author": "a", "created": 1, "body": "fine"}
    line = json.dumps(issue_json(comments=[good, bad, good]))
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(io.StringIO(json.dumps(issue_json(id="PRJ-0")) + "\n" + line + "\n"))
    assert excinfo.value.errors == [(2, message)]


def test_non_utf8_lines_reported(tmp_path):
    good = json.dumps(issue_json()).encode()
    accented = json.dumps(issue_json(id="PRJ-2"), ensure_ascii=False).replace("first", "café").encode()
    bad_body = json.dumps(issue_json(id="PRJ-3")).replace("first", "caf\udce9").encode("utf-8", "surrogateescape")
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(b"\n".join([good, accented, b"\xff\xfe" + good, bad_body, b"\x80"]) + b"\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(path)
    assert excinfo.value.errors == [(3, "not valid UTF-8"), (4, "not valid UTF-8"), (5, "not valid UTF-8")]
    path.write_bytes(b"\n".join([good, accented]) + b"\n")
    assert load_corpus(path)[1].comments[0].body == "café"


@pytest.mark.parametrize("overrides", [
    {"id": "PRJ-\ud800"},
    {"reporter": "x\ud800y"},
    {"title": "x\udc00"},  # a low half alone
    {"description": "\ude00\ud83d"},  # the halves of a pair, in the wrong order
    {"comments": [{"author": "a\udbff", "created": 150, "body": "first"}]},
    {"comments": [{"author": "asg", "created": 150, "body": "\ud800\ud800 first"}]},
    {"external_features": {"k\ud800": 1.0}},
])
@pytest.mark.parametrize("upper", [False, True])
def test_unpaired_surrogate_escape_rejected(overrides, upper):
    line = json.dumps(issue_json(**overrides))  # writes a lone surrogate as an escape, e.g. \\ud800
    if upper:
        line = line.replace("\\ud", "\\uD")
    text = json.dumps(issue_json(id="PRJ-0")) + "\n" + line + "\n"
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(io.StringIO(text))
    assert excinfo.value.errors == [(2, "unpaired surrogate escape: not valid UTF-8")]


def test_escaped_surrogate_pair_and_escaped_backslash_load():
    paired = json.dumps(issue_json(title="smile \U0001F600"))
    assert "\\ud83d\\ude00" in paired
    literal = json.dumps(issue_json(id="PRJ-2", title="\\ud800"))  # a backslash, then "ud800"
    issues = load_corpus(io.StringIO(paired + "\n" + literal + "\n"))
    assert [issue.title for issue in issues] == ["smile \U0001F600", "\\ud800"]


def test_out_of_order_comments_sorted_not_rejected():
    obj = issue_json(comments=[
        {"author": "a", "created": 300, "body": "later"},
        {"author": "b", "created": 100, "body": "earlier"},
    ])
    issue = load_corpus(io.StringIO(json.dumps(obj)))[0]
    assert [c.created for c in issue.comments] == [100, 300]


def test_resolved_invariants_enforced():
    with pytest.raises(ValueError, match="precedes created"):
        parse_issue(issue_json(resolved=50))
    with pytest.raises(ValueError, match="status is not Closed"):
        parse_issue(issue_json(status="Open"))
    open_issue = parse_issue(issue_json(resolved=None, status="Open"))
    assert open_issue.resolution_time is None


def test_serialize_then_load_is_identity():
    issues = [
        make_issue(),
        make_issue(id="PRJ-2", resolved=None, status="Open", assignee=None,
                   comments=(), external_features={"avg_sentiment": 0.25}),
    ]
    buffer = io.StringIO()
    write_corpus(issues, buffer)
    reloaded = load_corpus(io.StringIO(buffer.getvalue()))
    assert reloaded == issues


def test_role_of_precedence():
    issue = make_issue(assignee="same", reporter="same")
    assert role_of(Comment(author="same", created=1, body=""), issue) == "Assignee"
    issue2 = make_issue(assignee="other")
    assert role_of(Comment(author="rep", created=1, body=""), issue2) == "Reporter"
    assert role_of(Comment(author="nobody", created=1, body=""), issue2) == "Other"
    no_assignee = make_issue(assignee=None, resolved=None, status="Open")
    assert role_of(Comment(author="rep", created=1, body=""), no_assignee) == "Reporter"


def score_elements(issue, lexicon):
    """Element name -> (valence, arousal, dominance) row of the issue's score table."""
    return dict(zip(ELEMENTS, score_corpus([issue], lexicon).elements[0]))


def test_score_elements_zero_comments(table1_lexicon):
    issue = make_issue(comments=(), resolved=None, status="Open")
    scores = score_elements(issue, table1_lexicon)
    assert np.isnan(scores["First"]).all()
    assert np.isnan(scores["Last"]).all()
    assert np.isnan(scores["All"]).all()
    # one matched word each: "joy" above every baseline, "sadness" below
    assert scores["Title"] == pytest.approx([8.21 - 5.2775, 5.55 - 4.9125, 7.00 - 5.475], abs=1e-12)
    assert scores["Desc"] == pytest.approx([5.2775 - 2.40, 4.9125 - 2.81, 5.475 - 3.84], abs=1e-12)


def test_score_elements_single_comment(table1_lexicon):
    issue = make_issue(comments=(Comment(author="x", created=1, body="joy"),))
    scores = score_elements(issue, table1_lexicon)
    assert np.array_equal(scores["First"], scores["Last"])
    assert np.array_equal(scores["First"], scores["All"])


def test_score_elements_two_comment_values(table1_lexicon):
    issue = make_issue(comments=(
        Comment(author="x", created=1, body="joy"),
        Comment(author="y", created=2, body="sadness"),
    ))
    scores = score_elements(issue, table1_lexicon)
    # hand-evaluated against the four-word baselines
    assert scores["All"][0] == pytest.approx(8.21 - 2.40, abs=1e-12)
    assert scores["First"][0] == pytest.approx(8.21 - 5.2775, abs=1e-12)
    assert scores["Last"][0] == pytest.approx(5.2775 - 2.40, abs=1e-12)


def test_all_comments_matched_union(table1_lexicon, planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    for issue in issues[:40]:
        if not issue.comments:
            continue
        combined = tokenize("\n".join(c.body for c in issue.comments), synth_lexicon)
        per_comment = Counter()
        for comment in issue.comments:
            per_comment.update(tokenize(comment.body, synth_lexicon).matched)
        assert Counter(combined.matched) == per_comment


def test_histograms_count_fields():
    issues = [make_issue(), make_issue(id="PRJ-2", priority="Minor", issue_type="Task")]
    histograms = corpus_histograms(issues)
    assert histograms["issues"] == 2
    assert histograms["priority"]["Blocker"] == 1
    assert histograms["priority"]["Minor"] == 1
    assert histograms["type"]["Task"] == 1
    assert histograms["comment_count"] == {"2": 2}


def test_type_group_mapping():
    assert make_issue(issue_type="Test").type_group == "All Tasks"
    assert make_issue(issue_type="Wish").type_group == "Future Dev"
    assert make_issue(issue_type="Bug").type_group == "Bug"
    assert make_issue(issue_type="Other").type_group is None

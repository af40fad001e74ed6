import dataclasses
import gc
import io
import json
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from vadminer.analyses import ELEMENTS, score_corpus
from vadminer.corpus import (
    Comment,
    CorpusFormatError,
    ISSUE_TYPES,
    IssueReport,
    PRIORITIES,
    ROLES,
    STATUSES,
    corpus_histograms,
    load_corpus,
    parse_issue,
    write_corpus,
)
from vadminer.synth import GeneratorConfig, generate_corpus, planted_config
from vadminer.textscore import tokenize

import oracles


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


def load_error(source: str | Path) -> CorpusFormatError:
    """The error of loading a path or the text of a file, once loading it with
    keep_text=False has failed with the same (line, message) list."""
    raised = []
    for keep_text in (True, False):
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(source if isinstance(source, Path) else io.StringIO(source), keep_text=keep_text)
        raised.append(info.value)
    assert raised[1].errors == raised[0].errors
    return raised[0]


def without_text(issue: IssueReport) -> IssueReport:
    """The record that loading with keep_text=False gives for a default load's."""
    comments = tuple(dataclasses.replace(comment, created=None, body=None) for comment in issue.comments)
    return dataclasses.replace(issue, title=None, description=None, comments=comments)


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
    error = load_error(json.dumps(issue_json()) + "\n" + json.dumps(obj) + "\n")
    assert error.errors == [(2, "missing field priority")]
    assert "missing field priority" in str(error)
    assert "line 2" in str(error)


def test_load_collects_multiple_errors():
    bad1 = issue_json(priority="Urgent")
    bad2 = "not json at all"
    errors = load_error(json.dumps(bad1) + "\n" + bad2 + "\n").errors
    assert [line for line, _ in errors] == [1, 2]


def test_duplicate_issue_id_names_both_lines():
    first = json.dumps(issue_json())
    other = json.dumps(issue_json(id="PRJ-2"))
    assert load_error("\n".join([first, other, "", first, first]) + "\n").errors == [
        (4, "duplicate issue id 'PRJ-1', first on line 1"),
        (5, "duplicate issue id 'PRJ-1', first on line 1"),
    ]


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_non_finite_external_feature_rejected(raw):
    good = json.dumps(issue_json(external_features={"avg_sentiment": 0.5}))
    bad = json.dumps(issue_json(id="PRJ-2", external_features={"avg_sentiment": 0.5})).replace("0.5", raw)
    [(line, message)] = load_error(good + "\n" + bad + "\n").errors
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
    assert load_error("\n".join(lines) + "\n").errors == [(2, message)]


@pytest.mark.parametrize("key", ["n_comments", "title_v", "Critical", "votes", "closed",
                                 "reporter_prev_issues", "last_d", "intercept"])
def test_reserved_external_feature_rejected(key):
    good = json.dumps(issue_json(external_features={"avg_sentiment": 0.5}))
    bad = json.dumps(issue_json(id="PRJ-2", external_features={"avg_sentiment": 0.5, key: 1}))
    assert load_error(good + "\n" + bad + "\n").errors == [(2, f"field external_features.{key} takes the name of a built-in column")]


@pytest.mark.parametrize("line,message", [
    ("[1, 2]", "line is not a JSON object"),
    ({"id": ""}, "field id must be a non-empty string"),
    ({"reporter": 7}, "field reporter must be a non-empty string"),
    ({"assignee": ""}, "field assignee must be null or a non-empty string"),
    ({"description": None}, "fields title and description must be strings"),
    ({"comments": {}}, "field comments must be a list"),
    ({"external_features": [1]}, "field external_features must be an object"),
    ({"external_features": "x"}, "field external_features must be an object"),
    ({"external_features": {"k": "1"}}, "field external_features.k must be numeric"),
    ({"votes": "3"}, "field votes must be an integer, got '3'"),
    ({"watchers": "3"}, "field watchers must be an integer, got '3'"),
    ({"changes": "3"}, "field changes must be an integer, got '3'"),
    ({"developers": "3"}, "field developers must be an integer, got '3'"),
    # falsy, yet not an object: only a missing key or null means no features
    ({"external_features": []}, "field external_features must be an object"),
    ({"external_features": 0}, "field external_features must be an object"),
    ({"external_features": False}, "field external_features must be an object"),
    ({"external_features": ""}, "field external_features must be an object"),
    # json.loads raises a RecursionError past about 995 levels of nesting
    pytest.param("[" * 100_000, "invalid JSON: nested too deeply", id="array nested too deeply"),
    pytest.param('{"a":' * 100_000, "invalid JSON: nested too deeply", id="object nested too deeply"),
], ids=lambda value: json.dumps(value) if isinstance(value, dict) else None)
def test_loader_messages(line, message):
    if isinstance(line, dict):
        line = json.dumps(issue_json(**{"id": "PRJ-2", **line}))
    assert load_error(json.dumps(issue_json()) + "\n" + line + "\n").errors == [(2, message)]


def test_null_or_missing_external_features_load():
    missing = issue_json(id="PRJ-2")
    del missing["external_features"]
    lines = [json.dumps(issue_json(external_features=None)), json.dumps(missing)]
    issues = load_corpus(io.StringIO("\n".join(lines) + "\n"))
    assert [issue.external_features for issue in issues] == [{}, {}]


@pytest.mark.parametrize("project", [None, 7, {"a": 1}, "", ["PRJ"]])
def test_project_must_be_non_empty_string(project):
    # str(project) used to load null as "None" and write it back
    lines = [json.dumps(issue_json()), json.dumps(issue_json(id="PRJ-2", project=project))]
    assert load_error("\n".join(lines) + "\n").errors == [(2, "field project must be a non-empty string")]


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
    assert load_error(json.dumps(issue_json(id="PRJ-0")) + "\n" + line + "\n").errors == [(2, message)]


def test_non_utf8_lines_reported(tmp_path):
    good = json.dumps(issue_json()).encode()
    accented = json.dumps(issue_json(id="PRJ-2"), ensure_ascii=False).replace("first", "café").encode()
    bad_body = json.dumps(issue_json(id="PRJ-3")).replace("first", "caf\udce9").encode("utf-8", "surrogateescape")
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(b"\n".join([good, accented, b"\xff\xfe" + good, bad_body, b"\x80"]) + b"\n")
    assert load_error(path).errors == [(3, "not valid UTF-8"), (4, "not valid UTF-8"), (5, "not valid UTF-8")]
    path.write_bytes(b"\n".join([good, accented]) + b"\n")
    assert load_corpus(path)[1].comments[0].body == "café"


def test_byte_order_mark_at_file_start_skipped(tmp_path):
    lines = [json.dumps(issue_json()).encode(), json.dumps(issue_json(id="PRJ-2")).encode()]
    path = tmp_path / "marked.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + b"\n".join(lines) + b"\n")
    assert load_corpus(path) == load_corpus(io.StringIO(b"\n".join(lines).decode()))
    # a mark anywhere but the start of the file is not JSON
    path.write_bytes(b"\xef\xbb\xbf" + lines[0] + b"\n\xef\xbb\xbf" + lines[1] + b"\n")
    assert load_error(path).errors == [(2, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")]


def test_integer_past_the_digit_limit_is_invalid_json():
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an int
    # literal of more digits than int() converts
    huge = json.dumps(issue_json(id="PRJ-2")).replace('"votes": 2', '"votes": ' + "1" * 5000)
    lines = [json.dumps(issue_json()), huge, '{"id": "PRJ-3",']
    (line, message), unterminated = load_error("\n".join(lines) + "\n").errors
    assert line == 2 and message.startswith("invalid JSON: Exceeds the limit (4300 digits) for integer string")
    assert unterminated == (3, "invalid JSON: Expecting property name enclosed in double quotes")


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
    assert load_error(text).errors == [(2, "unpaired surrogate escape: not valid UTF-8")]


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


ODD_VALUES = (None, True, False, 0, -1, 1.5, 2**53, 2**53 + 1, -2**53, -2**53 - 1, "", "x", [], {})
SECOND_COMMENT = {"author": "rep", "created": 200, "body": "second"}


def _without(obj, name):
    return {key: value for key, value in obj.items() if key != name}


def _with_second_comment(comment):
    # the varied comment is the second, so its index shows in the message
    return issue_json(comments=[{"author": "asg", "created": 150, "body": "first"}, comment])


def _validator_cases():
    base = issue_json(external_features={"avg_sentiment": 0.5})
    for name in base:
        yield pytest.param(_without(base, name), id=f"missing {name}")
        for value in ODD_VALUES:
            yield pytest.param({**base, name: value}, id=f"{name}={value!r}")
    yield pytest.param(issue_json(resolved=50), id="resolved before created")
    yield pytest.param(issue_json(status="Open"), id="resolved while Open")
    for name in SECOND_COMMENT:
        yield pytest.param(_with_second_comment(_without(SECOND_COMMENT, name)), id=f"comment missing {name}")
        for value in ODD_VALUES:
            yield pytest.param(_with_second_comment({**SECOND_COMMENT, name: value}), id=f"comment {name}={value!r}")
    for value in ("x", 1, None, True, [], [1, "a", "x"]):
        yield pytest.param(_with_second_comment(value), id=f"comment {value!r}")
    for value in (True, "1", float("nan"), float("inf"), -float("inf"), 10**400, 3, -2**70, 0.25):
        yield pytest.param(issue_json(external_features={"k": value}), id=f"feature {value!r}")
    yield pytest.param(issue_json(external_features={"k": 1.0, "title_v": 1.0}), id="reserved feature")


def _outcome(validate, obj):
    try:
        return validate(obj)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("obj", _validator_cases())
def test_validator_matches_reference(obj):
    decoded = json.loads(json.dumps(obj))  # the exact types that json gives
    expected = _outcome(oracles.parse_issue_oracle, decoded)
    assert _outcome(parse_issue, decoded) == expected
    # the same checks, and then the same record with no text
    textless = expected if isinstance(expected, str) else without_text(expected)
    assert _outcome(partial(parse_issue, keep_text=False), decoded) == textless


def test_planted_corpus_loads_as_the_reference_does(planted_corpus):
    buffer = io.StringIO()
    write_corpus(planted_corpus[0], buffer)
    lines = buffer.getvalue().splitlines()
    assert load_corpus(io.StringIO(buffer.getvalue())) == [oracles.parse_issue_oracle(json.loads(line))
                                                           for line in lines]


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


@pytest.mark.parametrize("config", [
    GeneratorConfig(n_issues=300),
    planted_config(300),
    GeneratorConfig(n_issues=300, n_projects=30, external_features=True),
], ids=["default", "planted", "features"])
def test_loading_without_text_keeps_every_other_field(tmp_path, config):
    issues, _ = generate_corpus(config, seed=4)
    path = tmp_path / "corpus.jsonl"
    write_corpus(issues, path)
    full = load_corpus(path)
    assert load_corpus(path, keep_text=False) == [without_text(issue) for issue in full]


def test_loading_without_text_reads_a_marked_file_of_non_ascii_text(tmp_path):
    accented = issue_json(title="Überfluss ☃", description="naïve café", reporter="Zoë", assignee="Łukasz",
                          comments=[{"author": "Łukasz", "created": 150, "body": "smile 😀"}],
                          external_features={"größe": 1.5})
    escaped = issue_json(id="PRJ-2", title="日本語", comments=[{"author": "Zoë", "created": 9, "body": "é"}])
    path = tmp_path / "marked.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + "\n".join([json.dumps(accented, ensure_ascii=False),
                                                   json.dumps(escaped)]).encode() + b"\n")
    full = load_corpus(path)
    assert [issue.title for issue in full] == ["Überfluss ☃", "日本語"]
    assert load_corpus(path, keep_text=False) == [without_text(issue) for issue in full]


@pytest.mark.parametrize("keep_text", [True, False])
def test_the_hook_sees_each_accepted_issue_with_its_texts(keep_text):
    late = issue_json(id="PRJ-3", comments=[{"author": "rep", "created": 300, "body": "later"},
                                            {"author": "asg", "created": 120, "body": "earlier"}])
    lines = [issue_json(), issue_json(id="PRJ-2", priority="Urgent"), late, issue_json(title="again"),
             issue_json(id="PRJ-4", title="Überfluss ☃", comments=[])]
    text, accepted = ("\n".join(map(json.dumps, chosen)) + "\n" for chosen in (lines, lines[0:3:2] + lines[4:]))
    full = load_corpus(io.StringIO(accepted))
    assert [c.body for c in full[1].comments] == ["earlier", "later"]
    seen = []

    def hook(issue):
        seen.append(dataclasses.replace(issue, comments=tuple(map(dataclasses.replace, issue.comments))))

    # the load fails on the bad line and the repeated id, as without a hook;
    # once a line has failed, no issue is handed over
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(io.StringIO(text), keep_text=keep_text, on_issue=hook)
    assert info.value.errors == load_error(text).errors
    assert seen == full[:1]
    seen.clear()
    loaded = load_corpus(io.StringIO(accepted), keep_text=keep_text, on_issue=hook)
    assert seen == full
    assert loaded == (full if keep_text else [without_text(issue) for issue in full])


@pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
def test_a_textless_load_holds_one_comment_per_author(tmp_path, hooked):
    issues, _ = generate_corpus(GeneratorConfig(n_issues=300), seed=4)
    path = tmp_path / "corpus.jsonl"
    write_corpus(issues, path)
    full = load_corpus(path)
    options = {"keep_text": False, "on_issue": (lambda issue: None) if hooked else None}
    first, second = load_corpus(path, **options), load_corpus(path, **options)
    held = {id(comment): comment for issue in first for comment in issue.comments}
    assert sorted(comment.author for comment in held.values()) == sorted(
        {comment.author for issue in full for comment in issue.comments})
    assert not held.keys() & {id(comment) for issue in second for comment in issue.comments}
    # parse_issue on its own shares within its one issue
    line = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    line["comments"] += line["comments"]
    comments = parse_issue(line, keep_text=False).comments
    assert len({id(comment) for comment in comments}) == len({comment.author for comment in comments})
    assert len(comments) == 2 * len(full[0].comments)


def test_a_textless_comment_costs_its_record_one_tuple_slot(tmp_path):
    issues, _ = generate_corpus(GeneratorConfig(n_issues=2_000), seed=2)
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    write_corpus(issues, once)
    # the same issues with each issue's comments repeated, by the same authors
    doubled = []
    for line in once.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        obj["comments"] += obj["comments"]
        doubled.append(json.dumps(obj))
    twice.write_text("\n".join(doubled) + "\n", encoding="utf-8")
    added = sum(len(issue.comments) for issue in load_corpus(once, keep_text=False))
    assert added > 5_000
    grown = _load_peak(twice, keep_text=False) - _load_peak(once, keep_text=False)
    assert grown < 24 * added


def test_write_corpus_rejects_a_textless_record(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus([make_issue(), make_issue(id="PRJ-2", comments=())], path)
    for record in load_corpus(path, keep_text=False):
        with pytest.raises(ValueError, match=f"issue {record.id!r} holds no text"):
            write_corpus([record], io.StringIO())
    # a full load writes back the bytes it read
    buffer = io.StringIO()
    write_corpus(load_corpus(path), buffer)
    assert buffer.getvalue() == path.read_text(encoding="utf-8")


def _load_peak(path, **options) -> int:
    gc.collect()  # empties the free lists, whose objects tracemalloc would not count
    tracemalloc.start()
    try:
        load_corpus(path, **options)  # the peak is reached with every record alive
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_without_text_takes_memory_that_does_not_grow_with_the_text(tmp_path):
    issues, _ = generate_corpus(GeneratorConfig(n_issues=2_000), seed=2)
    short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
    write_corpus(issues, short)
    # the same issues with every title, description and comment body ten times as long
    longer = []
    for line in short.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        obj["title"], obj["description"] = " ".join([obj["title"]] * 10), " ".join([obj["description"]] * 10)
        for comment in obj["comments"]:
            comment["body"] = " ".join([comment["body"]] * 10)
        longer.append(json.dumps(obj))
    long.write_text("\n".join(longer) + "\n", encoding="utf-8")
    assert long.stat().st_size > 5 * short.stat().st_size
    textless_short, textless_long = _load_peak(short, keep_text=False), _load_peak(long, keep_text=False)
    assert textless_long < 1.05 * textless_short
    assert _load_peak(long) > 3 * _load_peak(short)


def test_role_precedence(table1_lexicon):
    def roles(**overrides):
        authors = ("same", "rep", "nobody")
        comments = tuple(Comment(author=name, created=k, body="") for k, name in enumerate(authors))
        table = score_corpus([make_issue(comments=comments, **overrides)], table1_lexicon)
        return [ROLES[code] for code in table.roles]

    assert roles(assignee="same", reporter="same") == ["Assignee", "Other", "Other"]
    assert roles(assignee="other") == ["Other", "Reporter", "Other"]
    assert roles(assignee=None, resolved=None, status="Open") == ["Other", "Reporter", "Other"]


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

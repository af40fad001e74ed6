"""Issue-tracker data model and validated JSONL ingestion.

Loading checks every line: bytes that are not UTF-8, a JSON string escape
that leaves an unpaired surrogate (no UTF-8 text can hold one), invalid JSON
and every schema violation are collected with their line numbers. An
external feature may not take the name of a column that the analyses build,
nor ``intercept``, which names rq3's model constant (RESERVED_FEATURES).

``parse_issue`` validates an issue in one pass of exact-type checks
(``type(v) is int`` and the like; JSON decodes to the exact built-in types,
and an exact ``int`` excludes ``bool``). It fetches the required fields with
one ``itemgetter`` and names the first missing one only when that fails.
Comments, the bulk of a corpus, take the same exact-type check; only a
comment that fails it has its fault worked out, to name it. ``ATTRIBUTES``
is the one home of how each attribute column of the analyses' score table is
read off a record.

The records are plain slotted dataclasses, not frozen ones: a frozen
dataclass's ``__init__`` sets each field through ``object.__setattr__``, which
makes building a record three to seven times slower, and a corpus holds
hundreds of thousands of them. Nothing hashes a record, only the loader
assigns to one (to drop its texts, below), and ``dataclasses.replace`` works
on both kinds.

Loaded records share their repeated values. ``type``, ``priority`` and
``status`` are the module's own constants (ISSUE_TYPES, PRIORITIES,
STATUSES), and each project, reporter, assignee, comment author and
external-feature key goes through ``sys.intern``, so a name that recurs on
many lines is one string object rather than a copy per line; ids and texts
are kept as decoded. The records hold no reference cycles: a collection frees
none of them, yet walks them all, so the CLI runs with the collector off.

The texts are most of a loaded corpus's memory. A caller that reads no text
(``ingest`` counts issues) loads with ``keep_text=False``: every line is
checked as before, and the records hold ``None`` for the title and the
description. Their comments keep only their number: each is ``TEXTLESS``,
the one module-level ``Comment(None, None, None)``, so a comment costs its
record one tuple slot. A caller that reads each text once passes
``on_issue`` as well: the loader hands it every accepted issue with its
texts and full comments, then gives the record the title, description and
comments of a textless load. A hook that keeps ``issue.comments`` keeps
those full comments. ``analyze`` scores the texts and codes the names there
(``textscore.TextScan``), so its records hold no text and no comment author.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from sys import intern
from typing import IO, Callable, Iterable

# what a byte that is not UTF-8 decodes to under errors="surrogateescape"
UNDECODED = re.compile("[\udc80-\udcff]")

ISSUE_TYPES = (
    "Bug", "Task", "SubTask", "Test", "Wish", "NewFeature",
    "Improvement", "FeatureRequest", "Enhancement", "Other",
)
PRIORITIES = ("Blocker", "Critical", "Major", "Minor", "Trivial")
PRIORITY_LEVEL = {"Trivial": 1, "Minor": 2, "Major": 3, "Critical": 4, "Blocker": 5}
STATUSES = ("Open", "Closed")
ROLES = ("Assignee", "Reporter", "Other")

# Issue-type regrouping used by the type/valence comparison and sign tables.
TYPE_GROUPS = {
    "Bug": "Bug",
    "Task": "All Tasks",
    "SubTask": "All Tasks",
    "Test": "All Tasks",
    "Wish": "Future Dev",
    "NewFeature": "Future Dev",
    "Improvement": "Future Dev",
    "FeatureRequest": "Future Dev",
    "Enhancement": "Future Dev",
}
TYPE_GROUP_ORDER = ("Future Dev", "All Tasks", "Bug")

# How each issue attribute the analyses read is read off an issue, into one
# float column of the score table named as the model designs name it.
# ``priority`` and ``type_group`` are codes into PRIORITIES and
# TYPE_GROUP_ORDER (NaN for type Other); ``resolution_time`` is NaN while unresolved.
ATTRIBUTES = {
    "n_comments": lambda issue: len(issue.comments),
    "n_watchers": attrgetter("watchers"),
    "n_developers": attrgetter("developer_count"),
    "n_changes": attrgetter("change_count"),
    "votes": attrgetter("votes"),
    "priority_level": lambda issue: PRIORITY_LEVEL[issue.priority],
    "resolution_time": lambda issue: math.nan if issue.resolved is None else issue.resolved - issue.created,
    "closed": lambda issue: issue.status == "Closed",
    "priority": lambda issue: PRIORITIES.index(issue.priority),
    "type_group": lambda issue: TYPE_GROUP_ORDER.index(issue.type_group) if issue.type_group else math.nan,
}
ATTRIBUTE_COLUMNS = tuple(ATTRIBUTES)
# prior activity of an issue's assignee and reporter (analyses.score_corpus)
HISTORY_COLUMNS = (
    "assignee_prev_comments", "reporter_prev_comments", "assignee_prev_issues", "reporter_prev_issues",
)
# rq3's design: issue controls, with priority indicators against Blocker,
# and the text score of every element (title, description, all, first and
# last comment) on valence, arousal and dominance
CONTROL_COLUMNS = (
    "n_comments", "assignee_prev_comments", "reporter_prev_comments",
    "n_developers", "n_watchers", "n_changes", *PRIORITIES[1:],
)
VAD_ELEMENT_KEYS = ("title", "desc", "all", "first", "last")
VAD_COLUMNS = tuple(f"{element}_{dim}" for element in VAD_ELEMENT_KEYS for dim in "vad")
# External features share the score table and rq3's design with these
# columns, and rq3's coefficient table with its constant, so none may take
# one of their names.
RESERVED_FEATURES = tuple(dict.fromkeys(ATTRIBUTE_COLUMNS + HISTORY_COLUMNS + CONTROL_COLUMNS + VAD_COLUMNS
                                        + ("intercept",)))
_RESERVED = frozenset(RESERVED_FEATURES)  # checked for every feature of every issue


class CorpusFormatError(ValueError):
    """Raised when issue JSONL lines violate the schema.

    ``errors`` lists (line_number, message) pairs for every offending line.
    """

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        preview = "; ".join(f"line {line}: {msg}" for line, msg in errors[:10])
        more = f" (+{len(errors) - 10} more)" if len(errors) > 10 else ""
        super().__init__(f"{len(errors)} invalid corpus line(s): {preview}{more}")


@dataclass(slots=True)
class Comment:
    # all three None only in TEXTLESS
    author: str | None
    created: int | None
    body: str | None


# every comment of a record loaded with keep_text=False
TEXTLESS = Comment(None, None, None)


@dataclass(slots=True)
class IssueReport:
    id: str
    project: str
    issue_type: str
    priority: str
    created: int
    resolved: int | None
    status: str
    reporter: str
    assignee: str | None
    votes: int
    watchers: int
    change_count: int
    developer_count: int
    title: str | None  # the texts are None when loaded with keep_text=False
    description: str | None
    comments: tuple[Comment, ...]
    external_features: dict[str, float] = field(default_factory=dict)

    @property
    def resolution_time(self) -> int | None:
        """Seconds from creation to resolution; None while unresolved."""
        if self.resolved is None:
            return None
        return self.resolved - self.created

    @property
    def type_group(self) -> str | None:
        """Bug / All Tasks / Future Dev grouping; None for type Other."""
        return TYPE_GROUPS.get(self.issue_type)


# ---------------------------------------------------------------------------
# JSONL ingestion / serialization
# ---------------------------------------------------------------------------

# each checks a value and maps it to the module's constant of the same name
_ISSUE_TYPE = {name: name for name in ISSUE_TYPES}
_PRIORITY = {name: name for name in PRIORITIES}
_STATUS = {name: name for name in STATUSES}

_REQUIRED_FIELDS = (
    "id", "project", "type", "priority", "created", "status", "reporter",
    "votes", "watchers", "changes", "developers", "title", "description", "comments",
)
_REQUIRED = itemgetter(*_REQUIRED_FIELDS)
_COUNT_FIELDS = ("votes", "watchers", "changes", "developers")

_CREATED = attrgetter("created")

# the analyses hold the integer fields in float columns, exact up to 2**53
_MAX_INT = 2**53

# a raw line needs its decoded strings checked only when it holds an escape
# in \uD800-\uDFFF; json keeps one that is not half of a valid pair as a lone
# surrogate, which the report writer cannot encode
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _comment_fault(obj, index: int) -> ValueError:
    """The error for a comment that failed parse_issue's check, naming its fault."""
    if type(obj) is not dict:
        return ValueError(f"comments[{index}] must be an object")
    for name in ("author", "created", "body"):
        if name not in obj:
            return ValueError(f"missing field comments[{index}].{name}")
    author, created = obj["author"], obj["created"]
    if type(author) is not str or not author:
        return ValueError(f"field comments[{index}].author must be a non-empty string")
    if type(created) is not int:
        return ValueError(f"field comments[{index}].created must be an integer timestamp")
    return ValueError(f"field comments[{index}].body must be a string")  # all that is left


def parse_issue(obj: dict, *, keep_text: bool = True) -> IssueReport:
    """Validate one decoded JSON object against the issue schema.

    With ``keep_text=False`` every check runs as it does by default, and then
    the texts and comments are left out: the record holds ``None`` for the
    title and the description, and ``TEXTLESS`` for each comment.
    """
    try:
        (issue_id, project, issue_type, priority, created, status, reporter,
         votes, watchers, changes, developers, title, description, raw_comments) = _REQUIRED(obj)
    except KeyError:
        missing = next(name for name in _REQUIRED_FIELDS if name not in obj)
        raise ValueError(f"missing field {missing}") from None

    # only a string can be a member; another value may not even be hashable
    kind = _ISSUE_TYPE.get(issue_type) if type(issue_type) is str else None
    if kind is None:
        raise ValueError(f"field type must be one of {ISSUE_TYPES}, got {issue_type!r}")
    level = _PRIORITY.get(priority) if type(priority) is str else None
    if level is None:
        raise ValueError(f"field priority must be one of {PRIORITIES}, got {priority!r}")
    state = _STATUS.get(status) if type(status) is str else None
    if state is None:
        raise ValueError(f"field status must be one of {STATUSES}, got {status!r}")

    if type(issue_id) is not str or not issue_id:
        raise ValueError("field id must be a non-empty string")
    if type(project) is not str or not project:
        raise ValueError("field project must be a non-empty string")
    if type(reporter) is not str or not reporter:
        raise ValueError("field reporter must be a non-empty string")
    assignee = obj.get("assignee")
    if assignee is not None:
        if type(assignee) is not str or not assignee:
            raise ValueError("field assignee must be null or a non-empty string")
        assignee = intern(assignee)

    if type(created) is not int or not -_MAX_INT <= created <= _MAX_INT:
        raise ValueError("field created must be an integer timestamp between -2**53 and 2**53")
    resolved = obj.get("resolved")
    if resolved is not None:
        if type(resolved) is not int or resolved > _MAX_INT:
            raise ValueError("field resolved must be null or an integer timestamp up to 2**53")
        if resolved < created:
            raise ValueError(f"field resolved ({resolved}) precedes created ({created})")
        if state != "Closed":
            raise ValueError("field resolved present but status is not Closed")

    if type(title) is not str or type(description) is not str:
        raise ValueError("fields title and description must be strings")

    if type(raw_comments) is not list:
        raise ValueError("field comments must be a list")
    comments = []
    for index, raw in enumerate(raw_comments):
        if type(raw) is dict:
            author, posted, body = raw.get("author"), raw.get("created"), raw.get("body")
            if type(author) is str and author and type(posted) is int and type(body) is str:
                if keep_text:
                    comments.append(Comment(intern(author), posted, body))
                continue
        raise _comment_fault(raw, index)
    if keep_text:  # out-of-order comments are sorted, not rejected, in a stable sort by time
        comments.sort(key=_CREATED)
    else:
        comments = (TEXTLESS,) * len(raw_comments)

    features = obj.get("external_features")  # missing or null: no features
    if features is not None and type(features) is not dict:
        raise ValueError("field external_features must be an object")
    parsed_features: dict[str, float] = {}
    for key, value in (features or {}).items():
        if key in _RESERVED:
            raise ValueError(f"field external_features.{key} takes the name of a built-in column")
        if type(value) is float:
            number = value
        elif type(value) is int:
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
        else:
            raise ValueError(f"field external_features.{key} must be numeric")
        if not math.isfinite(number):
            raise ValueError(f"field external_features.{key} must be finite, got {value!r}")
        parsed_features[intern(str(key))] = number

    for name, count in zip(_COUNT_FIELDS, (votes, watchers, changes, developers)):
        if type(count) is not int:
            raise ValueError(f"field {name} must be an integer, got {count!r}")
        if not 0 <= count <= _MAX_INT:
            raise ValueError(f"field {name} must be between 0 and 2**53")

    if not keep_text:
        title = description = None
    return IssueReport(
        issue_id, intern(project), kind, level, created, resolved, state, intern(reporter), assignee,
        votes, watchers, changes, developers, title, description, tuple(comments), parsed_features,
    )


def _drop_text(issue: IssueReport) -> None:
    """Leave the issue as ``parse_issue`` with ``keep_text=False`` would have made it."""
    issue.title = issue.description = None
    issue.comments = (TEXTLESS,) * len(issue.comments)


def load_corpus(source: str | Path | IO[str], *, keep_text: bool = True,
                on_issue: Callable[[IssueReport], object] | None = None) -> list[IssueReport]:
    """Load issues from JSONL, one object per line.

    All offending lines are collected and raised together as a
    CorpusFormatError so callers can report the first few: bytes that are
    not UTF-8, an escaped unpaired surrogate, invalid JSON, schema
    violations, and an issue id seen before, which is an error on the line
    that repeats it. A file may start with a UTF-8 byte-order mark. The
    cyclic collector is left as the caller set it (the CLI turns it off).

    ``keep_text=False`` runs the same checks, with the same messages on the
    same lines, and keeps no title, description or comment (see
    ``parse_issue``): every comment is ``TEXTLESS``, so memory grows with the
    issues and by one tuple slot per comment, not with the text.
    Such records are scored only through a scan that the loader fed
    (``on_issue``), and ``write_corpus`` refuses them.

    ``on_issue``, if given, is called with each issue as it is accepted, its
    texts included and its full comments in time order. With
    ``keep_text=False`` the record then gets a textless load's title,
    description and comments tuple; the comments the hook saw are not
    changed, so a hook that keeps ``issue.comments`` keeps them whole. An
    issue that fails a check, or repeats an id, is never handed over, and
    neither is any issue after it: the file raises once it has been read, so
    the caller discards what the hook received, and the rest of the file is
    only checked, with no record kept.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
            return load_corpus(handle, keep_text=keep_text, on_issue=on_issue)

    issues: list[IssueReport] = []
    errors: list[tuple[int, str]] = []
    first_line: dict[str, int] = {}  # issue id -> line it first appeared on
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.isascii() and UNDECODED.search(stripped):
            errors.append((line_no, "not valid UTF-8"))
            continue
        try:
            obj = json.loads(stripped)
        except ValueError as exc:  # a JSONDecodeError, or an int literal past the digit limit
            errors.append((line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        except RecursionError:  # arrays or objects nested past the decoder's depth
            errors.append((line_no, "invalid JSON: nested too deeply"))
            continue
        if not isinstance(obj, dict):
            errors.append((line_no, "line is not a JSON object"))
            continue
        if _SURROGATE_ESCAPE.search(stripped) and _SURROGATE.search(json.dumps(obj, ensure_ascii=False)):
            errors.append((line_no, "unpaired surrogate escape: not valid UTF-8"))
            continue
        # after an error the load raises: keep no more records and hand over none
        try:
            issue = parse_issue(obj, keep_text=(keep_text or on_issue is not None) and not errors)
        except ValueError as exc:
            errors.append((line_no, str(exc)))
            continue
        first = first_line.setdefault(issue.id, line_no)
        if first != line_no:
            errors.append((line_no, f"duplicate issue id {issue.id!r}, first on line {first}"))
            continue
        if errors:
            continue
        if on_issue is not None:
            on_issue(issue)
            if not keep_text:
                _drop_text(issue)
        issues.append(issue)
    if errors:
        raise CorpusFormatError(errors)
    return issues


def issue_to_dict(issue: IssueReport) -> dict:
    """The JSON object that ``write_corpus`` writes for a record.

    A record loaded with ``keep_text=False`` has no text or comment times to
    write, and raises ValueError: its line would fail to load.
    """
    if issue.title is None or issue.description is None or any(c.body is None for c in issue.comments):
        raise ValueError(f"issue {issue.id!r} holds no text (loaded with keep_text=False) and cannot be written")
    return {
        "id": issue.id,
        "project": issue.project,
        "type": issue.issue_type,
        "priority": issue.priority,
        "created": issue.created,
        "resolved": issue.resolved,
        "status": issue.status,
        "reporter": issue.reporter,
        "assignee": issue.assignee,
        "votes": issue.votes,
        "watchers": issue.watchers,
        "changes": issue.change_count,
        "developers": issue.developer_count,
        "title": issue.title,
        "description": issue.description,
        "comments": [
            {"author": c.author, "created": c.created, "body": c.body}
            for c in issue.comments
        ],
        "external_features": dict(sorted(issue.external_features.items())),
    }


def write_corpus(issues: Iterable[IssueReport], target: str | Path | IO[str]) -> None:
    """Serialize issues to JSONL with stable key order (byte-reproducible)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            write_corpus(issues, handle)
            return
    for issue in issues:
        target.write(json.dumps(issue_to_dict(issue), sort_keys=True, separators=(",", ":")))
        target.write("\n")


def corpus_histograms(issues: Iterable[IssueReport] = ()) -> dict:
    """Field histograms used to cross-check a corpus against its manifest.

    Counts any iterable once, through ``count_issues``; with no argument it
    gives the empty histograms that a stream of issues is counted into.
    """
    histograms = {
        "issues": 0,
        "priority": dict.fromkeys(PRIORITIES, 0),
        "type": dict.fromkeys(ISSUE_TYPES, 0),
        "status": dict.fromkeys(STATUSES, 0),
        "comment_count": {},
    }
    count_issues(histograms, issues)
    return histograms


def count_issues(histograms: dict, issues: Iterable[IssueReport]) -> None:
    """Add issues to histograms made by ``corpus_histograms``: the one
    counting rule of synth's manifest and of ``ingest``."""
    priorities, types, statuses = histograms["priority"], histograms["type"], histograms["status"]
    counts = histograms["comment_count"]
    known = len(counts)
    n = 0
    for n, issue in enumerate(issues, start=1):
        priorities[issue.priority] += 1
        types[issue.issue_type] += 1
        statuses[issue.status] += 1
        key = str(len(issue.comments))
        counts[key] = counts.get(key, 0) + 1
    histograms["issues"] += n
    if len(counts) > known:  # a comment count not seen before: keep the keys in numeric order
        histograms["comment_count"] = dict(sorted(counts.items(), key=lambda kv: int(kv[0])))

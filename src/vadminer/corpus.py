"""Issue-tracker data model, validated JSONL ingestion, and commenter roles.

Loading checks every line: bytes that are not UTF-8, a JSON string escape
that leaves an unpaired surrogate (no UTF-8 text can hold one), invalid JSON
and every schema violation are collected with their line numbers. Comments,
the bulk of a corpus, first take a fast check of exact types; one that fails
it goes through the full validation, which names the fault. An external
feature may not take the name of a column that the analyses build
(RESERVED_FEATURES).

Loaded records share their repeated values. ``type``, ``priority`` and
``status`` are the module's own constants (ISSUE_TYPES, PRIORITIES,
STATUSES), and each project, reporter, assignee, comment author and
external-feature key goes through ``sys.intern``, so a name that recurs on
many lines is one string object rather than a copy per line; ids and texts
are kept as decoded. The cyclic garbage collector is paused while the
records are built: they hold no reference cycles, so a collection frees
nothing, yet each full one would walk every record built so far.
"""
from __future__ import annotations

import gc
import json
import math
import re
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Sequence

from .lexicon import UNDECODED

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

# Issue attributes the analyses read, one float column each in the score
# table, named as the model designs name them. ``priority`` and
# ``type_group`` are codes into PRIORITIES and TYPE_GROUP_ORDER (NaN for
# type Other); ``resolution_time`` is NaN while unresolved.
ATTRIBUTE_COLUMNS = (
    "n_comments", "n_watchers", "n_developers", "n_changes", "votes", "priority_level",
    "resolution_time", "closed", "priority", "type_group",
)
# prior activity of an issue's assignee and reporter (analyses.participant_history)
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
# columns, so none may take one of their names.
RESERVED_FEATURES = tuple(dict.fromkeys(ATTRIBUTE_COLUMNS + HISTORY_COLUMNS + CONTROL_COLUMNS + VAD_COLUMNS))
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


@dataclass(frozen=True, slots=True)
class Comment:
    author: str
    created: int
    body: str


@dataclass(frozen=True, slots=True)
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
    title: str
    description: str
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


def role_of(comment: Comment, issue: IssueReport) -> str:
    """Assignee wins over Reporter when one person holds both roles."""
    if issue.assignee is not None and comment.author == issue.assignee:
        return "Assignee"
    if comment.author == issue.reporter:
        return "Reporter"
    return "Other"


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


_CREATED = attrgetter("created")

# the analyses hold the integer fields in float columns, exact up to 2**53
_MAX_INT = 2**53

# a raw line needs its decoded strings checked only when it holds an escape
# in \uD800-\uDFFF; json keeps one that is not half of a valid pair as a lone
# surrogate, which the report writer cannot encode
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _one_of(constants: dict[str, str], value, name: str) -> str:
    # only a string can be a member; another value may not even be hashable
    if isinstance(value, str) and value in constants:
        return constants[value]
    raise ValueError(f"field {name} must be one of {tuple(constants)}, got {value!r}")


def _as_nonneg_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {name} must be an integer, got {value!r}")
    if not 0 <= value <= _MAX_INT:
        raise ValueError(f"field {name} must be between 0 and 2**53")
    return value


def _parse_comment(obj, index: int) -> Comment:
    if not isinstance(obj, dict):
        raise ValueError(f"comments[{index}] must be an object")
    for name in ("author", "created", "body"):
        if name not in obj:
            raise ValueError(f"missing field comments[{index}].{name}")
    author, created, body = obj["author"], obj["created"], obj["body"]
    if not isinstance(author, str) or not author:
        raise ValueError(f"field comments[{index}].author must be a non-empty string")
    if isinstance(created, bool) or not isinstance(created, int):
        raise ValueError(f"field comments[{index}].created must be an integer timestamp")
    if not isinstance(body, str):
        raise ValueError(f"field comments[{index}].body must be a string")
    return Comment(author=sys.intern(author), created=created, body=body)


def parse_issue(obj: dict) -> IssueReport:
    """Validate one decoded JSON object against the issue schema."""
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise ValueError(f"missing field {name}")

    issue_type = _one_of(_ISSUE_TYPE, obj["type"], "type")
    priority = _one_of(_PRIORITY, obj["priority"], "priority")
    status = _one_of(_STATUS, obj["status"], "status")

    issue_id = obj["id"]
    if not isinstance(issue_id, str) or not issue_id:
        raise ValueError("field id must be a non-empty string")
    project = obj["project"]
    if not isinstance(project, str) or not project:
        raise ValueError("field project must be a non-empty string")
    reporter = obj["reporter"]
    if not isinstance(reporter, str) or not reporter:
        raise ValueError("field reporter must be a non-empty string")
    assignee = obj.get("assignee")
    if assignee is not None:
        if not isinstance(assignee, str) or not assignee:
            raise ValueError("field assignee must be null or a non-empty string")
        assignee = sys.intern(assignee)

    created = obj["created"]
    if isinstance(created, bool) or not isinstance(created, int) or abs(created) > _MAX_INT:
        raise ValueError("field created must be an integer timestamp between -2**53 and 2**53")
    resolved = obj.get("resolved")
    if resolved is not None:
        if isinstance(resolved, bool) or not isinstance(resolved, int) or resolved > _MAX_INT:
            raise ValueError("field resolved must be null or an integer timestamp up to 2**53")
        if resolved < created:
            raise ValueError(f"field resolved ({resolved}) precedes created ({created})")
        if status != "Closed":
            raise ValueError("field resolved present but status is not Closed")

    title = obj["title"]
    description = obj["description"]
    if not isinstance(title, str) or not isinstance(description, str):
        raise ValueError("fields title and description must be strings")

    raw_comments = obj["comments"]
    if not isinstance(raw_comments, list):
        raise ValueError("field comments must be a list")
    comments = []
    for index, raw in enumerate(raw_comments):
        # a well-formed comment passes these checks; any other takes
        # _parse_comment's, which raise the message for its fault
        if type(raw) is dict:
            author, posted, body = raw.get("author"), raw.get("created"), raw.get("body")
            if type(author) is str and author and type(posted) is int and type(body) is str:
                comments.append(Comment(sys.intern(author), posted, body))
                continue
        comments.append(_parse_comment(raw, index))
    # out-of-order comments are sorted, not rejected
    comments.sort(key=_CREATED)

    features = obj.get("external_features") or {}
    if not isinstance(features, dict):
        raise ValueError("field external_features must be an object")
    parsed_features: dict[str, float] = {}
    for key, value in features.items():
        if key in _RESERVED:
            raise ValueError(f"field external_features.{key} takes the name of a built-in column")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field external_features.{key} must be numeric")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"field external_features.{key} must be finite, got {value!r}")
        parsed_features[sys.intern(str(key))] = number

    return IssueReport(
        id=issue_id,
        project=sys.intern(project),
        issue_type=issue_type,
        priority=priority,
        created=created,
        resolved=resolved,
        status=status,
        reporter=sys.intern(reporter),
        assignee=assignee,
        votes=_as_nonneg_int(obj["votes"], "votes"),
        watchers=_as_nonneg_int(obj["watchers"], "watchers"),
        change_count=_as_nonneg_int(obj["changes"], "changes"),
        developer_count=_as_nonneg_int(obj["developers"], "developers"),
        title=title,
        description=description,
        comments=tuple(comments),
        external_features=parsed_features,
    )


def load_corpus(source: str | Path | IO[str]) -> list[IssueReport]:
    """Load issues from JSONL, one object per line.

    All offending lines are collected and raised together as a
    CorpusFormatError so callers can report the first few: bytes that are
    not UTF-8, an escaped unpaired surrogate, invalid JSON, schema
    violations, and an issue id seen before, which is an error on the line
    that repeats it.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as handle:
            return load_corpus(handle)

    issues: list[IssueReport] = []
    errors: list[tuple[int, str]] = []
    first_line: dict[str, int] = {}  # issue id -> line it first appeared on
    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        for line_no, line in enumerate(source, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if not stripped.isascii() and UNDECODED.search(stripped):
                errors.append((line_no, "not valid UTF-8"))
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                errors.append((line_no, f"invalid JSON: {exc.msg}"))
                continue
            if not isinstance(obj, dict):
                errors.append((line_no, "line is not a JSON object"))
                continue
            if _SURROGATE_ESCAPE.search(stripped) and _SURROGATE.search(json.dumps(obj, ensure_ascii=False)):
                errors.append((line_no, "unpaired surrogate escape: not valid UTF-8"))
                continue
            try:
                issue = parse_issue(obj)
            except ValueError as exc:
                errors.append((line_no, str(exc)))
                continue
            first = first_line.setdefault(issue.id, line_no)
            if first != line_no:
                errors.append((line_no, f"duplicate issue id {issue.id!r}, first on line {first}"))
                continue
            issues.append(issue)
    finally:
        if collecting:
            gc.enable()
    if errors:
        raise CorpusFormatError(errors)
    return issues


def issue_to_dict(issue: IssueReport) -> dict:
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


def corpus_histograms(issues: Sequence[IssueReport]) -> dict:
    """Field histograms used to cross-check a corpus against its manifest."""
    priorities = {p: 0 for p in PRIORITIES}
    types = {t: 0 for t in ISSUE_TYPES}
    statuses = {s: 0 for s in STATUSES}
    comment_counts: dict[str, int] = {}
    for issue in issues:
        priorities[issue.priority] += 1
        types[issue.issue_type] += 1
        statuses[issue.status] += 1
        key = str(len(issue.comments))
        comment_counts[key] = comment_counts.get(key, 0) + 1
    return {
        "issues": len(issues),
        "priority": priorities,
        "type": types,
        "status": statuses,
        "comment_count": dict(sorted(comment_counts.items(), key=lambda kv: int(kv[0]))),
    }

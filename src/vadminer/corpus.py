"""Issue-tracker data model, validated JSONL ingestion, and commenter roles."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

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


class CorpusFormatError(ValueError):
    """Raised when issue JSONL lines violate the schema.

    ``errors`` lists (line_number, message) pairs for every offending line.
    """

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        preview = "; ".join(f"line {line}: {msg}" for line, msg in errors[:10])
        more = f" (+{len(errors) - 10} more)" if len(errors) > 10 else ""
        super().__init__(f"{len(errors)} invalid corpus line(s): {preview}{more}")


@dataclass(frozen=True)
class Comment:
    author: str
    created: int
    body: str


@dataclass(frozen=True)
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

_REQUIRED_FIELDS = (
    "id", "project", "type", "priority", "created", "status", "reporter",
    "votes", "watchers", "changes", "developers", "title", "description", "comments",
)


def _as_nonneg_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"field {name} must be >= 0, got {value}")
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
    return Comment(author=author, created=created, body=body)


def parse_issue(obj: dict) -> IssueReport:
    """Validate one decoded JSON object against the issue schema."""
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise ValueError(f"missing field {name}")

    issue_type = obj["type"]
    if issue_type not in ISSUE_TYPES:
        raise ValueError(f"field type must be one of {ISSUE_TYPES}, got {issue_type!r}")
    priority = obj["priority"]
    if priority not in PRIORITIES:
        raise ValueError(f"field priority must be one of {PRIORITIES}, got {priority!r}")
    status = obj["status"]
    if status not in STATUSES:
        raise ValueError(f"field status must be one of {STATUSES}, got {status!r}")

    issue_id = obj["id"]
    if not isinstance(issue_id, str) or not issue_id:
        raise ValueError("field id must be a non-empty string")
    reporter = obj["reporter"]
    if not isinstance(reporter, str) or not reporter:
        raise ValueError("field reporter must be a non-empty string")
    assignee = obj.get("assignee")
    if assignee is not None and (not isinstance(assignee, str) or not assignee):
        raise ValueError("field assignee must be null or a non-empty string")

    created = obj["created"]
    if isinstance(created, bool) or not isinstance(created, int):
        raise ValueError("field created must be an integer timestamp")
    resolved = obj.get("resolved")
    if resolved is not None:
        if isinstance(resolved, bool) or not isinstance(resolved, int):
            raise ValueError("field resolved must be null or an integer timestamp")
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
    comments = [_parse_comment(c, i) for i, c in enumerate(raw_comments)]
    # out-of-order comments are sorted, not rejected
    comments.sort(key=lambda c: c.created)

    features = obj.get("external_features") or {}
    if not isinstance(features, dict):
        raise ValueError("field external_features must be an object")
    parsed_features: dict[str, float] = {}
    for key, value in features.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field external_features.{key} must be numeric")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"field external_features.{key} must be finite, got {value!r}")
        parsed_features[str(key)] = number

    return IssueReport(
        id=issue_id,
        project=str(obj["project"]),
        issue_type=issue_type,
        priority=priority,
        created=created,
        resolved=resolved,
        status=status,
        reporter=reporter,
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
    CorpusFormatError so callers can report the first few. An issue id
    seen before is an error on the line that repeats it.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_corpus(handle)

    issues: list[IssueReport] = []
    errors: list[tuple[int, str]] = []
    first_line: dict[str, int] = {}  # issue id -> line it first appeared on
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            errors.append((line_no, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(obj, dict):
            errors.append((line_no, "line is not a JSON object"))
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

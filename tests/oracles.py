"""Independent reference implementations used to verify the package.

These deliberately take a different route from the library code: tail
probabilities come from scipy, optimization from scipy.optimize, and the
closed-form statistics are spelled out from their textbook definitions.
"""
from __future__ import annotations

import math
import sys

import numpy as np
from scipy import optimize
from scipy import stats as sps

from vadminer.corpus import (
    ISSUE_TYPES, PRIORITIES, RESERVED_FEATURES, STATUSES, Comment, IssueReport,
)


def one_pass_mean(values) -> float:
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count


def range_score_oracle(lo: float, hi: float, baseline: float) -> float:
    """README's three-case range score from a text's extreme word scores
    ``lo`` and ``hi``; NaN when nothing matched (NaN extremes)."""
    if math.isnan(lo) or math.isnan(hi):
        return math.nan
    if lo > baseline:  # every word above the mean
        return hi - baseline
    if hi < baseline:  # every word below the mean
        return baseline - lo
    return hi - lo  # straddling, ties included


def welch_oracle(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    na, nb = len(a), len(b)
    se2 = va / na + vb / nb
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * sps.t.sf(abs(t), df)
    return t, p, df


def paired_oracle(before, after):
    diffs = np.asarray(after, float) - np.asarray(before, float)
    n = len(diffs)
    sd = diffs.std(ddof=1)
    t = diffs.mean() / (sd / math.sqrt(n))
    p = 2.0 * sps.t.sf(abs(t), n - 1)
    d = diffs.mean() / sd
    return t, p, d


def cohens_d_oracle(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    na, nb = len(a), len(b)
    pooled = math.sqrt(((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / (na + nb - 2))
    return (a.mean() - b.mean()) / pooled


def pearson_oracle(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.sum(dx * dy) / math.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


def ols_oracle(X, y):
    """Normal-equations OLS with t-based p-values. X has no intercept column."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    X1 = np.column_stack([np.ones(len(y)), X])
    xtx = X1.T @ X1
    beta = np.linalg.solve(xtx, X1.T @ y)
    residuals = y - X1 @ beta
    rss = float(residuals @ residuals)
    df = len(y) - X1.shape[1]
    sigma2 = rss / df
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(xtx)))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = beta / se
    p = 2.0 * sps.t.sf(np.abs(t), df)
    return beta, se, p, rss


def polyfit_oracle(x, y, degree):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    coef = np.polynomial.polynomial.polyfit(x, y, degree)
    fitted = np.polynomial.polynomial.polyval(x, coef)
    rss = float(np.sum((y - fitted) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    return coef, 1.0 - rss / tss, rss


def logistic_oracle(X, y):
    """High-precision logistic MLE via Newton-CG on the exact likelihood."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    X1 = np.column_stack([np.ones(len(y)), X])

    def negative_loglik(beta):
        eta = X1 @ beta
        return float(np.sum(np.logaddexp(0.0, eta)) - y @ eta)

    def gradient(beta):
        mu = sps.logistic.cdf(X1 @ beta)
        return X1.T @ (mu - y)

    def hessian(beta):
        mu = sps.logistic.cdf(X1 @ beta)
        w = mu * (1.0 - mu)
        return X1.T @ (w[:, None] * X1)

    result = optimize.minimize(negative_loglik, np.zeros(X1.shape[1]), jac=gradient,
                               hess=hessian, method="Newton-CG",
                               options={"xtol": 1e-14, "maxiter": 500})
    beta = result.x
    deviance = 2.0 * negative_loglik(beta)
    cov = np.linalg.inv(hessian(beta))
    se = np.sqrt(np.diag(cov))
    p = 2.0 * sps.norm.sf(np.abs(beta / se))
    return beta, se, p, deviance


# The Lentz loops of the incomplete beta and gamma continued fractions as
# they were written before ``stats._lentz`` took their shared step, each step
# spelled out in place: the references that ``stats._betacf`` and
# ``stats._gamma_contfrac`` must match bit for bit. Each also returns how many
# times a denominator was clamped to ``_LENTZ_FPMIN``.
_LENTZ_EPS = 1e-15
_LENTZ_FPMIN = 1e-300
_LENTZ_MAX_ITER = 500


def betacf_reference(a: float, b: float, x: float) -> tuple[float, int]:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    clamps = 0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_FPMIN:
        d, clamps = _LENTZ_FPMIN, clamps + 1
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_FPMIN:
            d, clamps = _LENTZ_FPMIN, clamps + 1
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_FPMIN:
            c, clamps = _LENTZ_FPMIN, clamps + 1
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_FPMIN:
            d, clamps = _LENTZ_FPMIN, clamps + 1
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_FPMIN:
            c, clamps = _LENTZ_FPMIN, clamps + 1
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            return h, clamps
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def gamma_contfrac_reference(a: float, x: float) -> tuple[float, int]:
    b = x + 1.0 - a
    clamps = 0
    c = 1.0 / _LENTZ_FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _LENTZ_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _LENTZ_FPMIN:
            d, clamps = _LENTZ_FPMIN, clamps + 1
        c = b + an / c
        if abs(c) < _LENTZ_FPMIN:
            c, clamps = _LENTZ_FPMIN, clamps + 1
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a)), clamps
    raise ArithmeticError(f"incomplete gamma continued fraction did not converge (a={a}, x={x})")


def auc_oracle(scores, labels):
    return float(sps.mannwhitneyu(
        np.asarray(scores)[np.asarray(labels) == 1],
        np.asarray(scores)[np.asarray(labels) == 0],
    ).statistic) / (int(np.sum(labels == 1)) * int(np.sum(labels == 0)))


def commenter_role(author, issue) -> str:
    """A comment author's role on an issue; Assignee wins over Reporter."""
    if issue.assignee is not None and author == issue.assignee:
        return "Assignee"
    return "Reporter" if author == issue.reporter else "Other"


def prior_activity(issues) -> dict[str, list[int]]:
    """The history columns by a walk over the records, keyed by name: each
    count is the number of the person's events on issues that come earlier in
    (created, id) order, so an issue's own activity does not count."""
    comments_by, reported_by, assigned_to = {}, {}, {}  # person -> (created, id) of each event
    for issue in issues:
        key = (issue.created, issue.id)
        for comment in issue.comments:
            comments_by.setdefault(comment.author, []).append(key)
        reported_by.setdefault(issue.reporter, []).append(key)
        assigned_to.setdefault(issue.assignee, []).append(key)

    def earlier(events, person, key):
        return 0 if person is None else sum(event < key for event in events.get(person, []))

    history = {"assignee_prev_comments": [], "reporter_prev_comments": [],
               "assignee_prev_issues": [], "reporter_prev_issues": []}
    for issue in issues:
        key = (issue.created, issue.id)
        history["assignee_prev_comments"].append(earlier(comments_by, issue.assignee, key))
        history["reporter_prev_comments"].append(earlier(comments_by, issue.reporter, key))
        history["assignee_prev_issues"].append(earlier(assigned_to, issue.assignee, key))
        history["reporter_prev_issues"].append(earlier(reported_by, issue.reporter, key))
    return history


# The issue validator as it was written with ``isinstance`` checks, one helper
# per field kind and keyword-built records: the reference that
# ``corpus.parse_issue`` must match record for record and message for message.
_ISSUE_TYPE = {name: name for name in ISSUE_TYPES}
_PRIORITY = {name: name for name in PRIORITIES}
_STATUS = {name: name for name in STATUSES}
_REQUIRED_FIELDS = (
    "id", "project", "type", "priority", "created", "status", "reporter",
    "votes", "watchers", "changes", "developers", "title", "description", "comments",
)
_RESERVED = frozenset(RESERVED_FEATURES)
_MAX_INT = 2**53


def _one_of(constants: dict[str, str], value, name: str) -> str:
    if isinstance(value, str) and value in constants:
        return constants[value]
    raise ValueError(f"field {name} must be one of {tuple(constants)}, got {value!r}")


def _as_nonneg_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {name} must be an integer, got {value!r}")
    if not 0 <= value <= _MAX_INT:
        raise ValueError(f"field {name} must be between 0 and 2**53")
    return value


def parse_comment_oracle(obj, index: int) -> Comment:
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


def parse_issue_oracle(obj: dict) -> IssueReport:
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
    comments = [parse_comment_oracle(raw, index) for index, raw in enumerate(raw_comments)]
    comments.sort(key=lambda comment: comment.created)

    features = obj.get("external_features")
    if features is not None and not isinstance(features, dict):
        raise ValueError("field external_features must be an object")
    parsed_features: dict[str, float] = {}
    for key, value in (features or {}).items():
        if key in _RESERVED:
            raise ValueError(f"field external_features.{key} takes the name of a built-in column")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field external_features.{key} must be numeric")
        try:
            number = float(value)
        except OverflowError:
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

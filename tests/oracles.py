"""Independent reference implementations used to verify the package.

These deliberately take a different route from the library code: tail
probabilities come from scipy, optimization from scipy.optimize, and the
closed-form statistics are spelled out from their textbook definitions.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import optimize
from scipy import stats as sps


def one_pass_mean(values) -> float:
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count


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

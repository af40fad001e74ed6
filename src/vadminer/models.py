"""Regression models with inference: logistic (IRLS) and linear (OLS) fits,
nested-model likelihood-ratio comparison, stratified cross-validation with a
rank-statistic AUC, the majority-class baseline, and median+one-sd impact
sizes for comparing features measured in different units.

Outcomes are float arrays. The Short/Long resolution split is 0/1 (1.0 for
Long, as ``binarize_outcome`` labels it); the logistic fit and
cross-validation reject any other value, and the linear fit takes any finite
response. Both fits open with one checked-design prologue: enough rows for
the parameters, an intercept column, and a rank check that names the
collinear columns.

The fits do no work twice: IRLS carries the fitted probabilities of each
accepted step into the next iteration and into the covariance, and the
sigmoid and the AUC midranks are whole-array numpy expressions, equal bit
for bit to their masked and looped forms (the tests keep those as
references).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import chi2_sf, normal_two_sided_p, pearson_r, student_t_two_sided_p

_MAX_IRLS_ITER = 100
_IRLS_TOL = 1e-8
_MU_CLIP = 1e-10


def binarize_outcome(resolution_times) -> np.ndarray:
    """Label times 1.0 (Long) when >= the median (lower-middle value for even
    n), else 0.0 (Short)."""
    times = np.asarray(resolution_times, dtype=float)
    if not len(times):
        raise ValueError("no resolution times to binarize")
    if np.any(times < 0):
        raise ValueError("resolution times must be >= 0")
    median = np.sort(times)[(len(times) - 1) // 2]
    return (times >= median).astype(float)


class DesignMatrix:
    """Named feature columns with an outcome, one float per row.

    Rows with missing values must be dropped before construction; every cell
    and every outcome value has to be finite.
    """

    def __init__(self, columns, X, outcome):
        self.columns = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names in design matrix")
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[1] != len(self.columns):
            raise ValueError(f"design matrix shape {self.X.shape} does not match {len(self.columns)} columns")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("design matrix contains missing or non-finite cells")
        self.outcome = np.asarray(outcome, dtype=float)
        if self.outcome.shape != (self.X.shape[0],):
            raise ValueError("outcome length does not match design rows")
        if not np.all(np.isfinite(self.outcome)):
            raise ValueError("outcome contains non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def subset(self, names) -> "DesignMatrix":
        names = list(names)
        idx = [self.columns.index(n) for n in names]
        return DesignMatrix(names, self.X[:, idx], self.outcome)

    def take_rows(self, index) -> "DesignMatrix":
        return DesignMatrix(self.columns, self.X[index], self.outcome[index])


@dataclass(frozen=True)
class FittedModel:
    """Coefficient table with Wald/t inference; index 0 is the intercept."""

    kind: str  # "logistic" or "linear"
    columns: tuple[str, ...]  # feature names, intercept excluded
    coefficients: tuple[float, ...]  # intercept first, then one per column
    std_errors: tuple[float, ...]
    p_values: tuple[float, ...]
    deviance: float
    converged: bool
    n_obs: int

    def _index(self, name: str) -> int:
        return self.columns.index(name) + 1

    def coefficient(self, name: str) -> float:
        return self.coefficients[self._index(name)]

    def p_value(self, name: str) -> float:
        return self.p_values[self._index(name)]

    @property
    def intercept(self) -> float:
        return self.coefficients[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.kind != "logistic":
            raise ValueError("predict_proba is only defined for logistic models")
        beta = np.asarray(self.coefficients)
        return _sigmoid(beta[0] + np.asarray(X, dtype=float) @ beta[1:])


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class CvReport:
    short: ClassMetrics
    long: ClassMetrics
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    auc: float


@dataclass(frozen=True)
class ImpactEntry:
    feature: str
    impact: float  # percent change of the predicted probability


@dataclass(frozen=True)
class FilterDecision:
    keep: str
    drop: str
    r: float
    dropped: bool


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows: 1 / (1 + exp(-eta))
    # for eta >= 0, exp(eta) / (1 + exp(eta)) below
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _binomial_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    mu = np.clip(mu, _MU_CLIP, 1.0 - _MU_CLIP)
    return float(-2.0 * np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)))


def _collinear_columns(X1: np.ndarray, names: list[str]) -> list[str]:
    # columns whose removal does not lower the rank are linearly dependent
    rank = np.linalg.matrix_rank(X1)
    culprits = []
    for j in range(1, X1.shape[1]):  # never blame the intercept
        reduced = np.delete(X1, j, axis=1)
        if np.linalg.matrix_rank(reduced) == rank:
            culprits.append(names[j - 1])
    return culprits


def _check_labels(y: np.ndarray) -> None:
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("binary outcome must contain only Short/Long (0/1) values")


def _checked_design(design: DesignMatrix, constant_response_ok: bool) -> np.ndarray:
    """The design with an intercept column first, once it has more rows than
    parameters, a response that varies unless ``constant_response_ok``, and
    full column rank; otherwise ValueError, in that order of checks."""
    n, p = design.n, len(design.columns)
    if n <= p + 1:
        raise ValueError(f"need more observations ({n}) than parameters ({p + 1})")
    if not constant_response_ok and float(np.var(design.outcome)) == 0.0:
        raise ValueError("degenerate variance: response is constant")
    X1 = np.column_stack([np.ones(n), design.X])
    if np.linalg.matrix_rank(X1) < X1.shape[1]:
        culprits = _collinear_columns(X1, design.columns)
        raise ValueError(f"singular design; collinear columns: {culprits}")
    return X1


def fit_logistic(design: DesignMatrix) -> FittedModel:
    """Maximum-likelihood logistic regression via IRLS with step halving.

    The outcome must be 0/1. Converges when the largest coefficient change
    drops below 1e-8 (at most 100 iterations). Perfect separation never
    converges and is reported via ``converged=False``; a singular design
    raises, naming the dependent columns.
    """
    y = design.outcome
    _check_labels(y)
    # one class only is complete separation, which the fit reports
    X1 = _checked_design(design, constant_response_ok=True)

    beta = np.zeros(X1.shape[1])
    mu = _sigmoid(X1 @ beta)  # always the fitted probabilities of beta
    deviance = _binomial_deviance(y, mu)
    converged = False
    for _ in range(_MAX_IRLS_ITER):
        w = np.clip(mu * (1.0 - mu), _MU_CLIP, None)
        xtwx = X1.T @ (w[:, None] * X1)
        score = X1.T @ (y - mu)
        try:
            delta = np.linalg.solve(xtwx, score)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(xtwx, score, rcond=None)[0]

        step = 1.0
        trial = beta + delta
        trial_mu = _sigmoid(X1 @ trial)
        trial_dev = _binomial_deviance(y, trial_mu)
        while trial_dev > deviance + 1e-10 and step > 1e-10:
            step *= 0.5
            trial = beta + step * delta
            trial_mu = _sigmoid(X1 @ trial)
            trial_dev = _binomial_deviance(y, trial_mu)

        change = float(np.max(np.abs(trial - beta)))
        beta, mu, deviance = trial, trial_mu, trial_dev
        if change < _IRLS_TOL:
            converged = True
            break
        if np.max(np.abs(beta)) > 1e8:  # diverging: separation
            break

    w = np.clip(mu * (1.0 - mu), _MU_CLIP, None)
    xtwx = X1.T @ (w[:, None] * X1)
    try:
        cov = np.linalg.inv(xtwx)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(xtwx)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    p_values = []
    for b, s in zip(beta, se):
        if s == 0.0 or not math.isfinite(s):
            p_values.append(1.0)
        else:
            p_values.append(normal_two_sided_p(b / s))

    return FittedModel(
        kind="logistic",
        columns=tuple(design.columns),
        coefficients=tuple(float(b) for b in beta),
        std_errors=tuple(float(s) for s in se),
        p_values=tuple(p_values),
        deviance=deviance,
        converged=converged,
        n_obs=design.n,
    )


def fit_linear(design: DesignMatrix) -> FittedModel:
    """Ordinary least squares with t-statistics and two-sided p-values."""
    y = design.outcome
    X1 = _checked_design(design, constant_response_ok=False)

    beta, _, _, _ = np.linalg.lstsq(X1, y, rcond=None)
    residuals = y - X1 @ beta
    rss = float(residuals @ residuals)
    df = design.n - X1.shape[1]
    sigma2 = rss / df
    cov = sigma2 * np.linalg.inv(X1.T @ X1)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    p_values = []
    for b, s in zip(beta, se):
        if s == 0.0:
            p_values.append(0.0 if b != 0.0 else 1.0)
        else:
            p_values.append(student_t_two_sided_p(b / s, df))

    return FittedModel(
        kind="linear",
        columns=tuple(design.columns),
        coefficients=tuple(float(b) for b in beta),
        std_errors=tuple(float(s) for s in se),
        p_values=tuple(p_values),
        deviance=rss,
        converged=True,
        n_obs=design.n,
    )


def lr_test(reduced: FittedModel, full: FittedModel) -> float:
    """Likelihood-ratio p-value for nested models (chi-square on deviance drop)."""
    if reduced.kind != full.kind:
        raise ValueError("models are of different kinds")
    if reduced.n_obs != full.n_obs:
        raise ValueError("models were fitted on different numbers of rows")
    if not set(reduced.columns) <= set(full.columns):
        raise ValueError("models are not nested: reduced columns must be a subset of the full model's")
    df = len(full.columns) - len(reduced.columns)
    statistic = max(0.0, reduced.deviance - full.deviance)
    if df == 0:
        return 1.0
    return chi2_sf(statistic, df)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; a run of equal values shares the mean of its positions."""
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    # positions i..j of each run of equal sorted values
    starts = np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1])))
    ends = np.append(starts[1:], len(values)) - 1
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def rank_auc(probabilities, y) -> float:
    """Mann-Whitney AUC of scores against binary labels, midranks for ties."""
    probabilities = np.asarray(probabilities, dtype=float)
    y = np.asarray(y, dtype=float)
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(np.sum(y == 0.0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _midranks(probabilities)
    u = float(np.sum(ranks[y == 1.0])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _classification_report(y: np.ndarray, predictions: np.ndarray, auc: float) -> CvReport:
    def metrics(positive: float) -> ClassMetrics:
        predicted = predictions == positive
        actual = y == positive
        tp = int(np.sum(predicted & actual))
        precision = tp / int(np.sum(predicted)) if np.any(predicted) else 0.0
        recall = tp / int(np.sum(actual)) if np.any(actual) else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) > 0 else 0.0
        return ClassMetrics(precision=precision, recall=recall, f1=f1, support=int(np.sum(actual)))

    short = metrics(0.0)
    long_ = metrics(1.0)
    total = short.support + long_.support
    weights = (short.support / total, long_.support / total)
    return CvReport(
        short=short,
        long=long_,
        weighted_precision=weights[0] * short.precision + weights[1] * long_.precision,
        weighted_recall=weights[0] * short.recall + weights[1] * long_.recall,
        weighted_f1=weights[0] * short.f1 + weights[1] * long_.f1,
        auc=auc,
    )


def crossval(design: DesignMatrix, folds: int = 10, seed: int = 0) -> CvReport:
    """Stratified k-fold logistic cross-validation, deterministic per seed.

    Class metrics are computed on the pooled out-of-fold predictions at a 0.5
    threshold; AUC is the rank statistic over the pooled probabilities.
    """
    y = design.outcome
    _check_labels(y)
    if design.n < folds:
        raise ValueError(f"need at least {folds} rows for {folds}-fold cross-validation")
    rng = np.random.default_rng(seed)

    fold_of = np.empty(design.n, dtype=int)
    for cls in (0.0, 1.0):
        members = np.flatnonzero(y == cls)
        if len(members) < folds:
            raise ValueError(f"class {'Long' if cls else 'Short'} has fewer members ({len(members)}) than folds")
        rng.shuffle(members)
        fold_of[members] = np.arange(len(members)) % folds

    probabilities = np.empty(design.n)
    for fold in range(folds):
        test = fold_of == fold
        model = fit_logistic(design.take_rows(~test))
        probabilities[test] = model.predict_proba(design.X[test])

    predictions = (probabilities >= 0.5).astype(float)
    return _classification_report(y, predictions, rank_auc(probabilities, y))


def zero_r(labels) -> CvReport:
    """Majority-class baseline of 0/1 labels (ties break toward Long, 1.0); AUC is 0.5."""
    y = np.asarray(labels, dtype=float)
    if not len(y):
        raise ValueError("no labels")
    majority = 1.0 if np.sum(y == 1.0) >= np.sum(y == 0.0) else 0.0
    predictions = np.full(len(y), majority)
    return _classification_report(y, predictions, 0.5)


def impact_sizes(model: FittedModel, design: DesignMatrix) -> list[ImpactEntry]:
    """Percent probability change when one feature moves median -> median + sd.

    All other features stay at their median; entries are ordered by
    descending magnitude.
    """
    if model.kind != "logistic":
        raise ValueError("impact sizes are defined for logistic models")
    medians = np.median(design.X, axis=0) if design.n else np.zeros(len(design.columns))
    sds = np.std(design.X, axis=0, ddof=1) if design.n > 1 else np.zeros(len(design.columns))
    at = [design.columns.index(name) for name in model.columns]
    base_eta = model.intercept
    for name, j in zip(model.columns, at):
        base_eta += model.coefficient(name) * float(medians[j])
    base = float(_sigmoid(np.array([base_eta]))[0])
    if base < 1e-12:
        raise ValueError("degenerate base probability")

    entries = []
    for name, j in zip(model.columns, at):
        dev_eta = base_eta + model.coefficient(name) * float(sds[j])
        dev = float(_sigmoid(np.array([dev_eta]))[0])
        entries.append(ImpactEntry(feature=name, impact=(dev - base) / base * 100.0))
    entries.sort(key=lambda e: (-abs(e.impact), e.feature))
    return entries


def correlation_filter(design: DesignMatrix, pairs, threshold: float = 0.7) -> tuple[DesignMatrix, list[FilterDecision]]:
    """Drop the second column of each (keep, drop) pair when |r| > threshold."""
    decisions = []
    dropped = set()
    for keep, drop in pairs:
        r = pearson_r(design.X[:, design.columns.index(keep)], design.X[:, design.columns.index(drop)])
        exceeded = abs(r) > threshold
        decisions.append(FilterDecision(keep=keep, drop=drop, r=r, dropped=exceeded))
        if exceeded:
            dropped.add(drop)
    return design.subset(name for name in design.columns if name not in dropped), decisions

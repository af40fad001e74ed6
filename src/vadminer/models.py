"""Regression models with inference: logistic (IRLS) and linear (OLS) fits,
nested-model likelihood-ratio comparison, stratified cross-validation with a
rank-statistic AUC, the majority-class baseline, and median+one-sd impact
sizes for comparing features measured in different units.

The fits do no work twice: IRLS carries the fitted probabilities of each
accepted step into the next iteration and into the covariance, a design's
column medians and sds are computed only when impact sizes read them, and
the sigmoid and the AUC midranks are whole-array numpy expressions, equal
bit for bit to their masked and looped forms (the tests keep those as
references).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .stats import chi2_sf, normal_two_sided_p, pearson_r, student_t_two_sided_p

SHORT = "Short"
LONG = "Long"

_MAX_IRLS_ITER = 100
_IRLS_TOL = 1e-8
_MU_CLIP = 1e-10


def binarize_outcome(resolution_times) -> list[str]:
    """Label times as Long when >= the median (lower-middle value for even n)."""
    times = [float(t) for t in resolution_times]
    if not times:
        raise ValueError("no resolution times to binarize")
    if any(t < 0 for t in times):
        raise ValueError("resolution times must be >= 0")
    median = sorted(times)[(len(times) - 1) // 2]
    return [LONG if t >= median else SHORT for t in times]


class DesignMatrix:
    """Named feature columns with an outcome, plus per-column median and sd.

    Rows with missing values must be dropped before construction; every cell
    has to be finite.
    """

    def __init__(self, columns, X, outcome, outcome_kind: str | None = None):
        self.columns = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names in design matrix")
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[1] != len(self.columns):
            raise ValueError(f"design matrix shape {self.X.shape} does not match {len(self.columns)} columns")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("design matrix contains missing or non-finite cells")

        values = list(outcome)
        if len(values) != self.X.shape[0]:
            raise ValueError("outcome length does not match design rows")
        if outcome_kind is None:
            outcome_kind = "binary" if values and all(v in (SHORT, LONG) for v in values) else "real"
        if outcome_kind == "binary":
            if values and isinstance(values[0], str):
                self.outcome = np.array([1.0 if v == LONG else 0.0 for v in values])
            else:
                self.outcome = np.asarray(values, dtype=float)
            if not np.all(np.isin(self.outcome, (0.0, 1.0))):
                raise ValueError("binary outcome must contain only Short/Long (0/1) values")
        elif outcome_kind == "real":
            self.outcome = np.asarray(values, dtype=float)
            if not np.all(np.isfinite(self.outcome)):
                raise ValueError("real outcome contains non-finite values")
        else:
            raise ValueError(f"unknown outcome kind {outcome_kind!r}")
        self.outcome_kind = outcome_kind

    # computed on first use: only impact sizes read them, and the fits
    # make many subsets and row samples
    @cached_property
    def medians(self) -> np.ndarray:
        return np.median(self.X, axis=0) if len(self.X) else np.zeros(len(self.columns))

    @cached_property
    def sds(self) -> np.ndarray:
        return np.std(self.X, axis=0, ddof=1) if len(self.X) > 1 else np.zeros(len(self.columns))

    @classmethod
    def from_mapping(cls, columns: dict, outcome, outcome_kind: str | None = None) -> "DesignMatrix":
        names = list(columns)
        X = np.column_stack([np.asarray(columns[name], dtype=float) for name in names]) if names else np.empty((len(list(outcome)), 0))
        return cls(names, X, outcome, outcome_kind)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.columns.index(name)]

    def median(self, name: str) -> float:
        return float(self.medians[self.columns.index(name)])

    def sd(self, name: str) -> float:
        return float(self.sds[self.columns.index(name)])

    def subset(self, names) -> "DesignMatrix":
        names = list(names)
        idx = [self.columns.index(n) for n in names]
        return DesignMatrix(names, self.X[:, idx], self.outcome, self.outcome_kind)

    def drop(self, names) -> "DesignMatrix":
        removed = set(names)
        keep = [n for n in self.columns if n not in removed]
        return self.subset(keep)

    def take_rows(self, index) -> "DesignMatrix":
        return DesignMatrix(self.columns, self.X[index], self.outcome[index], self.outcome_kind)


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

    def linear_predictor(self, X: np.ndarray) -> np.ndarray:
        beta = np.asarray(self.coefficients)
        return beta[0] + np.asarray(X, dtype=float) @ beta[1:]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.kind != "logistic":
            raise ValueError("predict_proba is only defined for logistic models")
        return _sigmoid(self.linear_predictor(X))


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


def _with_intercept(design: DesignMatrix) -> np.ndarray:
    return np.column_stack([np.ones(design.n), design.X])


def fit_logistic(design: DesignMatrix) -> FittedModel:
    """Maximum-likelihood logistic regression via IRLS with step halving.

    Converges when the largest coefficient change drops below 1e-8 (at most
    100 iterations). Perfect separation never converges and is reported via
    ``converged=False``; a singular design raises, naming the dependent
    columns.
    """
    if design.outcome_kind != "binary":
        raise ValueError("fit_logistic requires a binary outcome")
    y = design.outcome
    n, p = design.n, len(design.columns)
    if n <= p + 1:
        raise ValueError(f"need more observations ({n}) than parameters ({p + 1})")

    X1 = _with_intercept(design)
    if np.linalg.matrix_rank(X1) < X1.shape[1]:
        culprits = _collinear_columns(X1, design.columns)
        raise ValueError(f"singular design; collinear columns: {culprits}")

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
        n_obs=n,
    )


def fit_linear(design: DesignMatrix) -> FittedModel:
    """Ordinary least squares with t-statistics and two-sided p-values."""
    if design.outcome_kind != "real":
        raise ValueError("fit_linear requires a real-valued outcome")
    y = design.outcome
    n, p = design.n, len(design.columns)
    if n <= p + 1:
        raise ValueError(f"need more observations ({n}) than parameters ({p + 1})")
    if float(np.var(y)) == 0.0:
        raise ValueError("degenerate variance: response is constant")

    X1 = _with_intercept(design)
    if np.linalg.matrix_rank(X1) < X1.shape[1]:
        culprits = _collinear_columns(X1, design.columns)
        raise ValueError(f"singular design; collinear columns: {culprits}")

    beta, _, _, _ = np.linalg.lstsq(X1, y, rcond=None)
    residuals = y - X1 @ beta
    rss = float(residuals @ residuals)
    df = n - X1.shape[1]
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
        n_obs=n,
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
    if design.outcome_kind != "binary":
        raise ValueError("crossval requires a binary outcome")
    if design.n < folds:
        raise ValueError(f"need at least {folds} rows for {folds}-fold cross-validation")
    y = design.outcome
    rng = np.random.default_rng(seed)

    fold_of = np.empty(design.n, dtype=int)
    for cls in (0.0, 1.0):
        members = np.flatnonzero(y == cls)
        if len(members) < folds:
            raise ValueError(f"class {LONG if cls else SHORT} has fewer members ({len(members)}) than folds")
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
    """Majority-class baseline (ties break toward Long); AUC is 0.5."""
    values = list(labels)
    if not values:
        raise ValueError("no labels")
    if isinstance(values[0], str):
        y = np.array([1.0 if v == LONG else 0.0 for v in values])
    else:
        y = np.asarray(values, dtype=float)
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
    base_eta = model.intercept
    for name in model.columns:
        base_eta += model.coefficient(name) * design.median(name)
    base = float(_sigmoid(np.array([base_eta]))[0])
    if base < 1e-12:
        raise ValueError("degenerate base probability")

    entries = []
    for name in model.columns:
        dev_eta = base_eta + model.coefficient(name) * design.sd(name)
        dev = float(_sigmoid(np.array([dev_eta]))[0])
        entries.append(ImpactEntry(feature=name, impact=(dev - base) / base * 100.0))
    entries.sort(key=lambda e: (-abs(e.impact), e.feature))
    return entries


def correlation_filter(design: DesignMatrix, pairs, threshold: float = 0.7) -> tuple[DesignMatrix, list[FilterDecision]]:
    """Drop the second column of each (keep, drop) pair when |r| > threshold."""
    decisions = []
    dropped = []
    for keep, drop in pairs:
        r = pearson_r(design.column(keep), design.column(drop))
        exceeded = abs(r) > threshold
        decisions.append(FilterDecision(keep=keep, drop=drop, r=r, dropped=exceeded))
        if exceeded:
            dropped.append(drop)
    return design.drop(dropped), decisions

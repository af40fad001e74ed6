"""Regression models with inference: logistic (IRLS), linear (OLS) and
polynomial fits, nested-model likelihood-ratio comparison, stratified
cross-validation with a rank-statistic AUC, the majority-class baseline, and
median+one-sd impact sizes for comparing features measured in different units.

A ``DesignMatrix`` holds predictors only; each fit takes the response ``y``,
one finite float per row, so several responses share one design (rq4's three
dimensions of a role). The logistic fit and cross-validation take only 0/1
(1.0 for Long, as ``binarize_outcome`` labels the Short/Long split).

The design holds its columns as the fits use them, built once at
construction: an intercept column of ones followed by every predictor column
centered on its mean and divided by its sd (a constant column is only
centered, so it stays dependent and is named below). The sd, and each median
and sd of the impact sizes, is taken on the column times 2**-e, where e is
the exponent of its largest magnitude (``stats._magnitudes``, which the
t-tests share): the scaling is exact, so ordinary data keeps every bit, no
square can underflow or overflow, and ``ldexp`` by e maps a result back
exactly. A column whose sum or centered values leave the float range (values
within a factor of about n of the float maximum) is scaled the same way
before it is centered, and its exponent goes into its scale. Every fit
checks its response first, then
that there are more rows than parameters, then runs a rank check that takes
the eigenvalues of the (p+1)x(p+1) Gram matrix and counts one at or below
``RANK_RTOL`` of the largest as zero; only a failed check looks for the
collinear columns to name. The logistic check reads Z'Z / 4, the first IRLS
Gram from a zero start, where every weight is 1/4; a fold fit that starts
from its stage's coefficients computes that Gram for its check. No step
takes an SVD of the n-row design. One inference tail, ``_fitted``, maps either fit's
coefficients and covariance back to raw units (``T cov T'``, with ``T`` split
into powers of two and factors near 1, so no reciprocal of a scale is
squared) and applies the fit's p-value rule. So a fit does not depend on the
scale or the offset of a column: multiplying any finite column by a factor
that keeps it finite, from 1e-300 up to the float maximum, scales its slope
by the inverse factor and leaves every p-value and the deviance as they
were. ``polyfit`` is ``fit_linear`` on the powers of x minus its mean, so one
rank rule decides every fit.

Cross-validation deals each class's rows out to the folds in the order of a
seeded integer hash of their positions (the SplitMix64 finalizer), so the
folds depend on the seed and the rows alone, and on no random number stream
of numpy's, whose output a numpy release may change; ``numpy.random`` is
never imported. It fits each fold on a copy of its training rows, freed when
the fold's fit returns. A caller that fits several nested models of one
design (rq3's stages) passes its column prefixes (``DesignMatrix.prefix``) to
``fit_logistic`` and ``crossval``, and may pass each stage's fit to
``crossval`` so that the folds' fits start from its coefficients on the
standardized scale, which saves IRLS iterations. The correlation filter and
the impact sizes read raw values from a mapping of column names to arrays.

The fits do no work twice: IRLS carries the fitted probabilities of each
accepted step into the next iteration and into the covariance, and sums the
weighted Gram matrix over blocks of ``_GRAM_BLOCK`` rows, so it needs scratch
of one block and none of the design's size. The sigmoid and the AUC midranks
are whole-array numpy expressions, equal bit for bit to their masked and
looped forms (the tests keep those as references).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .stats import _as_sample, _magnitudes, chi2_sf, normal_two_sided_p, pearson_r, student_t_two_sided_p

_MAX_IRLS_ITER = 100
_IRLS_TOL = 1e-8
_MU_CLIP = 1e-10
RANK_RTOL = 1e-10  # Gram eigenvalues at or below this share of the largest count as zero
_GRAM_BLOCK = 8192  # rows per block of the weighted Gram sum
CV_FOLDS = 10
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # 2**64 over the golden ratio, SplitMix64's increment
CORRELATION_THRESHOLD = 0.7


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
    """Named predictor columns, one finite float per row (drop rows with
    missing values first), held as the fits see them: ``Z`` is an intercept
    column of ones, then each column minus ``center``, divided by ``scale``
    (its sd, or 1.0 for a constant column). The raw cells are not kept, and
    each fit takes the response.
    """

    __slots__ = ("columns", "Z", "center", "scale")

    def __init__(self, columns, X):
        self.columns = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names in design matrix")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.columns):
            raise ValueError(f"design matrix shape {X.shape} does not match {len(self.columns)} columns")
        if not np.all(np.isfinite(X)):
            raise ValueError("design matrix contains missing or non-finite cells")
        n, p = X.shape
        self.Z = np.empty((n, p + 1))
        self.Z[:, 0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # a sum or difference past the float range
            self.center = X.mean(axis=0) if n else np.zeros(p)  # no rows: the fits reject the design
            centered = np.subtract(X, self.center, out=self.Z[:, 1:])
        magnitude = _magnitudes(centered, axis=0)
        outside = ~np.isfinite(magnitude)
        shift = np.zeros(p, dtype=int)  # the exponent a column was scaled by before centering
        if outside.any():  # center those columns scaled by their power of two, an exact scaling
            shift[outside] = np.frexp(_magnitudes(X[:, outside], axis=0))[1]
            shrunk = np.ldexp(X[:, outside], -shift[outside])
            center = shrunk.mean(axis=0)
            centered[:, outside] = shrunk - center
            self.center[outside] = np.ldexp(center, shift[outside])
            magnitude[outside] = _magnitudes(centered[:, outside], axis=0)
        step = np.frexp(magnitude)[1]
        np.ldexp(centered, -step, out=centered)
        sd = np.sqrt(np.einsum("ij,ij->j", centered, centered) / max(n, 1))
        sd = np.where(sd > 0.0, sd, 1.0)
        centered /= sd
        self.scale = np.ldexp(sd, step + shift)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    def prefix(self, k: int) -> "DesignMatrix":
        """The first ``k`` columns, as views of this design's arrays."""
        view = object.__new__(DesignMatrix)
        view.columns, view.Z, view.center, view.scale = (
            self.columns[:k], self.Z[:, :k + 1], self.center[:k], self.scale[:k])
        return view


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
    r: float | None  # None when either column is constant
    dropped: bool


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows: 1 / (1 + exp(-eta))
    # for eta >= 0, exp(eta) / (1 + exp(eta)) below
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _binomial_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    mu = np.clip(mu, _MU_CLIP, 1.0 - _MU_CLIP)
    return float(-2.0 * np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)))


def _gram_rank(gram: np.ndarray) -> int:
    eigenvalues = np.linalg.eigvalsh(gram)  # ascending
    return int(np.count_nonzero(eigenvalues > RANK_RTOL * eigenvalues[-1]))


def _collinear_columns(gram: np.ndarray, names) -> list[str]:
    # columns whose removal does not lower the rank are linearly dependent
    rank = _gram_rank(gram)
    return [name for j, name in enumerate(names, start=1)  # never blame the intercept
            if _gram_rank(np.delete(np.delete(gram, j, axis=0), j, axis=1)) == rank]


def _check_rows(n: int, p: int) -> None:
    if n <= p + 1:
        raise ValueError(f"need more observations ({n}) than parameters ({p + 1})")


def _check_rank(gram: np.ndarray, names) -> None:
    """ValueError naming the collinear columns unless ``gram`` (a multiple of Z'Z) has full rank."""
    if _gram_rank(gram) < len(gram):
        raise ValueError(f"singular design; collinear columns: {_collinear_columns(gram, names)}")


def _response(y, n: int, binary: bool) -> np.ndarray:
    """``y`` as floats, checked to hold one finite (if ``binary``, 0/1) value per row of ``n``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError("outcome length does not match design rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("outcome contains non-finite values")
    if binary and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("binary outcome must contain only Short/Long (0/1) values")
    return y


def _weighted_gram(Z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Z'WZ for the IRLS weights of ``mu``, summed over blocks of
    ``_GRAM_BLOCK`` rows; a design of one block is a single product."""
    w = np.clip(mu * (1.0 - mu), _MU_CLIP, None)
    gram = np.zeros((Z.shape[1], Z.shape[1]))
    for start in range(0, len(Z), _GRAM_BLOCK):
        block = Z[start:start + _GRAM_BLOCK]
        gram += block.T @ (block * w[start:start + _GRAM_BLOCK, None])
    return gram


def _irls(Z: np.ndarray, y: np.ndarray, names,
          start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Logistic maximum likelihood on an intercept-prefixed design with
    feature columns ``names``, from the coefficients ``start`` (default
    zero): the coefficients, their fitted probabilities, the deviance and
    whether the fit converged. The design must have more rows than
    parameters, then full column rank; otherwise ValueError, in that order of
    checks. The rank check reads Z'Z / 4, the first iteration's Gram from a
    zero start."""
    _check_rows(len(Z), len(names))
    mu = np.full(len(Z), 0.5)  # the fitted probabilities at beta = 0, where every weight is 1/4
    if start is None:
        beta = np.zeros(Z.shape[1])
    else:
        _check_rank(_weighted_gram(Z, mu), names)
        beta, mu = start, _sigmoid(Z @ start)
    # mu is always the fitted probabilities of beta
    deviance = _binomial_deviance(y, mu)
    converged = False
    for iteration in range(_MAX_IRLS_ITER):
        xtwx = _weighted_gram(Z, mu)
        if not iteration and start is None:
            _check_rank(xtwx, names)
        score = Z.T @ (y - mu)
        try:
            delta = np.linalg.solve(xtwx, score)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(xtwx, score, rcond=None)[0]

        step = 1.0
        trial = beta + delta
        trial_mu = _sigmoid(Z @ trial)
        trial_dev = _binomial_deviance(y, trial_mu)
        while trial_dev > deviance + 1e-10 and step > 1e-10:
            step *= 0.5
            trial = beta + step * delta
            trial_mu = _sigmoid(Z @ trial)
            trial_dev = _binomial_deviance(y, trial_mu)

        change = float(np.max(np.abs(trial - beta)))
        beta, mu, deviance = trial, trial_mu, trial_dev
        if change < _IRLS_TOL:
            converged = True
            break
        if np.max(np.abs(beta)) > 1e8:  # diverging: separation
            break
    return beta, mu, deviance, converged


def _standardized(model: FittedModel, design: DesignMatrix) -> np.ndarray:
    """``model``'s coefficients on ``design``'s standardized columns, the
    inverse of ``_fitted``'s map up to rounding."""
    mantissa, exponent = np.frexp(design.scale)
    slopes = np.ldexp(model.coefficients[1:], exponent) * mantissa
    return np.concatenate(([model.intercept + np.dot(design.center / design.scale, slopes)], slopes))


def _fitted(kind: str, design: DesignMatrix, beta: np.ndarray, cov: np.ndarray,
            deviance: float, converged: bool, p_value) -> FittedModel:
    """The model on the raw columns, beta_raw = T beta and cov_raw = T cov T',
    with ``p_value(b, se)`` the fit's rule. ``T`` is the powers of two of the
    scales (applied exactly, last) times a matrix of entries near 1."""
    mantissa, exponent = np.frexp(design.scale)
    T = np.diag(np.concatenate(([1.0], 1.0 / mantissa)))
    T[0, 1:] = -design.center / design.scale
    shift = np.concatenate(([0], -exponent))
    beta = np.ldexp(T @ beta, shift)
    se = np.ldexp(np.sqrt(np.clip(np.diag(T @ cov @ T.T), 0.0, None)), shift)
    return FittedModel(kind=kind, columns=tuple(design.columns), coefficients=tuple(float(b) for b in beta),
                       std_errors=tuple(float(s) for s in se), p_values=tuple(p_value(b, s) for b, s in zip(beta, se)),
                       deviance=deviance, converged=converged, n_obs=design.n)


def fit_logistic(design: DesignMatrix, y) -> FittedModel:
    """Maximum-likelihood logistic regression via IRLS with step halving.

    The outcome ``y`` must hold one 0/1 value per row. IRLS runs on the
    standardized design and converges when the largest coefficient change
    there drops below 1e-8 (at most 100 iterations). Perfect separation never
    converges and is reported via ``converged=False``; a singular design
    raises, naming the dependent columns.
    """
    y = _response(y, design.n, binary=True)
    # one class only is complete separation, which the fit reports
    beta, mu, deviance, converged = _irls(design.Z, y, design.columns)
    xtwx = _weighted_gram(design.Z, mu)
    try:
        cov = np.linalg.inv(xtwx)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(xtwx)
    return _fitted("logistic", design, beta, cov, deviance, converged,
                   lambda b, s: 1.0 if s == 0.0 or not math.isfinite(s) else normal_two_sided_p(b / s))


def fit_linear(design: DesignMatrix, y) -> FittedModel:
    """Ordinary least squares of ``y`` with t-statistics and two-sided
    p-values, solved on the Gram matrix of the standardized design."""
    y = _response(y, design.n, binary=False)
    _check_rows(design.n, len(design.columns))
    if float(np.var(y)) == 0.0:
        raise ValueError("degenerate variance: response is constant")
    Z = design.Z
    gram = Z.T @ Z
    _check_rank(gram, design.columns)
    beta = np.linalg.solve(gram, Z.T @ y)
    residuals = y - Z @ beta
    rss = float(residuals @ residuals)
    df = design.n - Z.shape[1]
    return _fitted("linear", design, beta, rss / df * np.linalg.inv(gram), rss, True,
                   lambda b, s: (0.0 if b != 0.0 else 1.0) if s == 0.0 else student_t_two_sided_p(b / s, df))


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, ...]  # ascending powers: intercept first
    r_squared: float
    residual_ss: float


def polyfit(x, y, degree: int) -> FitResult:
    """Least-squares polynomial fit of degree 1 or 2 with R-squared, by
    ``fit_linear`` on the powers of x minus its mean, mapped back to powers of
    x. Constant y has nothing to explain: the fit is the intercept alone and
    R-squared is defined as 0.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    x = _as_sample(x, "x", min_len=degree + 2)
    y = _as_sample(y, "y", min_len=degree + 2)
    if len(x) != len(y):
        raise ValueError(f"samples differ in length: {len(x)} vs {len(y)}")
    if np.all(x == x[0]):
        raise ValueError("x values are all identical; polynomial fit undefined")

    total_ss = float(np.sum((y - np.mean(y)) ** 2))
    if total_ss == 0.0:
        coefficients = tuple([float(y[0])] + [0.0] * degree)
        return FitResult(coefficients=coefficients, r_squared=0.0, residual_ss=0.0)

    center = float(np.mean(x))
    u = x - center
    try:  # the checks above leave a singular design as the one way to fail
        fit = fit_linear(DesignMatrix(["x", "x^2"][:degree], np.column_stack([u, u * u][:degree])), y)
    except ValueError as exc:
        raise ValueError(f"rank-deficient design for degree {degree} fit") from exc
    # b(x - center) expanded in powers of x; poly1d lists the highest first
    coef = np.polyval(fit.coefficients[::-1], np.poly1d([1.0, -center])).coeffs[::-1]
    r_squared = 1.0 - fit.deviance / total_ss
    return FitResult(coefficients=tuple(float(c) for c in coef) + (0.0,) * (degree + 1 - len(coef)),
                     r_squared=max(0.0, min(1.0, r_squared)),
                     residual_ss=fit.deviance)


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


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of each uint64 (Steele, Lea and Flood, OOPSLA
    2014): a bijection whose every output bit depends on every input bit."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _folds(y: np.ndarray, seed: int) -> np.ndarray:
    """The fold of each row: each class's rows, ordered by the hash of their
    position plus ``seed`` times the 64-bit golden ratio, dealt out in turn."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    offset = np.uint64(seed * _GOLDEN_GAMMA % 2**64)  # reduced in Python ints: no scalar overflow
    fold_of = np.empty(len(y), dtype=int)
    for cls in (0.0, 1.0):
        members = np.flatnonzero(y == cls)
        if len(members) < CV_FOLDS:
            raise ValueError(f"class {'Long' if cls else 'Short'} has fewer members ({len(members)}) than folds")
        order = np.argsort(_splitmix64(members.astype(np.uint64) + offset), kind="stable")
        fold_of[members[order]] = np.arange(len(members)) % CV_FOLDS
    return fold_of


def crossval(design: DesignMatrix, y, seed: int = 0, start: FittedModel | None = None) -> CvReport:
    """Stratified ``CV_FOLDS``-fold logistic cross-validation of ``y``, deterministic per seed.

    ``seed`` is an integer >= 0 (else TypeError or ValueError). Each class's
    rows are ordered by the SplitMix64 finalizer of their position plus
    ``seed`` times 0x9E3779B97F4A7C15, modulo 2**64, and dealt out to the
    folds in turn, so the fold sizes of a class differ by at most one.

    Each fold is fitted by ``_irls`` on a copy of its training rows of the
    design's standardized matrix, after its own row-count check and its rank
    check on Z'Z / 4 of those rows. When ``start``, a logistic fit of the
    whole design, converged, the fold fits start from its coefficients, near
    which every fold's optimum lies; otherwise from zero. Class metrics are
    computed on the pooled out-of-fold predictions at a 0.5 threshold; AUC is
    the rank statistic over the pooled probabilities.
    """
    y = _response(y, design.n, binary=True)
    if design.n < CV_FOLDS:
        raise ValueError(f"need at least {CV_FOLDS} rows for {CV_FOLDS}-fold cross-validation")
    fold_of = _folds(y, seed)
    beta0 = _standardized(start, design) if start is not None and start.converged else None

    Z = design.Z
    probabilities = np.empty(design.n)
    for fold in range(CV_FOLDS):
        test = fold_of == fold
        beta = _irls(Z[~test], y[~test], design.columns, beta0)[0]
        probabilities[test] = _sigmoid(Z[test] @ beta)

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


def impact_sizes(model: FittedModel, columns) -> list[ImpactEntry]:
    """Percent probability change when one feature moves median -> median + sd.

    ``columns`` maps each of the model's feature names to its raw values.
    All other features stay at their median; entries are ordered by
    descending magnitude.
    """
    if model.kind != "logistic":
        raise ValueError("impact sizes are defined for logistic models")
    p = len(model.columns)
    X = np.column_stack([columns[name] for name in model.columns]).astype(float, copy=False) if p else np.empty((0, 0))
    step = np.frexp(_magnitudes(X, axis=0))[1]  # so that the squares of the sds stay in range
    np.ldexp(X, -step, out=X)
    medians = np.ldexp(np.median(X, axis=0), step) if len(X) else np.zeros(p)
    sds = np.ldexp(np.std(X, axis=0, ddof=1), step) if len(X) > 1 else np.zeros(p)
    base_eta = model.intercept
    for j, name in enumerate(model.columns):
        base_eta += model.coefficient(name) * float(medians[j])
    base = float(_sigmoid(np.array([base_eta]))[0])
    if base < 1e-12:
        raise ValueError("degenerate base probability")

    entries = []
    for j, name in enumerate(model.columns):
        dev_eta = base_eta + model.coefficient(name) * float(sds[j])
        dev = float(_sigmoid(np.array([dev_eta]))[0])
        entries.append(ImpactEntry(feature=name, impact=(dev - base) / base * 100.0))
    entries.sort(key=lambda e: (-abs(e.impact), e.feature))
    return entries


def correlation_filter(columns, pairs) -> list[FilterDecision]:
    """One decision per (keep, drop) pair of names in ``columns``, a mapping
    of names to raw values: drop the second when |r| > ``CORRELATION_THRESHOLD``."""
    decisions = []
    for keep, drop in pairs:
        x, y = columns[keep], columns[drop]
        r = None if np.ptp(x) == 0 or np.ptp(y) == 0 else pearson_r(x, y)
        decisions.append(FilterDecision(keep, drop, r, dropped=r is not None and abs(r) > CORRELATION_THRESHOLD))
    return decisions

"""Statistical primitives: Welch and paired t-tests, Cohen's d, Bonferroni
adjustment, Pearson correlation, and polynomial least squares with R-squared.

Tail probabilities come from in-module incomplete beta/gamma evaluations
(continued fractions, ~1e-14), so no statistics library is required at
runtime and the test suite can verify against independent oracles.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 500

# Cohen's d interpretation thresholds on |d|.
D_LABELS = (
    (0.2, "trivial"),
    (0.5, "small"),
    (0.8, "medium"),
    (math.inf, "large"),
)


class DegenerateVarianceWarning(UserWarning):
    """Emitted when a comparison is made between zero-variance samples."""


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's continued fraction for the incomplete beta function.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("betainc_reg requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value for a Student-t statistic with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return betainc_reg(df / 2.0, 0.5, x)


def _gamma_series(a: float, x: float) -> float:
    # Series for the lower regularized incomplete gamma P(a, x), x < a + 1.
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ArithmeticError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _gamma_contfrac(a: float, x: float) -> float:
    # Continued fraction for the upper regularized incomplete gamma Q(a, x).
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ArithmeticError(f"incomplete gamma continued fraction did not converge (a={a}, x={x})")


def chi2_sf(x: float, df: float) -> float:
    """Upper tail probability of a chi-square distribution."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    a = df / 2.0
    half = x / 2.0
    # exp underflows for extreme statistics; the tail is then numerically zero
    if -half + a * math.log(half) - math.lgamma(a) < -745.0:
        return 0.0
    if half < a + 1.0:
        return 1.0 - _gamma_series(a, half)
    return _gamma_contfrac(a, half)


def normal_two_sided_p(z: float) -> float:
    """Two-sided p-value for a standard normal statistic."""
    if math.isinf(z):
        return 0.0
    return math.erfc(abs(z) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# test results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonResult:
    mean_a: float
    mean_b: float
    t: float
    p: float
    d: float
    d_label: str
    significant: bool


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, ...]  # ascending powers: intercept first
    r_squared: float
    residual_ss: float

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        y = np.zeros_like(x)
        for power, coef in enumerate(self.coefficients):
            y += coef * x**power
        return y


def label_effect_size(d: float) -> str:
    """Interpret |d| on the conventional trivial/small/medium/large scale."""
    magnitude = abs(d)
    for bound, label in D_LABELS:
        if magnitude < bound:
            return label
    return "large"


def _as_sample(values, name: str, min_len: int = 2) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if len(arr) < min_len:
        raise ValueError(f"{name} needs at least {min_len} observations, got {len(arr)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def cohens_d(a, b) -> float:
    """Pooled-standard-deviation Cohen's d, (mean_a - mean_b) / s_pooled."""
    a = _as_sample(a, "a")
    b = _as_sample(b, "b")
    na, nb = len(a), len(b)
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    pooled = math.sqrt(((na - 1) * va + (nb - 1) * vb) / (na + nb - 2))
    if pooled == 0.0:
        raise ValueError("degenerate variance: both samples are constant")
    return (float(np.mean(a)) - float(np.mean(b))) / pooled


def welch_t_test(a, b, alpha: float = 0.05) -> ComparisonResult:
    """Two-sided Welch (unequal variance) t-test between independent samples.

    Degenerate inputs are mapped rather than rejected: two identical constant
    samples give t=0, p=1; two different constant samples give p=0 with a
    DegenerateVarianceWarning.
    """
    a = _as_sample(a, "a")
    b = _as_sample(b, "b")
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    na, nb = len(a), len(b)

    if va == 0.0 and vb == 0.0:
        if mean_a == mean_b:
            return ComparisonResult(mean_a, mean_b, t=0.0, p=1.0, d=0.0,
                                    d_label="trivial", significant=False)
        warnings.warn("both samples constant with different means; p forced to 0",
                      DegenerateVarianceWarning, stacklevel=2)
        t = math.inf if mean_a > mean_b else -math.inf
        d = math.copysign(math.inf, mean_a - mean_b)
        return ComparisonResult(mean_a, mean_b, t=t, p=0.0, d=d,
                                d_label="large", significant=True)

    sa, sb = va / na, vb / nb
    se = math.sqrt(sa + sb)
    t = (mean_a - mean_b) / se
    df_num = (sa + sb) ** 2
    df_den = 0.0
    if va > 0:
        df_den += sa**2 / (na - 1)
    if vb > 0:
        df_den += sb**2 / (nb - 1)
    df = df_num / df_den
    p = student_t_two_sided_p(t, df)

    d = cohens_d(a, b)
    return ComparisonResult(mean_a, mean_b, t=t, p=p, d=d,
                            d_label=label_effect_size(d), significant=p < alpha)


def paired_t_test(before, after, alpha: float = 0.05) -> ComparisonResult:
    """Paired t-test on index-matched samples; d = mean(after-before) / sd(diff).

    Positive d means the paired values increased.
    """
    before = _as_sample(before, "before")
    after = _as_sample(after, "after")
    if len(before) != len(after):
        raise ValueError(f"paired samples differ in length: {len(before)} vs {len(after)}")
    diffs = after - before
    mean_diff = float(np.mean(diffs))
    sd_diff = float(np.std(diffs, ddof=1))
    mean_a, mean_b = float(np.mean(before)), float(np.mean(after))

    if sd_diff == 0.0:
        if mean_diff == 0.0:
            return ComparisonResult(mean_a, mean_b, t=0.0, p=1.0, d=0.0,
                                    d_label="trivial", significant=False)
        warnings.warn("all paired differences identical and nonzero; p forced to 0",
                      DegenerateVarianceWarning, stacklevel=2)
        t = math.copysign(math.inf, mean_diff)
        return ComparisonResult(mean_a, mean_b, t=t, p=0.0, d=t,
                                d_label="large", significant=True)

    n = len(diffs)
    t = mean_diff / (sd_diff / math.sqrt(n))
    p = student_t_two_sided_p(t, n - 1)
    d = mean_diff / sd_diff
    return ComparisonResult(mean_a, mean_b, t=t, p=p, d=d,
                            d_label=label_effect_size(d), significant=p < alpha)


def bonferroni_alpha(alpha: float, comparisons: int) -> float:
    """Per-comparison significance level alpha / comparisons."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if comparisons < 1:
        raise ValueError(f"comparisons must be >= 1, got {comparisons}")
    return alpha / comparisons


def pearson_r(x, y) -> float:
    """Sample Pearson correlation; rejects zero-variance inputs."""
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    if len(x) != len(y):
        raise ValueError(f"samples differ in length: {len(x)} vs {len(y)}")
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance: correlation undefined")
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def polyfit(x, y, degree: int) -> FitResult:
    """Least-squares polynomial fit of degree 1 or 2 with R-squared.

    Constant y has nothing to explain: the fit is the intercept alone and
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

    design = np.vander(x, degree + 1, increasing=True)
    if np.linalg.matrix_rank(design) < degree + 1:
        raise ValueError(f"rank-deficient design for degree {degree} fit")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    residual_ss = float(np.dot(residuals, residuals))
    r_squared = 1.0 - residual_ss / total_ss
    return FitResult(coefficients=tuple(float(c) for c in coef),
                     r_squared=max(0.0, min(1.0, r_squared)),
                     residual_ss=residual_ss)

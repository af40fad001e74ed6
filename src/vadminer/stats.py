"""Statistical primitives: Welch and paired t-tests, Cohen's d, Bonferroni
adjustment, Pearson correlation, and tail probabilities; fits are in ``models``.

Tail probabilities come from in-module incomplete beta/gamma evaluations
(continued fractions and series, with Stirling's series for lgamma at large
arguments), so no statistics library is required at runtime and the test
suite can verify against independent oracles. Measured on seeded grids, the
t-test p-value's worst relative error against scipy (t from 1e-3 to 16) is
about 2e-14 for df below 100 and 1e-13 below 1,000; in each decade of df after
that it grows tenfold, to about 1e-9 at df 1e7, all of it from the direct
branch of the beta continued fraction at t of about 1.5 to 6. ``chi2_sf``'s,
against 60-digit mpmath, is below 2e-14 up to df 1,000 (x from df/2 to 3df/2)
and 3e-13 up to df 1e6 (x within eight standard deviations of df).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 500
# Stirling's series replaces lgamma from these a on: in the t tail's lgamma ratio,
# and in the incomplete gamma prefactor, where it keeps chi2_sf's bits below df 40
_STIRLING_MIN = 10.0
_GAMMA_STIRLING_MIN = 20.0

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

def _lentz(an: float, bn: float, c: float, d: float) -> tuple[float, float, float]:
    # One modified-Lentz step through the partial term an / (bn + ...): the new
    # c and d, each kept off zero, and the factor d * c that updates the fraction.
    d = bn + an * d
    if abs(d) < _FPMIN:
        d = _FPMIN
    c = bn + an / c
    if abs(c) < _FPMIN:
        c = _FPMIN
    d = 1.0 / d
    return c, d, d * c


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
        c, d, delta = _lentz(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        c, d, delta = _lentz(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def _stirling_tail(z: float) -> float:
    # lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), by Stirling's series;
    # the first term left out is below 1e-16 for z >= _STIRLING_MIN
    w = 1.0 / (z * z)
    inner = 1 / 1188 - w * (691 / 360360 - w / 156)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w * inner)))) / z


def _lgamma_ratio(a: float, b: float) -> float:
    # lgamma(a + b) - lgamma(a), without the cancellation of two large lgammas for large a
    if a < _STIRLING_MIN:
        return math.lgamma(a + b) - math.lgamma(a)
    return (a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b + _stirling_tail(a + b) - _stirling_tail(a)


def _betainc(a: float, b: float, x: float, y: float) -> float:
    # I_x(a, b), given both x and y = 1 - x to full precision
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    log_x = math.log1p(-y) if x > 0.5 else math.log(x)
    log_y = math.log1p(-x) if y > 0.5 else math.log(y)
    front = math.exp(_lgamma_ratio(a, b) - math.lgamma(b) + a * log_x + b * log_y)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value for a Student-t statistic with df degrees of freedom; NaN for a NaN t.

    An infinite df gives the limit, the normal tail.
    """
    if not df > 0:  # NaN df too
        raise ValueError("degrees of freedom must be positive")
    if math.isnan(t):
        return math.nan
    if math.isinf(df):
        return normal_two_sided_p(t)
    # I_x(df/2, 1/2) at x = df / (df + t^2); y = t^2 / (df + t^2) is computed on its
    # own, not as 1 - x, which would lose its digits for small t or large df.
    # An infinite t gives x = 0 and p = 0; t = 0 gives y = 0 and p = 1.
    a = df / 2.0
    tt = t * t
    x = df / (df + tt)
    if math.isfinite(t):
        if a < _FPMIN:  # p tends to 1 as df falls to 0, and is 1 to double precision here
            return 1.0
        if x < _FPMIN:
            # x underflows, or t^2 overflows: y and the continued fraction are 1 to double
            # precision, so p = x^a / (a B(a, 1/2)), with log x = log df - 2 log|t|
            log_x = math.log(df) - 2.0 * math.log(abs(t))
            return math.exp(a * log_x + math.lgamma(a + 0.5) - math.lgamma(a + 1.0) - math.lgamma(0.5))
    return _betainc(a, 0.5, x, tt / (df + tt))


def _gamma_log_front(a: float, x: float) -> float:
    # log(x^a e^-x / Gamma(a)), the factor in front of both incomplete gamma
    # expansions; for large a, without the cancellation of its large terms
    if a < _GAMMA_STIRLING_MIN:
        return -x + a * math.log(x) - math.lgamma(a)
    u = (x - a) / a
    # log(x / a): by log1p near x = a, where x / a would lose the digits of u
    log_ratio = math.log1p(u) if u > -0.5 else math.log(x) - math.log(a)
    return a * (log_ratio - u) + 0.5 * math.log(a / (2.0 * math.pi)) - _stirling_tail(a)


def _gamma_series(a: float, x: float) -> float:
    # Series for the lower regularized incomplete gamma P(a, x), x < a + 1.
    term = 1.0 / a
    total = term
    ap = a
    # near x = a the terms fall off only after some multiple of sqrt(a) of them
    for _ in range(_MAX_ITER + int(10.0 * math.sqrt(a))):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(_gamma_log_front(a, x))
    raise ArithmeticError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _gamma_contfrac(a: float, x: float) -> float:
    # Continued fraction for the upper regularized incomplete gamma Q(a, x).
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + int(10.0 * math.sqrt(a)) + 1):
        b += 2.0
        c, d, delta = _lentz(-i * (i - a), b, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(_gamma_log_front(a, x))
    raise ArithmeticError(f"incomplete gamma continued fraction did not converge (a={a}, x={x})")


def chi2_sf(x: float, df: float) -> float:
    """Upper tail probability of a chi-square distribution; NaN for a NaN x.

    An infinite df gives the limit, 1 at any finite x.
    """
    if not df > 0:  # NaN df too
        raise ValueError("degrees of freedom must be positive")
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if math.isinf(df):
        return 1.0
    a = df / 2.0
    half = x / 2.0
    if half < a + 1.0:
        return 1.0 - _gamma_series(a, half)
    # exp underflows for extreme statistics; the upper tail is then numerically zero
    if _gamma_log_front(a, half) < -745.0:
        return 0.0
    return _gamma_contfrac(a, half)


def normal_two_sided_p(z: float) -> float:
    """Two-sided p-value for a standard normal statistic; NaN for a NaN z."""
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


def _magnitudes(A: np.ndarray, axis: int | None = None) -> np.ndarray:
    """The largest magnitude in ``A``, per column for ``axis=0`` (0.0 for none), from its extremes, with no scratch."""
    return np.maximum(A.max(axis=axis, initial=0.0), -A.min(axis=axis, initial=0.0))


def _scaled(*samples: np.ndarray) -> tuple[list[np.ndarray], int]:
    """The samples times 2**-e, and the one exponent e that brings their
    largest magnitude into [0.5, 1).

    The scaling is exact, barring underflow of values far below the largest,
    so statistics that do not depend on scale keep every bit on ordinary data,
    while their squares and sums of squares can no longer underflow or overflow.
    A result in raw units, such as a mean, is exactly ``ldexp(result, e)``.
    """
    exponent = math.frexp(max(float(_magnitudes(sample)) for sample in samples))[1]
    return [np.ldexp(sample, -exponent) for sample in samples], exponent


def cohens_d(a, b) -> float:
    """Pooled-standard-deviation Cohen's d, (mean_a - mean_b) / s_pooled."""
    (a, b), _ = _scaled(_as_sample(a, "a"), _as_sample(b, "b"))
    na, nb = len(a), len(b)
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    pooled = math.sqrt(((na - 1) * va + (nb - 1) * vb) / (na + nb - 2))
    if pooled == 0.0:
        raise ValueError("degenerate variance: both samples are constant")
    return (float(np.mean(a)) - float(np.mean(b))) / pooled


def _comparison(mean_a: float, mean_b: float, t: float, df: float | None, d: float, alpha: float,
                flat: str = "") -> ComparisonResult:
    """The two-sided test of ``t`` on ``df`` degrees of freedom, effect size ``d``.
    ``df`` is None where the samples have no spread: ``t`` and ``d`` are then 0
    with p=1, or infinite with p=0 and a DegenerateVarianceWarning of ``flat``."""
    if df is None:
        if t:
            warnings.warn(flat, DegenerateVarianceWarning, stacklevel=3)
        p, significant = (0.0, True) if t else (1.0, False)
    else:
        p = student_t_two_sided_p(t, df)
        significant = p < alpha
    return ComparisonResult(mean_a, mean_b, t=t, p=p, d=d, d_label=label_effect_size(d), significant=significant)


def welch_t_test(a, b, alpha: float = 0.05) -> ComparisonResult:
    """Two-sided Welch (unequal variance) t-test between independent samples.

    Degenerate inputs are mapped rather than rejected: two identical constant
    samples give t=0, p=1; two different constant samples give p=0 with a
    DegenerateVarianceWarning.
    """
    (a, b), exponent = _scaled(_as_sample(a, "a"), _as_sample(b, "b"))
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    raw_a, raw_b = math.ldexp(mean_a, exponent), math.ldexp(mean_b, exponent)
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))

    if va == 0.0 and vb == 0.0:
        t = 0.0 if mean_a == mean_b else math.copysign(math.inf, mean_a - mean_b)
        return _comparison(raw_a, raw_b, t, None, t, alpha,
                           "both samples constant with different means; p forced to 0")

    na, nb = len(a), len(b)
    sa, sb = va / na, vb / nb
    t = (mean_a - mean_b) / math.sqrt(sa + sb)
    # a constant sample adds nothing to the Welch-Satterthwaite denominator
    df = (sa + sb) ** 2 / ((sa**2 / (na - 1) if va > 0 else 0.0) + (sb**2 / (nb - 1) if vb > 0 else 0.0))
    return _comparison(raw_a, raw_b, t, df, cohens_d(a, b), alpha)


def paired_t_test(before, after, alpha: float = 0.05) -> ComparisonResult:
    """Paired t-test on index-matched samples; d = mean(after-before) / sd(diff).

    Positive d means the paired values increased. Degenerate inputs are mapped
    rather than rejected: differences that are all zero give t=0, p=1;
    differences that are all one nonzero value give p=0 with a
    DegenerateVarianceWarning.
    """
    before = _as_sample(before, "before")
    after = _as_sample(after, "after")
    if len(before) != len(after):
        raise ValueError(f"paired samples differ in length: {len(before)} vs {len(after)}")
    (after, before), exponent = _scaled(after, before)
    diffs = after - before
    mean_diff = float(np.mean(diffs))
    sd_diff = float(np.std(diffs, ddof=1))
    mean_a, mean_b = math.ldexp(float(np.mean(before)), exponent), math.ldexp(float(np.mean(after)), exponent)

    if sd_diff == 0.0:
        t = 0.0 if mean_diff == 0.0 else math.copysign(math.inf, mean_diff)
        return _comparison(mean_a, mean_b, t, None, t, alpha,
                           "all paired differences identical and nonzero; p forced to 0")

    t = mean_diff / (sd_diff / math.sqrt(len(diffs)))
    return _comparison(mean_a, mean_b, t, len(diffs) - 1, mean_diff / sd_diff, alpha)


def bonferroni_alpha(alpha: float, comparisons: int) -> float:
    """Per-comparison significance level alpha / comparisons."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if comparisons < 1:
        raise ValueError(f"comparisons must be >= 1, got {comparisons}")
    return alpha / comparisons


def pearson_r(x, y) -> float:
    """Sample Pearson correlation; rejects zero-variance inputs. Like the
    t-tests, it does not depend on the scale of either sample."""
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    if len(x) != len(y):
        raise ValueError(f"samples differ in length: {len(x)} vs {len(y)}")
    # each sample, then its deviations, on a power-of-two scale of their own, which
    # cancels exactly in r, so no mean or sum of squares can overflow or underflow
    (x,), _ = _scaled(x)
    (y,), _ = _scaled(y)
    (dx,), _ = _scaled(x - np.mean(x))
    (dy,), _ = _scaled(y - np.mean(y))
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance: correlation undefined")
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))

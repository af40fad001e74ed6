import math

import numpy as np
import pytest
from scipy import stats as sps

from vadminer import stats
from vadminer.models import polyfit
from vadminer.stats import (
    DegenerateVarianceWarning,
    bonferroni_alpha,
    chi2_sf,
    cohens_d,
    label_effect_size,
    normal_two_sided_p,
    paired_t_test,
    pearson_r,
    student_t_two_sided_p,
    welch_t_test,
)

import oracles


def _sample_pairs(n_cases=24, seed=1234):
    rng = np.random.RandomState(seed)
    pairs = []
    for i in range(n_cases):
        na, nb = rng.randint(3, 30, size=2)
        scale = rng.choice([0.5, 1.0, 5.0])
        a = np.round(rng.normal(rng.uniform(-3, 3), scale, size=na), 6)
        b = np.round(rng.normal(rng.uniform(-3, 3), scale, size=nb), 6)
        pairs.append((a, b))
    return pairs


# ---------------------------------------------------------------------------
# tail-probability functions vs scipy
# ---------------------------------------------------------------------------

def test_student_t_tail_matches_scipy():
    for t in (-8.0, -2.5, -1.0, -0.2, 0.0, 0.3, 1.0, 2.2, 4.0, 12.0):
        for df in (1, 2, 3.7, 8, 25, 120, 2000.5):
            expected = 2.0 * sps.t.sf(abs(t), df)
            assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-12, rel=1e-9)


# the worst relative error allowed per decade of df, [lo, 10 * lo); the error grows
# with df in the continued fraction's direct branch, for t from about 1.5 to 6
T_TAIL_BOUNDS = {1: 1e-13, 10: 1e-13, 100: 1e-13, 1e3: 1e-12, 1e4: 2e-11, 1e5: 2e-10, 1e6: 1e-9}


@pytest.mark.parametrize("lo", sorted(T_TAIL_BOUNDS))
def test_student_t_tail_keeps_its_digits_per_df_decade(lo):
    rng = np.random.default_rng(int(math.log10(lo)))
    df = lo * 10.0 ** rng.uniform(0.0, 1.0, 1000)
    t = 10.0 ** rng.uniform(-3.0, math.log10(16.0), 1000)
    expected = 2.0 * sps.t.sf(t, df)
    actual = np.array([student_t_two_sided_p(float(ti), float(dfi)) for ti, dfi in zip(t, df)])
    assert np.max(np.abs(actual - expected) / expected) < T_TAIL_BOUNDS[lo]


def test_student_t_tail_tends_to_one_as_df_falls_to_zero():
    # x = df / (df + t^2) underflows, or t^2 overflows, at a finite t
    assert student_t_two_sided_p(2.0, 5e-324) == 2.0 * sps.t.sf(2.0, 5e-324) == 1.0
    assert student_t_two_sided_p(1e160, 1e-300) == 1.0
    for t in (-1e300, 1e200, 1e154, 3.0, 0.0):
        assert student_t_two_sided_p(t, 1e-310) == 1.0
    # an infinite t still gives 0
    assert student_t_two_sided_p(math.inf, 1e-300) == student_t_two_sided_p(-math.inf, 3.0) == 0.0


# (t, df, p) where x underflows: the tail is 2 atan(1 / t) / pi at df 1 and
# 1 - t / sqrt(2 + t^2) at df 2, which is 1 / t^2 to double precision here
UNDERFLOWING_X = [(t, 1.0, 2.0 * math.atan(1.0 / t) / math.pi) for t in (1e149, 1.5e150, 1e154, 1e160, 1e300)]
UNDERFLOWING_X += [(t, 2.0, t**-2) for t in (1e149, 1.5e150, 1e153)]


@pytest.mark.parametrize("t,df,p", UNDERFLOWING_X)
def test_student_t_tail_keeps_its_digits_where_x_underflows(t, df, p):
    assert student_t_two_sided_p(t, df) == pytest.approx(p, rel=1e-13, abs=0.0)


def test_chi2_tail_matches_scipy():
    for x in (0.01, 0.5, 1.0, 3.2, 7.0, 20.0, 55.0, 200.0):
        for df in (1, 2, 3, 9, 15.5, 40):
            expected = sps.chi2.sf(x, df)
            assert chi2_sf(x, df) == pytest.approx(expected, abs=1e-12, rel=1e-9)
    assert chi2_sf(0.0, 4) == 1.0
    assert chi2_sf(5000.0, 2) == 0.0  # numerically zero tail


@pytest.mark.parametrize("df", [2e4, 1e5, 1e6])
def test_chi2_tail_converges_at_large_df(df):
    # the series needs a multiple of sqrt(df) terms near x = df
    for x in (0.999 * df, df, 1.001 * df):
        assert chi2_sf(x, df) == pytest.approx(sps.chi2.sf(x, df), rel=1e-12)


def test_chi2_tail_keeps_its_digits_at_large_df():
    rng = np.random.default_rng(40)
    df = 10.0 ** rng.uniform(3.0, 6.0, 400)
    x = df * (1.0 + rng.uniform(-8.0, 8.0, 400) * np.sqrt(2.0 / df))
    expected = sps.chi2.sf(x, df)
    actual = np.array([chi2_sf(float(xi), float(dfi)) for xi, dfi in zip(x, df)])
    assert np.max(np.abs(actual - expected) / expected) < 1e-12


@pytest.mark.parametrize("x, df", [(40.0, 1000), (2.0, 400), (0.5, 1e6), (1e-3, 2000), (100.0, 2000),
                                   (1e-20, 100), (1e-14, 1e6)])
def test_chi2_tail_far_below_df_is_one(x, df):
    # the density's prefactor underflows here: that makes the lower tail 0, not the upper one
    assert chi2_sf(x, df) == pytest.approx(sps.chi2.sf(x, df), abs=1e-12, rel=1e-9)
    assert chi2_sf(x, df) == 1.0


@pytest.mark.parametrize("df", [1, 2, 15.5, 400])
def test_chi2_tail_of_an_infinite_statistic_is_zero(df):
    assert chi2_sf(math.inf, df) == sps.chi2.sf(math.inf, df) == 0.0


def _lentz_inputs(n=20_000, seed=27):
    """Seeded (function, args) pairs for the continued fractions: random ones in
    the range each serves, and families whose denominators reach ``_FPMIN``."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n // 2):
        a, b = 10.0 ** rng.uniform(-1.0, 4.0, size=2)
        cases.append((stats._betacf, float(a), float(b), float(rng.uniform(0.0, (a + 1.0) / (a + b + 2.0)))))
        a = float(10.0 ** rng.uniform(-1.0, math.log10(20.0)))
        cases.append((stats._gamma_contfrac, a, float(a + 1.0 + 10.0 ** rng.uniform(-3.0, 3.0))))
    for k in range(1, 27):
        # b0 = x + 1 - a = -2**-k makes the first step's d exactly zero
        s = 1.0 - 2.0**-k
        cases.append((stats._gamma_contfrac, 2.0 - s * s, 2.0**-k - 2.0**-(2 * k)))
    for a in np.arange(1, 40) / 4:
        # the first partial term is exactly -1, so the first step's c is zero
        cases.extend((stats._betacf, float(a), float(1.0 - (a + 1.0) * (a + 2.0) * 2.0**k), 2.0**-k)
                     for k in range(1, 8))
    for a, b in 10.0 ** rng.uniform(-1.0, 3.0, size=(200, 2)):
        # x = (a + 1) / (a + b) zeroes, or nearly zeroes, the set-up's d
        cases.append((stats._betacf, float(a), float(b + 1.0), float((a + 1.0) / (a + b + 1.0))))
    return cases


def _bits_or_error(function, *args):
    try:
        value = function(*args)
    except ArithmeticError as exc:
        return str(exc), 0
    return (value.hex(), None) if isinstance(value, float) else (value[0].hex(), value[1])


def test_continued_fractions_match_the_unshared_lentz_loops_bit_for_bit():
    references = {stats._betacf: oracles.betacf_reference,
                  stats._gamma_contfrac: oracles.gamma_contfrac_reference}
    clamped = 0
    for function, *args in _lentz_inputs():
        expected, clamps = _bits_or_error(references[function], *args)
        assert _bits_or_error(function, *args)[0] == expected, (function.__name__, args)
        clamped += bool(clamps)
    assert clamped >= 400


def test_normal_tail_matches_scipy():
    for z in (-6.0, -1.96, 0.0, 0.5, 2.0, 4.5):
        assert normal_two_sided_p(z) == pytest.approx(2.0 * sps.norm.sf(abs(z)), abs=1e-14, rel=1e-12)
    assert normal_two_sided_p(math.inf) == normal_two_sided_p(-math.inf) == 0.0


# one rule for the three tails: a NaN statistic gives a NaN p, and a NaN df
# is rejected as not positive
@pytest.mark.parametrize("tail, args", [
    (student_t_two_sided_p, (math.nan, 3.0)),
    (student_t_two_sided_p, (math.nan, 1e-300)),
    (chi2_sf, (math.nan, 3.0)),
    (chi2_sf, (math.nan, 1e6)),
    (normal_two_sided_p, (math.nan,)),
    (student_t_two_sided_p, (math.nan, math.inf)),
    (chi2_sf, (math.nan, math.inf)),
])
def test_tails_give_nan_for_a_nan_statistic(tail, args):
    assert math.isnan(tail(*args))


@pytest.mark.parametrize("tail, args", [
    (student_t_two_sided_p, (1.0, math.nan)),
    (student_t_two_sided_p, (math.nan, math.nan)),
    (student_t_two_sided_p, (math.inf, math.nan)),
    (chi2_sf, (3.0, math.nan)),
    (chi2_sf, (math.nan, math.nan)),
    (chi2_sf, (0.0, math.nan)),
])
def test_tails_reject_a_nan_df(tail, args):
    with pytest.raises(ValueError, match="degrees of freedom must be positive"):
        tail(*args)


# an infinite df is the limit: the t tail becomes the normal tail, and the
# chi-square tail is 1 at any finite x
@pytest.mark.parametrize("t", [0.0, 1e-3, 1.0, -1.96, 6.0, 40.0, 1e160, math.inf, -math.inf])
def test_student_t_tail_at_an_infinite_df_is_the_normal_tail(t):
    assert student_t_two_sided_p(t, math.inf) == normal_two_sided_p(t)


@pytest.mark.parametrize("x, p", [(0.0, 1.0), (3.0, 1.0), (1e6, 1.0), (1e300, 1.0), (math.inf, 0.0)])
def test_chi2_tail_at_an_infinite_df(x, p):
    assert chi2_sf(x, math.inf) == p


# ---------------------------------------------------------------------------
# Welch t
# ---------------------------------------------------------------------------

def test_welch_matches_oracle_on_fixed_cases():
    for a, b in _sample_pairs():
        t, p, _ = oracles.welch_oracle(a, b)
        result = welch_t_test(a, b)
        assert result.t == pytest.approx(t, abs=1e-9)
        assert result.p == pytest.approx(p, abs=1e-9)


def test_welch_textbook_example():
    result = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    t, p, _ = oracles.welch_oracle([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert result.t == pytest.approx(t, abs=1e-9)
    assert result.p == pytest.approx(p, abs=1e-9)


def test_welch_identical_samples():
    result = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.t == 0.0 and result.p == 1.0


def test_welch_planted_shift_significant():
    rng = np.random.RandomState(7)
    a = rng.normal(0.0, 1.0, size=10_000)
    b = rng.normal(0.3, 1.0, size=10_000)
    result = welch_t_test(a, b)
    assert result.p < 0.0025


def test_welch_swap_symmetry():
    a = [1.0, 2.5, 3.0, 4.8]
    b = [2.0, 2.2, 5.1]
    forward = welch_t_test(a, b)
    backward = welch_t_test(b, a)
    assert forward.p == pytest.approx(backward.p, abs=1e-15)
    assert forward.t == pytest.approx(-backward.t, abs=1e-15)


def test_welch_degenerate_branches():
    same = welch_t_test([2.0, 2.0], [2.0, 2.0, 2.0])
    assert same.t == 0.0 and same.p == 1.0 and same.d == 0.0
    with pytest.warns(DegenerateVarianceWarning):
        different = welch_t_test([2.0, 2.0], [3.0, 3.0])
    assert different.p == 0.0 and math.isinf(different.t)


def test_welch_rejects_tiny_samples():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# paired t
# ---------------------------------------------------------------------------

def test_paired_matches_oracle_on_fixed_cases():
    rng = np.random.RandomState(5150)
    for _ in range(22):
        n = rng.randint(3, 40)
        before = np.round(rng.normal(0, 1, size=n), 6)
        after = np.round(before + rng.normal(0.2, 0.8, size=n), 6)
        if np.std(after - before, ddof=1) == 0:
            continue
        t, p, d = oracles.paired_oracle(before, after)
        result = paired_t_test(before, after)
        assert result.t == pytest.approx(t, abs=1e-9)
        assert result.p == pytest.approx(p, abs=1e-9)
        assert result.d == pytest.approx(d, abs=1e-9)


def test_paired_identical():
    result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.t == 0.0 and result.p == 1.0 and result.d == 0.0


def test_paired_constant_shift_is_degenerate():
    with pytest.warns(DegenerateVarianceWarning):
        result = paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert result.p == 0.0 and math.isinf(result.t)


def test_paired_planted_delta_recovers_d():
    rng = np.random.RandomState(99)
    before = rng.normal(0.0, 1.0, size=5000)
    after = before + rng.normal(0.2, 1.0, size=5000)
    result = paired_t_test(before, after)
    assert abs(result.d - 0.2) < 0.05
    assert result.d > 0  # positive d means the values rose


def test_paired_length_mismatch():
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# Cohen's d
# ---------------------------------------------------------------------------

def test_cohens_d_matches_oracle_on_fixed_cases():
    for a, b in _sample_pairs(seed=777):
        assert cohens_d(a, b) == pytest.approx(oracles.cohens_d_oracle(a, b), abs=1e-9)


def test_cohens_d_hand_example():
    assert cohens_d([1, 2, 3], [3, 4, 5]) == pytest.approx(-2.0, abs=1e-12)


def test_cohens_d_identical():
    with pytest.raises(ValueError, match="degenerate variance"):
        cohens_d([1.0, 1.0], [1.0, 1.0])
    assert cohens_d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


SCALES = [1e-161, 1.0, 1e200]


@pytest.mark.parametrize("x", SCALES)
def test_welch_and_cohens_d_scale_free(x):
    # var([0, x]) = x**2/2: its square underflows to 0 at 1e-161 and the
    # variance itself overflows at 1e200 unless the samples are rescaled
    zeros = [0.0] * 200
    result = welch_t_test([0.0, x], zeros)
    assert result.t == pytest.approx(1.0, rel=1e-15)
    assert result.d == pytest.approx(10.0, rel=1e-15)
    assert result.p == pytest.approx(welch_t_test([0.0, 1.0], zeros).p, rel=1e-12)
    assert result.mean_a == x / 2
    assert cohens_d([0.0, x], zeros) == pytest.approx(10.0, rel=1e-15)


@pytest.mark.parametrize("d", SCALES)
def test_paired_scale_free(d):
    result = paired_t_test([0.0] * 3, [0.0, d, 2 * d])
    assert result.t == pytest.approx(math.sqrt(3), rel=1e-15)
    assert result.d == pytest.approx(1.0, rel=1e-15)
    assert result.p == pytest.approx(paired_t_test([0.0] * 3, [0.0, 1.0, 2.0]).p, rel=1e-12)


def test_paired_differences_that_overflow():
    # after - before overflows at 3.4e308; halving both samples cannot change t, p or d
    before, after = [-1.7e308, 0.0, 1.0], [1.7e308, 1.0, 3.0]
    result = paired_t_test(before, after)
    halved = paired_t_test([v * 0.5 for v in before], [v * 0.5 for v in after])
    assert (result.t, result.p, result.d) == (halved.t, halved.p, halved.d)
    assert (result.t, result.p) == (1.0000000000000002, 0.4226497308103744)


@pytest.mark.parametrize("test", [welch_t_test, paired_t_test])
def test_t_test_means_are_exact_next_to_the_float_maximum(test):
    # a raw mean of these samples overflows in its sum; any warning fails the test
    result = test([1.7e308, 1.7e308, 0.0], [0.0, 1.0, 2.0])
    assert (result.mean_a, result.mean_b) == (1.1333333333333334e+308, 1.0)


def test_t_test_means_equal_numpy_means_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        magnitude = 10.0 ** rng.uniform(-300, 300)
        n = int(rng.integers(2, 40))
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), size=n) * magnitude
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), size=n) * (magnitude * 10.0 ** rng.uniform(-3, 3))
        welch_b = b[:int(rng.integers(2, n + 1))]
        for result, sample_b in ((welch_t_test(a, welch_b), welch_b), (paired_t_test(a, b), b)):
            assert (result.mean_a, result.mean_b) == (float(np.mean(a)), float(np.mean(sample_b)))


def test_scale_free_variance_is_not_constant():
    # a variance below the smallest float is still a variance
    result = welch_t_test([0.0, 1e-170], [0.0] * 200)
    assert result.t == pytest.approx(1.0, rel=1e-15) and result.p > 0.4


def test_effect_size_labels():
    assert label_effect_size(0.324) == "small"
    assert label_effect_size(-0.324) == "small"
    assert label_effect_size(0.15) == "trivial"
    assert label_effect_size(0.2) == "small"
    assert label_effect_size(0.5) == "medium"
    assert label_effect_size(0.8) == "large"
    assert label_effect_size(3.0) == "large"


def test_cohens_d_antisymmetry_and_affine_invariance():
    rng = np.random.RandomState(3)
    for _ in range(20):
        a = rng.normal(0, 1, size=rng.randint(3, 15))
        b = rng.normal(0.5, 2, size=rng.randint(3, 15))
        d = cohens_d(a, b)
        assert cohens_d(b, a) == pytest.approx(-d, abs=1e-12)
        k, c = rng.uniform(0.1, 5), rng.uniform(-10, 10)
        assert cohens_d(k * a + c, k * b + c) == pytest.approx(d, abs=1e-9)


# ---------------------------------------------------------------------------
# Bonferroni
# ---------------------------------------------------------------------------

def test_bonferroni_values():
    assert bonferroni_alpha(0.05, 20) == 0.0025
    assert bonferroni_alpha(0.05, 1) == 0.05
    assert bonferroni_alpha(0.01, 4) == 0.0025


def test_bonferroni_monotone_and_errors():
    previous = 1.0
    for m in range(1, 30):
        value = bonferroni_alpha(0.05, m)
        assert value < previous or m == 1
        previous = value
    with pytest.raises(ValueError):
        bonferroni_alpha(0.05, 0)
    with pytest.raises(ValueError):
        bonferroni_alpha(0.0, 5)
    with pytest.raises(ValueError):
        bonferroni_alpha(1.5, 5)


# ---------------------------------------------------------------------------
# Pearson r
# ---------------------------------------------------------------------------

def test_pearson_fixed_table_matches_oracle():
    x = [0.5, 1.2, 2.4, 3.3, 4.1, 5.9, 6.2, 7.7, 8.4, 9.9]
    y = [1.1, 0.7, 2.9, 2.1, 4.8, 5.2, 5.9, 8.1, 7.4, 9.3]
    assert pearson_r(x, y) == pytest.approx(oracles.pearson_oracle(x, y), abs=1e-12)


def test_pearson_matches_oracle_on_fixed_cases():
    rng = np.random.RandomState(321)
    for _ in range(20):
        n = rng.randint(3, 50)
        x = rng.normal(0, 2, size=n)
        y = 0.4 * x + rng.normal(0, 1, size=n)
        assert pearson_r(x, y) == pytest.approx(oracles.pearson_oracle(x, y), abs=1e-12)


def test_pearson_exact_lines():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson_r(x, x) == pytest.approx(1.0, abs=1e-15)
    y = [-2.0 * v + 3.0 for v in x]
    assert pearson_r(x, y) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_zero_variance_errors():
    with pytest.raises(ValueError, match="zero variance"):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("k", [-1000, -560, 560, 1000, 1022])
def test_pearson_scale_free(k):
    # squares of values scaled by 2**560 overflow, and by 2**-560 underflow; at
    # 2**1022 the sum behind the mean overflows too
    rng = np.random.RandomState(13)
    x = rng.normal(0, 1, 40)
    y = 0.3 * x + rng.normal(0, 1, 40)
    r = pearson_r(x, y)
    assert pearson_r(x * 2.0**k, y * 2.0**k) == r
    assert pearson_r(x * 2.0**k, y) == r


def test_pearson_affine_invariance():
    rng = np.random.RandomState(8)
    x = rng.normal(0, 1, 30)
    y = rng.normal(0, 1, 30)
    r = pearson_r(x, y)
    assert pearson_r(3.0 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
    assert pearson_r(x, 0.5 * y - 7.0) == pytest.approx(r, abs=1e-12)


# ---------------------------------------------------------------------------
# polynomial fits
# ---------------------------------------------------------------------------

def test_polyfit_matches_oracle_on_fixed_cases():
    rng = np.random.RandomState(2024)
    for _ in range(20):
        n = rng.randint(6, 60)
        x = rng.uniform(-5, 5, size=n)
        y = 1.5 - 0.8 * x + 0.3 * x**2 + rng.normal(0, 0.5, size=n)
        for degree in (1, 2):
            coef, r2, rss = oracles.polyfit_oracle(x, y, degree)
            fit = polyfit(x, y, degree)
            assert np.allclose(fit.coefficients, coef, atol=1e-9)
            assert fit.r_squared == pytest.approx(r2, abs=1e-9)
            assert fit.residual_ss == pytest.approx(rss, abs=1e-9)


def test_polyfit_exact_quadratic():
    x = np.linspace(0, 10, 30)
    y = 2.0 - 3.0 * x + 0.5 * x**2
    fit = polyfit(x, y, 2)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(fit.coefficients, (2.0, -3.0, 0.5), atol=1e-9)


def test_polyfit_u_shape_prefers_quadratic():
    rng = np.random.RandomState(42)
    x = rng.uniform(1, 9, size=1000)
    y = (x - 5.0) ** 2 + rng.normal(0, 0.1, size=1000)
    linear = polyfit(x, y, 1)
    quadratic = polyfit(x, y, 2)
    assert quadratic.r_squared > linear.r_squared + 0.5


def test_polyfit_does_not_depend_on_the_offset_or_scale_of_x():
    # shifting or scaling x leaves the residuals, and so R-squared, as they are
    rng = np.random.RandomState(8)
    x = np.linspace(0.0, 8.0, 50)
    y = 3.0 + 0.6 * x - 0.2 * x**2 + rng.normal(0, 0.3, size=50)
    for degree in (1, 2):
        r2 = polyfit(x, y, degree).r_squared
        for moved in (x + 1e4, x + 1e5, x * 1e-9, x * 1e9):
            assert polyfit(moved, y, degree).r_squared == pytest.approx(r2, abs=1e-12)


def test_polyfit_constant_y():
    fit = polyfit([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0], 2)
    assert fit.r_squared == 0.0
    assert fit.coefficients == (5.0, 0.0, 0.0)


def test_polyfit_nested_r2():
    rng = np.random.RandomState(10)
    for _ in range(10):
        x = rng.uniform(-3, 3, 40)
        y = rng.normal(0, 1, 40)
        assert polyfit(x, y, 2).r_squared + 1e-12 >= polyfit(x, y, 1).r_squared


def test_polyfit_errors():
    with pytest.raises(ValueError, match="identical"):
        polyfit([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0], 1)
    with pytest.raises(ValueError, match="rank-deficient"):
        polyfit([1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0], 2)
    with pytest.raises(ValueError):
        polyfit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 2)  # too short for degree 2
    with pytest.raises(ValueError):
        polyfit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], 3)

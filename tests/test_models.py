import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from vadminer import models
from vadminer.models import (
    DesignMatrix,
    FittedModel,
    binarize_outcome,
    correlation_filter,
    crossval,
    fit_linear,
    fit_logistic,
    impact_sizes,
    lr_test,
    rank_auc,
    zero_r,
    _midranks,
    _sigmoid,
)

import oracles


def design_of(X, names=None):
    X = np.asarray(X, float)
    X = X[:, None] if X.ndim == 1 else X
    names = names or [f"x{i}" for i in range(X.shape[1])]
    return DesignMatrix(names, X)


# ---------------------------------------------------------------------------
# outcome binarization
# ---------------------------------------------------------------------------

def test_binarize_odd_median():
    assert binarize_outcome([1, 2, 3, 4, 5]).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]


def test_binarize_all_equal():
    assert binarize_outcome([7, 7, 7]).tolist() == [1.0, 1.0, 1.0]


def test_binarize_even_lower_median():
    assert binarize_outcome([1, 2, 3, 4]).tolist() == [0.0, 1.0, 1.0, 1.0]


def test_binarize_errors():
    with pytest.raises(ValueError):
        binarize_outcome([])
    with pytest.raises(ValueError):
        binarize_outcome([-1.0, 2.0])


# ---------------------------------------------------------------------------
# logistic fits
# ---------------------------------------------------------------------------

def test_logistic_recovers_planted_coefficient():
    rng = np.random.RandomState(17)
    x = rng.normal(0, 1, size=10_000)
    y = (rng.uniform(size=10_000) < sps.logistic.cdf(2.0 * x)).astype(float)
    model = fit_logistic(design_of(x), y)
    assert model.converged
    assert abs(model.coefficient("x0") - 2.0) < 0.1


def test_logistic_matches_high_precision_oracle():
    rng = np.random.RandomState(99)
    for _ in range(8):
        n = rng.randint(40, 90)
        X = rng.normal(0, 1, size=(n, rng.randint(1, 4)))
        eta = 0.3 + X @ rng.uniform(-1, 1, size=X.shape[1])
        y = (rng.uniform(size=n) < sps.logistic.cdf(eta)).astype(float)
        if y.sum() < 3 or y.sum() > n - 3:
            continue
        model = fit_logistic(design_of(X), y)
        beta, se, p, deviance = oracles.logistic_oracle(X, y)
        assert np.allclose(model.coefficients, beta, atol=1e-9)
        assert model.deviance == pytest.approx(deviance, abs=1e-9)
        assert np.allclose(model.std_errors, se, atol=1e-7)
        assert np.allclose(model.p_values, p, atol=1e-7)


def test_logistic_null_features_rarely_significant():
    rng = np.random.RandomState(5)
    clean = 0
    reps = 40
    for _ in range(reps):
        X = rng.normal(0, 1, size=(400, 3))
        y = (rng.uniform(size=400) < 0.5).astype(float)
        model = fit_logistic(design_of(X), y)
        if all(model.p_value(name) > 0.01 for name in model.columns):
            clean += 1
    assert clean >= 0.95 * reps


def test_logistic_intercept_only_balanced():
    y = np.array([0.0, 1.0] * 50)
    model = fit_logistic(DesignMatrix([], np.empty((100, 0))), y)
    assert abs(model.intercept) < 1e-6


def test_logistic_separation_flagged():
    x = np.concatenate([np.linspace(-2, -0.1, 30), np.linspace(0.1, 2, 30)])
    y = (x > 0).astype(float)
    model = fit_logistic(design_of(x), y)
    assert not model.converged


def test_logistic_step_halving_on_near_separated_design(monkeypatch):
    # a separable design on which a full IRLS step raises the deviance
    X = [[-4.0, -4.0], [-1.0, -3.0], [5.0, 2.0], [-4.0, 2.0], [-5.0, -4.0], [4.0, -4.0]]
    design, y = design_of(X), [1.0, 1.0, 1.0, 0.0, 0.0, 1.0]
    null_deviance = fit_logistic(DesignMatrix([], np.empty((6, 0))), y).deviance
    deviances = []
    binomial_deviance = models._binomial_deviance

    def recorded(y, mu):
        deviances.append(binomial_deviance(y, mu))
        return deviances[-1]

    monkeypatch.setattr(models, "_binomial_deviance", recorded)
    model = fit_logistic(design, y)
    assert not model.converged
    assert model.deviance < null_deviance
    # each call follows the accepted deviance, so a rise is a rejected full step
    assert any(later > earlier + 1e-10 for earlier, later in zip(deviances, deviances[1:]))
    # without halving there is one call before the loop and one per iteration
    assert len(deviances) > models._MAX_IRLS_ITER + 1


def test_logistic_singular_design_names_columns():
    rng = np.random.RandomState(1)
    x = rng.normal(0, 1, size=50)
    X = np.column_stack([x, 2.0 * x])
    y = (rng.uniform(size=50) < 0.5).astype(float)
    with pytest.raises(ValueError, match="x1"):
        fit_logistic(design_of(X, names=["x0", "x1"]), y)
    # the outcome is checked first, then the row count, then the rank
    labels = "only Short/Long \\(0/1\\) values"
    for outcome in (y + 2.0, np.where(y == 1.0, 0.5, 0.0)):
        with pytest.raises(ValueError, match=labels):
            fit_logistic(design_of(X, names=["x0", "x1"]), outcome)
        with pytest.raises(ValueError, match=labels):
            crossval(design_of(X, names=["x0", "x1"]), outcome, seed=0)
    with pytest.raises(ValueError, match=labels):
        fit_logistic(design_of(X[:3], names=["x0", "x1"]), y[:3] + 2.0)
    with pytest.raises(ValueError, match=r"need more observations \(3\) than parameters \(3\)"):
        fit_logistic(design_of(X[:3], names=["x0", "x1"]), y[:3])


def test_logistic_probabilities_in_unit_interval():
    rng = np.random.RandomState(11)
    X = rng.normal(0, 1, size=(200, 2))
    y = (rng.uniform(size=200) < sps.logistic.cdf(X[:, 0])).astype(float)
    model = fit_logistic(design_of(X), y)
    probs = model.predict_proba(X)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_logistic_nested_deviance_never_increases():
    rng = np.random.RandomState(23)
    X = rng.normal(0, 1, size=(300, 3))
    y = (rng.uniform(size=300) < sps.logistic.cdf(0.5 * X[:, 0])).astype(float)
    full = fit_logistic(design_of(X, names=["a", "b", "c"]), y)
    reduced = fit_logistic(design_of(X[:, :2], names=["a", "b"]), y)
    assert full.deviance <= reduced.deviance + 1e-9


# ---------------------------------------------------------------------------
# likelihood-ratio test
# ---------------------------------------------------------------------------

def test_lr_test_identical_models():
    rng = np.random.RandomState(2)
    X = rng.normal(0, 1, size=(120, 2))
    y = (rng.uniform(size=120) < 0.5).astype(float)
    model = fit_logistic(design_of(X, names=["a", "b"]), y)
    assert lr_test(model, model) == 1.0


def test_lr_test_planted_signal():
    rng = np.random.RandomState(3)
    noise = rng.normal(0, 1, size=10_000)
    signal = rng.normal(0, 1, size=10_000)
    y = (rng.uniform(size=10_000) < sps.logistic.cdf(signal)).astype(float)
    reduced = fit_logistic(design_of(noise, names=["noise"]), y)
    full = fit_logistic(design_of(np.column_stack([noise, signal]), names=["noise", "signal"]), y)
    assert lr_test(reduced, full) < 1e-10


def test_lr_test_null_uniform():
    rng = np.random.RandomState(7)
    p_values = []
    for _ in range(50):
        x = rng.normal(0, 1, size=500)
        noise = rng.normal(0, 1, size=500)
        y = (rng.uniform(size=500) < sps.logistic.cdf(0.5 * x)).astype(float)
        reduced = fit_logistic(design_of(x, names=["x"]), y)
        full = fit_logistic(design_of(np.column_stack([x, noise]), names=["x", "noise"]), y)
        p_values.append(lr_test(reduced, full))
    assert sps.kstest(p_values, "uniform").pvalue > 0.01


def test_lr_test_non_nested_rejected():
    rng = np.random.RandomState(4)
    X = rng.normal(0, 1, size=(80, 2))
    y = (rng.uniform(size=80) < 0.5).astype(float)
    model_a = fit_logistic(design_of(X[:, 0], names=["a"]), y)
    model_b = fit_logistic(design_of(X[:, 1], names=["b"]), y)
    with pytest.raises(ValueError, match="not nested"):
        lr_test(model_a, model_b)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_crossval_null_auc_near_half():
    rng = np.random.RandomState(12)
    X = rng.normal(0, 1, size=(10_000, 3))
    y = (rng.uniform(size=10_000) < 0.5).astype(float)
    report = crossval(design_of(X), y, seed=0)
    assert abs(report.auc - 0.5) < 0.02


def test_crossval_separable_auc():
    rng = np.random.RandomState(13)
    x = np.concatenate([rng.uniform(-3, -0.5, 300), rng.uniform(0.5, 3, 300)])
    y = (x > 0).astype(float)
    report = crossval(design_of(x), y, seed=1)
    assert report.auc > 0.99


def test_crossval_deterministic():
    rng = np.random.RandomState(14)
    X = rng.normal(0, 1, size=(300, 2))
    y = (rng.uniform(size=300) < sps.logistic.cdf(X[:, 0])).astype(float)
    design = design_of(X)
    assert crossval(design, y, seed=5) == crossval(design, y, seed=5)
    assert crossval(design, y, seed=5) != crossval(design, y, seed=6)


def _folds_reference(y, seed):
    """The fold rule in Python ints: each class's row positions ordered by the
    SplitMix64 finalizer of position + seed * 0x9E3779B97F4A7C15, mod 2**64,
    then dealt out to the folds in turn."""
    mask = 2**64 - 1

    def mix(x):
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
        return x ^ (x >> 31)

    folds = [None] * len(y)
    for cls in (0.0, 1.0):
        members = sorted((i for i in range(len(y)) if y[i] == cls),
                         key=lambda i: mix((i + seed * 0x9E3779B97F4A7C15) & mask))
        for k, i in enumerate(members):
            folds[i] = k % models.CV_FOLDS
    return folds


# every third row is Long: 10 Long and 20 Short rows
PINNED_FOLD_LABELS = (np.arange(30) % 3 == 0).astype(float)
PINNED_FOLDS = {
    0: [0, 8, 4, 2, 0, 9, 6, 2, 1, 5, 0, 5, 4, 5, 3, 1, 3, 4, 9, 7, 1, 8, 9, 6, 7, 2, 8, 3, 6, 7],
    7: [2, 5, 1, 0, 7, 9, 3, 8, 8, 5, 3, 3, 1, 0, 0, 6, 5, 1, 9, 9, 4, 8, 4, 6, 7, 7, 2, 4, 6, 2],
}


@pytest.mark.parametrize("seed", sorted(PINNED_FOLDS))
def test_crossval_folds_are_pinned(seed):
    # the folds come from an integer hash, not from numpy's random streams,
    # so no numpy release can move them
    assert models._folds(PINNED_FOLD_LABELS, seed).tolist() == PINNED_FOLDS[seed]
    assert _folds_reference(PINNED_FOLD_LABELS, seed) == PINNED_FOLDS[seed]


@pytest.mark.parametrize("n, long_share, seed", [(40, 0.5, 0), (57, 0.3, 5), (1000, 0.5, 6), (2345, 0.61, 2**70 + 3)])
def test_crossval_fold_sizes_differ_by_at_most_one_per_class(n, long_share, seed):
    y = (np.random.RandomState(n).uniform(size=n) < long_share).astype(float)
    folds = models._folds(y, seed)
    if n <= 1000:
        assert folds.tolist() == _folds_reference(y, seed)
    for cls in (0.0, 1.0):
        sizes = np.bincount(folds[y == cls], minlength=models.CV_FOLDS)
        assert len(sizes) == models.CV_FOLDS and sizes.max() - sizes.min() <= 1


def test_crossval_seeds_give_different_folds():
    y = (np.random.RandomState(21).uniform(size=300) < 0.5).astype(float)
    assert not np.array_equal(models._folds(y, 5), models._folds(y, 6))
    assert np.array_equal(models._folds(y, np.int64(5)), models._folds(y, 5))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError), (2.5, TypeError), ("3", TypeError)])
def test_crossval_rejects_a_seed_that_is_negative_or_not_an_integer(seed, error):
    x = np.arange(40.0)
    with pytest.raises(error):
        crossval(design_of(x), (x % 2 == 0).astype(float), seed=seed)


def test_crossval_requires_class_support():
    x = np.arange(20.0)
    y = np.array([1.0] * 15 + [0.0] * 5)
    with pytest.raises(ValueError, match="fewer members"):
        crossval(design_of(x), y, seed=0)


def test_rank_auc_matches_scipy():
    rng = np.random.RandomState(15)
    scores = rng.normal(0, 1, size=200)
    labels = (rng.uniform(size=200) < 0.4).astype(float)
    assert rank_auc(scores, labels) == pytest.approx(oracles.auc_oracle(scores, labels), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.RandomState(16)
    scores = rng.uniform(0.01, 0.99, size=300)
    labels = (rng.uniform(size=300) < scores).astype(float)
    base = rank_auc(scores, labels)
    assert rank_auc(np.log(scores / (1 - scores)), labels) == pytest.approx(base, abs=1e-12)


def loop_midranks(values):
    # reference: the tie-group walk the vectorized version replaced
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=float)
    sorted_values = values[order]
    i = 0
    while i < len(sorted_values):
        j = i
        while j + 1 < len(sorted_values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@pytest.mark.parametrize("values", [
    [0.3], [2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0], [0.5, 0.1, 0.5, 0.9, 0.1, 0.5, 0.0],
    np.random.RandomState(17).randint(0, 6, size=500) / 5.0,
    np.random.RandomState(18).uniform(size=1000),
])
def test_midranks_equal_loop_reference(values):
    values = np.asarray(values, dtype=float)
    assert np.array_equal(_midranks(values), loop_midranks(values))


def masked_sigmoid(eta):
    # reference: the masked evaluation the branch-free version replaced
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expe = np.exp(eta[~pos])
    out[~pos] = expe / (1.0 + expe)
    return out


def test_sigmoid_equals_masked_reference():
    edges = np.array([745.0, -745.0, 1000.0, -1000.0, 0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7])
    rng = np.random.RandomState(19)
    for eta in (edges, rng.normal(0, 5, size=2000), rng.normal(0, 400, size=2000), edges[4:6]):
        got, expected = _sigmoid(eta), masked_sigmoid(eta)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


# ---------------------------------------------------------------------------
# ZeroR baseline
# ---------------------------------------------------------------------------

def test_zero_r_majority_share():
    labels = [1.0] * 565 + [0.0] * 435
    report = zero_r(labels)
    assert report.long.precision == pytest.approx(0.565, abs=1e-12)
    assert report.long.recall == 1.0
    assert report.long.f1 == pytest.approx(2 * 0.565 / 1.565, abs=1e-12)
    assert round(report.long.f1, 3) == 0.722
    assert report.short.precision == 0.0 and report.short.recall == 0.0 and report.short.f1 == 0.0
    assert report.auc == 0.5
    # weighted rows follow from class support
    assert round(report.weighted_precision, 3) == 0.319
    assert round(report.weighted_recall, 3) == 0.565
    assert round(report.weighted_f1, 3) == 0.408


def test_zero_r_tie_breaks_long():
    report = zero_r([1.0, 0.0, 1.0, 0.0])
    assert report.long.precision == 0.5
    assert report.long.recall == 1.0
    assert report.long.f1 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_zero_r_all_long():
    report = zero_r([1.0, 1.0, 1.0])
    assert report.long.precision == 1.0 and report.long.recall == 1.0 and report.long.f1 == 1.0
    assert report.short.precision == 0.0 and report.short.f1 == 0.0


# ---------------------------------------------------------------------------
# impact sizes
# ---------------------------------------------------------------------------

def _columns_with_stats(medians, sds, names):
    # three rows are enough to pin median and sd exactly for symmetric data
    return {name: np.array([median - sd, median, median + sd]) for name, median, sd in zip(names, medians, sds)}


def test_impact_closed_form():
    from vadminer.models import FittedModel
    columns = _columns_with_stats([0.0], [1.0], ["x"])
    model = FittedModel(kind="logistic", columns=("x",), coefficients=(0.0, 1.0),
                        std_errors=(0.1, 0.1), p_values=(1.0, 0.001), deviance=1.0,
                        converged=True, n_obs=3)
    (entry,) = impact_sizes(model, columns)
    expected = (1.0 / (1.0 + math.exp(-1.0)) - 0.5) / 0.5 * 100.0
    assert entry.impact == pytest.approx(expected, abs=1e-9)
    assert entry.impact == pytest.approx(46.2117157, abs=1e-4)


def test_impact_zero_coefficient():
    from vadminer.models import FittedModel
    columns = _columns_with_stats([2.0, 5.0], [1.0, 2.0], ["a", "b"])
    model = FittedModel(kind="logistic", columns=("a", "b"), coefficients=(-2.0, 1.0, 0.0),
                        std_errors=(0.1, 0.1, 0.1), p_values=(0.1, 0.1, 0.9), deviance=1.0,
                        converged=True, n_obs=3)
    impacts = {e.feature: e.impact for e in impact_sizes(model, columns)}
    assert impacts["b"] == 0.0


def test_impacts_are_one_at_a_time():
    # odds multiply when both features move, so impacts must not add
    from vadminer.models import FittedModel
    columns = _columns_with_stats([0.0, 0.0], [1.0, 1.0], ["a", "b"])
    model = FittedModel(kind="logistic", columns=("a", "b"), coefficients=(0.0, 1.0, 1.0),
                        std_errors=(0.1, 0.1, 0.1), p_values=(0.001, 0.001, 0.001), deviance=1.0,
                        converged=True, n_obs=3)
    impacts = {e.feature: e.impact for e in impact_sizes(model, columns)}
    single = (sps.logistic.cdf(1.0) - 0.5) / 0.5 * 100.0
    both = (sps.logistic.cdf(2.0) - 0.5) / 0.5 * 100.0
    assert impacts["a"] == pytest.approx(single, abs=1e-9)
    assert impacts["b"] == pytest.approx(single, abs=1e-9)
    assert both != pytest.approx(impacts["a"] + impacts["b"], abs=1.0)


def test_impact_sign_follows_coefficient():
    rng = np.random.RandomState(31)
    X = rng.normal(0, 1, size=(500, 3))
    y = (rng.uniform(size=500) < sps.logistic.cdf(X @ np.array([1.0, -0.7, 0.3]))).astype(float)
    model = fit_logistic(design_of(X, names=["a", "b", "c"]), y)
    for entry in impact_sizes(model, dict(zip(["a", "b", "c"], X.T))):
        assert math.copysign(1.0, entry.impact) == math.copysign(1.0, model.coefficient(entry.feature))


def test_impacts_sorted_by_magnitude():
    rng = np.random.RandomState(37)
    X = rng.normal(0, 1, size=(400, 3))
    y = (rng.uniform(size=400) < sps.logistic.cdf(X @ np.array([2.0, 0.5, -1.0]))).astype(float)
    model = fit_logistic(design_of(X, names=["a", "b", "c"]), y)
    impacts = impact_sizes(model, dict(zip(["a", "b", "c"], X.T)))
    magnitudes = [abs(e.impact) for e in impacts]
    assert magnitudes == sorted(magnitudes, reverse=True)


# ---------------------------------------------------------------------------
# correlation filter
# ---------------------------------------------------------------------------

def _kept(names, decisions):
    dropped = {decision.drop for decision in decisions if decision.dropped}
    return [name for name in names if name not in dropped]


def test_filter_drops_identical_column():
    rng = np.random.RandomState(41)
    v = rng.normal(0, 1, size=100)
    decisions = correlation_filter({"v": v, "d": v.copy()}, [("v", "d")])
    assert decisions[0].dropped and decisions[0].r == pytest.approx(1.0)
    assert _kept(["v", "d"], decisions) == ["v"]


def test_filter_keeps_independent_noise():
    rng = np.random.RandomState(43)
    a = rng.normal(0, 1, size=10_000)
    b = rng.normal(0, 1, size=10_000)
    decisions = correlation_filter({"a": a, "b": b}, [("a", "b")])
    assert not decisions[0].dropped
    assert abs(decisions[0].r) < 0.1
    assert _kept(["a", "b"], decisions) == ["a", "b"]


def test_filter_boundary_exactly_point_seven_retained():
    # integer vectors engineered so the sample r is exactly 0.7 in floats
    x = np.array([-6.0, -2.0, 4.0, 4.0]) + 10.0
    y = np.array([-6.0, 3.0, 1.0, 2.0]) + 10.0
    decisions = correlation_filter({"v": x, "d": y}, [("v", "d")])
    assert decisions[0].r == 0.7
    assert not decisions[0].dropped
    assert _kept(["v", "d"], decisions) == ["v", "d"]


def test_filter_constant_column_has_no_r_and_drops_nothing():
    v = np.arange(10.0)
    constant = np.full(10, 5.0)
    decisions = correlation_filter({"v": v, "d": constant, "c": constant.copy()},
                                   [("v", "d"), ("d", "v"), ("d", "c")])
    assert [(d.r, d.dropped) for d in decisions] == [(None, False)] * 3
    assert _kept(["v", "d", "c"], decisions) == ["v", "d", "c"]


# ---------------------------------------------------------------------------
# linear fits
# ---------------------------------------------------------------------------

def test_linear_exact_fit():
    x = np.arange(10.0)
    y = 3.0 * x + 2.0
    model = fit_linear(DesignMatrix(["x"], x[:, None]), y)
    assert model.intercept == pytest.approx(2.0, abs=1e-9)
    assert model.coefficient("x") == pytest.approx(3.0, abs=1e-9)
    assert model.p_value("x") == pytest.approx(0.0, abs=1e-12)


def test_linear_matches_oracle_on_fixed_cases():
    rng = np.random.RandomState(2025)
    for _ in range(20):
        n = rng.randint(15, 60)
        X = rng.normal(0, 1, size=(n, rng.randint(1, 4)))
        y = 1.0 + X @ rng.uniform(-2, 2, size=X.shape[1]) + rng.normal(0, 0.5, size=n)
        names = [f"x{i}" for i in range(X.shape[1])]
        model = fit_linear(DesignMatrix(names, X), y)
        beta, se, p, rss = oracles.ols_oracle(X, y)
        assert np.allclose(model.coefficients, beta, atol=1e-9)
        assert np.allclose(model.std_errors, se, atol=1e-9)
        assert np.allclose(model.p_values, p, atol=1e-9)
        assert model.deviance == pytest.approx(rss, abs=1e-9)


def test_linear_planted_signs():
    rng = np.random.RandomState(50)
    priority = rng.randint(1, 6, size=10_000).astype(float)
    comments = rng.poisson(4, size=10_000).astype(float)
    y = 0.5 * priority - 0.2 * comments + rng.normal(0, 1, size=10_000)
    model = fit_linear(DesignMatrix(["priority", "comments"], np.column_stack([priority, comments])), y)
    assert model.coefficient("priority") > 0 and model.p_value("priority") < 0.001
    assert model.coefficient("comments") < 0 and model.p_value("comments") < 0.001


def test_linear_null_predictor_rarely_significant():
    rng = np.random.RandomState(51)
    clean = 0
    reps = 40
    for _ in range(reps):
        x = rng.normal(0, 1, size=300)
        noise = rng.normal(0, 1, size=300)
        y = 0.8 * x + rng.normal(0, 1, size=300)
        model = fit_linear(DesignMatrix(["x", "noise"], np.column_stack([x, noise])), y)
        if model.p_value("noise") >= 0.001:
            clean += 1
    assert clean >= 0.95 * reps


def test_linear_degenerate_and_singular():
    x = np.arange(10.0)
    with pytest.raises(ValueError, match="constant"):
        fit_linear(DesignMatrix(["x"], x[:, None]), np.full(10, 3.0))
    X = np.column_stack([x, x])
    with pytest.raises(ValueError, match="collinear"):
        fit_linear(DesignMatrix(["a", "b"], X), x + 1.0)
    # the row count is checked first, then the response, then the rank
    with pytest.raises(ValueError, match=r"need more observations \(3\) than parameters \(3\)"):
        fit_linear(DesignMatrix(["a", "b"], X[:3]), np.full(3, 3.0))
    with pytest.raises(ValueError, match="degenerate variance: response is constant"):
        fit_linear(DesignMatrix(["a", "b"], X), np.full(10, 3.0))


# ---------------------------------------------------------------------------
# standardized fits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fit", [fit_logistic, fit_linear])
def test_fits_invariant_to_column_scale_and_shift(fit):
    rng = np.random.RandomState(61)
    X = rng.normal(0, 1, size=(500, 3))
    eta = 0.2 + X @ np.array([0.8, -0.5, 0.3])
    if fit is fit_logistic:
        y = (rng.uniform(size=500) < sps.logistic.cdf(eta)).astype(float)
    else:
        y = eta + rng.normal(0, 1, size=500)
    base = fit(design_of(X), y)
    # the column of 1e306 * (x + 4) is positive, so its sum leaves the float range
    for factor, shift in ((1e6, 1e3), (1e306, 4e306)):
        moved = X.copy()
        moved[:, 1] = moved[:, 1] * factor + shift
        model = fit(design_of(moved), y)
        # slopes and the deviance do not move; the intercept moves with the offset
        assert model.p_values[1:] == pytest.approx(base.p_values[1:], rel=1e-9, abs=0.0)
        assert model.deviance == pytest.approx(base.deviance, rel=1e-9, abs=0.0)
        assert model.coefficient("x1") == pytest.approx(base.coefficient("x1") / factor, rel=1e-9, abs=0.0)
        assert model.std_errors[2] == pytest.approx(base.std_errors[2] / factor, rel=1e-9, abs=0.0)
        assert model.coefficient("x0") == pytest.approx(base.coefficient("x0"), rel=1e-9, abs=0.0)
        assert model.intercept == pytest.approx(base.intercept - shift * model.coefficient("x1"), rel=1e-9, abs=0.0)
    # the squares of these columns, or of the reciprocals of their sds, leave
    # the float range, and so do the centered values of the last (its largest
    # magnitude is just below the float maximum); any warning fails the test
    for factor in (1e-200, 1e-160, 1e160, 1e300, 1e306, 0.999 * np.finfo(float).max / np.abs(X[:, 1]).max()):
        scaled = X.copy()
        scaled[:, 1] *= factor
        model = fit(design_of(scaled), y)
        assert model.p_values == pytest.approx(base.p_values, rel=1e-9, abs=0.0)
        assert model.coefficient("x1") == pytest.approx(base.coefficient("x1") / factor, rel=1e-9, abs=0.0)
        assert model.std_errors[2] == pytest.approx(base.std_errors[2] / factor, rel=1e-9, abs=0.0)


def test_impact_sizes_scale_free_at_extreme_column_scales():
    rng = np.random.RandomState(68)
    X = rng.normal(0, 1, size=(500, 2))
    y = (rng.uniform(size=500) < sps.logistic.cdf(0.2 + X @ np.array([0.8, -0.5]))).astype(float)
    base = impact_sizes(fit_logistic(design_of(X), y), {"x0": X[:, 0], "x1": X[:, 1]})
    for factor in (1e-200, 1e-160, 1e160, 1e300):
        impacts = impact_sizes(fit_logistic(design_of(X * [1.0, factor]), y),
                               {"x0": X[:, 0], "x1": X[:, 1] * factor})
        assert [entry.feature for entry in impacts] == [entry.feature for entry in base]
        assert [entry.impact for entry in impacts] == pytest.approx([entry.impact for entry in base], rel=1e-9)


@pytest.mark.parametrize("n", [1000, 20_000])
@pytest.mark.parametrize("collinear", [False, True])
def test_first_irls_gram_ranks_as_the_plain_gram(n, collinear):
    # at beta = 0 every IRLS weight is 1/4, so the logistic rank check can
    # read the first weighted Gram in place of Z'Z
    rng = np.random.RandomState(69)
    X = rng.normal(0, 1, size=(n, 4))
    if collinear:
        X[:, 3] = 2.0 * X[:, 0] - 3.0 * X[:, 2] + 1.0
    names = ["a", "b", "c", "d"]
    Z = design_of(X, names=names).Z
    plain, first = Z.T @ Z, models._weighted_gram(Z, np.full(n, 0.5))
    assert models._gram_rank(first) == models._gram_rank(plain) == 5 - collinear
    assert models._collinear_columns(first, names) == models._collinear_columns(plain, names)
    assert models._collinear_columns(plain, names) == (["a", "c", "d"] if collinear else [])


def test_design_standardizes_once_and_prefix():
    X = np.column_stack([np.arange(6.0), np.full(6, 4.0), [1e12, 0.0, 0.0, 0.0, 0.0, 0.0]])
    design = DesignMatrix(["a", "c", "big"], X)
    assert design.Z.shape == (6, 4)
    assert np.array_equal(design.Z[:, 0], np.ones(6))
    assert np.allclose(design.Z[:, [1, 3]].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(design.Z[:, [1, 3]].std(axis=0), 1.0, rtol=1e-12)
    # a constant column is centered but not scaled
    assert design.scale[1] == 1.0 and np.array_equal(design.Z[:, 2], np.zeros(6))
    first = design.prefix(1)
    assert first.columns == ["a"] and np.shares_memory(first.Z, design.Z)
    assert first.Z.shape == (6, 2) and first.center.shape == first.scale.shape == (1,)
    # no array of the design is, or views, the raw matrix it was built from
    held = [getattr(design, name) for name in DesignMatrix.__slots__]
    assert not any(np.shares_memory(value, X) for value in held if isinstance(value, np.ndarray))
    # a prefix is a fresh design of its columns, bit for bit, and fits as one;
    # products over the strided view may round differently in the last bits
    rng = np.random.RandomState(62)
    X = rng.normal(5, 3, size=(200, 3))
    y = (rng.uniform(size=200) < sps.logistic.cdf(X[:, 0] - 5)).astype(float)
    design = DesignMatrix(["a", "b", "c"], X)
    for k in range(4):
        prefix, fresh = design.prefix(k), DesignMatrix(["a", "b", "c"][:k], X[:, :k])
        assert prefix.columns == fresh.columns
        assert all(np.array_equal(getattr(prefix, name), getattr(fresh, name))
                   for name in ("Z", "center", "scale"))
        model, reference = fit_logistic(prefix, y), fit_logistic(fresh, y)
        inference = ("coefficients", "std_errors", "p_values")
        assert dataclasses.replace(model, **{name: getattr(reference, name) for name in inference}) == reference
        for name in inference:
            assert getattr(model, name) == pytest.approx(getattr(reference, name), rel=1e-12, abs=0.0)
        assert crossval(prefix, y, seed=3) == crossval(fresh, y, seed=3)


@pytest.mark.parametrize("fit", [fit_logistic, fit_linear])
def test_singular_design_names_columns_at_any_scale(fit):
    rng = np.random.RandomState(63)
    x = rng.normal(0, 1, size=80)
    y = (rng.uniform(size=80) < 0.5).astype(float)
    for scale in (1e-9, 1.0, 1e12):
        X = np.column_stack([x * scale, rng.normal(0, 1, size=80), 3.0 * x * scale + 7.0])
        with pytest.raises(ValueError) as raised:
            fit(design_of(X, names=["a", "b", "c"]), y)
        assert str(raised.value) == "singular design; collinear columns: ['a', 'c']"
    # a huge constant column is still the one named
    X = np.column_stack([x, np.full(80, 1e15)])
    with pytest.raises(ValueError, match=r"collinear columns: \['c'\]$"):
        fit(design_of(X, names=["a", "c"]), y)


def test_crossval_fold_rank_check_names_the_fold_columns():
    # one row carries the only nonzero value of "rare": the fold that holds
    # it out of training sees a constant column
    rng = np.random.RandomState(64)
    X = np.column_stack([rng.normal(0, 1, size=200), np.zeros(200)])
    X[0, 1] = 1.0
    y = (rng.uniform(size=200) < 0.5).astype(float)
    design = design_of(X, names=["x", "rare"])
    fit_logistic(design, y)  # the full design has full rank
    with pytest.raises(ValueError) as raised:
        crossval(design, y, seed=0)
    assert str(raised.value) == "singular design; collinear columns: ['rare']"


def test_crossval_from_the_full_fit_reports_as_from_zero(monkeypatch):
    # every fold's optimum lies near the fit of all rows; IRLS converges to it
    # from either start
    rng = np.random.RandomState(70)
    X = rng.normal(0, 1, size=(3000, 4)) * [1.0, 1e-6, 1e8, 3.0] + [0.0, 5.0, -2e9, 1.0]
    y = (rng.uniform(size=3000) < sps.logistic.cdf(X[:, 0] - 2e-6 * X[:, 3])).astype(float)
    design = design_of(X)
    model = fit_logistic(design, y)
    assert model.converged
    np.testing.assert_allclose(models._standardized(model, design),
                               models._irls(design.Z, y, design.columns)[0], rtol=1e-12, atol=1e-10)
    starts = []
    irls = models._irls

    def recorded(Z, y, names, start=None):
        starts.append(start)
        return irls(Z, y, names, start)

    monkeypatch.setattr(models, "_irls", recorded)
    for seed in (0, 9):
        assert crossval(design, y, seed=seed, start=model) == crossval(design, y, seed=seed)
    assert [start is None for start in starts] == ([False] * 10 + [True] * 10) * 2
    # a fit that did not converge gives the folds a zero start
    starts.clear()
    crossval(design, y, seed=0, start=dataclasses.replace(model, converged=False))
    assert starts == [None] * 10


def test_crossval_from_the_full_fit_checks_each_fold_rank():
    # "rare" is 1 on a Short and a Long row of one fold, so the fit of all rows
    # converges and that fold's training rows see a constant column
    rng = np.random.RandomState(71)
    x = rng.normal(0, 1, size=200)
    y = (rng.uniform(size=200) < 0.5).astype(float)
    fold_of = models._folds(y, 0)
    short = np.flatnonzero(y == 0.0)[0]
    long_ = np.flatnonzero((y == 1.0) & (fold_of == fold_of[short]))[0]
    rare = np.zeros(200)
    rare[[short, long_]] = 1.0
    design = design_of(np.column_stack([x, rare]), names=["x", "rare"])
    model = fit_logistic(design, y)
    assert model.converged
    with pytest.raises(ValueError) as raised:
        crossval(design, y, seed=0, start=model)
    assert str(raised.value) == "singular design; collinear columns: ['rare']"


@pytest.mark.parametrize("n", [1, 8192, 8193, 20_000])
def test_weighted_gram_sums_fixed_row_blocks(n):
    rng = np.random.RandomState(65)
    # a prefix's Z is a strided view, as rq3's stages pass it
    Z = DesignMatrix(["a", "b", "c", "d"], rng.normal(0, 1, size=(n, 4))).prefix(3).Z
    mu = rng.uniform(0, 1, size=n)
    w = np.clip(mu * (1.0 - mu), models._MU_CLIP, None)
    whole = Z.T @ (Z * w[:, None])
    assert models._GRAM_BLOCK == 8192
    if n <= models._GRAM_BLOCK:
        assert np.array_equal(models._weighted_gram(Z, mu), whole)
    else:  # a sum over blocks may round differently in the last bits
        np.testing.assert_allclose(models._weighted_gram(Z, mu), whole, rtol=1e-12, atol=0.0)


def test_fits_hold_no_scratch_of_the_design_size():
    rng = np.random.RandomState(66)
    X = rng.normal(0, 1, size=(30_000, 12))
    y = (rng.uniform(size=30_000) < sps.logistic.cdf(X @ rng.uniform(-0.5, 0.5, size=12))).astype(float)
    design = design_of(X)
    del X
    # a fit needs one block of scratch; a fold also copies its training rows
    for fit, bound in ((fit_logistic, 1.0), (lambda d, y: crossval(d, y, seed=0), 2.0)):
        tracemalloc.start()
        try:
            fit(design, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * design.Z.nbytes


def test_run_analyses_takes_no_svd_of_an_n_row_matrix(planted_scored, monkeypatch):
    from vadminer.analyses import run_analyses

    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    # matrix_rank and pinv call the svd of the module that defines them
    monkeypatch.setattr(getattr(np.linalg, "_linalg", None) or np.linalg.linalg, "svd", recorded)
    monkeypatch.setattr(np.linalg, "svd", recorded)
    assert np.linalg.matrix_rank(np.eye(3)) == 3 and shapes == [(3, 3)]
    shapes.clear()
    results = run_analyses(planted_scored, seed=4)
    rq3, rq4 = results.rq3, results.rq4
    assert results.summary.quadratic is not None and len(results.summary.valence) > 1000
    assert len(rq3.stages) == 3 and rq3.n_used > 1000
    assert min(rq4.n_designs.values()) > 100 and not rq4.notices
    assert [shape for shape in shapes if max(shape[-2:]) > 100] == []


_FIT = FittedModel(kind="logistic", columns=(), coefficients=(0.0,), std_errors=(1.0,),
                   p_values=(1.0,), deviance=1.0, converged=True, n_obs=3)


@pytest.mark.parametrize("call,message", [
    (lambda: DesignMatrix(["a", "a"], np.zeros((2, 2))), "duplicate column names in design matrix"),
    (lambda: DesignMatrix(["a"], np.zeros((2, 2))), "design matrix shape (2, 2) does not match 1 columns"),
    (lambda: DesignMatrix(["a"], [[math.nan], [1.0]]),
     "design matrix contains missing or non-finite cells"),
    (lambda: fit_linear(DesignMatrix(["a"], [[0.0], [1.0]]), [0.0, 1.0, 1.0]), "outcome length does not match design rows"),
    (lambda: crossval(DesignMatrix(["a"], [[0.0], [1.0]]), [[0.0, 1.0]]), "outcome length does not match design rows"),
    (lambda: fit_logistic(DesignMatrix(["a"], [[0.0], [1.0]]), [0.0, math.inf]), "outcome contains non-finite values"),
    (lambda: fit_linear(DesignMatrix(["a"], [[0.0], [1.0]]), [0.0, math.nan]), "outcome contains non-finite values"),
    (lambda: fit_logistic(DesignMatrix(["a"], np.empty((0, 1))), []), "need more observations (0) than parameters (2)"),
    (lambda: fit_linear(DesignMatrix([], np.empty((0, 0))), []), "need more observations (0) than parameters (1)"),
    (lambda: lr_test(_FIT, dataclasses.replace(_FIT, kind="linear")), "models are of different kinds"),
    (lambda: lr_test(_FIT, dataclasses.replace(_FIT, n_obs=4)), "models were fitted on different numbers of rows"),
    (lambda: rank_auc([0.2, 0.7], [1.0, 1.0]), "AUC needs both classes present"),
    (lambda: zero_r([]), "no labels"),
    (lambda: crossval(design_of(np.arange(9.0)), [0.0, 1.0] * 4 + [1.0], seed=0),
     "need at least 10 rows for 10-fold cross-validation"),
], ids=["duplicate columns", "shape", "non-finite cell", "outcome length", "outcome shape, crossval",
        "non-finite outcome", "non-finite outcome, linear",
        "no rows, logistic", "no rows, linear",
        "lr kinds", "lr rows", "auc one class", "zero_r empty", "crossval rows"])
def test_model_input_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message

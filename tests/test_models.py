import math

import numpy as np
import pytest
from scipy import stats as sps

from vadminer.models import (
    DesignMatrix,
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


def binary_design(X, y, names=None):
    X = np.atleast_2d(np.asarray(X, float))
    if X.shape[0] != len(y):
        X = X.T
    names = names or [f"x{i}" for i in range(X.shape[1])]
    return DesignMatrix(names, X, np.asarray(y, float))


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
    model = fit_logistic(binary_design(x, y))
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
        design = binary_design(X, y)
        model = fit_logistic(design)
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
        model = fit_logistic(binary_design(X, y))
        if all(model.p_value(name) > 0.01 for name in model.columns):
            clean += 1
    assert clean >= 0.95 * reps


def test_logistic_intercept_only_balanced():
    y = np.array([0.0, 1.0] * 50)
    design = DesignMatrix([], np.empty((100, 0)), y)
    model = fit_logistic(design)
    assert abs(model.intercept) < 1e-6


def test_logistic_separation_flagged():
    x = np.concatenate([np.linspace(-2, -0.1, 30), np.linspace(0.1, 2, 30)])
    y = (x > 0).astype(float)
    model = fit_logistic(binary_design(x, y))
    assert not model.converged


def test_logistic_singular_design_names_columns():
    rng = np.random.RandomState(1)
    x = rng.normal(0, 1, size=50)
    X = np.column_stack([x, 2.0 * x])
    y = (rng.uniform(size=50) < 0.5).astype(float)
    with pytest.raises(ValueError, match="x1"):
        fit_logistic(binary_design(X, y, names=["x0", "x1"]))
    # the outcome is checked first, then the row count, then the rank
    labels = "only Short/Long \\(0/1\\) values"
    for outcome in (y + 2.0, np.where(y == 1.0, 0.5, 0.0)):
        with pytest.raises(ValueError, match=labels):
            fit_logistic(binary_design(X, outcome, names=["x0", "x1"]))
        with pytest.raises(ValueError, match=labels):
            crossval(binary_design(X, outcome, names=["x0", "x1"]), folds=10, seed=0)
    with pytest.raises(ValueError, match=labels):
        fit_logistic(binary_design(X[:3], y[:3] + 2.0, names=["x0", "x1"]))
    with pytest.raises(ValueError, match=r"need more observations \(3\) than parameters \(3\)"):
        fit_logistic(binary_design(X[:3], y[:3], names=["x0", "x1"]))


def test_logistic_probabilities_in_unit_interval():
    rng = np.random.RandomState(11)
    X = rng.normal(0, 1, size=(200, 2))
    y = (rng.uniform(size=200) < sps.logistic.cdf(X[:, 0])).astype(float)
    model = fit_logistic(binary_design(X, y))
    probs = model.predict_proba(X)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_logistic_nested_deviance_never_increases():
    rng = np.random.RandomState(23)
    X = rng.normal(0, 1, size=(300, 3))
    y = (rng.uniform(size=300) < sps.logistic.cdf(0.5 * X[:, 0])).astype(float)
    design = binary_design(X, y, names=["a", "b", "c"])
    full = fit_logistic(design)
    reduced = fit_logistic(design.subset(["a", "b"]))
    assert full.deviance <= reduced.deviance + 1e-9


# ---------------------------------------------------------------------------
# likelihood-ratio test
# ---------------------------------------------------------------------------

def test_lr_test_identical_models():
    rng = np.random.RandomState(2)
    X = rng.normal(0, 1, size=(120, 2))
    y = (rng.uniform(size=120) < 0.5).astype(float)
    model = fit_logistic(binary_design(X, y, names=["a", "b"]))
    assert lr_test(model, model) == 1.0


def test_lr_test_planted_signal():
    rng = np.random.RandomState(3)
    noise = rng.normal(0, 1, size=10_000)
    signal = rng.normal(0, 1, size=10_000)
    y = (rng.uniform(size=10_000) < sps.logistic.cdf(signal)).astype(float)
    design = binary_design(np.column_stack([noise, signal]), y, names=["noise", "signal"])
    reduced = fit_logistic(design.subset(["noise"]))
    full = fit_logistic(design)
    assert lr_test(reduced, full) < 1e-10


def test_lr_test_null_uniform():
    rng = np.random.RandomState(7)
    p_values = []
    for _ in range(50):
        x = rng.normal(0, 1, size=500)
        noise = rng.normal(0, 1, size=500)
        y = (rng.uniform(size=500) < sps.logistic.cdf(0.5 * x)).astype(float)
        design = binary_design(np.column_stack([x, noise]), y, names=["x", "noise"])
        reduced = fit_logistic(design.subset(["x"]))
        full = fit_logistic(design)
        p_values.append(lr_test(reduced, full))
    assert sps.kstest(p_values, "uniform").pvalue > 0.01


def test_lr_test_non_nested_rejected():
    rng = np.random.RandomState(4)
    X = rng.normal(0, 1, size=(80, 2))
    y = (rng.uniform(size=80) < 0.5).astype(float)
    design = binary_design(X, y, names=["a", "b"])
    model_a = fit_logistic(design.subset(["a"]))
    model_b = fit_logistic(design.subset(["b"]))
    with pytest.raises(ValueError, match="not nested"):
        lr_test(model_a, model_b)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_crossval_null_auc_near_half():
    rng = np.random.RandomState(12)
    X = rng.normal(0, 1, size=(10_000, 3))
    y = (rng.uniform(size=10_000) < 0.5).astype(float)
    report = crossval(binary_design(X, y), folds=10, seed=0)
    assert abs(report.auc - 0.5) < 0.02


def test_crossval_separable_auc():
    rng = np.random.RandomState(13)
    x = np.concatenate([rng.uniform(-3, -0.5, 300), rng.uniform(0.5, 3, 300)])
    y = (x > 0).astype(float)
    report = crossval(binary_design(x, y), folds=10, seed=1)
    assert report.auc > 0.99


def test_crossval_deterministic():
    rng = np.random.RandomState(14)
    X = rng.normal(0, 1, size=(300, 2))
    y = (rng.uniform(size=300) < sps.logistic.cdf(X[:, 0])).astype(float)
    design = binary_design(X, y)
    assert crossval(design, folds=10, seed=5) == crossval(design, folds=10, seed=5)
    assert crossval(design, folds=10, seed=5) != crossval(design, folds=10, seed=6)


def test_crossval_requires_class_support():
    x = np.arange(20.0)
    y = np.array([1.0] * 15 + [0.0] * 5)
    with pytest.raises(ValueError, match="fewer members"):
        crossval(binary_design(x, y), folds=10, seed=0)


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

def _design_with_stats(medians, sds, names):
    # three rows are enough to pin median and sd exactly for symmetric data
    columns = [[median - sd, median, median + sd] for median, sd in zip(medians, sds)]
    return DesignMatrix(names, np.column_stack(columns), [0.0, 1.0, 1.0])


def test_impact_closed_form():
    from vadminer.models import FittedModel
    design = _design_with_stats([0.0], [1.0], ["x"])
    model = FittedModel(kind="logistic", columns=("x",), coefficients=(0.0, 1.0),
                        std_errors=(0.1, 0.1), p_values=(1.0, 0.001), deviance=1.0,
                        converged=True, n_obs=3)
    (entry,) = impact_sizes(model, design)
    expected = (1.0 / (1.0 + math.exp(-1.0)) - 0.5) / 0.5 * 100.0
    assert entry.impact == pytest.approx(expected, abs=1e-9)
    assert entry.impact == pytest.approx(46.2117157, abs=1e-4)


def test_impact_zero_coefficient():
    from vadminer.models import FittedModel
    design = _design_with_stats([2.0, 5.0], [1.0, 2.0], ["a", "b"])
    model = FittedModel(kind="logistic", columns=("a", "b"), coefficients=(-2.0, 1.0, 0.0),
                        std_errors=(0.1, 0.1, 0.1), p_values=(0.1, 0.1, 0.9), deviance=1.0,
                        converged=True, n_obs=3)
    impacts = {e.feature: e.impact for e in impact_sizes(model, design)}
    assert impacts["b"] == 0.0


def test_impacts_are_one_at_a_time():
    # odds multiply when both features move, so impacts must not add
    from vadminer.models import FittedModel
    design = _design_with_stats([0.0, 0.0], [1.0, 1.0], ["a", "b"])
    model = FittedModel(kind="logistic", columns=("a", "b"), coefficients=(0.0, 1.0, 1.0),
                        std_errors=(0.1, 0.1, 0.1), p_values=(0.001, 0.001, 0.001), deviance=1.0,
                        converged=True, n_obs=3)
    impacts = {e.feature: e.impact for e in impact_sizes(model, design)}
    single = (sps.logistic.cdf(1.0) - 0.5) / 0.5 * 100.0
    both = (sps.logistic.cdf(2.0) - 0.5) / 0.5 * 100.0
    assert impacts["a"] == pytest.approx(single, abs=1e-9)
    assert impacts["b"] == pytest.approx(single, abs=1e-9)
    assert both != pytest.approx(impacts["a"] + impacts["b"], abs=1.0)


def test_impact_sign_follows_coefficient():
    rng = np.random.RandomState(31)
    X = rng.normal(0, 1, size=(500, 3))
    y = (rng.uniform(size=500) < sps.logistic.cdf(X @ np.array([1.0, -0.7, 0.3]))).astype(float)
    design = binary_design(X, y, names=["a", "b", "c"])
    model = fit_logistic(design)
    for entry in impact_sizes(model, design):
        assert math.copysign(1.0, entry.impact) == math.copysign(1.0, model.coefficient(entry.feature))


def test_impacts_sorted_by_magnitude():
    rng = np.random.RandomState(37)
    X = rng.normal(0, 1, size=(400, 3))
    y = (rng.uniform(size=400) < sps.logistic.cdf(X @ np.array([2.0, 0.5, -1.0]))).astype(float)
    design = binary_design(X, y, names=["a", "b", "c"])
    model = fit_logistic(design)
    impacts = impact_sizes(model, design)
    magnitudes = [abs(e.impact) for e in impacts]
    assert magnitudes == sorted(magnitudes, reverse=True)


# ---------------------------------------------------------------------------
# correlation filter
# ---------------------------------------------------------------------------

def test_filter_drops_identical_column():
    rng = np.random.RandomState(41)
    v = rng.normal(0, 1, size=100)
    design = DesignMatrix(["v", "d"], np.column_stack([v, v.copy()]), [0.0] * 50 + [1.0] * 50)
    filtered, decisions = correlation_filter(design, [("v", "d")])
    assert decisions[0].dropped and decisions[0].r == pytest.approx(1.0)
    assert filtered.columns == ["v"]


def test_filter_keeps_independent_noise():
    rng = np.random.RandomState(43)
    a = rng.normal(0, 1, size=10_000)
    b = rng.normal(0, 1, size=10_000)
    design = DesignMatrix(["a", "b"], np.column_stack([a, b]), [0.0, 1.0] * 5000)
    filtered, decisions = correlation_filter(design, [("a", "b")])
    assert not decisions[0].dropped
    assert abs(decisions[0].r) < 0.1
    assert filtered.columns == ["a", "b"]


def test_filter_boundary_exactly_point_seven_retained():
    # integer vectors engineered so the sample r is exactly 0.7 in floats
    x = np.array([-6.0, -2.0, 4.0, 4.0]) + 10.0
    y = np.array([-6.0, 3.0, 1.0, 2.0]) + 10.0
    design = DesignMatrix(["v", "d"], np.column_stack([x, y]), [0.0, 1.0, 0.0, 1.0])
    filtered, decisions = correlation_filter(design, [("v", "d")], threshold=0.7)
    assert decisions[0].r == 0.7
    assert not decisions[0].dropped
    assert filtered.columns == ["v", "d"]


# ---------------------------------------------------------------------------
# linear fits
# ---------------------------------------------------------------------------

def test_linear_exact_fit():
    x = np.arange(10.0)
    y = 3.0 * x + 2.0
    design = DesignMatrix(["x"], x[:, None], y)
    model = fit_linear(design)
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
        model = fit_linear(DesignMatrix(names, X, y))
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
    design = DesignMatrix(["priority", "comments"], np.column_stack([priority, comments]), y)
    model = fit_linear(design)
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
        design = DesignMatrix(["x", "noise"], np.column_stack([x, noise]), y)
        model = fit_linear(design)
        if model.p_value("noise") >= 0.001:
            clean += 1
    assert clean >= 0.95 * reps


def test_linear_degenerate_and_singular():
    x = np.arange(10.0)
    with pytest.raises(ValueError, match="constant"):
        fit_linear(DesignMatrix(["x"], x[:, None], np.full(10, 3.0)))
    X = np.column_stack([x, x])
    with pytest.raises(ValueError, match="collinear"):
        fit_linear(DesignMatrix(["a", "b"], X, x + 1.0))
    # the row count is checked first, then the response, then the rank
    with pytest.raises(ValueError, match=r"need more observations \(3\) than parameters \(3\)"):
        fit_linear(DesignMatrix(["a", "b"], X[:3], np.full(3, 3.0)))
    with pytest.raises(ValueError, match="degenerate variance: response is constant"):
        fit_linear(DesignMatrix(["a", "b"], X, np.full(10, 3.0)))

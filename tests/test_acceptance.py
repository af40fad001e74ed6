"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Population-level magnitudes from large production trackers are out of reach
at desk scale, so acceptance rests on exact-formula anchors, oracle
equivalence on fixed cases, and planted-direction recovery on seeded
synthetic corpora.
"""
import math
import random
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats as sps

from vadminer.analyses import (
    rq1_dominance_time,
    rq1_priority_arousal,
    rq1_type_valence,
    rq2_first_last,
    rq3_resolution_model,
    rq4_sign_tables,
    score_corpus,
)
from vadminer.cli import main
from vadminer.lexicon import load_lexicon, write_lexicon
from vadminer.models import (
    DesignMatrix,
    FittedModel,
    crossval,
    fit_linear,
    fit_logistic,
    impact_sizes,
    lr_test,
    zero_r,
)
from vadminer.stats import bonferroni_alpha, cohens_d, paired_t_test, pearson_r, welch_t_test
from vadminer.synth import (
    Vocabulary,
    VocabularyConfig,
    generate_corpus,
    null_config,
    planted_config,
)
from vadminer.textscore import score_text

import oracles

ACCEPT_SEED = 20260810


def _report(name, checks):
    ok = all(flag for _, flag in checks)
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    for label, flag in checks:
        assert flag, f"{name}: failed check: {label}"


@pytest.fixture(scope="module")
def warriner_scale_lexicon_file(tmp_path_factory):
    """A 13,915-word lexicon file in the canonical CSV format."""
    path = tmp_path_factory.mktemp("lexicon") / "warriner_scale.csv"
    lexicon = Vocabulary(VocabularyConfig(pad_to=13_915)).lexicon()
    write_lexicon(lexicon, path)
    return path


@dataclass
class PlantedRun:
    issues: list
    manifest: dict
    lexicon: object
    scored: list
    rq1_priority: object
    rq1_type: object
    rq1_time: object
    rq2: object
    rq3: object
    rq4: object
    elapsed: float


@pytest.fixture(scope="module")
def planted_run():
    from vadminer.synth import generate_lexicon

    start = time.perf_counter()
    issues, manifest = generate_corpus(planted_config(10_000), seed=ACCEPT_SEED)
    lexicon = generate_lexicon()
    scored = score_corpus(issues, lexicon)
    run = PlantedRun(
        issues=issues,
        manifest=manifest,
        lexicon=lexicon,
        scored=scored,
        rq1_priority=rq1_priority_arousal(scored),
        rq1_type=rq1_type_valence(scored),
        rq1_time=rq1_dominance_time(scored),
        rq2=rq2_first_last(scored),
        rq3=rq3_resolution_model(scored, seed=3),
        rq4=rq4_sign_tables(scored),
        elapsed=0.0,
    )
    run.elapsed = time.perf_counter() - start
    return run


def test_criterion_1_range_formula_anchor(warriner_scale_lexicon_file):
    import csv

    start = time.perf_counter()
    lexicon = load_lexicon(warriner_scale_lexicon_file)
    score = score_text("anger joy sadness love", lexicon)
    elapsed = time.perf_counter() - start
    baseline = lexicon.baseline("valence")

    # independent one-pass mean straight off the file
    with open(warriner_scale_lexicon_file, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    file_mean = oracles.one_pass_mean(float(row["valence"]) for row in rows)

    high_pair = score_text("joy love", lexicon)  # both words above the mean
    _report("criterion 1 (range-formula anchor)", [
        ("lexicon holds 13,915 words", lexicon.size == 13_915 and len(rows) == 13_915),
        ("baseline matches an independent one-pass mean over the file",
         abs(baseline - file_mean) <= 1e-9),
        ("baseline lies between the extreme word scores", 2.40 <= baseline <= 8.21),
        ("valence spread is exactly 8.21 - 2.40",
         score.valence is not None and abs(score.valence - (8.21 - 2.40)) <= 1e-12),
        ("words above the mean fold at the baseline (8.21 - mean)",
         file_mean < 8.00 and abs(high_pair.valence - (8.21 - file_mean)) <= 1e-9),
        ("runtime under 1 s", elapsed < 1.0),
    ])


def test_criterion_2_bonferroni_anchor():
    _report("criterion 2 (Bonferroni anchor)", [
        ("0.05 / 20 comparisons = 0.0025", bonferroni_alpha(0.05, 20) == 0.0025),
    ])


def test_criterion_3_zero_r_anchor():
    checks = []
    for n_long, n_short in ((565, 435), (717, 283), (5, 5)):
        q = n_long / (n_long + n_short)
        report = zero_r([1.0] * n_long + [0.0] * n_short)
        checks.append((f"q={q}: Long precision equals the share",
                       report.long.precision == pytest.approx(q, abs=1e-12)))
        checks.append((f"q={q}: recall 1, F1 2q/(1+q), AUC 0.5",
                       report.long.recall == 1.0
                       and report.long.f1 == pytest.approx(2 * q / (1 + q), abs=1e-12)
                       and report.auc == 0.5))
    table = zero_r([1.0] * 565 + [0.0] * 435)
    checks.append(("q=0.565 reproduces 0.565 / 1 / 0.722 / 0.5 to 3 decimals",
                   (round(table.long.precision, 3), round(table.long.recall, 3),
                    round(table.long.f1, 3), round(table.auc, 3)) == (0.565, 1.0, 0.722, 0.5)))
    _report("criterion 3 (ZeroR anchor)", checks)


def test_criterion_4_statistical_oracle_suite():
    start = time.perf_counter()
    rng = np.random.RandomState(424242)
    checks = []

    welch_ok = paired_ok = d_ok = r_ok = 0
    for _ in range(24):
        n = int(rng.randint(4, 25))
        a = np.round(rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=n), 6)
        b = np.round(rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=int(rng.randint(4, 25))), 6)
        paired = np.round(a + rng.normal(0.3, 1.0, size=n), 6)

        t_ref, p_ref, _ = oracles.welch_oracle(a, b)
        result = welch_t_test(a, b)
        welch_ok += abs(result.t - t_ref) < 1e-9 and abs(result.p - p_ref) < 1e-9

        t_ref, p_ref, d_ref = oracles.paired_oracle(a, paired)
        presult = paired_t_test(a, paired)
        paired_ok += (abs(presult.t - t_ref) < 1e-9 and abs(presult.p - p_ref) < 1e-9
                      and abs(presult.d - d_ref) < 1e-9)

        d_ok += abs(cohens_d(a, b) - oracles.cohens_d_oracle(a, b)) < 1e-9
        r_ok += abs(pearson_r(a, paired) - oracles.pearson_oracle(a, paired)) < 1e-9

    checks.append(("Welch t matches oracle on 24 fixed cases", welch_ok == 24))
    checks.append(("paired t matches oracle on 24 fixed cases", paired_ok == 24))
    checks.append(("Cohen's d matches oracle on 24 fixed cases", d_ok == 24))
    checks.append(("Pearson r matches oracle on 24 fixed cases", r_ok == 24))

    ols_ok = 0
    for _ in range(20):
        n = int(rng.randint(12, 40))
        X = rng.normal(0, 1, size=(n, int(rng.randint(1, 4))))
        y = 0.5 + X @ rng.uniform(-2, 2, size=X.shape[1]) + rng.normal(0, 0.7, size=n)
        names = [f"x{i}" for i in range(X.shape[1])]
        model = fit_linear(DesignMatrix(names, X, y))
        beta, se, p, rss = oracles.ols_oracle(X, y)
        ols_ok += (np.allclose(model.coefficients, beta, atol=1e-9)
                   and np.allclose(model.std_errors, se, atol=1e-9)
                   and np.allclose(model.p_values, p, atol=1e-9)
                   and abs(model.deviance - rss) < 1e-9)
    checks.append(("OLS matches oracle on 20 fixed cases", ols_ok == 20))

    logit_ok = logit_total = 0
    while logit_total < 20:
        n = int(rng.randint(50, 120))
        X = rng.normal(0, 1, size=(n, int(rng.randint(1, 4))))
        eta = 0.2 + X @ rng.uniform(-1.2, 1.2, size=X.shape[1])
        y = (rng.uniform(size=n) < sps.logistic.cdf(eta)).astype(float)
        if y.sum() < 5 or y.sum() > n - 5:
            continue
        logit_total += 1
        names = [f"x{i}" for i in range(X.shape[1])]
        model = fit_logistic(DesignMatrix(names, X, y))
        beta, _, _, deviance = oracles.logistic_oracle(X, y)
        logit_ok += (np.allclose(model.coefficients, beta, atol=1e-9)
                     and abs(model.deviance - deviance) < 1e-9)
    checks.append(("logistic IRLS matches high-precision MLE on 20 fixed cases", logit_ok == 20))

    elapsed = time.perf_counter() - start
    checks.append(("runtime under 10 s", elapsed < 10.0))
    _report("criterion 4 (statistical oracle suite)", checks)


def test_criterion_5_planted_effect_recovery(planted_run):
    run = planted_run
    start = time.perf_counter()
    checks = []

    declared = {e["name"]: e["direction"] for e in run.manifest["planted_effects"]}
    checks.append(("manifest declares the four headline directions",
                   {"priority_arousal": "+", "bug_valence": "-", "slow_dominance": "+",
                    "last_valence": "+"}.items() <= declared.items()))

    table = run.rq1_priority
    monotone = all(
        all(row.means[l] >= row.means[r] for l, r in zip(table.groups, table.groups[1:]))
        for row in table.rows)
    significant = all(c.result is not None and c.result.significant
                      for row in table.rows for c in row.comparisons)
    checks.append(("arousal means rise with priority in every element", monotone))
    checks.append(("every adjacent priority pair significant at alpha 0.0025",
                   significant and table.adjusted_alpha == 0.0025))

    type_table = run.rq1_type
    bug_lowest = all(row.means["Bug"] < min(row.means["Future Dev"], row.means["All Tasks"])
                     for row in type_table.rows)
    bug_significant = all(row.comparisons[1].result.significant for row in type_table.rows)
    checks.append(("Bug valence lowest in every element", bug_lowest))
    checks.append(("All Tasks vs Bug significant in every element", bug_significant))

    time_table = run.rq1_time
    dominance_up = all(row.means["High time"] > row.means["Short time"] for row in time_table.rows)
    dominance_sig = all(row.comparisons[0].result.significant for row in time_table.rows)
    checks.append(("dominance larger on the High-time side in every element", dominance_up))
    checks.append(("Short vs High significant in every element", dominance_sig))

    valence_cells = [c for c in run.rq2.cells if c.dimension == "valence"]
    checks.append(("first-vs-last valence d positive and significant in all scopes",
                   all(c.result.d > 0 and c.result.significant for c in valence_cells)))

    stage3 = run.rq3.stages[-1]
    checks.append(("stage-3 vs stage-2 likelihood-ratio p below 0.001",
                   stage3.lr_p_vs_previous < 0.001))
    checks.append(("all-comments dominance coefficient positive and significant",
                   stage3.model.coefficient("all_d") > 0
                   and stage3.model.p_value("all_d") < 0.01))

    checks.append(("priority/arousal cell is '+' for every role",
                   all(run.rq4.cells[("Priority", role, "arousal")] == "+"
                       for role in ("Assignee", "Reporter", "Other"))))

    # direction-free corpora: significant comparisons stay at the noise floor
    from vadminer.synth import generate_lexicon

    lexicon = generate_lexicon()
    total = significant_count = 0
    for seed in range(20):
        null_issues, _ = generate_corpus(null_config(300), seed=1000 + seed)
        null_scored = score_corpus(null_issues, lexicon)
        tables = [
            rq1_priority_arousal(null_scored),
            rq1_type_valence(null_scored),
            rq1_dominance_time(null_scored),
        ]
        for null_table in tables:
            for row in null_table.rows:
                for comparison in row.comparisons:
                    total += 1
                    if comparison.result is not None and comparison.result.significant:
                        significant_count += 1
        paired_table = rq2_first_last(null_scored)
        for cell in paired_table.cells:
            total += 1
            if cell.result is not None and cell.result.significant:
                significant_count += 1
    rate = significant_count / total
    checks.append((f"null corpora significant-comparison rate {rate:.3f} <= 0.05 over {total}",
                   rate <= 0.05))

    elapsed = run.elapsed + (time.perf_counter() - start)
    checks.append((f"planted + null suite ran in {elapsed:.1f} s < 120 s", elapsed < 120.0))
    _report("criterion 5 (planted-effect recovery)", checks)


def test_criterion_6_nested_model_behavior(planted_run):
    checks = []
    report = planted_run.rq3
    stage1, stage3 = report.stages[0], report.stages[-1]
    checks.append(("adding the planted VAD block gives lr p < 1e-10",
                   stage3.lr_p_vs_previous < 1e-10))
    gain = stage3.cv.auc - stage1.cv.auc
    checks.append((f"stage-3 AUC gain over stage-1 is {gain:.3f} >= 0.05", gain >= 0.05))

    # noise-only VAD columns: no AUC gain, and the lr p-value is uniform
    rng = np.random.RandomState(31337)
    n = 4000
    controls = rng.normal(0, 1, size=(n, 3))
    eta = controls @ np.array([0.8, 0.5, 0.0])
    y = (rng.uniform(size=n) < sps.logistic.cdf(eta)).astype(float)
    noise = rng.normal(0, 1, size=(n, 5))
    names_c = ["c0", "c1", "c2"]
    names_n = [f"v{i}" for i in range(5)]
    base_design = DesignMatrix(names_c, controls, y)
    full_design = DesignMatrix(names_c + names_n, np.column_stack([controls, noise]), y)
    auc_base = crossval(base_design, folds=10, seed=5).auc
    auc_full = crossval(full_design, folds=10, seed=5).auc
    noise_gain = auc_full - auc_base
    checks.append((f"noise VAD columns give AUC gain {noise_gain:.4f} <= 0.01", noise_gain <= 0.01))

    p_values = []
    for seed in range(50):
        seeded = np.random.RandomState(9000 + seed)
        xs = seeded.normal(0, 1, size=(700, 2))
        ys = (seeded.uniform(size=700) < sps.logistic.cdf(0.6 * xs[:, 0])).astype(float)
        noise_cols = seeded.normal(0, 1, size=(700, 3))
        reduced_design = DesignMatrix(["a", "b"], xs, ys)
        full_noise = DesignMatrix(["a", "b", "n0", "n1", "n2"], np.column_stack([xs, noise_cols]), ys)
        p_values.append(lr_test(fit_logistic(reduced_design), fit_logistic(full_noise)))
    ks_p = sps.kstest(p_values, "uniform").pvalue
    checks.append((f"null lr p-values uniform (KS p {ks_p:.3f} > 0.01 over 50 seeds)", ks_p > 0.01))
    _report("criterion 6 (nested-model behavior)", checks)


def test_criterion_7_impact_size_closed_form():
    design = DesignMatrix(["x", "zero"], np.column_stack([[-1.0, 0.0, 1.0], [4.0, 5.0, 6.0]]),
                          [0.0, 1.0, 1.0])
    model = FittedModel(kind="logistic", columns=("x", "zero"),
                        coefficients=(0.0, 1.0, 0.0), std_errors=(0.1, 0.1, 0.1),
                        p_values=(0.5, 0.001, 0.9), deviance=1.0, converged=True, n_obs=3)
    impacts = {e.feature: e.impact for e in impact_sizes(model, design)}
    sigma_one = 1.0 / (1.0 + math.exp(-1.0))
    _report("criterion 7 (impact-size closed form)", [
        ("base probability is 0.5 and one-sd move gives +46.22% (+-0.01%)",
         abs(impacts["x"] - 46.22) <= 0.01),
        ("impact equals the logistic closed form exactly",
         impacts["x"] == pytest.approx((sigma_one - 0.5) / 0.5 * 100.0, abs=1e-12)),
        ("zero-coefficient feature has 0% impact", impacts["zero"] == 0.0),
    ])


def test_criterion_8_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "17", "--out", str(corpus)]) == 0
    lexicon = corpus.with_suffix(".jsonl.lexicon.csv")
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    for out in (out_a, out_b):
        code = main(["analyze", "--lexicon", str(lexicon), "--corpus", str(corpus),
                     "--out", str(out), "--seed", "9"])
        assert code == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names_a)
    _report("criterion 8 (determinism)", [
        ("two analyze runs with identical inputs and seed are byte-identical",
         identical and len(names_a) >= 10),
    ])


def test_criterion_9_throughput(warriner_scale_lexicon_file):
    lexicon = load_lexicon(warriner_scale_lexicon_file)
    vocabulary = Vocabulary(VocabularyConfig(pad_to=13_915))
    pool = (vocabulary.words["neutral"] + vocabulary.words["vhi"] + vocabulary.words["ahi"]
            + vocabulary.words["dlo"] + ["anger", "joy", "0x7f", "stack_trace()"])
    rng = random.Random(0)
    comments = [" ".join(rng.choices(pool, k=8)) for _ in range(100_000)]

    start = time.perf_counter()
    matched = 0
    for comment in comments:
        matched += score_text(comment, lexicon).matched_count
    elapsed = time.perf_counter() - start
    _report("criterion 9 (throughput)", [
        (f"100k comments scored in {elapsed:.1f} s < 30 s", elapsed < 30.0),
        ("scoring actually matched words", matched > 100_000),
    ])

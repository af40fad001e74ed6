import math
import random
import re

import numpy as np
import pytest

from vadminer.lexicon import DIMENSIONS, Lexicon, LexiconEntry
from vadminer.textscore import _BATCH, fold, range_score, scan_texts, score_text, tokenize

# Hand-evaluated anchors over the four-word lexicon (baselines
# V=5.2775, A=4.9125, D=5.475).
JOY_ONLY_VALENCE = 8.21 - 5.2775        # single word above the mean
SADNESS_ONLY_VALENCE = 5.2775 - 2.40    # single word below the mean
ANGER_ONLY_AROUSAL = 5.93 - 4.9125      # 1.0175


def test_tokenize_splits_and_matches(table1_lexicon):
    tokenized = tokenize("I feel joy, not anger!", table1_lexicon)
    assert list(tokenized.tokens) == ["i", "feel", "joy", "not", "anger"]
    assert list(tokenized.matched) == ["joy", "anger"]


def test_tokenize_empty(table1_lexicon):
    tokenized = tokenize("", table1_lexicon)
    assert tokenized.tokens == () and tokenized.matched == ()


def test_tokenize_code_noise(table1_lexicon):
    tokenized = tokenize("stack_trace0x7f free()", table1_lexicon)
    assert list(tokenized.tokens) == ["stack", "trace", "x", "f", "free"]


def test_tokenize_keeps_single_letters(table1_lexicon):
    assert list(tokenize("a b", table1_lexicon).tokens) == ["a", "b"]


def test_range_score_straddles_baseline(table1_lexicon):
    score = range_score(["anger", "joy", "sadness", "love"], table1_lexicon, "valence")
    assert score == pytest.approx(8.21 - 2.40, abs=1e-12)


def test_range_score_single_word_cases(table1_lexicon):
    assert range_score(["joy"], table1_lexicon, "v") == pytest.approx(JOY_ONLY_VALENCE, abs=1e-12)
    assert range_score(["sadness"], table1_lexicon, "v") == pytest.approx(SADNESS_ONLY_VALENCE, abs=1e-12)
    assert range_score(["anger"], table1_lexicon, "a") == pytest.approx(ANGER_ONLY_AROUSAL, abs=1e-12)


def test_range_score_empty_and_unknown(table1_lexicon):
    assert range_score([], table1_lexicon, "v") is None
    with pytest.raises(LookupError):
        range_score(["qwzx"], table1_lexicon, "v")


def test_range_score_word_at_baseline_is_zero():
    # one word exactly on the (single-entry) baseline: degenerate spread
    lexicon = Lexicon([LexiconEntry(word="calm", valence=5.0, arousal=5.0, dominance=5.0)])
    assert range_score(["calm"], lexicon, "valence") == 0.0


def test_boundary_ties_fall_into_spread_branch():
    # min equals the baseline exactly: spread, not folding
    entries = [
        LexiconEntry(word="low", valence=4.0, arousal=5.0, dominance=5.0),
        LexiconEntry(word="high", valence=6.0, arousal=5.0, dominance=5.0),
    ]
    lexicon = Lexicon(entries)  # valence baseline exactly 5.0
    assert lexicon.baseline("valence") == 5.0
    score = range_score(["high"], lexicon, "valence")
    assert score == pytest.approx(1.0)  # 6.0 > 5.0: fold at baseline
    # a word exactly at the baseline joins branch three
    entries.append(LexiconEntry(word="mid", valence=5.0, arousal=5.0, dominance=5.0))
    lexicon3 = Lexicon(entries)
    assert range_score(["mid", "high"], lexicon3, "valence") == pytest.approx(6.0 - 5.0)


def test_score_text_composition(table1_lexicon):
    score = score_text("joy and sadness", table1_lexicon)
    assert score.matched_count == 2
    assert score.valence == pytest.approx(8.21 - 2.40, abs=1e-12)


def test_score_text_no_matches(table1_lexicon):
    score = score_text("qwzx zzz", table1_lexicon)
    assert score.matched_count == 0
    assert score.valence is None and score.arousal is None and score.dominance is None
    assert not score.has_scores


def test_score_text_single_word_case_one(table1_lexicon):
    score = score_text("anger", table1_lexicon)
    assert score.arousal == pytest.approx(ANGER_ONLY_AROUSAL, abs=1e-12)


def test_score_text_agrees_with_range_score(table1_lexicon):
    text = "joy, love and sadness... anger?"
    score = score_text(text, table1_lexicon)
    matched = tokenize(text, table1_lexicon).matched
    for dim in DIMENSIONS:
        assert score.get(dim) == range_score(list(matched), table1_lexicon, dim)


def _random_lexicon(rng, size):
    return Lexicon([
        LexiconEntry(word=f"w{i}", valence=round(rng.uniform(1, 9), 3),
                     arousal=round(rng.uniform(1, 9), 3),
                     dominance=round(rng.uniform(1, 9), 3))
        for i in range(size)
    ])


def test_case_exhaustiveness_and_bounds():
    rng = random.Random(99)
    for _ in range(200):
        lexicon = _random_lexicon(rng, rng.randint(2, 30))
        words = [f"w{rng.randrange(len(lexicon))}" for _ in range(rng.randint(1, 8))]
        for dim in DIMENSIONS:
            values = [lexicon.lookup(w).score(dim) for w in words]
            mn, mx = min(values), max(values)
            b = lexicon.baseline(dim)
            branches = [mn > b, mx < b, mn <= b <= mx]
            assert sum(branches) == 1  # trichotomy: exactly one branch applies
            score = range_score(words, lexicon, dim)
            assert 0.0 <= score <= 8.0


def test_permutation_and_duplicate_invariance():
    rng = random.Random(7)
    lexicon = _random_lexicon(rng, 25)
    for _ in range(50):
        words = [f"w{rng.randrange(25)}" for _ in range(rng.randint(1, 6))]
        shuffled = words[:]
        rng.shuffle(shuffled)
        duplicated = words + [rng.choice(words)]
        for dim in DIMENSIONS:
            base = range_score(words, lexicon, dim)
            assert range_score(shuffled, lexicon, dim) == base
            assert range_score(duplicated, lexicon, dim) == base


def test_monotone_in_new_maximum():
    rng = random.Random(21)
    for _ in range(50):
        lexicon = _random_lexicon(rng, 20)
        words = [f"w{rng.randrange(20)}" for _ in range(rng.randint(1, 5))]
        for dim in DIMENSIONS:
            b = lexicon.baseline(dim)
            values = [lexicon.lookup(w).score(dim) for w in words]
            if min(values) > b:
                continue  # monotonicity is only claimed when min <= baseline
            above = [w for w in (f"w{i}" for i in range(20))
                     if lexicon.lookup(w).score(dim) > max(values)]
            if not above:
                continue
            extended = words + [rng.choice(above)]
            assert range_score(extended, lexicon, dim) >= range_score(words, lexicon, dim)


def test_score_bounds_extremes():
    lexicon = Lexicon([
        LexiconEntry(word="floor", valence=1.0, arousal=1.0, dominance=1.0),
        LexiconEntry(word="ceil", valence=9.0, arousal=9.0, dominance=9.0),
    ])
    score = score_text("floor ceil", lexicon)
    for dim in DIMENSIONS:
        assert score.get(dim) == 8.0


def test_ascii_tokens_follow_the_letter_run_rule(table1_lexicon):
    # the rule: maximal runs of letters (digits, underscores and punctuation
    # split), each lowercased; ASCII text takes a faster path to the same tokens
    def rule(text):
        return [run.lower() for run in re.findall(r"[^\W\d_]+", text)]

    every_char = "".join(map(chr, range(128)))
    rng = random.Random(5)
    samples = [every_char, every_char[::-1], "Joy_JOY-joy9jOy\tsadness\x1fanger\x0blove"]
    samples += ["".join(rng.choices(every_char, k=rng.randint(0, 60))) for _ in range(500)]
    for text in samples:
        assert list(tokenize(text, table1_lexicon).tokens) == rule(text)
    assert list(tokenize("Ünïcode JOY_İ ΟΔΟΣ", table1_lexicon).tokens) == rule("Ünïcode JOY_İ ΟΔΟΣ")


# ---------------------------------------------------------------------------
# the batch kernel against a per-text loop
# ---------------------------------------------------------------------------

def loop_scan(text, lexicon):
    """Reference: letter runs, lowercased, looked up one by one; Python min/max."""
    hits = [lexicon.lookup(run.lower()) for run in re.findall(r"[^\W\d_]+", text)]
    rows = [(e.valence, e.arousal, e.dominance) for e in hits if e is not None]
    if not rows:
        return [math.nan] * 3, [math.nan] * 3, 0
    columns = list(zip(*rows))
    return [min(c) for c in columns], [max(c) for c in columns], len(rows)


def assert_kernel_equals_loop(texts, lexicon):
    lo, hi, counts = scan_texts(texts, lexicon)
    assert lo.shape == hi.shape == (len(texts), 3) and counts.shape == (len(texts),)
    for k, text in enumerate(texts):
        ref_lo, ref_hi, ref_count = loop_scan(text, lexicon)
        assert np.array_equal(lo[k], ref_lo, equal_nan=True), text
        assert np.array_equal(hi[k], ref_hi, equal_nan=True), text
        assert counts[k] == ref_count, text
        score = score_text(text, lexicon)
        assert score.matched_count == ref_count
        expected = [None] * 3 if ref_count == 0 else [
            fold(ref_lo[i], ref_hi[i], lexicon.baseline(dim)) for i, dim in enumerate(DIMENSIONS)]
        assert [score.valence, score.arousal, score.dominance] == expected


KERNEL_TEXTS = [
    "", "   ", "no match here", "joy", "JOY joy Joy jOy", "joy sadness joy sadness",
    "anger\njoy\r\nlove", "joy_sadness love4anger", "İstanbul joy", "Straße sadness",
    "ΟΔΟΣ anger — «love»", "naïve joy", "STRASSE İİİ joy", "joy\x00sadness",
]


def test_kernel_equals_loop_on_edge_texts(table1_lexicon):
    assert_kernel_equals_loop(KERNEL_TEXTS, table1_lexicon)


def test_kernel_equals_loop_across_batches(table1_lexicon):
    # a first batch with no match at all, then batches with hits on their edges,
    # then one that starts with empty texts and ends on a hit
    texts = ["no match here"] * _BATCH + ["joy"] + ["zzz"] * (_BATCH - 2) + ["anger love"]
    texts += [""] * (_BATCH - 1) + ["sadness joy"]
    texts += KERNEL_TEXTS * 3
    assert_kernel_equals_loop(texts, table1_lexicon)


def test_kernel_equals_loop_on_planted_corpus(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    texts = [t for issue in issues for t in (issue.title, issue.description)]
    texts += [c.body for issue in issues for c in issue.comments]
    assert len(texts) > 2 * _BATCH
    assert_kernel_equals_loop(texts, synth_lexicon)


@pytest.mark.parametrize("texts", [[], ["zzz"], ["", "no match", "qqq"] * 5])
def test_kernel_without_matches(table1_lexicon, texts):
    lo, hi, counts = scan_texts(texts, table1_lexicon)
    assert lo.shape == hi.shape == (len(texts), 3)
    assert np.isnan(lo).all() and np.isnan(hi).all()
    assert counts.tolist() == [0] * len(texts)

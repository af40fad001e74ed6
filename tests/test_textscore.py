import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from vadminer.lexicon import DIMENSIONS, Lexicon, LexiconEntry
from vadminer import textscore
from vadminer.textscore import TextScan, range_score, scan_texts, score_text, tokenize

import oracles

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


def _word(i):
    """Word ``i`` of a test lexicon, in letters, since digits split tokens: 12 -> "wbc"."""
    return "w" + "".join(chr(ord("a") + int(digit)) for digit in str(i))


def _random_lexicon(rng, size):
    return Lexicon([
        LexiconEntry(word=_word(i), valence=round(rng.uniform(1, 9), 3),
                     arousal=round(rng.uniform(1, 9), 3),
                     dominance=round(rng.uniform(1, 9), 3))
        for i in range(size)
    ])


def test_case_exhaustiveness_and_bounds():
    rng = random.Random(99)
    for _ in range(200):
        lexicon = _random_lexicon(rng, rng.randint(2, 30))
        words = [_word(rng.randrange(len(lexicon))) for _ in range(rng.randint(1, 8))]
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
        words = [_word(rng.randrange(25)) for _ in range(rng.randint(1, 6))]
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
        words = [_word(rng.randrange(20)) for _ in range(rng.randint(1, 5))]
        for dim in DIMENSIONS:
            b = lexicon.baseline(dim)
            values = [lexicon.lookup(w).score(dim) for w in words]
            if min(values) > b:
                continue  # monotonicity is only claimed when min <= baseline
            above = [w for w in (_word(i) for i in range(20))
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


def assert_kernel_equals_loop(texts, lexicon, extremes=None):
    """``extremes``: the (lo, hi) of a TextScan over ``texts``, checked in place of ``scan_texts``'."""
    lo, hi, counts = scan_texts(texts, lexicon)
    assert lo.shape == hi.shape == (len(texts), 3) and counts.shape == (len(texts),)
    if extremes is not None:
        lo, hi = extremes
    baselines = [lexicon.baseline(dim) for dim in DIMENSIONS]
    for k, text in enumerate(texts):
        ref_lo, ref_hi, ref_count = loop_scan(text, lexicon)
        assert counts[k] == ref_count, text
        score = score_text(text, lexicon)
        assert score.matched_count == ref_count
        if ref_count == 0:
            assert np.isnan(lo[k]).all() and np.isnan(hi[k]).all(), text
            assert [score.valence, score.arousal, score.dominance] == [None] * 3
            continue
        # the kernel's extremes are clamped at the baselines
        assert lo[k].tolist() == [min(v, b) for v, b in zip(ref_lo, baselines)], text
        assert hi[k].tolist() == [max(v, b) for v, b in zip(ref_hi, baselines)], text
        expected = [oracles.range_score_oracle(*extremes) for extremes in zip(ref_lo, ref_hi, baselines)]
        assert [score.valence, score.arousal, score.dominance] == expected


KERNEL_TEXTS = [
    "", "   ", "no match here", "joy", "JOY joy Joy jOy", "joy sadness joy sadness",
    "anger\njoy\r\nlove", "joy_sadness love4anger", "İstanbul joy", "Straße sadness",
    "ΟΔΟΣ anger — «love»", "naïve joy", "STRASSE İİİ joy", "joy\x00sadness",
]


def test_kernel_equals_loop_on_edge_texts(table1_lexicon):
    assert_kernel_equals_loop(KERNEL_TEXTS, table1_lexicon)


def test_kernel_equals_loop_across_batches(table1_lexicon, monkeypatch):
    # A TextScan scans its queue once an issue brings it to _BATCH_CHARS
    # characters, counting one more per text: here a first batch with no match
    # at all, then one with hits on its edges, then one that starts with empty
    # texts and ends on a hit.
    monkeypatch.setattr(textscore, "_BATCH_CHARS", 30)
    batches = []
    scan_batch = textscore.scan_texts
    monkeypatch.setattr(textscore, "scan_texts",
                        lambda texts, lexicon: (batches.append(list(texts)), scan_batch(texts, lexicon))[1])
    threads = [["no match here", "no match here"], ["zzz"],
               ["joy", "zzz zzz zzz zzz zzz zzz", "anger love"],
               ["", "", ""], ["", "sadness joy love anger zzz zzz"]]
    threads += [KERNEL_TEXTS[k:k + 3] for k in range(0, len(KERNEL_TEXTS), 3)] * 3
    scan = TextScan(table1_lexicon)
    for bodies in threads:  # as the comments of issues with empty titles and descriptions
        scan.add(SimpleNamespace(title="", description="", comments=[SimpleNamespace(body=b) for b in bodies]))
    extremes = scan.extremes("comment")
    batches = [batch for batch in batches if any(batch)]  # not the empty titles' and descriptions'
    assert batches[:3] == [threads[0] + threads[1], threads[2], threads[3] + threads[4]]
    assert len(batches) > 6
    assert_kernel_equals_loop([body for bodies in threads for body in bodies], table1_lexicon, extremes)


def test_kernel_equals_loop_on_planted_corpus(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    texts = [t for issue in issues for t in (issue.title, issue.description)]
    texts += [c.body for issue in issues for c in issue.comments]
    assert_kernel_equals_loop(texts, synth_lexicon)


@pytest.mark.parametrize("texts", [[], ["zzz"], ["", "no match", "qqq"] * 5])
def test_kernel_without_matches(table1_lexicon, texts):
    lo, hi, counts = scan_texts(texts, table1_lexicon)
    assert lo.shape == hi.shape == (len(texts), 3)
    assert np.isnan(lo).all() and np.isnan(hi).all()
    assert counts.tolist() == [0] * len(texts)


# ---------------------------------------------------------------------------
# hi - lo of the clamped extremes is README's three-case rule, bit for bit
# ---------------------------------------------------------------------------

def _mirrored_lexicon(rng, pairs):
    """Words in mirrored pairs v and 10 - v, plus "mid" at 5.0: every baseline
    is exactly 5.0, so "mid" sits on the mean in every dimension."""
    entries = [LexiconEntry(word="mid", valence=5.0, arousal=5.0, dominance=5.0)]
    for i in range(pairs):
        v, a, d = (rng.randint(4, 36) / 4 for _ in range(3))
        entries.append(LexiconEntry(word=_word(i), valence=v, arousal=a, dominance=d))
        entries.append(LexiconEntry(word=_word(pairs + i), valence=10 - v, arousal=10 - a, dominance=10 - d))
    return Lexicon(entries)


def _bits(value):
    return "nan" if value is None or math.isnan(value) else value.hex()


def test_clamped_spread_equals_the_three_case_rule_bit_for_bit():
    rng = random.Random(30)
    seen = {"no match": 0, "one word": 0, "lo == hi": 0, "word at the mean": 0,
            "above": 0, "below": 0, "straddling": 0}
    for trial in range(60):
        if trial % 2:
            lexicon = _mirrored_lexicon(rng, rng.randint(1, 12))
        else:
            lexicon = _random_lexicon(rng, rng.randint(1, 30))
        words = [entry.word for entry in lexicon]
        texts = []
        for _ in range(100):
            shape = rng.randrange(5)
            if shape == 0:
                texts.append(rng.choice(["", "zzz", "no match here", "r2d2 x_y"]))
            elif shape == 1:
                texts.append(rng.choice(words))
            elif shape == 2:
                texts.append(" ".join([rng.choice(words)] * rng.randint(2, 4)))
            else:
                texts.append(" ".join(rng.choice(words + ["zzz"]) for _ in range(rng.randint(1, 8))))
        baselines = [lexicon.baseline(dim) for dim in DIMENSIONS]
        lo, hi, _ = scan_texts(texts, lexicon)
        spread = hi - lo
        for k, text in enumerate(texts):
            ref_lo, ref_hi, ref_count = loop_scan(text, lexicon)
            expected = [oracles.range_score_oracle(*extremes) for extremes in zip(ref_lo, ref_hi, baselines)]
            assert list(map(_bits, spread[k].tolist())) == list(map(_bits, expected)), text
            score = score_text(text, lexicon)
            assert list(map(_bits, (score.valence, score.arousal, score.dominance))) == list(map(_bits, expected))
            matched = tokenize(text, lexicon).matched
            for dim, value in zip(DIMENSIONS, expected):
                assert _bits(range_score(matched, lexicon, dim)) == _bits(value), text
            seen["no match"] += ref_count == 0
            seen["one word"] += ref_count == 1
            seen["lo == hi"] += ref_count > 1 and ref_lo == ref_hi
            seen["word at the mean"] += any(v == b for v, b in zip(ref_lo + ref_hi, baselines * 2))
            if ref_count:
                seen["above"] += ref_lo[0] > baselines[0]
                seen["below"] += ref_hi[0] < baselines[0]
                seen["straddling"] += ref_lo[0] <= baselines[0] <= ref_hi[0]
    assert min(seen.values()) >= 50, seen

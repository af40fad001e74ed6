"""The scoring kernel: tokenization and baseline-folded range scoring of text.

A text's score per dimension is the spread between its extreme word scores,
folded at the lexicon-wide mean when all matched words sit on one side of it:

* every word above the baseline  -> ``max - baseline``
* every word below the baseline  -> ``baseline - min``
* words straddle the baseline    -> ``max - min`` (ties fall here)

The three cases are ``max(max, baseline) - min(min, baseline)`` bit for bit:
``max`` and ``min`` return one of their operands, so each subtracts the same floats.

Words absent from the lexicon contribute nothing, which also filters out
code fragments, identifiers and stack traces.

``scan_texts`` is the one kernel. It takes ``_BATCH`` texts at a time, so that
their word lists stay small at any corpus size: it tokenizes each text once,
looks every word of the batch up in the lexicon's word -> row dict in one
``np.fromiter`` pass (row 0 is a miss) and counts each text's hits with
``np.bincount``; per-text minima and maxima are then taken over the lexicon's
rows x 3 score array with ``np.minimum.reduceat`` and ``np.maximum.reduceat``
and clamped at the baselines. Every score is then ``hi - lo``: ``score_text``
subtracts the scan of a one-text batch, and the corpus score table the spread
of each thread's clamped per-comment extremes, with no second scan.
``tokenize`` and ``range_score`` are thin wrappers for inspection.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .lexicon import DIMENSIONS, Lexicon, canonical_dimension

# Maximal runs of letters; digits, underscores and punctuation all split.
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# ASCII letters to lowercase, every other ASCII character to a space
_ASCII_WORDS = str.maketrans({chr(i): chr(i).lower() if chr(i).isalpha() else " " for i in range(128)})

# texts per batch: bounds the word lists held at once
_BATCH = 256


@dataclass(frozen=True)
class TokenizedText:
    tokens: tuple[str, ...]
    matched: tuple[str, ...]


@dataclass(frozen=True)
class VadScore:
    """Per-dimension range scores; dimensions are None when nothing matched."""

    valence: float | None
    arousal: float | None
    dominance: float | None
    matched_count: int

    def get(self, dimension: str) -> float | None:
        return getattr(self, canonical_dimension(dimension))

    @property
    def has_scores(self) -> bool:
        return self.matched_count > 0


def _words(text: str) -> list[str]:
    """The lowercased runs of letters, in order."""
    # On ASCII text a translate and a split give the regex's runs, several
    # times faster; elsewhere lowercasing can change length or depend on
    # context, so each run is lowercased on its own.
    if text.isascii():
        return text.translate(_ASCII_WORDS).split()
    return [run.lower() for run in _WORD_RE.findall(text)]


def scan_texts(texts, lexicon: Lexicon) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extremes of each text's matched words, clamped at the lexicon mean.

    Returns ``(lo, hi, counts)`` for the sequence ``texts``: per dimension,
    the lesser of the minimum and the baseline and the greater of the maximum
    and the baseline, shape ``(len(texts), 3)`` and NaN where no word is in
    the lexicon, and the match counts. A text's range score is ``hi - lo``.
    """
    n = len(texts)
    lo, hi = np.full((2, n, len(DIMENSIONS)), np.nan)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _BATCH):
        words = list(map(_words, texts[start:start + _BATCH]))
        rows = np.fromiter(map(lexicon.row_of, chain.from_iterable(words), repeat(0)), dtype=np.intp)
        hit = rows > 0
        batch = np.bincount(np.repeat(np.arange(len(words)), list(map(len, words)))[hit], minlength=len(words))
        counts[start:start + len(words)] = batch
        matched = np.flatnonzero(batch)
        if len(matched):
            values = lexicon.vad[rows[hit]]
            firsts = (np.cumsum(batch) - batch)[matched]
            lo[start + matched] = np.minimum.reduceat(values, firsts)
            hi[start + matched] = np.maximum.reduceat(values, firsts)
    np.minimum(lo, lexicon.baselines, out=lo)  # NaN stays NaN
    np.maximum(hi, lexicon.baselines, out=hi)
    return lo, hi, counts


def tokenize(text: str, lexicon: Lexicon) -> TokenizedText:
    """Split on every non-letter character, lowercase, and mark lexicon hits."""
    tokens = tuple(_words(text))
    return TokenizedText(tokens=tokens, matched=tuple(filter(lexicon.row_of, tokens)))


def range_score(matched_words: list[str] | tuple[str, ...], lexicon: Lexicon, dimension: str) -> float | None:
    """Range score of already-matched words for one dimension.

    Every word must exist in the lexicon; returns None for an empty list.
    """
    if not matched_words:
        return None
    dim = canonical_dimension(dimension)
    values = []
    for word in matched_words:
        entry = lexicon.lookup(word)
        if entry is None:
            raise LookupError(f"word {word!r} not in lexicon; range_score requires matched words")
        values.append(getattr(entry, dim))
    b = lexicon.baseline(dim)
    return max(max(values), b) - min(min(values), b)


def score_text(text: str, lexicon: Lexicon) -> VadScore:
    """Tokenize and score a text on all three dimensions in one pass."""
    lo, hi, counts = scan_texts([text], lexicon)
    count = int(counts[0])
    if count == 0:
        return VadScore(valence=None, arousal=None, dominance=None, matched_count=0)
    return VadScore(*(hi[0] - lo[0]).tolist(), matched_count=count)

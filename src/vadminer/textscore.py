"""The scoring kernel: tokenization and baseline-folded range scoring of text.

A text's score per dimension is the spread between its extreme word scores,
folded at the lexicon-wide mean when all matched words sit on one side of it:

* every word above the baseline  -> ``max - baseline``
* every word below the baseline  -> ``baseline - min``
* words straddle the baseline    -> ``max - min`` (ties fall here)

Words absent from the lexicon contribute nothing, which also filters out
code fragments, identifiers and stack traces.

``scan`` is the one kernel: a single tokenizing pass per text, with one
dict lookup per word, that returns the per-dimension minima, maxima and
match count. The score depends on nothing
else, so ``score_text`` folds one scan, and the corpus score table folds the
per-comment extremes to score a whole comment thread without scanning it
again. ``tokenize`` and ``range_score`` are thin wrappers for inspection.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .lexicon import DIMENSIONS, Lexicon, canonical_dimension

# Maximal runs of letters; digits, underscores and punctuation all split.
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# ASCII letters to lowercase, every other ASCII character to a space
_ASCII_WORDS = str.maketrans({chr(i): chr(i).lower() if chr(i).isalpha() else " " for i in range(128)})

NO_MATCH = (float("nan"),) * 6 + (0,)


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


def scan(text: str, lexicon: Lexicon) -> tuple:
    """Extremes of a text's matched words in one pass.

    Returns ``(v_min, a_min, d_min, v_max, a_max, d_max, matched_count)``;
    ``NO_MATCH`` (NaN extremes, count 0) when no word is in the lexicon.
    """
    hits = list(filter(None, map(lexicon.vad_of, _words(text))))
    if not hits:
        return NO_MATCH
    v, a, d = zip(*hits)
    return min(v), min(a), min(d), max(v), max(a), max(d), len(hits)


def fold(lo: float, hi: float, baseline: float) -> float:
    """Range score of one dimension from its extreme word scores."""
    if lo > baseline:
        return hi - baseline
    if hi < baseline:
        return baseline - lo
    return hi - lo


def tokenize(text: str, lexicon: Lexicon) -> TokenizedText:
    """Split on every non-letter character, lowercase, and mark lexicon hits."""
    tokens = tuple(_words(text))
    return TokenizedText(tokens=tokens, matched=tuple(t for t in tokens if lexicon.vad_of(t)))


def range_score(matched_words: list[str] | tuple[str, ...], lexicon: Lexicon, dimension: str) -> float | None:
    """Range score of already-matched words for one dimension.

    Every word must exist in the lexicon; returns None for an empty list.
    """
    if not matched_words:
        return None
    dim = canonical_dimension(dimension)
    index = DIMENSIONS.index(dim)
    values = []
    for word in matched_words:
        entry = lexicon.vad_of(word.lower())
        if entry is None:
            raise LookupError(f"word {word!r} not in lexicon; range_score requires matched words")
        values.append(entry[index])
    return fold(min(values), max(values), lexicon.baseline(dim))


def score_text(text: str, lexicon: Lexicon) -> VadScore:
    """Tokenize and score a text on all three dimensions in one pass."""
    extremes = scan(text, lexicon)
    count = extremes[6]
    if count == 0:
        return VadScore(valence=None, arousal=None, dominance=None, matched_count=0)
    scores = [fold(extremes[i], extremes[i + 3], lexicon.baseline(dim)) for i, dim in enumerate(DIMENSIONS)]
    return VadScore(*scores, matched_count=count)

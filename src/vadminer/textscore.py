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

``scan_texts`` is the one kernel. It tokenizes each text of a batch once,
looks every word of the batch up in the lexicon's word -> row dict in one
``np.fromiter`` pass (row 0 is a miss) and counts each text's hits with
``np.bincount``; per-text minima and maxima are then taken over the lexicon's
rows x 3 score array with ``np.minimum.reduceat`` and ``np.maximum.reduceat``
and clamped at the baselines. Every score is then ``hi - lo``: ``score_text``
subtracts the scan of a one-text batch, and the corpus score table the spread
of each thread's clamped per-comment extremes, with no second scan.
``tokenize`` and ``range_score`` are thin wrappers for inspection.

A corpus is scanned through a ``TextScan``, which takes one issue at a time
and hands its queued texts to ``scan_texts`` whenever they reach
``_BATCH_CHARS`` characters, so the word lists of a batch stay small at any
corpus size or text length. It keeps only the clamped extremes, one
integer code per reporter, assignee and comment author, and a float array
per external feature, so ``analyze`` hands it each issue as the loader
accepts it (``load_corpus``'s ``on_issue``) and then the loader drops the
texts, the comments and the features: no more than one batch of text is
alive at once. ``analyses.score_corpus`` reads the table's text scores,
roles and external columns from it, and feeds one itself when given records
that hold their texts.
"""
from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .lexicon import DIMENSIONS, Lexicon, canonical_dimension

# Maximal runs of letters; digits, underscores and punctuation all split.
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# ASCII letters to lowercase, every other ASCII character to a space
_ASCII_WORDS = str.maketrans({chr(i): chr(i).lower() if chr(i).isalpha() else " " for i in range(128)})

# characters per batch of a TextScan (about 300 synth texts), each text counted
# one longer, so that empty texts fill a batch too: bounds the word lists held
# at once, while the numpy calls of a batch stay few per text
_BATCH_CHARS = 32_768

# repeated for the issues that lack a feature key
_NAN = array("d", [np.nan])


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
    The texts are scanned as one batch, so their word lists are held at
    once; a corpus goes through ``TextScan``, which bounds its batches.
    """
    n = len(texts)
    lo, hi = np.full((2, n, len(DIMENSIONS)), np.nan)
    words = list(map(_words, texts))
    rows = np.fromiter(map(lexicon.row_of, chain.from_iterable(words), repeat(0)), dtype=np.intp)
    hit = rows > 0
    counts = np.bincount(np.repeat(np.arange(n), list(map(len, words)))[hit], minlength=n)
    matched = np.flatnonzero(counts)
    if len(matched):
        values = lexicon.vad[rows[hit]]
        # add.accumulate, not cumsum: the same bits, and cumsum leaves small blocks
        # allocated that keep a loader's freed records' arenas from being returned
        firsts = (np.add.accumulate(counts) - counts)[matched]
        lo[matched] = np.minimum.reduceat(values, firsts)
        hi[matched] = np.maximum.reduceat(values, firsts)
    np.minimum(lo, lexicon.baselines, out=lo)  # NaN stays NaN
    np.maximum(hi, lexicon.baselines, out=hi)
    return lo, hi, counts


def _join(chunks: list[np.ndarray]) -> np.ndarray:
    """The chunks' rows in order; the list is emptied, so the chunks go as the join is made."""
    joined = np.concatenate(chunks) if chunks else np.empty((0, len(DIMENSIONS)))
    chunks.clear()
    return joined


class _Queue:
    """Texts waiting for a scan, their length, and the extremes scanned before them."""

    def __init__(self) -> None:
        self.texts: list[str] = []
        self.chars = 0
        self.los: list[np.ndarray] = []
        self.his: list[np.ndarray] = []

    def scan(self, lexicon: Lexicon) -> None:
        lo, hi, _ = scan_texts(self.texts, lexicon)
        self.los.append(lo)
        self.his.append(hi)
        self.texts.clear()
        self.chars = 0


class TextScan:
    """The clamped extremes of a stream of issues' texts, scanned as they arrive,
    a code for each name and a column for each external feature.

    ``add`` takes one issue record with its texts and its comments' authors.
    Its title and description join one queue and its comment bodies another,
    and a queue goes through ``scan_texts`` once it holds ``_BATCH_CHARS``
    characters, so the word lists of a scan stay small however long the texts
    are. Its reporter, assignee and each comment's author get one integer
    code per distinct name, in order of first appearance, and each external
    feature key a growing float array, NaN where an issue lacks the key. Only
    the extremes, the codes and those arrays are kept, so a loader can hand
    each issue over and then drop its texts, comments and features
    (``load_corpus(path, keep_text=False, on_issue=scan.add)``); ``issues``
    and ``comments`` count what was added.
    """

    def __init__(self, lexicon: Lexicon) -> None:
        self.lexicon = lexicon
        self.issues = self.comments = 0
        self._texts, self._bodies = _Queue(), _Queue()
        self._people: dict[str, int] = {}
        self._reporters, self._assignees, self._authors = array("q"), array("q"), array("q")
        self._features: dict[str, array] = {}  # key -> its value per issue, NaN where the issue lacks it

    def add(self, issue) -> None:
        title, description, comments = issue.title, issue.description, issue.comments
        people = self._people
        self._reporters.append(people.setdefault(issue.reporter, len(people)))
        assignee = issue.assignee
        self._assignees.append(-1 if assignee is None else people.setdefault(assignee, len(people)))
        queue = self._texts
        queue.texts += (title, description)
        queue.chars += len(title) + len(description) + 2
        if queue.chars >= _BATCH_CHARS:
            queue.scan(self.lexicon)
        if comments:
            self._authors.extend([people.setdefault(comment.author, len(people)) for comment in comments])
            bodies = [comment.body for comment in comments]
            queue = self._bodies
            queue.texts += bodies
            queue.chars += sum(map(len, bodies)) + len(bodies)
            if queue.chars >= _BATCH_CHARS:
                queue.scan(self.lexicon)
        for key, value in issue.external_features.items():
            column = self._features.get(key)
            if column is None:
                column = self._features[key] = array("d")
            if len(column) < self.issues:  # the issues since the key was last seen lack it
                column.extend(_NAN * (self.issues - len(column)))
            column.append(value)
        self.issues += 1
        self.comments += len(comments)

    def extremes(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` as ``scan_texts`` gives them for every text of ``kind`` added so far, in order.

        ``"issue"`` has two rows per issue, its title then its description;
        ``"comment"`` has one per comment. The scan lets go of them: each array
        is joined after the one before has been, with its chunks freed.
        """
        queue = {"issue": self._texts, "comment": self._bodies}[kind]
        if queue.texts:
            queue.scan(self.lexicon)
        lo = _join(queue.los)
        return lo, _join(queue.his)

    def codes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(reporters, assignees, authors)``: int64 name codes, one per issue
        added so far (-1: no assignee), and one per comment, in order.

        Equal codes are equal names. The scan lets go of them and of its names.
        """
        columns = self._reporters, self._assignees, self._authors
        self._people = {}
        self._reporters, self._assignees, self._authors = array("q"), array("q"), array("q")
        return tuple(np.frombuffer(column, dtype=np.int64) for column in columns)

    def features(self) -> dict[str, np.ndarray]:
        """Each external feature's float64 column, one row per issue added so far
        and NaN where the issue lacks the key, by key in order of first appearance.

        Each column is a view of the scan's array, which the scan then lets go of.
        """
        columns, self._features = self._features, {}
        for column in columns.values():
            column.extend(_NAN * (self.issues - len(column)))
        return {key: np.frombuffer(column) for key, column in columns.items()}


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

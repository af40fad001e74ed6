"""VAD word lexicon: loading, validation, lookup, and per-dimension baselines."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

DIMENSIONS = ("valence", "arousal", "dominance")

SCORE_MIN = 1.0
SCORE_MAX = 9.0

_SHORT_NAMES = {"v": "valence", "a": "arousal", "d": "dominance"}


class LexiconError(ValueError):
    """Malformed or invalid lexicon input."""


def canonical_dimension(name: str) -> str:
    """Normalize a dimension name ('v'/'V'/'valence' etc.) to its full form."""
    key = name.strip().lower()
    key = _SHORT_NAMES.get(key, key)
    if key not in DIMENSIONS:
        raise ValueError(f"unknown dimension {name!r}; expected one of {DIMENSIONS} or v/a/d")
    return key


@dataclass(frozen=True)
class LexiconEntry:
    word: str
    valence: float
    arousal: float
    dominance: float

    def __post_init__(self) -> None:
        if not self.word or self.word != self.word.lower() or any(c.isspace() for c in self.word):
            raise LexiconError(f"invalid lexicon word {self.word!r}: must be a non-empty lowercase token")
        for dim in DIMENSIONS:
            value = getattr(self, dim)
            if not (SCORE_MIN <= value <= SCORE_MAX):
                raise LexiconError(
                    f"{dim} score {value} for word {self.word!r} outside [{SCORE_MIN}, {SCORE_MAX}]"
                )

    def score(self, dimension: str) -> float:
        return getattr(self, canonical_dimension(dimension))


class Lexicon:
    """Immutable word -> (valence, arousal, dominance) table.

    Baselines are the arithmetic means of each dimension over all entries,
    computed with exact summation so they are reproducible independently.
    """

    def __init__(self, entries: Iterable[LexiconEntry]):
        table: dict[str, LexiconEntry] = {}
        for entry in entries:
            if entry.word in table:
                raise LexiconError(f"duplicate word {entry.word!r} in lexicon")
            table[entry.word] = entry
        if not table:
            raise LexiconError("lexicon is empty")
        self._entries = table
        # lowercase word -> (valence, arousal, dominance), for the scoring kernel
        self.vad_of = {word: (e.valence, e.arousal, e.dominance) for word, e in table.items()}.get
        self._baselines = {
            dim: math.fsum(getattr(e, dim) for e in table.values()) / len(table)
            for dim in DIMENSIONS
        }

    @property
    def size(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._entries

    def __iter__(self) -> Iterator[LexiconEntry]:
        return iter(self._entries.values())

    def lookup(self, word: str) -> LexiconEntry | None:
        """Case-insensitive lookup; None when the word is not in the lexicon."""
        return self._entries.get(word.lower())

    def baseline(self, dimension: str) -> float:
        return self._baselines[canonical_dimension(dimension)]

    @property
    def baselines(self) -> dict[str, float]:
        return dict(self._baselines)


def _parse_header(row: list[str]) -> dict[str, int]:
    positions = {name.strip().lower(): i for i, name in enumerate(row)}
    missing = [name for name in ("word", *DIMENSIONS) if name not in positions]
    if missing:
        raise LexiconError(
            f"lexicon header must name word/valence/arousal/dominance columns; missing {missing}"
        )
    return positions


def load_lexicon(source: str | Path | IO[str]) -> Lexicon:
    """Parse a lexicon CSV (header ``word,valence,arousal,dominance``).

    Words are lowercased; duplicate words, non-numeric scores, scores outside
    [1, 9] and rows of the wrong width are rejected with their line number.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return load_lexicon(handle)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise LexiconError("lexicon is empty: no header row") from None
    positions = _parse_header(header)
    width = len(header)

    entries: dict[str, LexiconEntry] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise LexiconError(f"expected {width} columns, got {len(row)}, line {line_no}")
        word = row[positions["word"]].strip().lower()
        scores = {}
        for dim in DIMENSIONS:
            raw = row[positions[dim]].strip()
            try:
                scores[dim] = float(raw)
            except ValueError:
                raise LexiconError(f"non-numeric {dim} score {raw!r}, line {line_no}") from None
        try:
            entry = LexiconEntry(word=word, **scores)
        except LexiconError as exc:
            raise LexiconError(f"{exc}, line {line_no}") from None
        if entry.word in entries:
            raise LexiconError(f"duplicate word {entry.word!r}, line {line_no}")
        entries[entry.word] = entry

    return Lexicon(entries.values())


def write_lexicon(lexicon: Lexicon, target: str | Path | IO[str]) -> None:
    """Serialize to the canonical CSV form; floats round-trip exactly."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write_lexicon(lexicon, handle)
            return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(["word", *DIMENSIONS])
    for entry in lexicon:
        writer.writerow([entry.word, repr(entry.valence), repr(entry.arousal), repr(entry.dominance)])

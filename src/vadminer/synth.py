"""Deterministic synthetic issue corpora with plantable score tendencies.

The vocabulary is stratified: a neutral band (all dimensions near the
lexicon mean) plus, per dimension, a high and a low band far from it and a
graded family that climbs across the upper half of the scale.
Because a text's score is its baseline-folded extreme spread, drawing from
a far band raises that dimension's score while near-band words keep it
small, so group-level effects are planted by controlling how often each
group's texts pick up far-band words. A manifest records the declared
directions alongside field histograms for loader cross-checks. Issues are
built as the caller asks for them, a small block at a time, and counted into
the manifest on the way, so writing a corpus of any size holds a few dozen.

Every generated name is a prefix plus the base-26 letters of its index:
at least three for a word (``neutralaaa``), at least one, upper-cased, for
a project (``PRJA`` ... ``PRJZ``, ``PRJBA``). ``GeneratorConfig.validate``
holds every spec check, so a bad spec fails before any file is written.
"""
from __future__ import annotations

import math
import random
import sys
from dataclasses import asdict, dataclass, field
from typing import Iterator

from .corpus import (
    Comment,
    IssueReport,
    PRIORITIES,
    PRIORITY_LEVEL,
    TYPE_GROUPS,
    corpus_histograms,
    count_issues,
)
from .lexicon import Lexicon, LexiconEntry


class ConfigError(ValueError):
    """Invalid generator configuration."""


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    # bools are ints to Python but not numbers in a spec; NaN, the
    # infinities and integers beyond the float range are no weights either
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _check_share(name: str, value) -> None:
    _check_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")


def _check_flag(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


# Crowd-rated anchor words spanning the affect space (1-9 scale).
ANCHOR_WORDS = {
    "anger": (2.50, 5.93, 5.14),
    "joy": (8.21, 5.55, 7.00),
    "sadness": (2.40, 2.81, 3.84),
    "love": (8.00, 5.36, 5.92),
}

# Out-of-lexicon noise resembling code and tracker markup.
_JUNK = (
    "0x7ffee4b2", "stack_trace()", "NullPointerException:42", "cfg=None",
    "v1.2.3-rc4", "::ffff:127.0.0.1", "foo_bar_baz(1,2)", "[ERROR]#8831",
)

_BANDS = {"lo": (1.6, 2.4), "mid": (4.6, 5.4), "hi": (7.6, 8.4), "wide": (3.2, 6.8)}


def _letters(index: int, width: int) -> str:
    # base-26 lower-case letters, at least width of them, so names never repeat
    letters = ""
    while width > 0 or index:
        index, rem = divmod(index, 26)
        letters = chr(ord("a") + rem) + letters
        width -= 1
    return letters


_PLACEMENT_MOD = 1009  # prime modulus for deterministic in-band placement


def _spread(index: int, salt: int, lo: float, hi: float) -> float:
    # deterministic pseudo-even placement inside a band, no RNG involved
    frac = ((index + 1) * (salt + 3) * 7919 % _PLACEMENT_MOD) / (_PLACEMENT_MOD - 1)
    return lo + (hi - lo) * frac


@dataclass(frozen=True)
class VocabularyConfig:
    words_per_stratum: int = 30
    filler_words: int = 120
    include_anchor_words: bool = True
    pad_to: int | None = None  # pad with wide-band filler up to an exact lexicon size

    def validate(self) -> None:
        _check_count("words_per_stratum", self.words_per_stratum)
        _check_count("filler_words", self.filler_words)
        _check_flag("include_anchor_words", self.include_anchor_words)
        if self.pad_to is not None:
            _check_count("pad_to", self.pad_to)
        if self.words_per_stratum < 2:
            raise ConfigError("words_per_stratum must be >= 2")
        if self.filler_words < 4:
            raise ConfigError("filler_words must be >= 4")
        # the neutral filler, nine strata (high, low and graded per dimension), the anchors
        base = self.filler_words + 9 * self.words_per_stratum + len(ANCHOR_WORDS) * self.include_anchor_words
        if self.pad_to is not None and self.pad_to < base:
            raise ConfigError(f"pad_to={self.pad_to} smaller than base vocabulary ({base} words)")


class Vocabulary:
    """Stratified word lists plus the lexicon entries that score them.

    ``words`` maps each family (``neutral``, ``vhi`` ... ``dlo``, ``vgr``,
    ``agr``, ``dgr``) to its words, all built by one ``add_family``;
    ``entries`` scores them in that order, then the anchor words, then
    ``pad`` words up to ``pad_to`` entries.
    """

    def __init__(self, config: VocabularyConfig):
        config.validate()
        self.entries: list[LexiconEntry] = []
        k = config.words_per_stratum

        def scorer(bands: tuple[str, str, str], salt: int = 0):
            # word i's (valence, arousal, dominance): a graded ("gr") dimension
            # climbs evenly across 5.5-8.4, so drawing word round(level * (k-1))
            # plants a continuous signal; the others spread over their band
            return lambda i: tuple(
                round(5.5 + 2.9 * i / (k - 1) if band == "gr" else _spread(i, salt + j, *_BANDS[band]), 4)
                for j, band in enumerate(bands))

        def add_family(name: str, count: int, score) -> list[str]:
            family = [name + _letters(i, 3) for i in range(count)]
            self.entries += (LexiconEntry(word, *score(i)) for i, word in enumerate(family))
            return family

        mid = ("mid",) * 3
        families = [("neutral", config.filler_words, mid)]
        for group in (("hi", "lo"), ("gr",)):  # every high and low stratum precedes the graded ones
            for d, prefix in enumerate("vad"):
                families += [(prefix + band, k, mid[:d] + (band,) + mid[d + 1:]) for band in group]
        self.words = {name: add_family(name, count, scorer(bands)) for name, count, bands in families}
        if config.include_anchor_words:
            self.entries += (LexiconEntry(word, *scores) for word, scores in ANCHOR_WORDS.items())
        if config.pad_to is not None:
            add_family("pad", config.pad_to - len(self.entries), scorer(("wide",) * 3, salt=3))

    def lexicon(self) -> Lexicon:
        return Lexicon(self.entries)


def generate_lexicon(config: VocabularyConfig | None = None) -> Lexicon:
    """Lexicon over the synthetic vocabulary; pure function of the config."""
    return Vocabulary(config or VocabularyConfig()).lexicon()


@dataclass(frozen=True)
class EffectConfig:
    """Planted directions; 0 disables an effect, magnitudes act as draw rates."""

    priority_arousal: float = 0.0    # arousal grows with priority level
    bug_valence: float = 0.0         # Bug group valence suppressed vs other groups
    slow_dominance: float = 0.0      # slow-to-resolve issues read more dominant
    last_valence: float = 0.0        # valence rises toward the final comment
    valence_resolution: float = 0.0  # high-valence comment streams resolve faster
    arousal_valence_u: float = 0.0   # arousal peaks at valence extremes

    def validate(self) -> None:
        for name, value in asdict(self).items():
            _check_share(f"effect {name}", value)

    def active(self) -> dict[str, float]:
        return {k: v for k, v in asdict(self).items() if v > 0.0}


_DEFAULT_PRIORITY_WEIGHTS = {
    "Blocker": 0.06, "Critical": 0.10, "Major": 0.45, "Minor": 0.30, "Trivial": 0.09,
}
_DEFAULT_TYPE_WEIGHTS = {
    "Bug": 0.45, "Task": 0.12, "SubTask": 0.08, "Test": 0.04, "Improvement": 0.15,
    "NewFeature": 0.08, "Wish": 0.03, "FeatureRequest": 0.02, "Enhancement": 0.01,
    "Other": 0.02,
}
_DEFAULT_COMMENT_WEIGHTS = {
    0: 0.15, 1: 0.12, 2: 0.14, 3: 0.13, 4: 0.14, 5: 0.12, 6: 0.08, 7: 0.05,
    8: 0.04, 10: 0.03,
}

_GROUP_VALENCE_FACTOR = {"Future Dev": 1.0, "All Tasks": 0.55, "Bug": 0.0}

_EPOCH = 1_400_000_000  # corpus time origin, UTC seconds


@dataclass(frozen=True)
class GeneratorConfig:
    n_issues: int = 1000
    priority_weights: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_PRIORITY_WEIGHTS))
    type_weights: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_TYPE_WEIGHTS))
    comment_count_weights: dict[int, float] = field(default_factory=lambda: dict(_DEFAULT_COMMENT_WEIGHTS))
    closed_share: float = 0.85
    assignee_share: float = 0.8
    junk_rate: float = 0.08
    n_projects: int = 4
    participants_per_project: int = 12
    vocabulary: VocabularyConfig = field(default_factory=VocabularyConfig)
    effects: EffectConfig = field(default_factory=EffectConfig)
    external_features: bool = False

    def validate(self) -> None:
        for name in ("n_issues", "n_projects", "participants_per_project"):
            _check_count(name, getattr(self, name))
        for name in ("closed_share", "assignee_share", "junk_rate"):
            _check_share(name, getattr(self, name))
        _check_flag("external_features", self.external_features)
        if self.n_issues < 0:
            raise ConfigError("n_issues must be >= 0")
        for label, weights, allowed in (
            ("priority_weights", self.priority_weights, set(PRIORITIES)),
            ("type_weights", self.type_weights, set(TYPE_GROUPS) | {"Other"}),
            ("comment_count_weights", self.comment_count_weights, None),
        ):
            if not isinstance(weights, dict):
                raise ConfigError(f"{label} must be an object, got {weights!r}")
            if not weights:
                raise ConfigError(f"{label} must not be empty")
            for key, weight in weights.items():
                _check_real(f"{label}[{key}]", weight)
                if weight < 0:
                    raise ConfigError(f"{label}[{key}] is negative ({weight})")
                if allowed is not None and key not in allowed:
                    raise ConfigError(f"{label} names unknown key {key!r}")
            if sum(weights.values()) <= 0:
                raise ConfigError(f"{label} weights sum to zero")
        for key in self.comment_count_weights:
            if not isinstance(key, int) or key < 0:
                raise ConfigError(f"comment_count_weights key {key!r} must be a non-negative int")
        if self.n_projects < 1 or self.participants_per_project < 3:
            raise ConfigError("need at least 1 project and 3 participants per project")
        self.vocabulary.validate()
        self.effects.validate()


def planted_config(n_issues: int = 10_000) -> GeneratorConfig:
    """All four headline directions planted, plus external affective columns."""
    return GeneratorConfig(
        n_issues=n_issues,
        effects=EffectConfig(
            priority_arousal=0.6,
            bug_valence=0.5,
            slow_dominance=0.6,
            last_valence=0.5,
            valence_resolution=0.8,
        ),
        external_features=True,
    )


def null_config(n_issues: int = 400) -> GeneratorConfig:
    """Direction-free corpus: every group draws from one vocabulary."""
    return GeneratorConfig(n_issues=n_issues, external_features=True)


def u_shape_config(n_issues: int = 2000) -> GeneratorConfig:
    """Arousal planted to peak at valence extremes (U in the V-A plane)."""
    return GeneratorConfig(n_issues=n_issues, effects=EffectConfig(arousal_valence_u=0.8))


def config_to_dict(config: GeneratorConfig) -> dict:
    data = asdict(config)
    data["comment_count_weights"] = {str(k): v for k, v in config.comment_count_weights.items()}
    return data


def config_from_dict(data: dict) -> GeneratorConfig:
    """Build a config from decoded JSON; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError(f"a generator config is a JSON object, not {type(data).__name__}")
    data = dict(data)
    for key, nested in (("vocabulary", VocabularyConfig), ("effects", EffectConfig)):
        if key in data:
            try:
                data[key] = nested(**data[key])
            except TypeError as exc:
                raise ConfigError(f"invalid {key} config: {exc}") from None
    raw = data.get("comment_count_weights")
    if isinstance(raw, dict):  # JSON keys are strings; validate rejects any other value
        data["comment_count_weights"] = weights = {}
        for key, weight in raw.items():
            try:
                count = int(key)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid comment_count_weights: {exc}") from None
            if count in weights:
                raise ConfigError(f"comment_count_weights names count {count} twice")
            weights[count] = weight
    try:
        config = GeneratorConfig(**data)
    except TypeError as exc:
        raise ConfigError(f"invalid generator config: {exc}") from None
    config.validate()
    return config


def _declared_effects(effects: EffectConfig) -> list[dict]:
    descriptions = {
        "priority_arousal": ("arousal by priority", "+", "mean arousal increases Trivial -> Blocker"),
        "bug_valence": ("valence by type group", "-", "Bug group has the lowest mean valence"),
        "slow_dominance": ("dominance by resolution-time half", "+", "High-time half has larger mean dominance"),
        "last_valence": ("valence first vs last comment", "+", "last comment valence exceeds first"),
        "valence_resolution": ("all-comments valence vs resolution time", "-", "higher valence resolves faster"),
        "arousal_valence_u": ("arousal vs valence curvature", "U", "arousal peaks at valence extremes"),
    }
    declared = []
    for name, strength in effects.active().items():
        comparison, direction, summary = descriptions[name]
        declared.append({
            "name": name,
            "strength": strength,
            "comparison": comparison,
            "direction": direction,
            "summary": summary,
        })
    return declared


# issues built per block: building one, then writing it, then building the
# next ran about 10% slower than building 16 to 64 in a row (CPython 3.11 on a
# 2-CPU x86-64 machine)
_BLOCK = 32


class _IssueFactory:
    """An iterator over the issues of one config and random stream: each
    ``next`` hands over the next issue, built by ``build`` in blocks of
    ``_BLOCK``, and counts it into ``histograms``."""

    def __init__(self, config: GeneratorConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self.vocab = Vocabulary(config.vocabulary)
        self.counts = sorted(config.comment_count_weights)
        self.count_weights = [config.comment_count_weights[k] for k in self.counts]
        self.histograms = corpus_histograms()
        self.built = 0
        self.block: list[IssueReport] = []  # built and not yet handed over, last first

    def __iter__(self) -> _IssueFactory:
        return self

    def __next__(self) -> IssueReport:
        if not self.block:
            start, self.built = self.built, min(self.built + _BLOCK, self.config.n_issues)
            self.block = [self.build(i) for i in range(start, self.built)][::-1]
            if not self.block:
                raise StopIteration
        issue = self.block.pop()
        count_issues(self.histograms, (issue,))
        return issue

    def _text(self, n_words: int, p_vhi: float, p_ahi: float, p_dhi: float,
              graded: list[tuple[str, float]] | None = None) -> str:
        rng = self.rng
        words = rng.choices(self.vocab.words["neutral"], k=n_words)
        for stratum, p in (("vhi", p_vhi), ("ahi", p_ahi), ("dhi", p_dhi)):
            if p > 0.0 and rng.random() < min(p, 0.95):
                words.insert(rng.randrange(len(words) + 1), rng.choice(self.vocab.words[stratum]))
        for stratum, level in graded or ():
            family = self.vocab.words[stratum]
            index = round(level * (len(family) - 1) + rng.gauss(0.0, 0.03) * (len(family) - 1))
            index = min(len(family) - 1, max(0, index))
            words.insert(rng.randrange(len(words) + 1), family[index])
        if rng.random() < self.config.junk_rate:
            words.insert(rng.randrange(len(words) + 1), rng.choice(_JUNK))
        return " ".join(words)

    def build(self, index: int) -> IssueReport:
        rng = self.rng
        cfg = self.config
        effects = cfg.effects

        # names are made from the drawn index, so no list of every project or person
        # is built; not interned, since a streamed issue is freed soon after it is written
        project = f"PRJ{_letters(rng.randrange(cfg.n_projects), 1).upper()}"
        home = f"{project.lower()}.dev"

        def person() -> str:
            return f"{home}{rng.randrange(cfg.participants_per_project):02d}"

        priority = rng.choices(PRIORITIES, weights=[cfg.priority_weights.get(p, 0.0) for p in PRIORITIES])[0]
        types = list(cfg.type_weights)
        issue_type = rng.choices(types, weights=[cfg.type_weights[t] for t in types])[0]
        created = _EPOCH + index * 3600 + rng.randrange(0, 1800)
        closed = rng.random() < cfg.closed_share

        v_int = rng.random()
        d_int = rng.random()
        u_pos = rng.random()

        log_rt = (
            math.log(3 * 86400)
            + 2.0 * effects.valence_resolution * (0.5 - v_int)
            + 1.4 * effects.slow_dominance * (d_int - 0.5)
            + rng.gauss(0.0, 0.7)
        )
        resolution = max(60, int(math.exp(log_rt)))
        resolved = created + resolution if closed else None
        status = "Closed" if closed else "Open"

        reporter = person()
        assignee = person() if rng.random() < cfg.assignee_share else None

        level = PRIORITY_LEVEL[priority]
        p_ahi = effects.priority_arousal * (level - 1) / 4.0
        group_factor = _GROUP_VALENCE_FACTOR.get(TYPE_GROUPS.get(issue_type), 0.55)
        p_vhi = effects.bug_valence * group_factor
        p_dhi = effects.slow_dominance * d_int
        graded = None
        if effects.arousal_valence_u > 0.0:
            graded = [
                ("vgr", u_pos),
                ("agr", effects.arousal_valence_u * 2.0 * abs(u_pos - 0.5)),
            ]

        title = self._text(rng.randint(5, 8), p_vhi, p_ahi, p_dhi, graded)
        description = self._text(rng.randint(10, 18), p_vhi, p_ahi, p_dhi, graded)

        n_comments = rng.choices(self.counts, weights=self.count_weights)[0]
        span = max(resolution if closed else 30 * 86400, (n_comments + 1) * 600)
        comments = []
        for j in range(n_comments):
            if assignee is not None:
                author_roll = rng.random()
                if author_roll < 0.40:
                    author = assignee
                elif author_roll < 0.70:
                    author = reporter
                else:
                    author = person()
            else:
                author = reporter if rng.random() < 0.45 else person()
            position_frac = j / (n_comments - 1) if n_comments > 1 else 0.0
            pc_vhi = p_vhi + effects.last_valence * position_frac + 0.5 * effects.valence_resolution * v_int
            # a step of at least 600 s and a jitter under 300 s: the times increase
            when = created + (j + 1) * (span // (n_comments + 1)) + rng.randrange(0, 300)
            comments.append(Comment(
                author=author,
                created=when,
                body=self._text(rng.randint(4, 10), pc_vhi, p_ahi, p_dhi, graded),
            ))

        votes = min(40, int(rng.expovariate(0.7)))
        watchers = sum(1 for _ in range(6) if rng.random() < 0.15 + 0.25 * d_int)
        changes = rng.randrange(0, 8) + n_comments // 2
        developers = max(1, len({c.author for c in comments}))

        features: dict[str, float] = {}
        if cfg.external_features:
            sentiment = 0.12 * (v_int - 0.5) + rng.gauss(0.0, 0.2)
            politeness = rng.gauss(0.5, 0.2)
            features = {
                "avg_sentiment": round(max(-1.0, min(1.0, sentiment)), 6),
                "avg_politeness": round(max(0.0, min(1.0, politeness)), 6),
            }

        return IssueReport(
            id=f"{project}-{index + 1}",
            project=project,
            issue_type=issue_type,
            priority=priority,
            created=created,
            resolved=resolved,
            status=status,
            reporter=reporter,
            assignee=assignee,
            votes=votes,
            watchers=watchers,
            change_count=changes,
            developer_count=developers,
            title=title,
            description=description,
            comments=tuple(comments),
            external_features=features,
        )


def generate_corpus(config: GeneratorConfig, seed: int) -> tuple[Iterator[IssueReport], dict]:
    """Issues plus a manifest declaring the planted directions.

    The issues come from an iterator that builds them only as they are
    asked for, so writing a corpus holds a few dozen at a time; call
    ``list()`` for a list. The manifest's histograms count the issues as
    they are yielded and are complete once the iterator is exhausted. The
    iterator's ``vocab`` is the Vocabulary its words come from. The config
    is validated and the vocabulary built here, before any issue is asked
    for.

    Deterministic: the same (config, seed) pair reproduces the corpus byte
    for byte once serialized with write_corpus.
    """
    config.validate()
    issues = _IssueFactory(config, random.Random(seed))
    manifest = {
        "generator": "vadminer-synth",
        "version": 1,
        "seed": seed,
        "config": config_to_dict(config),
        "planted_effects": _declared_effects(config.effects),
        "histograms": issues.histograms,
    }
    return issues, manifest

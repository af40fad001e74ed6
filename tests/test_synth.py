import io
import json
import re

import pytest

from vadminer.corpus import corpus_histograms
from vadminer.lexicon import DIMENSIONS
from vadminer.synth import (
    ConfigError,
    EffectConfig,
    GeneratorConfig,
    VocabularyConfig,
    Vocabulary,
    config_from_dict,
    config_to_dict,
    generate_corpus,
    generate_lexicon,
    null_config,
    planted_config,
)
from vadminer.corpus import write_corpus


def corpus_bytes(issues):
    buffer = io.StringIO()
    write_corpus(issues, buffer)
    return buffer.getvalue()


def test_same_seed_byte_identical():
    config = GeneratorConfig(n_issues=60)
    first, manifest_a = generate_corpus(config, seed=42)
    second, manifest_b = generate_corpus(config, seed=42)
    assert corpus_bytes(first) == corpus_bytes(second)
    assert manifest_a == manifest_b


def test_different_seed_differs():
    config = GeneratorConfig(n_issues=60)
    first, _ = generate_corpus(config, seed=1)
    second, _ = generate_corpus(config, seed=2)
    assert corpus_bytes(first) != corpus_bytes(second)


def test_zero_issue_corpus_valid_manifest():
    issues, manifest = generate_corpus(GeneratorConfig(n_issues=0), seed=0)
    assert issues == []
    assert manifest["histograms"]["issues"] == 0
    assert manifest["seed"] == 0


def test_negative_weight_rejected():
    config = GeneratorConfig(priority_weights={"Blocker": -1.0, "Major": 1.0})
    with pytest.raises(ConfigError, match="negative"):
        config.validate()


def test_unknown_type_weight_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        GeneratorConfig(type_weights={"Story": 1.0}).validate()


def test_effect_strength_bounds():
    with pytest.raises(ConfigError):
        EffectConfig(priority_arousal=1.5).validate()


def test_manifest_declares_planted_directions():
    _, manifest = generate_corpus(planted_config(10), seed=3)
    names = {e["name"]: e["direction"] for e in manifest["planted_effects"]}
    assert names["priority_arousal"] == "+"
    assert names["bug_valence"] == "-"
    assert names["slow_dominance"] == "+"
    assert names["last_valence"] == "+"
    _, null_manifest = generate_corpus(null_config(10), seed=3)
    assert null_manifest["planted_effects"] == []


def test_manifest_histograms_match_loader(planted_corpus):
    issues, manifest = planted_corpus
    assert corpus_histograms(issues) == manifest["histograms"]


def test_config_json_round_trip():
    config = planted_config(123)
    decoded = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
    assert decoded == config


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"n_issues": 5, "surprise": True})


@pytest.mark.parametrize("data,message", [
    ({"n_issues": "abc"}, "n_issues must be an integer, got 'abc'"),
    ({"n_issues": 1.5}, "n_issues must be an integer, got 1.5"),
    ({"n_issues": True}, "n_issues must be an integer, got True"),
    ({"n_projects": 2.0}, "n_projects must be an integer, got 2.0"),
    ({"vocabulary": {"pad_to": 400.0}}, "pad_to must be an integer, got 400.0"),
    ({"closed_share": "0.5"}, "closed_share must be a finite number, got '0.5'"),
    ({"junk_rate": False}, "junk_rate must be a finite number, got False"),
    ({"effects": {"bug_valence": "x"}}, "effect bug_valence must be a finite number, got 'x'"),
    ({"priority_weights": {"Major": None}}, "priority_weights[Major] must be a finite number, got None"),
    ({"type_weights": {"Bug": float("nan")}}, "type_weights[Bug] must be a finite number, got nan"),
    ({"comment_count_weights": {"1": "0.5"}}, "comment_count_weights[1] must be a finite number, got '0.5'"),
    ({"comment_count_weights": [1]}, "comment_count_weights must be an object, got [1]"),
    ({"priority_weights": ["Major"]}, "priority_weights must be an object, got ['Major']"),
    ({"type_weights": "Bug"}, "type_weights must be an object, got 'Bug'"),
    ({"external_features": "yes"}, "external_features must be true or false, got 'yes'"),
])
def test_config_from_dict_rejects_value_types(data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(data)


def test_vocabulary_strata_scores():
    vocab = Vocabulary(VocabularyConfig())
    lexicon = vocab.lexicon()
    for word in vocab.words["vhi"]:
        assert lexicon.lookup(word).valence >= 7.6
    for word in vocab.words["vlo"]:
        assert lexicon.lookup(word).valence <= 2.4
    for word in vocab.words["neutral"]:
        entry = lexicon.lookup(word)
        for dim in DIMENSIONS:
            assert 4.6 <= getattr(entry, dim) <= 5.4


def test_lexicon_padding_reaches_exact_size():
    lexicon = generate_lexicon(VocabularyConfig(pad_to=13_915))
    assert lexicon.size == 13_915
    for dim in DIMENSIONS:
        assert 4.5 <= lexicon.baseline(dim) <= 5.5
    with pytest.raises(ConfigError, match="pad_to"):
        generate_lexicon(VocabularyConfig(pad_to=10))


def test_generated_issues_satisfy_model_invariants():
    issues, _ = generate_corpus(GeneratorConfig(n_issues=120), seed=9)
    for issue in issues:
        assert list(issue.comments) == sorted(issue.comments, key=lambda c: c.created)
        if issue.resolved is not None:
            assert issue.status == "Closed"
            assert issue.resolved >= issue.created
        assert issue.votes >= 0 and issue.watchers >= 0

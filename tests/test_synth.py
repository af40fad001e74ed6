import hashlib
import io
import json
import os
import re
import tracemalloc

import pytest

from conftest import run_python
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
    u_shape_config,
)
from vadminer.corpus import write_corpus
from vadminer.lexicon import load_lexicon, write_lexicon


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
    assert list(issues) == []
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
    ({"comment_count_weights": {"1": 0.5, "01": 0.25}}, "comment_count_weights names count 1 twice"),
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


def test_families_past_three_letters_get_unique_words():
    # 26**3 = 17,576 words fill three letters; later words take a fourth
    written = io.StringIO()
    write_lexicon(generate_lexicon(VocabularyConfig(filler_words=20_000)), written)
    written.seek(0)
    assert load_lexicon(written).size == 20_000 + 274


def test_projects_past_z_are_named_in_letters():
    issues, _ = generate_corpus(GeneratorConfig(n_issues=300, n_projects=40), seed=4)
    issues = list(issues)
    projects = {issue.project for issue in issues}
    assert len(projects) > 26
    assert all(re.fullmatch("PRJ[A-Z]+", project) for project in projects)
    homes = {}
    for issue in issues:
        for person in (issue.reporter, issue.assignee, *(c.author for c in issue.comments)):
            if person is not None:
                homes.setdefault(person, set()).add(issue.project)
    assert all(len(home) == 1 for home in homes.values())


def test_names_are_drawn_without_a_list_of_every_project_or_person():
    # a list of 10**9 projects or of their people would not fit in memory; the
    # child's address space is capped at 512 MiB, so building one fails fast
    code = """
import resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
from vadminer.synth import GeneratorConfig, generate_corpus
tracemalloc.start()
issues, _ = generate_corpus(GeneratorConfig(n_issues=5, n_projects=10**9, participants_per_project=10**9), seed=3)
assert len(list(issues)) == 5
print(tracemalloc.get_traced_memory()[1])
"""
    # the 394-word vocabulary, 5 issues and their manifest take about 150 kB
    assert int(run_python(["-c", code]).stdout) < 2**20


def test_synth_memory_does_not_grow_with_the_corpus():
    # issues are built, counted and written a small block at a time: about
    # 0.2 MB at any size, where a list of these 5,000 issues would peak above 8 MB
    tracemalloc.start()
    try:
        issues, manifest = generate_corpus(planted_config(5_000), seed=3)
        write_corpus(issues, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest["histograms"]["issues"] == 5_000
    assert peak < 2**20


def test_manifest_histograms_count_the_issues_as_they_are_yielded():
    issues, manifest = generate_corpus(GeneratorConfig(n_issues=40), seed=6)
    first = [next(issues) for _ in range(15)]
    assert manifest["histograms"] == corpus_histograms(first)
    rest = list(issues)
    assert manifest["histograms"] == corpus_histograms(first + rest)
    assert list(manifest["histograms"]["comment_count"]) == sorted(manifest["histograms"]["comment_count"], key=int)


@pytest.mark.parametrize("config", [
    GeneratorConfig(n_issues=200),
    # so many comments that the step's floor of 600 s sets the span of most issues
    GeneratorConfig(n_issues=200, closed_share=1.0, comment_count_weights={0: 1.0, 1: 1.0, 25: 1.0, 400: 1.0},
                    effects=EffectConfig(valence_resolution=1.0, slow_dominance=1.0)),
], ids=["default", "crowded"])
def test_synth_comments_come_out_in_time_order(config):
    for issue in generate_corpus(config, seed=8)[0]:
        times = [comment.created for comment in issue.comments]
        assert all(earlier < later for earlier, later in zip(times, times[1:]))
        assert all(time > issue.created for time in times)


def test_generated_issues_satisfy_model_invariants():
    issues, _ = generate_corpus(GeneratorConfig(n_issues=120), seed=9)
    for issue in issues:
        assert list(issue.comments) == sorted(issue.comments, key=lambda c: c.created)
        if issue.resolved is not None:
            assert issue.status == "Closed"
            assert issue.resolved >= issue.created
        assert issue.votes >= 0 and issue.watchers >= 0


# sha256 of the corpus JSONL, the manifest as `synth` writes it and the
# lexicon CSV; a change to any generator byte must update these on purpose
SYNTH_BYTES = {
    "default": (GeneratorConfig(), 17, (
        "41fb11afed66f70d0a6a393c785ce3303e66450a69f3f414b458decac8567119",
        "5457b80cf98337e81957a15ea45f55669ff20500b0009a3276cc9428b4e729c8",
        "4a005a78dc32061ad09d3e868cd67cdddd8a9e7543968ac058967056c846b20d",
    )),
    "planted": (planted_config(2000), 3, (
        "e285552af74dde4e299de4674934050c1fce0c30e32a099c88a2e591501b3460",
        "8a97bd13e29f29a6874112a67b501c5d52dd399b5c96339e0abb1e7cfab0bb6a",
        "4a005a78dc32061ad09d3e868cd67cdddd8a9e7543968ac058967056c846b20d",
    )),
    "null": (null_config(), 5, (
        "bb47f06484540c106a47a8f476585b13afca2b356350321fd20a7b78fe185c15",
        "a6ae4a0ac08532a2dad1063bf43567641603cc70540c6915d1f98a60fc8dfacb",
        "4a005a78dc32061ad09d3e868cd67cdddd8a9e7543968ac058967056c846b20d",
    )),
    "u_shape": (u_shape_config(), 7, (
        "a5370f8ce22380e56fea68dbec2e523eb84887faa0f17d41426bf36d56febca7",
        "e92b2dc4ec8159e11923823a163b4ba3e122d6d37b82a311d3978e5164472b40",
        "4a005a78dc32061ad09d3e868cd67cdddd8a9e7543968ac058967056c846b20d",
    )),
    "padded": (GeneratorConfig(n_issues=50, vocabulary=VocabularyConfig(pad_to=13_915)), 11, (
        "5d72d9b3549cae7fcd7eb598e646e2702fd55fbb294a2d48484d3d16f2e363fa",
        "69f4d88983a897ea22ae70be0aa0578d966298c0b60d0c6030c5c65a8fb02c1e",
        "33b307a0bf5da564ea40f03848163a1de0168c99b8616d57f70b7f232be06d5a",
    )),
    "small vocabulary": (GeneratorConfig(vocabulary=VocabularyConfig(
        words_per_stratum=2, filler_words=4, include_anchor_words=False)), 13, (
        "dc4e540ea56603821249d04eb1c07622e10e14b8d56150245273c616ab9c9e4c",
        "324089749415fd234862d36c4bf74a96f2f0cf10d18ea5f33dbc6711ca3bf193",
        "c481bee04101ec6c9a96a7c4fcac5dcb6d8f39a5d6981cf6de011d99f144bebe",
    )),
}


@pytest.mark.parametrize("name", SYNTH_BYTES)
def test_synth_output_bytes_are_pinned(name):
    config, seed, expected = SYNTH_BYTES[name]
    issues, manifest = generate_corpus(config, seed)
    lexicon = io.StringIO()
    write_lexicon(Vocabulary(config.vocabulary).lexicon(), lexicon)
    written = (corpus_bytes(issues), json.dumps(manifest, indent=2, sort_keys=True) + "\n", lexicon.getvalue())
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in written) == expected

import csv
import gc
import json
from collections import Counter

import pytest

from vadminer import cli, synth
from vadminer.analyses import ELEMENTS, RQ2_SCOPES, TIME_GROUPS
from vadminer.cli import main
from vadminer.corpus import PRIORITIES, ROLES, TYPE_GROUP_ORDER, VAD_ELEMENT_KEYS, load_corpus, write_corpus
from vadminer.lexicon import DIMENSIONS, load_lexicon, write_lexicon
from vadminer.synth import GeneratorConfig, config_to_dict

from conftest import TABLE1_CSV, run_python


@pytest.fixture()
def lexicon_file(tmp_path):
    path = tmp_path / "lex.csv"
    path.write_text(TABLE1_CSV, encoding="utf-8")
    return path


@pytest.fixture()
def synth_paths(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(config_to_dict(GeneratorConfig(n_issues=150))), encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    code = main(["synth", "--spec", str(spec), "--seed", "3", "--out", str(out)])
    assert code == 0
    return out, out.with_suffix(".jsonl.lexicon.csv"), out.with_suffix(".jsonl.manifest.json")


def test_score_text_row(capsys, lexicon_file):
    code = main(["score", "--lexicon", str(lexicon_file), "--text", "joy and sadness"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    cells = out.split(",")
    assert len(cells) == 4
    assert float(cells[0]) == pytest.approx(8.21 - 2.40)
    assert cells[3] == "2"


def test_score_single_dimension(capsys, lexicon_file):
    code = main(["score", "--lexicon", str(lexicon_file), "--dimension", "v", "--text", "joy"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    value, matched = out.split(",")
    assert float(value) == pytest.approx(8.21 - 5.2775)
    assert matched == "1"


def test_score_no_match_empty_cells(capsys, lexicon_file):
    code = main(["score", "--lexicon", str(lexicon_file), "--text", "qqq zzz"])
    assert code == 0
    assert capsys.readouterr().out.strip() == ",,,0"


def test_score_stdin(capsys, lexicon_file, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO("love and anger".encode())))
    code = main(["score", "--lexicon", str(lexicon_file), "--stdin"])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith(",2")


def test_score_lexicon_env_fallback(capsys, lexicon_file, monkeypatch):
    monkeypatch.setenv("VADMINER_LEXICON", str(lexicon_file))
    code = main(["score", "--text", "joy"])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith(",1")


def test_score_missing_lexicon_is_config_error(capsys, monkeypatch):
    monkeypatch.delenv("VADMINER_LEXICON", raising=False)
    assert main(["score", "--text", "joy"]) == 2
    assert main(["score", "--lexicon", "/nope/lex.csv", "--text", "joy"]) == 2


def test_synth_outputs_load(synth_paths):
    corpus_path, lexicon_path, manifest_path = synth_paths
    issues = load_corpus(corpus_path)
    assert len(issues) == 150
    lexicon = load_lexicon(lexicon_path)
    assert lexicon.size > 0
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["histograms"]["issues"] == 150


def test_synth_deterministic(tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(["synth", "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["synth", "--seed", "5", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_synth_invalid_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    for text in ('{"n_issues": -3}', '{"vocabulary": {"pad_to": 10}}'):
        spec.write_text(text, encoding="utf-8")
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c.jsonl")])
        assert code == 2
        assert "invalid generator spec" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [spec]  # no output file was opened


def test_synth_builds_its_vocabulary_once(tmp_path, monkeypatch):
    builds = []
    build = synth.Vocabulary.__init__

    def counted(self, config):
        builds.append(config)
        build(self, config)

    monkeypatch.setattr(synth.Vocabulary, "__init__", counted)
    for seed in (1, 2):
        builds.clear()
        assert main(["synth", "--seed", str(seed), "--out", str(tmp_path / f"c{seed}.jsonl")]) == 0
        assert len(builds) == 1


def test_synth_spec_not_utf8_or_not_an_object(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{"n_issues": 5, "title": "caf\xe9"}')
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c.jsonl")]) == 3
    err = capsys.readouterr().err
    assert "error: generator spec is not valid UTF-8" in err and "Traceback" not in err
    for text in ("[1, 2]", '"abc"', "null", "7"):
        spec.write_text(text, encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c.jsonl")]) == 2, text
        err = capsys.readouterr().err
        assert "error: invalid generator spec: " in err and "Traceback" not in err
    assert not (tmp_path / "c.jsonl").exists()


@pytest.mark.parametrize("spec,message", [
    ('{"n_issues": "abc"}', "n_issues must be an integer, got 'abc'"),
    ('{"n_issues": 1.5}', "n_issues must be an integer, got 1.5"),
    ('{"n_issues": true}', "n_issues must be an integer, got True"),
    ('{"effects": {"bug_valence": "x"}}', "effect bug_valence must be a finite number, got 'x'"),
    ('{"comment_count_weights": [1]}', "comment_count_weights must be an object, got [1]"),
])
def test_synth_spec_value_types_exit_2(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(spec, encoding="utf-8")
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "c.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"error: invalid generator spec: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "c.jsonl").exists()


def test_synth_spec_byte_order_mark_accepted(tmp_path, capsys):
    text = json.dumps(config_to_dict(GeneratorConfig(n_issues=40))).encode()
    for name, data in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
        (tmp_path / f"{name}.json").write_bytes(data)
        assert main(["synth", "--spec", str(tmp_path / f"{name}.json"), "--seed", "2",
                     "--out", str(tmp_path / f"{name}.jsonl")]) == 0, capsys.readouterr().err
    for suffix in (".jsonl", ".jsonl.manifest.json", ".jsonl.lexicon.csv"):
        assert (tmp_path / f"marked{suffix}").read_bytes() == (tmp_path / f"plain{suffix}").read_bytes()


def test_synth_out_must_be_a_file_path(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    runs = [(tmp_path, f"output path {tmp_path} is a directory"),
            (afile / "c.jsonl", f"output path {afile} is not a directory"),
            (afile / "sub" / "c.jsonl", f"output path {afile} is not a directory")]
    (tmp_path / "d.jsonl.lexicon.csv").mkdir()
    runs.append((tmp_path / "d.jsonl", f"output path {tmp_path / 'd.jsonl.lexicon.csv'} is a directory"))
    for out, message in runs:
        assert main(["synth", "--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "d.jsonl").exists()
    assert main(["synth", "--out", str(tmp_path / "new" / "c.jsonl")]) == 0


def test_synth_vocabulary_past_three_letters_loads(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_issues": 5, "vocabulary": {"pad_to": 20000}}', encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0, capsys.readouterr().err
    assert load_lexicon(tmp_path / "c.jsonl.lexicon.csv").size == 20_000
    assert len(load_corpus(out)) == 5


# what ingest prints for the synth_paths corpus
INGEST_STDOUT = """valid corpus: 150 issues
  priority: Blocker=11, Critical=12, Major=69, Minor=42, Trivial=16
  type: Bug=72, Task=15, SubTask=12, Test=3, Wish=4, NewFeature=8, Improvement=24, FeatureRequest=4, Enhancement=4, Other=4
  status: Open=27, Closed=123
"""
NUMERIC_LAYERS = tuple(f"vadminer.{name}" for name in
                       ("analyses", "models", "stats", "report", "textscore", "lexicon", "synth"))


def test_ingest_valid(capsys, synth_paths):
    corpus_path, _, manifest_path = synth_paths
    capsys.readouterr()  # what synth printed
    assert main(["ingest", "--corpus", str(corpus_path)]) == 0
    out = capsys.readouterr().out
    assert out == INGEST_STDOUT
    # the printed counts are the manifest's nonzero ones
    histograms = json.loads(manifest_path.read_text(encoding="utf-8"))["histograms"]
    first, *rows = out.splitlines()
    assert first == f"valid corpus: {histograms['issues']} issues"
    printed = {key: dict(part.split("=") for part in counts.split(", "))
               for key, counts in (row.strip().split(": ") for row in rows)}
    assert printed == {key: {name: str(n) for name, n in histograms[key].items() if n}
                       for key in ("priority", "type", "status")}


def test_ingest_as_a_module_imports_the_corpus_layer_alone(synth_paths):
    corpus_path, _, _ = synth_paths
    proc = run_python(["-X", "importtime", "-m", "vadminer.cli", "ingest", "--corpus", str(corpus_path)])
    assert proc.stdout == INGEST_STDOUT
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "vadminer.corpus" in imported
    assert imported.isdisjoint({"numpy", *NUMERIC_LAYERS})


def test_analyze_as_a_module_never_imports_numpy_random(tmp_path, synth_paths):
    # rq3's folds come from an integer hash; numpy.random alone adds about 5 MB of RSS
    corpus_path, lexicon_path, _ = synth_paths
    out = tmp_path / "rpt"
    proc = run_python(["-X", "importtime", "-m", "vadminer.cli", "analyze", "--lexicon", str(lexicon_path),
                       "--corpus", str(corpus_path), "--out", str(out)])
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "vadminer.models" in imported
    assert not {name for name in imported if name.split(".")[:2] == ["numpy", "random"]}
    # every stage was cross-validated
    with open(out / "rq3_performance.csv", encoding="utf-8") as handle:
        stages = {row["classifier"] for row in csv.DictReader(handle)} - {"ZeroR"}
    assert stages == {"controls", "controls+vad"}


@pytest.mark.parametrize("command, unused", [
    ("ingest", ("numpy", *NUMERIC_LAYERS)),
    ("score", ("vadminer.analyses", "vadminer.models", "vadminer.stats", "vadminer.report", "vadminer.synth")),
    ("synth", ("vadminer.analyses", "vadminer.models", "vadminer.stats", "vadminer.report", "vadminer.textscore")),
    ("analyze", ("vadminer.synth",)),
])
def test_command_imports_only_the_layers_it_runs(tmp_path, synth_paths, command, unused):
    corpus_path, lexicon_path, _ = synth_paths
    argv = {
        "ingest": ["ingest", "--corpus", str(corpus_path)],
        "score": ["score", "--lexicon", str(lexicon_path), "--text", "joy"],
        "synth": ["synth", "--seed", "1", "--out", str(tmp_path / "c.jsonl")],
        "analyze": ["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path),
                    "--out", str(tmp_path / "rpt"), "--analyses", "rq1"],
    }[command]
    code = (f"import sys; from vadminer.cli import main; code = main({argv!r}); "
            f"print(sorted(set({unused!r}) & set(sys.modules))); sys.exit(code)")
    assert run_python(["-c", code]).stdout.splitlines()[-1] == "[]"


def test_names_set_on_the_module_before_main_are_the_ones_analyze_calls(tmp_path, synth_paths):
    # how a tracer times the layers: it replaces the module's names before main runs
    corpus_path, lexicon_path, _ = synth_paths
    code = f"""
import sys
from vadminer import cli

called = []
for name in ("load_lexicon", "load_corpus", "run_analyses", "write_reports"):
    def wrapper(*args, _original=getattr(cli, name), _name=name, **kwargs):
        called.append(_name)
        return _original(*args, **kwargs)
    setattr(cli, name, wrapper)
code = cli.main(["analyze", "--lexicon", {str(lexicon_path)!r}, "--corpus", {str(corpus_path)!r},
                 "--out", {str(tmp_path / "rpt")!r}, "--analyses", "rq1"])
print(*called)
sys.exit(code)
"""
    assert run_python(["-c", code]).stdout.splitlines()[-1] == "load_lexicon load_corpus run_analyses write_reports"


def test_a_loader_set_on_the_module_before_main_is_the_one_ingest_calls(synth_paths):
    # how a tracer counts ingest's issues and comments: from the list its loader returns
    corpus_path, _, _ = synth_paths
    code = f"""
import sys
from vadminer import cli

calls = []
def wrapper(*args, _original=cli.load_corpus, **kwargs):
    calls.append(kwargs)
    issues = _original(*args, **kwargs)
    calls.append((type(issues).__name__, len(issues), all(hasattr(issue, "comments") for issue in issues)))
    return issues
cli.load_corpus = wrapper
code = cli.main(["ingest", "--corpus", {str(corpus_path)!r}])
print(calls)
sys.exit(code)
"""
    called = run_python(["-c", code]).stdout.splitlines()[-1]
    assert called == str([{"keep_text": False}, ("list", 150, True)])


def test_a_loader_set_on_the_module_before_main_is_the_one_analyze_calls(synth_paths, tmp_path):
    # how a tracer counts analyze's issues and comments: from the list its loader
    # returns, which keeps every record though the records hold no text
    corpus_path, lexicon_path, _ = synth_paths
    code = f"""
import sys
from vadminer import analyses, cli

calls = []
def wrapper(*args, _original=cli.load_corpus, **kwargs):
    calls.append(kwargs.get("keep_text"))
    issues = _original(*args, **kwargs)
    calls.append((type(issues).__name__, len(issues), sum(len(issue.comments) for issue in issues)))
    return issues
def score(*args, _original=analyses.score_corpus, **kwargs):
    calls.append("score_corpus")
    return _original(*args, **kwargs)
cli.load_corpus = wrapper
analyses.score_corpus = score
code = cli.main(["analyze", "--lexicon", {str(lexicon_path)!r}, "--corpus", {str(corpus_path)!r},
                 "--out", {str(tmp_path / "rpt")!r}, "--analyses", "rq1"])
print(calls)
sys.exit(code)
"""
    called = run_python(["-c", code]).stdout.splitlines()[-1]
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    n_comments = sum(len(json.loads(line)["comments"]) for line in lines)
    assert called == str([False, ("list", 150, n_comments), "score_corpus"])


def _analyze_peak(corpus_path, lexicon_path, out) -> float:
    """The tracemalloc peak of one ``analyze`` run through rq1, in a fresh interpreter."""
    code = f"""
import gc, tracemalloc
from vadminer import analyses, cli, corpus, lexicon, report, textscore

gc.collect()  # empties the free lists, whose objects tracemalloc would not count
tracemalloc.start()
code = cli.main(["analyze", "--lexicon", {str(lexicon_path)!r}, "--corpus", {str(corpus_path)!r},
                 "--out", {str(out)!r}, "--analyses", "rq1"])
assert code == 0
print(tracemalloc.get_traced_memory()[1])
"""
    return int(run_python(["-c", code]).stdout.splitlines()[-1])


def test_analyze_takes_memory_that_does_not_grow_with_the_text(tmp_path):
    issues, _ = synth.generate_corpus(GeneratorConfig(n_issues=2_000), seed=2)
    short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
    write_corpus(issues, short)
    lexicon_path = tmp_path / "lexicon.csv"
    write_lexicon(issues.vocab.lexicon(), lexicon_path)
    # the same issues with every title, description and comment body ten times as long
    longer = []
    for line in short.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        obj["title"], obj["description"] = " ".join([obj["title"]] * 10), " ".join([obj["description"]] * 10)
        for comment in obj["comments"]:
            comment["body"] = " ".join([comment["body"]] * 10)
        longer.append(json.dumps(obj))
    long.write_text("\n".join(longer) + "\n", encoding="utf-8")
    assert long.stat().st_size > 5 * short.stat().st_size
    peaks = [_analyze_peak(path, lexicon_path, tmp_path / path.stem) for path in (short, long)]
    assert peaks[1] < 1.05 * peaks[0]


def test_ingest_missing_file_exit_2(capsys):
    assert main(["ingest", "--corpus", "/does/not/exist.jsonl"]) == 2


def test_ingest_schema_errors_exit_3(tmp_path, capsys, synth_paths):
    corpus_path, _, _ = synth_paths
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    broken = []
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if i < 12:
            del obj["priority"]
        broken.append(json.dumps(obj))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(broken) + "\n", encoding="utf-8")
    assert main(["ingest", "--corpus", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "missing field priority" in err
    assert err.count("line ") == 10  # only the first ten offending lines listed


def test_ingest_and_analyze_reject_duplicate_id(tmp_path, capsys, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    repeated = tmp_path / "repeated.jsonl"
    repeated.write_text("\n".join(lines + [lines[4]]) + "\n", encoding="utf-8")
    issue_id = json.loads(lines[4])["id"]
    assert main(["ingest", "--corpus", str(repeated)]) == 3
    err = capsys.readouterr().err
    assert f"line {len(lines) + 1}: duplicate issue id '{issue_id}', first on line 5" in err
    assert main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(repeated),
                 "--out", str(tmp_path / "rpt")]) == 3
    assert "duplicate issue id" in capsys.readouterr().err


def test_ingest_and_analyze_reject_non_string_project(tmp_path, capsys, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[2])
    obj["project"] = None
    lines[2] = json.dumps(obj)
    bad = tmp_path / "project.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", "--corpus", str(bad)]) == 3
    assert "line 3: field project must be a non-empty string" in capsys.readouterr().err
    assert main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(bad),
                 "--out", str(tmp_path / "rpt")]) == 3
    err = capsys.readouterr().err
    assert "line 3: field project must be a non-empty string" in err and "Traceback" not in err


def test_ingest_and_analyze_reject_unpaired_surrogate(tmp_path, capsys, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[6])
    obj["id"] = "PRJ-\ud800"
    lines[6] = json.dumps(obj)
    assert '"PRJ-\\ud800"' in lines[6]
    bad = tmp_path / "surrogate.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = "line 7: unpaired surrogate escape: not valid UTF-8"
    assert main(["ingest", "--corpus", str(bad)]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    out = tmp_path / "rpt"
    assert main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_analyze_rejects_non_finite_feature(tmp_path, capsys, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    resolved = next(i for i, line in enumerate(lines) if json.loads(line)["resolved"] is not None)
    obj = json.loads(lines[resolved])
    obj["external_features"] = {"avg_sentiment": float("nan")}
    lines[resolved] = json.dumps(obj)
    bad = tmp_path / "nan.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(bad),
                 "--out", str(tmp_path / "rpt")]) == 3
    err = capsys.readouterr().err
    assert f"line {resolved + 1}: field external_features.avg_sentiment must be finite, got nan" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["n_comments", "title_v"])
def test_analyze_rejects_reserved_feature_name(tmp_path, capsys, synth_paths, key):
    corpus_path, lexicon_path, _ = synth_paths
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[7])
    obj["external_features"] = {key: 1.0}
    lines[7] = json.dumps(obj)
    bad = tmp_path / "reserved.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(bad),
                 "--out", str(tmp_path / "rpt")]) == 3
    err = capsys.readouterr().err
    assert f"line 8: field external_features.{key} takes the name of a built-in column" in err
    assert "Traceback" not in err


def test_analyze_end_to_end_deterministic(tmp_path, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    input_bytes = corpus_path.read_bytes(), lexicon_path.read_bytes()
    out_a = tmp_path / "rpt_a"
    out_b = tmp_path / "rpt_b"
    for out in (out_a, out_b):
        code = main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path),
                     "--out", str(out), "--seed", "7"])
        assert code == 0
    assert (corpus_path.read_bytes(), lexicon_path.read_bytes()) == input_bytes
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    assert "rq1_priority_arousal.csv" in files_a
    assert "report.txt" in files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_analyze_subset_selection(tmp_path, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    out = tmp_path / "rpt"
    code = main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path),
                 "--out", str(out), "--analyses", "rq1"])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "rq1_priority_arousal.csv" in names
    assert "rq3_performance.csv" not in names


REPORT_FILES = {
    "report.txt", "rq1_priority_arousal.csv", "rq1_type_valence.csv", "rq1_dominance_time.csv",
    "rq1_summary_points.csv", "rq1_summary_fits.csv", "rq2_first_last.csv", "rq3_coefficients.csv",
    "rq3_performance.csv", "rq3_model_comparison.csv", "rq3_correlation_filter.csv", "rq3_impacts.csv",
    "rq4_sign_table.csv",
}


def test_analyze_into_an_earlier_report_leaves_no_stale_files(tmp_path, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    out = tmp_path / "rpt"
    argv = ["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path), "--out", str(out)]
    assert main(argv) == 0
    assert {p.name for p in out.iterdir()} == REPORT_FILES
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    (out / "rq9_extra.csv").write_text("kept\n", encoding="utf-8")
    assert main(argv + ["--analyses", "rq1"]) == 0
    assert {p.name for p in out.iterdir()} == {
        "rq1_priority_arousal.csv", "rq1_type_valence.csv", "rq1_dominance_time.csv", "report.txt",
        "notes.txt", "rq9_extra.csv"}
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"
    # a later full run writes every report file again
    assert main(argv) == 0
    assert {p.name for p in out.iterdir()} == {*REPORT_FILES, "notes.txt", "rq9_extra.csv"}


def test_analyze_rq3_without_resolved_issues(tmp_path, capsys, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    issues = load_corpus(corpus_path)
    open_only = [i for i in issues if i.resolved is None]
    from vadminer.corpus import write_corpus
    unresolved = tmp_path / "open.jsonl"
    write_corpus(open_only, unresolved)
    out = tmp_path / "rpt"
    code = main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(unresolved),
                 "--out", str(out), "--analyses", "rq3"])
    assert code == 0
    printed = capsys.readouterr().out
    assert f"skipped {len(open_only)} unresolved" in printed
    perf = (out / "rq3_performance.csv").read_text(encoding="utf-8")
    assert perf.strip().splitlines() == ["classifier,class,precision,recall,f1,auc"]


def test_analyze_rq3_constant_dominance_exit_0(tmp_path, capsys):
    # every lexicon dominance 5: each *_d column is 0 on every issue, and has no r
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "1", "--out", str(corpus)]) == 0
    rows = corpus.with_suffix(".jsonl.lexicon.csv").read_text(encoding="utf-8").splitlines()
    lexicon = tmp_path / "d5.csv"
    lexicon.write_text("\n".join([rows[0]] + [row.rsplit(",", 1)[0] + ",5" for row in rows[1:]]) + "\n",
                       encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "rpt"
    assert main(["analyze", "--lexicon", str(lexicon), "--corpus", str(corpus), "--out", str(out),
                 "--analyses", "rq3"]) == 0
    printed = capsys.readouterr().out
    for element in VAD_ELEMENT_KEYS:
        assert f"  rq3 note: kept {element}_d: no r with {element}_v, constant: ['{element}_d']\n" in printed
    assert "  rq3 note: stage controls+vad failed: singular design; collinear columns: " in printed
    # the rows that reached the failed fit are counted as used
    assert "  rq3 used 688 issues (skipped 169 unresolved, 143 with incomplete scores)\n" in printed
    kept = (out / "rq3_correlation_filter.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert kept == [f"{element}_v,{element}_d,,no" for element in VAD_ELEMENT_KEYS]


def test_analyze_rq3_external_feature_scale_keeps_the_p_values(tmp_path, capsys):
    # any warning fails the test
    spec = tmp_path / "ext.json"
    spec.write_text('{"external_features": true}', encoding="utf-8")
    corpus = tmp_path / "ext.jsonl"
    assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(corpus)]) == 0

    def p_values(path, out):
        capsys.readouterr()
        assert main(["analyze", "--lexicon", str(corpus.with_suffix(".jsonl.lexicon.csv")), "--corpus", str(path),
                     "--out", str(out), "--analyses", "rq3"]) == 0
        printed = capsys.readouterr().out
        assert "failed" not in printed and "collinear" not in printed
        rows = (out / "rq3_coefficients.csv").read_text(encoding="utf-8").splitlines()
        return [(row.split(",")[1], row.split(",")[4]) for row in rows
                if row.startswith("controls+affective+vad,avg_")]

    unscaled = p_values(corpus, tmp_path / "unscaled")
    assert [name for name, _ in unscaled] == ["avg_politeness", "avg_sentiment"]
    # at 1e306 the sum of a feature column leaves the float range
    for scale in (1e-160, 1e306):
        scaled = tmp_path / f"{scale}.jsonl"
        with open(corpus, encoding="utf-8") as lines, open(scaled, "w", encoding="utf-8") as out:
            for issue in map(json.loads, lines):
                features = {key: value * scale for key, value in issue["external_features"].items()}
                out.write(json.dumps({**issue, "external_features": features}) + "\n")
        assert p_values(scaled, tmp_path / f"{scale}") == unscaled, scale


def test_analyze_csvs_read_back_with_carriage_returns_in_ids_and_names(tmp_path):
    spec = tmp_path / "cr.json"
    spec.write_text(json.dumps(config_to_dict(GeneratorConfig(n_issues=300, external_features=True))),
                    encoding="utf-8")
    corpus = tmp_path / "cr.jsonl"
    assert main(["synth", "--spec", str(spec), "--seed", "2", "--out", str(corpus)]) == 0
    issues = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    issues[0]["id"] += "\r"
    for issue in issues:
        issue["external_features"]["avg\rsentiment"] = issue["external_features"].pop("avg_sentiment")
    corpus.write_text("".join(json.dumps(issue) + "\n" for issue in issues), encoding="utf-8")
    out = tmp_path / "rpt"
    assert main(["analyze", "--lexicon", str(corpus.with_suffix(".jsonl.lexicon.csv")), "--corpus", str(corpus),
                 "--out", str(out)]) == 0

    tables = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert all(len(row) == len(header) for row in rows), path.name
        tables[path.name] = rows
    ids = [row[0] for row in tables["rq1_summary_points.csv"]]
    assert issues[0]["id"] in ids and set(ids) <= {issue["id"] for issue in issues}
    assert "avg\rsentiment" in {row[1] for row in tables["rq3_coefficients.csv"]}
    assert {row[0] for row in tables["rq3_impacts.csv"]} <= {row[1] for row in tables["rq3_coefficients.csv"]}
    # report.txt escapes the name's carriage return, so its lines stay whole
    report = (out / "report.txt").read_bytes().decode("utf-8")
    assert "\r" not in report and "avg\\rsentiment" in report


def test_analyze_empty_corpus_notes(tmp_path, lexicon_file):
    # the run behind the benchmark's setup_s: no issue reaches any pipeline
    corpus = tmp_path / "empty.jsonl"
    corpus.write_bytes(b"")
    out = tmp_path / "rpt"
    assert main(["analyze", "--lexicon", str(lexicon_file), "--corpus", str(corpus), "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 13
    lines = Counter((out / "report.txt").read_text(encoding="utf-8").splitlines())
    for groups in (PRIORITIES, TYPE_GROUP_ORDER, TIME_GROUPS):
        for left, right in zip(groups, groups[1:]):
            assert lines[f"         {left} vs {right}: insufficient data"] == len(ELEMENTS)
    for dim in DIMENSIONS:
        for scope in RQ2_SCOPES:
            assert lines[f"  {dim[0].upper()}/{scope}: insufficient data"] == 1
    assert lines["  too few distinct points for curvature fits"] == 1
    for role in ROLES:
        for dim in DIMENSIONS:
            assert lines[f"  note: {role}/{dim}: insufficient rows (0); column left blank"] == 1


def test_analyze_missing_inputs(tmp_path, capsys, lexicon_file):
    out = tmp_path / "rpt"
    assert main(["analyze", "--lexicon", str(lexicon_file), "--corpus", "/missing.jsonl",
                 "--out", str(out)]) == 2
    assert main(["analyze", "--corpus", "/missing.jsonl", "--out", str(out)]) == 2


def test_analyze_config_file_and_flag_override(tmp_path, synth_paths, capsys):
    corpus_path, lexicon_path, _ = synth_paths
    config = tmp_path / "run.cfg"
    config.write_text(
        f"# run settings\nlexicon={lexicon_path}\ncorpus={corpus_path}\n"
        f"out={tmp_path / 'cfg_out'}\nseed=9\nanalyses=rq1\n",
        encoding="utf-8",
    )
    assert main(["analyze", "--config", str(config)]) == 0
    assert (tmp_path / "cfg_out" / "rq1_priority_arousal.csv").exists()
    # flags win over the config file
    assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "fl_out"),
                 "--analyses", "summary"]) == 0
    names = {p.name for p in (tmp_path / "fl_out").iterdir()}
    assert "rq1_summary_points.csv" in names
    assert "rq1_priority_arousal.csv" not in names


def test_analyze_config_unknown_key_exit_2(tmp_path, synth_paths, capsys):
    corpus_path, lexicon_path, _ = synth_paths
    config = tmp_path / "run.cfg"
    config.write_text(f"lexicon={lexicon_path}\ncorpus={corpus_path}\nout={tmp_path / 'rpt'}\n"
                      "alpah=0.001\nsed=9\n", encoding="utf-8")
    assert main(["analyze", "--config", str(config)]) == 2
    assert "error: config line 4: unknown key 'alpah'" in capsys.readouterr().err
    assert not (tmp_path / "rpt").exists()


def test_analyze_config_repeated_key_exit_2(tmp_path, synth_paths, capsys):
    corpus_path, lexicon_path, _ = synth_paths
    config = tmp_path / "run.cfg"
    config.write_text(f"lexicon={lexicon_path}\ncorpus={corpus_path}\nout={tmp_path / 'rpt'}\n"
                      "analyses=rq1\n# comment\nanalyses=rq2\n", encoding="utf-8")
    assert main(["analyze", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error: config line 6: key 'analyses' already set on line 4" in err and "Traceback" not in err
    assert not (tmp_path / "rpt").exists()


def test_analyze_invalid_alpha(tmp_path, synth_paths, capsys):
    corpus_path, lexicon_path, _ = synth_paths
    code = main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "x"), "--alpha", "1.5"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_analyze_negative_seed_and_empty_selection_exit_2(tmp_path, synth_paths, capsys):
    corpus_path, lexicon_path, _ = synth_paths
    base = ["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path),
            "--out", str(tmp_path / "x")]
    config = tmp_path / "run.cfg"
    config.write_text("seed=-2\n", encoding="utf-8")
    runs = [(["--seed", "-3"], "seed must be >= 0, got -3"),
            (["--config", str(config)], "seed must be >= 0, got -2"),
            (["--analyses", ","], "analyses ',' selects none")]
    for extra, message in runs:
        assert main(base + extra) == 2, extra
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert main(base + ["--seed", "0", "--analyses", "rq3"]) == 0


@pytest.mark.parametrize("key,where", [(key, where) for key in ("out", "analyses", "lexicon", "corpus")
                                       for where in ("flag", "config")])
def test_analyze_empty_value_exit_2(tmp_path, synth_paths, capsys, monkeypatch, key, where):
    corpus_path, lexicon_path, _ = synth_paths
    messages = {"out": "no output directory given (use --out or a config file)",
                "analyses": "analyses '' selects none; choose from ('rq1', 'rq2', 'rq3', 'rq4', 'summary')",
                "lexicon": "no lexicon given (use --lexicon, a config file, or $VADMINER_LEXICON)",
                "corpus": "no corpus given (use --corpus or a config file)"}
    # an empty value must not fall back to the variable or to the working directory
    monkeypatch.setenv("VADMINER_LEXICON", str(lexicon_path))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    values = {"lexicon": str(lexicon_path), "corpus": str(corpus_path), "out": str(tmp_path / "rpt"), key: ""}
    if where == "flag":
        argv = ["analyze"] + [arg for name, value in values.items() for arg in (f"--{name}", value)]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{name}={value}\n" for name, value in values.items()), encoding="utf-8")
        argv = ["analyze", "--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {messages[key]}\n"
    assert list(cwd.iterdir()) == [] and not (tmp_path / "rpt").exists()


_DIGIT_LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
                "use sys.set_int_max_str_digits() to increase the limit")


@pytest.mark.parametrize("argv,files,code,message", [
    (["analyze", "--config", "{tmp}/none.cfg"], {}, 2, "config file not found: {tmp}/none.cfg"),
    (["analyze", "--config", ""], {}, 2, "config file not found: "),
    (["synth", "--spec", "", "--out", "{tmp}/c.jsonl"], {}, 2, "generator spec not found: "),
    (["analyze", "--config", "{tmp}/run.cfg"], {"run.cfg": "# settings\nseed 9\n"}, 2,
     "config line 2 is not key=value: 'seed 9'"),
    (["synth", "--spec", "{tmp}/spec.json", "--out", "{tmp}/c.jsonl"], {"spec.json": "not json"}, 3,
     "generator spec is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    # json.loads raises a plain ValueError, not a JSONDecodeError, for these
    (["synth", "--spec", "{tmp}/spec.json", "--out", "{tmp}/c.jsonl"],
     {"spec.json": '{{"n_issues": ' + "1" * 5000 + "}}"}, 3, f"generator spec is not valid JSON: {_DIGIT_LIMIT}"),
    (["ingest", "--corpus", "{tmp}/huge.jsonl"], {"huge.jsonl": '{{"id": "A-1", "votes": ' + "1" * 5000 + "}}\n"}, 3,
     f"corpus schema errors:\n  line 1: invalid JSON: {_DIGIT_LIMIT}"),
    (["ingest", "--corpus", "{tmp}/bad.jsonl"], {"bad.jsonl": "[1]\n"}, 3,
     "corpus schema errors:\n  line 1: line is not a JSON object"),
    (["score", "--lexicon", "{tmp}/twice.csv", "--text", "joy"],
     {"twice.csv": "word,valence,arousal,dominance,valence\njoy,8,5,7,1\n"}, 3,
     "invalid lexicon: line 1: lexicon header names the valence column more than once"),
    (["analyze", "--lexicon", "{lexicon}", "--out", "{tmp}/rpt"], {}, 2,
     "no corpus given (use --corpus or a config file)"),
    (["analyze", "--lexicon", "{lexicon}", "--corpus", "{corpus}"], {}, 2,
     "no output directory given (use --out or a config file)"),
    (["analyze", "--config", "{tmp}/run.cfg"],
     {"run.cfg": "lexicon={lexicon}\ncorpus={corpus}\nout={tmp}/rpt\nseed=abc\n"}, 2,
     "invalid numeric option: invalid literal for int() with base 10: 'abc'"),
    (["analyze", "--config", "{tmp}/run.cfg"],
     {"run.cfg": "lexicon={lexicon}\ncorpus={corpus}\nout={tmp}/rpt\njobs=2\n"}, 2,
     "config line 4: unknown key 'jobs'"),
    (["analyze", "--lexicon", "{lexicon}", "--corpus", "{corpus}", "--out", "{tmp}/rpt", "--analyses", "rq1,rq9"],
     {}, 2, "unknown analyses ['rq9']; choose from ('rq1', 'rq2', 'rq3', 'rq4', 'summary')"),
    # json.loads raises a RecursionError, not a ValueError, past about 995 levels of nesting
    (["synth", "--spec", "{tmp}/spec.json", "--out", "{tmp}/c.jsonl"], {"spec.json": "[" * 100_000}, 3,
     "generator spec is not valid JSON: nested too deeply"),
    (["ingest", "--corpus", "{tmp}/deep.jsonl"], {"deep.jsonl": "[" * 100_000 + "\n"}, 3,
     "corpus schema errors:\n  line 1: invalid JSON: nested too deeply"),
    (["analyze", "--lexicon", "{lexicon}", "--corpus", "{tmp}/deep.jsonl", "--out", "{tmp}/rpt"],
     {"deep.jsonl": "{{}}\n" + "[" * 100_000 + "\n"}, 3,
     "corpus schema errors:\n  line 1: missing field id\n  line 2: invalid JSON: nested too deeply"),
    # csv.reader raises csv.Error for a field past its 131,072-character limit
    (["score", "--lexicon", "{tmp}/long.csv", "--text", "joy"],
     {"long.csv": "word,valence,arousal,dominance\n" + "a" * 200_000 + ",5,5,5\n"}, 3,
     "invalid lexicon: line 2: field larger than field limit (131072)"),
    (["analyze", "--lexicon", "{tmp}/long.csv", "--corpus", "{corpus}", "--out", "{tmp}/rpt"],
     {"long.csv": "word,valence,arousal,dominance\njoy,8,5,7\n" + "a" * 200_000 + ",5,5,5\n"}, 3,
     "invalid lexicon: line 3: field larger than field limit (131072)"),
    (["synth", "--spec", "{tmp}/spec.json", "--out", "{tmp}/c.jsonl"],
     {"spec.json": '{{"vocabulary": {{"pad_to": 10}}}}'}, 2,
     "invalid generator spec: pad_to=10 smaller than base vocabulary (394 words)"),
    (["synth", "--spec", "{tmp}/spec.json", "--out", "{tmp}/c.jsonl"],
     {"spec.json": '{{"comment_count_weights": {{"1": 0.5, "01": 0.25}}}}'}, 2,
     "invalid generator spec: comment_count_weights names count 1 twice"),
], ids=["config not found", "empty config", "empty spec", "config not key=value", "spec not json",
        "spec int past digit limit", "corpus int past digit limit", "corpus line not an object",
        "lexicon header names a column twice", "no corpus", "no out", "seed not numeric",
        "config sets removed key jobs", "unknown analysis", "spec nested too deeply",
        "corpus nested too deeply", "analyze corpus nested too deeply", "lexicon field past csv limit",
        "analyze lexicon field past csv limit", "spec pad_to below base vocabulary",
        "spec names a comment count twice"])
def test_cli_error_messages(tmp_path, synth_paths, capsys, argv, files, code, message):
    corpus_path, lexicon_path, _ = synth_paths
    places = {"tmp": str(tmp_path), "lexicon": str(lexicon_path), "corpus": str(corpus_path)}
    for name, text in files.items():
        (tmp_path / name).write_text(text.format(**places), encoding="utf-8")
    assert main([arg.format(**places) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(**places)}\n"
    assert not (tmp_path / "rpt").exists() and not list(tmp_path.glob("c.jsonl*"))


def test_analyze_corrupt_lexicon_exit_3(tmp_path, synth_paths):
    corpus_path, _, _ = synth_paths
    bad_lex = tmp_path / "bad.csv"
    bad_lex.write_text("word,valence,arousal,dominance\njoy,99,5,5\n", encoding="utf-8")
    assert main(["analyze", "--lexicon", str(bad_lex), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "x")]) == 3


def test_non_utf8_input_exit_3(tmp_path, capsys, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_bytes(corpus_path.read_bytes() + b"\xff\xfe{}\n")
    n_lines = len(corpus_path.read_bytes().splitlines()) + 1
    bad_lex = tmp_path / "bad.csv"
    bad_lex.write_bytes(lexicon_path.read_bytes() + b"caf\xe9,5,5,5\n")
    lex_line = len(lexicon_path.read_bytes().splitlines()) + 1
    runs = [
        (["ingest", "--corpus", str(bad_corpus)], f"line {n_lines}: not valid UTF-8"),
        (["analyze", "--lexicon", str(lexicon_path), "--corpus", str(bad_corpus),
          "--out", str(tmp_path / "r1")], f"line {n_lines}: not valid UTF-8"),
        (["score", "--lexicon", str(bad_lex), "--text", "joy"], f"line {lex_line}: not valid UTF-8"),
        (["analyze", "--lexicon", str(bad_lex), "--corpus", str(corpus_path),
          "--out", str(tmp_path / "r2")], f"line {lex_line}: not valid UTF-8"),
    ]
    for argv, message in runs:
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_non_utf8_config_exit_2_and_stdin_exit_3(tmp_path, capsys, monkeypatch, lexicon_file):
    import io
    config = tmp_path / "run.cfg"
    config.write_bytes(b"# run settings\nseed=9\nlexicon=caf\xe9\n")
    assert main(["analyze", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error: config line 3: not valid UTF-8" in err and "Traceback" not in err

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"caf\xe9 joy")))
    assert main(["score", "--lexicon", str(lexicon_file), "--stdin"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: standard input is not valid UTF-8" in captured.err


@pytest.mark.parametrize("marked", ["corpus", "lexicon", "config"])
def test_byte_order_mark_at_file_start_accepted(tmp_path, capsys, synth_paths, marked):
    # a run whose input file starts with a UTF-8 BOM prints and writes what the unmarked run does
    corpus_path, lexicon_path, _ = synth_paths
    bom = b"\xef\xbb\xbf"
    inputs = {"corpus": corpus_path, "lexicon": lexicon_path}
    if marked in inputs:
        inputs[marked] = tmp_path / f"bom_{inputs[marked].name}"
        inputs[marked].write_bytes(bom + (corpus_path if marked == "corpus" else lexicon_path).read_bytes())
    config = tmp_path / "run.cfg"
    settings = f"seed=9\nlexicon={inputs['lexicon']}\ncorpus={inputs['corpus']}\n".encode()
    config.write_bytes((bom if marked == "config" else b"") + settings)
    capsys.readouterr()  # what synth printed

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    assert (run(["ingest", "--corpus", str(inputs["corpus"])])
            == run(["ingest", "--corpus", str(corpus_path)]))
    assert (run(["score", "--lexicon", str(inputs["lexicon"]), "--text", "joy"])
            == run(["score", "--lexicon", str(lexicon_path), "--text", "joy"]))
    run(["analyze", "--config", str(config), "--out", str(tmp_path / "marked")])
    run(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path), "--seed", "9",
         "--out", str(tmp_path / "plain")])
    for report in (tmp_path / "plain").iterdir():
        assert (tmp_path / "marked" / report.name).read_bytes() == report.read_bytes(), report.name


def test_score_text_not_utf8_exit_3(capsys, lexicon_file):
    # how Python hands over the argument bytes b"caf\xe9joy" on a UTF-8 system
    assert main(["score", "--lexicon", str(lexicon_file), "--text", "caf\udce9joy"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --text is not valid UTF-8" in captured.err
    assert main(["score", "--lexicon", str(lexicon_file), "--text", "café joy"]) == 0


def test_analyze_out_must_be_a_directory(tmp_path, capsys, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    # a corpus that fails to load shows that --out is checked first
    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_text("not json\n", encoding="utf-8")
    for out in (afile, afile / "sub", afile / "sub" / "deeper"):
        assert main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(bad_corpus),
                     "--out", str(out)]) == 2
        assert f"error: output path {afile} is not a directory" in capsys.readouterr().err
    assert main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "new" / "dir"), "--analyses", "rq1"]) == 0


@pytest.mark.parametrize("taken,analyses", [("report.txt", "rq1,rq2,rq3,rq4,summary"),
                                             ("rq3_coefficients.csv", "rq1")])
def test_analyze_report_name_taken_by_a_directory_exit_2(tmp_path, capsys, synth_paths, taken, analyses):
    # a report file written, or an earlier run's one deleted, in place of a directory
    corpus_path, lexicon_path, _ = synth_paths
    out = tmp_path / "o1"
    (out / taken).mkdir(parents=True)
    # a corpus that fails to load shows that the names are checked first
    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_text("not json\n", encoding="utf-8")
    for corpus in (bad_corpus, corpus_path):
        assert main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus),
                     "--out", str(out), "--analyses", analyses]) == 2
        assert capsys.readouterr().err == f"error: output path {out / taken} is a directory\n"
        assert [path.name for path in out.iterdir()] == [taken] and (out / taken).is_dir()


def test_analyze_runs_without_scipy(tmp_path, synth_paths):
    # numpy is the only runtime dependency; scipy is installed for the tests' oracles
    corpus_path, lexicon_path, _ = synth_paths
    code = ("import sys; sys.modules['scipy'] = None; from vadminer.cli import main; "
            f"sys.exit(main(['analyze', '--lexicon', {str(lexicon_path)!r}, '--corpus', "
            f"{str(corpus_path)!r}, '--out', {str(tmp_path / 'rpt')!r}]))")
    run_python(["-c", code])
    assert len(list((tmp_path / "rpt").iterdir())) == 13


def test_analyze_frees_the_records_before_the_pipelines(tmp_path, synth_paths):
    # in a fresh interpreter, so that no other test's records are alive
    corpus_path, lexicon_path, _ = synth_paths
    code = f"""
import gc, sys
from vadminer import analyses
from vadminer.cli import main
from vadminer.corpus import TEXTLESS, Comment, IssueReport

counts = {{}}
def counted(name, function):
    def run(*args, **kwargs):
        counts[name] = sum(isinstance(o, (IssueReport, Comment)) and o is not TEXTLESS for o in gc.get_objects())
        return function(*args, **kwargs)
    return run

analyses.score_corpus = counted("scoring", analyses.score_corpus)
analyses.rq1_priority_arousal = counted("pipelines", analyses.rq1_priority_arousal)
code = main(["analyze", "--lexicon", {str(lexicon_path)!r}, "--corpus", {str(corpus_path)!r},
             "--out", {str(tmp_path / "rpt")!r}, "--analyses", "rq1"])
print(counts["scoring"], counts["pipelines"])
sys.exit(code)
"""
    scoring, pipelines = map(int, run_python(["-c", code]).stdout.splitlines()[-1].split())
    assert scoring >= 150  # the count sees the records while they are scored
    assert pipelines == 0


def test_commands_run_with_the_collector_off_and_restore_it(tmp_path, synth_paths, monkeypatch):
    corpus_path, lexicon_path, _ = synth_paths
    seen = []

    def load(path, **options):
        seen.append(gc.isenabled())
        return load_corpus(path, **options)

    monkeypatch.setattr(cli, "load_corpus", load)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    commands = (["ingest", "--corpus"],
                ["analyze", "--lexicon", str(lexicon_path), "--out", str(tmp_path / "rpt"), "--analyses", "rq1",
                 "--corpus"])
    runs = [(command + [str(path)], code) for command in commands
            for path, code in ((corpus_path, 0), (tmp_path / "missing.jsonl", 2), (bad, 3))]
    assert gc.isenabled()
    for argv, code in runs:
        assert main(argv) == code
        assert gc.isenabled()
    assert seen == [False] * 4  # a missing file exits before the loader
    gc.disable()
    try:
        for argv, code in runs:
            assert main(argv) == code
            assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False] * 8


def test_analyze_makes_one_collection_the_explicit_full_one(tmp_path, synth_paths):
    corpus_path, lexicon_path, _ = synth_paths
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        code = main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path),
                     "--out", str(tmp_path / "rpt")])
    finally:
        gc.callbacks.remove(record)
    assert code == 0
    assert started == [2]

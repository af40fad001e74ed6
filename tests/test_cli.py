import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vadminer.cli import main
from vadminer.corpus import load_corpus
from vadminer.lexicon import load_lexicon
from vadminer.synth import GeneratorConfig, config_to_dict

from conftest import TABLE1_CSV


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
    spec.write_text('{"n_issues": -3}', encoding="utf-8")
    code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c.jsonl")])
    assert code == 2
    assert "invalid generator spec" in capsys.readouterr().err


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


def test_ingest_valid(capsys, synth_paths):
    corpus_path, _, _ = synth_paths
    assert main(["ingest", "--corpus", str(corpus_path)]) == 0
    assert "valid corpus: 150 issues" in capsys.readouterr().out


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
                     "--out", str(out), "--seed", "7", "--jobs", "1"])
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


def test_analyze_runs_without_scipy(tmp_path, synth_paths):
    # numpy is the only runtime dependency; scipy is installed for the tests' oracles
    corpus_path, lexicon_path, _ = synth_paths
    code = ("import sys; sys.modules['scipy'] = None; from vadminer.cli import main; "
            f"sys.exit(main(['analyze', '--lexicon', {str(lexicon_path)!r}, '--corpus', "
            f"{str(corpus_path)!r}, '--out', {str(tmp_path / 'rpt')!r}]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list((tmp_path / "rpt").iterdir())) == 13

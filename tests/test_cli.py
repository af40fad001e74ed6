import json

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
    monkeypatch.setattr("sys.stdin", io.StringIO("love and anger"))
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


def test_analyze_invalid_alpha(tmp_path, synth_paths, capsys):
    corpus_path, lexicon_path, _ = synth_paths
    code = main(["analyze", "--lexicon", str(lexicon_path), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "x"), "--alpha", "1.5"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_analyze_corrupt_lexicon_exit_3(tmp_path, synth_paths):
    corpus_path, _, _ = synth_paths
    bad_lex = tmp_path / "bad.csv"
    bad_lex.write_text("word,valence,arousal,dominance\njoy,99,5,5\n", encoding="utf-8")
    assert main(["analyze", "--lexicon", str(bad_lex), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "x")]) == 3

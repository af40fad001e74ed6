"""Report-level metamorphic relations: ``analyze`` on one synthetic corpus and
on copies changed in ways the analyses must not see.

Each copy is analyzed in-process by ``cli.main`` with the same seed, and its
report tree is compared byte for byte with the original's:

- every person (reporter, assignee and comment author) renamed by a
  bijection, non-ASCII names included: every file is identical;
- every issue id renamed: only the id column of ``rq1_summary_points.csv``
  changes;
- each JSON line written again with its keys in reverse order at every level,
  other separators and ``ensure_ascii`` off (on the person-renamed copy, so the
  non-ASCII names are written as raw UTF-8 rather than escapes): identical;
- the comments of each issue shuffled where their timestamps are distinct
  (the loader sorts comments by timestamp with a stable sort, so ties keep
  file order by design): identical;
- every project renamed: identical;
- the lexicon's rows shuffled: identical;
- each ``--analyses`` subset alone: every CSV it writes is identical to the
  full run's file of that name.

Shuffling the order of the issues is left out on purpose. It changes reports
by design: ``rq1_summary_points.csv`` lists the issues in corpus order, rq1's
resolution-time split breaks ties by corpus order, and rq3's cross-validation
folds are dealt out to each class's issues in corpus order.
"""
import csv
import io
import json
import random

import pytest

import reportdiff
from vadminer.analyses import ANALYSIS_NAMES
from vadminer.cli import main
from vadminer.synth import config_to_dict, planted_config

ANALYZE_SEED = 5
# first parts of the new person and project names: a bijection onto names
# that share no prefix with the synthetic ones, most of them non-ASCII
NEW_NAMES = ("Zoë", "Łukasz", "李", "Ægir", "dev", "Ñandú")


def _analyze(corpus, lexicon, out, *extra) -> dict[str, bytes]:
    assert main(["analyze", "--lexicon", str(lexicon), "--corpus", str(corpus), "--out", str(out),
                 "--seed", str(ANALYZE_SEED), *extra]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _moved(expected, actual) -> str:
    """reportdiff's per-file summary of two report trees, as a failure message."""
    return "\n".join(reportdiff.summary(expected, actual)[0])


def _write_lines(issues, path, dumps=lambda issue: json.dumps(issue, sort_keys=True, separators=(",", ":"))):
    path.write_text("".join(dumps(issue) + "\n" for issue in issues), encoding="utf-8")
    return path


def _renaming(names, seed: int) -> dict[str, str]:
    """A bijection of ``names`` onto new names, in a shuffled order."""
    names = sorted(names)
    order = list(range(len(names)))
    random.Random(seed).shuffle(order)
    return {name: f"{NEW_NAMES[k % len(NEW_NAMES)]}-{k}" for name, k in zip(names, order)}


def rename_persons(issues):
    people = {issue["reporter"] for issue in issues} | {issue["assignee"] for issue in issues if issue["assignee"]}
    people |= {comment["author"] for issue in issues for comment in issue["comments"]}
    new = _renaming(people, seed=1)
    return [{**issue, "reporter": new[issue["reporter"]], "assignee": new.get(issue["assignee"]),
             "comments": [{**comment, "author": new[comment["author"]]} for comment in issue["comments"]]}
            for issue in issues]


def rename_projects(issues):
    new = _renaming({issue["project"] for issue in issues}, seed=2)
    return [{**issue, "project": new[issue["project"]]} for issue in issues]


def shuffle_comments(issues):
    rng = random.Random(3)
    shuffled = []
    for issue in issues:
        comments = list(issue["comments"])
        if len({comment["created"] for comment in comments}) == len(comments):
            rng.shuffle(comments)
        shuffled.append({**issue, "comments": comments})
    assert sum(a["comments"] != b["comments"] for a, b in zip(issues, shuffled)) > len(issues) // 2
    return shuffled


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(item) for key, item in reversed(value.items())}
    if isinstance(value, list):
        return [_reversed_keys(item) for item in value]
    return value


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The corpus as decoded lines, its path, its lexicon's path, its report
    files' bytes by name and their directory."""
    workdir = tmp_path_factory.mktemp("metamorphic")
    spec = workdir / "spec.json"
    spec.write_text(json.dumps(config_to_dict(planted_config(1500))), encoding="utf-8")
    corpus = workdir / "corpus.jsonl"
    assert main(["synth", "--spec", str(spec), "--seed", "7", "--out", str(corpus)]) == 0
    lexicon = corpus.with_suffix(".jsonl.lexicon.csv")
    issues = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    reports = _analyze(corpus, lexicon, workdir / "report")
    assert len(reports) == 13
    return issues, corpus, lexicon, reports, workdir / "report"


@pytest.mark.parametrize("transform", [rename_persons, shuffle_comments, rename_projects])
def test_reports_do_not_see_the_transform(base, tmp_path, transform):
    issues, _, lexicon, reports, expected = base
    corpus = _write_lines(transform(issues), tmp_path / "corpus.jsonl")
    assert _analyze(corpus, lexicon, tmp_path / "report") == reports, _moved(expected, tmp_path / "report")


def test_reports_do_not_see_key_order_separators_or_escapes(base, tmp_path):
    issues, _, lexicon, reports, expected = base
    def dumps(issue):
        return json.dumps(_reversed_keys(issue), separators=(" , ", " : "), ensure_ascii=False)

    corpus = _write_lines(rename_persons(issues), tmp_path / "corpus.jsonl", dumps)
    assert not corpus.read_bytes().isascii()
    assert _analyze(corpus, lexicon, tmp_path / "report") == reports, _moved(expected, tmp_path / "report")


def test_reports_do_not_see_the_lexicon_row_order(base, tmp_path):
    _, corpus, lexicon, reports, expected = base
    header, *rows = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(4).shuffle(rows)
    shuffled = tmp_path / "lexicon.csv"
    shuffled.write_text(header + "".join(rows), encoding="utf-8")
    assert _analyze(corpus, shuffled, tmp_path / "report") == reports, _moved(expected, tmp_path / "report")


def test_renamed_ids_change_only_the_points_id_column(base, tmp_path):
    issues, _, lexicon, reports, expected = base
    new = {issue["id"]: f"Ⅹ-{k}" for k, issue in enumerate(reversed(issues))}
    corpus = _write_lines([{**issue, "id": new[issue["id"]]} for issue in issues], tmp_path / "corpus.jsonl")
    renamed = _analyze(corpus, lexicon, tmp_path / "report")
    points = "rq1_summary_points.csv"
    assert {name: data for name, data in renamed.items() if name != points} == \
        {name: data for name, data in reports.items() if name != points}, _moved(expected, tmp_path / "report")

    def rows(data):
        return list(csv.reader(io.StringIO(data.decode("utf-8"))))

    before, after = rows(reports[points]), rows(renamed[points])
    assert after[0] == before[0] and len(after) == len(before) > 1
    assert after[1:] == [[new[row[0]], *row[1:]] for row in before[1:]]


@pytest.mark.parametrize("analysis", ANALYSIS_NAMES)
def test_each_analysis_alone_writes_the_full_runs_tables(base, tmp_path, analysis):
    _, corpus, lexicon, reports, expected = base
    tables = {name: data for name, data in _analyze(corpus, lexicon, tmp_path / "report", "--analyses", analysis)
              .items() if name.endswith(".csv")}
    assert tables and tables == {name: reports[name] for name in tables}, _moved(expected, tmp_path / "report")

"""Golden reports: ``synth`` then ``analyze`` on seeded corpora must write
report files whose SHA-256 hashes match the ones committed in
``tests/golden_hashes.json``.

Refactors of scoring, the score table or the pipelines must keep these
hashes. A change that alters report bytes on purpose (a correctness fix)
updates the JSON file and says why in CHANGES.md.

The rq3 files hold floats from IRLS fits and cross-validation, which go
through numpy's linear algebra; their last digits can depend on the numpy
version and the BLAS it links. A hash mismatch confined to ``rq3_*`` files
and ``report.txt`` after a numpy or BLAS upgrade is not a regression in
this package: regenerate with ``python tests/test_golden.py`` on the
unchanged code first.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from vadminer.cli import main

HASHES_PATH = Path(__file__).with_name("golden_hashes.json")

# name -> (generator spec or None for the defaults, synth seed, analyze seed)
CASES = {
    "default": (None, 17, 9),
    "planted": ({
        "n_issues": 1500,
        "external_features": True,
        "effects": {"priority_arousal": 0.6, "bug_valence": 0.5, "slow_dominance": 0.6,
                    "last_valence": 0.5, "valence_resolution": 0.8},
    }, 23, 5),
}


def report_hashes(case: str, workdir: Path) -> dict[str, str]:
    spec, synth_seed, analyze_seed = CASES[case]
    corpus = workdir / "corpus.jsonl"
    synth_args = ["synth", "--seed", str(synth_seed), "--out", str(corpus)]
    if spec is not None:
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        synth_args += ["--spec", str(spec_path)]
    assert main(synth_args) == 0
    out = workdir / "report"
    assert main(["analyze", "--lexicon", str(corpus.with_suffix(".jsonl.lexicon.csv")),
                 "--corpus", str(corpus), "--out", str(out), "--seed", str(analyze_seed)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report_hashes(case, tmp_path):
    expected = json.loads(HASHES_PATH.read_text(encoding="utf-8"))[case]
    actual = report_hashes(case, tmp_path)
    assert len(actual) == 13
    assert actual == expected


if __name__ == "__main__":
    # regenerate the committed hashes
    import tempfile

    hashes = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes[name] = report_hashes(name, Path(tmp))
    HASHES_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)

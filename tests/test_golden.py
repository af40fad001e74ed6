"""Golden reports: ``synth`` then ``analyze`` on seeded corpora must write
report files whose SHA-256 hashes match the ones committed in
``tests/golden_hashes.json``.

Refactors of scoring, the score table or the pipelines must keep these
hashes. A change that alters report bytes on purpose (a correctness fix)
updates the JSON file and says why in CHANGES.md.

The rq1 summary fits and the rq3 files hold floats from least-squares and
IRLS fits, which go through numpy's linear algebra; their last digits can
depend on the numpy version, the BLAS it links, the kernel that OpenBLAS picks
for the CPU, and the BLAS thread count when one is set explicitly (importing
vadminer otherwise pins it to one). The rq3 files do not depend on numpy's
random number streams, since rq3's cross-validation folds come from a seeded
integer hash of the row positions (``test_crossval_folds_are_pinned``), but
they still depend on BLAS. Under OpenBLAS's Sandybridge or Prescott kernel
(``OPENBLAS_CORETYPE``), the ``default`` case differs in
``rq1_summary_fits.csv`` alone; SkylakeX, Haswell and Zen give the committed
hashes. ``test_golden_reports_do_not_depend_on_the_blas_kernel`` checks every
other file under each of these five kernels, and with numpy's loops held to
its X86_V2 dispatch target (``NPY_DISABLE_CPU_FEATURES``); on failure it
prints ``tests/reportdiff.py``'s per-file summary against this process's
reports. At larger corpora the kernel also moves ``rq3_*`` cells and
``report.txt``. A mismatch confined to these files after a numpy or BLAS
upgrade, or on another CPU, is not a regression in this package: regenerate
with ``python tests/test_golden.py`` on the unchanged code first.
"""
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

import reportdiff
from conftest import run_python
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


# the one file whose bytes still move with the kernel: the default case's quadratic
# c0 sits next to a 12-digit rounding boundary (ROADMAP item 9), until polyfit
# builds its normal equations in exactly rounded sums
KERNEL_EXCEPTIONS = {("default", "rq1_summary_fits.csv")}

# runs both golden cases in one fresh interpreter: argv is the tests directory
# and a work directory; prints the hashes as one JSON line
_CASES_IN_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden import CASES, report_hashes
hashes = {}
for case in sorted(CASES):
    (Path(sys.argv[2]) / case).mkdir()
    hashes[case] = report_hashes(case, Path(sys.argv[2]) / case)
print(json.dumps(hashes))
"""


def _kernel_bound(hashes: dict[str, dict[str, str]]) -> dict[tuple[str, str], str]:
    return {(case, name): digest for case, files in hashes.items() for name, digest in files.items()
            if (case, name) not in KERNEL_EXCEPTIONS}


# the settings each child runs under: OpenBLAS's kernel by name, and numpy's own
# loops held to AVX2-free code by switching off its newer CPU dispatch targets
KERNEL_SETTINGS = {
    **{coretype: {"OPENBLAS_CORETYPE": coretype}
       for coretype in ("Prescott", "Sandybridge", "Haswell", "SkylakeX", "Zen")},
    "numpy-x86-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


def _moved_from_this_process(workdir: Path) -> str:
    """reportdiff's per-file summary of each case's report tree from the child,
    under ``workdir``, against this process's, as a failure message."""
    lines = []
    for case in sorted(CASES):
        reference = workdir / "this-process" / case
        reference.mkdir(parents=True)
        report_hashes(case, reference)
        lines += [f"{case}: {line}" for line in reportdiff.summary(reference / "report", workdir / case / "report")[0]]
    return "\n".join(lines)


@pytest.mark.parametrize("setting", list(KERNEL_SETTINGS))
def test_golden_reports_do_not_depend_on_the_blas_kernel(setting, tmp_path):
    env = {**os.environ, **KERNEL_SETTINGS[setting]}
    proc = run_python(["-c", _CASES_IN_CHILD, str(Path(__file__).parent), str(tmp_path)], env=env)
    actual = json.loads(proc.stdout.splitlines()[-1])
    expected = json.loads(HASHES_PATH.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(expected)
    assert _kernel_bound(actual) == _kernel_bound(expected), _moved_from_this_process(tmp_path)


if __name__ == "__main__":
    # regenerate the committed hashes
    import tempfile

    hashes = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes[name] = report_hashes(name, Path(tmp))
    HASHES_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)

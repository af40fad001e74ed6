"""Importing vadminer pins BLAS/LAPACK to one thread, so that reports do not
depend on the core count. Each check runs in a fresh interpreter whose
environment has the BLAS thread variables removed, because numpy reads them
once, when it is first imported."""
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vadminer.corpus import write_corpus
from vadminer.lexicon import write_lexicon
from vadminer.synth import Vocabulary, generate_corpus, planted_config

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parents[1] / "src"
PRINT_VARS = "import os, vadminer; print(*(os.environ[v] for v in %r))" % (THREAD_VARS,)


def run_python(args, **overrides) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(overrides)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_sets_one_thread():
    assert run_python(["-c", PRINT_VARS]).stdout.split() == ["1", "1", "1"]


def test_explicit_thread_count_kept():
    assert run_python(["-c", PRINT_VARS], OPENBLAS_NUM_THREADS="3").stdout.split() == ["3", "1", "1"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
                    reason="needs Linux /proc and at least two CPUs")
def test_import_starts_no_blas_thread():
    code = "import os, vadminer; print(len(os.listdir('/proc/self/task')))"
    assert run_python(["-c", code]).stdout.strip() == "1"


def test_reports_same_with_thread_variables_unset(tmp_path):
    # on a two-CPU x86-64 machine with OpenBLAS 0.3.31, two BLAS threads
    # change this corpus's rq3 coefficients in their last printed digit
    config = planted_config(2000)
    issues, _ = generate_corpus(config, seed=1)
    corpus, lexicon = tmp_path / "corpus.jsonl", tmp_path / "lexicon.csv"
    write_corpus(issues, corpus)
    write_lexicon(Vocabulary(config.vocabulary).lexicon(), lexicon)
    outs = {}
    for label, overrides in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        outs[label] = tmp_path / label
        run_python(["-m", "vadminer.cli", "analyze", "--lexicon", str(lexicon),
                    "--corpus", str(corpus), "--out", str(outs[label]), "--seed", "1"],
                   **overrides)
    names = sorted(path.name for path in outs["unset"].iterdir())
    assert len(names) == 13
    _, mismatch, errors = filecmp.cmpfiles(outs["unset"], outs["one"], names, shallow=False)
    assert (mismatch, errors) == ([], [])

"""Importing vadminer, or any of its submodules first, pins BLAS/LAPACK to one
thread, so that reports do not depend on the core count. Each check runs in a
fresh interpreter whose environment has the BLAS thread variables removed,
because numpy reads them once, when it is first imported."""
import filecmp
import os
from pathlib import Path

import pytest

from vadminer.corpus import write_corpus
from vadminer.lexicon import write_lexicon
from vadminer.synth import Vocabulary, generate_corpus, planted_config

from conftest import run_python as run_fresh

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PRINT_VARS = "import os, %s; print(*(os.environ[v] for v in " + repr(THREAD_VARS) + "))"


def run_python(args, **overrides):
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    return run_fresh(args, env={**env, **overrides})


FIRST_IMPORTS = ("vadminer", "vadminer.lexicon")  # the package, or a submodule first


def test_import_sets_one_thread():
    for module in FIRST_IMPORTS:
        assert run_python(["-c", PRINT_VARS % module]).stdout.split() == ["1", "1", "1"], module


def test_explicit_thread_count_kept():
    for module in FIRST_IMPORTS:
        proc = run_python(["-c", PRINT_VARS % module], OPENBLAS_NUM_THREADS="3")
        assert proc.stdout.split() == ["3", "1", "1"], module


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
                    reason="needs Linux /proc and at least two CPUs")
def test_import_starts_no_blas_thread():
    # a numeric layer, since importing the package alone loads no numpy
    code = "import os, sys, vadminer.analyses; print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))"
    assert run_python(["-c", code]).stdout.split() == ["True", "1"]


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

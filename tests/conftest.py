import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vadminer.analyses import score_corpus
from vadminer.lexicon import load_lexicon
from vadminer.synth import generate_corpus, generate_lexicon, planted_config

TABLE1_CSV = """word,valence,arousal,dominance
anger,2.50,5.93,5.14
joy,8.21,5.55,7.00
sadness,2.40,2.81,3.84
love,8.00,5.36,5.92
"""

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, env=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter (``env``, default this one's) that imports
    vadminer from this checkout; it must exit 0."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="session")
def table1_lexicon():
    return load_lexicon(io.StringIO(TABLE1_CSV))


@pytest.fixture(scope="session")
def synth_lexicon():
    return generate_lexicon()


@pytest.fixture(scope="session")
def planted_corpus(synth_lexicon):
    issues, manifest = generate_corpus(planted_config(2000), seed=11235)
    return list(issues), manifest


@pytest.fixture(scope="session")
def planted_scored(planted_corpus, synth_lexicon):
    issues, _ = planted_corpus
    return score_corpus(issues, synth_lexicon)

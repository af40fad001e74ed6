"""vadminer: lexicon-based VAD scoring and issue-tracker corpus analytics.

Importing the package sets each of ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` that is not already set to
``"1"``, so BLAS/LAPACK runs on one thread. A value set before the import is
kept: to give BLAS more threads, set the variable of the BLAS that numpy links
(``OPENBLAS_NUM_THREADS`` for numpy's wheels). A program that imports numpy
before vadminer keeps the BLAS threads numpy started with.

Importing the package loads none of its submodules. Each name in ``__all__``
imports its home submodule on first use (``vadminer.load_corpus`` imports
``vadminer.corpus`` alone), so a caller of the numpy-free corpus layer never
imports numpy.
"""

import os
from importlib import import_module

# A multi-threaded BLAS splits the rq3 fits' sums by thread, so reports
# would differ in their last digits between machines with different core
# counts; and at these matrix sizes a second thread costs CPU without saving
# wall time. This must run before any submodule imports numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"

# each exported name -> the submodule it is defined in
_HOMES = {
    "AnalysisResults": "analyses",
    "Comment": "corpus",
    "GeneratorConfig": "synth",
    "IssueReport": "corpus",
    "Lexicon": "lexicon",
    "LexiconEntry": "lexicon",
    "LexiconError": "lexicon",
    "ScoreTable": "analyses",
    "VadScore": "textscore",
    "generate_corpus": "synth",
    "generate_lexicon": "synth",
    "load_corpus": "corpus",
    "load_lexicon": "lexicon",
    "range_score": "textscore",
    "run_analyses": "analyses",
    "score_corpus": "analyses",
    "score_text": "textscore",
    "tokenize": "textscore",
    "write_corpus": "corpus",
    "write_lexicon": "lexicon",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})

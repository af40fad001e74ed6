"""vadminer: lexicon-based VAD scoring and issue-tracker corpus analytics.

Importing the package sets each of ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` that is not already set to
``"1"``, so BLAS/LAPACK runs on one thread. A value set before the import is
kept: to give BLAS more threads, set the variable of the BLAS that numpy links
(``OPENBLAS_NUM_THREADS`` for numpy's wheels). A program that imports numpy
before vadminer keeps the BLAS threads numpy started with.
"""

import os

# A multi-threaded BLAS splits the rq3 fits' sums by thread, so reports
# would differ in their last digits between machines with different core
# counts; and at these matrix sizes a second thread costs CPU without saving
# wall time. This must run before any submodule imports numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .analyses import AnalysisResults, ScoreTable, run_analyses, score_corpus
from .corpus import Comment, IssueReport, load_corpus, write_corpus
from .lexicon import Lexicon, LexiconEntry, LexiconError, load_lexicon, write_lexicon
from .synth import GeneratorConfig, generate_corpus, generate_lexicon
from .textscore import VadScore, range_score, score_text, tokenize

__version__ = "0.1.0"

__all__ = [
    "AnalysisResults",
    "Comment",
    "GeneratorConfig",
    "IssueReport",
    "Lexicon",
    "LexiconEntry",
    "LexiconError",
    "ScoreTable",
    "VadScore",
    "generate_corpus",
    "generate_lexicon",
    "load_corpus",
    "load_lexicon",
    "range_score",
    "run_analyses",
    "score_corpus",
    "score_text",
    "tokenize",
    "write_corpus",
    "write_lexicon",
    "__version__",
]

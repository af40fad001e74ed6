"""vadminer: lexicon-based VAD scoring and issue-tracker corpus analytics."""

from .analyses import AnalysisResults, ScoreTable, run_analyses, score_corpus
from .corpus import Comment, IssueReport, load_corpus, role_of, write_corpus
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
    "role_of",
    "run_analyses",
    "score_corpus",
    "score_text",
    "tokenize",
    "write_corpus",
    "write_lexicon",
    "__version__",
]

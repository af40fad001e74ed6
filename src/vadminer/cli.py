"""Command-line interface.

Subcommands: ``score`` one text, ``synth`` a seeded corpus, ``ingest``
(validate) an issue JSONL file, and ``analyze`` a corpus into report tables.
Exit codes are stable: 0 success, 2 missing file or invalid configuration,
3 malformed corpus/lexicon content. Commands run with the cyclic collector off
(their objects hold no cycles), and ``main`` restores the caller's setting.

Each command loads only the layers it runs: the corpus layer is the one
eager import, so ``ingest`` never imports numpy. Every other name the
handlers use is listed in ``LAZY_NAMES`` and bound as a module global on
first use, by the module ``__getattr__`` or by ``main`` for the chosen
command, once the collector is off. A name already set on the module is kept,
so a caller that replaces ``cli.load_lexicon`` (say, to time it) before
``main`` runs has its value called.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from importlib import import_module
from pathlib import Path

from .corpus import UNDECODED, CorpusFormatError, corpus_histograms, load_corpus, write_corpus

# name -> the module it comes from; a name equal to its module is the module
LAZY_NAMES = {
    "analyses": "analyses",
    "ANALYSIS_NAMES": "analyses",
    "run_analyses": "analyses",
    "LexiconError": "lexicon",
    "canonical_dimension": "lexicon",
    "load_lexicon": "lexicon",
    "write_lexicon": "lexicon",
    "REPORT_FILES": "report",
    "write_reports": "report",
    "ConfigError": "synth",
    "GeneratorConfig": "synth",
    "config_from_dict": "synth",
    "generate_corpus": "synth",
    "TextScan": "textscore",
    "score_text": "textscore",
}


def __getattr__(name: str):
    module = LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __package__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEMA = 3

LEXICON_ENV_VAR = "VADMINER_LEXICON"

CONFIG_KEYS = ("lexicon", "corpus", "out", "seed", "alpha", "analyses")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}  # key -> line that set it
    config_path = Path(path)
    if not config_path.is_file():
        raise CliError(f"config file not found: {path}")
    text = config_path.read_text(encoding="utf-8-sig", errors="surrogateescape")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped.isascii() and UNDECODED.search(stripped):
            raise CliError(f"config line {line_no}: not valid UTF-8")
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"config line {line_no} is not key=value: {stripped!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in CONFIG_KEYS:
            raise CliError(f"config line {line_no}: unknown key {key!r}")
        if key in set_on:
            raise CliError(f"config line {line_no}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = line_no
        values[key] = value
    return values


def _existing_file(path: str, what: str) -> Path:
    resolved = Path(path)
    if not resolved.is_file():
        raise CliError(f"{what} not found: {path}")
    return resolved


def _output_path(path: str | Path, directory: bool = True) -> Path:
    """An output directory, or with ``directory=False`` a file: it must not exist as
    the other kind, and its nearest existing ancestor must be a directory."""
    out = Path(path)
    if out.exists() and out.is_dir() != directory:
        raise CliError(f"output path {out} is {'not ' if directory else ''}a directory")
    for existing in out.parents:
        if existing.exists():
            if not existing.is_dir():
                raise CliError(f"output path {existing} is not a directory")
            break
    return out


def _load_lexicon_checked(path: str):
    try:
        return load_lexicon(_existing_file(path, "lexicon file"))
    except LexiconError as exc:
        raise CliError(f"invalid lexicon: {exc}", EXIT_SCHEMA) from None


def _load_corpus_checked(path: str, **options):
    try:
        return load_corpus(_existing_file(path, "corpus file"), **options)
    except CorpusFormatError as exc:
        lines = [f"  line {line}: {message}" for line, message in exc.errors[:10]]
        raise CliError("corpus schema errors:\n" + "\n".join(lines), EXIT_SCHEMA) from None


def _resolve_lexicon_path(flag_value: str | None, config: dict[str, str]) -> str:
    # an empty flag or key is an error, not a fall-through; an empty variable counts as unset
    path = flag_value if flag_value is not None else config.get("lexicon", os.environ.get(LEXICON_ENV_VAR))
    if not path:
        raise CliError(f"no lexicon given (use --lexicon, a config file, or ${LEXICON_ENV_VAR})")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vadminer",
                                     description="Lexicon-based VAD scoring and issue-corpus analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score one text and print a CSV row")
    score.add_argument("--lexicon", help="lexicon CSV path")
    score.add_argument("--dimension", choices=["v", "a", "d"], help="print a single dimension")
    source = score.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="text to score")
    source.add_argument("--stdin", action="store_true", help="read the text from standard input")

    synth = sub.add_parser("synth", help="generate a synthetic corpus, manifest and lexicon")
    synth.add_argument("--spec", help="generator config JSON (defaults used when omitted)")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output corpus JSONL path")

    ingest = sub.add_parser("ingest", help="validate an issue JSONL file")
    ingest.add_argument("--corpus", required=True)

    analyze = sub.add_parser("analyze", help="run analyses and write report tables")
    analyze.add_argument("--config", help="optional key=value config file")
    analyze.add_argument("--lexicon")
    analyze.add_argument("--corpus")
    analyze.add_argument("--out")
    analyze.add_argument("--seed", type=int)
    analyze.add_argument("--alpha", type=float)
    analyze.add_argument("--analyses", help="comma-separated subset of rq1,rq2,rq3,rq4,summary")
    return parser


def _run_score(args) -> int:
    lexicon_path = _resolve_lexicon_path(args.lexicon, {})
    lexicon = _load_lexicon_checked(lexicon_path)
    if args.stdin:
        try:
            text = sys.stdin.buffer.read().decode("utf-8")
        except UnicodeDecodeError:
            raise CliError("standard input is not valid UTF-8", EXIT_SCHEMA) from None
    elif not args.text.isascii() and UNDECODED.search(args.text):
        # argv is decoded with surrogateescape: a byte that is not UTF-8 arrives as a surrogate
        raise CliError("--text is not valid UTF-8", EXIT_SCHEMA)
    else:
        text = args.text
    score = score_text(text, lexicon)

    def cell(value):
        return "" if value is None else format(value, ".12g")

    if args.dimension:
        value = score.get(canonical_dimension(args.dimension))
        print(f"{cell(value)},{score.matched_count}")
    else:
        print(f"{cell(score.valence)},{cell(score.arousal)},{cell(score.dominance)},{score.matched_count}")
    return EXIT_OK


def _run_synth(args) -> int:
    if args.spec is not None:
        spec_path = _existing_file(args.spec, "generator spec")
        try:
            spec = json.loads(spec_path.read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError:
            raise CliError("generator spec is not valid UTF-8", EXIT_SCHEMA) from None
        except ValueError as exc:  # a JSONDecodeError, or an int literal past the digit limit
            raise CliError(f"generator spec is not valid JSON: {exc}", EXIT_SCHEMA) from None
        except RecursionError:  # arrays or objects nested past the decoder's depth
            raise CliError("generator spec is not valid JSON: nested too deeply", EXIT_SCHEMA) from None
        try:
            config = config_from_dict(spec)
        except ConfigError as exc:
            raise CliError(f"invalid generator spec: {exc}") from None
    else:
        config = GeneratorConfig()

    out = _output_path(args.out, directory=False)
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    lexicon_path = out.with_suffix(out.suffix + ".lexicon.csv")
    for sidecar in (manifest_path, lexicon_path):
        _output_path(sidecar, directory=False)
    out.parent.mkdir(parents=True, exist_ok=True)
    # issues are built as write_corpus asks for them; the manifest's histograms are complete after it
    issues, manifest = generate_corpus(config, args.seed)
    write_corpus(issues, out)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_lexicon(issues.vocab.lexicon(), lexicon_path)
    print(f"wrote {manifest['histograms']['issues']} issues to {out}")
    print(f"wrote manifest to {manifest_path}")
    print(f"wrote lexicon to {lexicon_path}")
    return EXIT_OK


def _run_ingest(args) -> int:
    # the histograms read no text, so none is kept
    issues = _load_corpus_checked(args.corpus, keep_text=False)
    histograms = corpus_histograms(issues)
    print(f"valid corpus: {histograms['issues']} issues")
    for key in ("priority", "type", "status"):
        parts = ", ".join(f"{name}={count}" for name, count in histograms[key].items() if count)
        print(f"  {key}: {parts if parts else '(none)'}")
    return EXIT_OK


def _run_analyze(args) -> int:
    file_config = _read_config_file(args.config) if args.config is not None else {}

    def pick(flag_value, key: str, default=None):
        if flag_value is not None:
            return flag_value
        if key in file_config:
            return file_config[key]
        return default

    lexicon_path = _resolve_lexicon_path(args.lexicon, file_config)
    corpus_path = pick(args.corpus, "corpus")
    if not corpus_path:
        raise CliError("no corpus given (use --corpus or a config file)")
    out_dir = pick(args.out, "out")
    if not out_dir:
        raise CliError("no output directory given (use --out or a config file)")

    try:
        seed = int(pick(args.seed, "seed", 0))
        alpha = float(pick(args.alpha, "alpha", 0.05))
    except ValueError as exc:
        raise CliError(f"invalid numeric option: {exc}") from None
    if not 0.0 < alpha <= 1.0:
        raise CliError(f"alpha must be in (0, 1], got {alpha}")
    if seed < 0:
        raise CliError(f"seed must be >= 0, got {seed}")

    raw_analyses = pick(args.analyses, "analyses")
    if raw_analyses is not None:
        selected = tuple(name.strip() for name in str(raw_analyses).split(",") if name.strip())
        unknown = set(selected) - set(ANALYSIS_NAMES)
        if unknown:
            raise CliError(f"unknown analyses {sorted(unknown)}; choose from {ANALYSIS_NAMES}")
        if not selected:
            raise CliError(f"analyses {raw_analyses!r} selects none; choose from {ANALYSIS_NAMES}")
    else:
        selected = ANALYSIS_NAMES

    # every path is checked before any input loads
    _existing_file(lexicon_path, "lexicon file")
    _existing_file(corpus_path, "corpus file")
    out = _output_path(out_dir)
    for name in REPORT_FILES:
        _output_path(out / name, directory=False)

    lexicon = _load_lexicon_checked(lexicon_path)
    # the loader hands each issue's texts to the scan and keeps none of them; the
    # records are freed as soon as the table is built, and the pipelines read the table
    scan = TextScan(lexicon)
    table = analyses.score_corpus(_load_corpus_checked(corpus_path, keep_text=False, on_issue=scan.add),
                                  lexicon, scan=scan)
    # a full collection also empties the free lists that the records' tuples filled
    gc.collect()
    results = run_analyses(table, which=selected, seed=seed, alpha=alpha)
    written = write_reports(results, out)

    print(f"analyzed {results.n_issues} issues ({results.n_scored} with scored text)")
    if results.rq1_time is not None and results.rq1_time.n_skipped:
        print(f"  rq1 resolution split skipped {results.rq1_time.n_skipped} unresolved issues")
    if results.rq3 is not None:
        print(f"  rq3 used {results.rq3.n_used} issues "
              f"(skipped {results.rq3.n_skipped_unresolved} unresolved, "
              f"{results.rq3.n_skipped_incomplete} with incomplete scores)")
        for notice in results.rq3.notices:
            print(f"  rq3 note: {notice}")
    print(f"wrote {len(written)} report files to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # each command's handler, and the modules of LAZY_NAMES it runs
    handlers = {
        "score": (_run_score, ("lexicon", "textscore")),
        "synth": (_run_synth, ("lexicon", "synth")),
        "ingest": (_run_ingest, ()),
        "analyze": (_run_analyze, ("analyses", "lexicon", "report", "textscore")),
    }
    handler, layers = handlers[args.command]
    collecting = gc.isenabled()
    gc.disable()
    try:
        this = sys.modules[__name__]
        for name, module in LAZY_NAMES.items():
            if module in layers:
                getattr(this, name)  # binds the name unless it is already set
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

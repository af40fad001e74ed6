#!/usr/bin/env python3
"""Traced processes for ``perfbench/run.py --trace 1``.

Two modes, each one process:

* ``replay --spans FILE -- <vadminer CLI arguments>`` runs
  ``vadminer.cli.main`` with spans around the public functions of each
  layer, then writes the spans as JSON.  Spans wrap the layer functions the
  CLI module calls (lexicon, corpus, analyses, report) and the functions
  ``run_analyses`` reaches through the ``vadminer.analyses`` namespace
  (scoring, the rq pipelines, and the stats and models calls they make).
  The process does nothing else, so its wall time, taken from outside,
  compares like with like with an untraced run of the same command.
* ``extras --lexicon L --corpus C --jobs N --out FILE`` times
  ``score_corpus`` with ``jobs=1`` and takes the ``tracemalloc`` peaks of
  corpus load and of scoring at ``jobs=N``.  It runs apart from the replay,
  so that neither pass inflates the layer times.

Spans are kept in memory and written once, at the end.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

# functions the CLI module calls, by the name it imported them under
CLI_CALLS = {
    "load_lexicon": "lexicon.load_lexicon",
    "load_corpus": "corpus.load_corpus",
    "run_analyses": "analyses.run_analyses",
    "write_reports": "report.write_reports",
}
# functions run_analyses reaches through the vadminer.analyses namespace
ANALYSES_CALLS = {
    "score_corpus": "textscore.score_corpus",
    **{name: f"analyses.{name}" for name in (
        "rq1_priority_arousal", "rq1_type_valence", "rq1_dominance_time",
        "rq1_summary", "rq2_first_last", "rq3_resolution_model", "rq4_sign_tables")},
    **{name: f"stats.{name}" for name in (
        "welch_t_test", "paired_t_test", "bonferroni_alpha", "polyfit")},
    **{name: f"models.{name}" for name in (
        "binarize_outcome", "zero_r", "correlation_filter", "fit_logistic", "fit_linear",
        "crossval", "lr_test", "impact_sizes")},
}
# spans every replay of ``analyze`` must record
REQUIRED_SPANS = tuple(CLI_CALLS.values()) + tuple(
    name for name in ANALYSES_CALLS.values() if name.startswith(("textscore.", "analyses.")))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.returned: dict[str, object] = {}  # last return value per span name
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, calls: dict[str, str]) -> None:
        """Replace each module attribute by a traced wrapper."""
        for attr, span_name in calls.items():
            original = getattr(module, attr, None)
            if original is None:
                continue

            def traced(*args, _original=original, _name=span_name, **kwargs):
                attrs = {"jobs": kwargs["jobs"]} if "jobs" in kwargs else {}
                with self.span(_name, **attrs):
                    value = _original(*args, **kwargs)
                self.returned[_name] = value
                return value

            setattr(module, attr, functools.wraps(original)(traced))


def replay(spans_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        from vadminer import analyses, cli
    tracer.wrap(cli, CLI_CALLS)
    tracer.wrap(analyses, ANALYSES_CALLS)
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    if code != 0:
        return code

    returned = tracer.returned
    counts: dict[str, float] = {}
    if "lexicon.load_lexicon" in returned:
        counts["lexicon.words"] = len(returned["lexicon.load_lexicon"])
    issues = returned["corpus.load_corpus"]
    counts["corpus.issues"] = len(issues)
    counts["corpus.comments"] = sum(len(issue.comments) for issue in issues)
    if "analyses.run_analyses" in returned:
        results = returned["analyses.run_analyses"]
        written = returned["report.write_reports"]
        rq4_rows = results.rq4.n_designs.values()
        counts.update({
            "textscore.scored_share": results.n_scored / results.n_issues,
            "analyses.rq3_rows": results.rq3.n_used,
            "analyses.rq4_designs": sum(1 for n in rq4_rows if n > 0),
            "analyses.rq4_rows": sum(rq4_rows),
            "report.files": len(written),
            "report.mb": sum(Path(p).stat().st_size for p in written) / 2**20,
        })
        del results
    # the wrappers stay on the modules, so drop what they returned: freeing
    # it here costs what the untraced command pays, freeing it at exit more
    del issues
    tracer.returned.clear()
    Path(spans_path).write_text(json.dumps({"counts": counts, "spans": tracer.spans}) + "\n",
                                encoding="utf-8")
    return 0


def extras(lexicon_path: str, corpus_path: str, jobs: int, out: str) -> int:
    from vadminer.analyses import score_corpus
    from vadminer.corpus import load_corpus
    from vadminer.lexicon import load_lexicon

    lexicon = load_lexicon(lexicon_path)
    issues = load_corpus(corpus_path)
    started = time.perf_counter()
    score_corpus(issues, lexicon, jobs=1)
    jobs1_s = time.perf_counter() - started

    tracemalloc.start()
    loaded = load_corpus(corpus_path)
    load_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del loaded
    tracemalloc.start()
    scored = score_corpus(issues, lexicon, jobs=jobs)
    score_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del scored
    Path(out).write_text(json.dumps({
        "textscore.score_corpus_jobs1_s": jobs1_s,
        "corpus.load_peak_mb": load_peak / 2**20,
        "textscore.score_peak_mb": score_peak / 2**20,
    }) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    modes = parser.add_subparsers(dest="mode", required=True)
    replay_parser = modes.add_parser("replay")
    replay_parser.add_argument("--spans", required=True)
    replay_parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    extras_parser = modes.add_parser("extras")
    extras_parser.add_argument("--lexicon", required=True)
    extras_parser.add_argument("--corpus", required=True)
    extras_parser.add_argument("--jobs", type=int, required=True)
    extras_parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "replay":
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        return replay(args.spans, cli_args)
    return extras(args.lexicon, args.corpus, args.jobs, args.out)


# ---------------------------------------------------------------------------
# per-layer metrics from the span files (used by run.py)
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer (the span name up to its first dot): duration minus the part
    covered by child spans, summed over that layer's spans."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            start, end = max(child["start"], reach), min(child["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        layer = span["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (span["end"] - span["start"] - covered)
    return totals


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced ``analyze`` replay, as {name: (value, unit)}."""
    spans = trace["spans"]
    missing = sorted(set(REQUIRED_SPANS) - {s["name"] for s in spans})
    if missing:
        raise SystemExit(f"traced run recorded no span for {missing}; "
                         "perfbench/traced.py must follow the changed API")

    def total(*names) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    counts = trace["counts"]
    selfs = self_times(spans)
    texts = 2 * counts["corpus.issues"] + counts["corpus.comments"]
    score_s = total("textscore.score_corpus")
    seconds = {
        "lexicon.load_s": total("lexicon.load_lexicon"),
        "corpus.load_s": total("corpus.load_corpus"),
        "textscore.score_corpus_s": score_s,
        "analyses.rq1_s": total("analyses.rq1_priority_arousal", "analyses.rq1_type_valence",
                                "analyses.rq1_dominance_time"),
        "analyses.summary_s": total("analyses.rq1_summary"),
        "analyses.rq2_s": total("analyses.rq2_first_last"),
        "analyses.rq3_s": total("analyses.rq3_resolution_model"),
        "analyses.rq4_s": total("analyses.rq4_sign_tables"),
        "analyses.run_s": total("analyses.run_analyses"),
        "report.write_s": total("report.write_reports"),
        **{f"{layer}.self_s": selfs.get(layer, 0.0)
           for layer in ("cli", "lexicon", "corpus", "textscore", "analyses", "stats", "models", "report")},
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({
        "lexicon.words": (counts["lexicon.words"], "count"),
        "corpus.issues": (counts["corpus.issues"], "count"),
        "corpus.comments": (counts["corpus.comments"], "count"),
        "corpus.texts": (texts, "count"),
        "textscore.texts_per_s": (texts / score_s, "1/s"),
        "textscore.scored_share": (counts["textscore.scored_share"], "ratio"),
        "analyses.rq3_rows": (counts["analyses.rq3_rows"], "count"),
        "analyses.rq4_designs": (counts["analyses.rq4_designs"], "count"),
        "analyses.rq4_rows": (counts["analyses.rq4_rows"], "count"),
        "stats.calls": (sum(1 for s in spans if s["name"].startswith("stats.")), "count"),
        "models.calls": (sum(1 for s in spans if s["name"].startswith("models.")), "count"),
        "report.files": (counts["report.files"], "count"),
        "report.mb": (counts["report.mb"], "MB"),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())

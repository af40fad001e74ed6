#!/usr/bin/env python3
"""Benchmark of the vadminer CLI on seeded synthetic corpora.

Run from the root of a checkout, the directory that holds ``src/vadminer``:

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7    # every workload, one table

Each timed run is one ``python3 -m vadminer.cli analyze`` (or ``ingest``)
process started the way a user starts it, with the CLI's default ``--jobs``.
The load is a closed loop with one client: the next run starts after the
previous process has exited.  Wall time is taken around the process; CPU time
and peak RSS come from ``wait4``, whose figures include every process the
command started and waited for.  ``--trace 1`` alternates untraced runs with
traced replays of the same command (``perfbench/traced.py``), whose spans
give the per-layer metrics.

Inputs come from ``vadminer.synth`` and are cached per workload, seed and
generator config under ``perfbench/.cache``, where the report directories and
a detailed result file also go.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "vadminer"
CACHE = BENCH_DIR / ".cache"

@dataclasses.dataclass(frozen=True)
class Workload:
    command: str  # the vadminer subcommand that is timed
    n_issues: int


# Why each workload exists, and how the sizes were chosen: perfbench/NOTES.md.
# The sizes give every planted direction that the checks read back enough
# issues per group to hold on any seed.
WORKLOADS = {
    "paper_mix": Workload("analyze", 10_000),
    "ingest_scale": Workload("ingest", 40_000),
}

REPORT_FILES = frozenset({
    "report.txt",
    "rq1_priority_arousal.csv", "rq1_type_valence.csv", "rq1_dominance_time.csv",
    "rq1_summary_points.csv", "rq1_summary_fits.csv",
    "rq2_first_last.csv",
    "rq3_coefficients.csv", "rq3_performance.csv", "rq3_model_comparison.csv",
    "rq3_correlation_filter.csv", "rq3_impacts.csv",
    "rq4_sign_table.csv",
})
PRIORITY_ORDER = ("Blocker", "Critical", "Major", "Minor", "Trivial")

MIN_SAMPLES = 3
SETUP_SHARE = 0.25  # set-up run time per unit of timed run time
IMPORT_RUNS = 5
KEEP_INPUT_SETS = 4  # cached input sets kept per workload

END_TO_END_UNITS = {"wall_s": "s", "issues_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Inputs:
    directory: Path
    corpus: Path
    lexicon: Path
    empty: Path
    manifest: dict

    @property
    def histograms(self) -> dict:
        return self.manifest["histograms"]


def _sources_digest(names) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update((PACKAGE / name).read_bytes())
    return digest.hexdigest()


def prepare_inputs(name: str, workload: Workload, seed: int) -> tuple[Inputs, float]:
    """Generate (or reuse) the corpus, lexicon and manifest for one seed.

    Returns the inputs and the generation time (0 on a cache hit).  The
    cache key covers the generator config and the sources that write the
    files, so a change to either regenerates.
    """
    from vadminer.corpus import write_corpus
    from vadminer.lexicon import write_lexicon
    from vadminer.synth import Vocabulary, config_to_dict, generate_corpus, planted_config

    config = planted_config(workload.n_issues)
    key = hashlib.sha256(
        (json.dumps(config_to_dict(config), sort_keys=True)
         + _sources_digest(("synth.py", "corpus.py", "lexicon.py"))).encode()
    ).hexdigest()[:16]
    directory = CACHE / "inputs" / f"{name}-seed{seed}-{key}"
    started = time.perf_counter()
    if not (directory / "manifest.json").is_file():
        staging = directory.with_name(directory.name + f".tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        issues, manifest = generate_corpus(config, seed)
        write_corpus(issues, staging / "corpus.jsonl")
        write_lexicon(Vocabulary(config.vocabulary).lexicon(), staging / "lexicon.csv")
        (staging / "empty.jsonl").write_text("", encoding="utf-8")
        (staging / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        del issues
        shutil.rmtree(directory, ignore_errors=True)
        os.replace(staging, directory)
        generated = time.perf_counter() - started
    else:
        os.utime(directory)
        generated = 0.0
    _prune_inputs(name, keep=directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    return Inputs(directory, directory / "corpus.jsonl", directory / "lexicon.csv",
                  directory / "empty.jsonl", manifest), generated


def _prune_inputs(name: str, keep: Path) -> None:
    sets = sorted((p for p in (CACHE / "inputs").glob(f"{name}-seed*") if p != keep),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in sets[KEEP_INPUT_SETS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)


def corpus_stats(inputs: Inputs) -> dict:
    comments = sum(int(count) * n for count, n in inputs.histograms["comment_count"].items())
    issues = inputs.histograms["issues"]
    with open(inputs.lexicon, encoding="utf-8") as handle:
        words = sum(1 for _ in handle) - 1
    return {
        "issues": issues,
        "comments": comments,
        "texts": 2 * issues + comments,
        "corpus_bytes": inputs.corpus.stat().st_size,
        "lexicon_words": words,
    }


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    output: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(CACHE / "tmp")
    return env


def run_process(argv: list[str], log: Path) -> Sample:
    """Run one process to completion; time it and read its rusage."""
    with open(log, "w+b") as handle:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        handle.seek(0)
        output = handle.read().decode("utf-8", "replace")
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode, output=output)


CLI = [sys.executable, "-m", "vadminer.cli"]


# ---------------------------------------------------------------------------
# output checks, made from outside the program
# ---------------------------------------------------------------------------

def report_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _means(path: Path) -> dict[str, dict[str, float | None]]:
    table: dict[str, dict[str, float | None]] = {}
    for row in _read_csv(path):
        table.setdefault(row["element"], {})[row["group"]] = float(row["mean"]) if row["mean"] else None
    return table


def planted_direction_problems(out: Path) -> list[str]:
    """The directions the synth manifest declares, read back from the CSVs."""
    problems = []
    for element, means in _means(out / "rq1_priority_arousal.csv").items():
        values = [means.get(p) for p in PRIORITY_ORDER]
        if None in values or any(a < b for a, b in zip(values, values[1:])):
            problems.append(f"rq1 arousal falls from Blocker to Trivial in {element}")
    for element, means in _means(out / "rq1_type_valence.csv").items():
        others = [means.get("Future Dev"), means.get("All Tasks")]
        if None in others or means.get("Bug") is None or means["Bug"] >= min(others):
            problems.append(f"Bug valence is not the lowest in {element}")
    for element, means in _means(out / "rq1_dominance_time.csv").items():
        high, short = means.get("High time"), means.get("Short time")
        if high is None or short is None or high <= short:
            problems.append(f"High-time dominance does not exceed Short-time in {element}")
    for row in _read_csv(out / "rq2_first_last.csv"):
        if row["dimension"] == "valence" and not (row["d"] and float(row["d"]) > 0
                                                  and row["significant"] == "yes"):
            problems.append(f"rq2 valence d not positive and significant for {row['scope']}")
    return problems


def analyze_problems(sample: Sample, out: Path, planted: bool) -> list[str]:
    if sample.returncode != 0:
        return [f"exit code {sample.returncode}: {sample.output.strip()[-300:]}"]
    names = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if names != REPORT_FILES:
        return [f"report files differ: missing {sorted(REPORT_FILES - names)}, "
                f"extra {sorted(names - REPORT_FILES)}"]
    return planted_direction_problems(out) if planted else []


def ingest_problems(sample: Sample, histograms: dict) -> list[str]:
    if sample.returncode != 0:
        return [f"exit code {sample.returncode}: {sample.output.strip()[-300:]}"]
    printed: dict = {}
    for line in sample.output.splitlines():
        if line.startswith("valid corpus: "):
            printed["issues"] = int(line.split()[2])
        elif line.startswith("  ") and ": " in line:
            key, _, parts = line.strip().partition(": ")
            printed[key] = {} if parts == "(none)" else {
                name: int(count) for name, count in (part.split("=") for part in parts.split(", "))}
    expected = {"issues": histograms["issues"],
                **{key: {k: v for k, v in histograms[key].items() if v}
                   for key in ("priority", "type", "status")}}
    if printed != expected:
        return [f"ingest printed {printed}, manifest says {expected}"]
    return []


class RunLog:
    """Counts attempted and failed runs and collects each run's digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set[str]] = {}

    def record(self, label: str, problems: list[str], digest: str | None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        if digest is not None:
            self.digests.setdefault(label, set()).add(digest)


EMPTY_HISTOGRAMS = {"issues": 0, "priority": {}, "type": {}, "status": {}}


def cli_args(workload: Workload, inputs: Inputs, corpus: Path, out: Path) -> list[str]:
    if workload.command == "ingest":
        return ["ingest", "--corpus", str(corpus)]
    return ["analyze", "--lexicon", str(inputs.lexicon), "--corpus", str(corpus), "--out", str(out)]


def checked_run(workload: Workload, inputs: Inputs, kind: str, runlog: RunLog,
                prefix: list[str] = CLI, label: str | None = None) -> Sample:
    """One run of the workload's command on the corpus (kind "run") or on the
    empty corpus (kind "setup"), checked; its digest is kept under ``label``.

    The digest of ``analyze`` covers the report directory, that of
    ``ingest`` the printed summary.
    """
    work = CACHE / "work"
    out = work / f"report-{kind}"
    shutil.rmtree(out, ignore_errors=True)
    corpus = inputs.empty if kind == "setup" else inputs.corpus
    sample = run_process(prefix + cli_args(workload, inputs, corpus, out), work / f"{kind}.log")
    if workload.command == "ingest":
        problems = ingest_problems(sample, inputs.histograms if kind == "run" else EMPTY_HISTOGRAMS)
    else:
        problems = analyze_problems(sample, out, planted=kind == "run")
    digest = None
    if not problems:
        digest = (hashlib.sha256(sample.output.encode()).hexdigest()
                  if workload.command == "ingest" else report_digest(out))
    runlog.record(label or kind, problems, digest)
    return sample


def settle_digests(runlog: RunLog) -> dict[str, str | None]:
    """Every run of one workload and seed with the same label must give the
    same digest within this invocation."""
    digests: dict[str, str | None] = {}
    for label, seen in sorted(runlog.digests.items()):
        if len(seen) > 1:
            runlog.failed += 1
            runlog.problems.append(f"{label}: {len(seen)} different digests in one invocation")
        digests[label] = min(seen)
    return digests


# ---------------------------------------------------------------------------
# machine description
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict mode
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        # the CLI's --jobs default, resolved the way cli.py resolves it
        "jobs": os.cpu_count() or 1,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(samples: list[Sample], setup: list[Sample], n_issues: int) -> dict[str, float]:
    wall = statistics.median(s.wall_s for s in samples)
    return {
        "wall_s": wall,
        "issues_per_s": n_issues / wall,
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(s.wall_s for s in setup),
    }


def import_times() -> list[float]:
    code = ("import time; t = time.perf_counter(); import vadminer; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_RUNS):
        sample = run_process([sys.executable, "-c", code], CACHE / "work" / "import.log")
        if sample.returncode != 0:
            raise BenchError(f"import vadminer failed: {sample.output.strip()}")
        times.append(float(sample.output.strip().splitlines()[-1]))
    return times


def traced_run(workload: Workload, inputs: Inputs, seconds: float,
               runlog: RunLog) -> tuple[dict, dict]:
    """Untraced runs alternate with traced replays of the same command for
    ``seconds`` (a pair starts only when it is expected to end in time);
    returns the per-layer metrics and the raw traces.

    Layer metrics are medians over the traced ``analyze`` replays.
    ``ingest`` reaches only the corpus layer, so for it one traced
    ``analyze`` of the same corpus supplies the other layers.  Tracing
    overhead compares the two kinds of process, both timed from outside,
    pair by pair.
    """
    sys.path.insert(0, str(BENCH_DIR))
    from traced import layer_metrics

    work = CACHE / "work"
    spans_path = work / "spans.json"
    replay = [sys.executable, str(BENCH_DIR / "traced.py"), "replay", "--spans", str(spans_path), "--"]

    def traced(command_workload: Workload, label: str) -> tuple[Sample, dict]:
        spans_path.unlink(missing_ok=True)
        sample = checked_run(command_workload, inputs, "run", runlog, prefix=replay, label=label)
        if sample.returncode != 0 or not spans_path.is_file():
            raise BenchError(f"traced run failed (exit {sample.returncode}):\n{sample.output.strip()[-2000:]}")
        return sample, json.loads(spans_path.read_text(encoding="utf-8"))

    untraced: list[Sample] = []
    pairs: list[tuple[Sample, dict]] = []
    deadline = time.perf_counter() + seconds
    while len(pairs) < MIN_SAMPLES or time.perf_counter() + statistics.median(
            u.wall_s + t.wall_s for u, (t, _) in zip(untraced, pairs)) <= deadline:
        # the order within a pair alternates, so a steady drift in machine
        # speed does not favour either kind of process
        if len(pairs) % 2:
            pairs.append(traced(workload, "run"))
            untraced.append(checked_run(workload, inputs, "run", runlog))
        else:
            untraced.append(checked_run(workload, inputs, "run", runlog))
            pairs.append(traced(workload, "run"))
    if workload.command == "analyze":
        replays = [trace for _, trace in pairs]
    else:
        replays = [traced(dataclasses.replace(workload, command="analyze"), "analyze")[1]]

    jobs = next(s.get("jobs", 1) for s in replays[0]["spans"] if s["name"] == "textscore.score_corpus")
    extras_path = work / "extras.json"
    sample = run_process([sys.executable, str(BENCH_DIR / "traced.py"), "extras",
                          "--lexicon", str(inputs.lexicon), "--corpus", str(inputs.corpus),
                          "--jobs", str(jobs), "--out", str(extras_path)], work / "extras.log")
    if sample.returncode != 0:
        raise BenchError(f"traced extras failed (exit {sample.returncode}):\n{sample.output.strip()[-2000:]}")
    extras = json.loads(extras_path.read_text(encoding="utf-8"))

    per_replay = [layer_metrics(trace) for trace in replays]
    metrics = {name: (statistics.median(m[name][0] for m in per_replay), unit)
               for name, (_, unit) in per_replay[0].items()}
    traced_wall = statistics.median(s.wall_s for s, _ in pairs)
    metrics.update({
        "cli.import_s": (statistics.median(import_times()), "s"),
        "corpus.input_mb": (inputs.corpus.stat().st_size / 2**20, "MB"),
        "corpus.load_peak_mb": (extras["corpus.load_peak_mb"], "MB"),
        "textscore.score_corpus_jobs1_s": (extras["textscore.score_corpus_jobs1_s"], "s"),
        "textscore.score_peak_mb": (extras["textscore.score_peak_mb"], "MB"),
        "trace.total_s": (traced_wall, "s"),
        # each traced replay against the untraced run next to it, so that
        # slow drift in machine speed cancels
        "trace.overhead_s": (statistics.median(t.wall_s - u.wall_s
                                               for u, (t, _) in zip(untraced, pairs)), "s"),
    })
    samples = {"untraced_wall_s": [s.wall_s for s in untraced],
               "traced_wall_s": [s.wall_s for s, _ in pairs]}
    return dict(sorted(metrics.items())), {"samples": samples, "jobs": jobs, "replays": replays,
                                           "extras": extras}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    inputs, generated_s = prepare_inputs(name, workload, seed)
    stats = corpus_stats(inputs)
    (CACHE / "work").mkdir(parents=True, exist_ok=True)
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    runlog = RunLog()

    # one untimed run on the empty corpus fills the bytecode caches, as an
    # installed tool has them
    checked_run(workload, inputs, "setup", runlog)
    if workload.command == "analyze":
        # the corpus is checked against its manifest on every workload
        checked_run(dataclasses.replace(workload, command="ingest"), inputs, "run", runlog,
                    label="ingest")
    result = {
        "workload": name,
        "command": workload.command,
        "seed": seed,
        "seconds": seconds,
        "machine": machine_info(),
        "inputs": {**stats, "generated_s": generated_s, "directory": str(inputs.directory.relative_to(ROOT))},
    }
    if trace:
        result["per_layer"], result["trace"] = traced_run(workload, inputs, seconds, runlog)
    else:
        # set-up runs follow each timed run until they have taken SETUP_SHARE
        # of the timed runs' time, so both medians span the same window and
        # the same drift in machine speed.  A timed run starts only when its
        # cycle is expected to end within ``seconds``, so the window is not
        # overrun by up to one cycle.
        setup: list[Sample] = []
        samples: list[Sample] = []
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_SAMPLES or time.perf_counter() + (
                1 + SETUP_SHARE) * statistics.median(s.wall_s for s in samples) <= deadline:
            samples.append(checked_run(workload, inputs, "run", runlog))
            while sum(s.wall_s for s in setup) < SETUP_SHARE * sum(s.wall_s for s in samples):
                setup.append(checked_run(workload, inputs, "setup", runlog))
        result["samples"] = {
            "wall_s": [s.wall_s for s in samples],
            "cpu_s": [s.cpu_s for s in samples],
            "peak_rss_mb": [s.rss_mb for s in samples],
            "setup_s": [s.wall_s for s in setup],
        }
        result["end_to_end"] = end_to_end(samples, setup, stats["issues"])
    result["digests"] = settle_digests(runlog)
    result.update(attempted=runlog.attempted, failed=runlog.failed,
                  failed_share=runlog.failed / runlog.attempted, problems=runlog.problems)
    return result


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_result(result: dict) -> None:
    inputs, machine = result["inputs"], result["machine"]
    print(f"== {result['workload']}: vadminer {result['command']}, seed {result['seed']}")
    print(f"   inputs: {inputs['issues']} issues, {inputs['comments']} comments, "
          f"{inputs['corpus_bytes'] / 2**20:.1f} MB JSONL, lexicon {inputs['lexicon_words']} words "
          f"(generated in {inputs['generated_s']:.2f} s; 0 = cached)")
    print(f"   machine: nproc {machine['nproc']}, {machine['cpu_model']}, python {machine['python']}, "
          f"numpy {machine['numpy']}, BLAS {machine['blas']}, "
          f"*_NUM_THREADS {machine['num_threads_env'] or 'unset'}, CLI jobs {machine['jobs']}")
    verdict = "PASS" if result["failed"] == 0 else "FAIL"
    print(f"   checks: {verdict}, {result['failed']} of {result['attempted']} runs failed "
          f"(failed_share {result['failed_share']:.3f})")
    for problem in result["problems"][:10]:
        print(f"     - {problem}")
    for label, digest in result["digests"].items():
        print(f"   {label} digest: {digest}")
    for metric, value in result.get("end_to_end", {}).items():
        values = result["samples"].get(metric)
        spread = ""
        if values:
            q1, q3 = _quartiles(values)
            spread = (f"median of {len(values)}, q1 {q1:.4g}, q3 {q3:.4g}, "
                      f"min {min(values):.4g}, max {max(values):.4g}")
        print(f"   {metric:<14} {value:>12.4f} {END_TO_END_UNITS[metric]:<4} {spread}")
    if "per_layer" in result:
        samples = result["trace"]["samples"]
        print(f"   traced replays: {len(samples['traced_wall_s'])}, each paired with an untraced run")
    for metric, (value, unit) in result.get("per_layer", {}).items():
        print(f"   {metric:<32} {value:>12.5g} {unit}")


def save_result(result: dict) -> Path:
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    mode = "trace" if "per_layer" in result else "e2e"
    path = results / f"{result['workload']}-seed{result['seed']}-{mode}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def print_table(results: list[dict]) -> None:
    print("== summary: median per workload; checks from outside the program")
    for result in results:
        verdict = "PASS" if result["failed"] == 0 else "FAIL"
        cells = "  ".join(f"{metric} {value:.4g} {END_TO_END_UNITS[metric]}"
                          for metric, value in result.get("end_to_end", {}).items())
        print(f"   {result['workload']:<13} checks {verdict} ({result['failed']}/{result['attempted']} failed)  {cells}")


def summary_line(results: list[dict], trace: bool) -> str:
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        if trace:
            for metric, (value, unit) in result["per_layer"].items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
        else:
            for metric, value in result["end_to_end"].items():
                metrics[prefix + metric] = {"value": value, "unit": END_TO_END_UNITS[metric]}
    failed = sum(r["failed"] for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    })


def load_package() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no vadminer sources at {PACKAGE.relative_to(ROOT)}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import vadminer

    if Path(vadminer.__file__).resolve().parent != PACKAGE:
        raise BenchError(f"imported vadminer from {vadminer.__file__}, not from {PACKAGE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="input generator seed (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: add the traced run and report per-layer metrics")
    args = parser.parse_args(argv)
    try:
        load_package()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_result(result)
            print(f"   detail: {save_result(result).relative_to(ROOT)}")
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(CACHE / "work", ignore_errors=True)
    if len(results) > 1:
        print_table(results)
    print(summary_line(results, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

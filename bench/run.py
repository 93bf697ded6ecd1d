"""Benchmark of the stoplab experiment grid: 3 models x {none, GS, CBS, CS}.

One run, as the benchmark contract calls it (from the repository root):

    python3 bench/run.py --workload desk-grid --seed 1008 --seconds 20 --trace 0

generates the workload's inputs from the seed, sets up, then drives
``stoplab.cli.main`` with one closed-loop client in a fresh process (see
client.py) for at least ``--seconds``, checks the outputs and prints every
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
untraced passes are followed by a traced replay (see replay.py), and the
metrics are the per-layer ones.  A run exits 2 without a result when the
checkout lacks ``src/stoplab`` or ``tests/oracles.py``.

Every workload (or the one named), each in a fresh process, with medians
and spreads:

    python3 bench/run.py --all [--seeds 1008,1009] [--record FILE]

Workloads (all closed loop, one client, commands back to back):

* desk-grid: acceptance criterion 8 verbatim (5,000 docs, 20 topics;
  ``index`` x4 with ``--workers 2``, ``search`` and ``eval`` x12,
  ``compare``).  Seed 1008 gives criterion 8's exact files.
* scale-grid: the same grid on 12,000 docs with default ``--workers``:
  tokenizing, index build, check, save and load dominate, and KL ranks
  every document per query.
* topic-sweep: the desk corpus with its four indexes built in set-up;
  ``search`` and ``eval`` x12 and ``compare`` over 50 verbose topics, so
  scoring and run writing/reading dominate.

A pass is the workload's whole command list; the client repeats it,
command after command, until ``--seconds`` have passed.  Both the client
and the set-up run on one CPU (see ``client.pin_to_one_cpu``).  Times are
in reference seconds: each command's or set-up step's seconds scaled by
the mean time of a speed probe run between commands within two seconds of
it (see ``client.Speedometer``), since the CPU speed of a shared machine
drifts by half or more over seconds and minutes, which the probes follow
and the program does not move.  A command's time is the median of its
repetitions in the run, ``wall_s`` sums those over a pass, and ``setup_s``
is the median of the workload's set-up repetitions (``setup_repeats``),
half of them before the passes and half after, the first after one
untimed set-up.
Each run also prints the same figures in plain seconds, ungated.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

CODES = ("none", "GS", "CBS", "CS")
MODELS = ("TFIDF", "BM25", "KL")
BASELINE = "TFIDF"
TOP_K = 1000
SCORE_TOLERANCE = 1e-6  # run files print six decimals
CLIENT_TIMEOUT_S = 170

WORKLOADS = {
    "desk-grid": dict(docs=5000, topics=20, verbose=False, workers=2,
                      index_in_setup=False, setup_repeats=7),
    "scale-grid": dict(docs=12000, topics=20, verbose=False, workers=None,
                       index_in_setup=False, setup_repeats=7),
    "topic-sweep": dict(docs=5000, topics=50, verbose=True, workers=2,
                        index_in_setup=True, setup_repeats=5),
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("index_docs_per_s", "1/s"),
    ("search_queries_per_s", "1/s"),
    ("eval_lines_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("index_mb", "MB"),
    ("success_ratio", "ratio"),
]


def tag_of(model: str, code: str) -> str:
    return model if code == "none" else "%s_%s" % (model, code)


TAGS = [tag_of(m, c) for m in MODELS for c in CODES]


def stopwords(code: str) -> frozenset:
    from stoplab.stoplists import bundled

    return frozenset() if code == "none" else bundled(code).words


def run_cli(argv: list) -> int:
    """One in-process CLI command with its output discarded; a crash is a
    failed command."""
    from stoplab.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except Exception:
            return -1


# -- commands -----------------------------------------------------------------


def index_commands(spec: dict, corpus: str, out: Path) -> list:
    commands = []
    for code in CODES:
        argv = ["index", "--corpus", corpus, "--out", str(out / ("%s.idx" % code)),
                "--stoplist", code]
        if spec["workers"]:
            argv += ["--workers", str(spec["workers"])]
        commands.append(["index", argv])
    return commands


def pass_commands(spec: dict, inputs, out: Path) -> list:
    """The timed pass, in criterion 8's order."""
    commands = [] if spec["index_in_setup"] else index_commands(spec, inputs.corpus, out)
    for model in MODELS:
        for code in CODES:
            tag = tag_of(model, code)
            commands.append(["search", [
                "search", "--index", str(out / ("%s.idx" % code)),
                "--topics", inputs.topics, "--model", model,
                "--out", str(out / ("%s.run" % tag)), "--top-k", str(TOP_K)]])
            commands.append(["eval", [
                "eval", "--run", str(out / ("%s.run" % tag)),
                "--qrels", inputs.qrels, "--out", str(out / ("%s.tsv" % tag))]])
    commands.append(["compare", ["compare"]
                     + [str(out / ("%s.tsv" % tag)) for tag in TAGS]
                     + ["--baseline", BASELINE]])
    return commands


def setup(spec: dict, seed: int, work: Path, meter=None):
    """Generate the inputs; topic-sweep also builds its indexes here.

    Returns the inputs and ``[start, seconds, rc]`` of each step: the
    generator's (rc 0), then each set-up command's.  With a Speedometer,
    each step starts from a collected heap after a short probe."""
    from client import GAP_PROBE_S
    from generate import generate

    def timed(step) -> list:
        gc.collect()
        if meter:
            meter.probe(GAP_PROBE_S)
        t0 = time.perf_counter()
        value = step()
        return [t0, time.perf_counter() - t0, value]

    *generated, inputs = timed(lambda: generate(
        work, seed, spec["docs"], spec["topics"], spec["verbose"]))
    steps = [generated + [0]]
    if spec["index_in_setup"]:
        for _, argv in index_commands(spec, inputs.corpus, work):
            steps.append(timed(lambda: run_cli(argv)))
    return inputs, steps


def run_client(work: Path, commands: list, seconds: float) -> dict:
    plan, result = work / "plan.json", work / "client.json"
    with open(plan, "w", encoding="utf-8") as f:
        json.dump({"src": str(SRC), "seconds": seconds, "commands": commands}, f)
    subprocess.run([sys.executable, str(BENCH / "client.py"), str(plan), str(result)],
                   check=True, timeout=CLIENT_TIMEOUT_S)
    with open(result, encoding="utf-8") as f:
        return json.load(f)


# -- output checks ----------------------------------------------------------------


class Checks:
    """Named pass/fail output checks; each one is an attempted operation."""

    def __init__(self):
        self.names: list[str] = []
        self.problems: list[str] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.names.append(name)
        if not ok:
            self.problems.append("%s: %s" % (name, detail))

    @contextlib.contextmanager
    def guard(self, name: str):
        """A check that cannot run, say for a missing output, fails."""
        try:
            yield
        except Exception as exc:
            self.add(name, False, "%s: %s" % (type(exc).__name__, exc))


def read_run(path: Path) -> dict:
    """qid -> [(docno, score)] in file order, read without stoplab."""
    runs: dict = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, _, docno, _, score, _ = line.split()
            runs.setdefault(qid, []).append((docno, float(score)))
    return runs


def read_ap(path: Path) -> dict:
    """qid -> average precision from a TSV report, read without stoplab."""
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    return {r[1]: float(r[5]) for r in rows if r[1] != "all"}


def check_indexes(checks: Checks, inputs, out: Path):
    from stoplab.index import Index

    for code in CODES:
        index = Index.load(out / ("%s.idx" % code))
        got = {"N": index.N, "total_tokens": index.total_tokens,
               "vocabulary": index.vocabulary_size,
               "stopwords_removed": index.stopwords_removed}
        want = inputs.index_counts(stopwords(code))
        checks.add("index counts %s" % code, got == want, "%s != %s" % (got, want))


def check_oracle(checks: Checks, inputs, out: Path):
    """First and last topic of every technique against tests/oracles.py."""
    import oracles

    sample = {inputs.topic_words[0][0], inputs.topic_words[-1][0]}
    scorers = {"TFIDF": oracles.tfidf_scores, "BM25": oracles.bm25_scores,
               "KL": oracles.kl_rank_equiv_scores}
    corpus_stats = oracles.corpus_stats
    try:
        for code in CODES:
            stop = stopwords(code)
            docs = [(d, [w for w in words if w not in stop])
                    for d, words in inputs.doc_words]
            stats = corpus_stats(docs)
            # the oracles recompute these per call; one pass serves them all
            oracles.corpus_stats = lambda _docs: stats
            for model in MODELS:
                tag = tag_of(model, code)
                runs = read_run(out / ("%s.run" % tag))
                for qid, words in inputs.topic_words:
                    if qid not in sample:
                        continue
                    expected = scorers[model](docs, Counter(w for w in words if w not in stop))
                    got = runs.get(qid, [])
                    ok = [d for d, _ in got] == oracles.ranking_of(expected)[:TOP_K] and all(
                        abs(s - expected[d]) <= SCORE_TOLERANCE for d, s in got)
                    checks.add("oracle %s q%s" % (tag, qid), ok, "ranking or scores differ")
    finally:
        oracles.corpus_stats = corpus_stats


def check_reports(checks: Checks, inputs, out: Path, compare_output: str):
    n = len(inputs.topic_words)
    for tag in TAGS:
        checks.add("report %s" % tag, len(read_ap(out / ("%s.tsv" % tag))) == n,
                   "expected %d per-query rows" % n)
    lines = compare_output.splitlines()
    first = {line.split()[0] for line in lines if line.split()}
    checks.add("compare techniques", set(TAGS) <= first, "technique rows missing")
    checks.add("compare friedman", "df = %d" % (len(TAGS) - 1) in compare_output,
               "Friedman summary missing")
    start = next((i for i, line in enumerate(lines) if "QP>BP" in line), len(lines))
    rows = [line.split() for line in lines[start + 1:] if line.strip()]
    ok = len(rows) == len(TAGS) - 1 and all(
        sum(int(x) for x in row[2:5]) == n for row in rows)
    checks.add("compare wilcoxon", ok, "expected %d rows summing to %d" % (len(TAGS) - 1, n))


def output_checks(checks: Checks, inputs, out: Path, client: dict):
    with checks.guard("index counts"):
        check_indexes(checks, inputs, out)
    with checks.guard("oracle"):
        check_oracle(checks, inputs, out)
    with checks.guard("reports"):
        check_reports(checks, inputs, out, client["last_output"])


def run_lines(out: Path) -> int:
    total = 0
    for tag in TAGS:
        path = out / ("%s.run" % tag)
        if path.exists():  # a failed search is already counted
            with open(path, "rb") as f:
                total += sum(1 for _ in f)
    return total


def tally(setup_ops: list, client: dict, checks: Checks) -> tuple:
    """(attempted, failed) over set-up commands, client commands and checks;
    a nonzero exit or a failed check is a failure."""
    rcs = [rc for _, _, rc in setup_ops] + [r[2] for runs in client["samples"] for r in runs]
    return (len(rcs) + len(checks.names),
            sum(1 for rc in rcs if rc != 0) + len(checks.problems))


# -- runs ---------------------------------------------------------------------


def command_times(kinds: list, samples: list) -> list:
    """(kind, reference seconds, seconds) per command of a pass: the
    medians of its repetitions."""
    return [(kind, statistics.median(r[1] for r in runs),
             statistics.median(r[0] for r in runs))
            for kind, runs in zip(kinds, samples)]


def timed_run(name: str, spec: dict, seed: int, seconds: float, work: Path) -> dict:
    from client import EDGE_PROBE_S, Speedometer

    meter = Speedometer()
    setups = []

    def timed_setups(repeats: int):
        meter.probe(EDGE_PROBE_S)
        for _ in range(repeats):
            inputs, steps = setup(spec, seed, work, meter)
            setups.append(steps)
        meter.probe(EDGE_PROBE_S)
        return inputs

    # An untimed set-up first: the first ones run while this process's heap
    # grows, with more garbage collection, and take up to half again longer.
    # Set-up repetitions straddle the passes, so that one slow spell of a
    # shared machine cannot cover them all; the inputs come out identical.
    repeats = spec["setup_repeats"]
    phases = [time.perf_counter()]
    setup(spec, seed, work)
    inputs = timed_setups(repeats // 2)
    commands = pass_commands(spec, inputs, work)
    phases.append(time.perf_counter())
    client = run_client(work, commands, seconds)
    phases.append(time.perf_counter())
    checks = Checks()
    output_checks(checks, inputs, work, client)
    phases.append(time.perf_counter())
    timed_setups(repeats - repeats // 2)
    phases.append(time.perf_counter())
    setups = [[[elapsed, meter.reference_s(t0, elapsed), rc] for t0, elapsed, rc in steps]
              for steps in setups]
    setup_ops = [op for steps in setups for op in steps[1:]]
    times = command_times([kind for kind, _ in commands], client["samples"])
    if spec["index_in_setup"]:
        # each set-up ran the four index commands in the same order
        setup_index = [setup_ops[i::len(CODES)] for i in range(len(CODES))]
        index_times = command_times(["index"] * len(CODES), setup_index)
    else:
        index_times = [t for t in times if t[0] == "index"]
    search_times = [t for t in times if t[0] == "search"]
    eval_times = [t for t in times if t[0] == "eval"]

    def total(part: list, column: int = 1) -> float:
        return sum(t[column] for t in part)

    attempted, failed = tally(setup_ops, client, checks)
    index_bytes = sum(os.path.getsize(work / ("%s.idx" % c)) for c in CODES)
    metrics = {
        "wall_s": total(times),
        "setup_s": statistics.median(total(steps) for steps in setups),
        "index_docs_per_s": spec["docs"] * len(CODES) / total(index_times),
        "search_queries_per_s": spec["topics"] * len(TAGS) / total(search_times),
        "eval_lines_per_s": run_lines(work) / total(eval_times),
        "peak_rss_mb": client["peak_rss_kib"] * 1024 / 1e6,
        "index_mb": index_bytes / 1e6,
        "success_ratio": (attempted - failed) / attempted,
    }
    units = dict(END_TO_END)
    return {
        "attempted": attempted, "failed": failed,
        "problems": checks.problems + client["errors"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": {"passes": client["passes"],
                 "plain_wall_s": total(times, 2),
                 "plain_setup_s": statistics.median(total(steps, 0) for steps in setups),
                 "plain_index_s": total(index_times, 2),
                 "plain_search_s": total(search_times, 2),
                 "plain_eval_s": total(eval_times, 2),
                 "probe_ms": 1000 * statistics.median(client["probes"]),
                 "phase_s": [round(b - a, 1) for a, b in zip(phases, phases[1:])],
                 "fail_ratio": failed / attempted},
    }


def traced_run(name: str, spec: dict, seed: int, seconds: float, work: Path) -> dict:
    from replay import PER_LAYER, REPEATABLE, Replay, Tracer
    from stoplab.stoplists import bundled

    inputs, steps = setup(spec, seed, work)
    setup_ops = steps[1:]
    commands = pass_commands(spec, inputs, work)
    client = run_client(work, commands, seconds)
    untraced_s = sum(t[2] for t in command_times([k for k, _ in commands],
                                                 client["samples"]))
    checks = Checks()
    output_checks(checks, inputs, work, client)

    replay_dir = work / "replay"
    replay_dir.mkdir()
    tracer = Tracer()
    replay = Replay(tracer, str(replay_dir),
                    {c: None if c == "none" else bundled(c) for c in CODES})
    index_phase = "setup" if spec["index_in_setup"] else "timed"
    with tracer.span("workload", workload=name, seed=seed):
        for code in CODES:
            replay.index(index_phase, code, inputs.corpus, spec["workers"] or 1)
        for model in MODELS:
            for code in CODES:
                tag = tag_of(model, code)
                replay.search("timed", model, code, inputs.topics, tag)
                replay.eval("timed", tag, inputs.qrels)
        replay.compare("timed", TAGS, BASELINE)
    values = replay.metrics(untraced_s)

    for file in ["%s.idx" % c for c in CODES] + ["%s.%s" % (t, ext) for t in TAGS
                                                 for ext in ("run", "tsv")]:
        with checks.guard("replay bytes %s" % file):
            same = (work / file).read_bytes() == (replay_dir / file).read_bytes()
            checks.add("replay bytes %s" % file, same, "traced replay differs from CLI run")
    with checks.guard("counts"):
        check_counts(checks, inputs, work, values)
    check_repeatable(checks, name, seed, {k: values[k] for k in REPEATABLE})

    OUT.mkdir(exist_ok=True)
    with open(OUT / ("spans-%s-seed%d.json" % (name, seed)), "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)

    attempted, failed = tally(setup_ops, client, checks)
    units = {n: u for n, u, _ in PER_LAYER}
    return {
        "attempted": attempted, "failed": failed,
        "problems": checks.problems + client["errors"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k, _, _ in PER_LAYER},
        "info": {"plain_wall_s": untraced_s,
                 "fail_ratio": failed / attempted},
    }


def check_counts(checks: Checks, inputs, out: Path, values: dict):
    """The traced run's counts against ones derived without the engine:
    from the generator's words and from the CLI run's files."""
    df: Counter = Counter()
    for _, words in inputs.doc_words:
        df.update(set(words))
    want = Counter()
    for code in CODES:
        stop = stopwords(code)
        counts = inputs.index_counts(stop)
        want["stoplists.tokens_removed"] += counts["stopwords_removed"]
        want["index.vocabulary"] += counts["vocabulary"]
        want["index.postings"] += sum(c for w, c in df.items() if w not in stop)
        for _, words in inputs.topic_words:
            scanned = sum(df[w] for w in set(words) - stop)
            want["ranking.postings_scanned"] += scanned * len(MODELS)
            want["ranking.empty_runs"] += (scanned == 0) * len(MODELS)
    want["cli.run_lines"] = run_lines(out)
    base = read_ap(out / ("%s.tsv" % BASELINE))
    for tag in TAGS:
        if tag != BASELINE:
            ap = read_ap(out / ("%s.tsv" % tag))
            used = sum(1 for q in base if ap[q] != base[q])
            want["sigtest.wilcoxon_exact"] += 0 < used <= 20
    for key, value in want.items():
        checks.add("count %s" % key, values[key] == value,
                   "traced %r, derived %r" % (values[key], value))


def check_repeatable(checks: Checks, name: str, seed: int, counts: dict):
    """Counts must equal those of any earlier traced run of this seed in
    this checkout."""
    OUT.mkdir(exist_ok=True)
    path = OUT / ("counts-%s-seed%d.json" % (name, seed))
    if path.exists():
        with open(path, encoding="utf-8") as f:
            before = json.load(f)
        for key, value in counts.items():
            ok = before.get(key) == value
            if not ok:
                print("COUNT NOT REPEATABLE: %s %s seed %d: %r then %r"
                      % (name, key, seed, before.get(key), value), file=sys.stderr)
            checks.add("repeatable %s" % key, ok, "%r then %r" % (before.get(key), value))
    else:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(counts, f, indent=1, sort_keys=True)


# -- entry points -------------------------------------------------------------


def one_run(args) -> int:
    sys.path[:0] = [str(SRC), str(BENCH), str(TESTS)]
    from client import pin_to_one_cpu

    pin_to_one_cpu()
    spec = WORKLOADS[args.workload]
    work = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = traced_run(args.workload, spec, args.seed, args.seconds, work)
        else:
            result = timed_run(args.workload, spec, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for problem in result["problems"]:
        print("FAILED CHECK: %s" % problem.strip(), file=sys.stderr)
    print("%s seed %d trace %d: %s" % (args.workload, args.seed, args.trace,
                                       json.dumps(result["info"])))
    for key, m in result["metrics"].items():
        print("  %-32s %16.6f %s" % (key, m["value"], m["unit"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def machine_facts() -> dict:
    import numpy
    import scipy

    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as f:
            lines += sum(1 for line in f if line.strip())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "src_nonblank_py_lines": lines}


def all_runs(args) -> int:
    """Every workload (or the one named) in fresh processes: one timed run
    per seed, then one traced run on the first seed; medians and spreads
    per metric."""
    sys.stdout.reconfigure(line_buffering=True)
    seeds = [int(s) for s in args.seeds.split(",")]
    record = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in [args.workload] if args.workload else WORKLOADS:
        timed, traced, probes, infos = [], None, [], []
        for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print("%s seed %d trace %d exited %d" % (name, seed, trace, proc.returncode))
                ok = False
                continue
            lines = proc.stdout.splitlines()
            info = json.loads(lines[0].split(": ", 1)[1])
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print("%s seed %d trace %d: correct=%s attempted=%d failed=%d fail_ratio=%g"
                  " plain_wall_s=%.3f run took %.1f s"
                  % (name, seed, trace, result["correct"], result["attempted"],
                     result["failed"], info["fail_ratio"], info["plain_wall_s"],
                     time.perf_counter() - t0))
            if not trace:
                print("   ", " ".join("%s=%.6g" % (k, m["value"])
                                      for k, m in result["metrics"].items()))
            if trace:
                traced = result
            else:
                timed.append(result)
                infos.append(info)
                probes.append(info["probe_ms"])
        summary = {}
        for key, unit in END_TO_END:
            values = [r["metrics"][key]["value"] for r in timed]
            if values:
                summary[key] = {"median": statistics.median(values),
                                "spread": spread(values), "unit": unit}
                print("  %-24s median %14.6f %-6s spread %.4f"
                      % (key, summary[key]["median"], unit, summary[key]["spread"]))
        plain = {}
        for key in [k for k in infos[0] if k.startswith("plain_")] if infos else []:
            values = [i[key] for i in infos]
            plain[key] = {"median": statistics.median(values),
                          "spread": spread(values), "unit": "s"}
            print("  %-24s median %14.6f %-6s spread %.4f (unscaled, ungated)"
                  % (key, plain[key]["median"], "s", plain[key]["spread"]))
        if traced:
            for key, m in traced["metrics"].items():
                print("  %-32s %16.6f %s" % (key, m["value"], m["unit"]))
        record["workloads"][name] = {"end_to_end": summary, "plain": plain,
                                     "per_layer": traced and traced["metrics"],
                                     "probe_ms": probes and statistics.median(probes)}
    record["machine"] = machine_facts()
    if args.record:
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1008)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seeds", default="1008",
                        help="comma-separated seeds for --all")
    parser.add_argument("--record", help="with --all, write medians and machine facts here")
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "stoplab" / "__init__.py", TESTS / "oracles.py")
               if not p.is_file()]
    if missing:
        print("error: not a stoplab checkout, missing %s"
              % ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    if args.all:
        return all_runs(args)
    if not args.workload:
        parser.error("--workload is required without --all")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())

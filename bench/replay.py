"""The traced run: replay a workload's commands through stoplab's public
functions, in the order ``stoplab.cli`` calls them, recording one span per
call.

Spans form a tree workload -> command -> layer call and are kept in memory
until the run ends.  Normalization, tokenization and stoplist filtering
happen inside ``build_index`` and ``Query.from_text``, where this file
cannot see them, so a probe repeats them over the same texts after each
command and reports them as such; the probe also times ``Index.check`` on
every built index, which ``build_index`` and ``Index.load`` run
internally.  Probe spans sit beside the command spans, not inside them, so
the traced commands compare like for like with the untraced pass.
"""

import gc
import io
import os
import statistics
import time
from contextlib import contextmanager

from stoplab.cli import (
    parse_topics,
    read_report_tsv,
    read_run_file,
    write_report_text,
    write_report_tsv,
    write_run,
)
from stoplab.index import Index, build_index, parse_trec_documents
from stoplab.ranking import SCORERS, Query
from stoplab.sigtest import EXACT_LIMIT, friedman, wilcoxon_signed_rank
from stoplab.textpipe import normalize, tokenize
from stoplab.treceval import evaluate_run, parse_qrels

MODELS = ("TFIDF", "BM25", "KL")

# (name, unit, better) for every per-layer metric the traced run reports.
PER_LAYER = [
    ("textpipe.busy_s", "s", "lower"),
    ("textpipe.tokens", "count", "higher"),
    ("stoplists.filter_s", "s", "lower"),
    ("stoplists.tokens_removed", "count", "higher"),
    ("stoplists.query_terms_removed", "count", "higher"),
    ("stoplists.empty_queries", "count", "lower"),
    ("index.parse_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.check_s", "s", "lower"),
    ("index.save_s", "s", "lower"),
    ("index.load_s", "s", "lower"),
    ("index.postings", "count", "lower"),
    ("index.vocabulary", "count", "lower"),
    ("index.file_bytes", "bytes", "lower"),
    ("ranking.query_s", "s", "lower"),
] + [
    ("ranking.score_ms_%s.%s" % (stat, model), "ms", "lower")
    for stat in ("p50", "tail")
    for model in MODELS
] + [
    ("ranking.score_samples", "count", "higher"),
    ("ranking.score_tail_pct", "%", "higher"),
    ("ranking.postings_scanned", "count", "lower"),
    ("ranking.empty_runs", "count", "lower"),
    ("cli.parse_topics_s", "s", "lower"),
    ("cli.write_run_s", "s", "lower"),
    ("cli.read_run_file_s", "s", "lower"),
    ("cli.run_lines", "count", "higher"),
    ("cli.write_report_tsv_s", "s", "lower"),
    ("cli.read_report_tsv_s", "s", "lower"),
    ("treceval.parse_qrels_s", "s", "lower"),
    ("treceval.evaluate_run_s", "s", "lower"),
    ("sigtest.friedman_s", "s", "lower"),
    ("sigtest.wilcoxon_s", "s", "lower"),
    ("sigtest.wilcoxon_exact", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# Counts that must repeat exactly across runs of one seed.
REPEATABLE = (
    "stoplists.tokens_removed",
    "index.postings",
    "index.vocabulary",
    "ranking.postings_scanned",
    "cli.run_lines",
    "ranking.empty_runs",
    "sigtest.wilcoxon_exact",
)

# Per-layer time metric -> the span names whose durations it sums.
_SPAN_TIMES = {
    "textpipe.busy_s": ("probe.textpipe",),
    "stoplists.filter_s": ("probe.stoplists",),
    "index.parse_s": ("index.parse_trec_documents",),
    "index.build_s": ("index.build_index",),
    "index.check_s": ("probe.index.check",),
    "index.save_s": ("index.Index.save",),
    "index.load_s": ("index.Index.load",),
    "ranking.query_s": ("ranking.score",),
    "cli.parse_topics_s": ("cli.parse_topics",),
    "cli.write_run_s": ("cli.write_run",),
    "cli.read_run_file_s": ("cli.read_run_file",),
    "cli.write_report_tsv_s": ("cli.write_report_tsv",),
    "cli.read_report_tsv_s": ("cli.read_report_tsv",),
    "treceval.parse_qrels_s": ("treceval.parse_qrels",),
    "treceval.evaluate_run_s": ("treceval.evaluate_run",),
    "sigtest.friedman_s": ("sigtest.friedman",),
    "sigtest.wilcoxon_s": ("sigtest.wilcoxon_signed_rank",),
}


class Tracer:
    """Spans in memory: id, parent id, name, start, end and attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)


def _read(path: str) -> str:
    with open(path, "rb") as f:
        return f.read().decode("utf-8")


class Replay:
    """Replays one workload's commands into ``out_dir`` under a Tracer."""

    def __init__(self, tracer: Tracer, out_dir: str, stoplists: dict):
        self.t = tracer
        self.out = out_dir
        self.stoplists = stoplists          # code -> Stoplist or None
        self.counts = dict.fromkeys(
            ("textpipe.tokens", "stoplists.tokens_removed",
             "stoplists.query_terms_removed", "stoplists.empty_queries",
             "index.postings", "index.vocabulary", "index.file_bytes",
             "ranking.postings_scanned", "ranking.empty_runs", "cli.run_lines",
             "sigtest.wilcoxon_exact"), 0)
        self.samples: dict = {m: [] for m in MODELS}

    def _command(self, name: str, **attrs):
        gc.collect()  # as the client does before each command
        return self.t.span(name, **attrs)

    def index(self, phase: str, code: str, corpus: str, workers: int):
        t = self.t
        path = os.path.join(self.out, "%s.idx" % code)
        with self._command("index", phase=phase, code=code):
            with t.span("cli.read_text"):
                text = _read(corpus)
            with t.span("index.parse_trec_documents"):
                docs = list(parse_trec_documents(text))
            with t.span("index.build_index"):
                index = build_index(docs, stoplist=self.stoplists[code],
                                    workers=workers)
            with t.span("index.Index.save"):
                index.save(path)
        self.counts["index.postings"] += sum(map(len, index.postings.values()))
        self.counts["index.vocabulary"] += index.vocabulary_size
        self.counts["index.file_bytes"] += os.path.getsize(path)
        self._probe_build([body for _, body in docs], self.stoplists[code], index)

    def search(self, phase: str, model: str, code: str, topics_path: str, tag: str):
        t = self.t
        scorer = SCORERS[model]
        texts = []
        with self._command("search", phase=phase, tag=tag):
            with t.span("index.Index.load"):
                index = Index.load(os.path.join(self.out, "%s.idx" % code))
            with t.span("cli.read_text"):
                text = _read(topics_path)
            with t.span("cli.parse_topics"):
                topics = parse_topics(text)
            with open(os.path.join(self.out, "%s.run" % tag), "w",
                      encoding="utf-8") as out:
                for qid, query_text in topics:
                    with t.span("ranking.Query.from_text"):
                        query = Query.from_text(qid, query_text,
                                                stoplist=index.stoplist,
                                                strip_marks=index.strip_marks)
                    with t.span("ranking.score", model=model) as s:
                        run = scorer(index, query, top_k=1000, tag=tag)
                    self.samples[model].append(s)
                    with t.span("cli.write_run"):
                        write_run(run, out)
                    self.counts["ranking.postings_scanned"] += sum(
                        index.df(term) for term in query.terms)
                    self.counts["ranking.empty_runs"] += not run.entries
                    texts.append(query_text)
        self._probe_queries(texts, index.stoplist)

    def eval(self, phase: str, tag: str, qrels_path: str):
        t = self.t
        with self._command("eval", phase=phase, tag=tag):
            with t.span("cli.read_run_file"):
                runs = read_run_file(os.path.join(self.out, "%s.run" % tag))
            with t.span("treceval.parse_qrels"):
                qrels = parse_qrels(qrels_path)
            with t.span("treceval.evaluate_run"):
                report = evaluate_run(runs, qrels)
            run_tag = runs[0].tag if runs else "(empty run)"
            with t.span("cli.write_report_text"):
                write_report_text(report, run_tag, io.StringIO())
            with t.span("cli.write_report_tsv"):
                with open(os.path.join(self.out, "%s.tsv" % tag), "w",
                          encoding="utf-8") as f:
                    write_report_tsv(report, run_tag, f)
        self.counts["cli.run_lines"] += sum(len(r.entries) for r in runs)

    def compare(self, phase: str, tags: list, baseline: str):
        t = self.t
        with self._command("compare", phase=phase):
            tables = []
            for tag in tags:
                with t.span("cli.read_report_tsv"):
                    tables.append(read_report_tsv(os.path.join(self.out, "%s.tsv" % tag)))
            labels = [tag for tag, _ in tables]
            qids = sorted(tables[0][1])
            matrix = [[rows[q]["ap"] for _, rows in tables] for q in qids]
            with t.span("sigtest.friedman"):
                friedman(matrix, labels=labels)
            base_rows = tables[labels.index(baseline)][1]
            base = [base_rows[q]["ap"] for q in qids]
            for label, rows in tables:
                if label == baseline:
                    continue
                with t.span("sigtest.wilcoxon_signed_rank"):
                    w = wilcoxon_signed_rank([rows[q]["ap"] for q in qids], base)
                self.counts["sigtest.wilcoxon_exact"] += 0 < w.n_used <= EXACT_LIMIT

    def _probe_build(self, texts: list, stoplist, index: Index):
        t = self.t
        with t.span("probe"):
            with t.span("probe.textpipe"):
                token_lists = [tokenize(normalize(text)) for text in texts]
            self.counts["textpipe.tokens"] += sum(map(len, token_lists))
            if stoplist is not None:
                with t.span("probe.stoplists"):
                    kept = [stoplist.filter(tokens) for tokens in token_lists]
                self.counts["stoplists.tokens_removed"] += (
                    sum(map(len, token_lists)) - sum(map(len, kept)))
            with t.span("probe.index.check"):
                index.check()

    def _probe_queries(self, texts: list, stoplist):
        t = self.t
        with t.span("probe"):
            for text in texts:
                with t.span("probe.textpipe"):
                    tokens = tokenize(normalize(text))
                self.counts["textpipe.tokens"] += len(tokens)
                if stoplist is not None:
                    with t.span("probe.stoplists"):
                        kept = stoplist.filter(tokens)
                    self.counts["stoplists.query_terms_removed"] += len(tokens) - len(kept)
                    self.counts["stoplists.empty_queries"] += bool(tokens) and not kept

    def metrics(self, untraced_wall_s: float) -> dict:
        """Every PER_LAYER metric from the spans and counts."""
        t = self.t
        values = {name: t.total(*spans) for name, spans in _SPAN_TIMES.items()}
        values.update(self.counts)
        for model, spans in self.samples.items():
            ms = sorted((s["end"] - s["start"]) * 1000.0 for s in spans)
            values["ranking.score_ms_p50.%s" % model] = statistics.median(ms)
            # highest percentile with at least 10 samples beyond it
            values["ranking.score_ms_tail.%s" % model] = ms[len(ms) - 11]
            values["ranking.score_samples"] = len(ms)
            values["ranking.score_tail_pct"] = 100.0 * (1 - 10 / len(ms))
        traced = sum(s["end"] - s["start"] for s in t.spans
                     if s.get("phase") == "timed")
        values["trace.overhead_s"] = traced - untraced_wall_s
        values["trace.spans"] = len(t.spans)
        return values

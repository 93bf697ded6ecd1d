"""Command-line driver for the full experiment workflow.

Subcommands: ``index``, ``search``, ``eval``, ``compare`` and ``stoplist``
(with ``build``, ``combine``, ``inspect``).  Technique codes follow the
``<MODEL>`` / ``<MODEL>_<LIST>`` convention (for example ``BM25_CBS``) and
are derived automatically from the model and the stoplist recorded in the
index.

This module owns TREC topic files, TREC run files (``qid Q0 docno rank
score tag``, scores printed with six decimals), ``key=value`` configs and
the plain-text and tab-separated evaluation reports.  Corpora and index
files are :mod:`stoplab.index`'s, qrels :mod:`stoplab.treceval`'s, stoplist
files :mod:`stoplab.stoplists`'s; :mod:`stoplab.errors` opens every input.

Exit codes: 0 success, 1 usage error, 2 data or parse error.
"""

import argparse
import io
import math
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import fields
from itertools import compress

import numpy as np

from . import stoplists
from .errors import (ParseError, atomic_write, decode, iter_lines, iter_records, read_data,
                     read_text, source_name)
from .index import BadDocno, DuplicateDocno, Index, build_index, parse_trec_documents
from .ranking import (
    DEFAULT_TOP_K,
    BM25Params,
    DirichletParams,
    Query,
    RankedRun,
    SCORERS,
    TFIDFParams,
)
from .sigtest import friedman, left_sum, wilcoxon_signed_rank
from .stoplists import Stoplist, build_corpus_stoplist, combine, load_stoplist, write_stoplist
from .treceval import (
    CUTOFF_LEVELS,
    RECALL_LEVELS,
    EvalReport,
    evaluate_run,
    parse_qrels,
)

MODELS = ("TFIDF", "BM25", "KL")
PARAMS = {"TFIDF": TFIDFParams, "BM25": BM25Params, "KL": DirichletParams}
ENCODINGS = {"utf8": "utf-8", "cp1256": "cp1256"}
SIGNIFICANCE_LEVEL = 0.05
CORPUS_SLICE = 1 << 20  # index decodes a corpus file about this many bytes at a time


class UsageError(Exception):
    """Bad invocation discovered after argument parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; our contract reserves 2 for
    # data errors, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


# -- config files ---------------------------------------------------------


def read_config(path) -> list[tuple[int, str, str]]:
    """Parse a ``key=value`` experiment manifest into (line number, key,
    value) entries, in file order; ``#`` starts a comment."""
    config: list[tuple[int, str, str]] = []
    name = source_name(path, "config")
    for lineno, line in iter_lines(path, name):
        if "=" not in line:
            raise ParseError("%s line %d: expected key=value" % (name, lineno))
        key, value = line.split("=", 1)
        config.append((lineno, key.strip(), value.strip()))
    return config


def _parse_with_config(parser, args, argv):
    """Parse ``argv`` again with the ``--config`` manifest's values as the
    command's defaults, so flags win.  Each value is converted and checked
    as its flag's would be.  A key only the other command takes is skipped,
    so one manifest drives both ``index`` and ``search``; any other, and a key
    given twice, is refused."""
    commands = next(a for a in parser._actions if a.dest == "command").choices
    options = {name: {a.dest: a for a in commands[name]._actions
                      if a.dest not in ("config", "help")} for name in ("index", "search")}
    defaults, lines = {}, {}  # key -> its line
    for lineno, key, value in read_config(args.config):
        if lines.setdefault(key, lineno) != lineno:
            raise UsageError("%s lines %d and %d: key %r given twice"
                             % (args.config, lines[key], lineno, key))
        action = options[args.command].get(key)
        if action is None:
            if not any(key in known for known in options.values()):
                raise UsageError("%s line %d: unknown key %r" % (args.config, lineno, key))
            continue
        try:
            values = [action.type(v) if action.type else v
                      for v in (value.split(",") if action.nargs else [value])]
            if action.choices and any(v not in action.choices for v in values):
                raise ValueError("%s must be one of %s" % (key, action.choices))
        except ValueError as exc:
            raise UsageError("%s: bad %s: %s" % (args.config, key, exc)) from None
        defaults[key] = values if action.nargs else values[0]
    commands[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


# -- shared file helpers ----------------------------------------------------


def _expand_paths(paths: list[str], out_path: str) -> list[str]:
    """The files of ``paths``, directories walked, less ``out_path``."""
    skip = os.path.realpath(out_path)
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            before = len(out)
            for root, dirs, files in os.walk(p):
                dirs.sort()
                names = (os.path.join(root, name) for name in sorted(files))
                out.extend(path for path in names if os.path.realpath(path) != skip)
            if len(out) == before:
                raise ParseError("%s: no corpus files" % p)
        else:
            out.append(p)
    return out


def _check_out(out_path, *paths, lists=()) -> None:
    """Refuse an ``out_path`` that would overwrite an input: one of ``paths``
    (None where not given) or of the stoplist selections ``lists``."""
    files = [*paths, *(s for s in lists if s not in ("none", *stoplists.BUNDLED))]
    if out_path and os.path.realpath(out_path) in {os.path.realpath(p) for p in files if p}:
        raise UsageError("--out %s is also an input of this command" % out_path)


def _resolve_stoplist(selection: str) -> Stoplist:
    if selection == "none":  # `index` checks for it first
        raise UsageError("'none' is only for index --stoplist; give GS, CBS, CS or a file")
    if selection in stoplists.BUNDLED:
        return stoplists.bundled(selection)
    name = os.path.splitext(os.path.basename(selection))[0]
    try:
        return load_stoplist(selection, name=name, provenance="custom")
    except ValueError as exc:  # the name, which comes from the file's
        raise ParseError("%s: %s" % (selection, exc)) from None


# -- topic files ------------------------------------------------------------

# Field bodies run to the next tag; TREC topic fields contain no markup,
# whether or not the writer closed them with </num>-style tags.
_TOP_RE = re.compile(r"<top>(.*?)</top>", re.S | re.I)
_TOP_OPEN_RE = re.compile(r"<top>", re.I)
_NUM_RE = re.compile(r"<num>\s*(?:Number\s*:)?\s*(.*?)\s*(?=<|$)", re.S | re.I)
_TITLE_RE = re.compile(r"<title>\s*(?:Topic\s*:)?\s*(.*?)\s*(?=<|$)", re.S | re.I)
_DESC_RE = re.compile(r"<desc>\s*(?:Description\s*:)?\s*(.*?)\s*(?=<|$)", re.S | re.I)


def parse_topics(text: str, name: str = "topics") -> list[tuple[str, str]]:
    """Parse TREC topics; the query text is title plus description.  Error
    messages start with ``name``, the topics file's path."""
    blocks = _TOP_RE.findall(text)
    if len(_TOP_OPEN_RE.findall(text)) != len(blocks):
        raise ParseError("%s: unterminated <top> block" % name)
    topics: dict[str, str] = {}
    for i, block in enumerate(blocks, start=1):
        m = _NUM_RE.search(block)
        if m is None or not m.group(1).split():
            raise ParseError("%s: topic block %d has no <num>" % (name, i))
        qid = m.group(1).split()[0]
        if qid in topics:
            raise ParseError("%s: topic block %d repeats query id %s" % (name, i, qid))
        title = _TITLE_RE.search(block)
        desc = _DESC_RE.search(block)
        parts = []
        if title:
            parts.append(title.group(1))
        if desc:
            parts.append(desc.group(1))
        topics[qid] = " ".join(p for p in parts if p)
    return list(topics.items())


# -- run files ---------------------------------------------------------------


_rank_strings: tuple[str, ...] = ()  # " 1 ", " 2 ", ...: the longest run's ranks so far


def _score_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The byte rows ``_score_texts`` copies from, one row per index: the
    integer parts 0..9999 right-aligned in five bytes, then the same with
    a minus sign (``"   -0"`` too); the first two decimals as ``.dd``; the
    last four as ``dddd`` and a space."""
    # uint16, so no temporary outgrows malloc's 128 KiB mmap threshold
    values = np.arange(10000, dtype=np.uint16)[:, None]
    digits = (values // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    blank = values < np.array([1000, 100, 10, 0], np.uint16)  # an integer part's leading zeros
    whole = np.full((2, 10000, 5), ord(" "), np.uint8)
    whole[:, :, 1:] = np.where(blank, np.uint8(ord(" ")), digits)
    whole[1, np.arange(10000), blank.sum(axis=1)] = ord("-")  # left of the first digit
    two = np.full((100, 3), ord("."), np.uint8)
    two[:, 1:] = digits[:100, 2:]
    four = np.full((10000, 5), ord(" "), np.uint8)
    four[:, :4] = digits
    return whole.reshape(-1, 5), two, four


_WHOLE, _TWO_PLACES, _FOUR_PLACES = _score_tables()


def _score_texts(scores: np.ndarray) -> list[str]:
    """``["%.6f" % s for s in scores]``, each text put together from three
    table rows (see :func:`write_run` for why it is exact); the scores the
    tables cannot give go through ``%``."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = scores * 1e6
        units = np.rint(product)
        exact = (np.abs(units) < 1e10) & (
            0.5 - np.abs(product - units) > np.spacing(np.abs(product)))
    whole, fraction = np.divmod(np.where(exact, np.abs(units), 0).astype(np.int64), 1000000)
    rows = np.concatenate([_WHOLE.take(whole + 10000 * np.signbit(scores), axis=0),
                           _TWO_PLACES.take(fraction // 10000, axis=0),
                           _FOUR_PLACES.take(fraction % 10000, axis=0)], axis=1)
    texts = rows.tobytes().decode("ascii").split()
    for i in np.flatnonzero(~exact).tolist():
        texts[i] = "%.6f" % scores[i]
    return texts


def write_run(run: RankedRun, out) -> None:
    """Write a run's lines, ``qid Q0 docno rank score tag``, as one
    ``"".join``: each line's docno, rank, score and end, where a line's end
    is the tag, a newline and the next line's ``qid Q0``.  The ranks are
    cached strings; a longer run binds a new tuple, so a concurrent writer
    keeps the one it read.

    Every score is exactly its ``%.6f`` text.  ``%.6f`` rounds the exact
    value ``s * 10**6`` to an integer, ties to even; the float product lies
    within half its spacing of that value, so ``np.rint`` of the product
    is the same integer unless the product lies within ``np.spacing`` of
    a half-integer.  Those scores, the non-finite ones and those of five or
    more integer digits go through ``%``; the rest are built from digit
    tables."""
    global _rank_strings
    n = len(run.docnos)
    ranks = _rank_strings
    if len(ranks) < n:
        ranks = _rank_strings = tuple(" %d " % rank for rank in range(1, n + 1))
    head = run.qid + " Q0 "
    parts = [head] + [None] * (4 * n)
    parts[1::4] = run.docnos
    parts[2::4] = ranks[:n]
    parts[3::4] = _score_texts(run.scores)
    parts[4::4] = [" %s\n%s" % (run.tag, head)] * n
    text = "".join(parts)
    out.write(text[:len(text) - len(head)])  # the last line's end starts no line


def read_run_file(source) -> list[RankedRun]:
    """Parse a TREC run file into per-query runs, in order of first
    appearance.  Each query's docnos and scores are put in order by the
    rank column, and equal ranks keep file order; scores do not affect the
    order.  The rank values themselves are not kept: a rank is a position.
    A query's tag comes from its first line.  Text as ``write_run`` writes
    it, ranks ``1..m`` in file order and scores of one to nine integer
    digits, is read by columns from its bytes (gunzipped for a ``.gz``
    name); any other text, or an open text file, is decoded and read line by
    line, to the same runs."""
    name = source_name(source, "run")
    data = read_data(source, name)
    runs = _read_run_columns(data) if isinstance(data, bytes) else None
    return _read_run_lines(decode(data, name), name) if runs is None else runs


def _read_run_lines(text: str, name: str) -> list[RankedRun]:
    """Read a run line by line, as :func:`~stoplab.errors.iter_records`
    splits it; one query's lines may interleave with another's.  The only
    run reader that names a fault."""
    columns: dict[str, tuple] = {}  # qid -> tag, docnos seen, docnos, ranks, scores
    for lineno, (qid, _, docno, rank_s, score_s, tag) in iter_records(text, name, 6):
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise ParseError("%s line %d: bad rank or score" % (name, lineno)) from None
        if qid not in columns:
            columns[qid] = (tag, set(), [], [], [])
        _, seen, docnos, ranks, scores = columns[qid]
        if docno in seen:
            raise ParseError("%s line %d: duplicate docno %r for query %s"
                             % (name, lineno, docno, qid))
        seen.add(docno)
        docnos.append(docno)
        ranks.append(rank)
        scores.append(score)
    runs = []
    for qid, (tag, _, docnos, ranks, scores) in columns.items():
        order = sorted(range(len(ranks)), key=ranks.__getitem__)  # stable
        runs.append(RankedRun(qid, [docnos[i] for i in order],
                              np.array([scores[i] for i in order]), tag))
    return runs


# The separators of a canonical run line: five spaces, then a newline.
_SEPARATORS = np.array([32] * 5 + [10], dtype=np.uint8)
# Lines per block: a block's arrays stay small, and are freed before the next.
_BLOCK_LINES = 4096
# A score's last 16 bytes, "ddddddddd.dddddd": each byte's "0", its most over
# that, its place value, and which bytes are written for 0-9 integer digits.
_SCORE_ZERO = np.frombuffer(b"000000000.000000", dtype=np.uint8)
_SCORE_NINE = np.frombuffer(b"999999999.999999", dtype=np.uint8) - _SCORE_ZERO
_PLACES = 10.0 ** np.array([14, 13, 12, 11, 10, 9, 8, 7, 6, 0, 5, 4, 3, 2, 1, 0])
_WRITTEN = (np.arange(16) >= 9 - np.arange(10)[:, None]).astype(np.uint8)


def _read_run_columns(raw: bytes) -> list[RankedRun] | None:
    """The runs in ``raw`` if it is as ``write_run`` writes it, else None:
    ASCII, each line six fields joined by single spaces and ended by
    ``\\n`` (so its fields are the line reader's), each query's ranks
    ``1..m`` in file order, and each score ``-?d+.dddddd`` with one to nine
    integer digits.  A query's lines may alternate with another's.  None
    also stands for a repeated docno, which the line reader refuses."""
    if not raw.isascii() or not raw.endswith(b"\n"):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    block_ends = np.flatnonzero(data == 10)[_BLOCK_LINES - 1:-1:_BLOCK_LINES] + 1
    bounds = [0, *block_ends.tolist(), len(data)]

    columns: dict[str, tuple] = {}  # qid -> tag, docnos, rank bytes, score arrays
    for start, end in zip(bounds, bounds[1:]):
        block = data[start:end]
        # bytes <= 32, two in a row around an empty field; int32 holds a block below 2 GiB
        cuts = np.flatnonzero(block <= 32).astype(np.int32)
        if (len(block) >= 2 ** 31 or len(cuts) % 6 or (np.diff(cuts, prepend=-1) == 1).any()
                or not (block.take(cuts).reshape(-1, 6) == _SEPARATORS).all()):
            return None
        cuts = cuts.reshape(-1, 6)
        firsts = np.concatenate(([0], cuts[:-1, 5] + 1), dtype=np.int32)  # line starts
        docnos = _column(block, cuts[:, 1] + 1, cuts[:, 2])[0].tobytes().decode("ascii").split()
        ranks, rank_at = _column(block, cuts[:, 2] + 1, cuts[:, 3])
        scores = _scores(block, cuts[:, 3] + 1, cuts[:, 4])
        if scores is None:
            return None
        # a query's lines in this block run from a change of qid to the next: a line
        # whose qid and separator differ from as many bytes from the line above's start
        qids, at = _column(block, firsts, cuts[:, 0])
        above = np.concatenate(([0], firsts[:-1]), dtype=np.int32)
        differ = np.flatnonzero(qids != _column(block, above, cuts[:, 0] - firsts + above)[0])
        changes = [0, *dict.fromkeys(at[1:].searchsorted(differ, "right").tolist()), len(cuts)]
        marks = rank_at[changes].tolist()
        heads = np.column_stack((firsts, cuts))[changes[:-1]].tolist()  # line start, cuts
        for a, b, ra, rb, head in zip(changes, changes[1:], marks, marks[1:], heads):
            qid = raw[start + head[0]:start + head[1]].decode()  # ASCII, as checked
            if qid not in columns:  # the tag, from the query's first line
                columns[qid] = (raw[start + head[5] + 1:start + head[6]].decode(), [], [], [])
            _, query_docnos, query_ranks, query_scores = columns[qid]
            query_docnos += docnos[a:b]
            query_ranks.append(ranks[ra:rb])
            query_scores.append(scores[a:b])

    longest = max(len(docnos) for _, docnos, _, _ in columns.values())
    in_order = " ".join(map(str, range(1, longest + 1))).encode() + b" "
    runs = []
    for qid, (tag, docnos, ranks, scores) in columns.items():
        if len(set(docnos)) != len(docnos) or not in_order.startswith(b"".join(ranks)):
            return None
        runs.append(RankedRun(qid, docnos, np.concatenate(scores), tag))
    return runs


def _column(block: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """The bytes of the fields ``block[starts[i]:stops[i]]``, each with the
    separator at ``stops[i]``, one after another, and where each starts
    among them, then their count."""
    lengths = stops + 1 - starts
    at = np.concatenate(([0], np.cumsum(lengths)), dtype=np.int32)
    index = np.arange(at[-1], dtype=np.int32) + np.repeat(starts - at[:-1], lengths)
    return block.take(index), at


def _scores(block: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """The scores ``block[starts[i]:stops[i]]`` as ``float`` reads them, or None if one
    is not ``-?d+.dddddd`` with one to nine integer digits.  Such a score is ``N / 10**6``
    for an exact integer N: one correctly rounded division, so ``float``'s value."""
    negative = block.take(starts) == 45  # "-"
    digits = stops - starts - negative - 7  # before the point
    if not ((digits >= 1) & (digits <= 9)).all():
        return None
    # the first four fields take 8 bytes or more, so a score's last 16 lie in its block
    tails = np.ndarray((len(block) - 15,), "V16", block, strides=(1,))[stops - 16]
    values = ((tails.view(np.uint8).reshape(-1, 16) - _SCORE_ZERO)
              * _WRITTEN.take(digits, axis=0))
    if not (values <= _SCORE_NINE).all():  # a byte below "0" wraps past 9
        return None
    scores = (values @ _PLACES) / 1e6
    return np.negative(scores, out=scores, where=negative)


# -- evaluation reports -------------------------------------------------------

_TSV_COLUMNS = (
    ["tag", "qid", "num_relevant", "num_retrieved", "num_relevant_retrieved",
     "ap", "r_precision"]
    + ["p_%d" % k for k in CUTOFF_LEVELS]
    + ["ip_%.1f" % x for x in RECALL_LEVELS]
)


def write_report_text(report: EvalReport, tag: str, out) -> None:
    w = out.write
    w("run tag:                       %s\n" % tag)
    w("queries in run:                %d\n" % len(report.per_query))
    w("queries evaluated (R > 0):     %d\n" % report.num_evaluated)
    w("queries flagged (R = 0):       %d%s\n" % (
        len(report.flagged),
        "  [%s]" % ", ".join(report.flagged) if report.flagged else "",
    ))
    w("total relevant:                %d\n" % report.total_relevant)
    w("total relevant retrieved:      %d\n" % report.total_relevant_retrieved)
    w("total retrieved:               %d\n" % report.total_retrieved)
    w("\nper-query metrics\n")
    w("%-12s %6s %7s %7s %9s %9s\n" % ("qid", "rel", "ret", "relret", "AP", "R-prec"))
    for q in report.per_query:
        w("%-12s %6d %7d %7d %9.4f %9.4f\n" % (
            q.qid, q.num_relevant, q.num_retrieved, q.num_relevant_retrieved,
            q.average_precision, q.r_precision,
        ))
    w("\nmeans over evaluated queries\n")
    w("mean average precision:        %.4f\n" % report.mean_average_precision)
    w("mean R-precision:              %.4f\n" % report.mean_r_precision)
    w("\nprecision at document cutoffs\n")
    w(" ".join("%8s" % ("P@%d" % k) for k in CUTOFF_LEVELS) + "\n")
    w(" ".join("%8.4f" % report.mean_cutoff_precision[k] for k in CUTOFF_LEVELS) + "\n")
    w("\ninterpolated precision at 11 recall levels\n")
    w(" ".join("%8.1f" % x for x in RECALL_LEVELS) + "\n")
    w(" ".join("%8.4f" % p for p in report.mean_interp_precision) + "\n")


def write_report_tsv(report: EvalReport, tag: str, out) -> None:
    def row(qid, counts, ap, r_precision, cutoffs, interp):
        values = (ap, r_precision, *(cutoffs[k] for k in CUTOFF_LEVELS), *interp)
        cells = [tag, qid, *map(str, counts), *("%.17g" % x for x in values)]
        out.write("\t".join(cells) + "\n")

    out.write("\t".join(_TSV_COLUMNS) + "\n")
    for q in report.per_query:
        row(q.qid, (q.num_relevant, q.num_retrieved, q.num_relevant_retrieved),
            q.average_precision, q.r_precision, q.cutoff_precision, q.interp_precision)
    row("all", (report.total_relevant, report.total_retrieved,
                report.total_relevant_retrieved),
        report.mean_average_precision, report.mean_r_precision,
        report.mean_cutoff_precision, report.mean_interp_precision)


def read_report_tsv(path) -> tuple[str, dict[str, dict[str, float]]]:
    """Read a per-query report back; returns (tag, qid -> {ap, num_relevant}).
    As ``write_report_tsv`` writes it, its first line is the header, and its
    rows are one technique's, each query id once, then ``all``."""
    name = source_name(path, "report")
    text = read_text(path, name)
    if next(io.StringIO(text, newline=None), "").rstrip("\n").split("\t") != _TSV_COLUMNS:
        raise ParseError("%s: not a recognized report file" % name)
    records = iter_records(text, name, len(_TSV_COLUMNS), "\t")
    next(records)  # the header
    tag = None
    seen: set[str] = set()
    rows: dict[str, dict[str, float]] = {}
    for lineno, (row_tag, qid, relevant_s, _, _, ap_s, *_) in records:
        if tag is None:
            tag = row_tag
        elif row_tag != tag:
            raise ParseError("%s line %d: technique tag %s differs from the first row's, %s"
                             % (name, lineno, row_tag, tag))
        if qid in seen:
            raise ParseError("%s line %d: query %s repeats" % (name, lineno, qid))
        seen.add(qid)
        if qid == "all":
            continue
        try:
            ap, num_relevant = float(ap_s), int(relevant_s)
        except ValueError as exc:
            raise ParseError("%s line %d: %s" % (name, lineno, exc)) from None
        if not math.isfinite(ap):  # the rank tests need ordered values
            raise ParseError("%s line %d: average precision %s is not finite"
                             % (name, lineno, ap_s))
        rows[qid] = {"ap": ap, "num_relevant": num_relevant}
    if tag is None:
        raise ParseError("%s: report contains no rows" % name)
    return tag, rows


# -- subcommands --------------------------------------------------------------


def cmd_index(args) -> int:
    if not args.corpus:
        raise UsageError("no corpus given (flag --corpus or config corpus=)")
    if not args.out:
        raise UsageError("no output path given (flag --out or config out=)")

    # corpus directories are listed before the output's temporary file
    # opens, since it may lie in one of them, as the output itself may
    paths = _expand_paths(args.corpus, args.out)
    _check_out(args.out, *paths, args.config, lists=[args.stoplist])
    sources: list[str] = []  # the corpus file of each document, by ordinal

    def documents():
        encoding = ENCODINGS[args.encoding]
        for path in paths:
            before = len(sources)
            data = read_data(path, "corpus")
            # slices cut just after a </DOC>, which is ASCII in both
            # encodings, split no character and no block, so they parse as
            # the whole file would; a fault is raised again from the whole
            # file, so its message names the file's own lines and offsets
            try:
                start = 0
                while start < len(data):
                    end = data.find(b"</DOC>", start + CORPUS_SLICE)
                    end = len(data) if end == -1 else end + 6
                    for doc in parse_trec_documents(
                            decode(data[start:end], path, encoding), path):
                        sources.append(path)
                        yield doc
                    start = end
            except ParseError:
                for _ in parse_trec_documents(decode(data, path, encoding), path):
                    pass
                raise
            if len(sources) == before:  # empty, or not a corpus at all
                raise ParseError("%s: no <DOC> blocks" % path)

    with atomic_write(args.out, binary=True) as out:
        stoplist = None if args.stoplist == "none" else _resolve_stoplist(args.stoplist)
        try:
            index = build_index(documents(), stoplist=stoplist)
        except DuplicateDocno as exc:
            raise ParseError("%s: duplicate docno %r (first in %s)" % (
                sources[exc.again], exc.docno, sources[exc.first])) from None
        except BadDocno as exc:
            raise ParseError("%s: %s" % (sources[exc.ordinal], exc)) from None
        index.save(out)
    print("documents:           %d" % index.N)
    print("tokens:              %d" % index.total_tokens)
    print("vocabulary:          %d" % index.vocabulary_size)
    print("average doc length:  %.2f" % index.avgdl)
    print("stopwords removed:   %d" % index.stopwords_removed)
    print("stoplist:            %s" % (stoplist.name if stoplist else "none"))
    print("index file:          %s" % args.out)
    return 0


def cmd_search(args) -> int:
    if not args.index or not args.topics:
        raise UsageError("search needs --index and --topics")
    _check_out(args.out, args.index, args.topics, args.config)

    with atomic_write(args.out) if args.out else nullcontext(sys.stdout) as out:
        index = Index.load(args.index)
        text = read_text(args.topics, "topics", ENCODINGS[args.encoding])
        topics = parse_topics(text, args.topics)
        if not topics:  # empty, or not a topics file at all
            raise ParseError("%s: no <top> blocks" % args.topics)

        # options the model does not take are ignored; unset ones keep defaults
        param_type = PARAMS[args.model]
        given = {f.name: getattr(args, f.name) for f in fields(param_type)}
        params = param_type(**{k: v for k, v in given.items() if v is not None})

        tag = args.model if index.stoplist is None else "%s_%s" % (
            args.model, index.stoplist.name)
        scorer = SCORERS[args.model]
        for qid, text in topics:
            query = Query.from_text(qid, text, stoplist=index.stoplist)
            run = scorer(index, query, params, top_k=args.top_k, tag=tag)
            write_run(run, out)
    return 0


def cmd_eval(args) -> int:
    _check_out(args.out, args.run, args.qrels)
    # the TSV report is in place before the text report prints, so a
    # failed write prints nothing
    with atomic_write(args.out) if args.out else nullcontext() as out:
        runs = read_run_file(args.run)
        if out and any(run.qid == "all" for run in runs):
            raise ParseError("%s: query id 'all' is reserved for the summary row of "
                             "the --out report" % args.run)
        report = evaluate_run(runs, parse_qrels(args.qrels))
        tag = runs[0].tag if runs else "(empty run)"
        if out:
            write_report_tsv(report, tag, out)
    write_report_text(report, tag, sys.stdout)
    return 0


def cmd_compare(args) -> int:
    if len(args.reports) < 2:
        raise UsageError("compare needs at least two reports")
    tables = [read_report_tsv(path) for path in args.reports]
    tags = [tag for tag, _ in tables]
    first: dict[str, str] = {}  # tag -> the first report that has it
    for path, tag in zip(args.reports, tags):
        if tag in first:
            raise ParseError("%s: technique tag %s repeats %s" % (path, tag, first[tag]))
        first[tag] = path
    reference = set(tables[0][1])
    for path, (tag, rows) in zip(args.reports[1:], tables[1:]):
        if set(rows) != reference:
            missing = sorted(reference - set(rows))
            extra = sorted(set(rows) - reference)
            raise ParseError(
                "%s: report %s covers a different qid set (missing %s, extra %s)"
                % (path, tag, missing or "-", extra or "-")
            )
        # a query's relevant count comes from the qrels alone
        for q in sorted(rows):
            relevant, expected = rows[q]["num_relevant"], tables[0][1][q]["num_relevant"]
            if relevant != expected:
                raise ParseError("%s: query %s has %d relevant documents, %s has %d: the "
                                 "reports were evaluated against different qrels"
                                 % (path, q, relevant, args.reports[0], expected))
    if len(reference) < 2:
        raise ParseError("compare needs at least 2 queries; the reports share %d"
                         % len(reference))
    qids = sorted(reference)
    columns = [[rows[q]["ap"] for q in qids] for _, rows in tables]  # AP per technique
    judged = [tables[0][1][q]["num_relevant"] > 0 for q in qids]  # alike in every report
    means = [left_sum(compress(column, judged)) / sum(judged) if any(judged) else 0.0
             for column in columns]

    baseline = args.baseline
    if baseline not in tags:
        raise UsageError(
            "baseline %r is not among the report tags %s" % (baseline, tags)
        )

    result = friedman(np.transpose(columns), labels=tags)
    order = sorted(range(len(tags)), key=lambda j: result.mean_ranks[j])

    print("Friedman test over %d techniques, %d queries" % (len(tags), len(qids)))
    print("%-14s %14s %11s" % ("technique", "mean precision", "mean rank"))
    for j in order:
        print("%-14s %14.4f %11.2f" % (tags[j], means[j], result.mean_ranks[j]))
    print(
        "chi2 = %.3f  df = %d  p = %.4g%s"
        % (
            result.chi2,
            result.df,
            result.p_value,
            "  (significant at %.2f)" % SIGNIFICANCE_LEVEL
            if result.p_value < SIGNIFICANCE_LEVEL
            else "",
        )
    )

    base_scores = columns[tags.index(baseline)]
    print()
    print(
        "Wilcoxon signed-rank vs baseline %s (QP > BP means the technique "
        "beat the baseline; * = p < %.2f)" % (baseline, SIGNIFICANCE_LEVEL)
    )
    print(
        "%-14s %14s %7s %7s %7s %10s"
        % ("technique", "mean precision", "QP>BP", "QP<BP", "QP=BP", "p-value")
    )
    for j in order:
        if tags[j] == baseline:
            continue
        w = wilcoxon_signed_rank(columns[j], base_scores)
        print(
            "%-14s %14.4f %7d %7d %7d %10.4g%s"
            % (
                tags[j],
                means[j],
                w.better,
                w.worse,
                w.tied,
                w.p_value,
                " *" if w.p_value < SIGNIFICANCE_LEVEL else "",
            )
        )
    return 0


def cmd_stoplist_build(args) -> int:
    _check_out(args.out, args.index, args.exclude)
    with atomic_write(args.out) as out:
        index = Index.load(args.index)
        exclusions = load_stoplist(args.exclude, "exclusions").words if args.exclude else ()
        stoplist = build_corpus_stoplist(index.ctf, args.cutoff, exclusions, name=args.name)
        write_stoplist(stoplist, out)
    print("stoplist %s: %d words -> %s" % (stoplist.name, len(stoplist), args.out))
    return 0


def cmd_stoplist_combine(args) -> int:
    _check_out(args.out, lists=[args.a, args.b])
    with atomic_write(args.out) as out:
        merged = combine(_resolve_stoplist(args.a), _resolve_stoplist(args.b),
                         name=args.name)
        write_stoplist(merged, out)
    print("stoplist %s: %d words -> %s" % (merged.name, len(merged), args.out))
    return 0


def cmd_stoplist_inspect(args) -> int:
    lists = [_resolve_stoplist(s) for s in (args.list, args.other) if s]
    for s in lists:
        print("list %s: %d words (provenance: %s)" % (s.name, len(s), s.provenance))
    if args.other:
        stoplist, other = lists
        print("overlap: %d" % len(stoplist.words & other.words))
        print("union:   %d" % len(stoplist.words | other.words))
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="stoplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an index from TIPSTER SGML files")
    p.add_argument("--corpus", nargs="+", help="corpus files or directories (.gz ok)")
    p.add_argument("--out", help="index file to write")
    p.add_argument("--encoding", choices=sorted(ENCODINGS), default="utf8")
    p.add_argument("--stoplist", default="none",
                   help="none, GS, CBS, CS, or a stoplist file")
    p.add_argument("--workers", type=int, help="accepted for compatibility; has no effect")
    p.add_argument("--config", help="manifest of index/search key=value options; flags win")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="run topics against an index")
    p.add_argument("--index", help="index file")
    p.add_argument("--topics", help="TREC topics file")
    p.add_argument("--model", choices=MODELS, default="TFIDF")
    p.add_argument("--k1", type=float, help="BM25/TFIDF k1")
    p.add_argument("--b", type=float, help="BM25/TFIDF b")
    p.add_argument("--k3", type=float, help="BM25 k3")
    p.add_argument("--mu", type=float, help="Dirichlet prior mass")
    p.add_argument("--top-k", dest="top_k", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--out", help="run file (default: stdout)")
    p.add_argument("--encoding", choices=sorted(ENCODINGS), default="utf8")
    p.add_argument("--config", help="manifest of index/search key=value options; flags win")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="evaluate a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", help="per-query TSV report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="significance tests over eval reports")
    p.add_argument("reports", nargs="+", help="per-query TSV reports")
    p.add_argument("--baseline", default="TFIDF")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stoplist", help="build, combine or inspect stoplists")
    ssub = p.add_subparsers(dest="subcommand", required=True)

    q = ssub.add_parser("build", help="corpus-based list from index statistics")
    q.add_argument("--index", required=True)
    q.add_argument("--cutoff", type=int, required=True,
                   help="keep terms with collection frequency > cutoff")
    q.add_argument("--exclude", help="file of content words to remove")
    q.add_argument("--out", required=True)
    q.add_argument("--name", default="CBS")
    q.set_defaults(func=cmd_stoplist_build)

    q = ssub.add_parser("combine", help="union of two stoplists")
    q.add_argument("--a", required=True, help="GS, CBS, CS, or a file")
    q.add_argument("--b", required=True, help="GS, CBS, CS, or a file")
    q.add_argument("--out", required=True)
    q.add_argument("--name", default=None)
    q.set_defaults(func=cmd_stoplist_combine)

    q = ssub.add_parser("inspect", help="size and overlap of stoplists")
    q.add_argument("--list", required=True, help="GS, CBS, CS, or a file")
    q.add_argument("--other", help="second list for overlap statistics")
    q.set_defaults(func=cmd_stoplist_inspect)

    return parser


_parser: _Parser | None = None  # main()'s tree, built on first use


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):  # its set_defaults stay in a tree of its own
            args = _parse_with_config(_build_parser(), args, argv)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ParseError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""TREC-style evaluation of ranked runs against relevance judgments.

Per query: average precision, 11-point interpolated precision, precision
at standard document cutoffs, R-precision (precision at rank R, the exact
breakeven point), and the relevant/retrieved counts.  Aggregates are
arithmetic means over queries that have at least one relevant document;
queries with none are flagged and excluded from the means, following
trec_eval convention.  Recall denominators always come from the judgments,
never from what was retrieved.
"""

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, iter_records, read_text, source_name
from .ranking import RankedRun
from .sigtest import left_sum

CUTOFF_LEVELS = (5, 10, 15, 20, 30, 100, 200, 500, 1000)
RECALL_LEVELS = tuple(i / 10 for i in range(11))

Qrels = dict[str, set[str]]


def parse_qrels(source) -> Qrels:
    """Parse whitespace-separated ``qid iter docno rel`` lines.

    Graded judgments collapse to binary: rel > 0 means relevant.  Queries
    whose judged documents are all nonrelevant still appear, with an empty
    set.
    """
    qrels: Qrels = {}
    name = source_name(source, "qrels")
    for lineno, (qid, _, docno, rel) in iter_records(read_text(source, name), name, 4):
        try:
            rel_value = int(rel)
        except ValueError:
            raise ParseError("%s line %d: relevance %r is not an integer"
                             % (name, lineno, rel)) from None
        judged = qrels.setdefault(qid, set())
        if rel_value > 0:
            judged.add(docno)
    return qrels


@dataclass
class QueryEval:
    qid: str
    num_relevant: int
    num_retrieved: int
    num_relevant_retrieved: int
    average_precision: float
    interp_precision: tuple[float, ...]  # at recall 0.0, 0.1, ..., 1.0
    cutoff_precision: dict[int, float]
    r_precision: float


@dataclass
class EvalReport:
    per_query: list[QueryEval]
    mean_average_precision: float
    mean_interp_precision: tuple[float, ...]
    mean_cutoff_precision: dict[int, float]
    mean_r_precision: float
    total_relevant: int
    total_retrieved: int
    total_relevant_retrieved: int
    num_evaluated: int          # queries contributing to the means
    flagged: list[str]          # qids with no relevant documents


def evaluate_query(run: RankedRun, relevant: set[str]) -> QueryEval:
    """Score one ranked list against its relevant set.

    With no relevant documents the result is defined (all metrics zero)
    but callers exclude it from aggregates.
    """
    num_relevant = len(relevant)
    n = len(run.docnos)
    # the rank of each relevant document retrieved, then the precision there
    ranks = np.flatnonzero(np.fromiter(map(relevant.__contains__, run.docnos), bool, n)) + 1
    found = np.arange(1, len(ranks) + 1)
    precision = found / ranks
    average_precision = left_sum(precision.tolist()) / num_relevant if num_relevant else 0.0
    # recall rises with rank, so each level's best precision is a suffix maximum
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    interp = best[np.searchsorted(found / max(num_relevant, 1), RECALL_LEVELS)]
    # relevant documents retrieved within each cutoff, then within R
    hits = np.searchsorted(ranks, (*CUTOFF_LEVELS, num_relevant), "right")

    return QueryEval(
        qid=run.qid,
        num_relevant=num_relevant,
        num_retrieved=n,
        num_relevant_retrieved=len(ranks),
        average_precision=average_precision,
        interp_precision=tuple(interp.tolist()),
        cutoff_precision=dict(zip(CUTOFF_LEVELS, (hits[:-1] / CUTOFF_LEVELS).tolist())),
        r_precision=int(hits[-1]) / num_relevant if num_relevant else 0.0,
    )


def evaluate_run(runs: Iterable[RankedRun], qrels: Qrels) -> EvalReport:
    """Evaluate one run per query and aggregate.

    A qid missing from the qrels is treated as having no relevant documents
    and flagged.  Duplicate qids are an error.
    """
    per_query: list[QueryEval] = []
    seen: set[str] = set()
    flagged: list[str] = []
    for run in runs:
        if run.qid in seen:
            raise ValueError("duplicate qid %r in runs" % run.qid)
        seen.add(run.qid)
        relevant = qrels.get(run.qid, set())
        evaluation = evaluate_query(run, relevant)
        if evaluation.num_relevant == 0:
            flagged.append(run.qid)
        per_query.append(evaluation)

    included = [q for q in per_query if q.num_relevant > 0]
    count = len(included)

    def mean(values: Iterable[float]) -> float:
        return left_sum(values) / count if count else 0.0

    mean_interp = tuple(
        mean(q.interp_precision[i] for q in included) for i in range(len(RECALL_LEVELS))
    )
    mean_cutoffs = {
        k: mean(q.cutoff_precision[k] for q in included) for k in CUTOFF_LEVELS
    }
    return EvalReport(
        per_query=per_query,
        mean_average_precision=mean(q.average_precision for q in included),
        mean_interp_precision=mean_interp,
        mean_cutoff_precision=mean_cutoffs,
        mean_r_precision=mean(q.r_precision for q in included),
        total_relevant=sum(q.num_relevant for q in per_query),
        total_retrieved=sum(q.num_retrieved for q in per_query),
        total_relevant_retrieved=sum(q.num_relevant_retrieved for q in per_query),
        num_evaluated=count,
        flagged=flagged,
    )

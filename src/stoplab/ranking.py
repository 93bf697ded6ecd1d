"""The three ranking models: TF*IDF, Okapi BM25, and KL-divergence with
Dirichlet-smoothed document language models.

Scoring formulas (natural log everywhere; the base affects scale, never
order):

BM25 (k1=1.2, b=0.75, k3=7):

    score(d) = sum over query terms t of
        ln((N - df + 0.5) / (df + 0.5))               # idf
        * ((k1 + 1) * tf) / (K + tf)                  # doc tf saturation
        * ((k3 + 1) * qtf) / (k3 + qtf)               # query tf saturation
    with K = k1 * ((1 - b) + b * dl / avgdl)

    The idf is deliberately NOT clamped at zero: terms appearing in more
    than half the documents score negatively, which is exactly the regime
    stoplist experiments probe.

TF*IDF (k1=1, b=0.3), BM25-style tf on the document side:

    score(d) = sum over t of [bm25tf(tf, dl) * idf] * [qtf * idf]
    with bm25tf(tf, dl) = (k1 * tf) / (tf + k1 * ((1 - b) + b * dl / avgdl))
    and idf = ln(N / df)

KL / query likelihood with Dirichlet prior (mu=2000), in rank-equivalent
form:

    score(d) = sum over t of qtf * ln(1 + tf / (mu * p(t|C)))
               + |q| * ln(mu / (mu + dl))
    with p(t|C) = ctf / total_tokens and |q| = sum of qtf

    Every document is a candidate (the length term discriminates even at
    tf = 0).  As in every model, a query term absent from the collection
    is dropped with a warning; here p(t|C) = 0 has no likelihood reading.

Each model's weight for a query term splits into a document part, a
float64 array over the term's postings that depends on their tf, a factor
per document (K for BM25, its TF*IDF twin, ln(mu / (mu + dl)) for KL) and
the parameters, and a query part, a float that depends on the qtf and the
term's df; their product is the weight, bit for bit the expression above.
A term's df is the number of its postings, and its ctf the sum of their
tf, so no weight reads a per-term table:

    BM25:    (idf * doc tf saturation) * query tf saturation
    TF*IDF:  (bm25tf(tf, dl) * idf) * (qtf * idf)
    KL:      ln(1 + tf / (mu * p(t|C))) * qtf

The models share one scoring core.  It adds a query's weights into
document scores with one scatter (``np.bincount``), term after term in
sorted-term order, which sums each document's weights in that order from
0.0.  KL's length term goes first, as a term every document holds, |q|
times the factor, so every document is a KL candidate; BM25's and
TF*IDF's are the documents that hold a query term.

A search weighs each document, and each term's postings, once per model
and parameters: the index keeps a memo, keyed by both, of the factors
and each term's document part.  It holds one key at a time, one float64
per document plus one per posting of the terms queried since the key
last changed, and is freed with the index.

A run is two columns, docnos and scores, ordered by descending score with
ties broken by docno ascending; a document's rank is its position plus
one.  Identical inputs always produce identical runs.
"""

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .index import Index
from .stoplists import Stoplist
from .textpipe import normalize, tokenize

logger = logging.getLogger(__name__)

DEFAULT_TOP_K = 1000
_TABLE_LIMIT = 1 << 20  # values per table in _per_distinct, 8 MB of float64


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75
    k3: float = 7.0

    def __post_init__(self):
        if not (math.isfinite(self.k1) and self.k1 >= 0 and 0.0 <= self.b <= 1.0
                and math.isfinite(self.k3) and self.k3 >= 0):
            raise ValueError("require finite k1 >= 0, 0 <= b <= 1, finite k3 >= 0")


@dataclass(frozen=True)
class TFIDFParams:
    k1: float = 1.0
    b: float = 0.3

    def __post_init__(self):
        if not (math.isfinite(self.k1) and self.k1 >= 0 and 0.0 <= self.b <= 1.0):
            raise ValueError("require finite k1 >= 0, 0 <= b <= 1")


@dataclass(frozen=True)
class DirichletParams:
    mu: float = 2000.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be positive and finite")


@dataclass
class Query:
    """A query as a bag of normalized, stoplist-filtered terms."""

    qid: str
    terms: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_text(
        cls,
        qid: str,
        text: str,
        stoplist: Stoplist | None = None,
        strip_marks: bool = True,
    ) -> "Query":
        """Build a query through the same pipeline documents go through,
        which always strips marks (bench/replay.py still passes True)."""
        if not strip_marks:
            raise ValueError("diacritics and tatweel are always stripped")
        tokens = tokenize(normalize(text))
        if stoplist is not None:
            tokens = stoplist.filter(tokens)
        return cls(qid=qid, terms=dict(Counter(tokens)))


class RunEntry(NamedTuple):
    docno: str
    score: float
    rank: int


@dataclass(eq=False)
class RankedRun:
    """Ranked result list for one query, tagged with its technique code.

    ``docnos[i]`` holds rank ``i + 1`` with score ``scores[i]``; the two
    columns have equal length and are in rank order.
    """

    qid: str
    docnos: list[str]
    scores: np.ndarray  # float64
    tag: str

    def __eq__(self, other):
        # scores compare bit for bit: a NaN equals itself, and -0.0 is not 0.0
        if not isinstance(other, RankedRun):
            return NotImplemented
        return ((self.qid, self.docnos, self.tag) == (other.qid, other.docnos, other.tag)
                and np.array_equal(self.scores.view(np.int64), other.scores.view(np.int64)))

    @property
    def entries(self) -> list[RunEntry]:
        """The run as (docno, score, rank) rows, derived from the columns
        for callers that read rows; stoplab itself reads only the columns."""
        return [RunEntry(docno, score, rank) for rank, (docno, score)
                in enumerate(zip(self.docnos, self.scores.tolist()), start=1)]


def _per_distinct(f, values: np.ndarray) -> np.ndarray:
    """``f`` of every element of a non-negative int array, run once per
    distinct value, ascending, on Python ints (so each result equals the
    scalar ``math`` one), by a table indexed by value; past the limit, a sort."""
    if len(values) and values.max() >= _TABLE_LIMIT:
        distinct, inverse = np.unique(values, return_inverse=True)
        return np.array([f(v) for v in distinct.tolist()], dtype=np.float64)[inverse]
    table = np.bincount(values).astype(np.float64)  # 0.0 where no element has the value
    distinct = np.flatnonzero(table)
    table[distinct] = [f(v) for v in distinct.tolist()]
    return table[values]


def _doc_parts(index: Index, key: tuple, per_document) -> dict:
    """The memo on ``index`` for ``key``, (model name, params), all of it
    read-only: None -> ``per_document(doc_lengths)``, and term -> its
    document part.  A new key replaces the memo of the old one."""
    memo = getattr(index, "_doc_parts", None)
    if memo is None or memo[0] != key:
        factor = per_document(index.doc_lengths)
        factor.flags.writeable = False
        memo = index._doc_parts = (key, {None: factor})
    return memo[1]


def _rank(index: Index, query: Query, key: tuple, per_document, doc_weight,
          query_weight, top_k: int, tag: str, prior: bool = False) -> RankedRun:
    """The scoring core.  Each query term the index holds, in sorted order
    (so scores are bit-stable), reads its rows of the ``ordinals`` and
    ``tfs`` columns and weighs its postings ``doc_weight(tf,
    factor[ordinals])`` times ``query_weight(qtf, df)``, ``factor`` the
    memo's per-document array, and the memo keeps each document part.
    Given a ``prior``, a first term that every document holds weighs |q|,
    the qtf of those terms, times ``factor``.  One bincount adds all the
    weights in that order, from 0.0.  The candidates: with a prior, every
    document, else those holding a query term.  Each term the index lacks,
    and a query left with none (an empty run), logs a warning.  A
    non-finite score raises ValueError.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    ordinals, weights, qlen = [], [], 0
    with np.errstate(all="ignore"):  # a non-finite score is refused below
        parts = _doc_parts(index, key, per_document)
        for term, qtf in sorted(query.terms.items()):
            rows = index.rows(term)
            if rows is None:
                logger.warning("query %s: term %r absent from collection, dropped",
                               query.qid, term)
                continue
            docs = index.ordinals[rows]
            part = parts.get(term)
            if part is None:
                part = parts[term] = doc_weight(index.tfs[rows], parts[None][docs])
                part.flags.writeable = False
            ordinals.append(docs)
            weights.append(part * query_weight(qtf, len(docs)))
            qlen += qtf
        if not ordinals:
            logger.warning("query %s produced no results "
                           "(all terms filtered or unindexed)", query.qid)
            return RankedRun(query.qid, [], np.zeros(0), tag)
        if prior:
            ordinals.insert(0, np.arange(index.N))
            weights.insert(0, qlen * parts[None])
        ordinals = np.concatenate(ordinals, dtype=np.intp)
        scores = np.bincount(ordinals, np.concatenate(weights), index.N)
    if prior:
        candidates, values = np.arange(index.N), scores
    else:
        held = np.zeros(index.N, dtype=bool)
        held[ordinals] = True
        candidates = np.flatnonzero(held)
        values = scores[candidates]
    if not np.isfinite(values).all():
        raise ValueError("query %s: the %s weights overflow to a non-finite score; "
                         "use smaller model parameters" % (query.qid, key[0]))
    if len(candidates) > top_k:
        # keep every score tied with the top_k-th best; the sort settles ties
        cut = len(candidates) - top_k
        keep = values >= np.partition(values, cut)[cut]
        candidates, values = candidates[keep], values[keep]
    order = np.lexsort((index.docno_rank[candidates], -values))[:top_k]
    return RankedRun(query.qid, index.docno_array[candidates[order]].tolist(),
                     values[order], tag)


def score_bm25(
    index: Index,
    query: Query,
    params: BM25Params = BM25Params(),
    top_k: int = DEFAULT_TOP_K,
    tag: str = "BM25",
) -> RankedRun:
    """Rank with Okapi BM25.  A query with no indexed terms yields an
    empty run."""
    n, avgdl = index.N, index.avgdl
    k1, b, k3 = params.k1, params.b, params.k3

    def doc_weight(tf, big_k):
        df = len(tf)
        idf = math.log((n - df + 0.5) / (df + 0.5))
        return idf * ((k1 + 1.0) * tf / (big_k + tf))

    def query_weight(qtf, df):
        return (k3 + 1.0) * qtf / (k3 + qtf)

    return _rank(index, query, ("BM25", params), lambda dl: k1 * ((1.0 - b) + b * dl / avgdl),
                 doc_weight, query_weight, top_k, tag)


def score_tfidf(
    index: Index,
    query: Query,
    params: TFIDFParams = TFIDFParams(),
    top_k: int = DEFAULT_TOP_K,
    tag: str = "TFIDF",
) -> RankedRun:
    """Rank with TF*IDF using BM25-style document tf and raw qtf * idf on
    the query side."""
    n, avgdl = index.N, index.avgdl
    k1, b = params.k1, params.b

    def doc_weight(tf, length):
        return (k1 * tf / (tf + length)) * math.log(n / len(tf))

    def query_weight(qtf, df):
        return qtf * math.log(n / df)

    return _rank(index, query, ("TFIDF", params), lambda dl: k1 * ((1.0 - b) + b * dl / avgdl),
                 doc_weight, query_weight, top_k, tag)


def score_kl_dirichlet(
    index: Index,
    query: Query,
    params: DirichletParams = DirichletParams(),
    top_k: int = DEFAULT_TOP_K,
    tag: str = "KL",
) -> RankedRun:
    """Rank by Dirichlet-smoothed query likelihood (rank-equivalent form).

    All documents are candidates.  The ordering equals exhaustive scoring
    of ln prod p(t|d)^qtf with p(t|d) = (tf + mu*p(t|C)) / (dl + mu).
    """
    mu = params.mu

    def doc_weight(tf, prior):
        p_coll = int(tf.sum(dtype=np.uint64)) / index.total_tokens  # ctf / |C|
        return _per_distinct(lambda t: math.log(1.0 + t / (mu * p_coll)), tf)

    def query_weight(qtf, df):
        return float(qtf)

    def length_prior(dl):
        try:
            return math.log(mu / (mu + dl))
        except ValueError:  # mu / (mu + dl) underflowed to 0
            raise ValueError("mu %r is too small: mu / (mu + dl) underflows to 0 at "
                             "document length %d; use a larger mu" % (mu, dl)) from None

    return _rank(index, query, ("KL", params),
                 lambda dl: _per_distinct(length_prior, dl),
                 doc_weight, query_weight, top_k, tag, prior=True)


SCORERS = {
    "TFIDF": score_tfidf,
    "BM25": score_bm25,
    "KL": score_kl_dirichlet,
}

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
    tf = 0).  Query terms absent from the collection are dropped with a
    warning, since p(t|C) = 0 has no likelihood reading.

Each model's weight for a query term splits into a document part, a
float64 array over the term's postings that depends on the term, its tf
and dl values and the model's parameters, and a query part, a float that
depends on the term and its qtf; their product is the weight, bit for bit
the expression above:

    BM25:    (idf * doc tf saturation) * query tf saturation
    TF*IDF:  (bm25tf(tf, dl) * idf) * (qtf * idf)
    KL:      ln(1 + tf / (mu * p(t|C))) * qtf

The models share one scoring core, which adds each query term's weight
into document scores in sorted-term order and then ranks; KL also starts
every document at its length term, |q| times ln(mu / (mu + dl)).  BM25
and TF*IDF rank only the documents containing a query term.

A search weighs each term's postings once.  The core keeps a memo on the
index of each term's document part, keyed by model name and parameters;
KL keeps its ln(mu / (mu + dl)) array there too.  The memo holds one key
at a time, so it grows to at most one float64 per posting of the terms
queried since the key last changed (plus one per document for KL), and
it is freed with the index.

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
        """Build a query through the same pipeline documents go through."""
        tokens = tokenize(normalize(text, strip_marks=strip_marks))
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
        if not isinstance(other, RankedRun):
            return NotImplemented
        return ((self.qid, self.docnos, self.tag) == (other.qid, other.docnos, other.tag)
                and np.array_equal(self.scores, other.scores))

    @property
    def entries(self) -> list[RunEntry]:
        """The run as (docno, score, rank) rows, derived from the columns
        for callers that read rows; stoplab itself reads only the columns."""
        return [RunEntry(docno, score, rank) for rank, (docno, score)
                in enumerate(zip(self.docnos, self.scores.tolist()), start=1)]


def _per_distinct(f, values: np.ndarray) -> np.ndarray:
    """``f`` of every element, called once per distinct value on Python
    numbers, so each result equals the scalar ``math`` computation."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([f(v) for v in distinct.tolist()], dtype=np.float64)[inverse]


def _doc_parts(index: Index, key: tuple) -> dict:
    """The memo of document parts on ``index`` for ``key``, (model name,
    params): term -> read-only float64 array over the term's postings.  A
    new key replaces the memo of the old one."""
    memo = getattr(index, "_doc_parts", None)
    if memo is None or memo[0] != key:
        memo = index._doc_parts = (key, {})
    return memo[1]


def _memoized(parts: dict, name, compute) -> np.ndarray:
    """``parts[name]``, computed and made read-only on first use."""
    part = parts.get(name)
    if part is None:
        part = parts[name] = compute()
        part.flags.writeable = False
    return part


def _rank(index: Index, query: Query, key: tuple, doc_weight, query_weight,
          top_k: int, tag: str, prior: np.ndarray | None = None) -> RankedRun:
    """The scoring core: for each query term the index holds, in sorted
    order (so scores are bit-stable), add ``doc_weight(term, tf, dl)``
    times ``query_weight(term, qtf)`` to the scores of its postings'
    documents; the document part comes from the memo for ``key`` when the
    term was weighed before.  Scores start at zero, and the candidates are
    the matched documents; or, given a ``prior``, at the prior, and every
    document is a candidate.  No match, an empty run.  A weight or score
    that overflows to infinity or NaN raises ValueError.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    parts = _doc_parts(index, key)
    scores = np.zeros(index.N) if prior is None else prior
    matched = np.zeros(index.N, dtype=bool)
    with np.errstate(all="ignore"):  # a non-finite score is refused below
        for term in sorted(query.terms):
            plist = index.postings.get(term)
            if plist is None:
                continue
            ordinals = plist[:, 0]
            part = _memoized(parts, term, lambda: doc_weight(
                term, plist[:, 1], index.doc_lengths[ordinals]))
            scores[ordinals] += part * query_weight(term, query.terms[term])
            matched[ordinals] = True
    if not matched.any():
        return RankedRun(query.qid, [], np.zeros(0), tag)
    candidates = np.flatnonzero(matched) if prior is None else np.arange(index.N)
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

    def doc_weight(term, tf, dl):
        df = index.df(term)
        idf = math.log((n - df + 0.5) / (df + 0.5))
        big_k = k1 * ((1.0 - b) + b * dl / avgdl)
        return idf * ((k1 + 1.0) * tf / (big_k + tf))

    def query_weight(term, qtf):
        return (k3 + 1.0) * qtf / (k3 + qtf)

    return _rank(index, query, ("BM25", params), doc_weight, query_weight, top_k, tag)


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

    def doc_weight(term, tf, dl):
        denom = tf + k1 * ((1.0 - b) + b * dl / avgdl)
        return (k1 * tf / denom) * math.log(n / index.df(term))

    def query_weight(term, qtf):
        return qtf * math.log(n / index.df(term))

    return _rank(index, query, ("TFIDF", params), doc_weight, query_weight, top_k, tag)


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
    qlen = 0
    for term, qtf in query.terms.items():
        if index.ctf.get(term, 0) > 0:
            qlen += qtf
        else:
            logger.warning(
                "query %s: term %r absent from collection, dropped", query.qid, term
            )

    def doc_weight(term, tf, dl):
        p_coll = index.ctf[term] / index.total_tokens
        return _per_distinct(lambda t: math.log(1.0 + t / (mu * p_coll)), tf)

    def query_weight(term, qtf):
        return float(qtf)

    key = ("KL", params)
    # the length prior sits in the memo beside the terms, under None
    length_part = _memoized(_doc_parts(index, key), None, lambda: _per_distinct(
        lambda dl: math.log(mu / (mu + dl)), index.doc_lengths))
    return _rank(index, query, key, doc_weight, query_weight, top_k, tag,
                 qlen * length_part)


SCORERS = {
    "TFIDF": score_tfidf,
    "BM25": score_bm25,
    "KL": score_kl_dirichlet,
}

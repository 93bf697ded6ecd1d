"""Independent brute-force reference implementations.

These deliberately avoid the engine's inverted-index machinery: scores are
computed straight from a full term-by-document count matrix, documents are
ranked by plain sorting, and the Wilcoxon null distribution is enumerated
pattern by pattern.  They exist so the engine can be checked against a
second, structurally different derivation of the same definitions.
"""

import itertools
import math
import random
import re
from collections import Counter

from stoplab.errors import ParseError


_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.S)
_TEXT_RE = re.compile(r"<TEXT>(.*?)</TEXT>", re.S)
_TAG_RE = re.compile(r"<[^>]*>")


def parse_trec_documents(text, name="corpus"):
    """The TIPSTER parser as a copy of each block and two lazy regexes: a
    block runs to the first ``</DOC>`` after its ``<DOC>`` (a ``<DOC>``
    inside it is not checked), and ``<TEXT>(.*?)</TEXT>`` finds its
    regions.  Same pairs and error messages as the engine otherwise."""
    pos = 0
    while True:
        start = text.find("<DOC>", pos)
        if start == -1:
            return
        end = text.find("</DOC>", start)
        if end == -1:
            raise ParseError("%s: unterminated <DOC> block at offset %d"
                             % (name, start))
        block = text[start + len("<DOC>") : end]
        m = _DOCNO_RE.search(block)
        if m is None:
            raise ParseError("%s: <DOC> block at offset %d has no <DOCNO>"
                             % (name, start))
        docno = m.group(1).strip()
        texts = _TEXT_RE.findall(block)
        if block.count("<TEXT>") != len(texts):
            raise ParseError(
                "%s: unterminated <TEXT> in document %r (offset %d)"
                % (name, docno, start)
            )
        body = "\n".join(_TAG_RE.sub(" ", t) for t in texts)
        yield docno, body
        pos = end + len("</DOC>")


def corpus_stats(docs):
    """docs: list of (docno, token list). Returns the raw statistics."""
    tf = {docno: Counter(tokens) for docno, tokens in docs}
    dl = {docno: len(tokens) for docno, tokens in docs}
    n = len(docs)
    total = sum(dl.values())
    avgdl = total / n if n else 0.0
    df = Counter()
    ctf = Counter()
    for counts in tf.values():
        for term, c in counts.items():
            df[term] += 1
            ctf[term] += c
    return tf, dl, n, total, avgdl, df, ctf


def reference_index(docs, stopwords=frozenset()):
    """docs: list of (docno, token list), in build order.  What an index
    of them must hold once ``stopwords`` are dropped, counted per document
    with Counters: the sorted terms, each term's (ordinal, tf) rows in
    ordinal order, doc lengths by ordinal, ctf, and the token counts."""
    kept = [(docno, [t for t in tokens if t not in stopwords]) for docno, tokens in docs]
    tf, dl, _, total, _, _, ctf = corpus_stats(kept)
    rows = {term: [] for term in ctf}
    for ordinal, (docno, _) in enumerate(docs):
        for term, count in tf[docno].items():
            rows[term].append([ordinal, count])
    return {
        "terms": sorted(ctf),
        "postings": rows,
        "doc_lengths": [dl[docno] for docno, _ in docs],
        "ctf": dict(ctf),
        "total_tokens": total,
        "stopwords_removed": sum(len(tokens) for _, tokens in docs) - total,
    }


def bm25_scores(docs, query_terms, k1=1.2, b=0.75, k3=7.0):
    """Document -> score for documents containing at least one query term."""
    tf, dl, n, _, avgdl, df, _ = corpus_stats(docs)
    scores = {}
    for docno in tf:
        s = 0.0
        matched = False
        for term in sorted(query_terms):
            t = tf[docno].get(term, 0)
            if t == 0 or df[term] == 0:
                continue
            matched = True
            qtf = query_terms[term]
            idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5))
            big_k = k1 * ((1 - b) + b * dl[docno] / avgdl)
            s += idf * ((k1 + 1) * t / (big_k + t)) * ((k3 + 1) * qtf / (k3 + qtf))
        if matched:
            scores[docno] = s
    return scores


def tfidf_scores(docs, query_terms, k1=1.0, b=0.3):
    tf, dl, n, _, avgdl, df, _ = corpus_stats(docs)
    scores = {}
    for docno in tf:
        s = 0.0
        matched = False
        for term in sorted(query_terms):
            t = tf[docno].get(term, 0)
            if t == 0 or df[term] == 0:
                continue
            matched = True
            qtf = query_terms[term]
            idf = math.log(n / df[term])
            denom = t + k1 * ((1 - b) + b * dl[docno] / avgdl)
            s += (k1 * t / denom) * idf * (qtf * idf)
        if matched:
            scores[docno] = s
    return scores


def kl_rank_equiv_scores(docs, query_terms, mu=2000.0):
    """Rank-equivalent Dirichlet score for every document; terms with zero
    collection frequency are dropped, mirroring the engine."""
    tf, dl, _, total, _, _, ctf = corpus_stats(docs)
    kept = {t: q for t, q in query_terms.items() if ctf.get(t, 0) > 0}
    if not kept:
        return {}
    qlen = sum(kept.values())
    scores = {}
    for docno in tf:
        s = qlen * math.log(mu / (mu + dl[docno]))
        for term in sorted(kept):
            t = tf[docno].get(term, 0)
            if t:
                p_coll = ctf[term] / total
                s += kept[term] * math.log(1.0 + t / (mu * p_coll))
        scores[docno] = s
    return scores


def sequential_scores(model, docs, query_terms, k1=None, b=None, k3=None, mu=None):
    """Document -> score as the engine must compute it, bit for bit: one
    Python-float addition per posting, in sorted-term order, from 0.0, or
    for KL from |q| * ln(mu / (mu + dl)); each weight a document part times
    a query part, written as ``ranking.py`` writes them.  ``model`` is
    "BM25", "TFIDF" or "KL"; the candidates are the engine's."""
    tf, dl, n, total, avgdl, df, ctf = corpus_stats(docs)
    kept = sorted(t for t in query_terms if df[t])
    if not kept:
        return {}
    scores = {}
    if model == "KL":
        qlen = sum(query_terms[t] for t in kept)
        scores = {docno: qlen * math.log(mu / (mu + dl[docno])) for docno in tf}
    for term in kept:
        qtf, n_t = query_terms[term], df[term]
        for docno, counts in tf.items():
            t = counts.get(term, 0)
            if not t:
                continue
            if model == "BM25":
                big_k = k1 * ((1.0 - b) + b * dl[docno] / avgdl)
                idf = math.log((n - n_t + 0.5) / (n_t + 0.5))
                w = (idf * ((k1 + 1.0) * t / (big_k + t))) * ((k3 + 1.0) * qtf / (k3 + qtf))
            elif model == "TFIDF":
                length = k1 * ((1.0 - b) + b * dl[docno] / avgdl)
                w = ((k1 * t / (t + length)) * math.log(n / n_t)) * (qtf * math.log(n / n_t))
            else:
                p_coll = ctf[term] / total
                w = math.log(1.0 + t / (mu * p_coll)) * float(qtf)
            scores[docno] = scores.get(docno, 0.0) + w
    return scores


def kl_loglikelihood_scores(docs, query_terms, mu=2000.0):
    """Exhaustive smoothed query likelihood ln prod p(t|d)^qtf."""
    tf, dl, _, total, _, _, ctf = corpus_stats(docs)
    kept = {t: q for t, q in query_terms.items() if ctf.get(t, 0) > 0}
    if not kept:
        return {}
    scores = {}
    for docno in tf:
        s = 0.0
        for term in sorted(kept):
            p_coll = ctf[term] / total
            p = (tf[docno].get(term, 0) + mu * p_coll) / (dl[docno] + mu)
            s += kept[term] * math.log(p)
        scores[docno] = s
    return scores


def ranking_of(scores):
    """Docnos ordered by descending score, ties broken by docno ascending."""
    return [d for d, _ in sorted(scores.items(), key=lambda it: (-it[1], it[0]))]


def write_run(run, out):
    """The run writer as one ``%`` call per line, with the qid and the tag
    passed as values: ``qid Q0 docno rank score tag``."""
    ranks = range(1, len(run.docnos) + 1)
    out.write("".join([
        "%s Q0 %s %d %.6f %s\n" % (run.qid, docno, rank, score, run.tag)
        for docno, rank, score in zip(run.docnos, ranks, run.scores.tolist())
    ]))


def random_corpus(rng: random.Random, max_docs=200, max_vocab=50):
    vocab = ["w%02d" % i for i in range(rng.randint(2, max_vocab))]
    n = rng.randint(1, max_docs)
    docs = []
    for i in range(n):
        length = rng.randint(0, 30)
        docs.append(("D%04d" % i, [rng.choice(vocab) for _ in range(length)]))
    return docs


def random_query(rng: random.Random, docs):
    vocab = sorted({t for _, tokens in docs for t in tokens})
    pool = vocab + ["zz%d" % i for i in range(3)]  # some unindexed terms
    n_terms = rng.randint(1, min(4, len(pool)))
    terms = rng.sample(pool, n_terms)
    return {t: rng.randint(1, 3) for t in terms}


def wilcoxon_exact_enumeration(diffs):
    """Two-sided exact p by enumerating all sign patterns of the observed
    absolute-difference ranks (average ranks for ties)."""
    nonzero = [d for d in diffs if d != 0]
    n = len(nonzero)
    if n == 0:
        return 1.0
    by_abs = sorted(range(n), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(nonzero[by_abs[j + 1]]) == abs(nonzero[by_abs[i]]):
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[by_abs[k]] = avg
        i = j + 1
    w_plus = sum(r for d, r in zip(nonzero, ranks) if d > 0)
    total = sum(ranks)
    lo = min(w_plus, total - w_plus)
    hi = total - lo
    # ranks are multiples of 1/2, so float sums here are exact
    count = 0
    for signs in itertools.product((1, 0), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= lo or w >= hi:
            count += 1
    return min(1.0, count / 2**n)


def evaluate_by_definition(docnos, relevant, cutoffs, levels):
    """One query's measures from their definitions, rank by rank, as
    :class:`stoplab.treceval.QueryEval`'s fields less the qid.  AP adds the
    precision at each relevant rank left to right, then divides by R, the
    number of relevant documents.  The interpolated precision at a recall
    level is the highest precision at any rank whose recall reaches it.
    P@k is the relevant share of the first k ranks, k counted even where the
    run is shorter; R-precision is P@R.  With R = 0 every measure is 0."""
    R = len(relevant)
    found, total, at_rank = 0, 0.0, []  # (precision, recall) at each rank
    for rank, docno in enumerate(docnos, start=1):
        if docno in relevant:
            found += 1
            total += found / rank
        at_rank.append((found / rank, found / R if R else 0.0))

    def precision_at(k):
        return sum(1 for docno in docnos[:k] if docno in relevant) / k

    return {
        "num_relevant": R,
        "num_retrieved": len(docnos),
        "num_relevant_retrieved": found,
        "average_precision": total / R if R else 0.0,
        "interp_precision": tuple(
            max([p for p, recall in at_rank if recall >= level], default=0.0)
            for level in levels),
        "cutoff_precision": {k: precision_at(k) for k in cutoffs},
        "r_precision": precision_at(R) if R else 0.0,
    }

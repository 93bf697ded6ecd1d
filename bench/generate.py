"""Seeded synthetic inputs for the benchmark: a TIPSTER SGML corpus, TREC
topics and qrels, plus the counts an index built from them must have.

One generator serves every workload.  At ``docs=5000, topics=20`` and seed
1008 it reproduces the desk-scale corpus, topics and qrels of acceptance
criterion 8 byte for byte: the random calls are made in the same order.
The other workloads change only the sizes and, for verbose topics, the
topic shape:

* desk:   5,000 docs, 20 short topics (3 title + 3 description words)
* scale:  50,000 docs, 20 short topics
* sweep:  the desk corpus, 100 verbose topics (3-5 title words, 8-16
  description words of which ~40% come from the documents' stop pool)

Every topic has 25 qrels drawn uniformly from the corpus.  Words are
written already normalized and each is exactly one token, so the counts
below need nothing from the engine but the stoplists' word sets.
"""

import random
from collections import Counter
from dataclasses import dataclass

from stoplab.stoplists import corpus_based, general

CONTENT_WORDS = 800
TOPIC_WORDS = 300
QRELS_PER_TOPIC = 25


@dataclass
class Inputs:
    """Paths of the generated files and what the generator knows of them."""

    corpus: str
    topics: str
    qrels: str
    doc_words: list          # (docno, word list) per document, file order
    topic_words: list        # (qid, word list) per topic, title then desc
    word_counts: Counter     # collection frequency of every word written

    def index_counts(self, stopwords) -> dict:
        """N, total_tokens, vocabulary and stopwords_removed of an index
        built with ``stopwords`` (a set, empty for no list)."""
        removed = sum(c for w, c in self.word_counts.items() if w in stopwords)
        return {
            "N": len(self.doc_words),
            "total_tokens": sum(self.word_counts.values()) - removed,
            "vocabulary": sum(1 for w in self.word_counts if w not in stopwords),
            "stopwords_removed": removed,
        }


def generate(directory, seed: int, docs: int, topics: int, verbose: bool) -> Inputs:
    """Write corpus.sgml, topics.txt and qrels.txt into ``directory``."""
    rng = random.Random(seed)
    gs, cbs = general().words, corpus_based().words
    overlap = sorted(gs & cbs)
    gs_only = sorted(gs - cbs)
    cbs_only = sorted(cbs - gs)
    stop_pool = (
        [rng.choice(gs_only) for _ in range(20)]
        + [rng.choice(cbs_only) for _ in range(20)]
        + [rng.choice(overlap) for _ in range(10)]
    )
    content_pool = ["w%03d" % i for i in range(CONTENT_WORDS)]
    topic_pool = content_pool[:TOPIC_WORDS]

    corpus = "%s/corpus.sgml" % directory
    doc_words = []
    word_counts: Counter = Counter()
    with open(corpus, "w", encoding="utf-8") as f:
        for i in range(docs):
            words = []
            for _ in range(rng.randint(40, 100)):
                if rng.random() < 0.4:
                    words.append(rng.choice(stop_pool))
                else:
                    # zipf-ish skew keeps df spread wide
                    rank = min(int(rng.expovariate(1 / 90)), CONTENT_WORDS - 1)
                    words.append(content_pool[rank])
            docno = "SYN%04d" % i
            f.write("<DOC>\n<DOCNO>%s</DOCNO>\n<TEXT>\n%s\n</TEXT>\n</DOC>\n"
                    % (docno, " ".join(words)))
            doc_words.append((docno, words))
            word_counts.update(words)

    path = "%s/topics.txt" % directory
    topic_words = []
    with open(path, "w", encoding="utf-8") as f:
        for qid in range(1, topics + 1):
            if verbose:
                title = rng.sample(topic_pool, rng.randint(3, 5))
                desc = [
                    rng.choice(stop_pool) if rng.random() < 0.4 else rng.choice(topic_pool)
                    for _ in range(rng.randint(8, 16))
                ]
            else:
                title = rng.sample(topic_pool, 3)
                desc = rng.sample(topic_pool, 2) + [rng.choice(stop_pool)]
            f.write("<top>\n<num> Number: %d </num>\n<title> %s\n"
                    "<desc> Description: %s\n</top>\n"
                    % (qid, " ".join(title), " ".join(desc)))
            topic_words.append((str(qid), title + desc))

    qrels = "%s/qrels.txt" % directory
    with open(qrels, "w", encoding="utf-8") as f:
        for qid in range(1, topics + 1):
            for docno in rng.sample(range(docs), QRELS_PER_TOPIC):
                f.write("%d 0 SYN%04d 1\n" % (qid, docno))
    return Inputs(corpus, path, qrels, doc_words, topic_words, word_counts)

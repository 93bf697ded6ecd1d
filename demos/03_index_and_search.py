"""Build an index and rank documents under all three models, with and
without stopword removal.

Run:  python demos/03_index_and_search.py
"""

from stoplab import (
    Query,
    build_index,
    general_stoplist,
    score_bm25,
    score_kl_dirichlet,
    score_tfidf,
)

docs = [
    ("D1", "المفاوضات في القاهرة بين الوفدين انتهت اليوم"),
    ("D2", "الوزير قال ان المفاوضات مستمرة في جنيف"),
    ("D3", "مباراة كرة القدم في القاهرة انتهت بالتعادل"),
    ("D4", "في في في القاهرة القاهرة"),   # stopword-heavy noise
]

query_text = "المفاوضات في القاهرة"

print("ranking without a stoplist")
print("-" * 60)
plain = build_index(docs)
print("N=%d  total_tokens=%d  avgdl=%.2f" % (plain.N, plain.total_tokens, plain.avgdl))
q = Query.from_text("1", query_text)
for scorer in (score_tfidf, score_bm25, score_kl_dirichlet):
    run = scorer(plain, q)
    pretty = "  ".join("%s:%+.3f" % pair for pair in zip(run.docnos, run.scores))
    print("%-18s %s" % (run.tag, pretty))

print()
print("the same corpus, stopwords removed at index time")
print("-" * 60)
gs = general_stoplist()
filtered = build_index(docs, stoplist=gs)
print("N=%d  total_tokens=%d  avgdl=%.2f  removed=%d"
      % (filtered.N, filtered.total_tokens, filtered.avgdl,
         filtered.stopwords_removed))
q = Query.from_text("1", query_text, stoplist=gs)
for scorer in (score_tfidf, score_bm25, score_kl_dirichlet):
    run = scorer(filtered, q, tag=scorer.__name__)
    pretty = "  ".join("%s:%+.3f" % pair for pair in zip(run.docnos, run.scores))
    print("%-18s %s" % (run.tag, pretty))

print()
print("note how document lengths change when the list is applied (D4")
print("shrinks most), which feeds straight into the BM25 length")
print("normalization; that coupling is why removal happens at index time.")
print()
print("BM25 idf is deliberately unclamped: a term in more than half the")
print("documents contributes negatively, which is exactly the regime")
print("stopword experiments study.")

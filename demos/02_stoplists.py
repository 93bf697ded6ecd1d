"""The three stoplist strategies and their set arithmetic.

Run:  python demos/02_stoplists.py
"""

from stoplab import (
    build_corpus_stoplist,
    build_index,
    combined_stoplist,
    corpus_stoplist,
    general_stoplist,
    normalize,
    tokenize,
)

gs = general_stoplist()       # GS: function words from syntactic classes
cbs = corpus_stoplist()       # CBS: high-frequency newswire terms
cs = combined_stoplist()      # CS: exact union

print("bundled lists")
print("-" * 60)
print("GS  (general):       %4d words" % len(gs))
print("CBS (corpus-based):  %4d words" % len(cbs))
print("CS  (combined):      %4d words" % len(cs))
overlap = len(gs.words & cbs.words)
print("overlap:             %4d words" % overlap)
print("inclusion-exclusion: %d + %d - %d = %d"
      % (len(gs), len(cbs), overlap, len(gs) + len(cbs) - overlap))
assert len(cs) == len(gs) + len(cbs) - overlap

print()
print("filtering a sentence with GS")
print("-" * 60)
sentence = "قال الوزير في القاهرة اليوم ان الاجتماع انتهى"
tokens = tokenize(normalize(sentence))
print("before:", tokens)
print("after: ", gs.filter(tokens))

print()
print("building a corpus-based list from collection statistics")
print("-" * 60)
docs = [("D%d" % i, "common common rare%d filler" % i) for i in range(10)]
index = build_index(docs)
print("collection frequencies:", dict(sorted(index.ctf.items())[:4]), "...")
built = build_corpus_stoplist(index.ctf, cutoff=5)
print("terms with frequency > 5:", sorted(built.words))
built = build_corpus_stoplist(index.ctf, cutoff=5, exclusions={"common"})
print("after excluding a content word:", sorted(built.words))
print()
print("the exclusion set is an explicit input: which frequent words count")
print("as content is a judgment call, not a rule.")

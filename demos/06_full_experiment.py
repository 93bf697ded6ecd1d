"""A complete stoplist-sensitivity experiment at toy scale, driven through
the command-line entry points: index four ways, search under three models,
evaluate, and compare with significance tests.

Run:  python demos/06_full_experiment.py
"""

import random
import sys
import tempfile
from pathlib import Path

from stoplab.cli import main
from stoplab.stoplists import corpus_based, general

rng = random.Random(99)
workdir = tempfile.TemporaryDirectory(prefix="stoplab_demo_")
tmp = Path(workdir.name)


def stoplab(*argv):
    """Run one stoplab command; stop the demo if it fails."""
    if main([str(a) for a in argv]) != 0:
        sys.exit("stoplab %s failed" % argv[0])


# -- synthesize a small corpus whose stopwords come from the bundled lists
stops = sorted(general().words)[:30] + sorted(corpus_based().words)[:20]
content = ["topic%02d" % i for i in range(40)]
corpus = tmp / "corpus.sgml"
with open(corpus, "w", encoding="utf-8") as f:
    for i in range(300):
        words = [
            rng.choice(stops) if rng.random() < 0.45 else rng.choice(content)
            for _ in range(rng.randint(20, 60))
        ]
        f.write("<DOC>\n<DOCNO>T%03d</DOCNO>\n<TEXT>\n%s\n</TEXT>\n</DOC>\n"
                % (i, " ".join(words)))

topics = tmp / "topics.txt"
with open(topics, "w", encoding="utf-8") as f:
    for qid in range(1, 9):
        f.write("<top>\n<num> Number: %d </num>\n<title> %s\n"
                "<desc> Description: %s %s\n</top>\n"
                % (qid, rng.choice(content), rng.choice(content),
                   rng.choice(stops)))

qrels = tmp / "qrels.txt"
with open(qrels, "w", encoding="utf-8") as f:
    for qid in range(1, 9):
        for d in rng.sample(range(300), 12):
            f.write("%d 0 T%03d 1\n" % (qid, d))

# -- index once per stoplist strategy
for code in ("none", "GS", "CBS", "CS"):
    print("\n$ stoplab index --stoplist %s" % code)
    stoplab("index", "--corpus", corpus, "--out", tmp / (code + ".idx"),
            "--stoplist", code)

# -- twelve technique combinations, evaluated
reports = []
for model in ("TFIDF", "BM25", "KL"):
    for code in ("none", "GS", "CBS", "CS"):
        tag = model if code == "none" else "%s_%s" % (model, code)
        run_file = tmp / (tag + ".run")
        stoplab("search", "--index", tmp / (code + ".idx"),
                "--topics", topics, "--model", model, "--out", run_file)
        tsv = tmp / (tag + ".tsv")
        stoplab("eval", "--run", run_file, "--qrels", qrels, "--out", tsv)
        reports.append(tsv)
print("\nran %d technique combinations" % len(reports))

# -- the two comparison tables
print("\n$ stoplab compare ... --baseline TFIDF\n")
stoplab("compare", *reports, "--baseline", "TFIDF")
workdir.cleanup()

print("\n(synthetic relevance, so the precision numbers are noise; the point")
print("is the workflow and the table shapes)")

"""TREC-style evaluation: average precision, the 11-point interpolated
curve, cutoff precisions and R-precision.

Run:  python demos/04_evaluation.py
"""

import numpy as np

from stoplab import RankedRun, evaluate_query, evaluate_run

# a six-document ranking with the relevant documents at ranks 1 and 3; a run
# is two columns in rank order, so the document at position i has rank i + 1
run = RankedRun(
    qid="42",
    docnos=["rel_a", "junk1", "rel_b", "junk2", "junk3", "junk4"],
    scores=np.array([9.0, 8.0, 7.0, 6.0, 5.0, 4.0]),
    tag="DEMO",
)
relevant = {"rel_a", "rel_b"}

ev = evaluate_query(run, relevant)
print("single query, relevant documents at ranks 1 and 3 (R=2)")
print("-" * 60)
print("average precision: (1/1 + 2/3) / 2 = %.4f" % ev.average_precision)
print("R-precision (precision at rank R=2): %.4f" % ev.r_precision)
print("interpolated precision over the 11 recall levels:")
for level, p in zip([i / 10 for i in range(11)], ev.interp_precision):
    bar = "#" * int(p * 40)
    print("  recall >= %.1f  %.4f  %s" % (level, p, bar))
print("P@5 = %.4f (relevant found / 5, retrieved or not)" % ev.cutoff_precision[5])

print()
print("aggregating two queries")
print("-" * 60)
run2 = RankedRun(qid="43", docnos=["x", "rel_c"], scores=np.array([2.0, 1.0]),
                 tag="DEMO")
report = evaluate_run([run, run2], {"42": relevant, "43": {"rel_c"}})
print("per-query AP: %s" % {q.qid: round(q.average_precision, 4)
                            for q in report.per_query})
print("mean average precision: %.4f" % report.mean_average_precision)
print("totals: %d relevant, %d retrieved, %d relevant retrieved"
      % (report.total_relevant, report.total_retrieved,
         report.total_relevant_retrieved))
print()
print("queries with no relevant documents would be flagged and excluded")
print("from the means; recall denominators always come from the judgments.")

"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see them inline).

Tolerances are fixed here and nowhere else:

1. scorer vs brute-force oracle:   scores rel. 1e-9, rankings exact
2. KL vs full query likelihood:    orderings exactly equal
3. stoplist set algebra:           exact, curated sizes frozen
4. Friedman reconstruction:        chi2 within +-3 of 70.471; toy exact
5. Wilcoxon exactness (n <= 12):   equals 2^n enumeration, p(1..5)=0.0625
6. evaluation fixture:             exact values; interp curves monotone
7. index invariants + determinism: exact, byte-identical files
8. desk-scale experiment:          12 techniques end to end < 60 s
9. idempotence:                    10,000 random strings, exact
"""

import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from stoplab.cli import main, read_report_tsv
from stoplab.index import Index, build_index
from stoplab.ranking import Query, score_bm25, score_kl_dirichlet, score_tfidf
from stoplab.sigtest import (
    chi_square_upper_tail,
    friedman,
    friedman_chi2_from_mean_ranks,
    wilcoxon_signed_rank,
)
from stoplab.stoplists import Stoplist, combined, corpus_based, general
from stoplab.textpipe import normalize, tokenize
from stoplab.treceval import evaluate_query, evaluate_run, parse_qrels

import oracles
from test_treceval import (
    FIXTURE_AP,
    FIXTURE_FLAGGED,
    FIXTURE_MAP,
    FIXTURE_RPREC,
    FIXTURE_TOTALS,
)
from test_textpipe import random_strings

FIXTURES = Path(__file__).parent / "fixtures"

# reference twelve-technique comparison over 75 queries: published rounded
# mean ranks, and the chi-square value reported alongside them
REFERENCE_MEAN_RANKS = [
    4.91, 4.95, 5.76, 6.04, 6.23, 6.29, 6.42, 7.09, 7.11, 7.30, 7.73, 8.45,
]
REFERENCE_CHI2 = 70.471
REFERENCE_N = 75


def report(number: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL (%d problems, first: %s)" % (
        len(failures),
        failures[0],
    )
    print("ACCEPTANCE %d %s: %s" % (number, status, name))
    assert not failures, failures[:5]


def run_scores(run):
    return dict(zip(run.docnos, run.scores.tolist()))


def run_ranking(run):
    return list(run.docnos)


def close(a, b, rel=1e-9, abs_=1e-12):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def test_criterion_1_scorer_oracle_equivalence():
    failures = []
    rng = random.Random(1001)
    for trial in range(100):
        token_docs = oracles.random_corpus(rng, max_docs=200, max_vocab=50)
        docs = [(d, " ".join(t)) for d, t in token_docs]
        index = build_index(docs)
        q = oracles.random_query(rng, token_docs)
        query = Query("1", q)
        top = len(docs) + 1
        pairs = [
            ("BM25", score_bm25(index, query, top_k=top), oracles.bm25_scores(token_docs, q)),
            ("TFIDF", score_tfidf(index, query, top_k=top), oracles.tfidf_scores(token_docs, q)),
            ("KL", score_kl_dirichlet(index, query, top_k=top),
             oracles.kl_rank_equiv_scores(token_docs, q)),
        ]
        for model, run, expected in pairs:
            got = run_scores(run)
            if set(got) != set(expected):
                failures.append("trial %d %s: candidate sets differ" % (trial, model))
                continue
            for docno, s in expected.items():
                if not close(got[docno], s):
                    failures.append(
                        "trial %d %s %s: %r vs %r" % (trial, model, docno, got[docno], s)
                    )
            if run_ranking(run) != oracles.ranking_of(expected):
                failures.append("trial %d %s: ranking differs" % (trial, model))
    report(1, "scorer-oracle equivalence on 100 random corpora", failures)


def test_criterion_2_kl_rank_fidelity():
    failures = []
    rng = random.Random(1002)
    for trial in range(100):
        token_docs = oracles.random_corpus(rng, max_docs=200, max_vocab=50)
        docs = [(d, " ".join(t)) for d, t in token_docs]
        index = build_index(docs)
        q = oracles.random_query(rng, token_docs)
        run = score_kl_dirichlet(index, Query("1", q), top_k=len(docs) + 1)
        expected = oracles.kl_loglikelihood_scores(token_docs, q)
        if run_ranking(run) != oracles.ranking_of(expected):
            failures.append("trial %d: ordering differs" % trial)
    report(2, "KL rank-equivalent form matches exhaustive likelihood", failures)


def test_criterion_3_stoplist_arithmetic():
    failures = []
    gs, cbs, cs = general(), corpus_based(), combined()
    intersection = len(gs.words & cbs.words)
    if len(cs) != len(gs) + len(cbs) - intersection:
        failures.append("inclusion-exclusion violated")
    if cs.words != gs.words | cbs.words:
        failures.append("combined list is not the exact union")
    # curated sizes (targets were 1377 / 235 / 83 / 1529; sources are OCR-lossy)
    for label, got, want in [
        ("GS", len(gs), 945),
        ("CBS", len(cbs), 230),
        ("overlap", intersection, 82),
        ("union", len(cs), 1093),
    ]:
        if got != want:
            failures.append("%s: %d != curated %d" % (label, got, want))
    report(3, "stoplist set algebra and curated counts", failures)


def test_criterion_4_friedman_reconstruction():
    failures = []
    chi2 = friedman_chi2_from_mean_ranks(REFERENCE_MEAN_RANKS, REFERENCE_N)
    if not abs(chi2 - REFERENCE_CHI2) <= 3.0:
        failures.append("reconstructed chi2 %.3f not within 3 of %.3f"
                        % (chi2, REFERENCE_CHI2))
    toy = friedman([[1.0, 2.0, 3.0], [0.1, 0.2, 0.3], [5.0, 6.0, 7.0]])
    if toy.chi2 != 6.0:
        failures.append("toy chi2 %r != 6.0" % toy.chi2)
    if not abs(toy.p_value - math.exp(-3)) <= 1e-9:
        failures.append("toy p %r != e^-3" % toy.p_value)
    if chi_square_upper_tail(REFERENCE_CHI2, 11) >= 1e-9:
        failures.append("tail mass at reconstructed statistic not < 1e-9")
    report(4, "Friedman statistic reconstruction and toy case", failures)


def test_criterion_5_wilcoxon_exactness():
    failures = []
    result = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    if result.p_value != 0.0625:
        failures.append("p for {1,2,3,4,5} is %r" % result.p_value)
    if (result.better, result.worse, result.tied) != (5, 0, 0):
        failures.append("counts %r" % [(result.better, result.worse, result.tied)])
    rng = random.Random(1005)
    for trial in range(80):
        n = rng.randint(1, 12)
        a = [rng.choice([0, 1, 2, 3, rng.random()]) for _ in range(n)]
        b = [rng.choice([0, 1, 2, 3, rng.random()]) for _ in range(n)]
        got = wilcoxon_signed_rank(a, b).p_value
        want = oracles.wilcoxon_exact_enumeration([x - y for x, y in zip(a, b)])
        if got != want:
            failures.append("trial %d: %r != enumeration %r" % (trial, got, want))
    report(5, "Wilcoxon exact p equals sign-pattern enumeration", failures)


def test_criterion_6_evaluation_metrics():
    from stoplab.cli import read_run_file

    failures = []
    runs = read_run_file(FIXTURES / "sample.run")
    qrels = parse_qrels(FIXTURES / "sample.qrels")
    rep = evaluate_run(runs, qrels)
    by_qid = {q.qid: q for q in rep.per_query}
    for qid, want in FIXTURE_AP.items():
        got = by_qid[qid].average_precision
        if not close(got, want, rel=1e-12):
            failures.append("AP[%s] %r != %r" % (qid, got, want))
    for qid, want in FIXTURE_RPREC.items():
        if not close(by_qid[qid].r_precision, want, rel=1e-12):
            failures.append("Rprec[%s]" % qid)
    if not close(rep.mean_average_precision, FIXTURE_MAP, rel=1e-12):
        failures.append("MAP %r != %r" % (rep.mean_average_precision, FIXTURE_MAP))
    if (rep.total_relevant, rep.total_retrieved, rep.total_relevant_retrieved) != FIXTURE_TOTALS:
        failures.append("totals differ")
    if set(rep.flagged) != FIXTURE_FLAGGED:
        failures.append("flagged set differs")

    from stoplab.ranking import RankedRun

    rng = random.Random(1006)
    for trial in range(1000):
        n = rng.randint(0, 30)
        docs = ["d%d" % i for i in range(n)]
        relevant = set(rng.sample(docs, rng.randint(0, n))) if n else set()
        relevant |= {"m%d" % i for i in range(rng.randint(0, 3))}
        scores = np.arange(n, 0, -1, dtype=np.float64)
        curve = evaluate_query(
            RankedRun("q", docs, scores, "T"), relevant
        ).interp_precision
        if any(a < b for a, b in zip(curve, curve[1:])):
            failures.append("trial %d: interpolated curve increases" % trial)
            break
    report(6, "evaluation fixture exact and interp curves monotone", failures)


def test_criterion_7_index_invariants_and_determinism():
    failures = []
    rng = random.Random(1007)
    for trial in range(40):
        token_docs = oracles.random_corpus(rng, max_docs=120, max_vocab=40)
        docs = [(d, " ".join(t)) for d, t in token_docs]
        index = build_index(docs)
        if sum(index.ctf.values()) != index.total_tokens:
            failures.append("trial %d: ctf mass" % trial)
        if sum(index.doc_lengths) != index.total_tokens:
            failures.append("trial %d: dl mass" % trial)
        if any(r.stop - r.start > index.N for r in map(index.rows, index.terms)):
            failures.append("trial %d: df > N" % trial)
        buf1, buf2 = io.BytesIO(), io.BytesIO()
        build_index(docs, workers=1).save(buf1)
        build_index(docs, workers=8).save(buf2)
        if buf1.getvalue() != buf2.getvalue():
            failures.append("trial %d: worker count changed bytes" % trial)
        loaded = Index.load(io.BytesIO(buf1.getvalue()))
        buf3 = io.BytesIO()
        loaded.save(buf3)
        if buf3.getvalue() != buf1.getvalue():
            failures.append("trial %d: round trip not identical" % trial)
    report(7, "index invariants, build determinism, round trip", failures)


def _write_desk_corpus(tmp, rng):
    gs, cbs = sorted(general().words), sorted(corpus_based().words)
    overlap = sorted(general().words & corpus_based().words)
    gs_only = sorted(general().words - corpus_based().words)
    cbs_only = sorted(corpus_based().words - general().words)
    stop_pool = (
        [rng.choice(gs_only) for _ in range(20)]
        + [rng.choice(cbs_only) for _ in range(20)]
        + [rng.choice(overlap) for _ in range(10)]
    )
    content_pool = ["w%03d" % i for i in range(800)]
    corpus = tmp / "corpus.sgml"
    with open(corpus, "w", encoding="utf-8") as f:
        for i in range(5000):
            words = []
            for _ in range(rng.randint(40, 100)):
                if rng.random() < 0.4:
                    words.append(rng.choice(stop_pool))
                else:
                    # zipf-ish skew keeps df spread wide
                    words.append(content_pool[min(int(rng.expovariate(1 / 90)), 799)])
            f.write("<DOC>\n<DOCNO>SYN%04d</DOCNO>\n<TEXT>\n%s\n</TEXT>\n</DOC>\n"
                    % (i, " ".join(words)))
    topics = tmp / "topics.txt"
    with open(topics, "w", encoding="utf-8") as f:
        for qid in range(1, 21):
            title = " ".join(rng.sample(content_pool[:300], 3))
            desc = " ".join(
                rng.sample(content_pool[:300], 2) + [rng.choice(stop_pool)]
            )
            f.write("<top>\n<num> Number: %d </num>\n<title> %s\n"
                    "<desc> Description: %s\n</top>\n" % (qid, title, desc))
    qrels = tmp / "qrels.txt"
    with open(qrels, "w", encoding="utf-8") as f:
        for qid in range(1, 21):
            for docno in rng.sample(range(5000), 25):
                f.write("%d 0 SYN%04d 1\n" % (qid, docno))
    return corpus, topics, qrels


# sha256 of the files criterion 8 writes; scores, ranks and reports are
# pinned byte for byte, not only within the oracle tolerances.
DESK_DIGESTS = {
    "BM25.run":
        "4205b83f8be9c9f37fa39d785f45f356e005f4dfae18bb16d3f7140bb6cf5bdc",
    "BM25.tsv":
        "42cb90cc4162538202401170c89cbfb3824ea7e42ec9b592bfe333e354fff7a4",
    "BM25_CBS.run":
        "39618077e6e4e9b74f82502af40436455a2f1137b1e85e83ab58ab89cd129cda",
    "BM25_CBS.tsv":
        "8c5c483ec5ac5da8d58feb454dccc5045ef78635ee33a451dd3ea674826f4bc6",
    "BM25_CS.run":
        "73a997329b153f17109442e5bb83c278f94e161702fff74acb2ae0b7efcdd962",
    "BM25_CS.tsv":
        "e7ce2237ca47c1fc6a3d4df35d40c61ca4981153958cdde9de3ac92bccef295e",
    "BM25_GS.run":
        "4361cb63351a43f64d9605fbaa63f62856769d931c8fb88f295f2ac7aa778112",
    "BM25_GS.tsv":
        "8813d93ccf25f22a250717c649bfe09196d10ea059d5f5b7d85e99291ae5eeb1",
    "KL.run":
        "0e195b6660c1f35f90f366d040265bfb31af89a89cd1aaee1b2590a9042c1080",
    "KL.tsv":
        "1603761c05e6db3161275868f388e0f13935e74da31fb6d7ccfa17f3e01be83b",
    "KL_CBS.run":
        "8611d8343359142fb7ff53fff39584259cc18cb1d9951dd8b22b2682c40b8edf",
    "KL_CBS.tsv":
        "48f9621b0ab7f52299bf4be5f74e26df67f39af129f2dc5d5d7dc708d0e101b7",
    "KL_CS.run":
        "fbd79c75db9be6a4dc13df906cdff5ecaecd01312c447c52f58792ea964f1fb5",
    "KL_CS.tsv":
        "b4c8fb9310faa298860e090ae97c04b5153c0a1751e17dbe427d0678fc61c031",
    "KL_GS.run":
        "cc0b30571db737cb5222a07ac9fea72e98aedd5fdb4ccd0e2b5806d7be6ba4d0",
    "KL_GS.tsv":
        "22868012920f5ce7b169d39f2512ec03b9efce00c13043b9e462fcf437cab275",
    "TFIDF.run":
        "e96af8b9ce2f3dde74ddb7848a66b24dd279f6a7fb8574df4f9e5d0b46b75dee",
    "TFIDF.tsv":
        "dbcdf5590d7cd6520a792939a60908bdd105322307e12d193c265c1b07d398d7",
    "TFIDF_CBS.run":
        "658913f2b4cc5894bafe867e66d17bd5a387a3aa49856d00e1a9707dec760d9e",
    "TFIDF_CBS.tsv":
        "8348e5171e3d8e95567ab6efbee3e78baf952db95ffd5dd1d857c5034dd2e30c",
    "TFIDF_CS.run":
        "4c79c319471bc8af9fb912e5508d3deb886002ae44958d534a611a491a9bd871",
    "TFIDF_CS.tsv":
        "1a324baa32749c18899bfaa26d34c2ccf8700a31a5ab7994b7bc056a648e91db",
    "TFIDF_GS.run":
        "467d65c07e35e0bc3834e986c532f03e41676026a07c9d46ac46e41e03cc13e6",
    "TFIDF_GS.tsv":
        "125b3f1e4cd54456e85399eb72efa980beef4c13b1b19205a59178cd8a32bb61",
    "compare":
        "8518bda52e19a645c9268175386d4e2d7069f82b282a6d403b740ac240a3e407",
}


def test_criterion_8_desk_scale_experiment(tmp_path, capsys):
    failures = []
    rng = random.Random(1008)
    corpus, topics, qrels = _write_desk_corpus(tmp_path, rng)

    started = time.perf_counter()
    for code in ("none", "GS", "CBS", "CS"):
        rc = main(["index", "--corpus", str(corpus),
                   "--out", str(tmp_path / ("%s.idx" % code)),
                   "--stoplist", code, "--workers", "2"])
        if rc != 0:
            failures.append("index %s rc=%d" % (code, rc))
    reports = []
    expected_tags = []
    for model in ("TFIDF", "BM25", "KL"):
        for code in ("none", "GS", "CBS", "CS"):
            tag = model if code == "none" else "%s_%s" % (model, code)
            expected_tags.append(tag)
            run_file = tmp_path / ("%s.run" % tag)
            rc = main(["search", "--index", str(tmp_path / ("%s.idx" % code)),
                       "--topics", str(topics), "--model", model,
                       "--out", str(run_file), "--top-k", "1000"])
            if rc != 0:
                failures.append("search %s rc=%d" % (tag, rc))
            tsv = tmp_path / ("%s.tsv" % tag)
            rc = main(["eval", "--run", str(run_file), "--qrels", str(qrels),
                       "--out", str(tsv)])
            if rc != 0:
                failures.append("eval %s rc=%d" % (tag, rc))
            reports.append(tsv)
    capsys.readouterr()
    rc = main(["compare"] + [str(p) for p in reports] + ["--baseline", "TFIDF"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    if rc != 0:
        failures.append("compare rc=%d" % rc)
    if elapsed >= 60.0:
        failures.append("pipeline took %.1fs (>= 60s)" % elapsed)

    # format fidelity: 12 Friedman rows, 11 Wilcoxon rows shaped like
    # "KL_CBS 0.2217 25 49 0 0.009"
    lines = out.splitlines()
    for tag in expected_tags:
        if not any(l.split() and l.split()[0] == tag for l in lines):
            failures.append("technique %s missing from tables" % tag)
    if "chi2 = " not in out or "df = 11" not in out:
        failures.append("Friedman summary line missing")
    w_start = next((i for i, l in enumerate(lines) if "QP>BP" in l), None)
    if w_start is None:
        failures.append("Wilcoxon header missing")
    else:
        rows = [l for l in lines[w_start + 1 :] if l.strip()]
        if len(rows) != 11:
            failures.append("expected 11 Wilcoxon rows, got %d" % len(rows))
        for row in rows:
            fields = row.split()
            try:
                float(fields[1])
                better, worse, tied = int(fields[2]), int(fields[3]), int(fields[4])
                float(fields[5])
            except (IndexError, ValueError):
                failures.append("malformed Wilcoxon row: %r" % row)
                continue
            if better + worse + tied != 20:
                failures.append("counts in %r do not sum to 20" % row)
    for tsv in reports:
        tag, rows = read_report_tsv(str(tsv))
        if len(rows) != 20:
            failures.append("%s: expected 20 per-query rows" % tsv.name)
    written = {name: tmp_path / name for name in DESK_DIGESTS if name != "compare"}
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in written.items()}
    digests["compare"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    for name, digest in sorted(digests.items()):
        if digest != DESK_DIGESTS[name]:
            failures.append("%s bytes differ from the pinned digest" % name)
    report(8, "desk-scale 12-technique experiment in %.1fs" % elapsed, failures)


# sha256 of the four index files criterion 8 builds, pinned like its runs
DESK_INDEX_DIGESTS = {
    "none": "c8e76c4b8bf887496140f8224ba1f6330e7a93d976fc80376982ba65060cfad4",
    "GS": "a01249a02349456a2af912cc3aae6531edd1b9fcb8ffb163efaeb08e113d4465",
    "CBS": "5869adc1b97be011f9769aaac392980352940a3bb4db78fb35859d8c9668ece7",
    "CS": "3563179d29c78839d64a3272e48366b0b0fb3e10384692010e19d06ff2be241b",
}

# sha256 of what those four indexes hold, as content_digest reads it: the
# same under every file format, so a format change cannot move it
DESK_INDEX_CONTENT_DIGESTS = {
    "none": "07edaf7b6a58ceb72edc0250b0669e8f2865198e573afdacc25b6eb6af6e3f8e",
    "GS": "6738b8f67cc0d77ced8bc33b42a76904f471bbec7d9562259547eb9c4f03355e",
    "CBS": "15cb815ac11948f3353e8e7d2a353e536ed75f8685d39a3d63758bc46958e342",
    "CS": "b773e2cefd13399fd0077a5eb04977ec96e8b39bb40b7b3ea0be14504ab8c4c5",
}


def content_digest(index: Index) -> str:
    """sha256 of an index's decoded content: the UTF-8 JSON of its docnos,
    terms, total_tokens, stopwords_removed and stoplist (name, provenance,
    sorted words), then doc_lengths, doc_freqs and the (ordinal, tf) rows
    as little-endian uint32."""
    h = hashlib.sha256()
    s = index.stoplist
    meta = [index.docnos, index.terms, index.total_tokens, index.stopwords_removed,
            None if s is None else [s.name, s.provenance, sorted(s.words)]]
    h.update(json.dumps(meta, ensure_ascii=False).encode("utf-8"))
    rows = np.column_stack((index.ordinals, index.tfs))
    for column in (index.doc_lengths, index.doc_freqs, rows):
        h.update(np.ascontiguousarray(column, dtype="<u4").tobytes())
    return h.hexdigest()


def test_desk_index_bytes_are_pinned(tmp_path):
    corpus, _, _ = _write_desk_corpus(tmp_path, random.Random(1008))
    digests, contents = {}, {}
    for code in DESK_INDEX_DIGESTS:
        out = tmp_path / ("%s.idx" % code)
        assert main(["index", "--corpus", str(corpus), "--out", str(out),
                     "--stoplist", code]) == 0
        digests[code] = hashlib.sha256(out.read_bytes()).hexdigest()
        contents[code] = content_digest(Index.load(out))
    assert contents == DESK_INDEX_CONTENT_DIGESTS
    assert digests == DESK_INDEX_DIGESTS


def test_criterion_9_idempotence_on_random_unicode():
    failures = []
    gs = general()
    count = 0
    for s in random_strings(10000, seed=1009, max_len=80):
        count += 1
        once = normalize(s)
        if normalize(once) != once:
            failures.append("normalize not idempotent on %r" % s)
            break
        tokens = tokenize(once)
        filtered = gs.filter(tokens)
        if gs.filter(filtered) != filtered:
            failures.append("filter not idempotent on %r" % s)
            break
    if count != 10000:
        failures.append("only %d strings generated" % count)
    report(9, "normalize and stoplist filter idempotent on 10k strings", failures)

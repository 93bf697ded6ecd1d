import math
import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stoplab.index import build_index
from stoplab.ranking import (
    BM25Params,
    DirichletParams,
    Query,
    TFIDFParams,
    _per_distinct,
    score_bm25,
    score_kl_dirichlet,
    score_tfidf,
)
from stoplab.stoplists import Stoplist
from stoplab.textpipe import normalize, tokenize

import oracles
from test_index import corpora

TOY_DOCS = [("D1", "a b"), ("D2", "b c"), ("D3", "c c")]


def toy_index():
    return build_index(TOY_DOCS)


def engine_scores(run):
    return {e.docno: e.score for e in run.entries}


def engine_ranking(run):
    return [e.docno for e in run.entries]


class TestParams:
    def test_defaults(self):
        assert (BM25Params().k1, BM25Params().b, BM25Params().k3) == (1.2, 0.75, 7.0)
        assert (TFIDFParams().k1, TFIDFParams().b) == (1.0, 0.3)
        assert DirichletParams().mu == 2000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BM25Params(b=1.5)
        with pytest.raises(ValueError):
            BM25Params(k1=-1)
        with pytest.raises(ValueError):
            DirichletParams(mu=0)
        with pytest.raises(ValueError):
            DirichletParams(mu=-5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("params, field", [
        (BM25Params, "k1"), (BM25Params, "k3"), (TFIDFParams, "k1"), (DirichletParams, "mu"),
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_non_finite_rejected(self, params, field, value):
        with pytest.raises(ValueError, match="finite"):
            params(**{field: value})


class TestQuery:
    def test_from_text_counts_terms(self):
        q = Query.from_text("1", "a b a")
        assert q.terms == {"a": 2, "b": 1}

    def test_from_text_applies_stoplist(self):
        q = Query.from_text("1", "a b", stoplist=Stoplist("s", frozenset({"b"})))
        assert q.terms == {"a": 1}

    def test_from_text_normalizes(self):
        q = Query.from_text("1", "أخبار")
        assert "اخبار" in q.terms


class TestBM25:
    def test_toy_single_term(self):
        run = score_bm25(toy_index(), Query("1", {"a": 1}))
        assert engine_ranking(run) == ["D1"]
        assert run.entries[0].score == pytest.approx(math.log(2.5 / 1.5), rel=1e-12)
        assert run.entries[0].rank == 1

    def test_vacuous_query_gives_empty_run(self):
        run = score_bm25(toy_index(), Query("1", {}))
        assert run.entries == []
        run = score_bm25(toy_index(), Query("1", {"nosuch": 1}))
        assert run.entries == []

    def test_top_k_truncates_to_best(self):
        idx = toy_index()
        full = score_bm25(idx, Query("1", {"c": 1}))
        top1 = score_bm25(idx, Query("1", {"c": 1}), top_k=1)
        assert [e.docno for e in top1.entries] == [full.entries[0].docno]
        assert top1.entries[0].rank == 1

    def test_negative_idf_not_clamped(self):
        # term in 3 of 4 docs: idf = ln(1.5/3.5) < 0
        idx = build_index([("D1", "x"), ("D2", "x"), ("D3", "x"), ("D4", "y")])
        run = score_bm25(idx, Query("1", {"x": 1}))
        assert all(e.score < 0 for e in run.entries)

    def test_tie_break_by_docno(self):
        idx = build_index([("B", "x"), ("A", "x"), ("C", "x")])
        run = score_bm25(idx, Query("1", {"x": 1}))
        assert engine_ranking(run) == ["A", "B", "C"]
        assert [e.rank for e in run.entries] == [1, 2, 3]


class TestTFIDF:
    def test_toy_single_term(self):
        run = score_tfidf(toy_index(), Query("1", {"a": 1}))
        assert engine_ranking(run) == ["D1"]
        assert run.entries[0].score == pytest.approx(0.5 * math.log(3) ** 2, rel=1e-12)

    def test_term_in_every_document_contributes_zero(self):
        idx = build_index([("D1", "x a"), ("D2", "x b")])
        run = score_tfidf(idx, Query("1", {"x": 1}))
        assert all(e.score == 0.0 for e in run.entries)
        assert len(run.entries) == 2  # still candidates

    def test_qtf_linearity(self):
        idx = toy_index()
        one = engine_scores(score_tfidf(idx, Query("1", {"a": 1})))
        two = engine_scores(score_tfidf(idx, Query("1", {"a": 2})))
        for docno, s in one.items():
            assert two[docno] == pytest.approx(2 * s, rel=1e-12)


class TestKLDirichlet:
    def test_toy_single_term(self):
        run = score_kl_dirichlet(toy_index(), Query("1", {"a": 1}))
        scores = engine_scores(run)
        expected_d1 = math.log(1 + 1 / (2000 / 6)) + math.log(2000 / 2002)
        assert scores["D1"] == pytest.approx(expected_d1, rel=1e-12)
        assert scores["D1"] == pytest.approx(0.0020, abs=5e-5)

    def test_all_documents_are_candidates(self):
        run = score_kl_dirichlet(toy_index(), Query("1", {"a": 1}))
        assert len(run.entries) == 3

    def test_unindexed_terms_dropped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            run = score_kl_dirichlet(toy_index(), Query("1", {"a": 1, "zz": 2}))
        assert "zz" in caplog.text
        assert len(run.entries) == 3

    def test_query_of_only_unindexed_terms_gives_empty_run(self):
        run = score_kl_dirichlet(toy_index(), Query("1", {"zz": 1}))
        assert run.entries == []

    def test_identical_tf_and_dl_score_identically(self):
        idx = build_index([("D1", "a b"), ("D2", "a b"), ("D3", "c c c")])
        scores = engine_scores(score_kl_dirichlet(idx, Query("1", {"a": 1})))
        assert scores["D1"] == scores["D2"]

    def test_no_match_ties_break_by_docno(self):
        idx = build_index([("D3", "b b"), ("D2", "b b"), ("D1", "a a")])
        run = score_kl_dirichlet(idx, Query("1", {"a": 1}))
        assert engine_ranking(run) == ["D1", "D2", "D3"]


class TestPerDistinct:
    @settings(max_examples=200, deadline=None, database=None)
    @given(values=st.lists(st.integers(0, 10**6), max_size=40)
           | st.lists(st.integers(0, 5), max_size=40)
           | st.lists(st.integers(0, 2**32 - 1), max_size=40), strided=st.booleans())
    @example(values=[], strided=False)
    @example(values=[0, 0, 0], strided=True)
    @example(values=[10**6, 3, 10**6, 0], strided=False)
    @example(values=[2**32 - 1, 3, 0, 3], strided=True)  # past the table's limit
    def test_equals_a_call_per_element(self, values, strided):
        calls = []

        def f(v):
            calls.append(v)
            return math.log(1.0 + v / 7.3) - 0.1 * v

        array = np.array(values, dtype=np.uint32)
        if strided:  # a column of (ordinal, tf) rows, as the scorers pass it
            array = np.stack([np.zeros_like(array), array], axis=1)[:, 1]
        got = _per_distinct(f, array)
        assert calls == sorted(set(values))  # once per value, ascending
        assert all(type(v) is int for v in calls)
        want = np.array([f(v) for v in values], dtype=np.float64)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_kl_names_the_shortest_underflowing_length(self):
        # mu / (mu + dl) rounds to 0 from dl = 2 on, for the smallest mu
        idx = build_index([("D1", "a b c d e"), ("D2", "a"), ("D3", "a b c"),
                           ("D4", "a b"), ("D5", "")])
        with pytest.raises(ValueError, match="^mu 5e-324 is too small: .* at document "
                                             "length 2; use a larger mu$"):
            score_kl_dirichlet(idx, Query("1", {"a": 1}), DirichletParams(mu=5e-324))


class TestOracleAgreement:
    """Engine output versus direct term-document-matrix evaluation."""

    def check_corpus(self, rng):
        token_docs = oracles.random_corpus(rng, max_docs=60, max_vocab=30)
        docs = [(d, " ".join(t)) for d, t in token_docs]
        idx = build_index(docs)
        q = oracles.random_query(rng, token_docs)
        query = Query("1", q)
        cases = [
            (score_bm25(idx, query, top_k=len(docs) + 1), oracles.bm25_scores(token_docs, q)),
            (score_tfidf(idx, query, top_k=len(docs) + 1), oracles.tfidf_scores(token_docs, q)),
            (
                score_kl_dirichlet(idx, query, top_k=len(docs) + 1),
                oracles.kl_rank_equiv_scores(token_docs, q),
            ),
        ]
        for run, expected in cases:
            got = engine_scores(run)
            assert set(got) == set(expected)
            for docno, s in expected.items():
                assert got[docno] == pytest.approx(s, rel=1e-9, abs=1e-12)
            assert engine_ranking(run) == oracles.ranking_of(expected)

    def test_small_random_corpora(self):
        rng = random.Random(31)
        for _ in range(25):
            self.check_corpus(rng)

    def test_kl_matches_full_likelihood_ordering(self):
        rng = random.Random(32)
        for _ in range(25):
            token_docs = oracles.random_corpus(rng, max_docs=60, max_vocab=30)
            docs = [(d, " ".join(t)) for d, t in token_docs]
            idx = build_index(docs)
            q = oracles.random_query(rng, token_docs)
            run = score_kl_dirichlet(idx, Query("1", q), top_k=len(docs) + 1)
            expected = oracles.kl_loglikelihood_scores(token_docs, q)
            assert engine_ranking(run) == oracles.ranking_of(expected)


ABSENT = ["qq", "xyz"]  # letters no drawn corpus uses
MODELS = [  # scorer, its parameters drawn from their valid range, oracle
    (score_bm25, st.builds(BM25Params, k1=st.floats(0, 3), b=st.floats(0, 1),
                           k3=st.floats(0, 10)), oracles.bm25_scores),
    (score_tfidf, st.builds(TFIDFParams, k1=st.floats(0, 3), b=st.floats(0, 1)),
     oracles.tfidf_scores),
    (score_kl_dirichlet, st.builds(DirichletParams, mu=st.floats(1, 5000)),
     oracles.kl_rank_equiv_scores),
]


@st.composite
def searches(draw):
    """(docs, stoplist, strip_marks, query text, [(params, top_k)] per model):
    query words drawn from the corpus, stopwords included, and from ABSENT."""
    docs, stoplist, strip_marks = draw(corpora())
    words = sorted({t for _, text in docs for t in tokenize(normalize(text, strip_marks))})
    text = " ".join(draw(st.lists(st.sampled_from(words + ABSENT), max_size=5)))
    per_model = [(draw(params), draw(st.integers(1, len(docs) + 2)))
                 for _, params, _ in MODELS]
    return docs, stoplist, strip_marks, text, per_model


DEFAULTS = [(BM25Params(), 3), (TFIDFParams(), 3), (DirichletParams(), 3)]


class TestScorersAgainstOracles:
    """Every scorer's run against the brute-force oracle's ranking."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(search=searches())
    @example(search=([("D2", "a b"), ("D1", "b a")], None, True, "a", DEFAULTS))
    @example(search=([("D1", "a b"), ("D2", "b")], Stoplist("s", frozenset("a")), True,
                     "a a", DEFAULTS))
    @example(search=([("D1", "a b")], None, True, "qq xyz", DEFAULTS))
    def test_runs_match_brute_force(self, search):
        docs, stoplist, strip_marks, text, per_model = search
        idx = build_index(docs, stoplist=stoplist, strip_marks=strip_marks)
        query = Query.from_text("1", text, stoplist=stoplist, strip_marks=strip_marks)
        stopwords = stoplist.words if stoplist else frozenset()
        token_docs = [(docno, [t for t in tokenize(normalize(body, strip_marks))
                               if t not in stopwords]) for docno, body in docs]
        indexed = any(term in idx.postings for term in query.terms)
        for (scorer, _, oracle), (params, top_k) in zip(MODELS, per_model):
            run = scorer(idx, query, params, top_k=top_k)
            expected = oracle(token_docs, query.terms, **asdict(params))
            assert run.docnos == oracles.ranking_of(expected)[:top_k]
            assert len(run.scores) == len(run.docnos)
            for docno, score in zip(run.docnos, run.scores.tolist()):
                assert math.isclose(score, expected[docno], rel_tol=1e-9, abs_tol=1e-9)
            pairs = list(zip(run.scores.tolist(), run.docnos))
            for (s1, d1), (s2, d2) in zip(pairs, pairs[1:]):
                assert s1 > s2 or (s1 == s2 and d1 < d2)
            if not indexed:  # only stopwords, absent terms, or nothing
                assert run.docnos == []
            elif scorer is score_kl_dirichlet:  # every document a candidate
                assert len(run.docnos) == min(idx.N, top_k)


class TestCandidates:
    @settings(max_examples=200, deadline=None, database=None)
    @given(search=searches())
    @example(search=([("D1", "a b"), ("D2", "b")], None, True, "a b a", DEFAULTS))
    def test_full_run_holds_the_documents_with_a_query_term(self, search):
        docs, stoplist, strip_marks, text, _ = search
        idx = build_index(docs, stoplist=stoplist, strip_marks=strip_marks)
        query = Query.from_text("1", text, stoplist=stoplist, strip_marks=strip_marks)
        holders = {docno for docno, body in docs
                   if set(query.terms) & set(tokenize(normalize(body, strip_marks)))}
        for scorer in (score_bm25, score_tfidf):
            run = scorer(idx, query, top_k=idx.N + 1)
            assert sorted(run.docnos) == sorted(holders)


class TestDocnoOrder:
    """Ranks and tie order do not depend on whether docnos ascend."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(corpus=corpora(), terms=st.lists(st.integers(0, 10), max_size=4))
    @example(corpus=([("D2", "a"), ("D0", "a"), ("D1", "b")], None, True), terms=[0])
    def test_ascending_and_permuted_docnos_rank_alike(self, corpus, terms):
        docs, stoplist, strip_marks = corpus
        words = sorted({t for _, text in docs for t in tokenize(normalize(text, strip_marks))})
        query = Query("1", {words[i % len(words)]: 1 for i in terms} if words else {})
        ascending = build_index(sorted(docs), stoplist=stoplist, strip_marks=strip_marks)
        permuted = build_index(docs, stoplist=stoplist, strip_marks=strip_marks)
        assert ascending.docnos_ascend
        assert permuted.docnos_ascend == (permuted.docnos == ascending.docnos)
        for idx in (ascending, permuted):
            keyed = sorted(range(idx.N), key=idx.docnos.__getitem__)
            assert idx.docno_rank[keyed].tolist() == list(range(idx.N))
        for scorer in (score_bm25, score_tfidf, score_kl_dirichlet):
            runs = [scorer(idx, query, top_k=idx.N + 1) for idx in (ascending, permuted)]
            assert runs[0] == runs[1]
            scores = dict(zip(runs[0].docnos, runs[0].scores.tolist()))
            assert runs[0].docnos == oracles.ranking_of(scores)


class TestExactScores:
    """Every run's scores are, bit for bit, per-posting sums in sorted-term
    order (KL's from its length term), as a plain Python loop adds them."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(search=searches())
    # BM25's idf of "a" is exactly 0: N = 2, df = 1
    @example(search=([("D1", "a b"), ("D2", "b")], None, True, "a b a", DEFAULTS))
    def test_scores_equal_sequential_sums(self, search):
        docs, stoplist, strip_marks, text, per_model = search
        idx = build_index(docs, stoplist=stoplist, strip_marks=strip_marks)
        query = Query.from_text("1", text, stoplist=stoplist, strip_marks=strip_marks)
        stopwords = stoplist.words if stoplist else frozenset()
        token_docs = [(docno, [t for t in tokenize(normalize(body, strip_marks))
                               if t not in stopwords]) for docno, body in docs]
        for model, (scorer, _, _), (params, top_k) in zip(
                ["BM25", "TFIDF", "KL"], MODELS, per_model):
            run = scorer(idx, query, params, top_k=top_k)
            expected = oracles.sequential_scores(model, token_docs, query.terms,
                                                 **asdict(params))
            assert run.docnos == oracles.ranking_of(expected)[:top_k]
            want = np.array([expected[docno] for docno in run.docnos], dtype=np.float64)
            assert run.scores.view(np.int64).tolist() == want.view(np.int64).tolist()


@st.composite
def search_sequences(draw):
    """(docs, stoplist, strip_marks, [(model, params, query text, top_k)]):
    one or two parameter sets per model, so a sequence both repeats and
    switches (model, params), and queries over one small word pool, so
    their terms recur."""
    docs, stoplist, strip_marks = draw(corpora())
    words = sorted({t for _, text in docs for t in tokenize(normalize(text, strip_marks))})
    pools = [draw(st.lists(params, min_size=1, max_size=2)) for _, params, _ in MODELS]
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        model = draw(st.integers(0, len(MODELS) - 1))
        params = draw(st.sampled_from(pools[model]))
        text = " ".join(draw(st.lists(st.sampled_from(words + ABSENT), max_size=4)))
        steps.append((model, params, text, draw(st.integers(1, len(docs) + 2))))
    return docs, stoplist, strip_marks, steps


class TestCollectionStatistics:
    def test_kl_search_derives_no_ctf_table(self):
        idx = toy_index()
        run = score_kl_dirichlet(idx, Query.from_text("q", "b c z"))
        assert run.docnos
        assert "ctf" not in vars(idx)


class TestMemo:
    """The memo of document parts on an index never changes a run."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(sequence=search_sequences())
    def test_shared_index_scores_as_a_fresh_one(self, sequence):
        docs, stoplist, strip_marks, steps = sequence
        shared = build_index(docs, stoplist=stoplist, strip_marks=strip_marks)
        for model, params, text, top_k in steps:
            scorer = MODELS[model][0]
            query = Query.from_text("1", text, stoplist=stoplist, strip_marks=strip_marks)
            fresh = build_index(docs, stoplist=stoplist, strip_marks=strip_marks)
            assert (scorer(shared, query, params, top_k=top_k)
                    == scorer(fresh, query, params, top_k=top_k))


class TestRankingProperties:
    def test_single_term_ranking_invariant_under_qtf(self):
        rng = random.Random(33)
        for _ in range(10):
            token_docs = oracles.random_corpus(rng, max_docs=40, max_vocab=20)
            docs = [(d, " ".join(t)) for d, t in token_docs]
            idx = build_index(docs)
            vocab = sorted(idx.ctf)
            if not vocab:
                continue
            term = rng.choice(vocab)
            for scorer in (score_bm25, score_tfidf, score_kl_dirichlet):
                base = engine_ranking(scorer(idx, Query("1", {term: 1}), top_k=idx.N + 1))
                scaled = engine_ranking(scorer(idx, Query("1", {term: 3}), top_k=idx.N + 1))
                assert base == scaled

    def test_determinism(self):
        rng = random.Random(34)
        token_docs = oracles.random_corpus(rng, max_docs=50, max_vocab=25)
        docs = [(d, " ".join(t)) for d, t in token_docs]
        idx1 = build_index(docs, workers=1)
        idx2 = build_index(docs, workers=4)
        q = Query("1", oracles.random_query(rng, token_docs))
        for scorer in (score_bm25, score_tfidf, score_kl_dirichlet):
            assert scorer(idx1, q) == scorer(idx2, q)

    def test_run_invariants(self):
        rng = random.Random(35)
        for _ in range(10):
            token_docs = oracles.random_corpus(rng, max_docs=50, max_vocab=10)
            docs = [(d, " ".join(t)) for d, t in token_docs]
            idx = build_index(docs)
            q = Query("1", oracles.random_query(rng, token_docs))
            for scorer in (score_bm25, score_tfidf, score_kl_dirichlet):
                run = scorer(idx, q, top_k=7)
                assert len(run.entries) <= 7
                assert [e.rank for e in run.entries] == list(range(1, len(run.entries) + 1))
                for prev, cur in zip(run.entries, run.entries[1:]):
                    assert prev.score > cur.score or (
                        prev.score == cur.score and prev.docno < cur.docno
                    )

    def test_top_k_must_be_positive(self):
        for scorer in (score_bm25, score_tfidf, score_kl_dirichlet):
            with pytest.raises(ValueError):
                scorer(toy_index(), Query("1", {"a": 1}), top_k=0)

import dataclasses
import io
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stoplab.errors import ParseError
from stoplab.ranking import RankedRun
from stoplab.treceval import (
    CUTOFF_LEVELS,
    RECALL_LEVELS,
    evaluate_query,
    evaluate_run,
    parse_qrels,
)

import oracles

FIXTURES = Path(__file__).parent / "fixtures"

# frozen expectations for tests/fixtures/sample.{run,qrels}, hand-computed
# by exact rational arithmetic over the per-rank relevance flags
FIXTURE_AP = {
    "q1": 5 / 6,
    "q2": 1.0,
    "q3": 0.0,
    "q4": 0.0,
    "q5": 6 / 25,
    "q6": 1 / 4,
    "q7": 41 / 56,
    "q8": 43 / 90,
    "q9": 7 / 45,
    "q10": 0.0,
}
FIXTURE_RPREC = {
    "q1": 0.5, "q2": 1.0, "q3": 0.0, "q4": 0.0, "q5": 0.4,
    "q6": 0.0, "q7": 0.5, "q8": 1 / 3, "q9": 0.0, "q10": 0.0,
}
FIXTURE_MAP = 15493 / 33600
FIXTURE_TOTALS = (22, 61, 18)  # relevant, retrieved, relevant retrieved
FIXTURE_FLAGGED = {"q4", "q10"}


def run_of(qid, docnos):
    scores = np.arange(len(docnos), 0, -1, dtype=np.float64)
    return RankedRun(qid=qid, docnos=list(docnos), scores=scores, tag="T")


class TestParseQrels:
    def test_single_line(self):
        assert parse_qrels(io.StringIO("1 0 D7 1\n")) == {"1": {"D7"}}

    def test_nonrelevant_judgment_keeps_query(self):
        assert parse_qrels(io.StringIO("1 0 D7 0\n")) == {"1": set()}

    def test_empty_stream(self):
        assert parse_qrels(io.StringIO("")) == {}

    def test_graded_collapse(self):
        qrels = parse_qrels(io.StringIO("1 0 A 2\n1 0 B 0\n1 0 C 1\n"))
        assert qrels == {"1": {"A", "C"}}

    def test_bad_relevance_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_qrels(io.StringIO("1 0 A 1\n1 0 B x\n"))

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_qrels(io.StringIO("1 0 A\n"))

    def test_file_with_any_line_ending(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_bytes(b"1 0 A 1\r\n1 0 B 1\r2 0 C 1\n")
        assert parse_qrels(path) == {"1": {"A", "B"}, "2": {"C"}}

    def test_invalid_utf8_in_file_names_line(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_bytes(b"1 0 A 1\r\n1 0 \xff 1\n")
        with pytest.raises(ParseError) as info:
            parse_qrels(path)
        assert str(info.value) == (
            "%s line 2: invalid utf-8 at byte 13: invalid start byte" % path)


qrels_words = st.text(st.sampled_from("aZ09-_.قال"), min_size=1, max_size=5)


@st.composite
def judged_queries(draw):
    """qid -> docno -> relevance grade, with zero and negative grades."""
    return draw(st.dictionaries(
        qrels_words, st.dictionaries(qrels_words, st.integers(-1, 3), max_size=6),
        max_size=4))


class TestQrelsRoundTrip:
    @settings(max_examples=200, deadline=None, database=None)
    @given(judged=judged_queries(), data=st.data())
    def test_written_qrels_read_back(self, judged, data):
        """Judgments written in any order, with any whitespace between
        fields and any line ending, read back as each query's relevant set;
        a query with no grade above 0 keeps an empty set."""
        lines = [data.draw(st.sampled_from([" ", "\t", "  "])).join(
                     (qid, str(data.draw(st.integers(0, 9))), docno, str(rel)))
                 + data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
                 for qid, grades in judged.items() for docno, rel in grades.items()]
        text = "".join(data.draw(st.permutations(lines)))
        expected = {qid: {d for d, rel in grades.items() if rel > 0}
                    for qid, grades in judged.items() if grades}
        assert parse_qrels(io.StringIO(text)) == expected


class TestEvaluateQuery:
    def test_relevant_at_ranks_one_and_three(self):
        ev = evaluate_query(run_of("1", ["r1", "n1", "r2", "n2"]), {"r1", "r2"})
        assert ev.average_precision == pytest.approx((1 + 2 / 3) / 2, rel=1e-12)
        assert ev.r_precision == 0.5
        assert ev.interp_precision[:6] == (1.0,) * 6
        assert ev.interp_precision[6:] == pytest.approx((2 / 3,) * 5, rel=1e-12)

    def test_perfect_run(self):
        ev = evaluate_query(run_of("1", ["a", "b", "c"]), {"a", "b", "c"})
        assert ev.average_precision == 1.0
        assert ev.r_precision == 1.0
        assert ev.interp_precision == (1.0,) * 11

    def test_nothing_relevant_retrieved(self):
        ev = evaluate_query(run_of("1", ["x", "y"]), {"a"})
        assert ev.average_precision == 0.0
        assert ev.interp_precision == (0.0,) * 11

    def test_no_relevant_documents_is_defined(self):
        ev = evaluate_query(run_of("1", ["x"]), set())
        assert ev.num_relevant == 0
        assert ev.average_precision == 0.0
        assert ev.r_precision == 0.0

    def test_cutoff_precision_divides_by_cutoff(self):
        ev = evaluate_query(run_of("1", ["r", "n"]), {"r"})
        assert ev.cutoff_precision[5] == pytest.approx(1 / 5)
        assert ev.cutoff_precision[1000] == pytest.approx(1 / 1000)

    def test_unretrieved_relevant_counts_in_denominator(self):
        ev = evaluate_query(run_of("1", ["r"]), {"r", "missing1", "missing2"})
        assert ev.average_precision == pytest.approx(1 / 3)
        assert ev.num_relevant_retrieved == 1

    def test_ap_unaffected_by_trailing_nonrelevant_shuffle(self):
        rng = random.Random(41)
        relevant = {"r1", "r2"}
        tail = ["n%d" % i for i in range(6)]
        base = evaluate_query(run_of("1", ["r1", "n9", "r2"] + tail), relevant)
        for _ in range(10):
            rng.shuffle(tail)
            again = evaluate_query(run_of("1", ["r1", "n9", "r2"] + tail), relevant)
            assert again.average_precision == base.average_precision

    def test_appending_nonrelevant_never_raises_ap(self):
        rng = random.Random(42)
        for _ in range(50):
            docs = ["d%d" % i for i in range(rng.randint(1, 12))]
            relevant = set(rng.sample(docs, rng.randint(1, len(docs))))
            ev = evaluate_query(run_of("1", docs), relevant)
            worse = evaluate_query(run_of("1", docs + ["tail"]), relevant)
            assert worse.average_precision <= ev.average_precision + 1e-15

    def test_interp_monotone_on_random_runs(self):
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randint(0, 25)
            docs = ["d%d" % i for i in range(n)]
            relevant = set(rng.sample(docs, rng.randint(0, n))) if n else set()
            relevant |= {"m%d" % i for i in range(rng.randint(0, 3))}
            ev = evaluate_query(run_of("1", docs), relevant)
            curve = ev.interp_precision
            assert all(a >= b for a, b in zip(curve, curve[1:]))
            assert all(0.0 <= p <= 1.0 for p in curve)


@st.composite
def judged_runs(draw):
    """A run of D0, D1, ... and a relevant set over a wider range, so that
    some relevant documents are never retrieved: empty runs, no relevant
    documents, and runs shorter than some or every cutoff among the draws."""
    n = draw(st.sampled_from([0, 1, 5, 30]) | st.integers(0, 1100))
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    docnos = ["D%d" % i for i in range(n)]
    return docnos, {"D%d" % i for i in range(n + draw(st.integers(0, 10)))
                    if rng.random() < share}


def float_bits(value):
    """``value`` with every float as its hex form, so that == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(map(float_bits, value))
    return value


class TestEvaluateQueryByDefinition:
    @settings(max_examples=300, deadline=None, database=None)
    @given(run=judged_runs())
    @example(run=([], set()))
    @example(run=([], {"D1"}))
    @example(run=(["D0", "D1"], set()))
    @example(run=(["D0", "D1"], {"D5", "D6"}))  # relevant, never retrieved
    @example(run=(["D%d" % i for i in range(1200)], {"D%d" % i for i in range(0, 1300, 7)}))
    def test_evaluate_query_is_the_oracle_bit_for_bit(self, run):
        docnos, relevant = run
        got = dataclasses.asdict(evaluate_query(run_of("q", docnos), relevant))
        assert got.pop("qid") == "q"
        want = oracles.evaluate_by_definition(docnos, relevant, CUTOFF_LEVELS, RECALL_LEVELS)
        assert float_bits(got) == float_bits(want)
        assert all(type(got[k]) is type(want[k]) for k in want)


class TestEvaluateRun:
    def test_map_is_arithmetic_mean(self):
        runs = [run_of("1", ["r", "n"]), run_of("2", ["n", "a"])]
        qrels = {"1": {"r"}, "2": {"a", "b"}}
        report = evaluate_run(runs, qrels)
        ap1, ap2 = 1.0, (1 / 2) / 2
        assert report.mean_average_precision == pytest.approx((ap1 + ap2) / 2)

    def test_single_query(self):
        report = evaluate_run([run_of("1", ["r"])], {"1": {"r"}})
        assert report.mean_average_precision == 1.0

    def test_duplicate_qid_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            evaluate_run([run_of("1", ["a"]), run_of("1", ["b"])], {"1": {"a"}})

    def test_missing_qid_flagged_and_excluded(self):
        report = evaluate_run([run_of("1", ["r"]), run_of("9", ["x"])], {"1": {"r"}})
        assert report.flagged == ["9"]
        assert report.num_evaluated == 1
        assert report.mean_average_precision == 1.0

    def test_map_of_identical_runs_equals_single_ap(self):
        single = evaluate_run([run_of("1", ["r", "n"])], {"1": {"r", "z"}})
        triple = evaluate_run(
            [run_of(q, ["r", "n"]) for q in ("1", "2", "3")],
            {q: {"r", "z"} for q in ("1", "2", "3")},
        )
        assert triple.mean_average_precision == pytest.approx(
            single.mean_average_precision
        )


def left_to_right(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


class TestLeftToRightSums:
    """AP and MAP add their terms left to right, as ``sum`` did before
    Python 3.12, whose compensated float sum differs in the last bit on the
    explicit examples; so reports are the same bytes on every Python."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(ranks=st.lists(st.integers(1, 60), unique=True, max_size=15).map(sorted),
           unretrieved=st.integers(0, 3))
    @example(ranks=[1, 9, 11, 14], unretrieved=0)
    def test_average_precision_is_a_left_to_right_sum(self, ranks, unretrieved):
        docnos = ["D%d" % r for r in range(1, max(ranks, default=0) + 1)]
        relevant = {"D%d" % r for r in ranks} | {"U%d" % i for i in range(unretrieved)}
        got = evaluate_query(run_of("1", docnos), relevant).average_precision
        want = (left_to_right(h / r for h, r in enumerate(ranks, start=1)) / len(relevant)
                if relevant else 0.0)
        assert got.hex() == want.hex()

    @settings(max_examples=100, deadline=None, database=None)
    @given(firsts=st.lists(st.integers(1, 30), min_size=1, max_size=8))
    @example(firsts=[5, 2, 10])  # APs 0.2, 0.5 and 0.1
    def test_mean_average_precision_is_a_left_to_right_sum(self, firsts):
        runs = [run_of(str(q), ["D%d" % r for r in range(1, rank + 1)])
                for q, rank in enumerate(firsts)]
        qrels = {str(q): {"D%d" % rank} for q, rank in enumerate(firsts)}
        got = evaluate_run(runs, qrels).mean_average_precision
        want = left_to_right(1 / rank for rank in firsts) / len(firsts)
        assert got.hex() == want.hex()


class TestCommittedFixture:
    def load(self):
        from stoplab.cli import read_run_file

        runs = read_run_file(FIXTURES / "sample.run")
        qrels = parse_qrels(FIXTURES / "sample.qrels")
        return evaluate_run(runs, qrels)

    def test_per_query_average_precision(self):
        report = self.load()
        got = {q.qid: q.average_precision for q in report.per_query}
        assert set(got) == set(FIXTURE_AP)
        for qid, expected in FIXTURE_AP.items():
            assert got[qid] == pytest.approx(expected, rel=1e-12), qid

    def test_per_query_r_precision(self):
        report = self.load()
        got = {q.qid: q.r_precision for q in report.per_query}
        for qid, expected in FIXTURE_RPREC.items():
            assert got[qid] == pytest.approx(expected, rel=1e-12), qid

    def test_aggregates(self):
        report = self.load()
        assert report.mean_average_precision == pytest.approx(FIXTURE_MAP, rel=1e-12)
        assert (
            report.total_relevant,
            report.total_retrieved,
            report.total_relevant_retrieved,
        ) == FIXTURE_TOTALS
        assert set(report.flagged) == FIXTURE_FLAGGED
        assert report.num_evaluated == 8

    def test_q1_interpolated_curve(self):
        report = self.load()
        q1 = next(q for q in report.per_query if q.qid == "q1")
        assert q1.interp_precision[:6] == (1.0,) * 6
        assert q1.interp_precision[6:] == pytest.approx((2 / 3,) * 5, rel=1e-12)

    def test_levels_are_the_standard_sets(self):
        assert CUTOFF_LEVELS == (5, 10, 15, 20, 30, 100, 200, 500, 1000)
        assert RECALL_LEVELS == tuple(i / 10 for i in range(11))

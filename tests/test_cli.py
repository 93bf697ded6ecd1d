import gzip
import math
import random
from pathlib import Path

import pytest

from stoplab.cli import main, parse_topics, read_report_tsv, read_run_file
from stoplab.errors import ParseError
from stoplab.index import Index

from test_index import _damage_cases

FIXTURES = Path(__file__).parent / "fixtures"

TOY_SGML = (
    "<DOC>\n<DOCNO> D1 </DOCNO>\n<TEXT>\na b\n</TEXT>\n</DOC>\n"
    "<DOC>\n<DOCNO> D2 </DOCNO>\n<TEXT>\nb c\n</TEXT>\n</DOC>\n"
    "<DOC>\n<DOCNO> D3 </DOCNO>\n<TEXT>\nc c\n</TEXT>\n</DOC>\n"
)

# byte 27 is not UTF-8
BAD_UTF8_SGML = b"<DOC><DOCNO>X</DOCNO><TEXT>\xff</TEXT></DOC>"

TOY_TOPIC = (
    "<top>\n<num> Number: 1 </num>\n<title> a </title>\n"
    "<desc> Description: </desc>\n</top>\n"
)


@pytest.fixture
def toy(tmp_path):
    corpus = tmp_path / "corpus.sgml"
    corpus.write_text(TOY_SGML, encoding="utf-8")
    topics = tmp_path / "topics.txt"
    topics.write_text(TOY_TOPIC, encoding="utf-8")
    return tmp_path, corpus, topics


class TestIndexCommand:
    def test_summary_counts(self, toy, capsys):
        tmp, corpus, _ = toy
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp / "t.idx")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "documents:           3" in out
        assert "tokens:              6" in out
        assert "stopwords removed:   0" in out

    def test_with_stoplist_file(self, toy, capsys):
        tmp, corpus, _ = toy
        listfile = tmp / "mystops.txt"
        listfile.write_text("b\n", encoding="utf-8")
        rc = main([
            "index", "--corpus", str(corpus), "--out", str(tmp / "t.idx"),
            "--stoplist", str(listfile),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tokens:              4" in out
        assert "stopwords removed:   2" in out
        idx = Index.load(tmp / "t.idx")
        assert idx.stoplist.name == "mystops"

    def test_missing_corpus_is_data_error(self, toy, capsys):
        tmp, _, _ = toy
        rc = main(["index", "--corpus", str(tmp / "nope.sgml"), "--out", str(tmp / "t.idx")])
        assert rc == 2
        assert capsys.readouterr().err.strip()

    def test_gzip_corpus(self, toy, capsys):
        tmp, _, _ = toy
        gz = tmp / "corpus.sgml.gz"
        with gzip.open(gz, "wb") as f:
            f.write(TOY_SGML.encode("utf-8"))
        rc = main(["index", "--corpus", str(gz), "--out", str(tmp / "t.idx")])
        assert rc == 0
        assert "documents:           3" in capsys.readouterr().out

    def test_cp1256_corpus(self, toy, capsys):
        tmp, _, _ = toy
        arabic = "<DOC><DOCNO>D1</DOCNO><TEXT>قال الوزير</TEXT></DOC>"
        path = tmp / "cp.sgml"
        path.write_bytes(arabic.encode("cp1256"))
        rc = main(["index", "--corpus", str(path), "--out", str(tmp / "t.idx"),
                   "--encoding", "cp1256"])
        assert rc == 0
        idx = Index.load(tmp / "t.idx")
        assert "قال" in idx.postings

    def test_keep_marks_flag_recorded_and_honored(self, toy, capsys):
        tmp, _, _ = toy
        # two docs distinguished only by diacritics
        corpus = tmp / "marks.sgml"
        corpus.write_text(
            "<DOC><DOCNO>P</DOCNO><TEXT>قَال</TEXT></DOC>"
            "<DOC><DOCNO>Q</DOCNO><TEXT>قال</TEXT></DOC>",
            encoding="utf-8",
        )
        idx = tmp / "marks.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx),
                     "--keep-marks"]) == 0
        loaded = Index.load(idx)
        assert loaded.strip_marks is False
        # with marks kept, the diacritized form tokenizes differently
        assert len(loaded.postings) > 1
        capsys.readouterr()
        topics = tmp / "marks_topic.txt"
        topics.write_text(
            "<top><num>1</num><title>قَال</title></top>",
            encoding="utf-8",
        )
        assert main(["search", "--index", str(idx), "--topics", str(topics),
                     "--model", "BM25"]) == 0
        out = capsys.readouterr().out
        assert out.split()[2] == "P"  # diacritized query matches diacritized doc

    def test_config_file_with_flag_override(self, toy, capsys):
        tmp, corpus, _ = toy
        cfg = tmp / "exp.cfg"
        cfg.write_text(
            "corpus=%s\nout=%s\nstoplist=none\n" % (corpus, tmp / "from_cfg.idx"),
            encoding="utf-8",
        )
        rc = main(["index", "--config", str(cfg), "--out", str(tmp / "flag.idx")])
        assert rc == 0
        assert (tmp / "flag.idx").exists()      # flag wins
        assert not (tmp / "from_cfg.idx").exists()

    def test_usage_error_exit_code(self, toy, capsys):
        rc = main(["index", "--bogus-flag"])
        assert rc == 1


class TestSearchCommand:
    def build(self, toy, stoplist="none"):
        tmp, corpus, topics = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx),
                     "--stoplist", stoplist]) == 0
        return tmp, idx, topics

    def test_bm25_toy_line(self, toy, capsys):
        tmp, idx, topics = self.build(toy)
        capsys.readouterr()
        rc = main(["search", "--index", str(idx), "--topics", str(topics),
                   "--model", "BM25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "1 Q0 D1 1 0.510826 BM25\n"

    def test_run_tag_includes_list_code(self, toy, tmp_path, capsys):
        tmp, corpus, topics = toy
        idx = tmp / "gs.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx),
                     "--stoplist", "GS"]) == 0
        capsys.readouterr()
        rc = main(["search", "--index", str(idx), "--topics", str(topics),
                   "--model", "KL"])
        assert rc == 0
        out = capsys.readouterr().out
        assert all(line.endswith(" KL_GS") for line in out.strip().splitlines())

    def test_all_stopword_topic_warns_and_emits_nothing(self, toy, capsys):
        tmp, corpus, _ = toy
        listfile = tmp / "all.txt"
        listfile.write_text("a\n", encoding="utf-8")
        idx = tmp / "s.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx),
                     "--stoplist", str(listfile)]) == 0
        capsys.readouterr()
        topics = tmp / "topic_a.txt"
        topics.write_text("<top>\n<num>9</num>\n<title>a</title>\n</top>\n")
        rc = main(["search", "--index", str(idx), "--topics", str(topics),
                   "--model", "BM25"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no results" in captured.err

    def test_unknown_model_is_usage_error(self, toy):
        tmp, idx, topics = self.build(toy)
        rc = main(["search", "--index", str(idx), "--topics", str(topics),
                   "--model", "LSI"])
        assert rc == 1

    def test_run_file_round_trip(self, toy):
        tmp, idx, topics = self.build(toy)
        out = tmp / "run.txt"
        assert main(["search", "--index", str(idx), "--topics", str(topics),
                     "--model", "KL", "--out", str(out)]) == 0
        runs = read_run_file(out)
        assert len(runs) == 1
        run = runs[0]
        assert [e.rank for e in run.entries] == [1, 2, 3]
        assert run.entries[0].docno == "D1"
        assert run.entries[0].score == pytest.approx(
            float("%.6f" % (math.log(1 + 6 / 2000) + math.log(2000 / 2002)))
        )


class TestTopicsParsing:
    def test_title_and_desc_concatenated(self):
        topics = parse_topics(
            "<top><num>Number: 7</num><title>alpha beta</title>"
            "<desc>Description: gamma</desc></top>"
        )
        assert topics == [("7", "alpha beta gamma")]

    def test_multiple_topics_in_order(self):
        text = (
            "<top><num>1</num><title>x</title></top>"
            "<top><num>2</num><title>y</title></top>"
        )
        assert [q for q, _ in parse_topics(text)] == ["1", "2"]

    def test_missing_num_rejected(self):
        with pytest.raises(ParseError):
            parse_topics("<top><title>x</title></top>")

    def test_unterminated_top_rejected(self):
        with pytest.raises(ParseError):
            parse_topics("<top><num>1</num><title>x</title>")

    def test_duplicate_qid_rejected(self, toy, capsys):
        text = ("<top><num>1</num><title>a</title></top>"
                "<top><num> 1 </num><title>b</title></top>")
        with pytest.raises(ParseError, match="block 2 repeats query id 1$"):
            parse_topics(text)
        tmp, corpus, topics = toy
        topics.write_text(text, encoding="utf-8")
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp / "t.idx")]) == 0
        capsys.readouterr()
        rc = main(["search", "--index", str(tmp / "t.idx"), "--topics", str(topics)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: topic block 2 repeats query id 1\n"


class TestEvalCommand:
    def test_fixture_map(self, tmp_path, capsys):
        rc = main(["eval", "--run", str(FIXTURES / "sample.run"),
                   "--qrels", str(FIXTURES / "sample.qrels")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean average precision:        0.4611" in out
        assert "total relevant:                22" in out
        assert "total relevant retrieved:      18" in out

    def test_tsv_round_trip(self, tmp_path, capsys):
        tsv = tmp_path / "report.tsv"
        rc = main(["eval", "--run", str(FIXTURES / "sample.run"),
                   "--qrels", str(FIXTURES / "sample.qrels"),
                   "--out", str(tsv)])
        assert rc == 0
        tag, rows = read_report_tsv(str(tsv))
        assert tag == "FIX"
        assert rows["q1"]["ap"] == pytest.approx(5 / 6, rel=1e-15)
        assert rows["q7"]["ap"] == pytest.approx(41 / 56, rel=1e-15)
        assert "all" not in rows

    def test_empty_run_file_succeeds(self, tmp_path, capsys):
        run = tmp_path / "empty.run"
        run.write_text("")
        qrels = tmp_path / "empty.qrels"
        qrels.write_text("")
        rc = main(["eval", "--run", str(run), "--qrels", str(qrels)])
        assert rc == 0
        assert "queries in run:                0" in capsys.readouterr().out

    def test_malformed_run_line_names_line(self, tmp_path, capsys):
        run = tmp_path / "bad.run"
        run.write_text("1 Q0 D1 1 0.5 T\n1 Q0 D2 oops 0.4 T\n")
        qrels = tmp_path / "q.qrels"
        qrels.write_text("1 0 D1 1\n")
        rc = main(["eval", "--run", str(run), "--qrels", str(qrels)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_docno_rejected(self, tmp_path, capsys):
        run = tmp_path / "dup.run"
        run.write_text("1 Q0 D1 1 0.5 T\n1 Q0 D1 2 0.4 T\n")
        qrels = tmp_path / "q.qrels"
        qrels.write_text("1 0 D1 1\n")
        assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 2


class TestCompareCommand:
    def make_report(self, tmp_path, tag, aps, qrels_text, capsys):
        """Build a report TSV from a synthetic run with the given APs."""
        # one relevant doc per query; AP controlled by the rank it lands at
        run = tmp_path / ("%s.run" % tag)
        lines = []
        for qid, rank in aps.items():
            for r in range(1, rank + 1):
                doc = "REL" if r == rank else "n%d" % r
                lines.append("%s Q0 %s %d %.6f %s" % (qid, doc, r, 10.0 - r, tag))
        run.write_text("\n".join(lines) + "\n")
        tsv = tmp_path / ("%s.tsv" % tag)
        qrels = tmp_path / "shared.qrels"
        qrels.write_text(qrels_text)
        assert main(["eval", "--run", str(run), "--qrels", str(qrels),
                     "--out", str(tsv)]) == 0
        capsys.readouterr()
        return tsv

    def qrels_text(self, qids):
        return "".join("%s 0 REL 1\n" % q for q in qids)

    @staticmethod
    def wilcoxon_rows(out):
        lines = out.splitlines()
        start = next(i for i, l in enumerate(lines) if "QP>BP" in l)
        return [l for l in lines[start + 1 :] if l.strip()]

    def test_identical_reports_tie_completely(self, tmp_path, capsys):
        qids = ["1", "2", "3"]
        ranks = {"1": 1, "2": 2, "3": 3}
        a = self.make_report(tmp_path, "TFIDF", ranks, self.qrels_text(qids), capsys)
        b = self.make_report(tmp_path, "BM25", ranks, self.qrels_text(qids), capsys)
        rc = main(["compare", str(a), str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        row = next(l for l in self.wilcoxon_rows(out) if l.startswith("BM25"))
        fields = row.split()
        assert fields[2:5] == ["0", "0", "3"]   # QP>BP QP<BP QP=BP
        assert float(fields[5]) == 1.0

    def test_consistent_ordering_chi2(self, tmp_path, capsys):
        qids = ["1", "2", "3"]
        qrels = self.qrels_text(qids)
        # T1 always best (rank 1), T3 always worst
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 1, "3": 1}, qrels, capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 2, "2": 2, "3": 2}, qrels, capsys)
        c = self.make_report(tmp_path, "KL", {"1": 3, "2": 3, "3": 3}, qrels, capsys)
        rc = main(["compare", str(a), str(b), str(c)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chi2 = 6.000" in out
        assert "df = 2" in out

    def test_baseline_defaults_to_tfidf(self, tmp_path, capsys):
        qids = ["1", "2"]
        qrels = self.qrels_text(qids)
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 2}, qrels, capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 2, "2": 1}, qrels, capsys)
        rc = main(["compare", str(a), str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline TFIDF" in out
        assert not any(
            row.startswith("TFIDF") for row in self.wilcoxon_rows(out)
        )

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        qids = ["1", "2"]
        qrels = self.qrels_text(qids)
        a = self.make_report(tmp_path, "KL", {"1": 1, "2": 2}, qrels, capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 2, "2": 1}, qrels, capsys)
        assert main(["compare", str(a), str(b)]) == 1

    def test_mismatched_qid_sets_rejected(self, tmp_path, capsys):
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 2},
                             self.qrels_text(["1", "2"]), capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 1, "3": 2},
                             self.qrels_text(["1", "3"]), capsys)
        rc = main(["compare", str(a), str(b)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2" in err and "3" in err

    def test_bad_number_in_report_names_file_and_line(self, tmp_path, capsys):
        qrels = self.qrels_text(["1", "2"])
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 2}, qrels, capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 2, "2": 1}, qrels, capsys)
        lines = b.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split("\t")
        fields[5] = "zz"  # the AP column of query 2
        lines[2] = "\t".join(fields)
        b.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="line 3: could not convert"):
            read_report_tsv(str(b))
        assert main(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == (
            "error: %s line 3: could not convert string to float: 'zz'\n" % b)


class TestStoplistCommand:
    def test_inspect_bundled_overlap(self, capsys):
        rc = main(["stoplist", "inspect", "--list", "GS", "--other", "CBS"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "list GS: 945 words" in out
        assert "list CBS: 230 words" in out
        assert "overlap: 82" in out
        assert "union:   1093" in out

    def test_combine_bundled(self, tmp_path, capsys):
        out_file = tmp_path / "cs.txt"
        rc = main(["stoplist", "combine", "--a", "GS", "--b", "CBS",
                   "--out", str(out_file), "--name", "CS"])
        assert rc == 0
        assert "1093" in capsys.readouterr().out
        words = [
            l for l in out_file.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")
        ]
        assert len(words) == 1093

    def test_build_from_index(self, toy, tmp_path, capsys):
        tmp, corpus, _ = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        out_file = tmp_path / "cbs.txt"
        rc = main(["stoplist", "build", "--index", str(idx), "--cutoff", "1",
                   "--out", str(out_file)])
        assert rc == 0
        words = [
            l for l in out_file.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")
        ]
        assert sorted(words) == ["b", "c"]  # ctf: a=1, b=2, c=3

    def test_build_with_exclusions(self, toy, tmp_path, capsys):
        tmp, corpus, _ = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        excl = tmp_path / "excl.txt"
        excl.write_text("c\n")
        out_file = tmp_path / "cbs.txt"
        rc = main(["stoplist", "build", "--index", str(idx), "--cutoff", "1",
                   "--exclude", str(excl), "--out", str(out_file)])
        assert rc == 0
        words = [
            l for l in out_file.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")
        ]
        assert words == ["b"]

    def test_build_cutoff_above_max_warns_and_writes_empty(self, toy, tmp_path, capsys):
        tmp, corpus, _ = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        capsys.readouterr()
        out_file = tmp_path / "empty.txt"
        rc = main(["stoplist", "build", "--index", str(idx), "--cutoff", "99",
                   "--out", str(out_file)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "empty" in captured.err
        words = [
            l for l in out_file.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")
        ]
        assert words == []

    def test_build_requires_cutoff(self, toy, tmp_path):
        tmp, corpus, _ = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        rc = main(["stoplist", "build", "--index", str(idx),
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 1


class TestDeterminism:
    def test_index_and_run_files_byte_identical_across_workers(self, toy):
        tmp, corpus, topics = toy
        blobs = []
        for workers in ("1", "6"):
            idx = tmp / ("w%s.idx" % workers)
            run = tmp / ("w%s.run" % workers)
            assert main(["index", "--corpus", str(corpus), "--out", str(idx),
                         "--stoplist", "GS", "--workers", workers]) == 0
            assert main(["search", "--index", str(idx), "--topics", str(topics),
                         "--model", "BM25", "--out", str(run)]) == 0
            blobs.append((idx.read_bytes(), run.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_repeated_runs_byte_identical(self, toy):
        tmp, corpus, topics = toy
        outs = []
        for trial in range(2):
            idx = tmp / ("r%d.idx" % trial)
            run = tmp / ("r%d.run" % trial)
            assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
            assert main(["search", "--index", str(idx), "--topics", str(topics),
                         "--model", "KL", "--out", str(run)]) == 0
            outs.append(run.read_bytes())
        assert outs[0] == outs[1]


class TestIndexFiles:
    def test_long_token_indexes_and_round_trips(self, tmp_path, capsys):
        token = "ق" * 35_000  # 70,000 UTF-8 bytes
        corpus = tmp_path / "long.sgml"
        corpus.write_text("<DOC><DOCNO>L1</DOCNO><TEXT>%s b</TEXT></DOC>"
                          "<DOC><DOCNO>L2</DOCNO><TEXT>b</TEXT></DOC>" % token,
                          encoding="utf-8")
        topics = tmp_path / "topics.txt"
        topics.write_text("<top><num>1</num><title>%s</title></top>" % token,
                          encoding="utf-8")
        idx, run = tmp_path / "long.idx", tmp_path / "long.run"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        assert main(["search", "--index", str(idx), "--topics", str(topics),
                     "--model", "BM25", "--out", str(run)]) == 0
        assert Index.load(idx).df(token) == 1
        assert [line.split()[2] for line in run.read_text().splitlines()] == ["L1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "long.idx", "long.run", "long.sgml", "topics.txt"]

    def test_failed_build_leaves_no_file(self, tmp_path, capsys):
        corpus = tmp_path / "dup.sgml"
        corpus.write_text("<DOC><DOCNO>D1</DOCNO><TEXT>a</TEXT></DOC>" * 2,
                          encoding="utf-8")
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "d.idx")])
        assert rc == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["dup.sgml"]

    def test_bad_second_corpus_file_is_named(self, toy, capsys):
        tmp, corpus, _ = toy
        bad = tmp / "bad.sgml"
        bad.write_bytes(BAD_UTF8_SGML)
        rc = main(["index", "--corpus", str(corpus), str(bad),
                   "--out", str(tmp / "t.idx")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: %s: invalid utf-8 at byte 27: invalid start byte\n" % bad)
        assert not (tmp / "t.idx").exists()

    @pytest.mark.parametrize("cut", [0, 10, -8])
    def test_damaged_gzip_corpus_is_named(self, toy, capsys, cut):
        tmp, _, _ = toy
        gz = tmp / "corpus.sgml.gz"
        data = gzip.compress(TOY_SGML.encode("utf-8"))
        gz.write_bytes(b"not gzip" if cut == 0 else data[:cut])
        rc = main(["index", "--corpus", str(gz), "--out", str(tmp / "t.idx")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: %s: " % gz) and err.count("\n") == 1
        assert not (tmp / "t.idx").exists()

    def test_old_format_asks_for_rebuild(self, toy, capsys):
        tmp, _, topics = toy
        old = tmp / "old.idx"
        old.write_bytes(b"ARIDX001" + bytes(40))
        assert main(["search", "--index", str(old), "--topics", str(topics)]) == 2
        err = capsys.readouterr().err.strip()
        assert "rebuild" in err and len(err.splitlines()) == 1
        assert main(["stoplist", "build", "--index", str(old), "--cutoff", "1",
                     "--out", str(tmp / "x.txt")]) == 2

    def test_damaged_index_exits_2(self, toy, capsys):
        tmp, corpus, topics = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        blob = idx.read_bytes()
        damaged_path = tmp / "damaged.idx"
        for case, damaged in _damage_cases(blob, random.Random(41), 1):
            damaged_path.write_bytes(damaged)
            capsys.readouterr()
            rc = main(["search", "--index", str(damaged_path), "--topics", str(topics)])
            err = capsys.readouterr().err.strip()
            assert rc == 2, case
            assert len(err.splitlines()) == 1, case


class TestConfigFiles:
    def test_search_options_from_config(self, toy, capsys):
        tmp, corpus, topics = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        cfg = tmp / "search.cfg"
        cfg.write_text(
            "# experiment manifest\nindex=%s\ntopics=%s\nmodel=BM25\ntop_k=1\n"
            "corpus=%s\n" % (idx, topics, corpus),  # corpus= ignored by search
            encoding="utf-8",
        )
        capsys.readouterr()
        rc = main(["search", "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out == "1 Q0 D1 1 0.510826 BM25\n"

    def test_malformed_config_line_is_data_error(self, toy, capsys):
        tmp, corpus, _ = toy
        cfg = tmp / "bad.cfg"
        cfg.write_text("corpus %s\n" % corpus, encoding="utf-8")
        rc = main(["index", "--config", str(cfg), "--out", str(tmp / "x.idx")])
        assert rc == 2
        assert "key=value" in capsys.readouterr().err

    def test_bad_model_in_config_is_usage_error(self, toy, capsys):
        tmp, corpus, topics = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        cfg = tmp / "bad.cfg"
        cfg.write_text("model=LSI\n", encoding="utf-8")
        rc = main(["search", "--config", str(cfg), "--index", str(idx),
                   "--topics", str(topics)])
        assert rc == 1


def _failing_command(command, tmp, corpus, topics):
    """Arguments that make ``command`` fail after it has started work."""
    if command == "index":
        bad = tmp / "bad.sgml"
        bad.write_bytes(BAD_UTF8_SGML)
        return ["index", "--corpus", str(corpus), str(bad)]
    idx = tmp / "t.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
    return {
        "search": ["search", "--index", str(idx), "--topics", str(topics),
                   "--top-k", "0"],
        "eval": ["eval", "--run", str(topics), "--qrels", str(topics)],
        "stoplist build": ["stoplist", "build", "--index", str(idx),
                           "--cutoff", "-1"],
        "stoplist combine": ["stoplist", "combine", "--a", "GS",
                             "--b", str(tmp / "ghost.txt")],
    }[command]


class TestFailedCommandOutputs:
    """A command that fails leaves its output path as it found it."""

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize(
        "command", ["index", "search", "eval", "stoplist build", "stoplist combine"])
    def test_target_untouched(self, toy, capsys, command, existing):
        tmp, corpus, topics = toy
        argv = _failing_command(command, tmp, corpus, topics)
        target = tmp / "target.out"
        if existing:
            target.write_bytes(b"old")
        before = sorted(tmp.iterdir())
        capsys.readouterr()
        rc = main(argv + ["--out", str(target)])
        err = capsys.readouterr().err
        assert rc in (1, 2)
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp.iterdir()) == before  # no new target, no temp file
        if existing:
            assert target.read_bytes() == b"old"

    def test_unwritable_target_is_named(self, tmp_path, capsys):
        for target in (tmp_path / "nodir" / "x.txt", tmp_path):
            rc = main(["stoplist", "combine", "--a", "GS", "--b", "CBS",
                       "--out", str(target)])
            assert rc == 2
            assert capsys.readouterr().err.endswith(": '%s'\n" % target)
        assert list(tmp_path.iterdir()) == []


class TestUpfrontValidation:
    def test_search_missing_index_named(self, toy, capsys):
        tmp, _, topics = toy
        rc = main(["search", "--index", str(tmp / "ghost.idx"),
                   "--topics", str(topics)])
        assert rc == 2
        assert "ghost.idx" in capsys.readouterr().err

    def test_index_missing_stoplist_file_named(self, toy, capsys):
        tmp, corpus, _ = toy
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp / "x.idx"),
                   "--stoplist", str(tmp / "ghost.txt")])
        assert rc == 2
        assert "ghost.txt" in capsys.readouterr().err


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

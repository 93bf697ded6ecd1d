import gzip
import hashlib
import io
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stoplab.cli
from stoplab.cli import (
    _read_run_columns,
    _read_run_lines,
    main,
    parse_topics,
    read_report_tsv,
    read_run_file,
    write_run,
)
from stoplab.errors import ParseError, atomic_write
from stoplab.index import Index, build_index
from stoplab.ranking import RankedRun
from stoplab.treceval import evaluate_run, parse_qrels

import oracles
from test_acceptance import _write_desk_corpus
from test_index import _damage_cases

FIXTURES = Path(__file__).parent / "fixtures"

TOY_SGML = (
    "<DOC>\n<DOCNO> D1 </DOCNO>\n<TEXT>\na b\n</TEXT>\n</DOC>\n"
    "<DOC>\n<DOCNO> D2 </DOCNO>\n<TEXT>\nb c\n</TEXT>\n</DOC>\n"
    "<DOC>\n<DOCNO> D3 </DOCNO>\n<TEXT>\nc c\n</TEXT>\n</DOC>\n"
)

# byte 27 is not UTF-8
BAD_UTF8_SGML = b"<DOC><DOCNO>X</DOCNO><TEXT>\xff</TEXT></DOC>"

# a block that parses, to put a fault after it
GOOD_DOC = "<DOC><DOCNO>W</DOCNO><TEXT>w</TEXT></DOC>\n"

# a second document numbered D1, as TOY_SGML's first is
DUP_D1 = "<DOC><DOCNO>D1</DOCNO><TEXT>z</TEXT></DOC>\n"

TOY_TOPIC = (
    "<top>\n<num> Number: 1 </num>\n<title> a </title>\n"
    "<desc> Description: </desc>\n</top>\n"
)


def sliced_corpus_text(docs: int) -> str:
    """``docs`` blocks of Arabic with marks and tatweel, \\r\\n line ends,
    headers, inline tags and text between the blocks, all of it in cp1256."""
    rng = random.Random(23)
    words = ["قال", "الوزير", "في", "المؤتمر", "كِتَاب", "ـالعربية", "إلى", "مدرسة"]
    blocks = []
    for i in range(docs):
        body = " ".join(rng.choice(words) for _ in range(rng.randint(0, 25)))
        blocks.append("<DOC>\r\n<DOCNO>A%03d</DOCNO>\r\n<HEADER>%s</HEADER>\r\n"
                      "<TEXT>%s<P>%s</TEXT>\r\n</DOC>\r\n" % (i, words[i % 8], body, words[i % 3]))
    return "before\r\n" + "between\r\n".join(blocks)


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
        assert idx.rows("قال") is not None

    def test_keep_marks_flag_is_unrecognized(self, toy, capsys):
        tmp, corpus, _ = toy
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp / "t.idx"),
                   "--keep-marks"])
        assert rc == 1
        assert "unrecognized arguments: --keep-marks" in capsys.readouterr().err
        assert not (tmp / "t.idx").exists()

    def test_output_in_corpus_directory_is_not_read_as_corpus(self, tmp_path,
                                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("c").mkdir()
        Path("c/corpus.sgml").write_text(TOY_SGML, encoding="utf-8")
        written = []
        for _ in range(2):  # the second run finds the first one's index in c
            assert main(["index", "--corpus", "c", "--out", "c/x.idx"]) == 0
            written.append(Path("c/x.idx").read_bytes())
        assert written[0] == written[1]
        assert sorted(Path("c").iterdir()) == [Path("c/corpus.sgml"), Path("c/x.idx")]

    @pytest.mark.parametrize("files, message", [
        ((TOY_SGML, DUP_D1),
         "error: {1}: duplicate docno 'D1' (first in {0})"),
        ((TOY_SGML + DUP_D1,),
         "error: {0}: duplicate docno 'D1' (first in {0})"),
    ], ids=["across files", "within a file"])
    def test_duplicate_docno_names_both_files(self, tmp_path, capsys, files, message):
        paths = [tmp_path / ("c%d.sgml" % i) for i in range(len(files))]
        for path, text in zip(paths, files):
            path.write_text(text, encoding="utf-8")
        out = tmp_path / "t.idx"
        rc = main(["index", "--corpus", *map(str, paths), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == message.format(*paths) + "\n"
        assert sorted(tmp_path.iterdir()) == paths  # no index, no temp file

    @pytest.mark.parametrize("docno, message", [
        ("A 1", "docno 'A 1' contains whitespace"), ("", "empty docno"),
    ], ids=["whitespace", "empty"])
    def test_docno_a_run_file_cannot_hold_names_the_file(self, tmp_path, capsys,
                                                          docno, message):
        paths = [tmp_path / "a.sgml", tmp_path / "b.sgml"]
        paths[0].write_text(TOY_SGML, encoding="utf-8")
        paths[1].write_text("<DOC><DOCNO>%s</DOCNO><TEXT>z</TEXT></DOC>\n" % docno,
                            encoding="utf-8")
        rc = main(["index", "--corpus", *map(str, paths), "--out", str(tmp_path / "t.idx")])
        assert rc == 2
        assert capsys.readouterr().err == "error: %s: %s\n" % (paths[1], message)
        assert sorted(tmp_path.iterdir()) == paths  # no index, no temp file

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


# one word bare, with diacritics and with tatweel, among other words
MARKED_SGML = (
    "<DOC><DOCNO>D1</DOCNO><TEXT>كتب الطالب في الكتاب</TEXT></DOC>\n"
    "<DOC><DOCNO>D2</DOCNO><TEXT>كَتَبَ الطّالِبُ الدَّرْسَ</TEXT></DOC>\n"
    "<DOC><DOCNO>D3</DOCNO><TEXT>كـتـب الطـالـب</TEXT></DOC>\n"
)


class TestOneTextPipeline:
    """Diacritics and tatweel are always stripped, in documents and queries."""

    def test_marked_forms_index_and_retrieve_as_one_term(self, tmp_path, capsys):
        corpus, idx = tmp_path / "marked.sgml", tmp_path / "marked.idx"
        corpus.write_text(MARKED_SGML, encoding="utf-8")
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        # the same content as before --keep-marks was removed, built without
        # it, in the ARIDX003 format
        assert hashlib.sha256(idx.read_bytes()).hexdigest() == (
            "ce61ce91c5a42cabed497d2173a208f1f493a294488afcb330c7afb3a1ca8e24")
        index = Index.load(idx)
        assert index.terms == ["الدرس", "الطالب", "الكتاب", "في", "كتب"]
        assert index.doc_lengths.tolist() == [4, 3, 2]
        for title in ("كتب الطالب", "كَتَبَ الطّالِبُ", "كـتـب الطـالـب"):
            topics = tmp_path / "topics.txt"
            topics.write_text("<top><num>1</num><title>%s</title></top>" % title,
                              encoding="utf-8")
            capsys.readouterr()
            assert main(["search", "--index", str(idx), "--topics", str(topics),
                         "--model", "BM25"]) == 0
            docnos = [line.split()[2] for line in capsys.readouterr().out.splitlines()]
            assert sorted(docnos) == ["D1", "D2", "D3"]

    @pytest.mark.parametrize("command", ["search", "stoplist build"])
    def test_index_built_with_keep_marks_is_refused(self, toy, capsys, command):
        tmp, corpus, topics = toy
        idx = tmp / "marks.idx"
        marked = build_index([("D1", "a b")])
        marked.strip_marks = False
        marked.save(idx)  # as index --keep-marks wrote it
        out = tmp / "out"
        args = {"search": ["search", "--topics", str(topics)],
                "stoplist build": ["stoplist", "build", "--cutoff", "0"]}[command]
        before = sorted(tmp.iterdir())
        assert main([*args, "--index", str(idx), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: %s: index built with --keep-marks, which stoplab no longer "
            "reads; rebuild it with stoplab index\n" % idx)
        assert sorted(tmp.iterdir()) == before  # no output, no temporary file


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

    def test_all_stopword_topic_warns_and_emits_nothing(self, toy, capsys, caplog):
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
        assert "no results" in caplog.text

    @pytest.mark.parametrize("model, flag, value", [
        ("BM25", "--k1", "-1"), ("BM25", "--k1", "nan"), ("BM25", "--k3", "inf"),
        ("TFIDF", "--k1", "-inf"), ("KL", "--mu", "inf"), ("KL", "--mu", "nan"),
    ])
    def test_bad_model_parameter_exits_2_without_output(self, toy, capsys, model, flag, value):
        tmp, idx, topics = self.build(toy)
        out = tmp / "r.run"
        before = sorted(tmp.iterdir())
        capsys.readouterr()
        rc = main(["search", "--index", str(idx), "--topics", str(topics),
                   "--model", model, "%s=%s" % (flag, value), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: require finite k1 >= 0" if flag != "--mu"
                              else "error: mu must be positive and finite")
        assert err.count("\n") == 1
        assert sorted(tmp.iterdir()) == before  # no run file, no temp file

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize("flag", ["--k1", "--k3"])
    def test_overflowing_weights_exit_2_without_output(self, toy, capsys, flag):
        # c has tf 2 in D3 and qtf 2 here, so k1 or k3 at 1e308 overflows
        tmp, idx, _ = self.build(toy)
        topics = tmp / "cc.txt"
        topics.write_text("<top>\n<num>7</num>\n<title>c c</title>\n</top>\n")
        out = tmp / "r.run"
        before = sorted(tmp.iterdir())
        capsys.readouterr()
        rc = main(["search", "--index", str(idx), "--topics", str(topics),
                   "--model", "BM25", flag, "1e308", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: query 7: the BM25 weights overflow to a non-finite "
                       "score; use smaller model parameters\n")
        assert sorted(tmp.iterdir()) == before  # no run file, no temp file

    def test_underflowing_length_prior_exits_2_without_output(self, toy, capsys):
        # mu / (mu + dl) rounds to 0 for the smallest positive mu and dl 2
        tmp, idx, topics = self.build(toy)
        out = tmp / "r.run"
        before = sorted(tmp.iterdir())
        capsys.readouterr()
        rc = main(["search", "--index", str(idx), "--topics", str(topics),
                   "--model", "KL", "--mu", "5e-324", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: mu 5e-324 is too small: mu / (mu + dl) underflows to 0 at "
            "document length 2; use a larger mu\n")
        assert sorted(tmp.iterdir()) == before  # no run file, no temp file

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
        assert len(run.docnos) == len(run.scores) == 3
        assert run.docnos[0] == "D1"
        assert run.scores[0] == pytest.approx(
            float("%.6f" % (math.log(1 + 6 / 2000) + math.log(2000 / 2002)))
        )


# two searches in one process, each with stderr redirected on its own: a
# library warning goes to the stderr of its own call.  Run in a subprocess,
# since pytest's logging plugin holds handlers of the root logger in-process.
TWO_SEARCHES = """
import contextlib, io, json, sys
from stoplab.cli import main
captures = []
for _ in range(2):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(sys.argv[1:]) == 0
    captures.append(err.getvalue())
print(json.dumps(captures))
"""


def test_each_search_prints_its_own_absent_term_warning(toy):
    tmp, corpus, _ = toy
    idx, topics = tmp / "t.idx", tmp / "absent.txt"
    assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
    topics.write_text("<top><num>7</num><title>a zzzq</title></top>\n", encoding="utf-8")
    src = str(Path(stoplab.cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def two_searches(topics, model):
        proc = subprocess.run(
            [sys.executable, "-c", TWO_SEARCHES, "search", "--index", str(idx),
             "--topics", str(topics), "--model", model],
            capture_output=True, text=True, env=env, check=True)
        return json.loads(proc.stdout)

    warning = "query 7: term 'zzzq' absent from collection, dropped\n"
    assert two_searches(topics, "KL") == [warning, warning]
    # every model logs the same lines from the one scoring core: absent
    # terms in sorted order, then an empty run's notice
    both = tmp / "both.txt"
    both.write_text("<top><num>7</num><title>a zzzq</title></top>\n"
                    "<top><num>9</num><title>zzzq aaab</title></top>\n", encoding="utf-8")
    lines = (warning + "query 9: term 'aaab' absent from collection, dropped\n"
             "query 9: term 'zzzq' absent from collection, dropped\n"
             "query 9 produced no results (all terms filtered or unindexed)\n")
    for model in ("KL", "BM25", "TFIDF"):
        assert two_searches(both, model) == [lines, lines], model


topic_words = st.text(st.sampled_from("abxyzقالمن"), min_size=1, max_size=6)


@st.composite
def topic_files(draw):
    """A well-formed topics file and its (qid, query) pairs: upper- or
    lower-case tags, closed or open fields, any whitespace between words,
    and a query that is the title, a space and the description."""
    qids = draw(st.lists(st.text(st.sampled_from("0123456789qQ-"), min_size=1,
                                 max_size=4), min_size=1, max_size=4, unique=True))
    gap = st.sampled_from([" ", "\n", "  ", "\t"])
    text, topics = "", []
    for qid in qids:
        tag = draw(st.sampled_from([str.lower, str.upper]))
        close = draw(st.booleans())

        def field(name, prefix, words):
            body = "".join(w + draw(gap) for w in words).rstrip()
            end = "</%s>" % tag(name) if close else ""
            return body, "<%s>%s%s%s%s\n" % (tag(name), draw(gap), prefix, body, end)

        _, num = field("num", draw(st.sampled_from(["", "Number: "])), [qid])
        title, title_field = field("title", "", draw(st.lists(topic_words, min_size=1,
                                                              max_size=4)))
        desc, desc_field = field("desc", draw(st.sampled_from(["", "Description:\n"])),
                                 draw(st.lists(topic_words, max_size=6)))
        text += "<%s>\n%s%s%s</%s>\n" % (tag("top"), num, title_field, desc_field,
                                          tag("top"))
        topics.append((qid, "%s %s" % (title, desc) if desc else title))
    return text, topics


class TestTopicsParsing:
    def test_upper_case_tags_parse(self):
        text = "<TOP>\n<NUM> Number: 4\n<TITLE> x\n<DESC> Description: y\n</TOP>\n"
        assert parse_topics(text) == [("4", "x y")]
        with pytest.raises(ParseError, match="^topics: unterminated <top> block$"):
            parse_topics(text + "<TOP>\n<NUM> 5\n")

    @pytest.mark.parametrize("text", ["", "1 0 D1 1\n"], ids=["empty", "qrels"])
    def test_file_without_topics_refused_by_search(self, toy, capsys, text):
        tmp, corpus, topics = toy
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp / "t.idx")]) == 0
        topics.write_text(text, encoding="utf-8")
        before = sorted(tmp.iterdir())
        capsys.readouterr()
        rc = main(["search", "--index", str(tmp / "t.idx"), "--topics", str(topics),
                   "--out", str(tmp / "r.run")])
        assert rc == 2
        assert capsys.readouterr().err == "error: %s: no <top> blocks\n" % topics
        assert sorted(tmp.iterdir()) == before  # no run file, no temp file

    @settings(max_examples=200, deadline=None, database=None)
    @given(written=topic_files())
    def test_written_topics_read_back(self, written):
        """Each topic reads back as its qid and its title and description,
        in file order; whitespace inside a field is kept."""
        text, topics = written
        assert parse_topics(text) == topics

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
        assert captured.err == "error: %s: topic block 2 repeats query id 1\n" % topics


    @pytest.mark.parametrize("text, message", [
        ("<top><num>1</num><title>a</title>", "unterminated <top> block"),
        ("<top><title>a</title></top>", "topic block 1 has no <num>"),
    ])
    def test_topics_errors_name_the_file(self, toy, capsys, text, message):
        tmp, corpus, topics = toy
        with pytest.raises(ParseError, match="^topics: %s$" % message):
            parse_topics(text)
        topics.write_text(text, encoding="utf-8")
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp / "t.idx")]) == 0
        capsys.readouterr()
        rc = main(["search", "--index", str(tmp / "t.idx"), "--topics", str(topics)])
        assert rc == 2
        assert capsys.readouterr().err == "error: %s: %s\n" % (topics, message)


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

    def test_query_named_all_refused_with_out(self, tmp_path, capsys):
        """``all`` names the TSV report's summary row, so no query may."""
        run = tmp_path / "all.run"
        run.write_text("all Q0 D1 1 0.5 T\n2 Q0 D1 1 0.5 T\n", encoding="utf-8")
        qrels = tmp_path / "q.qrels"
        qrels.write_text("all 0 D1 1\n2 0 D1 1\n", encoding="utf-8")
        argv = ["eval", "--run", str(run), "--qrels", str(qrels)]
        rc = main([*argv, "--out", str(tmp_path / "all.tsv")])
        assert (rc, *capsys.readouterr()) == (
            2, "", "error: %s: query id 'all' is reserved for the summary row of the "
                   "--out report\n" % run)
        assert sorted(tmp_path.iterdir()) == [run, qrels]
        assert main(argv) == 0  # the text report has no such row

    @pytest.mark.parametrize("bad, run_text, qrels_text, message", [
        ("run", "1 Q0 D1 1 0.5\n", "1 0 D1 1\n", "line 1: expected 6 fields, got 5"),
        ("run", "1 Q0 D1 1 0.5 T\n1 Q0 D1 2 0.4 T\n", "1 0 D1 1\n",
         "line 2: duplicate docno 'D1' for query 1"),
        ("qrels", "1 Q0 D1 1 0.5 T\n", "1 0 D1\n", "line 1: expected 4 fields, got 3"),
        ("qrels", "1 Q0 D1 1 0.5 T\n", "1 0 D1 1\n1 0 D2 yes\n",
         "line 2: relevance 'yes' is not an integer"),
    ])
    def test_bad_line_names_the_file(self, tmp_path, capsys, bad, run_text,
                                     qrels_text, message):
        files = {"run": tmp_path / "b.run", "qrels": tmp_path / "b.qrels"}
        files["run"].write_text(run_text, encoding="utf-8")
        files["qrels"].write_text(qrels_text, encoding="utf-8")
        rc = main(["eval", "--run", str(files["run"]), "--qrels", str(files["qrels"])])
        assert rc == 2
        assert capsys.readouterr().err == "error: %s %s\n" % (files[bad], message)


class TestRunFileOrder:
    """``read_run_file`` orders each query by the rank column; equal ranks
    keep file order, and scores never reorder (trec_eval sorts by score)."""

    def read(self, tmp_path, text):
        run = tmp_path / "r.run"
        run.write_text(text, encoding="utf-8")
        return read_run_file(run)

    def test_rank_column_wins_over_scores(self, tmp_path):
        (run,) = self.read(tmp_path, "1 Q0 D1 2 0.9 T\n1 Q0 D2 1 0.1 T\n"
                                     "1 Q0 D3 3 0.5 T\n")
        assert (run.docnos, run.scores.tolist()) == (["D2", "D1", "D3"], [0.1, 0.9, 0.5])

    def test_equal_ranks_keep_file_order(self, tmp_path, capsys):
        text = "1 Q0 D1 1 0.5 T\n1 Q0 D2 1 0.9 T\n2 Q0 D4 1 0.2 T\n2 Q0 D3 1 0.8 T\n"
        runs = self.read(tmp_path, text)
        assert [r.docnos for r in runs] == [["D1", "D2"], ["D4", "D3"]]
        qrels = tmp_path / "q.qrels"
        qrels.write_text("1 0 D2 1\n", encoding="utf-8")
        report = evaluate_run(runs, parse_qrels(qrels))
        assert report.per_query[0].average_precision == 0.5  # by score: 1.0


names = st.text(st.sampled_from("aZ09-_.قال"), min_size=1, max_size=5)


@st.composite
def ranked_runs(draw):
    """Runs with distinct qids, each with at least one line to write, and
    scores in any order, since the rank column alone orders a run."""
    runs = []
    for qid in draw(st.lists(names, max_size=4, unique=True)):
        docnos = draw(st.lists(names, min_size=1, max_size=8, unique=True))
        scores = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=len(docnos), max_size=len(docnos)))
        runs.append(RankedRun(qid, docnos, np.array(scores), draw(names)))
    return runs


def run_text(runs) -> str:
    out = io.StringIO()
    for run in runs:
        write_run(run, out)
    return out.getvalue()


def columns(runs) -> dict:
    return {r.qid: (r.tag, r.docnos, r.scores.tolist()) for r in runs}


class TestRunFileRoundTrip:
    @settings(max_examples=200, deadline=None, database=None)
    @given(runs=ranked_runs(), data=st.data())
    def test_written_runs_read_back_in_any_line_order(self, runs, data):
        text = run_text(runs)
        back = read_run_file(io.BytesIO(text.encode()))
        assert [(r.qid, r.tag, r.docnos) for r in back] == [
            (r.qid, r.tag, r.docnos) for r in runs]
        for run, read in zip(runs, back):
            assert read.scores.tolist() == [float("%.6f" % s) for s in run.scores.tolist()]
        shuffled = data.draw(st.permutations(text.splitlines(keepends=True)))
        assert columns(read_run_file(io.BytesIO("".join(shuffled).encode()))) == columns(back)

    @settings(max_examples=200, deadline=None, database=None)
    @given(lines=st.lists(st.tuples(names, st.integers(-2, 3), st.floats(-9, 9)),
                          max_size=12, unique_by=lambda line: line[0]))
    def test_equal_ranks_keep_file_order(self, lines):
        text = "".join("q Q0 %s %d %.6f T\n" % line for line in lines)
        # rank by rank, each rank's lines in file order
        by_rank = [(docno, float("%.6f" % score))
                   for rank in sorted({r for _, r, _ in lines})
                   for docno, r, score in lines if r == rank]
        runs = read_run_file(io.BytesIO(text.encode()))
        assert [list(zip(r.docnos, r.scores.tolist())) for r in runs] == (
            [by_rank] if lines else [])


ascii_names = st.text(st.sampled_from("aZ09-_.%"), min_size=1, max_size=4)


@st.composite
def canonical_runs(draw):
    """The text ``write_run`` writes for drawn runs, its lines in any
    order; some runs have more lines than one block of the column reader."""
    runs = []
    for qid in draw(st.lists(ascii_names, min_size=1, max_size=3, unique=True)):
        n = draw(st.sampled_from([1, 2, 7, 700, 1500]))
        scores = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=4))
        prefix = draw(ascii_names)
        runs.append(RankedRun(qid, ["%s%d" % (prefix, i) for i in range(n)],
                              np.array([scores[i % len(scores)] for i in range(n)]),
                              draw(ascii_names)))
    lines = run_text(runs).splitlines(keepends=True)
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(lines)
    return lines


def _set_field(line: str, k: int, value: str) -> str:
    fields = line[:-1].split(" ")
    fields[k] = value
    return " ".join(fields) + "\n"


# each changes line i of a canonical run's lines; the column reader must
# then refuse the text or read it as the line reader does
PERTURBATIONS = {
    "tab": lambda line, i: line.replace(" ", "\t", 1),
    "crlf": lambda line, i: line[:-1] + "\r\n",
    "no newline": lambda line, i: line[:-1],  # on the last line: no final newline
    "x1c": lambda line, i: line.replace(" ", "\x1c", 1),
    "em space": lambda line, i: line.replace(" ", "\u2003", 1),
    "double space": lambda line, i: line.replace(" ", "  ", 1),
    "arabic docno": lambda line, i: _set_field(line, 2, "قال"),
    "bad rank": lambda line, i: _set_field(line, 3, "x"),
    "other rank": lambda line, i: _set_field(line, 3, str(i % 3)),
    "bad score": lambda line, i: _set_field(line, 4, "zz"),
    "duplicate docno": lambda line, i: line + line,
    "interleaved qid": lambda line, i: _set_field(line, 0, "q%d" % (i % 2)),
    "other tag": lambda line, i: _set_field(line, 5, "t%d" % (i % 2)),
}


# scores of nine integer digits or fewer, and edge cases of rounding
exact_scores = st.one_of(
    st.floats(-999999999.0, 999999999.0), st.floats(-1e-3, 1e-3),
    st.integers(1 - 10 ** 15, 10 ** 15 - 1).map(lambda n: n / 10 ** 6),
    st.sampled_from([-0.0, 5e-7, -5e-7, 0.0078125, 999999999.9999994]))
# one score per text that numpy does not convert: ten integer digits or
# more, or text that ``float`` reads in another form
other_scores = st.one_of(
    st.floats(min_value=1e9, allow_infinity=False).map("%.6f".__mod__),
    st.floats(max_value=-1e9, allow_infinity=False).map("%.6f".__mod__),
    st.sampled_from(["+1.5", "1e-3", "1_0.5", "-.500000", "0.5", "1.5000000", "inf",
                     "-0", "00000000001.000000", "12345678", "-nan"]))


def bitwise(runs) -> list:
    """Runs as values equal only where each score's bits are: -0.0 is not
    0.0, and a NaN equals itself."""
    return [(r.qid, r.tag, r.docnos, r.scores.view(np.int64).tolist()) for r in runs]


def _line_reader(text: str):
    try:
        return bitwise(_read_run_lines(text, "run"))
    except ParseError as exc:
        return str(exc)


class TestRunReaders:
    """The column reader answers for canonical text, and then as the line
    reader does; on any other text ``read_run_file`` gives the line
    reader's runs or its error."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(lines=canonical_runs())
    def test_canonical_text_is_read_by_columns(self, lines):
        text = "".join(lines)
        runs = _read_run_columns(text.encode())
        ranks: dict[str, list[int]] = {}
        for line in lines:
            ranks.setdefault(line.split(" ")[0], []).append(int(line.split(" ")[3]))
        # not as written: shuffled out of rank order, or a score inf or of ten digits or more
        written = (all(r == list(range(1, len(r) + 1)) for r in ranks.values())
                   and all(re.fullmatch(r"-?\d{1,9}\.\d{6}", line.split(" ")[4])
                           for line in lines))
        assert (runs is not None) == written
        assert bitwise(read_run_file(io.BytesIO(text.encode()))) == _line_reader(text)  # tags included

    @settings(max_examples=200, deadline=None, database=None)
    @given(lines=canonical_runs(), change=st.sampled_from(sorted(PERTURBATIONS)),
           data=st.data())
    def test_changed_text_is_read_as_by_lines(self, lines, change, data):
        i = data.draw(st.integers(0, len(lines) - 1) | st.just(len(lines) - 1))
        lines[i] = PERTURBATIONS[change](lines[i], i)
        text = "".join(lines)
        try:
            got = bitwise(read_run_file(io.BytesIO(text.encode())))
        except ParseError as exc:
            got = str(exc)
        assert got == _line_reader(text)

    @settings(max_examples=300, deadline=None, database=None)
    @given(scores=st.lists(exact_scores, min_size=1, max_size=30),
           other=st.none() | other_scores, data=st.data())
    @example(scores=[-0.0, 0.0, 5e-7, -5e-7, 0.0078125, 999999999.9999994],
             other=None, data=None)
    @example(scores=[0.5], other="%.6f" % 1e9, data=None)
    @example(scores=[0.5, -2.0], other="+1.5", data=None)
    @example(scores=[0.5, -2.0], other="1e-3", data=None)
    @example(scores=[0.5, -2.0], other="1_0.5", data=None)
    @example(scores=[-0.0, 0.0], other="-nan", data=None)
    def test_scores_read_as_float_reads_them(self, scores, other, data):
        """Scores as ``%.6f`` writes them, ``-?d+.dddddd``, which numpy
        converts up to nine integer digits, and the line reader past them,
        as it does other score text that ``float`` reads: bit for bit
        ``float``'s value.  Runs compare equal bit for bit."""
        texts = ["%.6f" % score for score in scores]
        if other is not None:
            texts[data.draw(st.integers(0, len(texts) - 1)) if data else -1] = other
        text = "".join("q Q0 D%d %d %s T\n" % (i, i + 1, s) for i, s in enumerate(texts))
        with pytest.MonkeyPatch.context() as patch:
            if other is None:  # numpy converts every score, without float
                patch.setattr(stoplab.cli, "float", None, raising=False)
            runs = _read_run_columns(text.encode())
        assert (runs is None) == (other is not None)
        runs = read_run_file(io.BytesIO(text.encode()))
        assert bitwise(runs) == _line_reader(text)
        assert runs[0].scores.view(np.int64).tolist() == (
            np.array([float(s) for s in texts]).view(np.int64).tolist())
        assert runs == read_run_file(io.BytesIO(text.encode()))  # a NaN score too
        zero = runs[0].scores == 0  # -0.0 too, which is not 0.0
        plus_zero = RankedRun("q", runs[0].docnos, np.where(zero, 0.0, runs[0].scores), "T")
        assert (runs[0] == plus_zero) == (not np.signbit(runs[0].scores[zero]).any())

    @pytest.mark.parametrize("change", ["reversed lines", "ranks from 0",
                                        "1000000000.000000", "1e-3", "-nan"])
    def test_text_write_run_never_writes_is_read_by_lines(self, change):
        """Text that is canonical but for its ranks or one score, which
        ``write_run`` never writes: the column reader hands it over."""
        lines = run_text([RankedRun(qid, ["%s%d" % (qid, i) for i in range(n)],
                                    np.linspace(n / 3, -n / 7, n), "T")
                          for qid, n in (("a", 4100), ("b", 3))]).splitlines(keepends=True)
        assert _read_run_columns("".join(lines).encode()) is not None
        if change == "reversed lines":
            lines.reverse()
        elif change == "ranks from 0":
            lines = [_set_field(line, 3, str(int(line.split(" ")[3]) - 1)) for line in lines]
        else:  # a score in the second block
            lines[4097] = _set_field(lines[4097], 4, change)
        text = "".join(lines)
        assert _read_run_columns(text.encode()) is None
        assert bitwise(read_run_file(io.BytesIO(text.encode()))) == _line_reader(text)

    @pytest.mark.parametrize("interleave", [False, True])
    def test_queries_across_blocks_are_read_by_columns(self, interleave):
        """A query of more lines than one block holds, alone or with its
        lines alternating with another query's."""
        runs = [RankedRun(qid, ["%s%d" % (qid, i) for i in range(n)],
                          np.linspace(n / 3, -n / 7, n), "T" + qid)
                for qid, n in (("a", 5000), ("b", 3100))]
        lines = run_text(runs).splitlines(keepends=True)
        if interleave:
            lines = [*(line for pair in zip(lines, lines[5000:]) for line in pair),
                     *lines[3100:5000]]
        text = "".join(lines)
        got = _read_run_columns(text.encode())
        assert got is not None
        assert bitwise(got) == _line_reader(text)
        assert [(r.qid, r.docnos, r.tag) for r in got] == [
            (r.qid, r.docnos, r.tag) for r in runs]

    # each case's queries, in file order, as (qid, lines); "alternating"
    # interleaves its queries' lines one by one
    QID_CASES = {
        "prefixes": [(qid, 3) for qid in ("100", "10", "1", "a", "ab", "abc", "b")],
        "alternating": [("1", 40), ("12", 40), ("123", 40)],
        "change on the block boundary": [("5", 4096), ("55", 3), ("5x", 2)],
        "change one line after it": [("55", 4097), ("5", 3)],
    }

    @pytest.mark.parametrize("case", sorted(QID_CASES))
    def test_qid_changes_are_found_from_bytes(self, case):
        """Where neighbouring qids are prefixes of one another, where qids of
        different lengths alternate line by line, and where a query changes
        on the first line of a block or the line after it, the column reader
        finds each query's lines as the line reader does, bit for bit."""
        runs = [RankedRun(qid, ["D%d" % i for i in range(n)],
                          np.linspace(n / 3, -n / 7, n), "T" + qid)
                for qid, n in self.QID_CASES[case]]
        lines = [run_text([run]).splitlines(keepends=True) for run in runs]
        if case == "alternating":
            lines = [[line for group in zip(*lines) for line in group]]
        text = "".join(line for group in lines for line in group)
        got = _read_run_columns(text.encode())
        assert got is not None
        assert bitwise(got) == _line_reader(text)
        assert [r.qid for r in got] == [qid for qid, _ in self.QID_CASES[case]]


@pytest.mark.parametrize("by", ["columns", "lines"])
def test_gzipped_run_reads_as_the_plain_file(tmp_path, by):
    """A ``.gz`` run is gunzipped, then read by columns as ``search`` writes
    it or line by line otherwise (here ``\\r\\n`` line ends), to the runs of
    the plain file, and of the same file opened as text."""
    text = run_text([RankedRun(qid, ["D%d" % i for i in range(n)],
                               np.linspace(n / 3, -n / 7, n), "T")
                     for qid, n in (("1", 5000), ("2", 7))])
    if by == "lines":
        text = text.replace("\n", "\r\n")
    assert (_read_run_columns(text.encode()) is None) == (by == "lines")
    plain, gz = tmp_path / "x.run", tmp_path / "x.run.gz"
    plain.write_bytes(text.encode())
    gz.write_bytes(gzip.compress(text.encode()))
    want = bitwise(read_run_file(plain))
    assert want == _line_reader(text.replace("\r\n", "\n"))
    assert bitwise(read_run_file(str(gz))) == want
    with open(plain, encoding="utf-8") as f:
        assert bitwise(read_run_file(f)) == want


def memory_guard_text() -> str:
    """50 queries of 1,000 lines as ``write_run`` writes them."""
    ranks = np.arange(1, 1001)
    return run_text([RankedRun(str(q), ["SYN%04d" % ((7919 * q + 4729 * r) % 5000)
                                         for r in ranks.tolist()],
                               30.0 - 0.0173 * ranks - 0.01 * q, "TFIDF_CBS")
                     for q in range(1, 51)])


def test_run_reader_peak_memory(tmp_path):
    """The tracemalloc peak of ``read_run_file`` on ``memory_guard_text``
    stays at or below that of the reader it replaced, which split each
    block of 1,024 lines into all of its fields: 10,422,601 bytes, read
    from the same file on Python 3.11 and numpy 2.4 (up to 10,430,499 the
    first time in a process)."""
    path = tmp_path / "guard.run"
    path.write_text(memory_guard_text(), encoding="ascii")
    assert _read_run_columns(path.read_bytes()) is not None
    tracemalloc.start()
    try:
        runs = read_run_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(runs) == 50
    assert peak <= 10_422_601


def test_index_peak_memory(tmp_path, capsys):
    """The tracemalloc peak of an unstopped ``index`` on criterion 8's desk
    corpus stays well below that of the build it replaced, which held the
    whole decoded corpus, int64 token arrays and a joined copy of the file:
    13,226,187 bytes, against 7,709,802 now, on Python 3.11.7 and numpy
    2.4.6."""
    corpus, _, _ = _write_desk_corpus(tmp_path, random.Random(1008))
    tracemalloc.start()
    try:
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "d.idx")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 10_500_000


# '%' and '(' in qids, docnos and tags would break an unescaped format
format_words = st.text(st.sampled_from("%sdf(.)1ق"), min_size=1, max_size=6)
format_scores = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, -5e-324, 5e-7, -5e-7]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def runs_to_write(draw):
    """A run of 0, 1 or 1000 lines, its docnos and scores cycled from short
    drawn lists, so long runs stay cheap to draw."""
    n = draw(st.sampled_from([0, 1, 1000]))
    docnos = draw(st.lists(format_words, min_size=1, max_size=5))
    scores = draw(st.lists(format_scores, min_size=1, max_size=5))
    return RankedRun(draw(format_words), [docnos[i % len(docnos)] for i in range(n)],
                     np.array([scores[i % len(scores)] for i in range(n)]),
                     draw(format_words))


class TestWriteRun:
    @settings(max_examples=200, deadline=None, database=None)
    @given(runs=st.lists(runs_to_write(), max_size=3))
    def test_bytes_match_per_line_oracle(self, runs):
        expected = io.StringIO()
        for run in runs:
            oracles.write_run(run, expected)
        assert run_text(runs) == expected.getvalue()

    def test_rank_strings_as_formatted_ranks(self, monkeypatch):
        monkeypatch.setattr(stoplab.cli, "_rank_strings", ())
        for n, qid, tag in [(3, "q1", "T"), (1500, "q2", "T"), (2, "%d%%", "a%s")]:
            run = RankedRun(qid, ["D%d" % i for i in range(n)],
                            np.linspace(1.0, -1.0, n), tag)
            assert run_text([run]).splitlines(keepends=True) == [
                "%s Q0 %s %d %.6f %s\n" % (qid, docno, rank, score, tag)
                for rank, (docno, score) in enumerate(
                    zip(run.docnos, run.scores.tolist()), start=1)]

    def test_concurrent_writers_see_whole_rank_strings(self, monkeypatch):
        # writers of different lengths race to grow the cache, emptied often
        monkeypatch.setattr(stoplab.cli, "_rank_strings", ())
        runs = [RankedRun("q", ["D%d" % i for i in range(n)], np.zeros(n), "T")
                for n in (5, 300, 1200, 40, 700, 2, 1000, 90)]
        expected = []
        for run in runs:
            oracles.write_run(run, out := io.StringIO())
            expected.append(out.getvalue())

        def writer(i):
            for j in range(200):
                if j % 4 == i % 4:
                    stoplab.cli._rank_strings = ()
                assert run_text([runs[i]]) == expected[i]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(runs)) as pool:
                futures = [pool.submit(writer, i) for i in range(len(runs))]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)


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

    def test_single_report_is_usage_error(self, tmp_path, capsys):
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 2},
                             self.qrels_text(["1", "2"]), capsys)
        assert main(["compare", str(a)]) == 1
        assert capsys.readouterr().err == "error: compare needs at least two reports\n"

    def test_one_shared_query_is_refused(self, tmp_path, capsys):
        qrels = self.qrels_text(["1"])
        a = self.make_report(tmp_path, "TFIDF", {"1": 1}, qrels, capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 2}, qrels, capsys)
        assert main(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == (
            "error: compare needs at least 2 queries; the reports share 1\n")

    def test_mismatched_qid_sets_rejected(self, tmp_path, capsys):
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 2},
                             self.qrels_text(["1", "2"]), capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 1, "3": 2},
                             self.qrels_text(["1", "3"]), capsys)
        rc = main(["compare", str(a), str(b)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2" in err and "3" in err

    def test_reports_from_different_qrels_refused(self, tmp_path, capsys):
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 2},
                             self.qrels_text(["1", "2"]), capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 1, "2": 2},
                             self.qrels_text(["1", "1", "2"]).replace("REL", "X", 1),
                             capsys)
        assert (main(["compare", str(a), str(b)]), *capsys.readouterr()) == (
            2, "", "error: %s: query 1 has 2 relevant documents, %s has 1: the reports "
                   "were evaluated against different qrels\n" % (b, a))

    def test_repeated_tag_names_both_reports(self, tmp_path, capsys):
        qrels = self.qrels_text(["1", "2"])
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 2}, qrels, capsys)
        b = tmp_path / "copy.tsv"
        b.write_bytes(a.read_bytes())
        rc = main(["compare", str(a), str(b)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: %s: technique tag TFIDF repeats %s\n" % (b, a))

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_ap_in_report_is_refused(self, tmp_path, capsys, value):
        qrels = self.qrels_text(["1", "2"])
        a = self.make_report(tmp_path, "TFIDF", {"1": 1, "2": 2}, qrels, capsys)
        b = self.make_report(tmp_path, "BM25", {"1": 2, "2": 1}, qrels, capsys)
        lines = b.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split("\t")
        fields[5] = value  # the AP column of query 2
        lines[2] = "\t".join(fields)
        b.write_text("".join(lines), encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == (
            "error: %s line 3: average precision %s is not finite\n" % (b, value))


def _report_row(tag, qid, ap):
    return "\t".join([tag, qid, "1", "1", "1", ap] + ["0.5"] * 21) + "\n"


class TestReportRows:
    """A report is read back only as ``eval`` writes it: the exact header,
    then one technique's rows, each query id once."""

    HEADER = "\t".join(stoplab.cli._TSV_COLUMNS) + "\n"

    def read(self, tmp_path, text):
        path = tmp_path / "r.tsv"
        path.write_text(text, encoding="utf-8")
        return str(path), lambda: read_report_tsv(str(path))

    def test_rows_as_eval_writes_them(self, tmp_path):
        _, read = self.read(tmp_path, self.HEADER + _report_row("T", "1", "0.1")
                            + "\n" + _report_row("T", "2", "0.3")
                            + _report_row("T", "all", "0.2"))
        assert read() == ("T", {"1": {"ap": 0.1, "num_relevant": 1},
                                "2": {"ap": 0.3, "num_relevant": 1}})

    @pytest.mark.parametrize("rows, message", [
        ([("T", "1", "0.1"), ("T", "1", "0.9"), ("T", "2", "0.3")],
         "line 3: query 1 repeats"),
        ([("T", "1", "0.1"), ("T", "all", "0.1"), ("T", "all", "0.1")],
         "line 4: query all repeats"),
        ([("T", "1", "0.1"), ("U", "2", "0.3")],
         "line 3: technique tag U differs from the first row's, T"),
        ([("T", "1", "0.1"), ("T", "2", "0.3"), ("U", "all", "0.2")],
         "line 4: technique tag U differs from the first row's, T"),
    ], ids=["repeated-qid", "repeated-all", "other-tag", "other-tag-all"])
    def test_rows_eval_never_writes_are_refused(self, tmp_path, capsys, rows, message):
        path, read = self.read(tmp_path, self.HEADER + "".join(
            _report_row(*row) for row in rows))
        with pytest.raises(ParseError) as info:
            read()
        assert str(info.value) == "%s %s" % (path, message)
        other = tmp_path / "other.tsv"
        other.write_text(self.HEADER + _report_row("V", "1", "0.5")
                         + _report_row("V", "2", "0.5"), encoding="utf-8")
        assert main(["compare", str(other), path, "--baseline", "V"]) == 2
        assert capsys.readouterr() == ("", "error: %s %s\n" % (path, message))

    @pytest.mark.parametrize("header", [
        HEADER.replace("\n", "\textra\n"),
        HEADER.replace("ap\t", "AP\t"),
        "\n" + HEADER,
        "1 Q0 D1 1 0.5 T\n",
        "",
    ], ids=["extra-column", "renamed-column", "blank-first-line", "run-line", "empty"])
    def test_first_line_must_be_the_header(self, tmp_path, header):
        path, read = self.read(tmp_path, header + _report_row("T", "1", "0.1"))
        with pytest.raises(ParseError) as info:
            read()
        assert str(info.value) == "%s: not a recognized report file" % path

    def test_row_width_message(self, tmp_path):
        path, read = self.read(tmp_path, self.HEADER + _report_row("T", "1", "0.1")
                               + "T\t2\t1\n")
        with pytest.raises(ParseError) as info:
            read()
        assert str(info.value) == "%s line 3: expected 27 fields, got 3" % path


class TestStoplistCommand:
    @pytest.mark.parametrize("argv", [
        ["stoplist", "inspect", "--list", "{list}"],
        ["stoplist", "build", "--index", "{idx}", "--cutoff", "0", "--exclude", "{list}",
         "--out", "{out}"],
        ["index", "--corpus", "{corpus}", "--stoplist", "{list}", "--out", "{out}"],
    ], ids=["inspect", "build-exclude", "index"])
    def test_entry_that_is_not_one_token_is_refused(self, toy, capsys, argv):
        tmp, corpus, _ = toy
        idx, stoplist, out = tmp / "t.idx", tmp / "list.txt", tmp / "out"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        stoplist.write_text("solo\ntwo words\n", encoding="utf-8")
        capsys.readouterr()
        paths = {"list": stoplist, "idx": idx, "out": out, "corpus": corpus}
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr() == (
            "", "error: %s line 2: stopword 'two words' is not one token\n" % stoplist)
        assert not out.exists()

    def test_inspect_bundled_overlap(self, capsys):
        rc = main(["stoplist", "inspect", "--list", "GS", "--other", "CBS"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "list GS: 945 words" in out
        assert "list CBS: 230 words" in out
        assert "overlap: 82" in out
        assert "union:   1093" in out

    @pytest.mark.parametrize("argv", [
        ["inspect", "--list", "none"],
        ["inspect", "--list", "GS", "--other", "none"],
        ["combine", "--a", "none", "--b", "GS", "--out", "x.txt"],
        ["combine", "--a", "GS", "--b", "none", "--out", "x.txt"],
    ])
    def test_none_is_refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["stoplist", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 'none' is only for index --stoplist; give GS, CBS, CS or a file\n")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("argv, source", [
        (["index", "--corpus", "{corpus}", "--stoplist", "{tmp}/my list.txt",
          "--out", "{tmp}/out"], "{tmp}/my list.txt: "),
        (["stoplist", "build", "--index", "{tmp}/t.idx", "--cutoff", "0", "--name", "x y",
          "--out", "{tmp}/out"], ""),
        (["stoplist", "combine", "--a", "GS", "--b", "{tmp}/my list.txt", "--out", "{tmp}/out"],
         "{tmp}/my list.txt: "),
    ], ids=["index", "build", "combine"])
    def test_name_with_whitespace_refused(self, toy, capsys, argv, source):
        tmp, corpus, _ = toy
        (tmp / "my list.txt").write_text("a\n", encoding="utf-8")
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp / "t.idx")]) == 0
        before = sorted(tmp.iterdir())
        capsys.readouterr()
        rc = main([a.format(corpus=corpus, tmp=tmp) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: %sstoplist name " % source.format(tmp=tmp))
        assert err.count("\n") == 1
        assert sorted(tmp.iterdir()) == before  # no output, no temp file

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

    def test_build_cutoff_above_max_warns_and_writes_empty(self, toy, tmp_path, caplog):
        tmp, corpus, _ = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        out_file = tmp_path / "empty.txt"
        rc = main(["stoplist", "build", "--index", str(idx), "--cutoff", "99",
                   "--out", str(out_file)])
        assert rc == 0
        assert caplog.record_tuples == [(
            "stoplab.stoplists", logging.WARNING,
            "no term has a collection frequency above cutoff 99; the list is empty")]
        words = [
            l for l in out_file.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")
        ]
        assert words == []

    def test_build_exclusions_of_every_term_warn_and_write_empty(self, toy, tmp_path,
                                                                 caplog):
        # every ctf is at least 1, so the cutoff is not what empties the list
        tmp, corpus, _ = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        excl = tmp_path / "excl.txt"
        excl.write_text("a\nb\nc\n")
        out_file = tmp_path / "empty.txt"
        rc = main(["stoplist", "build", "--index", str(idx), "--cutoff", "0",
                   "--exclude", str(excl), "--out", str(out_file)])
        assert rc == 0
        assert caplog.record_tuples == [(
            "stoplab.stoplists", logging.WARNING,
            "the exclusions remove every term above cutoff 0, 3 in all; the list is empty")]
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

    def test_bad_second_corpus_file_is_named(self, toy, capsys, monkeypatch):
        tmp, corpus, _ = toy
        bad = tmp / "bad.sgml"
        # the fault in the only slice, and after a good block, which a
        # slice size of 8 bytes leaves in a slice of its own
        default, good = stoplab.cli.CORPUS_SLICE, GOOD_DOC.encode()
        for size, head in ((default, b""), (default, good), (8, good)):
            monkeypatch.setattr(stoplab.cli, "CORPUS_SLICE", size)
            bad.write_bytes(head + BAD_UTF8_SGML)
            rc = main(["index", "--corpus", str(corpus), str(bad),
                       "--out", str(tmp / "t.idx")])
            assert rc == 2
            assert capsys.readouterr().err == (
                "error: %s line %d: invalid utf-8 at byte %d: invalid start byte\n"
                % (bad, 1 + head.count(b"\n"), 27 + len(head)))
            assert not (tmp / "t.idx").exists()

    @pytest.mark.parametrize("text, message", [
        ("<DOC><DOCNO>X</DOCNO><TEXT>a", "unterminated <DOC> block at offset 0"),
        ("\n<DOC><TEXT>a</TEXT></DOC>", "<DOC> block at offset 1 has no <DOCNO>"),
        ("<DOC><DOCNO>X</DOCNO><TEXT>a</DOC>",
         "unterminated <TEXT> in document 'X' (offset 0)"),
    ])
    def test_bad_second_corpus_block_is_named(self, toy, capsys, monkeypatch,
                                              text, message):
        tmp, corpus, _ = toy
        bad = tmp / "bad.sgml"
        # as above, the fault in the only slice and after a good block; its
        # offset is into the whole file
        later = re.sub(r"offset (\d+)",
                       lambda m: "offset %d" % (int(m[1]) + len(GOOD_DOC)), message)
        default = stoplab.cli.CORPUS_SLICE
        for size, head, want in ((default, "", message), (default, GOOD_DOC, later),
                                 (8, GOOD_DOC, later)):
            monkeypatch.setattr(stoplab.cli, "CORPUS_SLICE", size)
            bad.write_text(head + text, encoding="utf-8")
            rc = main(["index", "--corpus", str(corpus), str(bad),
                       "--out", str(tmp / "t.idx")])
            assert rc == 2
            assert capsys.readouterr().err == "error: %s: %s\n" % (bad, want)
            assert not (tmp / "t.idx").exists()

    @pytest.mark.parametrize("kind", ["files", "gzip", "cp1256"])
    def test_sliced_corpus_indexes_as_whole(self, tmp_path, monkeypatch, capsys, kind):
        text = sliced_corpus_text(60)
        encoding = "cp1256" if kind == "cp1256" else "utf-8"
        data = text.encode(encoding)
        assert len(data) > 20 * 300  # so a slice size of 300 makes 20 or more
        if kind == "files":  # 20 blocks a file, each after a byte-order mark
            blocks = text.split("between")
            paths = [tmp_path / ("c%d.sgml" % i) for i in range(3)]
            for i, path in enumerate(paths):
                part = "between".join(blocks[20 * i:20 * i + 20])
                path.write_bytes(b"\xef\xbb\xbf" + part.encode())
        elif kind == "gzip":
            paths = [tmp_path / "c.sgml.gz"]
            paths[0].write_bytes(gzip.compress(data))
        else:
            paths = [tmp_path / "c.sgml"]
            paths[0].write_bytes(data)
        argv = ["index", "--corpus", *map(str, paths), "--stoplist", "GS",
                "--encoding", "cp1256" if kind == "cp1256" else "utf8", "--out"]
        assert main(argv + [str(tmp_path / "whole.idx")]) == 0
        monkeypatch.setattr(stoplab.cli, "CORPUS_SLICE", 300)
        assert main(argv + [str(tmp_path / "sliced.idx")]) == 0
        whole = (tmp_path / "whole.idx").read_bytes()
        assert (tmp_path / "sliced.idx").read_bytes() == whole
        assert Index.load(io.BytesIO(whole)).N == 60

    @pytest.mark.parametrize("text", ["", TOY_TOPIC], ids=["empty", "topics"])
    def test_corpus_file_without_documents_is_refused(self, toy, capsys, text):
        tmp, corpus, _ = toy
        bad = tmp / "bad.sgml"
        bad.write_text(text, encoding="utf-8")
        before = sorted(tmp.iterdir())
        rc = main(["index", "--corpus", str(corpus), str(bad),
                   "--out", str(tmp / "t.idx")])
        assert rc == 2
        assert capsys.readouterr().err == "error: %s: no <DOC> blocks\n" % bad
        assert sorted(tmp.iterdir()) == before

    def test_corpus_directory_without_files_is_refused(self, toy, capsys):
        tmp, corpus, _ = toy
        empty = tmp / "empty"
        (empty / "sub").mkdir(parents=True)
        before = sorted(tmp.rglob("*"))
        rc = main(["index", "--corpus", str(corpus), str(empty),
                   "--out", str(tmp / "t.idx")])
        assert rc == 2
        assert capsys.readouterr().err == "error: %s: no corpus files\n" % empty
        assert sorted(tmp.rglob("*")) == before

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
        tmp, corpus, topics = toy
        old = tmp / "old.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(old)]) == 0
        current = old.read_bytes()
        for magic in (b"ARIDX001", b"ARIDX002"):
            old.write_bytes(magic + current[len(magic):])
            capsys.readouterr()
            assert main(["search", "--index", str(old), "--topics", str(topics)]) == 2
            assert capsys.readouterr().err == (
                "error: %s: index file has the retired %s format; rebuild the index "
                "with `stoplab index`\n" % (old, magic.decode()))
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


    def test_damaged_index_is_named(self, toy, capsys):
        tmp, corpus, topics = toy
        idx = tmp / "b.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        blob = bytearray(idx.read_bytes())
        blob[-1] ^= 1
        idx.write_bytes(bytes(blob))
        capsys.readouterr()
        for argv in (["search", "--index", str(idx), "--topics", str(topics)],
                     ["stoplist", "build", "--index", str(idx), "--cutoff", "1",
                      "--out", str(tmp / "s.txt")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "error: %s: corrupt index file: checksum mismatch\n" % idx)
        idx.write_bytes(bytes(blob[:-8]))
        assert main(["search", "--index", str(idx), "--topics", str(topics)]) == 2
        assert capsys.readouterr().err == "error: %s: truncated index file\n" % idx


# documents of unequal lengths, so that every model parameter moves a score
OPTION_SGML = (
    "<DOC><DOCNO>D1</DOCNO><TEXT>a b</TEXT></DOC>\n"
    "<DOC><DOCNO>D2</DOCNO><TEXT>b c c d</TEXT></DOC>\n"
    "<DOC><DOCNO>D3</DOCNO><TEXT>a a d e f g</TEXT></DOC>\n"
)
# a repeated query term, so that BM25's k3 moves a score
OPTION_TOPICS = ("<top><num>1</num><title>a a b</title></top>\n"
                 "<top><num>2</num><title>c d</title></top>\n")
ARABIC_SGML = "<DOC><DOCNO>D1</DOCNO><TEXT>قال الوزير</TEXT></DOC>\n"
ARABIC_TOPICS = "<top><num>1</num><title>قال</title></top>\n"

# each index and search option, a value other than its default, and the
# command's other arguments
OPTION_CASES = [
    ("index", "corpus", "{corpus},{corpus2}", ""),
    ("index", "out", "", "--corpus {corpus}"),
    ("index", "encoding", "cp1256", "--corpus {arabic}"),
    ("index", "stoplist", "{stops}", "--corpus {corpus}"),
    ("index", "workers", "3", "--corpus {corpus}"),
    ("search", "index", "{index}", "--topics {topics}"),
    ("search", "topics", "{topics}", "--index {index}"),
    ("search", "model", "BM25", "--index {index} --topics {topics}"),
    ("search", "k1", "0.5", "--index {index} --topics {topics}"),
    ("search", "b", "0.9", "--index {index} --topics {topics}"),
    ("search", "k3", "0.5", "--index {index} --topics {topics} --model BM25"),
    ("search", "mu", "3", "--index {index} --topics {topics} --model KL"),
    ("search", "top_k", "1", "--index {index} --topics {topics}"),
    ("search", "out", "", "--index {index} --topics {topics}"),
    ("search", "encoding", "cp1256", "--index {arabic_index} --topics {arabic_topics}"),
]
# a manifest line that only the other command reads
OTHER_COMMAND_KEY = {"index": "model=KL", "search": "corpus=ghost.sgml"}


@pytest.fixture
def option_files(tmp_path):
    files = {name: tmp_path / name for name in (
        "corpus", "corpus2", "topics", "index", "stops", "arabic", "arabic_topics",
        "arabic_index")}
    files["corpus"].write_text(OPTION_SGML, encoding="utf-8")
    files["corpus2"].write_text("<DOC><DOCNO>D4</DOCNO><TEXT>a c e</TEXT></DOC>\n",
                                encoding="utf-8")
    files["topics"].write_text(OPTION_TOPICS, encoding="utf-8")
    files["stops"].write_text("b\n", encoding="utf-8")
    files["arabic"].write_bytes(ARABIC_SGML.encode("cp1256"))
    files["arabic_topics"].write_bytes(ARABIC_TOPICS.encode("cp1256"))
    assert main(["index", "--corpus", str(files["corpus"]),
                 "--out", str(files["index"])]) == 0
    assert main(["index", "--corpus", str(files["arabic"]), "--encoding", "cp1256",
                 "--out", str(files["arabic_index"])]) == 0
    return tmp_path, {**files, "tmp": tmp_path}


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

    @pytest.mark.parametrize("command, line, message", [
        ("search", "top_k=abc", "bad top_k: invalid literal for int() with base 10: 'abc'"),
        ("search", "k1=x", "bad k1: could not convert string to float: 'x'"),
        ("index", "encoding=latin1", "bad encoding: encoding must be one of ['cp1256', 'utf8']"),
    ])
    def test_bad_config_value_names_file_and_key(self, toy, capsys, command, line,
                                                 message):
        tmp, corpus, topics = toy
        idx = tmp / "t.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        cfg = tmp / "bad.cfg"
        cfg.write_text("model=BM25\n%s\n" % line, encoding="utf-8")
        capsys.readouterr()
        args = {"search": ["--index", str(idx), "--topics", str(topics)],
                "index": ["--corpus", str(corpus), "--out", str(tmp / "x.idx")]}
        rc = main([command, "--config", str(cfg), *args[command]])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s: %s\n" % (cfg, message)
        assert not (tmp / "x.idx").exists()

    @pytest.mark.parametrize("command, key, value, base", OPTION_CASES,
                             ids=["%s-%s" % case[:2] for case in OPTION_CASES])
    def test_manifest_key_acts_as_its_flag(self, option_files, capsys, command, key,
                                           value, base):
        """``key=value`` and ``--key value`` write the same file; without
        either the file differs, except for ``workers``, which has no
        effect.  A key of the other command is skipped."""
        tmp, files = option_files
        outputs = {}
        for via in ("config", "flag", "neither"):
            out = tmp / ("%s.out" % via)
            given = str(out) if key == "out" else value.format_map(files)
            argv = [command, *base.format_map(files).split()]
            if key != "out":
                argv += ["--out", str(out)]
            if via == "config":
                cfg = tmp / "m.cfg"
                cfg.write_text("%s\n%s=%s\n" % (OTHER_COMMAND_KEY[command], key, given),
                               encoding="utf-8")
                argv += ["--config", str(cfg)]
            elif via == "flag":
                argv += ["--" + key.replace("_", "-"), *given.split(",")]
            rc = main(argv)
            outputs[via] = out.read_bytes() if out.exists() else rc
        assert isinstance(outputs["config"], bytes)
        assert outputs["config"] == outputs["flag"]
        assert (outputs["neither"] == outputs["config"]) == (key == "workers")

    def test_option_cases_cover_every_option(self):
        commands = next(a for a in stoplab.cli._build_parser()._actions
                        if a.dest == "command").choices
        for command in ("index", "search"):
            dests = {a.dest for a in commands[command]._actions} - {"config", "help"}
            assert dests == {key for c, key, _, _ in OPTION_CASES if c == command}

    @pytest.mark.parametrize("command, line", [
        (command, line) for command in ("index", "search")
        for line in ("modle=BM25", "top-k=1", "config=x.cfg", "keep_marks=true")])
    def test_unknown_key_is_refused(self, option_files, capsys, command, line):
        """A key no command takes is a usage error naming the manifest, the
        line and the key, before any file is opened or written."""
        tmp, files = option_files
        cfg = tmp / "m.cfg"
        cfg.write_text("# manifest\nmodel=BM25\n%s\n" % line, encoding="utf-8")
        before = sorted(tmp.rglob("*"))
        argv = {"index": "index --corpus {corpus} --out {tmp}/x.out",
                "search": "search --index {index} --topics {topics} --out {tmp}/x.out"}
        rc = main([*argv[command].format_map(files).split(), "--config", str(cfg)])
        assert (rc, *capsys.readouterr()) == (
            1, "", "error: %s line 3: unknown key %r\n" % (cfg, line.split("=")[0]))
        assert sorted(tmp.rglob("*")) == before

    @pytest.mark.parametrize("command", ["index", "search"])
    @pytest.mark.parametrize("first, again", [
        ("model=BM25", "model=KL"), ("encoding=utf8", "encoding=utf8"),
        ("corpus={corpus}", "corpus={corpus2}")])
    def test_repeated_key_is_refused(self, option_files, capsys, command, first, again):
        """A key given twice is a usage error naming the manifest, both lines
        and the key, whether or not the values differ and whichever command
        takes the key, before any file is opened or written."""
        tmp, files = option_files
        cfg = tmp / "m.cfg"
        cfg.write_text(("%s\n# again\n%s\n" % (first, again)).format_map(files),
                       encoding="utf-8")
        before = sorted(tmp.rglob("*"))
        argv = {"index": "index --corpus {corpus} --out {tmp}/x.out",
                "search": "search --index {index} --topics {topics} --out {tmp}/x.out"}
        rc = main([*argv[command].format_map(files).split(), "--config", str(cfg)])
        assert (rc, *capsys.readouterr()) == (
            1, "", "error: %s lines 1 and 3: key %r given twice\n"
                   % (cfg, first.split("=")[0]))
        assert sorted(tmp.rglob("*")) == before


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


def _inputs(command, tmp, corpus, topics, present):
    """Arguments, all but ``--out``, with which ``command`` succeeds, or,
    with ``present`` false, whose first input is missing."""
    ghost = str(tmp / "ghost")
    if command in ("search", "stoplist build") and present:
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp / "t.idx")]) == 0
    first = str(tmp / "t.idx") if present else ghost
    return {
        "index": ["index", "--corpus", str(corpus) if present else ghost],
        "search": ["search", "--index", first, "--topics", str(topics)],
        "eval": ["eval", "--run", str(FIXTURES / "sample.run") if present else ghost,
                 "--qrels", str(FIXTURES / "sample.qrels")],
        "stoplist build": ["stoplist", "build", "--index", first, "--cutoff", "1"],
        "stoplist combine": ["stoplist", "combine", "--a", "GS" if present else ghost,
                             "--b", "CBS"],
    }[command]


class TestUnwritableOutput:
    """An ``--out`` that cannot be written is refused, by name, before any
    input is read: nothing on stdout, and no file left behind."""

    @pytest.mark.parametrize("present", [True, False], ids=["inputs", "no-inputs"])
    @pytest.mark.parametrize("target", ["nodir/x.out", "afile/x.out", "adir"])
    @pytest.mark.parametrize(
        "command", ["index", "search", "eval", "stoplist build", "stoplist combine"])
    def test_refused_before_inputs(self, toy, capsys, command, target, present):
        tmp, corpus, topics = toy
        (tmp / "afile").write_bytes(b"")
        (tmp / "adir").mkdir()
        argv = _inputs(command, tmp, corpus, topics, present)
        before = sorted(tmp.rglob("*"))
        capsys.readouterr()
        rc = main(argv + ["--out", str(tmp / target)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.endswith(": '%s'\n" % (tmp / target))
        assert err.count("\n") == 1
        assert sorted(tmp.rglob("*")) == before


class TestOutputOpenedFirst:
    """Each command opens its ``--out`` through ``atomic_write`` before it
    reads an input."""

    def test_index_written_into_its_own_corpus_directory(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "c.sgml").write_text(TOY_SGML, encoding="utf-8")
        out = corpus / "x.idx"
        assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert Index.load(out).docnos == ["D1", "D2", "D3"]
        assert sorted(p.name for p in corpus.iterdir()) == ["c.sgml", "x.idx"]

    def test_atomic_write_refuses_a_directory(self, tmp_path):
        target = tmp_path / "adir"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            with atomic_write(target):
                pytest.fail("the block ran")
        assert str(info.value).endswith(": '%s'" % target)
        assert info.value.filename == str(target)
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []


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


# each command with every file input it reads, and its --out if it has one
READING = {
    "index": "index --corpus {corpus} --stoplist {stoplist} --config {config} "
             "--out {out}",
    "search": "search --index {index} --topics {topics} --config {config} --out {out}",
    "eval": "eval --run {run} --qrels {qrels} --out {out}",
    "compare": "compare {report} {report2} --baseline FIX",
    "stoplist build": "stoplist build --index {index} --cutoff 1 --exclude {stoplist} "
                      "--out {out}",
    "stoplist combine": "stoplist combine --a {stoplist} --b {stoplist2} --out {out}",
    "stoplist inspect": "stoplist inspect --list {stoplist} --other {stoplist2}",
}
INPUTS = [(command, name) for command, argv in READING.items()
          for name in re.findall(r"{(\w+)}", argv) if name != "out"]


@pytest.fixture
def inputs(toy):
    """A good file for each input name in ``READING``, and the output."""
    tmp, corpus, topics = toy
    files = {"corpus": corpus, "topics": topics, "index": tmp / "t.idx",
             "run": tmp / "sample.run", "qrels": tmp / "sample.qrels",
             "report": tmp / "a.tsv", "report2": tmp / "b.tsv",
             "stoplist": tmp / "s.txt", "stoplist2": tmp / "s2.txt",
             "config": tmp / "c.cfg", "out": tmp / "target.out"}
    for name in ("run", "qrels"):
        files[name].write_bytes((FIXTURES / files[name].name).read_bytes())
    files["stoplist"].write_text("b\n", encoding="utf-8")
    files["stoplist2"].write_text("c\n", encoding="utf-8")
    files["config"].write_text("# no keys\n", encoding="utf-8")
    other = tmp / "other.run"
    other.write_text(files["run"].read_text().replace("FIX", "OTHER"))
    assert main(["index", "--corpus", str(corpus), "--out", str(files["index"])]) == 0
    for run, report in ((files["run"], files["report"]), (other, files["report2"])):
        assert main(["eval", "--run", str(run), "--qrels", str(files["qrels"]),
                     "--out", str(report)]) == 0
    return tmp, files


def _argv(command, files, **changed):
    return [token.format_map({**files, **changed}) for token in READING[command].split()]


class TestInputFaultsNamed:
    """An input that cannot be opened, missing or a directory, is named by
    the reader that opens it, when it opens it: one line ``error: <path>:
    <reason>``, exit 2, nothing on stdout, and no output or temporary file
    left behind."""

    @pytest.mark.parametrize("command", sorted(READING))
    def test_good_inputs_succeed(self, inputs, capsys, command):
        _, files = inputs
        assert main(_argv(command, files)) == 0

    # a corpus directory is walked for corpus files, so it is no fault
    @pytest.mark.parametrize("command, name, fault", [
        (command, name, fault) for command, name in INPUTS
        for fault in ("missing", "directory")
        if (command, name, fault) != ("index", "corpus", "directory")])
    def test_fault_names_the_input(self, inputs, capsys, command, name, fault):
        tmp, files = inputs
        bad = tmp / ("ghost" if fault == "missing" else "adir")
        if fault == "directory":
            bad.mkdir()
        before = sorted(tmp.rglob("*"))
        capsys.readouterr()
        rc = main(_argv(command, files, **{name: bad}))
        reason = "No such file or directory" if fault == "missing" else "Is a directory"
        assert (rc, *capsys.readouterr()) == (2, "", "error: %s: %s\n" % (bad, reason))
        assert sorted(tmp.rglob("*")) == before

    def test_missing_second_corpus_file_leaves_nothing(self, toy, capsys):
        """The build fails only after it has read the first file."""
        tmp, corpus, _ = toy
        before = sorted(tmp.rglob("*"))
        rc = main(["index", "--corpus", str(corpus), str(tmp / "ghost.sgml"),
                   "--out", str(tmp / "t.idx")])
        assert (rc, *capsys.readouterr()) == (
            2, "", "error: %s: No such file or directory\n" % (tmp / "ghost.sgml"))
        assert sorted(tmp.rglob("*")) == before

    def test_gz_named_index_is_searched(self, toy, capsys):
        tmp, corpus, topics = toy
        idx = tmp / "t.idx.gz"
        assert main(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        capsys.readouterr()
        assert main(["search", "--index", str(idx), "--topics", str(topics)]) == 0
        assert capsys.readouterr().out.startswith("1 Q0 D1 1 ")


class TestOutputNotAnInput:
    """An ``--out`` that is one of the command's own inputs is refused, by
    name, before anything is opened; the input keeps its bytes."""

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    @pytest.mark.parametrize("command, name", [
        case for case in INPUTS if "{out}" in READING[case[0]]])
    def test_refused(self, inputs, capsys, command, name, link):
        tmp, files = inputs
        out = files[name]
        if link:
            out = tmp / "link"
            out.symlink_to(files[name])
        data = files[name].read_bytes()
        before = sorted(tmp.rglob("*"))
        capsys.readouterr()
        rc = main(_argv(command, files, out=out))
        assert (rc, *capsys.readouterr()) == (
            1, "", "error: --out %s is also an input of this command\n" % out)
        assert files[name].read_bytes() == data
        assert sorted(tmp.rglob("*")) == before

    def test_out_from_config_naming_the_config(self, toy, capsys):
        tmp, corpus, _ = toy
        config = tmp / "c.cfg"
        config.write_text("out=%s\n" % config, encoding="utf-8")
        rc = main(["index", "--corpus", str(corpus), "--config", str(config)])
        assert (rc, *capsys.readouterr()) == (
            1, "", "error: --out %s is also an input of this command\n" % config)
        assert config.read_text(encoding="utf-8") == "out=%s\n" % config


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["index", "search", "eval", "compare",
                                         "stoplist build", "stoplist combine",
                                         "stoplist inspect"])
    def test_subcommand_help_exits_zero(self, capsys, command):
        assert main([*command.split(), "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: stoplab %s " % command)

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

import errno
import gzip
import io
import random
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stoplab.cli import main
from stoplab.errors import ParseError
import stoplab.index
from stoplab.index import Index, build_index, parse_trec_documents
from stoplab.stoplists import Stoplist
from stoplab.textpipe import normalize, tokenize

import oracles
from oracles import random_corpus, reference_index

TOY_DOCS = [("D1", "a b"), ("D2", "b c"), ("D3", "c c")]


def as_lists(postings) -> dict:
    return {term: plist.tolist() for term, plist in postings.items()}


def serialized(index: Index) -> bytes:
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


def fields(index: Index) -> tuple:
    """Every field an index is built from; the rest derive from them."""
    return (index.docnos, index.terms, index.doc_lengths.tolist(),
            index.doc_freqs.tolist(), index.pairs.tolist(), index.total_tokens,
            index.stoplist, index.stopwords_removed)


# Arabic letters with the alef, alef-maqsura and teh-marbuta variants that
# normalization folds, diacritics and tatweel, Latin letters and digits, and
# punctuation, so one whitespace chunk may hold no token, one, or several
ARABIC = "ابتجدةىيأإآ\u064b\u064e\u0650\u0651\u0652\u0640"
LATIN = "abZ09"
PUNCTUATION = "\u060c.-"
SEPARATORS = [" ", "\t", "\n", "\xa0", "\u2003", "\x85"]


@st.composite
def joined(draw, pool):
    """Up to 12 words of ``pool``, each pair split by one drawn whitespace
    character."""
    words = draw(st.lists(st.sampled_from(pool), max_size=12))
    gaps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(words), max_size=len(words)))
    return "".join(g + w for g, w in zip(gaps, words))[1:]  # no gap before the first


@st.composite
def corpora(draw):
    """(docs, stoplist): documents over a small pool of words,
    so terms repeat within and across them, some empty, docnos in random
    order, and a stoplist (or none) drawn from the corpus's own tokens."""
    pool = draw(st.lists(st.text(st.sampled_from(ARABIC + LATIN + PUNCTUATION),
                                 min_size=1, max_size=6),
                         min_size=1, max_size=8))
    texts = draw(st.lists(joined(pool), max_size=8))
    order = draw(st.permutations(range(len(texts))))
    docs = [("D%d" % i, text) for i, text in zip(order, texts)]
    words = sorted({t for _, text in docs for t in tokenize(normalize(text))})
    stopwords = frozenset(draw(st.sets(st.sampled_from(words)))) if words else frozenset()
    stoplist = draw(st.sampled_from([None, Stoplist("drawn", stopwords)]))
    return docs, stoplist


WORDS = ["قال", "الرئيس", "في", "news", "wire", "42", "a<b", "c>"]


@st.composite
def sgml_streams(draw):
    """TIPSTER streams of up to four documents, each with a DOCNO, an
    optional HEADER and one to three TEXT regions of Arabic and Latin words
    and inline <P> tags, with up to three fragments dropped or doubled, so
    most streams parse and the rest break a block in each way."""
    words = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)
    parts = []
    for n in range(draw(st.integers(0, 4))):
        parts += ["<DOC>", "\n", "<DOCNO>", " D%d " % n, "</DOCNO>"]
        if draw(st.booleans()):
            parts += ["<HEADER>", draw(words), "</HEADER>"]
        for _ in range(draw(st.integers(1, 3))):
            parts += ["<TEXT>", draw(words), "<P>", draw(words), "</P>", draw(words),
                      "</TEXT>"]
        parts += ["</DOC>", "\n"]
    if parts:
        edits = draw(st.lists(st.tuples(st.integers(0, len(parts) - 1),
                                        st.sampled_from([0, 2])), max_size=3))
        copies = [1] * len(parts)
        for i, count in edits:
            copies[i] = count
        parts = [part * k for part, k in zip(parts, copies)]
    return "".join(parts)


# anything but "<", so only the writer's own tags are markup
TEXT_CHARS = ARABIC + LATIN + PUNCTUATION + ">&;" + "".join(SEPARATORS)


@st.composite
def tipster_documents(draw):
    """Up to five documents, as (docno, header, regions): distinct docnos
    without whitespace, an optional HEADER, and one to three TEXT regions,
    each a list of fragments that the writer splits with <P> tags."""
    docnos = draw(st.lists(st.text(st.sampled_from(ARABIC + LATIN + "-."),
                                   min_size=1, max_size=6), unique=True, max_size=5))
    fragments = st.lists(st.text(st.sampled_from(TEXT_CHARS), max_size=12),
                         min_size=1, max_size=3)
    return [(docno, draw(st.none() | st.text(st.sampled_from(TEXT_CHARS), max_size=8)),
             draw(st.lists(fragments, min_size=1, max_size=3))) for docno in docnos]


def write_tipster(docs, gap: str = "\n") -> str:
    """Well-formed TIPSTER SGML of :func:`tipster_documents` output, with
    ``gap`` after each block, DOCNO, HEADER and TEXT region."""
    return "".join(
        "<DOC>%s<DOCNO> %s </DOCNO>%s%s%s</DOC>%s" % (
            gap, docno, gap,
            "" if header is None else "<HEADER>%s</HEADER>%s" % (header, gap),
            "".join("<TEXT>%s</TEXT>%s" % ("<P>".join(r), gap) for r in regions), gap)
        for docno, header, regions in docs)


def parsed(parser, text):
    """The pairs ``parser`` yields from ``text``, and the message of the
    ParseError that stopped it, or None."""
    pairs = []
    try:
        for pair in parser(text, "s.sgml"):
            pairs.append(pair)
    except ParseError as exc:
        return pairs, str(exc)
    return pairs, None


class TestParseTrecDocuments:
    def test_minimal_document(self):
        text = "<DOC>\n<DOCNO> D1 </DOCNO>\n<TEXT>\nقال\n</TEXT>\n</DOC>\n"
        docs = list(parse_trec_documents(text))
        assert len(docs) == 1
        assert docs[0][0] == "D1"
        assert docs[0][1].strip() == "قال"

    def test_empty_stream(self):
        assert list(parse_trec_documents("")) == []

    def test_two_documents_in_order(self):
        text = (
            "<DOC><DOCNO>A</DOCNO><TEXT>one</TEXT></DOC>"
            "<DOC><DOCNO>B</DOCNO><TEXT>two</TEXT></DOC>"
        )
        assert [d for d, _ in parse_trec_documents(text)] == ["A", "B"]

    def test_multiple_text_regions_concatenated(self):
        text = "<DOC><DOCNO>A</DOCNO><TEXT>x y</TEXT><TEXT>z</TEXT></DOC>"
        [(_, body)] = parse_trec_documents(text)
        assert body.split() == ["x", "y", "z"]

    def test_inline_tags_inside_text_dropped(self):
        text = "<DOC><DOCNO>A</DOCNO><TEXT><P>x</P> y</TEXT></DOC>"
        [(_, body)] = parse_trec_documents(text)
        assert body.split() == ["x", "y"]

    def test_other_regions_ignored(self):
        text = "<DOC><DOCNO>A</DOCNO><HEADER>skip</HEADER><TEXT>x</TEXT></DOC>"
        [(_, body)] = parse_trec_documents(text)
        assert body.split() == ["x"]

    def test_missing_docno_reports_offset(self):
        text = "<DOC><TEXT>x</TEXT></DOC>"
        with pytest.raises(ParseError, match="offset 0"):
            list(parse_trec_documents(text))

    def test_unterminated_block(self):
        with pytest.raises(ParseError, match="unterminated"):
            list(parse_trec_documents("<DOC><DOCNO>A</DOCNO><TEXT>x</TEXT>"))

    def test_doc_inside_a_block_is_unterminated(self):
        # without the check, A's block would run to B's </DOC> and B be lost
        text = ("<DOC><DOCNO>A</DOCNO><TEXT>x</TEXT>\n"
                "<DOC><DOCNO>B</DOCNO><TEXT>y</TEXT></DOC>")
        with pytest.raises(ParseError, match=r"^c\.sgml: unterminated <DOC> block at offset 0$"):
            list(parse_trec_documents(text, "c.sgml"))

    @settings(max_examples=200, deadline=None, database=None)
    @given(sgml_streams())
    def test_matches_regex_oracle(self, text):
        pairs, error = parsed(parse_trec_documents, text)
        want, want_error = parsed(oracles.parse_trec_documents, text)
        if error == want_error:
            assert pairs == want
        else:  # only the engine refuses a <DOC> inside a block
            assert error is not None, want_error
            start = int(error.rpartition(" ")[2])
            assert error == "s.sgml: unterminated <DOC> block at offset %d" % start
            assert text.find("<DOC>", start + 5, text.find("</DOC>", start)) != -1
            assert want[:len(pairs)] == pairs


    @settings(max_examples=200, deadline=None, database=None)
    @given(tipster_documents(), st.sampled_from(["", "\n", " \r\n"]))
    def test_written_documents_read_back(self, docs, gap):
        pairs = [(docno, "\n".join(" ".join(r) for r in regions))
                 for docno, _, regions in docs]
        assert list(parse_trec_documents(write_tipster(docs, gap), "s.sgml")) == pairs


class TestBuildIndex:
    def test_toy_counts(self):
        idx = build_index(TOY_DOCS)
        assert idx.N == 3
        assert idx.avgdl == 2.0
        assert idx.df("a") == 1
        assert idx.df("b") == 2
        assert idx.ctf["c"] == 3
        assert idx.total_tokens == 6

    def test_toy_with_stoplist(self):
        idx = build_index(TOY_DOCS, stoplist=Stoplist("x", frozenset({"b"})))
        assert idx.doc_lengths.tolist() == [1, 1, 2]
        assert as_lists(idx.postings) == {"a": [[0, 1]], "c": [[1, 1], [2, 2]]}
        assert idx.total_tokens == 4
        assert "b" not in idx.postings
        assert idx.stopwords_removed == 2

    def test_empty_corpus(self):
        idx = build_index([])
        assert idx.N == 0
        assert idx.postings == {}
        assert idx.ctf == {}
        assert idx.avgdl == 0.0

    def test_duplicate_docno_rejected(self):
        with pytest.raises(ParseError, match="D1"):
            build_index([("D1", "a"), ("D1", "b")])

    @pytest.mark.parametrize("docnos, first, again", [
        (["A", "A", "B"], 0, 1), (["B", "A", "B"], 0, 2), (["A", "B", "B"], 1, 2),
    ])
    def test_duplicate_docno_names_both_ordinals(self, docnos, first, again):
        with pytest.raises(stoplab.index.DuplicateDocno) as info:
            build_index([(docno, "a") for docno in docnos])
        assert (info.value.docno, info.value.first, info.value.again) == (
            docnos[again], first, again)

    @pytest.mark.parametrize("docno, message", [
        ("", "empty docno"), ("A 1", "docno 'A 1' contains whitespace"),
        ("A\t1", "docno 'A\\t1' contains whitespace"), (" A", "docno ' A' contains whitespace"),
        ("A\u2028", "docno %r contains whitespace" % "A\u2028"),
    ])
    def test_docno_a_run_file_cannot_hold_rejected(self, docno, message):
        match = "^%s$" % re.escape(message)
        with pytest.raises(stoplab.index.BadDocno, match=match) as info:
            build_index([("D1", "a"), (docno, "b")])
        assert info.value.ordinal == 1

    def test_empty_documents_kept(self):
        idx = build_index([("D1", ""), ("D2", "a")])
        assert idx.N == 2
        assert idx.doc_lengths.tolist() == [0, 1]

    def test_normalization_applied(self):
        idx = build_index([("D1", "أخبار")])
        assert "اخبار" in idx.postings

    def test_invariants_on_random_builds(self):
        rng = random.Random(21)
        for _ in range(30):
            docs = [(d, " ".join(t)) for d, t in random_corpus(rng, max_docs=60)]
            idx = build_index(docs)
            idx.check()
            assert sum(idx.ctf.values()) == idx.total_tokens == sum(idx.doc_lengths)
            for term, plist in idx.postings.items():
                assert len(plist) <= idx.N
                assert len(plist) <= idx.ctf[term]

    def test_stoplist_removes_exactly_the_stopword_mass(self):
        rng = random.Random(22)
        for _ in range(20):
            docs = [(d, " ".join(t)) for d, t in random_corpus(rng, max_docs=40)]
            plain = build_index(docs)
            vocab = sorted(plain.ctf)
            chosen = frozenset(rng.sample(vocab, min(3, len(vocab))))
            filtered = build_index(docs, stoplist=Stoplist("s", chosen))
            removed = sum(plain.ctf[w] for w in chosen)
            assert filtered.total_tokens == plain.total_tokens - removed
            assert filtered.stopwords_removed == removed


class TestBuildAgainstReference:
    @settings(max_examples=200, deadline=None, database=None)
    @given(corpus=corpora())
    @example(corpus=([], None))
    @example(corpus=([("D2", "a b a"), ("D1", "")], Stoplist("all", frozenset("ab"))))
    def test_build_matches_brute_force_and_round_trips(self, corpus):
        assert_matches_reference(*corpus)

    @settings(max_examples=200, deadline=None, database=None)
    @given(corpus=corpora(), copies=st.integers(1, 3))
    @example(corpus=([("D1", "a b"), ("D2", "c\u060cc a"), ("D3", ""), ("D4", "b. d")],
                     Stoplist("c", frozenset("c"))), copies=1)
    def test_documents_read_as_chunks_match_brute_force(self, corpus, copies):
        # every chunk recurs in `copies` documents, and is tokenized once for all
        docs, stoplist = corpus
        docs = [("%s.%d" % (docno, k), text) for k in range(copies) for docno, text in docs]
        assert_matches_reference(docs, stoplist)


def assert_matches_reference(docs, stoplist):
    idx = build_index(docs, stoplist=stoplist)
    tokens = [(docno, tokenize(normalize(text))) for docno, text in docs]
    ref = reference_index(tokens, stoplist.words if stoplist else frozenset())
    assert idx.docnos == [docno for docno, _ in docs]
    assert idx.terms == ref["terms"]
    assert as_lists(idx.postings) == ref["postings"]
    assert idx.doc_lengths.tolist() == ref["doc_lengths"]
    assert idx.ctf == ref["ctf"]
    assert all(type(c) is int for c in idx.ctf.values())
    assert idx.total_tokens == ref["total_tokens"]
    assert idx.stopwords_removed == ref["stopwords_removed"]
    # load(save(i)) == i
    blob = serialized(idx)
    loaded = Index.load(io.BytesIO(blob))
    assert serialized(loaded) == blob
    assert fields(loaded) == fields(idx)


class TestSerialization:
    def test_empty_stoplist_round_trips(self):
        idx = build_index(TOY_DOCS, stoplist=Stoplist("none-left", frozenset()))
        assert Index.load(io.BytesIO(serialized(idx))).stoplist == idx.stoplist

    def test_round_trip_preserves_everything(self):
        idx = build_index(TOY_DOCS, stoplist=Stoplist("x", frozenset({"b"})))
        loaded = Index.load(io.BytesIO(serialized(idx)))
        assert loaded.docnos == idx.docnos
        assert loaded.doc_lengths.tolist() == idx.doc_lengths.tolist()
        assert as_lists(loaded.postings) == as_lists(idx.postings)
        assert loaded.ctf == idx.ctf
        assert loaded.total_tokens == idx.total_tokens
        assert loaded.stoplist == idx.stoplist
        assert loaded.stopwords_removed == idx.stopwords_removed

    def test_serialize_deserialize_serialize_identical(self, tmp_path, monkeypatch):
        rng = random.Random(23)
        for trial in range(10):
            docs = [(d, " ".join(t)) for d, t in random_corpus(rng, max_docs=40)]
            stoplist = Stoplist("odd", frozenset(
                {t for _, text in docs for t in text.split() if int(t[1:]) % 2}))
            idx = build_index(docs, stoplist=stoplist if trial % 2 else None)
            blob = serialized(idx)
            assert serialized(Index.load(io.BytesIO(blob))) == blob
            idx.save(tmp_path / "i.idx")
            assert (tmp_path / "i.idx").read_bytes() == blob
            # the same build with int64 token offsets and sort keys
            with monkeypatch.context() as m:
                m.setattr(stoplab.index, "STREAM_LIMIT", 0)
                m.setattr(stoplab.index, "KEY_LIMIT", 0)
                wide = build_index(docs, stoplist=idx.stoplist)
            assert serialized(wide) == blob

    def test_build_determinism(self):
        rng = random.Random(24)
        docs = [(d, " ".join(t)) for d, t in random_corpus(rng, max_docs=80)]
        assert serialized(build_index(docs)) == serialized(build_index(docs))

    def test_worker_count_does_not_change_bytes(self):
        rng = random.Random(25)
        docs = [(d, " ".join(t)) for d, t in random_corpus(rng, max_docs=120)]
        one = serialized(build_index(docs, workers=1))
        many = serialized(build_index(docs, workers=8))
        assert one == many

    def test_arabic_docnos_and_terms_survive(self):
        idx = build_index([("وثيقة-1", "قال")])
        loaded = Index.load(io.BytesIO(serialized(idx)))
        assert loaded.docnos == ["وثيقة-1"]
        assert "قال" in loaded.postings

    def test_bad_magic_rejected(self):
        with pytest.raises(ParseError, match="magic"):
            Index.load(io.BytesIO(b"NOTANIDX"))

    def test_truncated_file_rejected(self):
        blob = serialized(build_index(TOY_DOCS))
        with pytest.raises(ParseError, match="truncated"):
            Index.load(io.BytesIO(blob[: len(blob) - 4]))

    def test_file_path_round_trip(self, tmp_path):
        idx = build_index(TOY_DOCS)
        path = tmp_path / "toy.idx"
        idx.save(path)
        assert Index.load(path).docnos == idx.docnos
        assert [p.name for p in tmp_path.iterdir()] == ["toy.idx"]

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        """A write that runs out of space midway leaves each output, index,
        run, TSV report and stoplist, with its old bytes and no temp file."""
        idx, topics = tmp_path / "in.idx", tmp_path / "topics.txt"
        build_index(TOY_DOCS).save(idx)
        topics.write_text("<top><num>1</num><title>a</title></top>", encoding="utf-8")
        fixtures = Path(__file__).parent / "fixtures"
        outputs = {
            "out.run": ["search", "--index", idx, "--topics", topics],
            "out.tsv": ["eval", "--run", fixtures / "sample.run",
                        "--qrels", fixtures / "sample.qrels"],
            "out.txt": ["stoplist", "combine", "--a", "GS", "--b", "CBS"],
        }
        for name in ["out.idx", *outputs]:
            (tmp_path / name).write_bytes(b"old")
        before = sorted(tmp_path.iterdir())

        class DiskFull:
            """A file that takes half of each write, then runs out of space."""

            def __init__(self, name, mode, **kwargs):
                self.f = open(name, mode, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("stoplab.errors.open", DiskFull, raising=False)
        with pytest.raises(OSError):
            build_index(TOY_DOCS).save(tmp_path / "out.idx")
        for name, argv in outputs.items():
            capsys.readouterr()
            rc = main([str(a) for a in argv] + ["--out", str(tmp_path / name)])
            err = capsys.readouterr().err.strip()
            assert rc == 2, name
            assert "No space left on device" in err and len(err.splitlines()) == 1
        assert sorted(tmp_path.iterdir()) == before
        for name in ["out.idx", *outputs]:
            assert (tmp_path / name).read_bytes() == b"old", name

    def test_long_token_and_docno_round_trip(self):
        token, docno = "ق" * 35_000, "D" * 70_000  # 70,000 UTF-8 bytes each
        idx = build_index([(docno, token + " b"), ("D2", "b")])
        loaded = Index.load(io.BytesIO(serialized(idx)))
        assert loaded.docnos == [docno, "D2"]
        assert as_lists(loaded.postings) == {token: [[0, 1]], "b": [[0, 1], [1, 1]]}

    def test_old_format_asks_for_rebuild(self):
        with pytest.raises(ParseError, match="ARIDX001.*rebuild") as info:
            Index.load(io.BytesIO(b"ARIDX001" + bytes(40)))
        assert "\n" not in str(info.value)


def _damage_cases(blob: bytes, rng: random.Random, flips_per_byte: int):
    """Every truncation of ``blob`` and, at every position, byte flips
    with random nonzero masks."""
    for cut in range(len(blob)):
        yield "cut %d" % cut, blob[:cut]
    for pos in range(len(blob)):
        for _ in range(flips_per_byte):
            mask = rng.randrange(1, 256)
            damaged = bytearray(blob)
            damaged[pos] ^= mask
            yield "byte %d ^ %d" % (pos, mask), bytes(damaged)


class TestCorruptFiles:
    """A damaged index file fails with ParseError, never another error."""

    def check_all(self, blob: bytes, flips_per_byte: int, seed: int):
        for case, damaged in _damage_cases(blob, random.Random(seed), flips_per_byte):
            try:
                Index.load(io.BytesIO(damaged))
            except ParseError as exc:
                assert "\n" not in str(exc), case
            else:
                pytest.fail("%s loaded without error" % case)

    def test_toy_with_stoplist_and_arabic(self):
        idx = build_index(TOY_DOCS + [("وثيقة", "قال b")],
                          stoplist=Stoplist("x", frozenset({"a"})))
        self.check_all(serialized(idx), flips_per_byte=3, seed=31)

    def test_empty_index(self):
        self.check_all(serialized(build_index([])), flips_per_byte=8, seed=32)

    def test_random_corpus(self):
        rng = random.Random(33)
        docs = [(d, " ".join(t)) for d, t in random_corpus(rng, max_docs=30)]
        self.check_all(serialized(build_index(docs)), flips_per_byte=1, seed=34)


class TestGzipInput:
    def test_corpus_may_be_gzipped(self, tmp_path):
        raw = "<DOC><DOCNO>A</DOCNO><TEXT>x y</TEXT></DOC>"
        path = tmp_path / "c.sgml.gz"
        with gzip.open(path, "wb") as f:
            f.write(raw.encode("utf-8"))
        with gzip.open(path, "rb") as f:
            docs = list(parse_trec_documents(f.read().decode("utf-8")))
        assert docs[0][0] == "A"


def _toy_columns() -> dict:
    idx = build_index(TOY_DOCS)
    return dict(docnos=list(idx.docnos), doc_lengths=idx.doc_lengths.copy(),
                terms=list(idx.terms), doc_freqs=idx.doc_freqs.copy(),
                pairs=idx.pairs.copy(), total_tokens=idx.total_tokens)


class TestCheck:
    """check() names each broken invariant; the toy index has terms a, b, c
    with postings a: (0, 1); b: (0, 1), (1, 1); c: (1, 1), (2, 2)."""

    def broken(self, **changes) -> Index:
        columns = _toy_columns()
        columns.update(changes)
        return Index(**columns)

    def test_toy_passes(self):
        self.broken().check()

    @pytest.mark.parametrize("row, value, message", [
        (2, (0, 1), "postings not sorted for term 'b'"),
        (4, (3, 2), "doc ordinal >= N for term 'c'"),
        (1, (0, 0), "tf < 1 for term 'b'"),
        # with two faults, tf is named before the ordinal, the ordinal before
        # the order
        ([3, 2], [(1, 0), (0, 1)], "tf < 1 for term 'c'"),
        ([4, 2], [(3, 2), (0, 1)], "doc ordinal >= N for term 'c'"),
    ])
    def test_broken_posting_named(self, row, value, message):
        pairs = _toy_columns()["pairs"]
        pairs[row] = value
        total = int(pairs[:, 1].sum())
        index = self.broken(pairs=pairs, total_tokens=total,
                            doc_lengths=np.array([2, 2, total - 4], dtype=np.uint32))
        with pytest.raises(ValueError, match=message):
            index.check()

    def test_mass_mismatch(self):
        with pytest.raises(ValueError, match="document lengths"):
            self.broken(total_tokens=7).check()

    def test_terms_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            self.broken(terms=["b", "a", "c"]).check()

    def test_df_above_n(self):
        columns = _toy_columns()
        pairs = np.array([[0, 1], [0, 1], [1, 1], [2, 1], [1, 1], [2, 1]],
                         dtype=np.uint32)
        with pytest.raises(ValueError, match="not sorted for term 'b'"):
            self.broken(pairs=pairs, doc_freqs=np.array([1, 4, 1], dtype=np.uint32),
                        doc_lengths=columns["doc_lengths"]).check()

    def test_valid_checksum_does_not_hide_broken_invariants(self):
        blob = bytearray(serialized(build_index(TOY_DOCS)))
        postings_at = 8 + 4 * 8 + 4 * 3 + 4 * 3  # magic, header, dl and df columns
        struct.pack_into("<I", blob, postings_at + 4, 5)  # first tf: 1 -> 5
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(ParseError, match="corrupt index file: sum"):
            Index.load(io.BytesIO(bytes(blob)))

    @pytest.mark.parametrize("docnos, message", [
        (["D1", "D1", "D3"], "duplicate docno 'D1'"),
        (["D1", "D 2", "D3"], "docno 'D 2' contains whitespace"),
        (["D1", "", "D3"], "empty docno"),
    ], ids=["duplicate", "space", "empty"])
    def test_docno_a_run_file_cannot_hold_refused_at_load(self, tmp_path, capsys,
                                                           docnos, message):
        idx = build_index(TOY_DOCS)
        idx.docnos = docnos  # the file's checksum is valid, its docnos are not
        path = tmp_path / "t.idx"
        idx.save(path)
        want = "%s: corrupt index file: %s" % (path, message)
        with pytest.raises(ParseError, match="^%s$" % re.escape(want)):
            Index.load(path)
        topics = tmp_path / "topics.txt"
        topics.write_text("<top><num>1</num><title>b</title></top>", encoding="utf-8")
        run = tmp_path / "t.run"
        capsys.readouterr()
        assert main(["search", "--index", str(path), "--topics", str(topics),
                     "--out", str(run)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % want
        assert not run.exists()

    @pytest.mark.parametrize("field", ["docnos", "terms"])
    def test_non_string_in_meta_refused_at_load(self, tmp_path, field):
        idx = build_index([("D1", "a")])  # one term: no order check compares it
        setattr(idx, field, [5])
        path = tmp_path / "t.idx"
        idx.save(path)  # a valid checksum over meta that holds an int
        with pytest.raises(ParseError, match="^%s: corrupt index file: .*int"
                                             % re.escape(str(path))):
            Index.load(path)

    def test_first_docno_fault_named(self):
        with pytest.raises(ValueError, match="^docno 'D 2' contains whitespace$"):
            self.broken(docnos=["D1", "D 2", "D1"]).check()


class TestDerivedTables:
    """The per-term dicts are built on first use, not by a build or load."""

    def test_build_and_load_make_no_per_term_dict(self):
        idx = build_index(TOY_DOCS)
        for index in (idx, Index.load(io.BytesIO(serialized(idx)))):
            assert "postings" not in vars(index) and "ctf" not in vars(index)
            assert index.vocabulary_size == 3

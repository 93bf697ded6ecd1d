"""The reader contract: whatever bytes a file holds, reading it as any input
stoplab takes either returns or raises one single-line ParseError that
starts with the file's path."""

import json
import re
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stoplab.cli import (
    _TSV_COLUMNS,
    _read_run_lines,
    parse_topics,
    read_config,
    read_report_tsv,
    read_run_file,
)
from stoplab.errors import ParseError, read_text
from stoplab.index import _CHECKSUM, _HEADER, MAGIC, Index, parse_trec_documents
from stoplab.stoplists import load_stoplist
from stoplab.treceval import parse_qrels

READERS = {
    "qrels": parse_qrels,
    "run": read_run_file,
    "stoplist": lambda path: load_stoplist(path, name="t"),
    "config": read_config,
    "report": read_report_tsv,
    "index": Index.load,
    "topics": lambda path: parse_topics(read_text(path, "topics"), path),
    "corpus": lambda path: list(parse_trec_documents(read_text(path, "corpus"), path)),
}

REPORT_HEADER = "\t".join(_TSV_COLUMNS).encode("utf-8") + b"\n"
REPORT_ROW = b"\t".join([b"T", b"1", b"2", b"3", b"1"] + [b"0.5"] * 22) + b"\n"

# pieces of every format, so that joined they reach past the first check
PIECES = [
    b" ", b"\t", b"\n", b"\r", b"\r\n", b"1", b"2", b"Q0", b"D1", b"0.5", b"-3",
    b"zz", b"=", b"#", b"nan", "ق".encode("utf-8"), b"\xd9", b"\xff", b"\x00",
    b"<top>", b"</top>", b"<num>", b"<title>", b"<DOC>", b"</DOC>", b"<DOCNO>",
    b"</DOCNO>", b"<TEXT>", b"</TEXT>", REPORT_ROW, b"1 Q0 D1 1 0.5 T\n",
]

contents = st.builds(
    bytes.__add__,
    st.sampled_from([b"", REPORT_HEADER, MAGIC]),
    st.binary(max_size=300) | st.lists(st.sampled_from(PIECES), max_size=60).map(b"".join),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)
metas = st.fixed_dictionaries(
    {key: json_values for key in ("docnos", "terms", "total_tokens", "strip_marks",
                                  "stopwords_removed", "stoplist")}
) | json_values


def framed(meta: bytes, n: int = 0, vocab: int = 0, npairs: int = 0, body: bytes = b""):
    """An index file whose header sizes and checksum are right, so that the
    sections and the JSON block behind them are what gets checked."""
    data = _HEADER.pack(MAGIC, n, vocab, npairs, len(meta)) + body + meta
    return data + _CHECKSUM.pack(zlib.crc32(data))


@st.composite
def framed_indexes(draw):
    n, vocab, npairs = (draw(st.integers(0, 3)) for _ in range(3))
    size = 4 * (n + vocab + 2 * npairs)
    body = draw(st.binary(min_size=size, max_size=size))
    return framed(json.dumps(draw(metas)).encode("utf-8"), n, vocab, npairs, body)


def check_contract(reader, path, data):
    path.write_bytes(data)
    try:
        READERS[reader](str(path))
    except ParseError as exc:
        message = str(exc)
        assert re.match(re.escape(str(path)) + r"( line \d+)?: ", message), message
        assert len(message.splitlines()) == 1, message


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "input"


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=200, deadline=None, database=None)
@given(data=contents)
def test_any_bytes_parse_or_raise_one_named_line(scratch, reader, data):
    check_contract(reader, scratch, data)


@settings(max_examples=200, deadline=None, database=None)
@given(data=contents)
def test_run_bytes_read_as_the_line_reader_reads_them(scratch, data):
    """Whichever reader answers, ``read_run_file`` gives the line reader's
    runs, scores bit for bit, or its error."""
    scratch.write_bytes(data)

    def outcome(read, *args):
        try:
            return [(r.qid, r.tag, r.docnos, r.scores.view(np.int64).tolist())
                    for r in read(*args)]
        except ParseError as exc:
            return str(exc)

    try:
        text = read_text(str(scratch), "run")
    except ParseError:  # read_run_file fails here too
        return
    assert outcome(read_run_file, str(scratch)) == outcome(_read_run_lines, text, str(scratch))


@settings(max_examples=200, deadline=None, database=None)
@given(data=framed_indexes())
@example(data=framed(b"[" * 10_000 + b"]" * 10_000))  # nested past the recursion limit
@example(data=framed(json.dumps({  # a count that is not a finite number
    "docnos": [], "terms": [], "total_tokens": float("inf"), "strip_marks": True,
    "stopwords_removed": 0, "stoplist": None}).encode("utf-8")))
def test_framed_index_bytes_load_or_raise_one_named_line(scratch, data):
    check_contract("index", scratch, data)


@pytest.mark.parametrize("reader", ["qrels", "run", "stoplist"])
def test_open_text_file_decode_error_names_role_and_byte(tmp_path, reader):
    """A file opened in text mode is decoded by the one decode path too, so
    its bad bytes give the role, line and byte, not a UnicodeDecodeError."""
    path = tmp_path / "input"
    path.write_bytes(b"1 Q0 D1\n1 Q0 \xff 1\n")
    with open(path, encoding="utf-8") as f, pytest.raises(ParseError) as info:
        READERS[reader](f)
    assert str(info.value) == "%s line 2: invalid utf-8 at byte 13: invalid start byte" % reader


# a file of each line-based kind, which a byte-order mark must not change
BOM_SAMPLES = {
    "qrels": "1 0 D1 1\n1 0 D2 1\n",
    "run": "1 Q0 D1 1 2.000000 T\n1 Q0 D2 2 1.000000 T\n",
    "config": "model=BM25\ntop_k=10\n",
    "stoplist": "في\nمن\n",
    "topics": "<top><num>1</num><title>a</title></top>\n",
}


@pytest.mark.parametrize("reader", sorted(BOM_SAMPLES))
def test_byte_order_mark_is_dropped(tmp_path, reader):
    """One leading U+FEFF, from a path or from an open text file, reads as
    nothing, so the first record keeps its first field."""
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(BOM_SAMPLES[reader], encoding="utf-8")
    marked.write_text("\ufeff" + BOM_SAMPLES[reader], encoding="utf-8")
    expected = READERS[reader](str(plain))
    assert READERS[reader](str(marked)) == expected
    with open(marked, encoding="utf-8") as f:
        assert READERS[reader](f) == expected


# lines that configs and stoplists both skip, and for each reader a line it
# keeps and a faulty line with its message
SKIPPED = ["# comment", "", "   \t", "#", "  # indented", "\t#x=y"]
CONTENT = {
    "config": ("model=BM25", [(len(SKIPPED) + 1, "model", "BM25")],
               "novalue", "expected key=value"),
    "stoplist": ("في", ["في"], "two words", "stopword 'two words' is not one token"),
}


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("reader", sorted(CONTENT))
def test_config_and_stoplist_skip_the_same_lines(tmp_path, reader, end, bom):
    """Blank, whitespace-only and ``#`` lines, indented or not, are skipped
    alike under any line end and after a byte-order mark, and a faulty line
    after them keeps its own line number."""
    line, kept, fault, message = CONTENT[reader]
    read = {"config": read_config,
            "stoplist": lambda path: sorted(load_stoplist(path, name="t").words)}[reader]
    path = tmp_path / "input"
    lines = SKIPPED + [line] + SKIPPED
    path.write_bytes((bom + end.join(lines) + end).encode("utf-8"))
    assert read(str(path)) == kept
    path.write_bytes((bom + end.join(lines + [fault]) + end).encode("utf-8"))
    with pytest.raises(ParseError) as info:
        read(str(path))
    assert str(info.value) == "%s line %d: %s" % (path, len(lines) + 1, message)


def test_open_text_file_is_read_from_where_it_stands(tmp_path):
    path = tmp_path / "qrels"
    path.write_bytes(b"1 0 A 1\n1 0 B 1\n")
    with open(path, encoding="utf-8") as f:
        f.readline()
        assert parse_qrels(f) == {"1": {"B"}}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_missing_path_or_directory_raises_one_named_line(tmp_path, reader):
    """Every reader opens its path through the one opener, which names the
    path and the reason: no reader tests for the path beforehand."""
    for path, reason in ((tmp_path / "ghost", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        with pytest.raises(ParseError) as info:
            READERS[reader](str(path))
        assert str(info.value) == "%s: %s" % (path, reason)

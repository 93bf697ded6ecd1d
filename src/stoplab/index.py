"""TIPSTER document parsing and immutable inverted index construction.

A TIPSTER stream is a sequence of ``<DOC>`` blocks.  A block ends at the
first ``</DOC>`` after its ``<DOC>``, and a ``<DOC>`` before that
``</DOC>`` is an error, as is a block without a ``<DOCNO>``.  A block's
``<TEXT>`` regions are joined with newlines, and inline tags inside them
become spaces; the rest of the block is skipped.  The ``index`` command
also refuses a corpus file that holds no block at all.

The index holds everything the ranking models need: postings with
within-document term frequencies, per-document lengths, collection term
frequencies, and the derived statistics N, avgdl and total token count.
When a stoplist is supplied it is applied while indexing, so document
lengths and collection statistics all reflect the removal; the list itself
is stored in the index so queries can be filtered identically later.

Index file format (version ``ARIDX002``), little-endian throughout, laid
out in columns:

    magic            8 bytes  b"ARIDX002"
    header           4 x uint64: N, vocab_size, postings, meta_len
    doc_lengths      N x uint32
    df               vocab_size x uint32, one per term in sorted order
    postings         postings x (uint32 doc ordinal, uint32 tf), term after
                     term, ordinals ascending within a term
    meta             meta_len bytes of UTF-8 JSON: docnos, terms (sorted),
                     total_tokens, stoplist, strip_marks, stopwords_removed
    checksum         uint32 CRC-32 of every byte before it

Writing is fully deterministic, so equal indexes serialize byte-identically.
Files in the retired ``ARIDX001`` format are refused: rebuild them.  So are
files whose ``strip_marks`` is not ``true``, as ``index --keep-marks`` wrote.
"""

import json
import re
import struct
import zlib
from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from functools import cached_property
from itertools import accumulate, filterfalse
from operator import lt

import numpy as np

from .errors import ParseError, atomic_write, read_bytes, source_name
from .stoplists import Stoplist
from .textpipe import tokenize_chunks

MAGIC = b"ARIDX002"
_HEADER = struct.Struct("<8s4Q")
_CHECKSUM = struct.Struct("<I")
_U32 = np.dtype("<u4")
# build_index holds token offsets in int32 while the token stream has fewer
# tokens than STREAM_LIMIT, and its sort keys in uint32 while every key,
# below len(terms) * N, is below KEY_LIMIT; in int64 otherwise
STREAM_LIMIT = 1 << 31
KEY_LIMIT = 1 << 32

_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.S)
_TAG_RE = re.compile(r"<[^>]*>")


def parse_trec_documents(text: str, name: str = "corpus") -> Iterator[tuple[str, str]]:
    """Yield (docno, text) for each ``<DOC>`` block, in stream order.

    A block runs from ``<DOC>`` to the first ``</DOC>`` after it; a block
    with no ``</DOC>``, or with another ``<DOC>`` before it, is unterminated.
    The block's first ``<DOCNO>`` names it, and a block without one is an
    error.  Its ``<TEXT>`` regions, each closed by the first ``</TEXT>``
    after it, are joined with newlines, and inline tags inside them
    (paragraph markers and the like) become spaces; a ``<TEXT>`` left
    unclosed is an error, and anything outside the regions is skipped.  A
    stream with no block yields nothing.  Every search is bounded by the
    current block, so no block is copied and no scan runs past it.  Error
    messages start with ``name``, the corpus file's path; their offsets are
    character offsets into the stream.
    """
    # offsets step over tags: <DOC> is 5 characters, <TEXT> and </DOC> 6,
    # </TEXT> 7
    pos = 0
    while True:
        start = text.find("<DOC>", pos)
        if start == -1:
            return
        end = text.find("</DOC>", start)
        if end == -1 or text.find("<DOC>", start + 5, end) != -1:
            raise ParseError("%s: unterminated <DOC> block at offset %d"
                             % (name, start))
        m = _DOCNO_RE.search(text, start + 5, end)
        if m is None:
            raise ParseError("%s: <DOC> block at offset %d has no <DOCNO>"
                             % (name, start))
        docno = m.group(1).strip()
        texts = []
        at = text.find("<TEXT>", start + 5, end)
        while at != -1:
            close = text.find("</TEXT>", at + 6, end)
            if close == -1:
                break
            texts.append(_TAG_RE.sub(" ", text[at + 6 : close]))
            at = text.find("<TEXT>", close + 7, end)
        if text.count("<TEXT>", start + 5, end) != len(texts):
            raise ParseError(
                "%s: unterminated <TEXT> in document %r (offset %d)"
                % (name, docno, start)
            )
        yield docno, "\n".join(texts)
        pos = end + 6


class Index:
    """Immutable inverted index over a document collection.

    Attributes:
        docnos: document identifier per ordinal.
        docno_array: ``docnos`` as an object array, derived on first use.
        docnos_ascend: whether ``docnos`` strictly ascend, found once.
        doc_lengths: uint32 token count per ordinal (post-normalization and
            stoplist).
        terms: the vocabulary in sorted order.
        doc_freqs: uint32 document frequency per term of ``terms``.
        pairs: uint32 array of ``(ordinal, tf)`` rows, one per posting,
            grouped by term in ``terms`` order, ordinals ascending.
        bounds: int64 row bounds, ``doc_freqs`` summed once: term i's rows
            are ``pairs[bounds[i]:bounds[i + 1]]``.
        postings: term -> its rows of ``pairs``, derived on first use.
        ctf: term -> collection frequency, derived on first use (only
            ``stoplist build`` reads it).
        total_tokens: sum of all document lengths.
        stoplist: the list applied at build time, or None.
        stopwords_removed: tokens dropped by the stoplist during the build.
    """

    strip_marks = True  # diacritics always go; bench/replay.py still reads it

    def __init__(
        self,
        docnos: list[str],
        doc_lengths: np.ndarray,
        terms: list[str],
        doc_freqs: np.ndarray,
        pairs: np.ndarray,
        total_tokens: int,
        stoplist: Stoplist | None = None,
        stopwords_removed: int = 0,
    ):
        bounds = np.concatenate(([0], np.cumsum(doc_freqs, dtype=np.int64)))
        if len(doc_freqs) != len(terms) or bounds[-1] != len(pairs):
            raise ValueError("postings table size mismatch")
        self.bounds = bounds
        self.docnos = docnos
        self.doc_lengths = doc_lengths
        self.terms = terms
        self.doc_freqs = doc_freqs
        self.pairs = pairs
        self.total_tokens = total_tokens
        self.stoplist = stoplist
        self.stopwords_removed = stopwords_removed

    @property
    def N(self) -> int:
        return len(self.docnos)

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.N if self.N else 0.0

    @property
    def vocabulary_size(self) -> int:
        return len(self.terms)

    @cached_property
    def postings(self) -> dict[str, np.ndarray]:
        """term -> its rows of ``pairs``."""
        b = self.bounds.tolist()
        return {term: self.pairs[a:z] for term, a, z in zip(self.terms, b, b[1:])}

    @cached_property
    def ctf(self) -> dict[str, int]:
        """term -> collection frequency, the sum of the term's tfs."""
        if not self.terms:
            return {}
        sums = np.add.reduceat(self.pairs[:, 1], self.bounds[:-1], dtype=np.uint64)
        return dict(zip(self.terms, sums.tolist()))

    @cached_property
    def docno_array(self) -> np.ndarray:
        """``docnos`` as an object array, to index with an ordinal array."""
        return np.array(self.docnos, dtype=object)

    @cached_property
    def docnos_ascend(self) -> bool:
        """Whether ``docnos`` strictly ascend, so are distinct and ranked."""
        return all(map(lt, self.docnos, self.docnos[1:]))

    @cached_property
    def docno_rank(self) -> np.ndarray:
        """Position of each ordinal's docno in ascending docno order."""
        if self.docnos_ascend:
            return np.arange(self.N, dtype=np.int64)
        rank = np.empty(self.N, dtype=np.int64)
        rank[sorted(range(self.N), key=self.docnos.__getitem__)] = np.arange(self.N)
        return rank

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def check(self) -> None:
        """Verify the structural invariants; raises ValueError on breakage
        (:class:`BadDocno` and :class:`DuplicateDocno` are ValueErrors)."""
        n, terms, docnos = self.N, self.terms, self.docnos
        ordinals, tfs = self.pairs[:, 0], self.pairs[:, 1]
        if len(self.doc_lengths) != n:
            raise ValueError("doc table size mismatch")
        # a run file splits its lines at whitespace, so a docno must be one
        # field, and name one document; the slow path names the first fault
        joined = "".join(docnos)  # holds whitespace where a docno does
        if n and (not all(docnos) or joined.split() != [joined]
                  or not (self.docnos_ascend or len(set(docnos)) == n)):
            first: dict[str, int] = {}
            for i, docno in enumerate(docnos):
                if docno.split() != [docno]:
                    raise BadDocno(docno, i)
                if first.setdefault(docno, i) != i:
                    raise DuplicateDocno(docno, first[docno], i)
        if int(self.doc_lengths.sum(dtype=np.uint64)) != self.total_tokens:
            raise ValueError("sum of document lengths != total_tokens")
        if int(tfs.sum(dtype=np.uint64)) != self.total_tokens:
            raise ValueError("sum of collection frequencies != total_tokens")
        if not all(map(lt, terms, terms[1:])):
            raise ValueError("terms not unique and sorted")
        if (self.doc_freqs < 1).any():
            raise ValueError("df < 1 for term %r" % terms[self.doc_freqs.argmin()])

        def fault(row, what):
            term = terms[np.searchsorted(self.bounds, row, side="right") - 1]
            raise ValueError("%s for term %r" % (what, term))

        if not len(ordinals):
            return
        # a mask is built only once the min or max shows a fault
        if tfs.min() < 1:
            fault((tfs < 1).argmax(), "tf < 1")
        if ordinals.max() >= n:
            fault((ordinals >= n).argmax(), "doc ordinal >= N")
        # rising ordinals below N also bound df by N
        falls = ordinals[1:] <= ordinals[:-1]  # falls[i]: row i + 1 does not rise
        falls[self.bounds[1:-1] - 1] = False  # the first row of a term may fall
        if falls.any():
            fault(falls.argmax() + 1, "postings not sorted")

    # -- serialization ----------------------------------------------------

    def save(self, dest) -> None:
        """Write the index to a binary file object, or to a path by way of
        :func:`~stoplab.errors.atomic_write`, so a failed save leaves the
        path as it was.  The parts are written one at a time through a
        running CRC-32, so the file's bytes are never joined in memory."""
        meta = {
            "docnos": self.docnos,
            "terms": self.terms,
            "total_tokens": self.total_tokens,
            "strip_marks": self.strip_marks,
            "stopwords_removed": self.stopwords_removed,
            "stoplist": None if self.stoplist is None else {
                "name": self.stoplist.name,
                "provenance": self.stoplist.provenance,
                "words": sorted(self.stoplist.words),
            },
        }
        blob = json.dumps(
            meta, ensure_ascii=False, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        header = _HEADER.pack(MAGIC, self.N, len(self.terms), len(self.pairs), len(blob))
        columns = (np.asarray(column, dtype=_U32)
                   for column in (self.doc_lengths, self.doc_freqs, self.pairs))
        to_path = not hasattr(dest, "write")
        with atomic_write(dest, binary=True) if to_path else nullcontext(dest) as f:
            crc = 0
            for part in (header, *columns, blob):
                f.write(part)
                crc = zlib.crc32(part, crc)
            f.write(_CHECKSUM.pack(crc))

    @classmethod
    def load(cls, src) -> "Index":
        """Read an index written by :meth:`save` from a path or binary file
        object, as it stands: a ``.gz`` name is not gunzipped.  A path that
        cannot be read, or any damage to the file, raises :class:`ParseError`
        naming the path, or ``index`` for a file object."""
        name = source_name(src, "index")
        data = read_bytes(src, name)
        try:
            index = cls._decode(data, name)
            index.check()
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ParseError("%s: corrupt index file: %s" % (name, exc)) from exc
        return index

    @classmethod
    def _decode(cls, data: bytes, name: str) -> "Index":
        if data[: len(MAGIC)] == b"ARIDX001":
            raise ParseError("%s: index file has the retired ARIDX001 format; "
                             "rebuild the index with `stoplab index`" % name)
        if data[: len(MAGIC)] != MAGIC:
            raise ParseError("%s: not an index file (bad magic)" % name)
        if len(data) < _HEADER.size + _CHECKSUM.size:
            raise ParseError("%s: truncated index file" % name)
        _, n, vocab, npairs, meta_len = _HEADER.unpack_from(data)
        sizes = [4 * n, 4 * vocab, 8 * npairs, meta_len]
        offsets = list(accumulate(sizes, initial=_HEADER.size))
        end = offsets[-1]
        if len(data) < end + _CHECKSUM.size:
            raise ParseError("%s: truncated index file" % name)
        if len(data) > end + _CHECKSUM.size:
            raise ParseError("%s: corrupt index file: trailing bytes" % name)
        if zlib.crc32(memoryview(data)[:end]) != _CHECKSUM.unpack_from(data, end)[0]:
            raise ParseError("%s: corrupt index file: checksum mismatch" % name)
        sections = [memoryview(data)[a:b] for a, b in zip(offsets, offsets[1:])]
        doc_lengths, doc_freqs, pairs = (np.frombuffer(s, dtype=_U32) for s in sections[:3])
        meta = json.loads(bytes(sections[3]).decode("utf-8"))
        if meta["strip_marks"] is not True:
            raise ParseError("%s: index built with --keep-marks, which stoplab no "
                             "longer reads; rebuild it with stoplab index" % name)
        for strings in (meta["docnos"], meta["terms"]):
            "".join(strings)  # raises TypeError, at C speed, on a non-string
        s = meta["stoplist"]
        return cls(
            docnos=meta["docnos"],
            doc_lengths=doc_lengths,
            terms=meta["terms"],
            doc_freqs=doc_freqs,
            pairs=pairs.reshape(-1, 2),
            total_tokens=int(meta["total_tokens"]),
            stoplist=s and Stoplist(s["name"], frozenset(s["words"]), s["provenance"]),
            stopwords_removed=int(meta["stopwords_removed"]),
        )


class BadDocno(ParseError, ValueError):
    """A docno that a run file cannot hold, empty or with whitespace in it,
    with the document's ordinal."""

    def __init__(self, docno: str, ordinal: int):
        what = "empty docno" if not docno else "docno %r contains whitespace" % docno
        super().__init__(what)
        self.docno, self.ordinal = docno, ordinal


class DuplicateDocno(ParseError, ValueError):
    """A docno given twice, with the ordinals of both documents, so a
    caller that knows their sources can name them."""

    def __init__(self, docno: str, first: int, again: int):
        super().__init__("duplicate docno %r" % docno)
        self.docno, self.first, self.again = docno, first, again


def build_index(
    docs: Iterable[tuple[str, str]],
    stoplist: Stoplist | None = None,
    workers: int = 1,
) -> Index:
    """Normalize, tokenize, filter and count a document stream into an Index.

    A docno that is empty or holds whitespace raises :class:`BadDocno`, and
    one given twice :class:`DuplicateDocno`, since a run file could not
    hold them; :meth:`Index.check` finds them once the documents are read.

    Documents are read one at a time, in input order, and split at
    whitespace into one stream of chunk ids.  The distinct chunks are
    normalized and tokenized in one batch, which by chunk locality (see
    :mod:`stoplab.textpipe`) gives every chunk's tokens, and each token
    maps to its position in the sorted terms, or -1 for a stopword.
    Repeated along the chunk stream, these give one position per token;
    one mask drops the stopwords, and one in-place sort of a key per kept
    token, position * N + doc ordinal, puts the tokens in postings order:
    each run of equal keys is one posting, and its length is the tf.  The
    token offsets are int32 and the keys uint32 while they fit (see
    ``STREAM_LIMIT`` and ``KEY_LIMIT``), and each array is freed once used,
    so the build's peak stays near 15 bytes per token.
    ``workers`` has no effect: the build is serial, since tokenization
    holds the GIL and threads only slowed it down.
    """
    chunk_table: defaultdict[str, int] = defaultdict()
    chunk_table.default_factory = chunk_table.__len__  # a new chunk gets the next id
    chunk_ids, chunk_counts = array("I"), array("I")
    docnos: list[str] = []
    for docno, text in docs:
        docnos.append(docno)
        chunks = text.split()
        chunk_counts.append(len(chunks))
        chunk_ids.extend(map(chunk_table.__getitem__, chunks))
    n = len(docnos)

    batch, ends = tokenize_chunks(list(chunk_table))
    position = dict.fromkeys(batch, -1)  # token -> its index in terms, -1 for a stopword
    stopwords = stoplist.words if stoplist else frozenset()
    terms = sorted(filterfalse(stopwords.__contains__, position))
    if len(terms) * n > 1 << 63:  # the largest key is len(terms) * n - 1
        raise ParseError("%d terms x %d documents overflow the sort keys"
                         % (len(terms), n))
    position.update(zip(terms, range(len(terms))))
    chunk_positions = np.fromiter(map(position.__getitem__, batch), np.int32, len(batch))
    del batch, chunk_table, position  # freed early, to keep the peak low
    chunk = np.frombuffer(chunk_ids, dtype=np.uint32)
    ends = np.array(ends, dtype=np.int64)
    sizes = np.diff(ends, prepend=0)  # tokens per distinct chunk
    tokens = int(np.bincount(chunk, minlength=len(sizes)) @ sizes)  # stopwords included
    offset = np.int32 if tokens < STREAM_LIMIT else np.int64  # holds any token offset
    # occurrence i, of chunk c, puts chunk_positions[first[i]:first[i] + repeats[i]]
    # at through[i]:through[i + 1] of the token stream
    first = (ends - sizes).astype(offset)[chunk]
    repeats = sizes.astype(offset)[chunk]
    del chunk, chunk_ids, ends, sizes  # each array is freed once used, to keep the peak low
    through = np.zeros(len(repeats) + 1, dtype=offset)  # tokens before each occurrence
    np.cumsum(repeats, dtype=offset, out=through[1:])
    lengths = np.diff(through[np.cumsum(chunk_counts)], prepend=0)  # stopwords included
    at = through[:-1]
    if not repeats.all():  # an occurrence without tokens puts nothing
        some = repeats != 0
        first, repeats, at = first[some], repeats[some], at[some]
        del some
    del through
    # a token's index into chunk_positions is one more than the token
    # before's, except at an occurrence's first token, which jumps from the
    # occurrence before's last index: where is a running sum of ones and jumps
    repeats += first  # one past the last index of each occurrence
    repeats -= 1
    first[1:] -= repeats[:-1]
    del repeats
    where = np.ones(tokens, dtype=offset)
    where[at] = first
    del at, first
    np.cumsum(where, dtype=offset, out=where)
    high = chunk_positions[where]  # each token's position: its key's high part
    del where, chunk_positions
    kept = high >= 0 if stoplist else None
    # a kept token's key, position * N + doc ordinal; a stopword's, from
    # position -1, is dropped
    keys = high.view(np.uint32) if len(terms) * n <= KEY_LIMIT else high.astype(np.int64)
    del high
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.uint32), lengths)
    if stoplist:  # one mask drops the stopwords
        keys = keys[kept]
    del kept
    removed = tokens - len(keys)
    keys.sort()
    # a posting starts at the first key and wherever the key changes
    change = np.empty(len(keys), dtype=bool)
    change[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    end = len(keys)
    keys = keys[change]  # one key per posting
    starts = np.flatnonzero(change)
    del change
    tfs = np.empty(len(keys), dtype=np.uint32)  # each runs to the next start
    np.subtract(starts[1:], starts[:-1], out=tfs[:-1], casting="unsafe")
    tfs[-1:] = end - starts[-1:]
    del starts
    # term i's keys run from i * N up to (i + 1) * N
    heads = np.searchsorted(keys, np.arange(len(terms), dtype=keys.dtype) * n)
    doc_freqs = np.diff(heads, append=len(keys)).astype(np.uint32)
    keys %= n
    pairs = np.empty((len(keys), 2), dtype=np.uint32)  # (ordinal, tf) rows
    pairs[:, 0], pairs[:, 1] = keys, tfs
    del keys, tfs
    # a document's length is the sum of its tfs
    doc_lengths = np.zeros(n, dtype=np.uint32)
    np.add.at(doc_lengths, pairs[:, 0], pairs[:, 1])
    index = Index(
        docnos=docnos,
        doc_lengths=doc_lengths,
        terms=terms,
        doc_freqs=doc_freqs,
        pairs=pairs,
        total_tokens=int(doc_lengths.sum()),
        stoplist=stoplist,
        stopwords_removed=removed,
    )
    index.check()
    return index

"""TIPSTER document parsing and immutable inverted index construction.

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
Files in the retired ``ARIDX001`` format are refused: rebuild them.
"""

import json
import re
import struct
import zlib
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import ParseError, atomic_write
from .stoplists import Stoplist
from .textpipe import normalize, tokenize

MAGIC = b"ARIDX002"
_HEADER = struct.Struct("<8s4Q")
_CHECKSUM = struct.Struct("<I")
_U32 = np.dtype("<u4")

_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.S)
_TEXT_RE = re.compile(r"<TEXT>(.*?)</TEXT>", re.S)
_TAG_RE = re.compile(r"<[^>]*>")


def parse_trec_documents(text: str) -> Iterator[tuple[str, str]]:
    """Yield (docno, text) for each ``<DOC>`` block, in stream order.

    Each block must contain a ``<DOCNO>`` and may contain any number of
    ``<TEXT>`` regions, whose contents are concatenated.  Residual inline
    tags inside TEXT regions (paragraph markers and the like) are dropped.
    Offsets in error messages are character offsets into the stream.
    """
    pos = 0
    while True:
        start = text.find("<DOC>", pos)
        if start == -1:
            return
        end = text.find("</DOC>", start)
        if end == -1:
            raise ParseError("unterminated <DOC> block at offset %d" % start)
        block = text[start + len("<DOC>") : end]
        m = _DOCNO_RE.search(block)
        if m is None:
            raise ParseError("<DOC> block at offset %d has no <DOCNO>" % start)
        docno = m.group(1).strip()
        texts = _TEXT_RE.findall(block)
        if block.count("<TEXT>") != len(texts):
            raise ParseError(
                "unterminated <TEXT> in document %r (offset %d)" % (docno, start)
            )
        body = "\n".join(_TAG_RE.sub(" ", t) for t in texts)
        yield docno, body
        pos = end + len("</DOC>")


class Index:
    """Immutable inverted index over a document collection.

    Attributes:
        docnos: document identifier per ordinal.
        doc_lengths: uint32 token count per ordinal (post-normalization and
            stoplist).
        terms: the vocabulary in sorted order.
        doc_freqs: uint32 document frequency per term of ``terms``.
        pairs: uint32 array of ``(ordinal, tf)`` rows, one per posting,
            grouped by term in ``terms`` order, ordinals ascending.
        postings: term -> its rows of ``pairs`` (a view of length df).
        ctf: term -> collection frequency.
        total_tokens: sum of all document lengths.
        stoplist: the list applied at build time, or None.
        strip_marks: whether diacritics/tatweel were stripped.
        stopwords_removed: tokens dropped by the stoplist during the build.
    """

    def __init__(
        self,
        docnos: list[str],
        doc_lengths: np.ndarray,
        terms: list[str],
        doc_freqs: np.ndarray,
        pairs: np.ndarray,
        total_tokens: int,
        stoplist: Stoplist | None = None,
        strip_marks: bool = True,
        stopwords_removed: int = 0,
    ):
        ends = np.cumsum(doc_freqs, dtype=np.int64)
        if len(doc_freqs) != len(terms) or (ends[-1] if len(ends) else 0) != len(pairs):
            raise ValueError("postings table size mismatch")
        starts = ends - doc_freqs
        mass = np.concatenate(([0], np.cumsum(pairs[:, 1], dtype=np.uint64)))
        self.docnos = docnos
        self.doc_lengths = doc_lengths
        self.terms = terms
        self.doc_freqs = doc_freqs
        self.pairs = pairs
        self.postings = {
            term: pairs[a:b] for term, a, b in zip(terms, starts.tolist(), ends.tolist())
        }
        self.ctf = dict(zip(terms, (mass[ends] - mass[starts]).tolist()))
        self.total_tokens = total_tokens
        self.stoplist = stoplist
        self.strip_marks = strip_marks
        self.stopwords_removed = stopwords_removed

    @property
    def N(self) -> int:
        return len(self.docnos)

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.N if self.N else 0.0

    @property
    def vocabulary_size(self) -> int:
        return len(self.postings)

    @cached_property
    def docno_rank(self) -> np.ndarray:
        """Position of each ordinal's docno in ascending docno order."""
        rank = np.empty(self.N, dtype=np.int64)
        rank[sorted(range(self.N), key=self.docnos.__getitem__)] = np.arange(self.N)
        return rank

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def check(self) -> None:
        """Verify the structural invariants; raises ValueError on breakage."""
        n, terms = self.N, self.terms
        ordinals, tfs = self.pairs[:, 0], self.pairs[:, 1]
        if len(self.doc_lengths) != n:
            raise ValueError("doc table size mismatch")
        if int(self.doc_lengths.sum(dtype=np.uint64)) != self.total_tokens:
            raise ValueError("sum of document lengths != total_tokens")
        if int(tfs.sum(dtype=np.uint64)) != self.total_tokens:
            raise ValueError("sum of collection frequencies != total_tokens")
        if len(self.postings) != len(terms) or terms != sorted(terms):
            raise ValueError("terms not unique and sorted")
        if (self.doc_freqs < 1).any():
            raise ValueError("df < 1 for term %r" % terms[self.doc_freqs.argmin()])
        # rising ordinals below N also bound df by N
        ends = np.cumsum(self.doc_freqs, dtype=np.int64)
        falls = np.diff(ordinals.astype(np.int64), prepend=-1) <= 0
        falls[ends[:-1]] = False  # the first row of a term may fall
        for bad, what in ((tfs < 1, "tf < 1"), (ordinals >= n, "doc ordinal >= N"),
                          (falls, "postings not sorted")):
            if bad.any():
                term = terms[np.searchsorted(ends, bad.argmax(), side="right")]
                raise ValueError("%s for term %r" % (what, term))

    # -- serialization ----------------------------------------------------

    def save(self, dest) -> None:
        """Write the index to a binary file object, or to a path by way of
        :func:`~stoplab.errors.atomic_write`, so a failed save leaves the
        path as it was."""
        data = self._encode()
        to_path = not hasattr(dest, "write")
        with atomic_write(dest, binary=True) if to_path else nullcontext(dest) as f:
            f.write(data)

    def _encode(self) -> bytes:
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
        data = b"".join([
            _HEADER.pack(MAGIC, self.N, len(self.terms), len(self.pairs), len(blob)),
            *(np.asarray(column, dtype=_U32).tobytes()
              for column in (self.doc_lengths, self.doc_freqs, self.pairs)),
            blob,
        ])
        return data + _CHECKSUM.pack(zlib.crc32(data))

    @classmethod
    def load(cls, src) -> "Index":
        """Read an index written by :meth:`save` from a path or binary file
        object.  Any damage to the file raises :class:`ParseError`."""
        data = src.read() if hasattr(src, "read") else Path(src).read_bytes()
        try:
            index = cls._decode(data)
            index.check()
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError("corrupt index file: %s" % exc) from exc
        return index

    @classmethod
    def _decode(cls, data: bytes) -> "Index":
        if data[: len(MAGIC)] == b"ARIDX001":
            raise ParseError("index file has the retired ARIDX001 format; "
                             "rebuild the index with `stoplab index`")
        if data[: len(MAGIC)] != MAGIC:
            raise ParseError("not an index file (bad magic)")
        if len(data) < _HEADER.size + _CHECKSUM.size:
            raise ParseError("truncated index file")
        _, n, vocab, npairs, meta_len = _HEADER.unpack_from(data)
        sizes = [4 * n, 4 * vocab, 8 * npairs, meta_len]
        offsets = list(accumulate(sizes, initial=_HEADER.size))
        end = offsets[-1]
        if len(data) < end + _CHECKSUM.size:
            raise ParseError("truncated index file")
        if len(data) > end + _CHECKSUM.size:
            raise ParseError("corrupt index file: trailing bytes")
        if zlib.crc32(memoryview(data)[:end]) != _CHECKSUM.unpack_from(data, end)[0]:
            raise ParseError("corrupt index file: checksum mismatch")
        sections = [memoryview(data)[a:b] for a, b in zip(offsets, offsets[1:])]
        doc_lengths, doc_freqs, pairs = (np.frombuffer(s, dtype=_U32) for s in sections[:3])
        meta = json.loads(bytes(sections[3]).decode("utf-8"))
        if not all(isinstance(x, str) for x in meta["docnos"] + meta["terms"]):
            raise ValueError("docnos and terms must be strings")
        s = meta["stoplist"]
        return cls(
            docnos=meta["docnos"],
            doc_lengths=doc_lengths,
            terms=meta["terms"],
            doc_freqs=doc_freqs,
            pairs=pairs.reshape(-1, 2),
            total_tokens=int(meta["total_tokens"]),
            stoplist=s and Stoplist(s["name"], frozenset(s["words"]), s["provenance"]),
            strip_marks=bool(meta["strip_marks"]),
            stopwords_removed=int(meta["stopwords_removed"]),
        )


def build_index(
    docs: Iterable[tuple[str, str]],
    stoplist: Stoplist | None = None,
    strip_marks: bool = True,
    workers: int = 1,
) -> Index:
    """Normalize, tokenize, filter and count a document stream into an Index.

    Documents are counted one at a time, in input order, into flat
    ``(term id, tf)`` buffers; one stable sort by term then yields every
    term's postings with ordinals ascending.  ``workers`` is accepted for
    compatibility and has no effect: the build is serial, since
    tokenization holds the GIL and threads only slowed it down.
    """
    vocab: dict[str, int] = {}  # term -> id in order of first appearance
    term_ids, tfs, doc_lengths, doc_terms = (array("I") for _ in range(4))
    docnos: list[str] = []
    seen: set[str] = set()
    removed = 0
    for docno, text in docs:
        if docno in seen:
            raise ParseError("duplicate docno %r" % docno)
        seen.add(docno)
        tokens = tokenize(normalize(text, strip_marks=strip_marks))
        kept = stoplist.filter(tokens) if stoplist is not None else tokens
        counts = Counter(kept)
        docnos.append(docno)
        doc_lengths.append(len(kept))
        doc_terms.append(len(counts))
        removed += len(tokens) - len(kept)
        term_ids.extend([vocab.setdefault(term, len(vocab)) for term in counts])
        tfs.extend(counts.values())

    terms = sorted(vocab)
    position = np.argsort(np.array([vocab[t] for t in terms], dtype=np.int64))
    keys = position[np.asarray(term_ids, dtype=np.int64)]  # sorted term position
    order = np.argsort(keys, kind="stable")
    ordinals = np.repeat(np.arange(len(docnos), dtype=np.uint32), doc_terms)
    index = Index(
        docnos=docnos,
        doc_lengths=np.array(doc_lengths, dtype=np.uint32),
        terms=terms,
        doc_freqs=np.bincount(keys, minlength=len(terms)).astype(np.uint32),
        pairs=np.column_stack((ordinals[order], np.asarray(tfs, dtype=np.uint32)[order])),
        total_tokens=sum(doc_lengths),
        stoplist=stoplist,
        strip_marks=strip_marks,
        stopwords_removed=removed,
    )
    index.check()
    return index

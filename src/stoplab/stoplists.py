"""Stoplist construction, loading, writing, combination and application.

Three strategies are supported, identified by short codes:

* ``GS``  -- general list built from Arabic function-word classes (bundled).
* ``CBS`` -- corpus-based list: terms whose collection frequency exceeds a
  cutoff, minus a hand-picked exclusion set (bundled, and reproducible from
  any index via :func:`build_corpus_stoplist`).
* ``CS``  -- the exact union of the two.

All words are stored normalized (see :mod:`stoplab.textpipe`), so membership
tests agree with the token stream.  Stoplists are immutable and safe to
share between threads.

File format: UTF-8, one word per line, no ordering requirement; blank lines
and ``#`` comment lines, :func:`write_stoplist`'s header among them, skipped.
"""

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import ParseError, iter_lines, source_name
from .textpipe import normalize, tokenize

PROVENANCES = ("general", "corpus-based", "combined", "custom")


@dataclass(frozen=True)
class Stoplist:
    """A named, immutable set of normalized stopwords."""

    name: str
    words: frozenset[str]
    provenance: str = "custom"

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError("unknown provenance %r" % (self.provenance,))
        if self.name.split() != [self.name]:  # it ends each run line's tag
            raise ValueError("stoplist name %r is not one word without whitespace"
                             % (self.name,))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return token in self.words

    def filter(self, tokens: Iterable[str]) -> list[str]:
        """Drop members of this list from a token sequence, keeping order."""
        words = self.words
        return [t for t in tokens if t not in words]


def load_stoplist(source, name: str, provenance: str = "custom") -> Stoplist:
    """Read a stoplist from a path or an open text or binary file.

    Each word is normalized before insertion; duplicates collapse.  Invalid
    UTF-8, or a word that no token can equal, being other than one token once
    normalized (``two words``), raises :class:`ParseError` naming the line.
    """
    words = set()
    where = source_name(source, "stoplist")
    for lineno, word in iter_lines(source, where):
        word = normalize(word)
        if tokenize(word) != [word]:
            raise ParseError("%s line %d: stopword %r is not one token"
                             % (where, lineno, word))
        words.add(word)
    return Stoplist(name=name, words=frozenset(words), provenance=provenance)


def write_stoplist(stoplist: Stoplist, out) -> None:
    """Write ``stoplist`` to the open text file ``out``, sorted, after three
    ``#`` header lines (name, provenance, size) that the loader skips."""
    out.write("# stoplist: %s\n# provenance: %s\n# words: %d\n"
              % (stoplist.name, stoplist.provenance, len(stoplist)))
    out.writelines(word + "\n" for word in sorted(stoplist.words))


def build_corpus_stoplist(
    freqs: Mapping[str, int],
    cutoff: int,
    exclusions: Iterable[str] = (),
    name: str = "CBS",
) -> Stoplist:
    """Terms with collection frequency strictly above ``cutoff``, minus
    ``exclusions``.

    The exclusion set models the manual removal of content-bearing words
    that merely happen to be frequent; it is an explicit input because no
    mechanical rule decides which frequent words carry content.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    excluded = {normalize(w) for w in exclusions}
    words = {normalize(t) for t, c in freqs.items() if c > cutoff}
    return Stoplist(
        name=name, words=frozenset(words - excluded), provenance="corpus-based"
    )


def combine(a: Stoplist, b: Stoplist, name: str | None = None) -> Stoplist:
    """Exact union of two stoplists."""
    if name is None:
        name = "%s+%s" % (a.name, b.name)
    return Stoplist(name=name, words=a.words | b.words, provenance="combined")


def _bundled(filename: str, name: str, provenance: str) -> Stoplist:
    ref = resources.files("stoplab.data").joinpath(filename)
    with ref.open("rb") as f:
        return load_stoplist(f, name=name, provenance=provenance)


@lru_cache(maxsize=None)
def general() -> Stoplist:
    """The bundled general stoplist (code GS)."""
    return _bundled("stop_general.txt", "GS", "general")


@lru_cache(maxsize=None)
def corpus_based() -> Stoplist:
    """The bundled corpus-based stoplist (code CBS)."""
    return _bundled("stop_corpus.txt", "CBS", "corpus-based")


@lru_cache(maxsize=None)
def combined() -> Stoplist:
    """GS and CBS combined (code CS)."""
    return combine(general(), corpus_based(), name="CS")


def bundled(code: str) -> Stoplist:
    """Look up a bundled list by its code (GS, CBS or CS)."""
    try:
        return {"GS": general, "CBS": corpus_based, "CS": combined}[code]()
    except KeyError:
        raise ValueError("unknown stoplist code %r" % (code,)) from None

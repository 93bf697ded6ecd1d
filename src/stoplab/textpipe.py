"""Arabic light normalization and tokenization.

Every piece of text entering the engine (documents, queries, stoplist
entries) passes through the same two steps, so term comparisons are always
made between identically prepared strings.

Normalization rules, applied in order:

1. Remove Arabic diacritics (fathatan through sukun, U+064B..U+0652) and
   tatweel (U+0640).  Switchable via ``strip_marks``, on by default.
2. Fold alef-madda, alef-with-hamza-above and alef-with-hamza-below
   (U+0622, U+0623, U+0625) to bare alef.
3. Fold word-final alef-maqsura (U+0649) to yeh.
4. Fold word-final teh-marbuta (U+0629) to heh.

"Word-final" means not followed by another token character (see below).
``normalize`` is idempotent, total, and never increases the character count.

Tokens are maximal runs of Arabic letters or of Latin alphanumerics; every
other character is a separator.  A mixed run of Latin letters and digits is
a single token ("TREC2001"); a hyphen splits ("TREC-2001" gives two tokens).

Chunk locality: neither step looks across whitespace.  No rule matches a
whitespace character, and whitespace ends a word just as the end of the
text does, so for any ``s``::

    tokenize(normalize(s)) == [t for c in s.split() for t in tokenize(normalize(c))]

So text whose chunks repeat can be tokenized once per distinct chunk, all
of them in one batch (:func:`tokenize_chunks`), as an index build does.

All functions are pure; they are safe to call concurrently.
"""

import re
from itertools import compress, count
from operator import not_, sub

# Core Arabic letter ranges (hamza..ghain, feh..yeh); tatweel sits between
# the two ranges and is deliberately excluded.
ARABIC_LETTERS = "ء-غف-ي"

_WORD_CHARS = ARABIC_LETTERS + "A-Za-z0-9"

_MARKS_RE = re.compile(r"[ً-ْـ]")
_ALEF_VARIANTS_RE = re.compile(r"[آأإ]")
_FINAL_ALEF_MAQSURA_RE = re.compile(r"ى(?![%s])" % _WORD_CHARS)
_FINAL_TEH_MARBUTA_RE = re.compile(r"ة(?![%s])" % _WORD_CHARS)
_TOKEN_RE = re.compile(r"[%s]+|[A-Za-z0-9]+" % ARABIC_LETTERS)

_CHUNK_END = "\n"
_CHUNK_TOKEN_RE = re.compile(_TOKEN_RE.pattern + "|" + _CHUNK_END)


def normalize(text: str, strip_marks: bool = True) -> str:
    """Apply the light normalization rules above to ``text``.

    Total on any Unicode input; characters outside the affected sets pass
    through untouched.
    """
    if strip_marks:
        text = _MARKS_RE.sub("", text)
    text = _ALEF_VARIANTS_RE.sub("ا", text)
    text = _FINAL_ALEF_MAQSURA_RE.sub("ي", text)
    text = _FINAL_TEH_MARBUTA_RE.sub("ه", text)
    return text


def tokenize(text: str) -> list[str]:
    """Split normalized text into tokens, in order of appearance.

    Never returns empty strings; separator characters never appear inside
    a token.
    """
    return _TOKEN_RE.findall(text)


def tokenize_chunks(chunks: list[str], strip_marks: bool = True) -> tuple[list[str], list[int]]:
    """Normalize and tokenize whitespace-free ``chunks`` in one batch.

    Returns ``(tokens, ends)``: the tokens of all chunks, chunk after chunk,
    and where each chunk's tokens end, so ``tokens[ends[i - 1]:ends[i]]``
    (from 0 for the first) are those of ``chunks[i]``; there may be none.
    By chunk locality they are ``tokenize(normalize(chunks[i], strip_marks))``.
    """
    # one normalize and one findall over the chunks, each followed by a
    # newline, which the findall returns too; newline k (from 0) follows
    # chunk k's tokens and k earlier newlines, so its index less k is ends[k]
    text = _CHUNK_END.join([*chunks, ""])
    marked = _CHUNK_TOKEN_RE.findall(normalize(text, strip_marks=strip_marks))
    is_end = list(map(_CHUNK_END.__eq__, marked))
    ends = list(map(sub, compress(count(), is_end), count()))
    return list(compress(marked, map(not_, is_end))), ends

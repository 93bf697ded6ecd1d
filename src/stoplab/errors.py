"""Input errors, and the line reader that every line-based format shares."""

import io
import os


class ParseError(Exception):
    """Raised when an input file or stream violates its documented format."""


def iter_lines(source, what: str):
    """Iterate ``(line number, line)`` over a path, an open file or an
    iterable of lines, numbering from 1.

    A path is read as UTF-8 with universal newlines, as text mode reads
    it, and byte lines are decoded as UTF-8.  Invalid UTF-8 raises
    :class:`ParseError` naming ``what`` and the line.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            data = f.read()
        try:
            # a plain iterator, not a generator: runs are read line by line
            return enumerate(io.StringIO(data.decode("utf-8"), newline=None), start=1)
        except UnicodeDecodeError:
            source = data.splitlines()  # decoded below, to name the bad line
    return _decoded(source, what)


def _decoded(lines, what: str):
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    "%s: invalid UTF-8 on line %d: %s" % (what, lineno, exc.reason)
                ) from exc
        yield lineno, line

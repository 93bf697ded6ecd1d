"""Input errors, and the file helpers that every reader and writer shares:
each text file stoplab reads, and each file it writes, is opened here."""

import gzip
import io
import os
import zlib
from contextlib import contextmanager


class ParseError(Exception):
    """Raised when an input file or stream violates its documented format."""


def read_text(path, encoding: str = "utf-8") -> str:
    """Read a whole file, gunzipping it when the name ends in ``.gz``.  A
    damaged gzip file, or bytes that do not decode, raise
    :class:`ParseError` naming the file."""
    try:
        with (gzip.open if os.fspath(path).endswith(".gz") else open)(path, "rb") as f:
            return f.read().decode(encoding)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError("%s: damaged gzip file: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError("%s: invalid %s at byte %d: %s"
                         % (path, encoding, exc.start, exc.reason)) from None


@contextmanager
def atomic_write(path, binary: bool = False):
    """Open a temporary file beside ``path`` for writing.  It replaces
    ``path`` only when the block completes, and is removed on any failure,
    so ``path`` keeps its old bytes (or stays absent) until then."""
    tmp = "%s.%d.tmp" % (os.fspath(path), os.getpid())
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename == tmp:  # name the target, not the temporary file
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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

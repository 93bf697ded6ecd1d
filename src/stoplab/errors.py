"""Input errors, the rule that names an input in them, and the file helpers
that every reader and writer shares: each text file stoplab reads, and each
file it writes, is opened here."""

import errno
import gzip
import io
import os
import zlib
from contextlib import contextmanager


class ParseError(Exception):
    """Raised when an input file or stream violates its documented format."""


def source_name(source, role: str) -> str:
    """The one naming rule for inputs: a path names itself and an open file
    names its ``role`` (``qrels``, ``run``, ``index``, ...).  Every
    :class:`ParseError` about an input starts with this name, as
    ``<name> line N: ...`` for line files and ``<name>: ...`` otherwise."""
    return role if hasattr(source, "read") else os.fspath(source)


def read_text(source, role: str, encoding: str = "utf-8") -> str:
    """Read a path, gunzipping names that end in ``.gz``, or an open text or
    binary file, to one string.  This is the only place where stoplab turns
    bytes into text.  A damaged gzip file, or bytes that do not decode (an
    open text file's own decoder included), raise :class:`ParseError`
    naming the source."""
    name = source_name(source, role)
    if hasattr(source, "read"):
        try:
            data = source.read()
        except UnicodeDecodeError as exc:  # a text file: decode its bytes below
            data, encoding = exc.object, getattr(source, "encoding", exc.encoding)
    else:
        try:
            with (gzip.open if name.endswith(".gz") else open)(source, "rb") as f:
                data = f.read()
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ParseError("%s: damaged gzip file: %s" % (name, exc)) from None
    if isinstance(data, str):
        return data
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # lines end at \n, \r\n or \r, as in iter_lines
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError("%s line %d: invalid %s at byte %d: %s"
                         % (name, line, encoding, exc.start, exc.reason)) from None


def iter_lines(source, role: str):
    """Iterate ``(line number, line)`` from 1 over the text that
    :func:`read_text` reads from a path or an open file, split with
    universal newlines: the reader of qrels, stoplists, configs and TSV
    reports.  A plain iterator, not a generator."""
    return enumerate(io.StringIO(read_text(source, role), newline=None), start=1)


@contextmanager
def atomic_write(path, binary: bool = False):
    """Open a temporary file beside ``path`` for writing.  It replaces
    ``path`` only when the block completes, and is removed on any failure,
    so ``path`` keeps its old bytes (or stays absent) until then.  A
    ``path`` that cannot be written, a directory too, raises OSError naming
    ``path`` before the block starts."""
    if os.path.isdir(path):  # the temporary file would open, but not replace it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
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

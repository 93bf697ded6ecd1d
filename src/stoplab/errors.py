"""Input errors, the rule that names an input in them, and the file helpers
that every reader and writer shares: each file stoplab reads or writes is
opened here, and each qrels, run and report line is split into fields here."""

import errno
import gzip
import io
import os
import zlib
from contextlib import contextmanager
from pathlib import Path


class ParseError(Exception):
    """Raised when an input file or stream violates its documented format."""


def source_name(source, role: str) -> str:
    """The one naming rule for inputs: a path names itself and an open file
    names its ``role`` (``qrels``, ``run``, ``index``, ...).  Every
    :class:`ParseError` about an input starts with this name, as
    ``<name> line N: ...`` for line files and ``<name>: ...`` otherwise."""
    return role if hasattr(source, "read") else os.fspath(source)


def read_bytes(source, role: str):
    """A path's raw bytes, or what an open file holds from where it stands:
    the only place where stoplab opens an input path.  A path that cannot
    be read raises :class:`ParseError` ``<path>: <reason>``."""
    if hasattr(source, "read"):
        return source.read()
    try:
        return Path(source).read_bytes()
    except OSError as exc:
        raise ParseError("%s: %s" % (source_name(source, role), exc.strerror)) from None


def read_data(source, role: str):
    """A path's bytes, gunzipped if its name ends in ``.gz``, or what an open
    file holds from where it stands (a text file's string): what
    :func:`read_text` decodes.  A damaged gzip file, or bytes that a text
    file's own decoder refuses, raise :class:`ParseError` naming the source."""
    name = source_name(source, role)
    try:
        data = read_bytes(source, role)
    except UnicodeDecodeError as exc:  # from a text file's own decoder
        raise _invalid(exc, name, getattr(source, "encoding", exc.encoding)) from None
    if isinstance(data, str) or not name.endswith(".gz"):
        return data
    try:
        return gzip.GzipFile(fileobj=io.BytesIO(data)).read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError("%s: damaged gzip file: %s" % (name, exc)) from None


def decode(data, name: str, encoding: str = "utf-8") -> str:
    """Bytes or a string as one string less one leading byte-order mark: the
    only place where stoplab decodes an input, naming ``name`` if it fails."""
    try:
        text = data if isinstance(data, str) else data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise _invalid(exc, name, encoding) from None
    return text.removeprefix("\ufeff")


def _invalid(exc: UnicodeDecodeError, name: str, encoding: str) -> ParseError:
    head = exc.object[: exc.start]  # lines end at \n, \r\n or \r, as in iter_lines
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return ParseError("%s line %d: invalid %s at byte %d: %s"
                      % (name, line, encoding, exc.start, exc.reason))


def read_text(source, role: str, encoding: str = "utf-8") -> str:
    """:func:`read_data` of a path or an open file, decoded by :func:`decode`."""
    return decode(read_data(source, role), source_name(source, role), encoding)


def iter_lines(source, role: str):
    """Iterate ``(line number, stripped line)`` over the content lines of the
    text that :func:`read_text` reads from a path or an open file, split with
    universal newlines and numbered from 1: the reader of stoplists and
    configs.  A content line is not blank once stripped and does not start
    with ``#``.  The source is read at the call, not at the first step."""
    lines = (line.strip() for line in io.StringIO(read_text(source, role), newline=None))
    return ((n, s) for n, s in enumerate(lines, start=1) if s and not s.startswith("#"))


def iter_records(text: str, name: str, width: int, sep: str | None = None):
    """Yield ``(line number, fields)`` for each non-blank line of ``text``,
    split as in :func:`iter_lines` and at ``sep`` (any whitespace by default).
    A line of other than ``width`` fields raises :class:`ParseError`."""
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split(sep)
        if len(fields) != width:
            raise ParseError("%s line %d: expected %d fields, got %d"
                             % (name, lineno, width, len(fields)))
        yield lineno, fields


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

"""The one place that reads text files, and atomic replacement for every
artifact a later run reads back."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from .errors import ParseError


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line without its "\\n") for each line of
    a UTF-8 text file, split on universal newlines as open() splits them.

    A byte that is not UTF-8 is a ParseError naming path and its line.
    """
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                yield line_no, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        # The decoder reads ahead in chunks, so exc.start is no file offset.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as located:
            exc = located
        head = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raise ParseError(f"{path} is not UTF-8: {exc.reason} "
                         f"(byte 0x{data[exc.start]:02x})", head.count("\n") + 1) from None


def read_rows(path, width: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank line of tab-separated
    fields; the inverse of write_rows. Another field count is a ParseError."""
    for line_no, line in read_lines(path):
        if line.strip():
            fields = line.split("\t")
            if len(fields) != width:
                raise ParseError(f"expected {width} tab-separated fields, got "
                                 f"{len(fields)} in {path}", line_no)
            yield line_no, fields


@contextmanager
def atomic_write(path, binary: bool = False):
    """Write through a temporary file next to path, then os.replace it.

    Readers see either the previous file or the complete new one: if the
    block raises, the temporary file is deleted and path is left untouched.
    An OSError on the temporary file names path instead.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def write_rows(path, rows: Iterable[Sequence]) -> None:
    """Write each row as one line of tab-separated fields, atomically."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write("\t".join(f"{field}" for field in row) + "\n")

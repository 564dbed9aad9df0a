"""Atomic file replacement for every artifact a later run reads back."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Sequence


@contextmanager
def atomic_write(path, binary: bool = False):
    """Write through a temporary file next to path, then os.replace it.

    Readers see either the previous file or the complete new one: if the
    block raises, the temporary file is deleted and path is left untouched.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows(path, rows: Iterable[Sequence]) -> None:
    """Write each row as one line of tab-separated fields, atomically."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write("\t".join(f"{field}" for field in row) + "\n")

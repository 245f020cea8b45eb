"""Whole-file output: a reader finds the old file or the new one, never
part of one, and a write that fails leaves nothing behind."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a new temporary file beside ``path`` for writing, and rename
    it onto ``path`` when the block ends.

    ``mode`` is "w" (ASCII text with "\\n" line ends) or "wb". If the
    block raises, the temporary file is removed and an existing ``path``
    is left as it was. The file gets the permissions ``open`` would give.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    text = {} if "b" in mode else {"encoding": "ascii", "newline": "\n"}
    try:
        with open(tmp, mode.replace("w", "x"), **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise

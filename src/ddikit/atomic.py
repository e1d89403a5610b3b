"""Atomic file output: every file ddikit writes goes through ``atomic_open``,
so a reader or an interrupted run sees the old file or the whole new one."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str):
    """Write ``path + ".tmp"`` in ``mode`` ("w" for UTF-8 text, "wb" for
    bytes) and ``os.replace`` it over ``path`` on a clean exit. On any
    exception the tmp file is removed and ``path`` is left as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise

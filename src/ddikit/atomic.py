"""File framing: every file ddikit writes goes through ``atomic_open``, so a
reader or an interrupted run sees the old file or the whole new one. Text
files are framed here too: ``write_lines`` writes them, and ``read_rows``
reads the tab-separated tables."""

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


def write_lines(path, lines):
    """Write each of ``lines`` and a ``"\\n"`` after it to ``path`` as UTF-8."""
    with atomic_open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def read_rows(path, n_fields: int, layout: str, error: type[Exception]):
    """Yield ``(line number, fields)`` for each non-blank line of the UTF-8
    file ``path``. A line that is not ``n_fields`` non-empty tab-separated
    fields raises ``error("path:line: expected <layout>")``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields or not all(fields):
                raise error(f"{path}:{lineno}: expected {layout}")
            yield lineno, fields

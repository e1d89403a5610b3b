"""File framing: every file ddikit writes goes through ``atomic_open``, so a
reader or an interrupted run sees the old file or the whole new one. Text
files are framed here too: ``write_lines`` writes them, ``csv_lines`` formats
the CSV ones, and ``read_rows`` reads the tab-separated tables.

Binary files have one layout, the array file: ``write_arrays`` writes it,
``read_arrays`` reads it, and checkpoints and KG vector tables are array
files. Byte layout (integers little-endian):

    magic   4 bytes  b"DDKC"
    version u32      currently 1
    hlen    u64      byte length of the JSON header
    header  hlen bytes of UTF-8 JSON
    payload concatenated raw array bytes

The header holds ``meta``, a JSON object the caller chooses, and ``arrays``:
one {group, name, shape, dtype, offset, nbytes} entry per array, in payload
order. Each array keeps its dtype, so it reads back bit-identical.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"DDKC"
VERSION = 1
DTYPES = ("<f4", "<f8")  # the dtypes ddikit trains in


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


def csv_lines(header: str, rows) -> list[str]:
    """``header`` and then one comma-joined line per row: a float cell as
    ``.10g``, every other cell as ``str``."""
    return [header] + [",".join(f"{x:.10g}" if isinstance(x, float) else str(x)
                                for x in row) for row in rows]


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


def write_arrays(path, groups: dict[str, dict[str, np.ndarray]], meta: dict):
    """Write ``groups`` (group name -> {array name -> array}) and the JSON
    object ``meta`` to ``path`` as one array file. Arrays are laid out in
    iteration order, each little-endian in its own dtype."""
    entries, chunks, offset = [], [], 0
    for group, arrays in groups.items():
        for name, arr in arrays.items():
            le = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
            entries.append({"group": group, "name": name, "shape": list(le.shape),
                            "dtype": le.dtype.str, "offset": offset, "nbytes": le.nbytes})
            chunks.append(le)
            offset += le.nbytes
    header = json.dumps({"arrays": entries, "meta": meta}, sort_keys=True).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(header)))
        fh.write(header)
        for le in chunks:
            fh.write(le)


def _entry_array(path, entry, payload, start: int, error: type[Exception]) -> np.ndarray:
    """The array a header entry describes: a supported dtype, a shape that
    takes its ``nbytes``, starting at payload byte ``start``, all finite."""
    try:
        group, name, dtype = entry["group"], entry["name"], entry["dtype"]
        shape, lo, n = entry["shape"], entry["offset"], entry["nbytes"]
    except (KeyError, TypeError) as exc:
        raise error(f"{path}: corrupt array entry {entry!r}") from exc
    if dtype not in DTYPES:
        raise error(f"{path}: unsupported dtype {dtype!r} for {name!r}")
    if not (type(group) is str and type(name) is str and isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)
            and type(lo) is int and type(n) is int):
        raise error(f"{path}: corrupt array entry for {name!r}")
    if lo != start:
        raise error(f"{path}: {group} {name!r} starts at payload byte {lo}, "
                    f"not where the previous array ends ({start})")
    if math.prod(shape) * np.dtype(dtype).itemsize != n:
        raise error(f"{path}: {name!r} of shape {shape} and dtype {dtype} "
                    f"does not take {n} bytes")
    if lo + n > len(payload):
        raise error(f"{path}: truncated payload at {name!r}")
    arr = np.frombuffer(payload[lo:lo + n], dtype=dtype).reshape(shape).copy()
    if not np.isfinite(arr).all():
        raise error(f"{path}: {group} {name!r} holds NaN or Inf")
    return arr


def read_arrays(path, error: type[Exception]) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    """Read the array file ``path``; returns ``(meta, groups)``. Raises
    ``error`` unless the preamble and header are intact and the entries tile
    the payload: each fits ``_entry_array``, no ``(group, name)`` appears
    twice, and no bytes follow the last array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise error(f"{path}: not a ddikit array file")
    if len(blob) < 16:
        raise error(f"{path}: truncated preamble")
    version, hlen = struct.unpack("<IQ", blob[4:16])
    if version != VERSION:
        raise error(f"{path}: unsupported array file version {version}")
    if len(blob) < 16 + hlen:
        raise error(f"{path}: truncated header")
    try:
        header = json.loads(blob[16:16 + hlen].decode())
        entries, meta = header["arrays"], header["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        raise error(f"{path}: corrupt header: {exc}") from exc
    if not (isinstance(entries, list) and isinstance(meta, dict)):
        raise error(f"{path}: corrupt header")
    payload = memoryview(blob)[16 + hlen:]
    groups: dict[str, dict[str, np.ndarray]] = {}
    end = 0
    for entry in entries:
        arr = _entry_array(path, entry, payload, end, error)
        group = groups.setdefault(entry["group"], {})
        if entry["name"] in group:
            raise error(f"{path}: {entry['group']} {entry['name']!r} appears twice")
        group[entry["name"]] = arr
        end += entry["nbytes"]
    if end != len(payload):
        raise error(f"{path}: {len(payload) - end} bytes follow the last array")
    return meta, groups

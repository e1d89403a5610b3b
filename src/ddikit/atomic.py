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
order. Each array keeps its dtype and shape (a 0-d array too), so it reads
back bit-identical.

``read_arrays`` never holds the whole file: it reads the preamble and
header, then each array straight from the file into its own new buffer,
in payload order. Every array is read and checked, but only those of the
groups the caller asks to keep stay alive, so a read peaks at the kept
arrays plus the largest other one.
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
            le = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"), order="C")
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


def _entry_array(path, entry, fh, payload_len: int, start: int,
                 error: type[Exception]) -> np.ndarray:
    """The array a header entry describes, read from ``fh`` (at payload
    byte ``start``) into a new buffer: a supported dtype, a shape numpy can
    hold that takes its ``nbytes``, all within the payload's ``payload_len``
    bytes, all finite."""
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
    if lo + n > payload_len:
        raise error(f"{path}: truncated payload at {name!r}")
    try:
        arr = np.empty(shape, dtype)
    except ValueError as exc:  # 0 elements, but a dimension numpy cannot hold
        raise error(f"{path}: corrupt array entry for {name!r}") from exc
    # a uint8 view, since memoryview(arr).cast("B") refuses 0-size arrays
    if fh.readinto(arr.reshape(-1).view(np.uint8)) != n:
        raise error(f"{path}: truncated payload at {name!r}")
    # min and max propagate NaN and reach any Inf, with no temporary of arr's size
    if arr.size and not np.isfinite([arr.min(), arr.max()]).all():
        raise error(f"{path}: {group} {name!r} holds NaN or Inf")
    return arr


def read_arrays(path, error: type[Exception],
                keep=None) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    """Read the array file ``path``; returns ``(meta, groups)``, where
    ``groups`` holds the groups ``keep`` names (every group if None).
    Raises ``error`` unless the preamble and header are intact and the
    entries tile the payload: each fits ``_entry_array``, no ``(group,
    name)`` appears twice, and no bytes follow the last array. Arrays are
    read one at a time straight into their own buffers, and every array is
    checked, kept or not, so memory peaks at the kept arrays plus one."""
    with open(path, "rb") as fh:
        preamble = fh.read(16)
        if preamble[:4] != MAGIC:
            raise error(f"{path}: not a ddikit array file")
        if len(preamble) < 16:
            raise error(f"{path}: truncated preamble")
        version, hlen = struct.unpack("<IQ", preamble[4:])
        if version != VERSION:
            raise error(f"{path}: unsupported array file version {version}")
        payload_len = os.fstat(fh.fileno()).st_size - 16 - hlen
        if payload_len < 0:
            raise error(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode())
            entries, meta = header["arrays"], header["meta"]
        except (ValueError, KeyError, TypeError) as exc:
            raise error(f"{path}: corrupt header: {exc}") from exc
        if not (isinstance(entries, list) and isinstance(meta, dict)):
            raise error(f"{path}: corrupt header")
        groups: dict[str, dict[str, np.ndarray]] = {}
        seen, end = set(), 0
        for entry in entries:
            arr = _entry_array(path, entry, fh, payload_len, end, error)
            group, name = entry["group"], entry["name"]
            if (group, name) in seen:
                raise error(f"{path}: {group} {name!r} appears twice")
            seen.add((group, name))
            if keep is None or group in keep:
                groups.setdefault(group, {})[name] = arr
            del arr  # so an array not kept is freed before the next is read
            end += entry["nbytes"]
    if end != payload_len:
        raise error(f"{path}: {payload_len - end} bytes follow the last array")
    return meta, groups

"""Versioned binary checkpoints.

Byte layout (all integers little-endian):

    magic   4 bytes  b"DDKC"
    version u32      currently 1
    hlen    u64      byte length of the JSON header
    header  hlen bytes of UTF-8 JSON
    payload concatenated raw array bytes

The header holds ``arrays``: a list of {group, name, shape, dtype, offset,
nbytes} entries describing the payload (groups: param, buffer, adam_m,
adam_v), plus ``meta``: epoch counter, optimizer scalars, serialized RNG
states, the architecture config and its fingerprint, and free-form extras.
Arrays are stored in their training dtype, so save -> load -> forward is
bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .atomic import atomic_open
from .optim import AdamState

MAGIC = b"DDKC"
VERSION = 1
DTYPES = ("<f4", "<f8")  # the dtypes ddikit trains in


class CheckpointError(ValueError):
    pass


def config_fingerprint(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _rng_state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def save_checkpoint(path, model, optimizer: AdamState | None = None,
                    epoch: int = 0, extra: dict | None = None):
    """Serialize model parameters/buffers, optimizer moments and RNG state."""
    arrays = []
    chunks = []
    offset = 0

    def put(group, name, arr):
        nonlocal offset
        arr = np.ascontiguousarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        arrays.append({"group": group, "name": name, "shape": list(arr.shape),
                       "dtype": arr.dtype.str if arr.dtype.str[0] != ">" else arr.dtype.newbyteorder("<").str,
                       "offset": offset, "nbytes": len(raw)})
        chunks.append(raw)
        offset += len(raw)

    for name, p in model.parameters().items():
        put("param", name, p.data)
    for name, buf in model.buffers().items():
        put("buffer", name, buf)
    meta = {
        "epoch": epoch,
        "config": model.cfg.to_dict(),
        "config_fingerprint": config_fingerprint(model.cfg.to_dict()),
        "model_rng": _rng_state(model.rng),
        "extra": extra or {},
    }
    if optimizer is not None:
        for name, arr in optimizer.m.items():
            put("adam_m", name, arr)
        for name, arr in optimizer.v.items():
            put("adam_v", name, arr)
        meta["optimizer"] = {
            "learning_rate": optimizer.learning_rate,
            "weight_decay": optimizer.weight_decay,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "epsilon": optimizer.epsilon,
            "step_count": optimizer.step_count,
        }
    header = json.dumps({"arrays": arrays, "meta": meta}, sort_keys=True).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(header)))
        fh.write(header)
        for raw in chunks:
            fh.write(raw)


def _entry_array(path, entry, payload: bytes) -> np.ndarray:
    """The array a header entry describes, checked against the payload."""
    try:
        group, name, dtype = entry["group"], entry["name"], entry["dtype"]
        shape, lo, n = entry["shape"], entry["offset"], entry["nbytes"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: corrupt array entry {entry!r}") from exc
    if dtype not in DTYPES:
        raise CheckpointError(f"{path}: unsupported dtype {dtype!r} for {name!r}")
    if not (type(group) is str and type(name) is str and isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)
            and type(lo) is int and type(n) is int and lo >= 0):
        raise CheckpointError(f"{path}: corrupt array entry for {name!r}")
    if math.prod(shape) * np.dtype(dtype).itemsize != n:
        raise CheckpointError(f"{path}: {name!r} of shape {shape} and dtype {dtype} "
                              f"does not take {n} bytes")
    if lo + n > len(payload):
        raise CheckpointError(f"{path}: truncated payload at {name!r}")
    return np.frombuffer(payload[lo:lo + n], dtype=dtype).reshape(shape).copy()


def read_checkpoint(path) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    """Returns (meta, groups) where groups maps group name -> {name: array}."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated preamble")
    version, hlen = struct.unpack("<IQ", blob[4:16])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < 16 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16:16 + hlen].decode())
        arrays = header["arrays"]
        meta = header["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not (isinstance(arrays, list) and isinstance(meta, dict)):
        raise CheckpointError(f"{path}: corrupt header")
    for key, kind in (("config", dict), ("config_fingerprint", str), ("model_rng", dict)):
        if not isinstance(meta.get(key), kind):
            raise CheckpointError(f"{path}: meta has no {key} {kind.__name__}")
    payload = blob[16 + hlen:]
    groups: dict[str, dict[str, np.ndarray]] = {}
    for entry in arrays:
        arr = _entry_array(path, entry, payload)
        groups.setdefault(entry["group"], {})[entry["name"]] = arr
    return meta, groups


def load_checkpoint(path, model, optimizer: AdamState | None = None) -> dict:
    """Restore parameters/buffers (and optimizer state if given) in place.
    Returns the checkpoint meta dict. The stored config fingerprint must
    match the model's."""
    meta, groups = read_checkpoint(path)
    want = config_fingerprint(model.cfg.to_dict())
    if meta["config_fingerprint"] != want:
        raise CheckpointError(f"{path}: config fingerprint mismatch")
    try:
        rng = _restore_rng(meta["model_rng"])
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad model_rng state: {exc!r}") from exc
    params = model.parameters()
    buffers = model.buffers()
    for group, live in (("param", {n: p.data for n, p in params.items()}), ("buffer", buffers)):
        stored = groups.get(group, {})
        if set(stored) != set(live):
            raise CheckpointError(f"{path}: {group} set mismatch")
        for name, arr in stored.items():
            if arr.shape != live[name].shape:
                raise CheckpointError(f"{path}: shape mismatch for {group} {name!r}")
    for name, arr in groups.get("param", {}).items():
        params[name].data = arr
    for name, arr in groups.get("buffer", {}).items():
        buffers[name][...] = arr
    model.rng = rng
    if optimizer is not None:
        if "optimizer" not in meta:
            raise CheckpointError(f"{path}: checkpoint has no optimizer state")
        o = meta["optimizer"]
        optimizer.learning_rate = o["learning_rate"]
        optimizer.weight_decay = o["weight_decay"]
        optimizer.beta1 = o["beta1"]
        optimizer.beta2 = o["beta2"]
        optimizer.epsilon = o["epsilon"]
        optimizer.step_count = o["step_count"]
        optimizer.m = dict(groups.get("adam_m", {}))
        optimizer.v = dict(groups.get("adam_v", {}))
    return meta

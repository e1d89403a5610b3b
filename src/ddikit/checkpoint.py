"""Checkpoints, stored as array files (see ``ddikit.atomic``): what the
pipeline reads back to score pairs. Groups param and buffer, and a meta
holding the epoch counter, the model RNG state, the architecture config and
its fingerprint, the sha256 of the vocabulary and label lists the model was
trained with (when given), and free-form extras. Arrays keep their training
dtype, so save -> load -> forward is bit-identical, and a parameter or
buffer stored in another dtype than the model's is refused. Older
checkpoints still load: their float64 buffers are cast to the model's
dtype, and their Adam moments are read and checked but not kept."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .atomic import read_arrays, write_arrays


class CheckpointError(ValueError):
    pass


def config_fingerprint(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def list_digest(items) -> str:
    """sha256 of an ordered list of strings, such as vocabulary tokens or
    class labels in id order."""
    return hashlib.sha256(json.dumps(list(items)).encode()).hexdigest()


# meta key -> what the digested list is, for the mismatch error
_DIGESTS = {"vocab_sha256": "vocabulary", "labels_sha256": "label list"}


def _rng_state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def save_checkpoint(path, model, epoch: int = 0, extra: dict | None = None,
                    vocab=None, labels=None):
    """Serialize the model's parameters, buffers and RNG state, plus the
    digests of the vocabulary tokens and class labels if given."""
    groups = {"param": {name: p.data for name, p in model.parameters().items()},
              "buffer": model.buffers()}
    meta = {
        "epoch": epoch,
        "config": model.cfg.to_dict(),
        "config_fingerprint": config_fingerprint(model.cfg.to_dict()),
        "model_rng": _rng_state(model.rng),
        "extra": extra or {},
    }
    for key, items in zip(_DIGESTS, (vocab, labels)):
        if items is not None:
            meta[key] = list_digest(items)
    write_arrays(path, groups, meta)


def read_checkpoint(path, keep=None) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    """Returns (meta, groups) where groups maps group name -> {name: array}
    for the groups ``keep`` names (every group if None). Every array is
    read and checked, kept or not (see ``ddikit.atomic.read_arrays``)."""
    meta, groups = read_arrays(path, CheckpointError, keep)
    for key, kind in (("config", dict), ("config_fingerprint", str), ("model_rng", dict)):
        if not isinstance(meta.get(key), kind):
            raise CheckpointError(f"{path}: meta has no {key} {kind.__name__}")
    return meta, groups


def load_checkpoint(path, model, vocab=None, labels=None) -> dict:
    """Restore the model's parameters, buffers and RNG state in place.
    Returns the checkpoint meta dict. The stored config fingerprint must
    match the model's, and a given vocabulary or label list must match the
    one whose digest the checkpoint stores; a checkpoint without a digest
    accepts any. Only the param and buffer groups are kept, so loading holds
    no more than the parameters and buffers plus one array; an older
    checkpoint's Adam moments are read and checked but not kept."""
    meta, groups = read_checkpoint(path, ("param", "buffer"))
    want = config_fingerprint(model.cfg.to_dict())
    if meta["config_fingerprint"] != want:
        raise CheckpointError(f"{path}: config fingerprint mismatch")
    for (key, what), items in zip(_DIGESTS.items(), (vocab, labels)):
        if items is not None and key in meta and meta[key] != list_digest(items):
            raise CheckpointError(f"{path}: the model was trained with another {what}")
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
            # older checkpoints hold float64 buffers, cast to the model's dtype
            if arr.dtype != live[name].dtype and not (group == "buffer"
                                                      and arr.dtype == np.float64):
                raise CheckpointError(f"{path}: {group} {name!r} is {arr.dtype}, not the "
                                      f"model's {live[name].dtype}")
    for name, arr in groups.get("param", {}).items():
        params[name].data = arr
    for name, arr in groups.get("buffer", {}).items():
        buffers[name][...] = arr
    model.rng = rng
    return meta

"""Checkpoints, stored as array files (see ``ddikit.atomic``): groups param,
buffer, adam_m and adam_v, and a meta holding the epoch counter, optimizer
scalars, RNG state, the architecture config and its fingerprint, the
sha256 of the vocabulary and label lists the model was trained with (when
given), and free-form extras. Arrays keep their training dtype, so save ->
load -> forward is bit-identical. The Adam moments are in their parameter's
dtype; float64 moments of older checkpoints are cast to it on load."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .atomic import read_arrays, write_arrays
from .optim import AdamState

_ADAM_SCALARS = ("learning_rate", "weight_decay", "beta1", "beta2", "epsilon", "step_count")


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


def save_checkpoint(path, model, optimizer: AdamState | None = None,
                    epoch: int = 0, extra: dict | None = None, vocab=None, labels=None):
    """Serialize model parameters/buffers, optimizer moments and RNG state,
    plus the digests of the vocabulary tokens and class labels if given."""
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
    if optimizer is not None:
        groups["adam_m"] = optimizer.m
        groups["adam_v"] = optimizer.v
        meta["optimizer"] = {key: getattr(optimizer, key) for key in _ADAM_SCALARS}
    write_arrays(path, groups, meta)


def read_checkpoint(path) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    """Returns (meta, groups) where groups maps group name -> {name: array}."""
    meta, groups = read_arrays(path, CheckpointError)
    for key, kind in (("config", dict), ("config_fingerprint", str), ("model_rng", dict)):
        if not isinstance(meta.get(key), kind):
            raise CheckpointError(f"{path}: meta has no {key} {kind.__name__}")
    return meta, groups


def load_checkpoint(path, model, optimizer: AdamState | None = None,
                    vocab=None, labels=None) -> dict:
    """Restore parameters/buffers (and optimizer state if given) in place.
    Returns the checkpoint meta dict. The stored config fingerprint must
    match the model's, and a given vocabulary or label list must match the
    one whose digest the checkpoint stores; a checkpoint without a digest
    accepts any."""
    meta, groups = read_checkpoint(path)
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
    if optimizer is not None:
        o = meta.get("optimizer")
        if not (isinstance(o, dict) and all(type(o.get(key)) in (int, float)
                                            for key in _ADAM_SCALARS)):
            raise CheckpointError(f"{path}: checkpoint has no optimizer state with "
                                  f"numeric {', '.join(_ADAM_SCALARS)}")
        for group in ("adam_m", "adam_v"):
            for name, arr in groups.get(group, {}).items():
                if name not in params or arr.shape != params[name].data.shape:
                    raise CheckpointError(f"{path}: {group} {name!r} is not the moment "
                                          f"of a parameter of its shape")
        if set(groups.get("adam_m", {})) != set(groups.get("adam_v", {})):
            raise CheckpointError(f"{path}: adam_m and adam_v name different parameters")
    for name, arr in groups.get("param", {}).items():
        params[name].data = arr
    for name, arr in groups.get("buffer", {}).items():
        buffers[name][...] = arr
    model.rng = rng
    if optimizer is not None:
        for key in _ADAM_SCALARS:
            setattr(optimizer, key, o[key])
        optimizer.m, optimizer.v = {}, {}
        for group, moments in (("adam_m", optimizer.m), ("adam_v", optimizer.v)):
            for name, arr in groups.get(group, {}).items():
                # older checkpoints hold float64 moments of float32 parameters
                moments[name] = arr.astype(params[name].data.dtype, copy=False)
    return meta

"""Masked-token pretraining and supervised fine-tuning loops.

Masking replaces every selected position with the MASK token (no random or
keep substitutions); selection count is round(rate * real-token count) with
a minimum of 1, and PAD/SEP positions are never selected. Fine-tuning
re-randomizes each training SMILES pair once per epoch; evaluation always
uses the stored form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward, no_grad
from .checkpoint import save_checkpoint
from .data import DdiEvent, DrugRecord
from .model import DdiModel, PretrainModel
from .optim import AdamState, adam_step, zero_grads
from .smiles import (MASK, SEP, TokenSequence, Vocabulary, encode_pair,
                     randomize_smiles)


@dataclass
class PretrainConfig:
    epochs: int = 700
    batch_size: int = 8
    learning_rate: float = 1e-5
    mask_rate: float = 0.15
    seed: int = 0

    def __post_init__(self):
        _check_training_ranges(self)
        if not 0 < self.mask_rate < 1:
            raise ValueError(f"mask_rate must be in (0, 1), got {self.mask_rate!r}")


@dataclass
class FinetuneConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 5e-5
    weight_decay: float = 1e-5
    randomize: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_training_ranges(self)
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay!r}")


def _check_training_ranges(cfg):
    """The ranges PretrainConfig and FinetuneConfig share."""
    for name in ("epochs", "batch_size"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(cfg, name)!r}")
    if not 0 <= cfg.learning_rate < math.inf:
        raise ValueError(f"learning_rate must be >= 0 and finite, got {cfg.learning_rate!r}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed!r}")


@dataclass
class MaskingPlan:
    positions: np.ndarray  # indices into the sequence
    original_ids: np.ndarray


def make_pretrain_pairs(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """One pair per corpus element: (i, uniform j != i)."""
    if n < 2:
        raise ValueError("pretraining needs at least 2 molecules")
    pairs = []
    for i in range(n):
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        pairs.append((i, j))
    return pairs


def mask_sequence(seq: TokenSequence, rate: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, MaskingPlan]:
    """Return masked ids and the plan recording positions and originals."""
    eligible = np.flatnonzero(seq.attention_mask & (seq.ids != SEP))
    if len(eligible) == 0:
        raise ValueError("sequence has no maskable tokens")
    k = max(1, int(round(rate * len(eligible))))
    picked = rng.choice(eligible, size=k, replace=False)
    picked.sort()
    masked = seq.ids.copy()
    originals = masked[picked].copy()
    masked[picked] = MASK
    return masked, MaskingPlan(positions=picked, original_ids=originals)


def _stack(seqs: list[TokenSequence]):
    ids = np.stack([s.ids for s in seqs])
    segs = np.stack([s.segment_ids for s in seqs])
    mask = np.stack([s.attention_mask for s in seqs])
    return ids, segs, mask


def _train_step(model, opt: AdamState, forward, targets: np.ndarray, epoch: int,
                step: int):
    """Run ``forward()`` on a fresh tape, take its cross-entropy loss against
    ``targets``, stop on a non-finite loss, then back-propagate and apply one
    Adam update. Returns the logits and the loss value. The previous step's
    gradients are dropped before the forward, so they are not held through
    it."""
    zero_grads(model.parameters())
    tape = Tape()
    with tape:
        logits = forward()
        loss = ad.cross_entropy_loss(logits, targets)
    value = loss.item()
    if not math.isfinite(value):
        raise FloatingPointError(f"NaN loss at epoch {epoch}, step {step}")
    backward(loss, tape)
    adam_step(model.parameters(), opt)
    return logits, value


def mlm_pretrain(model: PretrainModel, corpus: list[str], vocab: Vocabulary,
                 cfg: PretrainConfig, progress=None) -> list[float]:
    """Train the encoder with masked-token prediction; returns per-epoch mean
    losses. Loss is computed only at masked positions."""
    rng = np.random.default_rng(cfg.seed)
    opt = AdamState(learning_rate=cfg.learning_rate)
    history: list[float] = []
    n = len(corpus)
    max_len = model.cfg.max_len
    for epoch in range(cfg.epochs):
        pairs = make_pretrain_pairs(n, rng)
        order = rng.permutation(n)
        total, count = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            chunk = [pairs[k] for k in order[lo:lo + cfg.batch_size]]
            seqs = [encode_pair(corpus[i], corpus[j], vocab, max_len) for i, j in chunk]
            masked_ids = []
            flat_positions = []
            targets = []
            for row, seq in enumerate(seqs):
                mids, plan = mask_sequence(seq, cfg.mask_rate, rng)
                masked_ids.append(mids)
                flat_positions.append(plan.positions + row * max_len)
                targets.append(plan.original_ids)
            _, segs, mask = _stack(seqs)
            ids = np.stack(masked_ids)
            flat_positions = np.concatenate(flat_positions)
            targets = np.concatenate(targets)
            _, value = _train_step(
                model, opt, lambda: model.masked_logits(ids, segs, mask, flat_positions),
                targets, epoch, lo // cfg.batch_size)
            total += value * len(targets)
            count += len(targets)
        history.append(total / count)
        if progress:
            progress(epoch, history[-1])
    return history


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    eval_accuracy: float


def _encode_events(indices, events: list[DdiEvent], drugs: dict[str, DrugRecord],
                   vocab: Vocabulary, max_len: int,
                   rng: np.random.Generator | None = None) -> list[TokenSequence]:
    """Encode events; with an rng both SMILES are re-randomized (train-time
    augmentation), otherwise the stored forms are used."""
    out = []
    for i in indices:
        ev = events[i]
        sa = drugs[ev.drug_a].smiles
        sb = drugs[ev.drug_b].smiles
        if rng is not None:
            sa = randomize_smiles(sa, rng)
            sb = randomize_smiles(sb, rng)
        out.append(encode_pair(sa, sb, vocab, max_len))
    return out


def predict_scores(model: DdiModel, indices, events, drugs, vocab,
                   pair_vecs: np.ndarray, batch_size: int = 32,
                   max_len: int | None = None) -> np.ndarray:
    """Softmax class probabilities in eval mode; pair_vecs is [n_events, kg_dim]
    aligned with the full event list. FloatingPointError if a score is not
    finite.

    Pairs are encoded at the model's ``cfg.max_len``. ``max_len`` need not
    be given; one that differs from the model's raises ``ValueError``."""
    if max_len is not None and max_len != model.cfg.max_len:
        raise ValueError(f"max_len {max_len} differs from the model's max_len "
                         f"{model.cfg.max_len}")
    was_training = model.training
    model.eval()
    rows = []
    with no_grad():
        for lo in range(0, len(indices), batch_size):
            chunk = list(indices[lo:lo + batch_size])
            seqs = _encode_events(chunk, events, drugs, vocab, model.cfg.max_len)
            ids, segs, mask = _stack(seqs)
            rows.append(ad.softmax(model.forward(ids, segs, mask, pair_vecs[chunk])).data)
    if was_training:
        model.train()
    scores = np.concatenate(rows, axis=0)
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if len(bad):
        raise FloatingPointError(f"non-finite class scores, first for event {indices[bad[0]]}")
    return scores


def accuracy(model: DdiModel, indices, events, drugs, vocab, pair_vecs: np.ndarray,
             batch_size: int) -> float:
    """Share of the events at ``indices`` whose highest-scoring class is
    their label."""
    scores = predict_scores(model, indices, events, drugs, vocab, pair_vecs, batch_size)
    truth = np.array([events[i].label for i in indices])
    return float((scores.argmax(axis=1) == truth).mean())


def finetune(model: DdiModel, train_indices: list[int], eval_indices: list[int],
             events: list[DdiEvent], drugs: dict[str, DrugRecord],
             vocab: Vocabulary, pair_vecs: np.ndarray, cfg: FinetuneConfig,
             checkpoint_path=None, progress=None,
             class_names=None) -> tuple[list[EpochRecord], float]:
    """Cross-entropy training over event classes; keeps the checkpoint with
    the best eval accuracy when a path is given, recording the digests of
    the vocabulary and of ``class_names`` (the labels in class-id order) if
    given. Returns the per-epoch history and the best eval accuracy."""
    for i in train_indices:
        if events[i].label >= model.cfg.n_classes:
            raise ValueError(f"event {i} label {events[i].label} >= n_classes")
    rng = np.random.default_rng(cfg.seed)
    aug_rng = np.random.default_rng(cfg.seed + 1)
    opt = AdamState(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay)
    labels = np.array([events[i].label for i in train_indices], dtype=np.int64)
    history: list[EpochRecord] = []
    best_acc = -1.0
    for epoch in range(cfg.epochs):
        model.train()
        order = rng.permutation(len(train_indices))
        total, correct, seen = 0.0, 0, 0
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            chunk = [train_indices[k] for k in sel]
            seqs = _encode_events(chunk, events, drugs, vocab, model.cfg.max_len,
                                  rng=aug_rng if cfg.randomize else None)
            ids, segs, mask = _stack(seqs)
            y = labels[sel]
            logits, value = _train_step(
                model, opt, lambda: model.forward(ids, segs, mask, pair_vecs[chunk]),
                y, epoch, lo // cfg.batch_size)
            total += value * len(chunk)
            correct += int((logits.data.argmax(axis=1) == y).sum())
            seen += len(chunk)
        train_loss = total / seen
        train_acc = correct / seen
        eval_acc = (accuracy(model, eval_indices, events, drugs, vocab, pair_vecs,
                             cfg.batch_size) if eval_indices else train_acc)
        history.append(EpochRecord(epoch, train_loss, train_acc, eval_acc))
        if progress:
            progress(history[-1])
        if eval_acc > best_acc:
            best_acc = eval_acc
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model, epoch=epoch,
                                extra={"eval_accuracy": eval_acc},
                                vocab=vocab.tokens, labels=class_names)
    return history, best_acc

"""Masking semantics, pretraining loss mechanics, fine-tuning, weight
transfer, and checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest

from ddikit import autodiff as ad
from ddikit.autodiff import Tape, backward
from ddikit.atomic import write_arrays
from ddikit.checkpoint import (CheckpointError, config_fingerprint,
                               load_checkpoint, read_checkpoint,
                               save_checkpoint)
from ddikit.data import DdiEvent, DrugRecord
from ddikit.fixtures import make_dataset_fixture, random_smiles_corpus
from ddikit.model import DdiModel, ModelConfig, PretrainModel, transfer_encoder_weights
from ddikit.optim import AdamState, adam_step, zero_grads
from ddikit.smiles import MASK, PAD, SEP, Vocabulary, encode_pair
from ddikit.training import (FinetuneConfig, PretrainConfig, finetune,
                             make_pretrain_pairs, mask_sequence, mlm_pretrain,
                             predict_scores)


def small_config(vocab_size, n_classes=3, **over):
    base = dict(vocab_size=vocab_size, n_classes=n_classes, d_model=8,
                n_layers=1, n_heads=2, d_ff=8, max_len=32, kg_dim=8,
                kg_heads=2, conv_blocks=2, mlp1_hidden=8, mlp1_out=8,
                mlp2_hidden=8, dropout=0.0)
    base.update(over)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def test_mask_count_100_real_tokens_gives_15():
    v = Vocabulary.build(["C"])
    seq = encode_pair("C" * 70, "C" * 29, v, max_len=120)  # 100 real tokens
    assert seq.n_real == 100
    masked, plan = mask_sequence(seq, 0.15, np.random.default_rng(0))
    assert len(plan.positions) == 15
    assert (masked[plan.positions] == MASK).all()


def test_mask_minimum_one_token():
    v = Vocabulary.build(["C"])
    seq = encode_pair("C", "C", v, max_len=16)
    masked, plan = mask_sequence(seq, 0.01, np.random.default_rng(0))
    assert len(plan.positions) == 1


def test_mask_never_hits_pad_or_sep():
    v = Vocabulary.build(["CCO", "CCN"])
    seq = encode_pair("CCO", "CCN", v, max_len=20)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        masked, plan = mask_sequence(seq, 0.5, rng)
        assert (seq.ids[plan.positions] != SEP).all()
        assert (seq.ids[plan.positions] != PAD).all()
        assert seq.attention_mask[plan.positions].all()
        # non-picked positions unchanged
        untouched = np.setdiff1d(np.arange(20), plan.positions)
        assert (masked[untouched] == seq.ids[untouched]).all()
        assert (plan.original_ids == seq.ids[plan.positions]).all()


def test_mask_rate_respects_eligible_count():
    v = Vocabulary.build(["C"])
    seq = encode_pair("C" * 5, "C" * 4, v, max_len=32)  # 9 eligible, 1 SEP
    masked, plan = mask_sequence(seq, 0.15, np.random.default_rng(1))
    assert len(plan.positions) == max(1, round(0.15 * 9))


def test_make_pretrain_pairs_never_self():
    rng = np.random.default_rng(0)
    for n in (2, 3, 10):
        pairs = make_pretrain_pairs(n, rng)
        assert len(pairs) == n
        assert all(i != j for i, j in pairs)
        assert [i for i, _ in pairs] == list(range(n))


# ---------------------------------------------------------------------------
# MLM pretraining
# ---------------------------------------------------------------------------

def test_mlm_gradient_zero_at_unmasked_positions():
    """The loss only reads masked positions, so token-embedding rows of ids
    that never appear in the batch get no gradient."""
    corpus = ["CCO", "CCN"]
    vocab = Vocabulary.build(corpus)
    cfg = small_config(len(vocab), dtype="float64")
    model = PretrainModel(cfg, seed=0)
    seq = encode_pair("CCO", "CCN", vocab, cfg.max_len)
    ids = seq.ids[None, :].copy()
    flat_positions = np.array([0])  # only position 0 is masked
    targets = np.array([ids[0, 0]])
    ids[0, 0] = MASK
    zero_grads(model.parameters())
    tape = Tape()
    with tape:
        loss = ad.cross_entropy_loss(
            model.masked_logits(ids, seq.segment_ids[None, :],
                                seq.attention_mask[None, :], flat_positions),
            targets)
    backward(loss, tape)
    grad = model.parameters()["lm_head.b"].grad
    assert grad is not None and np.abs(grad).sum() > 0
    # an id absent from the input sees no token-embedding gradient
    tok_grad = model.parameters()["embed.token"].grad
    absent = [i for i in range(len(vocab)) if i not in set(ids[0]) | {PAD}]
    assert absent
    assert not tok_grad[absent].any()


def test_mlm_pretrain_reduces_loss():
    rng = np.random.default_rng(0)
    corpus = random_smiles_corpus(12, rng)
    vocab = Vocabulary.build(corpus)
    mcfg = small_config(len(vocab))
    model = PretrainModel(mcfg, seed=0)
    pcfg = PretrainConfig(epochs=12, batch_size=4, learning_rate=3e-3, seed=0)
    history = mlm_pretrain(model, corpus, vocab, pcfg)
    assert len(history) == 12
    assert history[-1] < history[0]
    assert history[0] == pytest.approx(np.log(len(vocab)), rel=0.25)


def test_pretrain_config_validates_rate():
    with pytest.raises(ValueError):
        PretrainConfig(mask_rate=0.0)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def tiny_world(tmp_path, seed=0):
    paths = make_dataset_fixture(tmp_path / "fix", n_drugs=10, n_events=30,
                                 n_classes=3, seed=seed)
    from ddikit.data import load_dataset
    drugs, events, label_map = load_dataset(paths["drugs"], paths["events"],
                                            paths["labels"])
    vocab = Vocabulary.build([d.smiles for d in drugs.values()])
    rng = np.random.default_rng(seed)
    pair_vecs = rng.standard_normal((len(events), 8))
    return drugs, events, label_map, vocab, pair_vecs


def test_finetune_runs_and_records_history(tmp_path):
    drugs, events, label_map, vocab, pair_vecs = tiny_world(tmp_path)
    cfg = small_config(len(vocab), n_classes=len(label_map))
    model = DdiModel(cfg, seed=0)
    fcfg = FinetuneConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=0)
    train_idx = list(range(20))
    eval_idx = list(range(20, 30))
    history, best = finetune(model, train_idx, eval_idx, events, drugs, vocab,
                             pair_vecs, fcfg)
    assert len(history) == 3
    assert best == max(r.eval_accuracy for r in history)
    assert all(np.isfinite(r.train_loss) for r in history)


def test_a_train_step_drops_the_last_steps_gradients_before_its_forward(tmp_path):
    """No parameter holds a gradient through a step's forward, so the last
    step's gradients are not held beside the new tape; backward then gives
    every parameter one."""
    drugs, events, label_map, vocab, pair_vecs = tiny_world(tmp_path)
    model = DdiModel(small_config(len(vocab), n_classes=len(label_map)), seed=0)
    params = model.parameters().values()
    forward = model.forward
    held = []

    def recording_forward(*args):
        held.append(any(p.grad is not None for p in params))
        return forward(*args)

    model.forward = recording_forward
    finetune(model, list(range(20)), [], events, drugs, vocab, pair_vecs,
             FinetuneConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=0))
    assert held == [False] * 3
    assert all(p.grad is not None for p in params)


def test_finetune_rejects_out_of_range_label(tmp_path):
    drugs, events, label_map, vocab, pair_vecs = tiny_world(tmp_path)
    cfg = small_config(len(vocab), n_classes=2)  # fixture has 3 classes
    model = DdiModel(cfg, seed=0)
    fcfg = FinetuneConfig(epochs=1)
    bad = [i for i, ev in enumerate(events) if ev.label >= 2]
    with pytest.raises(ValueError, match="n_classes"):
        finetune(model, bad[:1], [], events, drugs, vocab, pair_vecs, fcfg)


def test_predict_scores_rows_are_distributions(tmp_path):
    drugs, events, label_map, vocab, pair_vecs = tiny_world(tmp_path)
    cfg = small_config(len(vocab), n_classes=len(label_map))
    model = DdiModel(cfg, seed=0)
    scores = predict_scores(model, list(range(10)), events, drugs, vocab,
                            pair_vecs, batch_size=4, max_len=cfg.max_len)
    assert scores.shape == (10, len(label_map))
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-5)
    assert model.training  # restored afterwards


def test_predict_scores_deterministic(tmp_path):
    drugs, events, label_map, vocab, pair_vecs = tiny_world(tmp_path)
    cfg = small_config(len(vocab), n_classes=len(label_map))
    model = DdiModel(cfg, seed=0)
    a = predict_scores(model, [0, 1, 2], events, drugs, vocab, pair_vecs,
                       batch_size=2, max_len=cfg.max_len)
    b = predict_scores(model, [0, 1, 2], events, drugs, vocab, pair_vecs,
                       batch_size=2, max_len=cfg.max_len)
    assert np.array_equal(a, b)


def test_predict_scores_encodes_at_the_models_length(tmp_path):
    """A call without ``max_len`` scores a model of any length at its own,
    as one that passes it does; a different one raises, naming both."""
    drugs, events, label_map, vocab, pair_vecs = tiny_world(tmp_path)
    cfg = small_config(len(vocab), n_classes=len(label_map))
    assert cfg.max_len == 32
    model = DdiModel(cfg, seed=0)
    args = (model, [0, 1, 2], events, drugs, vocab, pair_vecs)
    assert np.array_equal(predict_scores(*args, batch_size=2),
                          predict_scores(*args, batch_size=2, max_len=32))
    with pytest.raises(ValueError, match="max_len 500 differs from the model's max_len 32"):
        predict_scores(*args, max_len=500)


def test_predict_scores_rows_do_not_depend_on_the_batch():
    """Attention cuts each sample's keys at its own last real token: a pair
    scored alone matches its row in a batch of much shorter and longer pairs."""
    drugs = {name: DrugRecord(name, smiles) for name, smiles in
             (("short", "CO"), ("mid", "CC(=O)Oc1ccccc1C(=O)O"), ("long", "C" * 40 + "N"))}
    events = [DdiEvent("short", "short", 0), DdiEvent("long", "long", 1),
              DdiEvent("short", "long", 2), DdiEvent("mid", "short", 0)]
    vocab = Vocabulary.build([d.smiles for d in drugs.values()])
    cfg = small_config(len(vocab), max_len=96)
    model = DdiModel(cfg, seed=0)
    pair_vecs = np.random.default_rng(0).standard_normal((len(events), cfg.kg_dim))
    indices = list(range(len(events)))
    mixed = predict_scores(model, indices, events, drugs, vocab, pair_vecs,
                           batch_size=len(indices), max_len=cfg.max_len)
    for i in indices:
        alone = predict_scores(model, [i], events, drugs, vocab, pair_vecs,
                               batch_size=1, max_len=cfg.max_len)
        assert np.abs(alone[0] - mixed[i]).max() <= 1e-7


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_identical(tmp_path):
    vocab = Vocabulary.build(["CCO", "CCN"])
    cfg = small_config(len(vocab))
    model = DdiModel(cfg, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, epoch=5, extra={"note": 1})

    model2 = DdiModel(cfg, seed=99)
    meta = load_checkpoint(path, model2)
    assert meta["epoch"] == 5
    assert meta["extra"] == {"note": 1}
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, model2.parameters()[name].data)
    for name, b in model.buffers().items():
        assert np.array_equal(b, model2.buffers()[name])

    # forward passes agree bit for bit
    model.eval()
    model2.eval()
    rng = np.random.default_rng(0)
    ids = rng.integers(4, len(vocab), size=(2, cfg.max_len))
    segs = np.zeros_like(ids)
    mask = np.ones_like(ids, dtype=bool)
    pair = rng.standard_normal((2, cfg.kg_dim))
    from ddikit.autodiff import no_grad
    with no_grad():
        a = model.forward(ids, segs, mask, pair).data
        b = model2.forward(ids, segs, mask, pair).data
    assert np.array_equal(a, b)


def test_checkpoint_restores_optimizer_state(tmp_path):
    vocab = Vocabulary.build(["CCO"])
    cfg = small_config(len(vocab), dtype="float64")
    model = DdiModel(cfg, seed=0)
    opt = AdamState(learning_rate=1e-3, weight_decay=1e-5)
    rng = np.random.default_rng(0)
    ids = rng.integers(4, len(vocab), size=(2, cfg.max_len))
    segs = np.zeros_like(ids)
    mask = np.ones_like(ids, dtype=bool)
    pair = rng.standard_normal((2, cfg.kg_dim))
    targets = np.array([0, 1])

    def step(m, o):
        zero_grads(m.parameters())
        tape = Tape()
        with tape:
            loss = ad.cross_entropy_loss(m.forward(ids, segs, mask, pair), targets)
        backward(loss, tape)
        adam_step(m.parameters(), o)

    step(model, opt)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, optimizer=opt, epoch=1)

    model2 = DdiModel(cfg, seed=7)
    opt2 = AdamState(learning_rate=0.0)
    load_checkpoint(path, model2, optimizer=opt2)
    assert opt2.step_count == 1
    assert opt2.learning_rate == 1e-3

    # one more identical step from the restored state matches exactly
    step(model, opt)
    step(model2, opt2)
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, model2.parameters()[name].data)


def test_float64_adam_moments_load_into_float32_adam(tmp_path):
    """A checkpoint written while Adam kept float64 moments loads with each
    moment cast to its parameter's dtype, and Adam steps on in float32."""
    model = DdiModel(small_config(8), seed=0)
    rng = np.random.default_rng(0)
    params = model.parameters()
    m = {name: rng.standard_normal(p.data.shape) for name, p in params.items()}
    v = {name: rng.random(p.data.shape) for name, p in params.items()}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, optimizer=AdamState(learning_rate=1e-3, step_count=3, m=m, v=v))
    assert read_checkpoint(path)[1]["adam_v"]["embed.token"].dtype == np.float64
    opt = AdamState(learning_rate=0.0)
    load_checkpoint(path, model, optimizer=opt)
    for name, p in params.items():
        assert opt.m[name].dtype == opt.v[name].dtype == p.data.dtype == np.float32
        assert np.array_equal(opt.v[name], v[name].astype(np.float32))
        p.grad = np.ones_like(p.data)
    adam_step(params, opt)
    assert opt.step_count == 4
    assert {a.dtype for a in list(opt.m.values()) + list(opt.v.values())} == {np.dtype(np.float32)}


def test_checkpoint_fingerprint_mismatch(tmp_path):
    vocab = Vocabulary.build(["CCO"])
    model = DdiModel(small_config(len(vocab)), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    other = DdiModel(small_config(len(vocab), n_classes=4), seed=0)
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_checkpoint(path, other)


def test_checkpoint_corrupt_file_errors(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(CheckpointError):
        read_checkpoint(p)
    vocab = Vocabulary.build(["CCO"])
    model = DdiModel(small_config(len(vocab)), seed=0)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, model)
    blob = good.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(tmp_path / "trunc.ckpt")


def test_config_fingerprint_is_key_order_invariant():
    a = config_fingerprint({"x": 1, "y": 2})
    b = config_fingerprint({"y": 2, "x": 1})
    assert a == b
    assert a != config_fingerprint({"x": 1, "y": 3})


def test_transfer_then_finetune_probe(tmp_path):
    """Transferred encoder weights produce the same logits as the source
    encoder on a probe batch fed through both models' shared trunk."""
    corpus = ["CCO", "CCN", "CCC"]
    vocab = Vocabulary.build(corpus)
    cfg = small_config(len(vocab))
    src = PretrainModel(cfg, seed=1)
    dst = DdiModel(cfg, seed=2)
    transfer_encoder_weights(src, dst)
    src.eval()
    dst.eval()
    seq = encode_pair("CCO", "CCN", vocab, cfg.max_len)
    from ddikit.autodiff import no_grad
    with no_grad():
        a = src.trunk(seq.ids[None], seq.segment_ids[None], seq.attention_mask[None]).data
        b = dst.trunk(seq.ids[None], seq.segment_ids[None], seq.attention_mask[None]).data
    assert np.array_equal(a, b)


def _tiny_checkpoint(tmp_path):
    model = DdiModel(small_config(8, d_model=4, d_ff=4, max_len=4, kg_dim=4,
                                  mlp1_hidden=2, mlp1_out=2, mlp2_hidden=2), seed=0)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, model)
    return path


def test_checkpoint_rejects_every_strict_prefix(tmp_path):
    blob = _tiny_checkpoint(tmp_path).read_bytes()
    short = tmp_path / "short.ckpt"
    for k in range(len(blob)):
        short.write_bytes(blob[:k])
        with pytest.raises(CheckpointError):
            read_checkpoint(short)


def _edit_header(path, edit, tail=b""):
    """Apply ``edit`` to the checkpoint's JSON header, keep the payload and
    append ``tail`` to it."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:] + tail)


def _rewrite_first_entry(path, **fields):
    """Rewrite the header's first array entry, keeping the payload."""
    _edit_header(path, lambda header: header["arrays"][0].update(fields))


@pytest.mark.parametrize("fields", [
    {"dtype": "|O"}, {"dtype": "<i8"}, {"dtype": ">f4"},
    {"shape": [1, 1]}, {"shape": [1000000]}, {"shape": "x"},
    {"nbytes": 0}, {"offset": -4}, {"group": ["param"]},
], ids=["object", "int", "big-endian", "small-shape", "big-shape", "str-shape",
        "no-bytes", "negative-offset", "list-group"])
def test_checkpoint_rejects_bad_array_entry(tmp_path, fields):
    path = _tiny_checkpoint(tmp_path)
    _rewrite_first_entry(path, **fields)
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def _shift_second_entry(delta):
    def edit(header):
        header["arrays"][1]["offset"] += delta
    return edit


@pytest.mark.parametrize("edit,tail", [
    (lambda header: None, b"\0" * 16),
    (lambda header: header["arrays"][1].update(name=header["arrays"][0]["name"]), b""),
    (_shift_second_entry(4), b""),
    (_shift_second_entry(-4), b""),
], ids=["trailing-bytes", "duplicate", "gap", "overlap"])
def test_checkpoint_entries_must_tile_the_payload(tmp_path, edit, tail):
    path = _tiny_checkpoint(tmp_path)
    _edit_header(path, edit, tail)
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_a_nonfinite_array(tmp_path, value):
    model = DdiModel(small_config(8), seed=0)
    model.parameters()["embed.token"].data[0, 0] = value
    save_checkpoint(tmp_path / "m.ckpt", model)
    with pytest.raises(CheckpointError, match="NaN or Inf"):
        read_checkpoint(tmp_path / "m.ckpt")


def _moments(header):
    return [e for e in header["arrays"] if e["group"] == "adam_m"]


def _transpose_a_moment(header):
    entry = next(e for e in _moments(header) if len(set(e["shape"])) == 2)
    entry["shape"] = entry["shape"][::-1]


@pytest.mark.parametrize("edit", [
    lambda header: header["meta"]["optimizer"].pop("beta1"),
    lambda header: header["meta"].update(optimizer=3),
    lambda header: _moments(header)[0].update(name="no.such.param"),
    _transpose_a_moment,
], ids=["no-beta1", "not-an-object", "unknown-parameter", "transposed-moment"])
def test_load_checkpoint_validates_optimizer_state(tmp_path, edit):
    model = DdiModel(small_config(8), seed=0)
    zeros = {name: np.zeros(p.data.shape) for name, p in model.parameters().items()}
    opt = AdamState(learning_rate=1e-3, step_count=1, m=zeros, v=dict(zeros))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, optimizer=opt)
    _edit_header(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, model, optimizer=AdamState(learning_rate=0.0))


def _rewritten(src, dst, group, cast):
    """``src`` written again at ``dst`` with the arrays of ``group`` cast
    to ``cast`` and the same meta."""
    meta, groups = read_checkpoint(src)
    groups[group] = {name: arr.astype(cast) for name, arr in groups[group].items()}
    write_arrays(dst, groups, meta)
    return dst


@pytest.mark.parametrize("dtype,group,cast", [
    ("float32", "param", np.float64), ("float64", "param", np.float32),
    ("float64", "buffer", np.float32),
])
def test_load_checkpoint_refuses_arrays_of_another_dtype(tmp_path, dtype, group, cast):
    """A checkpoint whose parameters or buffers were rewritten in another
    dtype under the same meta is refused, naming the group and an array,
    and the model keeps its arrays; float64 buffers, as older checkpoints
    hold, stay accepted (see test_model)."""
    model = DdiModel(small_config(8, dtype=dtype), seed=0)
    save_checkpoint(tmp_path / "m.ckpt", model)
    path = _rewritten(tmp_path / "m.ckpt", tmp_path / "cast.ckpt", group, cast)
    target = DdiModel(small_config(8, dtype=dtype), seed=1)
    before = {name: p.data for name, p in target.parameters().items()}
    with pytest.raises(CheckpointError, match=rf"{group} '[\w.]+' is {np.dtype(cast)}, "
                                              rf"not the model's {dtype}"):
        load_checkpoint(path, target)
    assert all(p.data is before[name] and p.data.dtype == dtype
               for name, p in target.parameters().items())


def test_load_checkpoint_requires_both_moments_of_each_parameter(tmp_path):
    model = DdiModel(small_config(8), seed=0)
    zeros = {name: np.zeros(p.data.shape) for name, p in model.parameters().items()}
    v = {name: z for name, z in zeros.items() if name != "embed.token"}
    opt = AdamState(learning_rate=1e-3, step_count=1, m=zeros, v=v)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, optimizer=opt)
    with pytest.raises(CheckpointError, match="adam_m and adam_v"):
        load_checkpoint(path, model, optimizer=AdamState(learning_rate=0.0))

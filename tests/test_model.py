"""Attention/encoder/conv/fusion network tests: literal-formula oracles for
the attention equations, the fused attention primitive against the composed
tape ops it replaces (exact, or within the stated tolerance where each
sample's keys are cut at its last real one), structural probes (padding
insensitivity, swap equivariance), and a full-model finite-difference
gradient check."""

import ctypes
import functools
import inspect
import math
import os
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from ddikit import autodiff as ad
from ddikit import blas
from ddikit import model as model_module
from ddikit.autodiff import Parameter, Tape, Tensor, backward, no_grad
from ddikit.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from ddikit.model import (DdiModel, KgSelfAttention, ModelConfig,
                          MultiHeadAttention, ParamStore, PretrainModel,
                          transfer_encoder_weights)

from gradcheck import check_grads, check_model_grads, rel_err
from paper_step import TRAIN_STEP, run_script
from tape_bytes import kept_bytes


def attention_oracle(q, k, v, mask=None):
    """Literal softmax(q k^T / sqrt(d_k)) v in float64, written independently."""
    d_k = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(d_k)
    if mask is not None:
        bias = np.where(mask, 0.0, -1e9)
        scores = scores + bias.reshape((mask.shape[0],) + (1,) * (scores.ndim - 2) + (mask.shape[-1],))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    if mask is not None:
        w = w * mask.any(axis=-1).reshape((mask.shape[0],) + (1,) * (w.ndim - 1))
    return w @ v


def T(x):
    return Tensor(np.asarray(x, dtype=np.float64), dtype=np.float64)


def test_attention_single_token_returns_value_row():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((1, 1, 4))
    k = rng.standard_normal((1, 1, 4))
    v = rng.standard_normal((1, 1, 4))
    with no_grad():
        out = ad.attention(T(q), T(k), T(v)).data
    assert np.abs(out - v).max() < 1e-12


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((1, 3, 4))
    k = np.tile(rng.standard_normal((1, 1, 4)), (1, 5, 1))
    v = rng.standard_normal((1, 5, 4))
    with no_grad():
        out = ad.attention(T(q), T(k), T(v)).data
    want = np.tile(v.mean(axis=1, keepdims=True), (1, 3, 1))
    assert np.abs(out - want).max() < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_attention_matches_formula_oracle(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((2, 2, 3, 4))
    k = rng.standard_normal((2, 2, 3, 4))
    v = rng.standard_normal((2, 2, 3, 5))
    with no_grad():
        out = ad.attention(T(q), T(k), T(v)).data
    assert np.abs(out - attention_oracle(q, k, v)).max() < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_attention_mask_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((2, 4, 3))
    k = rng.standard_normal((2, 4, 3))
    v = rng.standard_normal((2, 4, 3))
    mask = np.array([[True, True, False, False], [True, True, True, False]])
    with no_grad():
        out = ad.attention(T(q), T(k), T(v), mask).data
    assert np.abs(out - attention_oracle(q, k, v, mask)).max() < 1e-6
    # masked-out keys contribute (almost) nothing: changing them is a no-op
    v2 = v.copy()
    v2[0, 2:] = 99.0
    with no_grad():
        out2 = ad.attention(T(q), T(k), T(v2), mask).data
    assert np.abs(out2 - out).max() < 1e-6


def test_attention_fully_masked_rows_are_zero():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((2, 3, 4))
    k = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal((2, 3, 4))
    mask = np.array([[False, False, False], [True, False, False]])
    with no_grad():
        out = ad.attention(T(q), T(k), T(v), mask).data
    assert not out[0].any()
    assert out[1].any()


def composed_attention(q, k, v, mask=None):
    """Reference: attention as the separate tape ops scale -> bias add ->
    softmax -> row-zero multiply that the fused primitive replaces."""
    axes = list(range(k.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = ad.scale(ad.matmul(q, ad.transpose(k, tuple(axes))), 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        bias = np.where(mask, 0.0, -1e9).astype(scores.dtype)
        shape = [mask.shape[0]] + [1] * (scores.ndim - 2) + [mask.shape[-1]]
        scores = ad.add(scores, ad.constant(bias.reshape(shape), dtype=scores.dtype))
    weights = ad.softmax(scores)
    if mask is not None and not mask.all():
        row_ok = mask.any(axis=-1).astype(weights.dtype)
        shape = [mask.shape[0]] + [1] * (weights.ndim - 1)
        weights = ad.mul(weights, ad.constant(row_ok.reshape(shape), dtype=weights.dtype))
    return ad.matmul(weights, v)


def _attention_with_grads(fn, q, k, v, mask, g):
    leaves = [Parameter(a.copy(), name=n, dtype=a.dtype) for n, a in zip("qkv", (q, k, v))]
    tape = Tape()
    with tape:
        out = fn(*leaves, mask)
        loss = ad.tsum(ad.mul(out, ad.constant(g, dtype=g.dtype)))
    backward(loss, tape)
    return out.data, [t.grad for t in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(3,), (3, 2)])
@pytest.mark.parametrize("lengths", [None, (7, 3, 5), (7, 0, 2)])
def test_fused_attention_bit_identical_to_composed_ops(dtype, lead, lengths):
    rng = np.random.default_rng(len(lead) + (0 if lengths is None else sum(lengths)))
    n = 7
    # d_k = 3 makes the 1/sqrt(d_k) scale inexact, so operation order shows
    q, k, v, g = (rng.standard_normal(lead + (n, d)).astype(dtype) for d in (3, 3, 5, 5))
    mask = None if lengths is None else np.arange(n)[None, :] < np.array(lengths)[:, None]
    want_out, want_grads = _attention_with_grads(composed_attention, q, k, v, mask, g)
    got_out, got_grads = _attention_with_grads(ad.attention, q, k, v, mask, g)
    assert got_out.dtype == dtype
    assert np.array_equal(got_out, want_out)
    for got, want in zip(got_grads, want_grads):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(3))
def test_fused_attention_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    arrays = {"q": rng.standard_normal((2, 2, 5, 3)), "k": rng.standard_normal((2, 2, 5, 3)),
              "v": rng.standard_normal((2, 2, 5, 4)), "g": rng.standard_normal((2, 2, 5, 4))}
    mask = np.array([[True] * 3 + [False] * 2, [True] * 5])

    def build(t):
        out = ad.attention(t["q"], t["k"], t["v"], mask)
        return ad.tsum(ad.mul(out, t["g"]))

    assert check_grads(build, arrays) < 1e-6


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("lengths", [(160, 37, 0), (90, 120, 5)])
def test_attention_key_cut_within_tolerance_of_composed_ops(dtype, tol, lengths):
    """Keys past a sample's last real one are cut, so row sums and matmul
    reductions run over fewer terms and bits move. Each output and gradient
    differs by at most tol * max(1, its largest magnitude): gradient entries
    here reach 9.4, and other seeds give 50, where one float32 ulp is 3.8e-6."""
    rng = np.random.default_rng(sum(lengths))
    n = 160
    q, k, v, g = (rng.standard_normal((3, 4, n, 16)).astype(dtype) for _ in range(4))
    mask = np.arange(n)[None, :] < np.array(lengths)[:, None]
    want_out, want_grads = _attention_with_grads(composed_attention, q, k, v, mask, g)
    got_out, got_grads = _attention_with_grads(ad.attention, q, k, v, mask, g)
    for got, want in zip([got_out] + got_grads, [want_out] + want_grads):
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())
    _, dk, dv = got_grads
    for b, n_real in enumerate(lengths):
        assert not dk[b, :, n_real:].any() and not dv[b, :, n_real:].any()
        assert got_out[b].any() == (n_real > 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_exact_when_every_samples_last_key_is_real(dtype):
    rng = np.random.default_rng(3)
    n = 160
    q, k, v, g = (rng.standard_normal((3, 4, n, 16)).astype(dtype) for _ in range(4))
    holes = rng.random((3, n)) < 0.5
    holes[:, -1] = True
    for mask in (None, np.ones((3, n), dtype=bool), holes):
        want_out, want_grads = _attention_with_grads(composed_attention, q, k, v, mask, g)
        got_out, got_grads = _attention_with_grads(ad.attention, q, k, v, mask, g)
        for got, want in zip([got_out] + got_grads, [want_out] + want_grads):
            assert np.array_equal(got, want)


def test_attention_of_a_batch_matches_each_sample_alone():
    """A sample's keys are cut at its own last real key, not the batch's."""
    rng = np.random.default_rng(6)
    n = 160
    q, k, v, g = (rng.standard_normal((3, 4, n, 16)).astype(np.float32) for _ in range(4))
    mask = np.arange(n)[None, :] < np.array([150, 20, 90])[:, None]
    out, grads = _attention_with_grads(ad.attention, q, k, v, mask, g)
    for b in range(3):
        one = slice(b, b + 1)
        out_b, grads_b = _attention_with_grads(ad.attention, q[one], k[one], v[one],
                                               mask[one], g[one])
        assert np.array_equal(out[one], out_b)
        for got, want in zip(grads, grads_b):
            assert np.array_equal(got[one], want)


def test_attention_unmasked_2d_inputs_match_composed_ops():
    rng = np.random.default_rng(4)
    q, k, v, g = (rng.standard_normal((6, 8)) for _ in range(4))
    want_out, want_grads = _attention_with_grads(composed_attention, q, k, v, None, g)
    got_out, got_grads = _attention_with_grads(ad.attention, q, k, v, None, g)
    assert got_out.shape == (6, 8)
    for got, want in zip([got_out] + got_grads, [want_out] + want_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(2))
def test_attention_key_cut_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    arrays = {name: rng.standard_normal((3, 2, 6, d))
              for name, d in (("q", 3), ("k", 3), ("v", 4), ("g", 4))}
    mask = np.arange(6)[None, :] < np.array([5, 2, 0])[:, None]

    def build(t):
        out = ad.attention(t["q"], t["k"], t["v"], mask)
        return ad.tsum(ad.mul(out, t["g"]))

    assert check_grads(build, arrays) < 1e-6


def test_attention_scores_take_memory_for_real_keys_only():
    rng = np.random.default_rng(5)
    b, h, n, d = 8, 4, 400, 16
    q, k, v = (Tensor(rng.standard_normal((b, h, n, d)).astype(np.float32)) for _ in range(3))
    mask = np.arange(n)[None, :] < rng.integers(40, 101, b)[:, None]
    tracemalloc.start()
    try:
        with no_grad():
            ad.attention(q, k, v, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < b * h * n * n * 4 / 2  # half of one [b, h, n, n] float32 buffer


def test_attention_under_no_grad_keeps_no_segment_weights():
    """With nothing to back-propagate, each sample's [h, n, n_b] softmax
    weights are dropped before the next sample's are built, so the peak is
    the output plus at most two segments, not all eight."""
    rng = np.random.default_rng(6)
    b, h, n, d = 8, 2, 64, 8
    q, k, v = (Tensor(rng.standard_normal((b, n, h * d))) for _ in range(3))
    mask = np.arange(n)[None, :] < np.array([64, 60, 56, 64, 50, 64, 62, 58])[:, None]
    segment = h * n * n * 8
    tracemalloc.start()
    try:
        with no_grad():
            out = ad.attention(q, k, v, mask, heads=h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + 2.5 * segment


def test_attention_rejects_keys_values_and_masks_that_do_not_match():
    q, k = Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ad.ShapeError, match="key count"):
        ad.attention(q, k, Tensor(np.zeros((2, 4, 4))))
    v = Tensor(np.zeros((2, 3, 4)))
    ad.attention(q, k, v, np.ones((2, 3), dtype=bool))  # queries may outnumber keys
    for mask in (np.ones((2, 5), dtype=bool), np.ones((2, 2), dtype=bool),
                 np.ones((1, 3), dtype=bool), np.ones(3, dtype=bool)):
        with pytest.raises(ad.ShapeError, match="mask"):
            ad.attention(q, k, v, mask)


def split_merge_attention(q, k, v, mask, heads):
    """Multi-head attention as separate tape ops: reshape -> transpose to
    [b, heads, n, d] -> one-head attention -> transpose -> reshape back."""
    def split(x):
        b, n, d = x.shape
        return ad.transpose(ad.reshape(x, (b, n, heads, d // heads)), (0, 2, 1, 3))

    out = ad.attention(split(q), split(k), split(v), mask)
    b, h, n, d = out.shape
    return ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (b, n, h * d))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lengths", [None, (7, 0, 4), (7, 7, 7)])
def test_multi_head_attention_op_bit_identical_to_split_and_merge(dtype, lengths):
    rng = np.random.default_rng(11 if lengths is None else sum(lengths))
    n, heads = 7, 2
    # d_k = 3 makes the 1/sqrt(d_k) scale inexact, so operation order shows
    q, k, v, g = (rng.standard_normal((3, n, heads * d)).astype(dtype) for d in (3, 3, 5, 5))
    mask = None if lengths is None else np.arange(n)[None, :] < np.array(lengths)[:, None]
    want_out, want_grads = _attention_with_grads(
        lambda *a: split_merge_attention(*a, heads), q, k, v, mask, g)
    got_out, got_grads = _attention_with_grads(
        lambda *a: ad.attention(*a, heads=heads), q, k, v, mask, g)
    for got, want in zip([got_out] + got_grads, [want_out] + want_grads):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_multi_head_attention_records_one_attention_entry():
    b, n, h, d_k = 2, 5, 3, 4
    store = ParamStore(np.random.default_rng(0), np.float64)
    mha = MultiHeadAttention(store, "mha", d_model=h * d_k, n_heads=h)
    x = np.random.default_rng(1).standard_normal((b, n, h * d_k))
    mask = np.array([[True] * 3 + [False] * 2, [True] * 5])
    tape = Tape()
    with tape:
        mha(T(x), mask)
    ops = [e.backward_fn.__qualname__.split(".")[0] for e in tape.entries]
    assert ops == ["linear"] * 3 + ["attention", "linear"]
    assert all(e.output.shape != (b, h, n, n) for e in tape.entries)


def mha_oracle(x, p, prefix, n_heads):
    """Multi-head attention recomputed from the raw parameter arrays."""
    b, n, d = x.shape
    d_k = d // n_heads

    def lin(name, h):
        return h @ p[f"{prefix}.{name}.w"].data + p[f"{prefix}.{name}.b"].data

    q, k, v = lin("w_q", x), lin("w_k", x), lin("w_v", x)

    def split(h):
        return h.reshape(b, n, n_heads, d_k).transpose(0, 2, 1, 3)

    heads = attention_oracle(split(q), split(k), split(v))
    merged = heads.transpose(0, 2, 1, 3).reshape(b, n, d)
    return lin("w_o", merged)


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_multi_head_attention_matches_oracle(n_heads, seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(np.random.default_rng(seed + 100), np.float64)
    mha = MultiHeadAttention(store, "mha", d_model=6, n_heads=n_heads)
    x = rng.standard_normal((2, 4, 6))
    with no_grad():
        got = mha(T(x)).data
    want = mha_oracle(x, store.params, "mha", n_heads)
    assert np.abs(got - want).max() < 1e-6


def test_multi_head_zero_output_projection_kills_output():
    store = ParamStore(np.random.default_rng(0), np.float64)
    mha = MultiHeadAttention(store, "mha", d_model=6, n_heads=2)
    store.params["mha.w_o.w"].data = np.zeros((6, 6))
    x = np.random.default_rng(1).standard_normal((1, 3, 6))
    with no_grad():
        out = mha(T(x)).data
    assert not out.any()


# ---------------------------------------------------------------------------
# config and module structure
# ---------------------------------------------------------------------------

def tiny_config(**over):
    base = dict(vocab_size=12, n_classes=3, d_model=4, n_layers=1, n_heads=2,
                d_ff=4, max_len=8, kg_dim=4, kg_heads=2, conv_blocks=2,
                mlp1_hidden=4, mlp1_out=4, mlp2_hidden=4, dropout=0.0,
                dtype="float64")
    base.update(over)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, n_classes=2, d_model=6, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, n_classes=2, kg_dim=10, kg_heads=4)


def test_conv_out_len_halves_with_ceil():
    cfg = ModelConfig(vocab_size=10, n_classes=2)  # defaults: 500, 8 blocks
    assert cfg.conv_out_len() == 2
    # 500 -> 250 -> 125 -> 63 -> 32 -> 16 -> 8 -> 4 -> 2
    cfg2 = tiny_config(max_len=10, conv_blocks=2)
    assert cfg2.conv_out_len() == 3  # 10 -> 5 -> 3


def test_default_parameter_count_regression():
    cfg = ModelConfig(vocab_size=100, n_classes=65)
    model = DdiModel(cfg, seed=0)
    d, ff, v, L = 256, 256, 100, 500

    def linear(i, o):
        return i * o + o

    embed = v * d + 2 * d + L * d
    per_layer = 4 * linear(d, d) + 2 * 2 * d + linear(d, ff) + linear(ff, d)
    conv = 8 * (2 * (d * d * 3 + d) + 2 * 2 * d)
    mlp1 = linear(2 * d, 512) + 2 * 512 + linear(512, 256)
    kg = 4 * linear(400, 400) + 2 * 400
    mlp2 = linear(256 + 800, 512) + 2 * 512 + linear(512, 65)
    want = embed + 6 * per_layer + conv + mlp1 + kg + mlp2
    assert model.n_parameters() == want


def _build_peak(model) -> int:
    """The most bytes building ``model`` holds at once: the parameters built
    before one, plus that one's float64 draw and its cast."""
    peak = held = 0
    for p in model.parameters().values():
        peak = max(peak, held + p.data.size * (8 + p.data.itemsize))
        held += p.data.nbytes
    return peak


@pytest.mark.parametrize("over", [{}, {"dtype": "float32"}, {"n_layers": 0, "conv_blocks": 0},
                                  {"d_ff": 6, "max_len": 11, "conv_kernel": 5, "n_segments": 3}])
def test_a_model_is_refused_one_byte_below_its_build_peak(monkeypatch, over):
    cfg = tiny_config(**over)
    for model_cls in (DdiModel, PretrainModel):
        peak = _build_peak(model_cls(cfg, seed=0))
        monkeypatch.setattr(blas, "ram_bytes", lambda: peak - 1)
        with pytest.raises(ValueError, match="more than this machine's"):
            model_cls(cfg, seed=0)
        monkeypatch.setattr(blas, "ram_bytes", lambda: peak)
        model_cls(cfg, seed=0)


def test_config_refuses_a_model_larger_than_ram(monkeypatch):
    """The refusal sits where the model is built, not in its config: the
    config is accepted and the model refused; where the OS gives no RAM
    size, nothing is refused."""
    monkeypatch.setattr(blas, "ram_bytes", lambda: 1)
    cfg = tiny_config()
    with pytest.raises(ValueError, match=r"^building this model takes .* GiB at 'embed.token', "
                                         r"more than this machine's .* GiB of RAM$"):
        DdiModel(cfg, seed=0)
    monkeypatch.setattr(blas, "ram_bytes", lambda: None)
    DdiModel(cfg, seed=0)


def test_a_pretrain_model_builds_where_the_ddi_model_of_its_config_is_refused(monkeypatch):
    """At max_len 8192 the DDI model's ``mlp1.fc1.w`` takes 12 GiB to draw,
    while the pretrain model, which has no mlp1, takes 17 MB. With the RAM
    between the two, the config is accepted, the pretrain model builds and
    the DDI model is refused at that weight."""
    cfg = ModelConfig(vocab_size=40, n_classes=2, conv_blocks=0, max_len=8192)
    pretrain = PretrainModel(cfg, seed=0)
    peak = _build_peak(pretrain)
    assert peak < 64 << 20
    monkeypatch.setattr(blas, "ram_bytes", lambda: peak)
    PretrainModel(cfg, seed=0)
    with pytest.raises(ValueError, match="at 'mlp1.fc1.w', more than this machine's"):
        DdiModel(cfg, seed=0)


def test_encoder_zero_layers_is_embedding_identity():
    cfg = tiny_config(n_layers=0)
    model = DdiModel(cfg, seed=0)
    ids = np.array([[4, 5, 6, 3, 7, 0, 0, 0]])
    segs = np.array([[0, 0, 0, 0, 1, 1, 1, 1]])
    mask = ids != 0
    with no_grad():
        enc = model.trunk(ids, segs, mask).data
        emb = model.embeddings(ids, segs).data
    assert np.array_equal(enc, emb)


def test_encoder_output_insensitive_to_pad_token_ids():
    """With the padding mask applied, the ids at padded positions must not
    change the encoder output at real positions."""
    cfg = tiny_config()
    model = DdiModel(cfg, seed=0)
    model.eval()
    ids = np.array([[4, 5, 6, 3, 7, 0, 0, 0]])
    segs = np.zeros_like(ids)
    mask = ids != 0
    ids2 = ids.copy()
    ids2[0, 5:] = 9  # garbage in the padded tail
    with no_grad():
        a = model.trunk(ids, segs, mask).data
        b = model.trunk(ids2, segs, mask).data
    assert np.abs(a[0, :5] - b[0, :5]).max() < 1e-10


def _encoder_with_grads(model, x0, mask, g, cut: bool):
    """The encoder's output, input gradient and parameter gradients. With
    ``cut`` it runs as ``Encoder`` does; without, every layer gets the whole
    mask, so keys and values are projected for every position."""
    for p in model.parameters().values():
        p.grad = None
    x = Parameter(x0, name="x", dtype=x0.dtype)
    tape = Tape()
    with tape:
        if cut:
            h = model.encoder(x, mask)
        else:
            h = x
            for layer in model.encoder.layers:
                h = layer(h, mask)
        loss = ad.tsum(ad.mul(h, ad.constant(g, dtype=g.dtype)))
    backward(loss, tape)
    return h.data, x.grad, {n: p.grad for n, p in model.parameters().items()
                            if n.startswith("encoder.")}


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("lengths", [(7, 0, 4), (12, 3, 0), (5, 12, 12), (1, 0, 0),
                                     (0, 0, 0)])
def test_encoder_key_span_cut_matches_the_uncut_path(dtype, tol, lengths):
    """Keys and values are projected only up to one past the batch's last
    real token, and for at least two positions. Outputs and the
    input gradient are exact; the w_k and w_v weight gradients sum fewer
    rows, so they are within ``tol`` of their largest magnitude."""
    cfg = tiny_config(d_model=8, n_layers=2, max_len=12, dtype=np.dtype(dtype).name)
    model = DdiModel(cfg, seed=3)
    rng = np.random.default_rng(sum(lengths))
    x0, g = (rng.standard_normal((3, 12, 8)).astype(dtype) for _ in range(2))
    mask = np.arange(12)[None, :] < np.array(lengths)[:, None]
    tape = Tape()
    with tape:
        model.encoder(Tensor(x0, requires_grad=True), mask)
    ops = [e.backward_fn.__qualname__.split(".")[0] for e in tape.entries]
    assert ops.count("leading_rows") == cfg.n_layers
    assert tape.entries[0].output.shape == (3, max(lengths + (2,)), 8)
    got_out, got_dx, got = _encoder_with_grads(model, x0, mask, g, cut=True)
    want_out, want_dx, want = _encoder_with_grads(model, x0, mask, g, cut=False)
    assert np.array_equal(got_out, want_out) and np.array_equal(got_dx, want_dx)
    assert got.keys() == want.keys()
    for name in got:
        if name.endswith((".w_k.w", ".w_v.w")):
            assert np.abs(got[name] - want[name]).max() <= tol * np.abs(want[name]).max()
        else:
            assert np.array_equal(got[name], want[name]), name


def test_conv_module_output_shape():
    cfg = tiny_config(max_len=8, conv_blocks=2)  # 8 -> 4 -> 2
    model = DdiModel(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((3, 8, 4)), dtype=np.float64)
    with no_grad():
        out = model.conv(x, training=False)
    assert out.shape == (3, 2 * 4)


def test_kg_self_attention_swap_equivariance():
    """No positional term inside the block, so swapping the two drug halves
    of the pair vector swaps the two output halves."""
    store = ParamStore(np.random.default_rng(0), np.float64)
    cfg = tiny_config(kg_dim=8, kg_heads=2)
    block = KgSelfAttention(store, "kg", cfg)
    rng = np.random.default_rng(1)
    pair = rng.standard_normal((2, 8))
    swapped = np.concatenate([pair[:, 4:], pair[:, :4]], axis=1)
    with no_grad():
        a = block(T(pair)).data
        b = block(T(swapped)).data
    assert np.abs(np.concatenate([a[:, 4:], a[:, :4]], axis=1) - b).max() < 1e-10


def test_forward_shapes_and_finiteness():
    cfg = tiny_config()
    model = DdiModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    ids = rng.integers(4, 12, size=(3, 8))
    segs = np.zeros_like(ids)
    mask = np.ones_like(ids, dtype=bool)
    pair = rng.standard_normal((3, 4))
    with no_grad():
        logits = model.forward(ids, segs, mask, pair)
    assert logits.shape == (3, 3)
    assert np.isfinite(logits.data).all()


def _op_dtypes(monkeypatch) -> list:
    """From here on, the dtype of every array an autodiff op makes."""
    seen = []
    make = ad._make

    def spy(out_data, inputs, backward_fn):
        seen.append(np.asarray(out_data).dtype)
        return make(out_data, inputs, backward_fn)

    monkeypatch.setattr(ad, "_make", spy)
    return seen


def _eval_logits(model) -> Tensor:
    rng = np.random.default_rng(0)
    ids = rng.integers(4, 12, size=(3, 8))
    ids[:, 6:] = 0
    model.eval()
    with no_grad():
        return model.forward(ids, np.zeros_like(ids), ids != 0, rng.standard_normal((3, 4)))


def test_float32_eval_forward_makes_only_float32(monkeypatch):
    """The batch-norm running statistics take the model's dtype, so nothing
    after the encoder is promoted to float64."""
    model = DdiModel(tiny_config(dtype="float32"), seed=0)
    seen = _op_dtypes(monkeypatch)
    assert _eval_logits(model).dtype == np.float32
    assert seen and set(seen) == {np.dtype(np.float32)}


def test_float64_checkpoint_buffers_load_into_float32_model(tmp_path, monkeypatch):
    """A checkpoint whose running statistics are float64, as every checkpoint
    was before buffers took the model's dtype, loads by casting them."""
    old = DdiModel(tiny_config(dtype="float32"), seed=0)
    rng = np.random.default_rng(1)
    for name, buf in old.buffers().items():
        old.store.buffers[name] = buf + rng.random(buf.shape)  # float64
    save_checkpoint(tmp_path / "old.ckpt", old)
    assert {a.dtype for a in read_checkpoint(tmp_path / "old.ckpt")[1]["buffer"].values()} \
        == {np.dtype(np.float64)}
    model = DdiModel(tiny_config(dtype="float32"), seed=0)
    load_checkpoint(tmp_path / "old.ckpt", model)
    for name, buf in model.buffers().items():
        assert buf.dtype == np.float32
        assert np.array_equal(buf, old.buffers()[name].astype(np.float32))
    seen = _op_dtypes(monkeypatch)
    assert _eval_logits(model).dtype == np.float32
    assert set(seen) == {np.dtype(np.float32)}
    save_checkpoint(tmp_path / "new.ckpt", model)
    assert {a.dtype for a in read_checkpoint(tmp_path / "new.ckpt")[1]["buffer"].values()} \
        == {np.dtype(np.float32)}


# ---------------------------------------------------------------------------
# trunk tiles
# ---------------------------------------------------------------------------

def _set_tile(monkeypatch, model, samples: int):
    """Size the tile budget so the trunk runs ``samples`` at a time."""
    cfg = model.cfg
    monkeypatch.setattr(model_module, "TILE_BYTES",
                        samples * cfg.max_len * cfg.d_model * np.dtype(cfg.np_dtype).itemsize)
    assert model.tile() == samples


def _count_calls(model, attr: str) -> list:
    """Wrap ``model.<attr>`` on the instance; returns the batch size of each call."""
    sizes, inner = [], getattr(model, attr)

    def spy(x, *args, **kwargs):
        sizes.append(len(x.data) if isinstance(x, Tensor) else len(x))
        return inner(x, *args, **kwargs)

    setattr(model, attr, spy)
    return sizes


def test_eval_tile_fits_the_byte_budget():
    def tile(**cfg):
        return DdiModel(ModelConfig(vocab_size=10, n_classes=3, n_layers=0, **cfg)).tile()

    assert tile() == 1  # 512 KiB over [500, 256] float32
    assert tile(d_model=32, n_heads=4, max_len=96) == 42
    assert tile(max_len=2048, dtype="float64") == 1


def _batch_of_seven(model):
    """The bits test's batch: sample 1 and tile [2, 3] have no real token."""
    n = model.cfg.max_len
    rng = np.random.default_rng(9)
    lengths = np.array([5, 0, 0, 0, n, 3, 1])
    ids = rng.integers(4, 12, size=(7, n))
    ids[np.arange(n)[None, :] >= lengths[:, None]] = 0
    segs = (np.arange(n) >= n // 2).astype(np.int64) * np.ones((7, 1), dtype=np.int64)
    return ids, segs, ids != 0, rng.standard_normal((7, model.cfg.kg_dim))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_eval_forward_in_tiles_keeps_the_bits_of_one_pass(monkeypatch, dtype):
    """Tiles of 2 over a batch of 7: sample 1 has no real token, tile [2, 3]
    has none at all and the last tile holds one sample. The logits equal
    those of one embed -> encoder -> conv pass over the whole batch and the
    same head."""
    model = DdiModel(tiny_config(d_model=8, n_layers=2, max_len=12, dtype=dtype), seed=4)
    model.eval()
    batch = _batch_of_seven(model)
    embeds = _count_calls(model, "embeddings")
    monkeypatch.setattr(blas, "threads", lambda: 1)  # one worker takes every tile
    _set_tile(monkeypatch, model, 7)
    with no_grad():
        whole = model.forward(*batch).data
    _set_tile(monkeypatch, model, 2)
    with no_grad():
        tiled = model.forward(*batch).data
    assert embeds == [7, 2, 2, 2, 1]
    assert tiled.dtype == np.dtype(dtype) and np.isfinite(tiled).all()
    assert np.array_equal(tiled, whole)


def _force_workers(monkeypatch, workers: int):
    """Make the trunk see ``workers`` BLAS threads and cores, whatever the
    host has."""
    monkeypatch.setattr(blas, "threads", lambda: workers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))


def _spy_tiles(model, on_tile=None):
    """Wrap ``model.embeddings``; returns one (on the main thread?, samples)
    per call. The first tile of each of two threads waits for the other's, so
    the main thread and a helper both run tiles; ``on_tile(is_main)`` runs
    in each call."""
    calls, inner = [], model.embeddings
    first_two = threading.Barrier(2, timeout=10)

    def spy(ids, *args):
        is_main = threading.current_thread() is threading.main_thread()
        first = is_main not in {m for m, _ in calls}
        calls.append((is_main, len(ids)))
        if first:
            first_two.wait()
        if on_tile:
            on_tile(is_main)
        return inner(ids, *args)

    model.embeddings = spy
    return calls


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_eval_forward_on_two_workers_keeps_the_bits_of_one(monkeypatch, dtype):
    """Two workers take the tiles of 2, on the main thread and on a helper,
    both under the caller's numpy ``errstate``; the logits equal those of
    one worker taking the same tiles, with empty samples and a short last
    tile. The tile does not shrink with the number of workers."""
    model = DdiModel(tiny_config(d_model=8, n_layers=2, max_len=12, dtype=dtype), seed=4)
    model.eval()
    batch = _batch_of_seven(model)
    _set_tile(monkeypatch, model, 2)
    _force_workers(monkeypatch, 1)
    with no_grad():
        one = model.forward(*batch).data
    _force_workers(monkeypatch, 2)
    assert blas.workers(-(-7 // model.tile())) == 2
    overs = []
    calls = _spy_tiles(model, lambda is_main: overs.append(np.geterr()["over"]))
    with no_grad(), np.errstate(over="raise"):
        two = model.forward(*batch).data
    assert sorted(n for _, n in calls) == [1, 2, 2, 2]
    assert {is_main for is_main, _ in calls} == {True, False} and set(overs) == {"raise"}
    assert two.dtype == np.dtype(dtype) and np.array_equal(two, one)


def test_more_workers_than_cores_take_every_tile_once(monkeypatch):
    """Four workers with thread switches every microsecond: each of 21 tiles
    of one sample is encoded once, and the logits keep the serial bits."""
    model = DdiModel(tiny_config(d_model=8, n_layers=2, max_len=12), seed=4)
    model.eval()
    batch = tuple(np.concatenate([a] * 3) for a in _batch_of_seven(model))
    _set_tile(monkeypatch, model, 1)
    _force_workers(monkeypatch, 1)
    with no_grad():
        serial = model.forward(*batch).data
    _force_workers(monkeypatch, 4)
    starts = []
    embeddings = model.embeddings
    model.embeddings = lambda ids, *a: starts.append(ids.ctypes.data) or embeddings(ids, *a)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with no_grad():
            parallel = model.forward(*batch).data
    finally:
        sys.setswitchinterval(interval)
    ids = batch[0]
    assert sorted(starts) == [ids.ctypes.data + i * ids.strides[0] for i in range(21)]
    assert np.array_equal(parallel, serial)


def _pool_spy(monkeypatch, meet: int):
    """Count the helper threads ``blas.map_in_threads`` starts and the
    threads its items run on. Returns (helpers started, thread of each item,
    ``on_item``), where ``on_item()`` records its thread and, in each
    thread's first item of a pool, waits until ``meet`` threads have one, so
    every thread of a pool of ``meet`` runs an item and a smaller pool
    fails. A pool's first helper starting begins a new pool."""
    started, idents, pool = [], [], set()
    first = threading.Barrier(meet, timeout=10)
    lock = threading.Lock()

    class Counted(threading.Thread):
        def start(self):
            if len(started) % max(meet - 1, 1) == 0:  # the pool's first helper
                pool.clear()
            started.append(self)
            super().start()

    def on_item():
        with lock:
            new = threading.get_ident() not in pool
            pool.add(threading.get_ident())
            idents.append(threading.get_ident())
        if new:
            first.wait()

    monkeypatch.setattr(blas, "threading", types.SimpleNamespace(Thread=Counted))
    return started, idents, on_item


def test_workers_stop_at_the_tiles_and_the_cores(monkeypatch):
    """``map_in_threads`` runs its items on one thread per BLAS thread, at
    most one per core and one per item, counted where the items run: one
    item runs on the caller, with no helper started, and so does every item
    without OpenBLAS. A trunk's tiles run on as many threads."""
    caller = threading.get_ident()

    def pool(items: int, meet: int):
        started, idents, on_item = _pool_spy(monkeypatch, meet)
        blas.map_in_threads(lambda _: on_item(), range(items))
        return len(started), set(idents)

    _force_workers(monkeypatch, 4)
    assert pool(1, 1) == (0, {caller})
    started, threads = pool(3, 3)
    assert started == 2 and len(threads) == 3 and caller in threads
    monkeypatch.setattr(blas, "threads", lambda: None)  # no OpenBLAS found
    assert pool(3, 1) == (0, {caller})

    # float64 convs never split; 32 channels make two row blocks
    model = DdiModel(tiny_config(d_model=32, dtype="float32"), seed=0)
    model.eval()
    _set_tile(monkeypatch, model, 2)
    _force_workers(monkeypatch, 2)
    started, idents, on_item = _pool_spy(monkeypatch, 2)
    embeddings = model.embeddings
    model.embeddings = lambda *a: on_item() or embeddings(*a)
    with no_grad():
        model.forward(*_batch_of_seven(model))
    assert len(idents) == 4 and len(set(idents)) == 2 and len(started) == 1

    # Every conv split: the tiles' convs map their row blocks from inside
    # the tiles, on the tile's thread, and start no helper.
    monkeypatch.setattr(ad, "_CONV_SPLIT_MACS", 1)
    started, idents, on_item = _pool_spy(monkeypatch, 2)
    calls, real_map = [], blas.map_in_threads
    monkeypatch.setattr(blas, "map_in_threads",
                        lambda fn, items: calls.append((fn, len(items))) or real_map(fn, items))
    with no_grad():
        model.forward(*_batch_of_seven(model))
    convs = [items for fn, items in calls if fn.__qualname__.startswith("conv1d")]
    # two convs a conv block in each of the four tiles, the one-sample tile's
    # too, two row blocks each
    assert convs == [2] * 4 * 2 * model.cfg.conv_blocks and len(calls) == len(convs) + 1
    assert len(idents) == 4 and len(set(idents)) == 2 and len(started) == 1


@functools.cache
def _openblas_get():
    """OpenBLAS's own get-num-threads function, found in the libraries the
    process maps; None without OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh})
    for path in paths:
        name = os.path.basename(path).lower()
        if "blas" not in name or ".so" not in name:
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                return get
    return None


def _openblas_threads() -> int | None:
    """The thread count OpenBLAS reports now, read from the library itself."""
    get = _openblas_get()
    return None if get is None else get()


def test_an_error_in_a_helper_tile_reaches_the_caller(monkeypatch):
    """OpenBLAS runs one thread in the tiles, in the head and after an
    exception raised in a helper's tile, which forward raises."""
    pinned = _openblas_threads()
    assert pinned in (1, None)
    model = DdiModel(tiny_config(), seed=0)
    model.eval()
    batch = _batch_of_seven(model)
    _set_tile(monkeypatch, model, 2)
    _force_workers(monkeypatch, 2)
    in_tiles, in_head = [], []
    head = model.mlp1
    model.mlp1 = lambda *a: in_head.append(_openblas_threads()) or head(*a)

    def on_tile(is_main):
        in_tiles.append(_openblas_threads())
        if not is_main:
            raise KeyError("planted")

    embeddings = model.embeddings
    _spy_tiles(model, on_tile)
    with no_grad(), pytest.raises(KeyError, match="planted"):
        model.forward(*batch)
    assert _openblas_threads() == pinned and in_head == []
    assert set(in_tiles) == {pinned}
    model.embeddings = embeddings
    with no_grad():
        model.forward(*batch)
    assert _openblas_threads() == pinned and in_head == [pinned]


def test_an_error_in_a_helper_tile_backward_reaches_the_caller(monkeypatch):
    """The trunk entry's backward runs each tile's tape on the workers; an
    exception raised in a helper's tile backward is raised by ``backward``,
    with OpenBLAS at one thread in the tiles and after, and no thread left."""
    pinned = _openblas_threads()
    assert pinned in (1, None)
    model = DdiModel(tiny_config(), seed=0)
    batch = _batch_of_seven(model)
    _set_tile(monkeypatch, model, 2)
    _force_workers(monkeypatch, 2)
    tape = Tape()
    with tape:
        loss = ad.cross_entropy_loss(model.forward(*batch), [0, 1, 2, 0, 1, 2, 0])
    real, in_tiles = ad.backward, []
    first_two = threading.Barrier(2, timeout=10)

    def spy(out, tile_tape, grad=None, into=None):
        is_main = threading.current_thread() is threading.main_thread()
        if not in_tiles or len(in_tiles) == 1 and in_tiles[0][0] != is_main:
            in_tiles.append((is_main, _openblas_threads()))
            first_two.wait()
        if not is_main:
            raise KeyError("planted")
        return real(out, tile_tape, grad, into)

    monkeypatch.setattr(ad, "backward", spy)
    with pytest.raises(KeyError, match="planted"):
        real(loss, tape)
    assert _openblas_threads() == pinned and threading.active_count() == 1
    assert {t for _, t in in_tiles} == {pinned}


def test_a_worker_takes_the_next_tile_backward_while_another_tile_is_still_running(
        monkeypatch):
    """Three tiles on two workers: tile 0's backward waits for tile 2's to
    start, which the worker done with tile 1 takes without waiting for tile
    0. The gradients equal those of one worker."""
    model = DdiModel(tiny_config(), seed=0)
    ids, segs, mask, pair = _batch_of_seven(model)
    batch = (ids[:5], segs[:5], mask[:5], pair[:5])
    _set_tile(monkeypatch, model, 2)
    _force_workers(monkeypatch, 1)
    _, _, one = _training_step(model, batch)
    _force_workers(monkeypatch, 2)
    tiles, embeddings = {}, model.embeddings

    def spy_embeddings(tile_ids, *args):
        first_row = (tile_ids.ctypes.data - ids.ctypes.data) // ids.strides[0]
        tiles[id(ad.active_tape())] = first_row // 2
        return embeddings(tile_ids, *args)

    real, tile2_started = ad.backward, threading.Event()

    def spy(out, tile_tape, grad=None, into=None):
        tile = tiles[id(tile_tape)]
        if tile == 2:
            tile2_started.set()
        if tile == 0:
            assert tile2_started.wait(5), "tile 2's backward waited for tile 0's"
        return real(out, tile_tape, grad, into)

    model.embeddings = spy_embeddings
    monkeypatch.setattr(ad, "backward", spy)
    _, _, two = _training_step(model, batch)
    assert sorted(tiles.values()) == [0, 1, 2]
    assert all(np.array_equal(one[n], two[n]) for n in one)


def _training_step(model, batch):
    """A training forward, its loss and backward; returns the caller's tape
    entries as (op, output shape), the logits, and every parameter's
    gradient."""
    for p in model.parameters().values():
        p.grad = None
    tape = Tape()
    with tape:
        logits = model.forward(*batch)
        loss = ad.cross_entropy_loss(logits, np.arange(len(logits.data)) % 3)
    entries = [(e.backward_fn.__qualname__.split(".")[0], e.output.shape) for e in tape.entries]
    backward(loss, tape)
    return entries, logits.data, {n: p.grad for n, p in model.parameters().items()}


@pytest.mark.parametrize("tile", [1, None])
def test_training_forward_runs_conv_once_on_the_joined_tiles(monkeypatch, tile):
    """Batch norm needs the batch's statistics, so a training forward runs
    the embed -> encoder tiles, then conv once over the joined batch. The
    caller's tape holds the trunk as one entry, in tiles of one sample and
    in the default tile, which is one tile of all 5."""
    model = DdiModel(tiny_config(), seed=0)
    if tile is not None:
        _set_tile(monkeypatch, model, tile)
    size = min(model.tile(), 5)
    embeds, convs = _count_calls(model, "embeddings"), _count_calls(model, "conv")
    rng = np.random.default_rng(2)
    ids = rng.integers(4, 12, size=(5, 8))
    entries, _, _ = _training_step(model, (ids, np.zeros_like(ids), ids != 0,
                                          rng.standard_normal((5, 4))))
    assert embeds == [size] * (5 // size) and convs == [5]
    ops = [op for op, _ in entries]
    assert ops.count("join_tiles") == 1 and entries[0] == ("join_tiles", (5, 8, 4))
    assert "embedding_lookup" not in ops
    assert ops.count("conv1d") == 2 * model.cfg.conv_blocks
    assert ops.count("concat") == 1  # the fusion


def test_a_training_step_runs_the_conv_products_on_two_workers(monkeypatch):
    """With every conv split, each conv1d forward and backward of a training
    step runs its row blocks on the caller and one helper, and the logits
    and every gradient keep the bits of the same step with each conv whole
    on the caller. The trunk is one tile, which starts no helper, so every
    helper is a conv's; the spy counts the items of conv1d's calls only."""
    model = DdiModel(tiny_config(d_model=32, dropout=0.2, dtype="float32"), seed=0)
    rng = np.random.default_rng(2)
    ids = rng.integers(4, 12, size=(5, 8))
    batch = (ids, np.zeros_like(ids), ids != 0, rng.standard_normal((5, 4)))
    _force_workers(monkeypatch, 2)
    assert model.tile() >= 5
    model.rng = np.random.default_rng(1)
    _, logits, grads = _training_step(model, batch)
    monkeypatch.setattr(ad, "_CONV_SPLIT_MACS", 1)
    started, idents, on_item = _pool_spy(monkeypatch, 2)
    real_map = blas.map_in_threads

    def conv_items(fn, items):
        if fn.__qualname__.startswith("conv1d"):
            return real_map(lambda x: on_item() or fn(x), items)
        return real_map(fn, items)

    monkeypatch.setattr(blas, "map_in_threads", conv_items)
    model.rng = np.random.default_rng(1)
    _, logits2, grads2 = _training_step(model, batch)
    convs = 2 * model.cfg.conv_blocks
    # forward: 2 blocks of output channels; backward: 2 of dw's and 2 of dx's
    assert len(started) == 2 * convs and len(idents) == convs * (2 + 4)
    assert np.array_equal(logits, logits2)
    assert all(np.array_equal(grads[n], grads2[n]) for n in grads)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_gradients_on_two_workers_keep_the_bits_of_one(monkeypatch, dtype):
    """Tiles of 2 over ``_batch_of_seven``, with dropout: two workers give
    the logits and every gradient of one worker, bit for bit."""
    model = DdiModel(tiny_config(d_model=8, n_layers=2, max_len=12, dropout=0.2, dtype=dtype),
                     seed=4)
    batch = _batch_of_seven(model)
    _set_tile(monkeypatch, model, 2)
    runs, embeddings = [], model.embeddings
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        model.rng = np.random.default_rng(11)
        embeds = _count_calls(model, "embeddings")
        runs.append(_training_step(model, batch))
        model.embeddings = embeddings
        assert sorted(embeds) == [1, 2, 2, 2]
    (entries, logits, grads), (entries2, logits2, grads2) = runs
    assert entries == entries2 and np.array_equal(logits, logits2)
    assert all(g.dtype == np.dtype(dtype) for g in grads.values())
    assert all(np.array_equal(grads[n], grads2[n]) for n in grads)


def test_recorded_eval_forward_records_one_trunk_entry_with_the_gradients_of_one_worker(
        monkeypatch):
    """An eval forward under a tape records its embed -> encoder -> conv
    tiles as one entry of the caller's tape, on one worker or two, and the
    gradients keep their bits."""
    model = DdiModel(tiny_config(), seed=0)
    model.eval()
    batch = _batch_of_seven(model)
    _set_tile(monkeypatch, model, 2)
    runs, embeddings = [], model.embeddings
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        embeds = _count_calls(model, "embeddings")
        runs.append(_training_step(model, batch))
        model.embeddings = embeddings
        assert sorted(embeds) == [1, 2, 2, 2]
    (entries, logits, grads), (entries2, logits2, grads2) = runs
    assert entries == entries2 and np.array_equal(logits, logits2)
    ops = [op for op, _ in entries]
    assert ops.count("join_tiles") == 1 and "conv1d" not in ops
    assert all(np.array_equal(grads[n], grads2[n]) for n in grads)


# What the tape of the tile below keeps, parameters excluded: 32,006,064
# bytes with the layer-norm outputs that feed linears rebuilt from xhat in
# backward, against 37,638,064 with them kept, and 44,262,064 with float32
# dropout keeps and bool relu masks. The budget leaves 3%.
_PAPER_TILE_TAPE_BUDGET = 32_970_000


def test_a_recorded_paper_size_trunk_tile_keeps_no_more_than_its_budget():
    """One sample of 146 real tokens through the trunk in training at the
    paper's size (d_model 256, 6 layers x 8 heads, max_len 500, dropout
    0.1), recorded: the arrays reachable from the tape and the closures,
    each counted once by the array that owns it, stay within the budget."""
    model = PretrainModel(ModelConfig(vocab_size=40, n_classes=7, dropout=0.1), seed=1)
    model.train()
    ids = np.random.default_rng(3).integers(4, 40, size=(1, 500))
    ids[:, 146:] = 0
    tape = Tape()
    with tape:
        model.trunk(ids, np.zeros_like(ids), ids != 0)
    assert kept_bytes(tape) <= _PAPER_TILE_TAPE_BUDGET


def test_a_layer_norm_output_is_rebuilt_once_per_backward(monkeypatch):
    """In the backward of a recorded 2-layer encoder tile, each layer-norm
    output that linears read is rebuilt once, however many read it: each
    layer's norm1 output, read by its fc1, and the first layer's norm2
    output, read by the second layer's w_q, w_k and w_v. A rebuild is one
    ``_affine`` call, and no backward makes another."""
    model = PretrainModel(tiny_config(n_layers=2), seed=0)
    ids = np.random.default_rng(0).integers(4, 12, size=(2, 8))
    ids[:, 6:] = 0
    tape = Tape()
    with tape:
        out = model.trunk(ids, np.zeros_like(ids), ids != 0)
    calls, affine = [], ad._affine
    monkeypatch.setattr(ad, "_affine", lambda *args: calls.append(1) or affine(*args))
    backward(out, tape, np.ones_like(out.data))
    assert len(calls) == 3


def test_tiled_training_trunk_draws_the_dropout_masks_of_one_pass(monkeypatch):
    """Each tile draws its own rows of the 2 x n_layers keep masks: the
    hidden states equal those of one pass, and the rng's next draw is the
    one after those masks."""
    model = PretrainModel(tiny_config(d_model=8, n_layers=2, max_len=12, dropout=0.3), seed=2)
    ids, segs, mask, _ = _batch_of_seven(model)
    hidden = []
    for samples, workers in ((7, 1), (2, 2)):
        _set_tile(monkeypatch, model, samples)
        _force_workers(monkeypatch, workers)
        model.rng = np.random.default_rng(5)
        with no_grad():
            hidden.append(model.trunk(ids, segs, mask).data)
        hidden.append(model.rng.random())
    ref = np.random.default_rng(5)
    for _ in range(2 * model.cfg.n_layers):
        ref.random((7, 12, 8))
    assert np.array_equal(hidden[0], hidden[2]) and hidden[1] == hidden[3] == ref.random()


def test_each_tile_draws_its_rows_of_the_one_pass_dropout_masks(monkeypatch):
    """Tiles of 2 over a batch of 7 on two workers: the keep masks are
    drawn in the tiles, on both threads, each draw a tile's rows only, and
    the masks a tile's encoder gets are its rows of those one pass draws
    from the same rng one after another. The rng's next draw after the
    trunk is the one after all of them."""
    model = PretrainModel(tiny_config(d_model=8, n_layers=2, max_len=12, dropout=0.3,
                                      dtype="float32"), seed=2)
    ids, segs, mask, _ = _batch_of_seven(model)
    _set_tile(monkeypatch, model, 2)
    _force_workers(monkeypatch, 2)
    model.rng = np.random.default_rng(5)
    draws, keep, lock = [], ad.dropout_keep, threading.Lock()

    def spy_keep(shape, *args):
        with lock:
            draws.append((threading.get_ident(), shape))
        return keep(shape, *args)

    tiles, encoder = {}, model.encoder

    def spy_encoder(x, tile_mask, keeps):
        tiles[(tile_mask.ctypes.data - mask.ctypes.data) // mask.strides[0]] = keeps
        return encoder(x, tile_mask, keeps)

    monkeypatch.setattr(ad, "dropout_keep", spy_keep)
    model.encoder = spy_encoder
    _spy_tiles(model)
    with no_grad():
        model.trunk(ids, segs, mask)
    ref = np.random.default_rng(5)
    one_pass = [keep((7, 12, 8), 0.3, ref) for _ in range(4)]
    assert sorted(tiles) == [0, 2, 4, 6] and len(draws) == 4 * 4
    assert len({thread for thread, _ in draws}) == 2
    assert sorted(shape for _, shape in draws) == [(1, 12, 8)] * 4 + [(2, 12, 8)] * 12
    for lo, keeps in tiles.items():
        assert len(keeps) == 4
        assert all(np.array_equal(k, full[lo:lo + 2]) for k, full in zip(keeps, one_pass))
    assert model.rng.random() == ref.random()


_BLAS_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from ddikit import blas, model as m
from ddikit.autodiff import no_grad
cfg = m.ModelConfig(vocab_size=12, n_classes=5, d_model=64, n_layers=2, n_heads=4, d_ff=64,
                    max_len=96, kg_dim=16, kg_heads=2, conv_blocks=3, dtype="float32")
m.TILE_BYTES = 4 * cfg.max_len * cfg.d_model * 4
model = m.DdiModel(cfg, seed=3)
model.eval()
rng = np.random.default_rng(5)
ids = rng.integers(4, 12, size=(18, cfg.max_len))
ids[np.arange(cfg.max_len)[None, :] >= rng.integers(0, cfg.max_len, 18)[:, None]] = 0
with no_grad():
    logits = model.forward(ids, np.zeros_like(ids), ids != 0, rng.standard_normal((18, 16))).data
tiles = -(-len(ids) // model.tile())
print(model.tile(), blas.workers(tiles), hashlib.sha256(logits.tobytes()).hexdigest())
"""


def _run_at_blas_threads(script: str) -> dict[str, list[str]]:
    """The words ``script`` prints, run at ``OPENBLAS_NUM_THREADS`` 1 and 2."""
    return {threads: run_script(script, threads) for threads in ("1", "2")}


def test_eval_logits_keep_their_bytes_across_blas_thread_counts():
    """``OPENBLAS_NUM_THREADS`` sets how many workers take the 5 tiles of an
    eval forward over 18 samples; the logits keep their bytes."""
    runs = _run_at_blas_threads(_BLAS_THREADS_SCRIPT)
    cores = len(os.sched_getaffinity(0))
    workers = {t: w for t, (_, w, _) in runs.items()}
    assert runs["1"][0] == "4" and workers == {"1": "1", "2": str(min(2, cores))}
    assert runs["1"][2] == runs["2"][2]


_TRUNK_GRADS_SCRIPT = """
import hashlib
import numpy as np
from ddikit import autodiff as ad, blas
from ddikit.model import DdiModel, ModelConfig
model = DdiModel(ModelConfig(vocab_size=40, n_classes=7, n_layers=2, conv_blocks=2), seed=1)
rng = np.random.default_rng(3)
ids = rng.integers(4, 40, size=(4, 500))
ids[np.arange(500)[None, :] >= np.array([146, 141, 129, 101])[:, None]] = 0
tape = ad.Tape()
with tape:
    logits = model.forward(ids, np.zeros_like(ids), ids != 0, rng.standard_normal((4, 800)))
    loss = ad.cross_entropy_loss(logits, [0, 3, 5, 6])
ad.backward(loss, tape)
trunk = hashlib.sha256()
for name, p in model.parameters().items():
    if name.startswith(("embed.", "encoder.")):
        trunk.update(p.grad.tobytes())
print(model.tile(), blas.workers(-(-4 // model.tile())), trunk.hexdigest())
"""


def test_trunk_gradients_keep_their_bytes_across_blas_thread_counts():
    """A paper-shaped trunk (d_model 256, 8 heads, max_len 500, float32) over
    4 one-sample tiles, each drawing its own rows of the dropout masks: at 1
    and 2 BLAS threads every embed and encoder gradient keeps its bytes, as
    each tile runs at one BLAS thread and the tiles' gradients add in tile
    order."""
    runs = _run_at_blas_threads(_TRUNK_GRADS_SCRIPT)
    cores = len(os.sched_getaffinity(0))
    assert runs["1"][:2] == ["1", "1"] and runs["2"][:2] == ["1", str(min(2, cores))]
    assert runs["1"][2] == runs["2"][2]


def test_a_train_step_keeps_its_bytes_across_blas_thread_counts():
    """The paper-shaped train step of ``paper_step`` (d_model 256, max_len
    500, 4 conv blocks, float32, batch 4 with real lengths 146/141/129/101),
    one Adam step and an eval forward, over 4 one-sample trunk tiles on 1
    worker at 1 BLAS thread and min(2, cores) at 2: every parameter
    gradient, every parameter after Adam and the eval logits keep their
    bytes. Every BLAS product runs at one thread, the tiles' gradients add
    in tile order, and the conv stack's row blocks do not depend on the
    number of workers."""
    runs = _run_at_blas_threads(TRAIN_STEP)
    cores = len(os.sched_getaffinity(0))
    assert "tile:1" in runs["1"] and "workers:1" in runs["1"]
    assert f"workers:{min(2, cores)}" in runs["2"]
    groups = [word.split(":")[1] for word in runs["1"] if word.startswith("grad:")]
    assert groups == ["embed", "encoder", "conv", "mlp1", "kg_attn", "mlp2"]
    hashes = {t: [w for w in words if not w.startswith("workers:")] for t, words in runs.items()}
    assert hashes["1"] == hashes["2"]


_PIN_SCRIPT = "import ctypes, functools, os\n" + inspect.getsource(_openblas_get) + """
import ddikit
from ddikit import blas
print(_openblas_get()(), blas.threads())
"""


def test_importing_ddikit_sets_openblas_to_one_thread():
    """After ``import ddikit`` OpenBLAS's own count reads 1, and
    ``blas.threads()`` keeps the count it started with, the worker count."""
    runs = _run_at_blas_threads(_PIN_SCRIPT)
    started = str(min(2, len(os.sched_getaffinity(0))))
    assert runs == {"1": ["1", "1"], "2": ["1", started]}


def _eval_forward_peak(model, batch: int) -> int:
    rng = np.random.default_rng(batch)
    ids = rng.integers(4, 12, size=(batch, model.cfg.max_len))
    ids[:, model.cfg.max_len // 2:] = 0
    pair = rng.standard_normal((batch, model.cfg.kg_dim))
    model.eval()
    tracemalloc.start()
    try:
        with no_grad():
            model.forward(ids, np.zeros_like(ids), ids != 0, pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_eval_forward_memory_grows_by_the_head_not_the_trunk(monkeypatch):
    """Each worker holds one tile at a time, so four times the samples of
    one tile per worker peak at under twice the memory: only the conv
    features and the head grow with the batch. One pass over the whole batch
    measured a ratio of 3.5, tiles of 4 on one worker a ratio of 1.07."""
    model = DdiModel(tiny_config(vocab_size=12, d_model=32, n_layers=1, n_heads=4, d_ff=32,
                                 max_len=128, conv_blocks=3, dtype="float32"), seed=0)
    _set_tile(monkeypatch, model, 4)
    workers = blas.workers(-(-16 // model.tile()))
    one = _eval_forward_peak(model, 4 * workers)
    four = _eval_forward_peak(model, 16 * workers)
    assert four < 2 * one, (four, one)


@pytest.mark.parametrize("seed", range(3))
def test_full_model_gradients_match_finite_differences(seed):
    cfg = tiny_config()
    model = DdiModel(cfg, seed=seed)
    rng = np.random.default_rng(seed + 10)
    ids = rng.integers(4, 12, size=(2, 8))
    ids[:, 5:] = 0
    ids[:, 3] = 3
    segs = (np.arange(8) >= 4).astype(np.int64) * np.ones((2, 1), dtype=np.int64)
    mask = ids != 0
    pair = rng.standard_normal((2, 4))
    targets = rng.integers(3, size=2)

    def build_loss():
        logits = model.forward(ids, segs, mask, pair)
        return ad.cross_entropy_loss(logits, targets)

    assert check_model_grads(model, build_loss) < 1e-4


def test_pretrain_model_gradients_match_finite_differences():
    cfg = tiny_config()
    model = PretrainModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    ids = rng.integers(4, 12, size=(2, 8))
    mask = np.ones_like(ids, dtype=bool)
    segs = np.zeros_like(ids)
    flat_positions = np.array([1, 5, 9])
    targets = rng.integers(4, 12, size=3)

    def build_loss():
        logits = model.masked_logits(ids, segs, mask, flat_positions)
        return ad.cross_entropy_loss(logits, targets)

    assert check_model_grads(model, build_loss) < 1e-4


@pytest.mark.parametrize("model_cls", [DdiModel, PretrainModel])
def test_tiled_trunk_gradients_match_finite_differences(monkeypatch, model_cls):
    """Tiles of one sample on two workers, with dropout masks drawn afresh
    from the same seed for every evaluation: the gradients the trunk entry
    adds up from its tiles match finite differences."""
    model = model_cls(tiny_config(dropout=0.2), seed=5)
    _set_tile(monkeypatch, model, 1)
    _force_workers(monkeypatch, 2)
    rng = np.random.default_rng(15)
    ids = rng.integers(4, 12, size=(3, 8))
    ids[:, 6:] = 0
    ids[1, 3:] = 0
    segs = (np.arange(8) >= 4).astype(np.int64) * np.ones((3, 1), dtype=np.int64)
    pair = rng.standard_normal((3, 4))
    flat_positions = np.array([1, 5, 9, 17, 20])

    def build_loss():
        model.rng = np.random.default_rng(6)
        if model_cls is DdiModel:
            logits = model.forward(ids, segs, ids != 0, pair)
            return ad.cross_entropy_loss(logits, [2, 0, 1])
        logits = model.masked_logits(ids, segs, ids != 0, flat_positions)
        return ad.cross_entropy_loss(logits, [4, 7, 5, 9, 11])

    tape = Tape()
    with tape:
        build_loss()
    assert [e.backward_fn.__qualname__.split(".")[0] for e in tape.entries].count("join_tiles") == 1
    assert check_model_grads(model, build_loss) < 1e-4


def test_transfer_copies_encoder_and_embeddings_only():
    cfg = tiny_config()
    src = PretrainModel(cfg, seed=1)
    dst = DdiModel(cfg, seed=2)
    before_mlp = dst.parameters()["mlp1.fc1.w"].data.copy()
    transfer_encoder_weights(src, dst)
    for name, p in src.parameters().items():
        if name.startswith(("embed.", "encoder.")):
            assert np.array_equal(dst.parameters()[name].data, p.data)
    assert np.array_equal(dst.parameters()["mlp1.fc1.w"].data, before_mlp)


def test_transfer_gives_identical_encoder_outputs():
    cfg = tiny_config()
    src = PretrainModel(cfg, seed=1)
    dst = DdiModel(cfg, seed=2)
    transfer_encoder_weights(src, dst)
    src.eval()
    dst.eval()
    ids = np.array([[4, 5, 6, 7, 8, 9, 10, 11]])
    segs = np.zeros_like(ids)
    mask = np.ones_like(ids, dtype=bool)
    with no_grad():
        a = src.trunk(ids, segs, mask).data
        b = dst.trunk(ids, segs, mask).data
    assert np.array_equal(a, b)


def test_dropout_only_active_in_training_mode():
    cfg = tiny_config(dropout=0.5, n_layers=2)
    model = DdiModel(cfg, seed=0)
    ids = np.array([[4, 5, 6, 7, 8, 9, 10, 11]])
    segs = np.zeros_like(ids)
    mask = np.ones_like(ids, dtype=bool)
    model.eval()
    with no_grad():
        a = model.trunk(ids, segs, mask).data
        b = model.trunk(ids, segs, mask).data
    assert np.array_equal(a, b)
    model.train()
    with no_grad():
        c = model.trunk(ids, segs, mask).data
        d = model.trunk(ids, segs, mask).data
    assert not np.array_equal(c, d)

"""Attention/encoder/conv/fusion network tests: literal-formula oracles for
the attention equations, the fused attention primitive against the composed
tape ops it replaces (exact, or within the stated tolerance where each
sample's keys are cut at its last real one), structural probes (padding
insensitivity, swap equivariance), and a full-model finite-difference
gradient check."""

import math
import tracemalloc

import numpy as np
import pytest

from ddikit import autodiff as ad
from ddikit.autodiff import Parameter, Tape, Tensor, backward, no_grad
from ddikit.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from ddikit.model import (DdiModel, KgSelfAttention, ModelConfig,
                          MultiHeadAttention, ParamStore, PretrainModel,
                          transfer_encoder_weights)

from gradcheck import check_grads, check_model_grads, rel_err


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
    weights = ad.softmax(scores, axis=-1)
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


def test_encoder_zero_layers_is_embedding_identity():
    cfg = tiny_config(n_layers=0)
    model = DdiModel(cfg, seed=0)
    ids = np.array([[4, 5, 6, 3, 7, 0, 0, 0]])
    segs = np.array([[0, 0, 0, 0, 1, 1, 1, 1]])
    mask = ids != 0
    with no_grad():
        enc = model.encode(ids, segs, mask).data
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
        a = model.encode(ids, segs, mask).data
        b = model.encode(ids2, segs, mask).data
    assert np.abs(a[0, :5] - b[0, :5]).max() < 1e-10


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
        a = src.encode(ids, segs, mask).data
        b = dst.encode(ids, segs, mask).data
    assert np.array_equal(a, b)


def test_dropout_only_active_in_training_mode():
    cfg = tiny_config(dropout=0.5, n_layers=2)
    model = DdiModel(cfg, seed=0)
    ids = np.array([[4, 5, 6, 7, 8, 9, 10, 11]])
    segs = np.zeros_like(ids)
    mask = np.ones_like(ids, dtype=bool)
    model.eval()
    with no_grad():
        a = model.encode(ids, segs, mask).data
        b = model.encode(ids, segs, mask).data
    assert np.array_equal(a, b)
    model.train()
    with no_grad():
        c = model.encode(ids, segs, mask).data
        d = model.encode(ids, segs, mask).data
    assert not np.array_equal(c, d)

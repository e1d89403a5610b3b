"""Finite-difference checks for every differentiable primitive plus an
independent oracle for the Adam update recurrence."""

import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from ddikit import autodiff as ad
from ddikit import blas, optim
from ddikit.autodiff import Parameter, Tape, Tensor, backward, no_grad
from ddikit.optim import AdamState, adam_step, zero_grads

from gradcheck import check_grads, rel_err
from tape_bytes import kept_bytes

TOL = 1e-4


def r(rng, *shape):
    return rng.standard_normal(shape)


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_and_broadcast(seed):
    rng = np.random.default_rng(seed)
    arrays = {"a": r(rng, 3, 4), "b": r(rng, 3, 4), "c": r(rng, 4), "d": r(rng, 1, 4)}

    def build(t):
        x = ad.add(t["a"], t["c"])           # row broadcast
        x = ad.mul(x, t["b"])
        x = ad.sub(x, t["d"])                # [1, 4] broadcast
        x = ad.scale(x, 0.7)
        return ad.tsum(x)

    assert check_grads(build, arrays) < TOL


@pytest.mark.parametrize("seed", range(5))
def test_matmul_2d_and_batched(seed):
    rng = np.random.default_rng(seed)
    arrays = {"a": r(rng, 2, 3, 4), "w": r(rng, 4, 5), "m": r(rng, 2, 5, 3)}

    def build(t):
        x = ad.matmul(t["a"], t["w"])        # broadcast weight over batch
        x = ad.matmul(t["m"], x)             # batched x batched
        return ad.tsum(ad.mul(x, x))

    assert check_grads(build, arrays) < TOL


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(a, b)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 2), False)])
def test_sum_mean_axes(seed, axis, keepdims):
    rng = np.random.default_rng(seed)
    arrays = {"a": r(rng, 2, 3, 4)}

    def build(t):
        s = ad.tsum(t["a"], axis=axis, keepdims=keepdims)
        n = t["a"].data.size // s.data.size  # elements per mean
        m = ad.scale(ad.tsum(t["a"], axis=axis, keepdims=keepdims), 1.0 / n)
        return ad.tsum(ad.mul(s, s)) if s.ndim else ad.mul(s, m)

    assert check_grads(build, arrays) < TOL


@pytest.mark.parametrize("seed", range(3))
def test_reshape_transpose_concat(seed):
    rng = np.random.default_rng(seed)
    arrays = {"a": r(rng, 2, 6), "b": r(rng, 3, 4)}

    def build(t):
        x = ad.reshape(t["a"], (3, 4))
        y = ad.transpose(ad.concat([x, t["b"]], axis=0), (1, 0))
        return ad.tsum(ad.mul(y, y))

    assert check_grads(build, arrays) < TOL


@pytest.mark.parametrize("seed", range(3))
def test_activations(seed):
    rng = np.random.default_rng(seed)
    # keep values away from the kink at 0 so FD is well defined
    a = r(rng, 4, 5)
    a[np.abs(a) < 1e-3] = 0.5
    arrays = {"a": a}

    def build(t):
        x = ad.add(ad.relu(t["a"]), ad.leaky_relu(t["a"]))
        return ad.tsum(ad.mul(x, x))

    assert check_grads(build, arrays) < TOL


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_forward_matches_where_form_and_propagates_nan(dtype):
    """relu's forward is np.maximum(a, 0): equal to np.where(a > 0, a, 0) on
    every finite input (and on +-0.0 and +-inf), while NaN in gives NaN out."""
    a = np.random.default_rng(0).standard_normal((6, 7)).astype(dtype)
    a[0, :4] = [0.0, -0.0, np.inf, -np.inf]
    out = ad.relu(Tensor(a)).data
    assert out.dtype == dtype
    assert np.array_equal(out, np.where(a > 0, a, 0))
    a[1, 1] = np.nan
    out = ad.relu(Tensor(a)).data
    assert np.isnan(out[1, 1])
    assert np.isnan(out).sum() == 1


def _two_linears_and_a_residual(linear, x, w1, b1, w2, b2):
    """x feeds two linear maps and a residual add."""
    return ad.concat([linear(x, w1, b1), ad.add(x, linear(x, w2, b2))], axis=-1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(5,), (3, 5)])
def test_linear_bit_identical_to_matmul_add(dtype, lead):
    rng = np.random.default_rng(1)
    arrays = {"x": r(rng, *lead, 6), "w1": r(rng, 6, 4), "b1": r(rng, 4),
              "w2": r(rng, 6, 6), "b2": r(rng, 6)}
    g = r(rng, *lead, 10).astype(dtype)

    def run(linear):
        leaves = {k: Parameter(v, name=k, dtype=dtype) for k, v in arrays.items()}
        tape = Tape()
        with tape:
            out = _two_linears_and_a_residual(linear, *leaves.values())
            loss = ad.tsum(ad.mul(out, ad.constant(g, dtype=dtype)))
        backward(loss, tape)
        return out.data, [t.grad for t in leaves.values()]

    out, grads = run(ad.linear)
    ref_out, ref_grads = run(lambda x, w, b: ad.add(ad.matmul(x, w), b))
    assert out.dtype == dtype
    assert np.array_equal(out, ref_out)
    for got, want in zip(grads, ref_grads):
        assert got.dtype == dtype and np.array_equal(got, want)


def _linear_and_matmul(x, w, b):
    return ad.concat([ad.linear(x, w, b), ad.matmul(x, w)], axis=-1)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("lead", [(4, 50), (2, 3, 40), (16, 2)])
def test_3d_weight_gradient_within_tolerance_of_stack_and_sum(dtype, tol, lead):
    """The weight gradient of a batched input is one GEMM over all rows; the
    per-sample [batch, d_in, d_out] stack summed over the batch adds the same
    terms in another order, so the two agree to tol of the largest entry."""
    rng = np.random.default_rng(len(lead))
    x, g = r(rng, *lead, 64).astype(dtype), r(rng, *lead, 96).astype(dtype)
    w, b = Parameter(r(rng, 64, 48), name="w", dtype=dtype), Parameter(r(rng, 48), name="b", dtype=dtype)
    tape = Tape()
    with tape:
        loss = ad.tsum(ad.mul(_linear_and_matmul(Tensor(x), w, b), ad.constant(g, dtype=dtype)))
    backward(loss, tape)
    stack = sum(np.swapaxes(x, -1, -2) @ gi for gi in (g[..., :48], g[..., 48:]))
    want = stack.reshape(-1, 64, 48).sum(axis=0)
    assert w.grad.dtype == dtype
    assert np.abs(w.grad - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("op", [ad.linear, lambda x, w, b: ad.matmul(x, w)],
                         ids=["linear", "matmul"])
def test_3d_weight_gradient_builds_no_batch_stack(op):
    b, n, d = 64, 2, 100
    rng = np.random.default_rng(0)
    x = Tensor(r(rng, b, n, d), requires_grad=True, dtype=np.float32)
    w, bias = Tensor(r(rng, d, d), requires_grad=True, dtype=np.float32), \
        Tensor(np.zeros(d), requires_grad=True, dtype=np.float32)
    tape = Tape()
    with tape:
        op(x, w, bias)
    g = np.ones((b, n, d), np.float32)
    tracemalloc.start()
    try:
        dw = tape.entries[-1].backward_fn(g)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dw.shape == (d, d)
    assert peak < b * d * d * 4 / 8  # an eighth of one [b, d, d] float32 stack


def test_linear_rejects_mismatched_shapes_and_a_wider_bias():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\) x \(4, 5\)"):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    with pytest.raises(TypeError):  # a float64 bias is not rounded into float32
        ad.linear(Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((3, 5), np.float32)),
                  Tensor(np.zeros(5)))


@pytest.mark.parametrize("seed", range(3))
def test_softmax_and_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    arrays = {"logits": r(rng, 6, 5)}
    targets = rng.integers(5, size=6)

    def build(t):
        p = ad.softmax(t["logits"])
        ce = ad.cross_entropy_loss(t["logits"], targets)
        return ad.add(ce, ad.tsum(ad.mul(p, p)))

    assert check_grads(build, arrays) < TOL


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    with no_grad():
        p = ad.softmax(Tensor(rng.standard_normal((7, 9)) * 30))
    assert np.allclose(p.data.sum(axis=-1), 1.0, atol=1e-6)


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((8, 5))
    targets = rng.integers(5, size=8)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    want = -logp[np.arange(8), targets].mean()
    with no_grad():
        got = ad.cross_entropy_loss(Tensor(logits, dtype=np.float64), targets).item()
    assert abs(got - want) < 1e-12


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(IndexError):
        ad.cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))


@pytest.mark.parametrize("seed", range(3))
def test_embedding_lookup(seed):
    rng = np.random.default_rng(seed)
    arrays = {"table": r(rng, 7, 4)}
    ids = rng.integers(7, size=(2, 5))

    def build(t):
        x = ad.embedding_lookup(t["table"], ids)
        return ad.tsum(ad.mul(x, x))

    assert check_grads(build, arrays) < TOL


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_rows_bit_identical_to_2d_add_at(dtype):
    """Repeated rows (row 3 hit 25 times), a non-contiguous ``vals`` and an
    empty ``rows``: every case equals ``np.add.at`` on the 2-d target."""
    rng = np.random.default_rng(4)
    M = rng.standard_normal((9, 6)).astype(dtype)
    rows = np.concatenate([np.full(25, 3), rng.integers(9, size=40)])
    rng.shuffle(rows)
    wide = rng.standard_normal((6, 2 * len(rows))).astype(dtype)
    cases = [(rows, rng.standard_normal((len(rows), 6)).astype(dtype)),
             (rows, wide[:, ::2].T),
             (rows[:0], np.zeros((0, 6), dtype))]
    for r, vals in cases:
        got, want = M.copy(), M.copy()
        ad.add_rows(got, r, vals)
        np.add.at(want, r, vals)
        assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("layout", ["fortran", "column_slice"])
def test_add_rows_refuses_a_target_that_is_not_c_contiguous(layout):
    """The flat view of such a target would be a copy, so the adds would be
    lost; the helper raises instead and leaves the target unchanged."""
    base = np.arange(24, dtype=np.float64).reshape(4, 6)
    M = np.asfortranarray(base) if layout == "fortran" else base[:, :3]
    before = M.copy()
    with pytest.raises(ValueError):
        ad.add_rows(M, np.array([0, 2, 2]), np.ones((3, M.shape[1])))
    assert np.array_equal(M, before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ids_shape", [(3, 8), (30,)])
@pytest.mark.parametrize("fortran", [False, True])
def test_embedding_grad_bit_identical_to_2d_add_at(dtype, ids_shape, fortran):
    """Ids repeat within the batch; a table whose data is F-ordered gets the
    same gradient and its backward does not raise."""
    rng = np.random.default_rng(5)
    data = rng.standard_normal((5, 7)).astype(dtype)
    table = Parameter(np.asfortranarray(data) if fortran else data, name="t", dtype=dtype)
    assert table.data.flags.f_contiguous == fortran
    ids = rng.integers(5, size=ids_shape)
    c = rng.standard_normal((*ids_shape, 7)).astype(dtype)
    tape = Tape()
    with tape:
        loss = ad.tsum(ad.mul(ad.embedding_lookup(table, ids), ad.constant(c, dtype)))
    backward(loss, tape)
    want = np.zeros((5, 7), dtype)
    np.add.at(want, ids.reshape(-1), c.reshape(-1, 7))
    assert table.grad.dtype == dtype and np.array_equal(table.grad, want)


@pytest.mark.parametrize("seed", range(3))
def test_layer_norm(seed):
    rng = np.random.default_rng(seed)
    arrays = {"x": r(rng, 3, 5), "g": 1.0 + 0.1 * r(rng, 5), "b": r(rng, 5)}

    def build(t):
        y = ad.layer_norm(t["x"], t["g"], t["b"])
        return ad.tsum(ad.mul(y, y))

    assert check_grads(build, arrays) < TOL


def test_layer_norm_normalizes():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 9)) * 5 + 2, dtype=np.float64)
    with no_grad():
        y = ad.layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9))).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-9
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4


def _two_pass_layer_norm(x, gain, bias, g, eps=1e-5):
    """Layer norm with separate mean and variance passes (the reference
    formulation): the output, then the x, gain and bias gradients."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gx = g * gain
    dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    return gain * xhat + bias, dx, g * xhat, g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 9), (3, 2, 400), (4, 50, 256)])
def test_layer_norm_bit_identical_to_two_pass_formula(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    x, g = ((rng.standard_normal(shape) * 3 + 1).astype(dtype) for _ in range(2))
    gain, bias = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
    tape = Tape()
    with tape:
        y = ad.layer_norm(*(Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gain, bias)))
    got = (y.data,) + tuple(tape.entries[-1].backward_fn(g))
    want = _two_pass_layer_norm(x, gain, bias, g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype
        assert np.array_equal(a, b)


def test_layer_norm_backward_works_in_two_buffers():
    """The backward's temporaries are the two arrays it returns for x and
    the gain: its peak stays under 2.5 arrays of x's size."""
    rng = np.random.default_rng(0)
    x, g = (rng.standard_normal((4, 50, 256)).astype(np.float32) for _ in range(2))
    tape = Tape()
    with tape:
        ad.layer_norm(*(Tensor(a, requires_grad=True) for a in
                        (x, np.ones(256, np.float32), np.zeros(256, np.float32))))
    tracemalloc.start()
    try:
        grads = tape.entries[-1].backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [x.shape] * 3
    assert peak < 2.5 * x.nbytes


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode,training", [("2d", True), ("3d", True),
                                           ("2d", False), ("3d", False)],
                         ids=["2d", "3d", "2d-eval", "3d-eval"])
def test_batch_norm_train_grads(seed, mode, training):
    rng = np.random.default_rng(seed)
    shape = (6, 4) if mode == "2d" else (3, 4, 5)
    arrays = {"x": r(rng, *shape), "g": 1.0 + 0.1 * r(rng, 4), "b": r(rng, 4)}
    # elementwise weights keep the loss from being invariant to x, which
    # would leave only eps-sized true gradients for FD noise to swamp
    c = ad.constant(r(rng, *shape), dtype=np.float64)

    def build(t):
        rm = np.zeros(4)
        rv = np.ones(4)
        y = ad.batch_norm(t["x"], t["g"], t["b"], rm, rv, training=training)
        return ad.tsum(ad.mul(ad.mul(y, c), y))

    assert check_grads(build, arrays) < TOL


def test_batch_norm_eval_uses_running_stats():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 3)), dtype=np.float64)
    g = Tensor(np.ones(3))
    b = Tensor(np.zeros(3))
    rm = np.array([1.0, -2.0, 0.5])
    rv = np.array([4.0, 1.0, 0.25])
    with no_grad():
        y = ad.batch_norm(x, g, b, rm, rv, training=False).data
    want = (x.data - rm) / np.sqrt(rv + 1e-5)
    assert np.abs(y - want).max() < 1e-9


def test_batch_norm_updates_running_stats():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3))
    rm = np.zeros(3)
    rv = np.ones(3)
    with no_grad():
        ad.batch_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(3)),
                      Tensor(np.zeros(3)), rm, rv, training=True)
    want_m = 0.1 * x.mean(axis=0)
    want_v = 0.9 + 0.1 * x.var(axis=0, ddof=1)
    assert np.abs(rm - want_m).max() < 1e-9
    assert np.abs(rv - want_v).max() < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_conv1d_and_pool(seed):
    rng = np.random.default_rng(seed)
    arrays = {"x": r(rng, 2, 3, 9), "w": r(rng, 4, 3, 3), "b": r(rng, 4)}

    def build(t):
        y = ad.conv1d(t["x"], t["w"], t["b"])
        y = ad.max_pool1d(y, 2)
        return ad.tsum(ad.mul(y, y))

    assert check_grads(build, arrays) < TOL


def test_conv1d_same_padding_matches_manual():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 1, 6))
    w = rng.standard_normal((1, 1, 3))
    with no_grad():
        y = ad.conv1d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                      Tensor(np.zeros(1))).data
    xp = np.pad(x[0, 0], (1, 1))
    want = np.array([np.dot(xp[i:i + 3], w[0, 0]) for i in range(6)])
    assert y.shape == (1, 1, 6)
    assert np.abs(y[0, 0] - want).max() < 1e-12


def _scatter_conv1d_dx(x, w, g):
    """Input gradient of a same-padded stride-1 conv1d via an np.add.at
    scatter of the per-window gradients (the reference formulation)."""
    kernel, length = w.shape[2], x.shape[2]
    pl = (kernel - 1) // 2
    dxp = np.zeros((*x.shape[:2], length + kernel - 1), dtype=x.dtype)
    positions = np.arange(length)[:, None] + np.arange(kernel)[None, :]
    dcols = np.einsum("oik,bol->bilk", w, g, optimize=True)
    np.add.at(dxp, (slice(None), slice(None), positions), dcols)
    return dxp[:, :, pl:pl + length]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 3, 7, 3), (4, 8, 17, 5), (2, 4, 9, 4),
                                   (3, 5, 6, 1), (16, 32, 96, 3), (4, 64, 125, 3),
                                   (4, 256, 500, 3), (32, 256, 63, 3)])
def test_conv1d_input_grad_matches_scatter(dtype, shape):
    bsz, c, length, kernel = shape
    rng = np.random.default_rng(sum(shape))
    x, w, g = (rng.standard_normal(s).astype(dtype)
               for s in ((bsz, c, length), (c + 1, c, kernel), (bsz, c + 1, length)))
    tape = Tape()
    with tape:
        ad.conv1d(Tensor(x, requires_grad=True, dtype=dtype),
                  Tensor(w, requires_grad=True, dtype=dtype),
                  Tensor(np.zeros(c + 1), requires_grad=True, dtype=dtype))
    dx = tape.entries[-1].backward_fn(g)[0]
    want = _scatter_conv1d_dx(x, w, g)
    assert dx.dtype == want.dtype
    if dtype == np.float32:
        assert np.array_equal(dx, want)
    else:
        assert np.abs(dx - want).max() <= 1e-12 * np.abs(want).max()


def _im2col_conv1d(x, w, b, g):
    """conv1d's output and weight gradient through a sliding-window view of
    the padded input and einsum (the im2col reference formulation)."""
    kernel = w.shape[2]
    pl = (kernel - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pl, kernel - 1 - pl)))
    cols = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=2)
    return (np.einsum("bilk,oik->bol", cols, w, optimize=True) + b[None, :, None],
            np.einsum("bilk,bol->oik", cols, g, optimize=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 3, 7, 3), (4, 8, 17, 5), (2, 4, 9, 4),
                                   (3, 5, 6, 1), (16, 32, 96, 3), (4, 64, 125, 3),
                                   (32, 256, 63, 3), (1, 8, 11, 3)])
def test_conv1d_output_and_weight_grad_match_im2col(dtype, shape):
    """The per-tap products sum in another order than einsum does: the stated
    tolerance is 16 machine epsilons of the dtype times the largest magnitude."""
    bsz, c, length, kernel = shape
    rng = np.random.default_rng(sum(shape))
    x, w, b, g = (rng.standard_normal(s).astype(dtype) for s in
                  ((bsz, c, length), (c + 1, c, kernel), (c + 1,), (bsz, c + 1, length)))
    tape = Tape()
    with tape:
        y = ad.conv1d(*(Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, b)))
    dw = tape.entries[-1].backward_fn(g)[1]
    for got, want in zip((y.data, dw), _im2col_conv1d(x, w, b, g)):
        assert got.shape == want.shape and got.dtype == dtype
        assert np.abs(got - want).max() <= 16 * np.finfo(dtype).eps * np.abs(want).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c,length", [(64, 96), (32, 96), (8, 12), (64, 4), (256, 4)])
def test_conv1d_output_of_a_sample_does_not_depend_on_the_batch(dtype, c, length):
    """Each slice of 1, 2, 3 or 5 samples gives the bits of the same samples
    in one batch of 18, as an eval forward's trunk tiles rely on."""
    rng = np.random.default_rng(c + length)
    x = rng.standard_normal((18, c, length)).astype(dtype)
    w = (rng.standard_normal((c, c, 3)) / c).astype(dtype)
    b = rng.standard_normal(c).astype(dtype)
    whole = ad.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
    for size in (1, 2, 3, 5):
        for lo in range(0, 18, size):
            part = ad.conv1d(Tensor(x[lo:lo + size]), Tensor(w), Tensor(b)).data
            assert np.array_equal(part, whole[lo:lo + size]), (size, lo)


def _conv_on_four_workers(monkeypatch, shape, dtype, cout, split_macs):
    """conv1d's output and the gradients of x, w and b at each threshold of
    ``split_macs``, on four workers with thread switches every microsecond,
    and the number of ``blas.map_in_threads`` calls made."""
    bsz, c, length, kernel = shape
    rng = np.random.default_rng(sum(shape))
    x, w, b, g = (rng.standard_normal(s).astype(dtype) for s in
                  ((bsz, c, length), (cout, c, kernel), (cout,), (bsz, cout, length)))
    monkeypatch.setattr(blas, "threads", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    maps, real_map = [], blas.map_in_threads
    monkeypatch.setattr(blas, "map_in_threads",
                        lambda fn, items: maps.append(fn) or real_map(fn, items))
    runs = []
    interval = sys.getswitchinterval()
    for macs in split_macs:
        monkeypatch.setattr(ad, "_CONV_SPLIT_MACS", macs)
        xt, wt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, b))
        sys.setswitchinterval(1e-6)
        try:
            tape = Tape()
            with tape:
                y = ad.conv1d(xt, wt, bt)
            backward(y, tape, g)
        finally:
            sys.setswitchinterval(interval)
        runs.append((y.data, xt.grad, wt.grad, bt.grad))
    return runs, len(maps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 8, 12, 3), (3, 33, 96, 3), (4, 128, 125, 3),
                                   (2, 16, 7, 4), (3, 5, 6, 1)])
def test_conv1d_in_row_blocks_keeps_the_bits_of_one_product(monkeypatch, dtype, shape):
    """Split at any size (the forward and dw in two blocks of output channels
    where there are 32 or more, dx in two of input channels likewise), the
    output and the gradients of x, w and b equal those of one product over
    the batch on the caller. A float64 conv runs whole on the caller."""
    runs, maps = _conv_on_four_workers(monkeypatch, shape, dtype, shape[1] + 1, (10**15, 1))
    assert maps == (2 if dtype == np.float32 else 0)
    assert all(np.array_equal(one, blocks) for one, blocks in zip(*runs))


@pytest.mark.parametrize("length", [500, 250, 125, 63])
def test_conv1d_splits_the_paper_convs_at_batch_4_with_the_bits_of_one_product(
        monkeypatch, length):
    """The paper's float32 convs (256 channels, kernel 3) at batch 4 of
    length 63 or more reach ``_CONV_SPLIT_MACS``; split in row blocks, they
    give the output and gradients of the same conv run whole."""
    runs, maps = _conv_on_four_workers(monkeypatch, (4, 256, length, 3), np.float32, 256,
                                       (10**15, ad._CONV_SPLIT_MACS))
    assert maps == 2
    assert all(np.array_equal(one, blocks) for one, blocks in zip(*runs))


def test_max_pool_ceil_mode():
    """The same maxima under no_grad, where no argmax is taken, as on a tape."""
    x = Tensor(np.arange(5, dtype=np.float64).reshape(1, 1, 5), requires_grad=True)
    with no_grad():
        y = ad.max_pool1d(x, 2).data
    tape = Tape()
    with tape:
        y_taped = ad.max_pool1d(x, 2).data
    assert y.shape == (1, 1, 3)
    assert np.array_equal(y[0, 0], [1.0, 3.0, 4.0]) and np.array_equal(y_taped, y)
    dx = tape.entries[-1].backward_fn(np.array([[[1.0, 2.0, 3.0]]]))[0]
    assert np.array_equal(dx[0, 0], [0.0, 1.0, 0.0, 2.0, 3.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_keeps_the_first_of_tied_maxima_and_propagates_nan(dtype):
    """As the argmax over each window would: a window of -0.0 then 0.0 gives
    -0.0, one of 0.0 then -0.0 gives 0.0, and a NaN anywhere gives NaN."""
    x = np.array([-0.0, 0.0, 0.0, -0.0, np.nan, 1.0, 2.0, np.nan, 5.0], dtype)[None, None]
    with no_grad():
        y = ad.max_pool1d(Tensor(x), 2).data[0, 0]
    assert np.array_equal(np.signbit(y[:2]), [True, False])
    assert np.isnan(y[2:4]).all() and y[4] == 5.0


@pytest.mark.parametrize("length", [8, 9, 12, 13])
@pytest.mark.parametrize("stride", [2, 3])
def test_max_pool_matches_padded_form(length, stride):
    """Without a pad the windows are a reshape of the input itself; output
    and gradient keep the bits of the -inf-padded form, also for an input
    that is not C-contiguous."""
    rng = np.random.default_rng(length * stride)
    x = rng.standard_normal((2, length, 3)).astype(np.float32).transpose(0, 2, 1)
    out_len = -(-length // stride)
    g = rng.standard_normal((2, 3, out_len)).astype(np.float32)
    xp = np.pad(x, ((0, 0), (0, 0), (0, out_len * stride - length)), constant_values=-np.inf)
    windows = xp.reshape(2, 3, out_len, stride)
    arg = windows.argmax(axis=3)[..., None]
    dxp = np.zeros_like(xp)
    np.put_along_axis(dxp.reshape(2, 3, out_len, stride), arg, g[..., None], axis=3)
    t = Tensor(x, requires_grad=True)
    tape = Tape()
    with tape:
        y = ad.max_pool1d(t, stride)
    assert np.array_equal(y.data, np.take_along_axis(windows, arg, axis=3)[..., 0])
    assert np.array_equal(tape.entries[-1].backward_fn(g)[0], dxp[:, :, :length])


@pytest.mark.parametrize("seed", range(3))
def test_dropout_grads_with_fixed_mask(seed):
    rng = np.random.default_rng(seed)
    arrays = {"x": r(rng, 4, 6)}

    def build(t):
        y = ad.dropout(t["x"], ad.dropout_keep(t["x"].shape, 0.5, np.random.default_rng(123)),
                       0.5)
        return ad.tsum(ad.mul(y, y))

    assert check_grads(build, arrays) < TOL


def test_dropout_eval_is_identity_and_scaling_preserves_mean():
    x = Tensor(np.ones((200, 50)), dtype=np.float64)
    with no_grad():
        same = ad.dropout(x, None, 0.3)
        dropped = ad.dropout(x, ad.dropout_keep(x.shape, 0.3, np.random.default_rng(0)), 0.3)
    assert same.data is x.data or np.array_equal(same.data, x.data)
    assert abs(dropped.data.mean() - 1.0) < 0.02
    zeros = (dropped.data == 0).mean()
    assert abs(zeros - 0.3) < 0.02


# Gradient values whose products with 0 and with 1 / (1 - p) are edge
# cases: infinities, NaN, signed zeros, a product that overflows, a subnormal.
_EDGE_GRADS = [np.inf, -np.inf, np.nan, 0.0, -0.0, 3e38, -3e38, 1e-45]


def _float_keep_reference(op, x, g, keep):
    """The output and input gradient of ``op`` as computed from a float32
    or float64 keep mask, or a bool sign mask, held whole."""
    if op == "dropout":
        float_keep = keep.astype(x.dtype) / (1.0 - 0.3)
        return x * float_keep, g * float_keep
    if op == "relu":
        return np.maximum(x, 0), g * (x > 0)
    pos = x > 0
    return np.where(pos, x, 0.01 * x), np.where(pos, g, 0.01 * g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", ["dropout", "relu", "leaky_relu"])
def test_masks_are_kept_at_one_bit_with_the_bits_of_a_whole_mask(op, dtype):
    """Under a recording tape the closure of dropout, relu or leaky_relu
    keeps arrays of at most ceil(n / 8) bytes and a fixed overhead for n
    elements, and the output and gradient have the bytes of those built
    from the whole float keep or bool mask."""
    rng = np.random.default_rng(1)
    shape = (3, 7, 61)  # 1281 elements, not a multiple of 8
    x = rng.standard_normal(shape).astype(dtype)
    x.flat[:3] = [0.0, -0.0, np.nan]
    g = rng.standard_normal(shape).astype(dtype)
    g.flat[3:3 + len(_EDGE_GRADS)] = _EDGE_GRADS
    keep = rng.random(shape) >= 0.3
    build = {"dropout": lambda t: ad.dropout(t, keep, 0.3), "relu": ad.relu,
             "leaky_relu": ad.leaky_relu}[op]
    tape = Tape()
    with tape, np.errstate(all="ignore"):
        out = build(Parameter(x, name="x", dtype=dtype))
        dx = tape.entries[-1].backward_fn(g)[0]
        want_out, want_dx = _float_keep_reference(op, x, g, keep)
    assert kept_bytes(tape.entries[-1].backward_fn) <= -(-x.size // 8) + 16
    assert out.data.dtype == dx.dtype == dtype
    assert out.data.tobytes() == want_out.tobytes() and dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("length,stride", [(13, 2), (13, 3), (12, 4), (600, 300)])
def test_max_pool_keeps_a_byte_a_window_for_strides_up_to_256(length, stride):
    """A recorded max_pool1d keeps each window's winner, in one byte up to
    a stride of 256 and two beyond, and routes the gradient as the int64
    argmax of the -inf-padded windows does."""
    rng = np.random.default_rng(stride)
    x = rng.standard_normal((2, 3, length)).astype(np.float32)
    out_len = -(-length // stride)
    g = rng.standard_normal((2, 3, out_len)).astype(np.float32)
    tape = Tape()
    with tape:
        ad.max_pool1d(Parameter(x, name="x"), stride)
    windows = 2 * 3 * out_len
    assert kept_bytes(tape.entries[-1].backward_fn) <= windows * (1 if stride <= 256 else 2)
    xp = np.pad(x, ((0, 0), (0, 0), (0, out_len * stride - length)), constant_values=-np.inf)
    dxp = np.zeros((2, 3, out_len, stride), np.float32)
    arg = xp.reshape(2, 3, out_len, stride).argmax(axis=3)
    np.put_along_axis(dxp, arg[..., None], g[..., None], axis=3)
    want = dxp.reshape(2, 3, -1)[:, :, :length]
    assert np.array_equal(tape.entries[-1].backward_fn(g)[0], want)


def test_no_grad_records_nothing():
    p = Parameter(np.ones(3), name="p", dtype=np.float64)
    tape = Tape()
    with tape:
        with no_grad():
            ad.tsum(ad.mul(p, p))
    assert len(tape) == 0


def test_tapes_and_no_grad_belong_to_the_thread_that_entered_them():
    """A thread starts with no active tape: an op it runs while another
    thread records goes on no tape, and its ``no_grad`` leaves the other
    thread recording."""
    p = Parameter(np.ones(3), name="p", dtype=np.float64)
    seen = {}
    in_no_grad, main_done = threading.Event(), threading.Event()

    def other():
        seen["tape"] = ad.active_tape()
        seen["recorded"] = ad.tsum(ad.mul(p, p)).requires_grad
        with no_grad():
            in_no_grad.set()
            main_done.wait(10)
            seen["inner"] = ad.active_tape()

    tape = Tape()
    with tape:
        helper = threading.Thread(target=other)
        helper.start()
        assert in_no_grad.wait(10)
        ad.tsum(ad.mul(p, p))
        assert ad.active_tape() is tape
        main_done.set()
        helper.join(10)
        assert not helper.is_alive() and ad.active_tape() is tape
    assert seen == {"tape": None, "recorded": False, "inner": None}
    assert len(tape) == 2 and ad.active_tape() is None


def test_grad_accumulates_across_reuse():
    p = Parameter(np.array([2.0, 3.0]), name="p", dtype=np.float64)
    tape = Tape()
    with tape:
        loss = ad.tsum(ad.add(ad.mul(p, p), p))  # d/dp = 2p + 1
    backward(loss, tape)
    assert np.abs(p.grad - (2 * p.data + 1)).max() < 1e-12


def test_reused_intermediate_accumulates_in_tape_order():
    """An intermediate with three consumers: its gradient is summed in place
    in the order backward pops the consumers (last recorded first), and the
    leaf gradient equals that sum computed out of place."""
    rng = np.random.default_rng(2)
    pv = rng.standard_normal(50).astype(np.float32)
    c = rng.standard_normal(50).astype(np.float32)
    p = Parameter(pv, name="p", dtype=np.float32)
    tape = Tape()
    with tape:
        h = ad.mul(p, p)
        m = ad.add(ad.mul(h, ad.constant(c)), ad.scale(h, 3.0))
        loss = ad.tsum(ad.add(m, ad.relu(h)))
    backward(loss, tape)
    ones = np.ones(50, np.float32)
    gh = ones * (h.data > 0)  # relu, the last consumer recorded
    gh = gh + ones * np.float32(3.0)  # scale
    gh = gh + ones * c  # mul by c
    want = gh * pv
    want = want + gh * pv
    assert np.array_equal(p.grad, want)


def test_backward_consumes_the_tape_and_frees_what_it_walked():
    """A 30-op chain on a 1 MB leaf: once an op's backward has run, its
    output and gradient are freed, so backward allocates far less than the
    30 MB that keeping every intermediate gradient would."""
    leaf = Parameter(np.ones(2**18), name="leaf", dtype=np.float32)
    tape = Tape()
    with tape:
        y = leaf
        for _ in range(30):
            y = ad.scale(y, 1.0)
        loss = ad.tsum(y)
    del y
    tracemalloc.start()
    try:
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(tape) == 0
    assert np.array_equal(leaf.grad, np.ones(2**18, np.float32))


def test_backward_frees_an_ops_gradients_before_the_next_op_runs():
    """Three linears on one 3-d input, as attention's q/k/v projections are.
    While one linear's backward runs, backward holds that linear's output
    gradient and the gradients it returns, but no earlier op's: above the
    leaves' .grad arrays, the peak stays under two linears' returned
    gradients (dx, dw and db), where keeping one op's into the next reads
    2.5 of them."""
    rng = np.random.default_rng(0)
    b, n, d = 8, 25, 200  # dx and dw of one size, so keeping either shows
    returned = (b * n * d + d * d + d) * 4
    x = Parameter(rng.standard_normal((b, n, d)), name="x", dtype=np.float32)
    layers = [(Parameter(rng.standard_normal((d, d)), name=f"w{i}", dtype=np.float32),
               Parameter(np.zeros(d), name=f"b{i}", dtype=np.float32)) for i in range(3)]
    tape = Tape()
    with tape:
        ys = [ad.linear(x, w, bias) for w, bias in layers]
        loss = ad.tsum(ad.add(ad.add(ys[0], ys[1]), ys[2]))
    del ys
    tracemalloc.start()
    try:
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    leaves = sum(t.grad.nbytes for t in [x] + [p for layer in layers for p in layer])
    assert peak - leaves < 2 * returned


# Each op on a non-leaf input ``a``, with ``leaf(*shape)`` making its other
# inputs, and whether the watched array must outlive the caller's names on
# the tape: its backward reads it. The watched array is ``a``'s, and for
# softmax the op's own output.
_TAPE_KEEPS = {
    "add": ((3, 4), lambda a, leaf: ad.add(a, leaf(4)), False),
    "sub": ((3, 4), lambda a, leaf: ad.sub(leaf(3, 4), a), False),
    "scale": ((3, 4), lambda a, leaf: ad.scale(a, 0.5), False),
    "reshape": ((3, 4), lambda a, leaf: ad.reshape(a, (2, 6)), False),
    "transpose": ((2, 3, 4), lambda a, leaf: ad.transpose(a, (1, 0, 2)), False),
    "leading_rows": ((2, 5, 4), lambda a, leaf: ad.leading_rows(a, 3), False),
    "concat": ((3, 4), lambda a, leaf: ad.concat([a, leaf(3, 2)], axis=1), False),
    "relu": ((3, 4), lambda a, leaf: ad.relu(a), False),
    "leaky_relu": ((3, 4), lambda a, leaf: ad.leaky_relu(a), False),
    "dropout": ((3, 4), lambda a, leaf: ad.dropout(a, np.array([True, False, True, True]), 0.5),
                False),
    "layer_norm": ((3, 4), lambda a, leaf: ad.layer_norm(a, leaf(4), leaf(4)), False),
    "batch_norm_train": ((3, 4, 5), lambda a, leaf: ad.batch_norm(
        a, leaf(4), leaf(4), np.zeros(4, np.float32), np.ones(4, np.float32), True), False),
    "batch_norm_eval": ((3, 4, 5), lambda a, leaf: ad.batch_norm(
        a, leaf(4), leaf(4), np.zeros(4, np.float32), np.ones(4, np.float32), False), False),
    "conv1d": ((2, 3, 8), lambda a, leaf: ad.conv1d(a, leaf(4, 3, 3), leaf(4)), False),
    "max_pool1d": ((2, 3, 7), lambda a, leaf: ad.max_pool1d(a, 2), False),
    "tsum": ((3, 4), lambda a, leaf: ad.tsum(a, axis=0), False),
    "cross_entropy_loss": ((3, 4), lambda a, leaf: ad.cross_entropy_loss(a, [0, 3, 1]), False),
    "embedding_lookup": ((5, 4), lambda a, leaf: ad.embedding_lookup(a, [[4, 0], [4, 2]]),
                         False),
    "linear_x": ((2, 3, 4), lambda a, leaf: ad.linear(a, leaf(4, 5), leaf(5)), True),
    "matmul": ((3, 4), lambda a, leaf: ad.matmul(a, leaf(4, 2)), True),
    "mul": ((3, 4), lambda a, leaf: ad.mul(leaf(3, 4), a), True),
    "mul_by_constant": ((3, 4), lambda a, leaf: ad.mul(a, ad.constant(np.full(4, 0.5))),
                        False),
    "attention_q": ((2, 5, 4), lambda a, leaf: ad.attention(
        a, leaf(2, 5, 4), leaf(2, 5, 4), heads=2), True),
    "attention_k": ((2, 5, 4), lambda a, leaf: ad.attention(
        leaf(2, 5, 4), a, leaf(2, 5, 4), heads=2), True),
    "attention_v": ((2, 5, 4), lambda a, leaf: ad.attention(
        leaf(2, 5, 4), leaf(2, 5, 4), a, heads=2), True),
    "softmax_output": ((3, 4), lambda a, leaf: ad.softmax(a), True),
}


def _forward_then_backward(shape, build, watch_output, hold):
    """``build`` on a non-leaf input under a tape, times a random constant
    (a product by a constant keeps only the constant) and summed. Whether
    the watched array is alive once the caller has dropped every name but
    the loss's and the tape's, unless ``hold``; then the leaves'
    gradients."""
    rng = np.random.default_rng(4)
    leaves = []

    def leaf(*dims):
        leaves.append(Parameter(rng.standard_normal(dims), name=f"p{len(leaves)}",
                                dtype=np.float32))
        return leaves[-1]

    tape = Tape()
    with tape:
        a = ad.scale(leaf(*shape), 1.5)
        out = build(a, leaf)
        watched = weakref.ref((out if watch_output else a).data)
        weights = rng.standard_normal(out.shape).astype(np.float32)
        loss = ad.tsum(ad.mul(out, ad.constant(weights)))
    held = (a, out) if hold else ()
    del a, out
    alive = watched() is not None
    backward(loss, tape)
    del held
    return alive, [p.grad for p in leaves]


@pytest.mark.parametrize("op", sorted(_TAPE_KEEPS))
def test_the_tape_keeps_an_ops_input_only_if_its_backward_reads_it(op):
    """Once the caller drops its names, the tape keeps a non-leaf input's
    array only for a backward that reads it, and the gradients are those of
    a forward whose names were all held."""
    shape, build, read = _TAPE_KEEPS[op]
    watch_output = op == "softmax_output"
    alive, grads = _forward_then_backward(shape, build, watch_output, hold=False)
    assert alive == read
    _, want = _forward_then_backward(shape, build, watch_output, hold=True)
    assert all(np.array_equal(g, w) for g, w in zip(grads, want))


def test_second_backward_on_a_consumed_tape_raises():
    p = Parameter(np.array([2.0, 3.0]), name="p", dtype=np.float64)
    tape = Tape()
    with tape:
        loss = ad.tsum(ad.mul(p, p))
    backward(loss, tape)
    first = p.grad.copy()
    with pytest.raises(ValueError, match="consumed"):
        backward(loss, tape)
    assert np.array_equal(p.grad, first)


# ---------------------------------------------------------------------------
# Adam oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_adam_matches_oracle_on_quadratic(wd):
    w0 = np.array([1.5, -2.0, 0.5])
    p = Parameter(w0.copy(), name="w", dtype=np.float64)
    params = {"w": p}
    state = AdamState(learning_rate=0.1, weight_decay=wd)
    # independent replay of f(w) = sum(w^2), grad = 2w, for 10 steps
    lr, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
    w = w0.astype(np.float64).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t in range(1, 11):
        g = 2.0 * w + wd * w
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        w = w - lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
        p.grad = 2.0 * p.data
        adam_step(params, state)
        assert np.abs(p.data - w).max() < 1e-12
    assert state.step_count == 10


@pytest.mark.parametrize("lr", [1e-3, 0.5])
@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_float32_adam_within_tolerance_of_float64_moments(lr, wd):
    """Adam keeps m and v in the parameter's dtype and updates m, v and
    p.data in place. Against float64 moments with p rounded to float32 after
    each step, every float32 parameter stays within 1e-5 * lr plus one
    float32 spacing of the largest |p| over 10 steps."""
    rng = np.random.default_rng(7)
    p = Parameter(rng.standard_normal(1000), name="w", dtype=np.float32)
    data = p.data
    state = AdamState(learning_rate=lr, weight_decay=wd)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    w = p.data.copy()
    m = np.zeros(1000)
    v = np.zeros(1000)
    for t in range(1, 11):
        p.grad = (rng.standard_normal(1000) * 10.0 ** rng.uniform(-6, 2, 1000)).astype(np.float32)
        g = p.grad.astype(np.float64) + wd * w.astype(np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        step = lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
        w = (w - step).astype(np.float32)
        adam_step({"w": p}, state)
        assert p.data is data and p.data.dtype == np.float32
        assert np.abs(p.data - w).max() <= 1e-5 * lr + np.spacing(np.abs(w).max())
    assert state.m["w"].dtype == state.v["w"].dtype == np.float32


def test_adam_raises_when_a_float32_moment_overflows():
    p = Parameter(np.ones(3), name="enc.w", dtype=np.float32)
    p.grad = np.array([1.0, 1e30, 1.0], np.float32)  # finite, but g * g is not
    with pytest.raises(FloatingPointError, match="enc.w"):
        adam_step({"enc.w": p}, AdamState(learning_rate=0.1))
    assert np.array_equal(p.data, np.ones(3))


def test_adam_leaves_the_array_a_parameter_was_built_from_alone():
    """A Parameter built without a dtype copies its data, so the in-place
    update never writes into the caller's array."""
    a = np.ones(3)
    p = Parameter(a, name="w")
    p.grad = np.ones(3)
    adam_step({"w": p}, AdamState(learning_rate=0.1))
    assert np.array_equal(a, np.ones(3)) and not np.array_equal(p.data, a)


def test_adam_rejects_nonfinite_grad():
    p = Parameter(np.ones(2), name="w", dtype=np.float64)
    p.grad = np.array([1.0, np.nan])
    with pytest.raises(FloatingPointError, match="w"):
        adam_step({"w": p}, AdamState(learning_rate=0.1))


def _two_workers(monkeypatch):
    """Make ``blas.workers`` see two BLAS threads and two cores, whatever the
    host has."""
    monkeypatch.setattr(blas, "threads", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _two_adam_workers(monkeypatch):
    """Let ``adam_step`` cut any parameters into two runs on two workers."""
    _two_workers(monkeypatch)
    monkeypatch.setattr(optim, "RUN_BYTES", 1)


def test_map_in_threads_runs_every_item_and_raises_the_first_failure_in_item_order(
        monkeypatch):
    """Item 1 raises first and item 0 after it: items 2 and 3 still run, and
    the caller gets item 0's error once both threads have stopped."""
    _two_workers(monkeypatch)
    ran, item1_raised = [], threading.Event()

    def fn(i):
        ran.append(i)
        if i == 0:
            assert item1_raised.wait(10)
            raise KeyError("item 0")
        if i == 1:
            item1_raised.set()
            raise KeyError("item 1")

    with pytest.raises(KeyError, match="item 0"):
        blas.map_in_threads(fn, range(4))
    assert sorted(ran) == [0, 1, 2, 3]


def test_map_in_threads_returns_the_results_in_item_order(monkeypatch):
    """Item 0 finishes last, after item 3; the results are in item order."""
    _two_workers(monkeypatch)
    item3_done = threading.Event()

    def square(i):
        if i == 0:
            assert item3_done.wait(10)
        if i == 3:
            item3_done.set()
        return i * i

    assert blas.map_in_threads(square, range(4)) == [0, 1, 4, 9]


def _adam_params(sizes, seed=0):
    rng = np.random.default_rng(seed)
    params = {}
    for i, n in enumerate(sizes):
        p = Parameter(rng.standard_normal(n), name=f"p{i}", dtype=np.float32)
        p.grad = rng.standard_normal(n).astype(np.float32)
        params[p.name] = p
    return params


def test_adam_on_two_workers_keeps_the_bits_of_one(monkeypatch):
    one, two = _adam_params([5000, 7, 3000, 12000, 1]), _adam_params([5000, 7, 3000, 12000, 1])
    state1, state2 = AdamState(learning_rate=0.1, weight_decay=0.01), \
        AdamState(learning_rate=0.1, weight_decay=0.01)
    for _ in range(3):
        adam_step(one, state1)
    _two_adam_workers(monkeypatch)
    # the first update on the main thread and on a helper each wait for the
    # other, so a helper cannot take both runs before the main thread starts
    on_main, first_two = [], threading.Barrier(2, timeout=10)
    update = optim._adam_update

    def spy(*args):
        is_main = threading.current_thread() is threading.main_thread()
        if is_main not in on_main:
            on_main.append(is_main)
            first_two.wait()
        return update(*args)

    monkeypatch.setattr(optim, "_adam_update", spy)
    for _ in range(3):
        adam_step(two, state2)
    assert set(on_main) == {True, False}
    assert list(state2.m) == list(state1.m) == list(one)
    for name in one:
        assert np.array_equal(one[name].data, two[name].data)
        assert np.array_equal(state1.m[name], state2.m[name])
        assert np.array_equal(state1.v[name], state2.v[name])


def test_adam_on_two_workers_names_the_first_bad_parameter_in_dict_order(monkeypatch):
    """p1 ends the first worker's run, behind a large parameter; p2 starts
    the second's, so the second worker fails first. The error names p1, and
    p1 is left as it was."""
    params = _adam_params([200000, 3, 3, 200000])
    params["p1"].grad[1] = np.nan
    params["p2"].grad[0] = np.inf
    before = params["p1"].data.copy()
    _two_adam_workers(monkeypatch)
    with pytest.raises(FloatingPointError, match="'p1'"):
        adam_step(params, AdamState(learning_rate=0.1))
    assert np.array_equal(params["p1"].data, before)


def test_zero_grads():
    p = Parameter(np.ones(2), name="w", dtype=np.float64)
    p.grad = np.ones(2)
    zero_grads({"w": p})
    assert p.grad is None

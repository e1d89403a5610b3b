"""Minimal reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps an ndarray; differentiable operations record themselves on
the active ``Tape`` (a Wengert list). ``backward`` consumes the tape from the
end, visiting each recorded operation exactly once and accumulating gradients
additively, so a parameter used several times receives the sum of all its
contributions. An operation's output, its gradient and its backward closure
are released as soon as its own backward has run.

Only the operations needed by the DDI model are implemented. Training runs in
float32; float64 is available for gradient checking.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    """Dense n-dimensional real array with an optional gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named trainable tensor. Names are unique dotted paths within a model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name


class _TapeEntry:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed differentiable operations. ``backward``
    empties it, and a tape can be back-propagated only once."""

    def __init__(self):
        self.entries: list[_TapeEntry] = []
        self.consumed = False

    def __len__(self):
        return len(self.entries)

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


class _NoGrad:
    def __enter__(self):
        _TAPE_STACK.append(None)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Optional[Tape]] = []


def no_grad() -> _NoGrad:
    return _NoGrad()


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make(out_data, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    # The output keeps the array the op made: no op writes into its inputs
    # or into an output the tape keeps.
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        tape.entries.append(_TapeEntry(out, tuple(inputs), backward_fn))
    return out


def backward(loss: Tensor, tape: Tape):
    """Populate ``.grad`` on every leaf tensor, such as a parameter, that
    influenced a scalar loss.

    The tape is consumed: each entry is popped, back-propagated and dropped,
    so by the time an op's entry comes up every consumer of its output has
    already been popped, and the output, its gradient and the closure are
    freed right after. Afterwards the tape is empty and only leaves keep
    ``.grad``. A second call on the same tape raises ``ValueError``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if tape.consumed:
        raise ValueError("backward has already consumed this tape")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    entries = tape.entries
    while entries:
        entry = entries.pop()
        g = entry.output.grad
        if g is None:
            continue
        entry.output.grad = None
        # no name keeps the returned gradients alive into the next backward
        for inp, gi in zip(entry.inputs, entry.backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            if gi.shape != inp.data.shape:  # the op broadcast this input
                gi = _unbroadcast(gi, inp.data.shape)
            gi = np.asarray(gi, dtype=inp.data.dtype)
            if inp.grad is None:
                # a copy, so backward owns every .grad it adds into
                inp.grad = gi.copy()
            else:
                inp.grad += gi


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add_rows(M: np.ndarray, rows: np.ndarray, vals: np.ndarray):
    """``np.add.at(M, rows, vals)`` for a C-contiguous 2-d ``M`` and ``vals``
    of shape ``[len(rows), M.shape[1]]``, run on flat views.

    numpy's fast ``ufunc.at`` path takes only 1-d targets. Each element of
    ``M`` still receives its adds in the order of ``rows``, so the result is
    bit-identical to the 2-d call. Raises ``ValueError`` (``M`` unchanged)
    when ``M`` is not C-contiguous, since its flat view would be a copy.
    """
    d = M.shape[1]
    flat = M.reshape(-1, copy=False)
    idx = (rows[:, None] * d + np.arange(d)).reshape(-1)
    np.add.at(flat, idx, vals.reshape(-1))


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        return g, g

    return _make(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g):
        return g, -g

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        return g * b.data, g * a.data

    return _make(out, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def bwd(g):
        return (g * s,)

    return _make(out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ka = a.data.shape[-1]
    kb = b.data.shape[-2] if b.data.ndim > 1 else b.data.shape[0]
    if ka != kb:
        raise ShapeError(f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return _make(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one tape entry, so no product array is kept just to route
    gradients. x: [..., d_in], w: [d_in, d_out], b: [d_out]. Outputs and
    gradients are bit-identical to ``add(matmul(x, w), b)``. A ``b`` of a
    wider dtype than ``x @ w`` raises rather than being rounded."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear dimension mismatch: {x.data.shape} x {w.data.shape}")
    out = x.data @ w.data
    np.add(out, b.data, out=out, casting="safe")

    def bwd(g):
        return g @ np.swapaxes(w.data, -1, -2), np.swapaxes(x.data, -1, -2) @ g, g

    return _make(out, (x, w, b), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    ndim = a.data.ndim
    if axis is None:
        axes = tuple(range(ndim))
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % ndim for ax in axes)

    def bwd(g):
        g = np.asarray(g)
        if not keepdims:
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.data.shape),)

    return _make(np.asarray(out), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    out = a.data.transpose(axes)
    inv = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inv),)

    return _make(out, (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), bwd)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    out = np.maximum(a.data, 0)

    def bwd(g):
        return (g * keep,)

    return _make(out, (a,), bwd)


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    pos = a.data > 0
    out = np.where(pos, a.data, slope * a.data)

    def bwd(g):
        return (np.where(pos, g, slope * g),)

    return _make(out, (a,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if a.data.shape[axis] == 0:
        raise ShapeError("softmax over an empty axis")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None,
              heads: int = 1) -> Tensor:
    """Fused masked scaled-dot-product attention, softmax(q k^T / sqrt(d_k)) v,
    in each of ``heads`` heads.

    q, k: [..., n, heads * d_k]; v: [..., n, heads * d_v]. Head i reads, and
    writes its output and gradients to, its block of d columns through a
    [..., heads, n, d] view, so nothing is copied. mask: boolean [batch, n]
    key padding mask (True = real token) or None. Masked keys get a -1e9
    score bias; a sample with no real token gets all-zero output rows and
    zero gradients.

    The scores are built and normalised in place one segment at a time, and
    backward keeps only each segment's softmax weights. Without a mask the
    whole array is one segment over all n keys. With a mask each sample b
    that has a real token is a segment whose [..., n, kmax_b] buffer holds
    only its keys up to one past its last real one: the keys beyond would
    get weight exp(-1e9) = 0, and their rows of dk and dv stay zero. The
    query axis is never cut. Only the length of the row sums and matmul
    reductions changes, so against the same arithmetic over all n keys
    (scale -> bias add -> softmax -> row-zero multiply -> matmul as separate
    ops) outputs and gradients are bit-identical when there is no mask or
    every sample's last key is real, and otherwise differ by at most 1e-6
    (float32) or 1e-12 (float64) times max(1, the array's largest
    magnitude).
    """
    def by_head(a):  # [..., n, heads * d] -> a [..., heads, n, d] view
        return np.swapaxes(a.reshape(a.shape[:-1] + (heads, -1)), -2, -3)

    qh, kh, vh = by_head(q.data), by_head(k.data), by_head(v.data)
    c = 1.0 / math.sqrt(qh.shape[-1])
    if mask is None:
        segments = [(..., k.data.shape[-2])]
    else:
        last = mask.shape[-1] - np.argmax(mask[:, ::-1], axis=-1)
        segments = [(b, last[b]) for b in np.flatnonzero(mask.any(axis=-1))]
    out = np.zeros(q.data.shape[:-1] + v.data.shape[-1:], np.result_type(q.data, k.data, v.data))
    outh = by_head(out)
    kept = []
    for b, kn in segments:
        w = qh[b] @ np.swapaxes(kh[b][..., :kn, :], -1, -2)
        w *= c
        if mask is not None and not mask[b, :kn].all():  # adding 0.0 changes nothing
            w += np.where(mask[b, :kn], 0.0, -1e9).astype(w.dtype)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, vh[b][..., :kn, :], out=outh[b])
        kept.append((b, kn, w))

    def bwd(g):
        gh = by_head(g)
        dq, dk, dv = (np.zeros(t.data.shape, out.dtype) for t in (q, k, v))
        dqh, dkh, dvh = by_head(dq), by_head(dk), by_head(dv)
        for b, kn, w in kept:
            ds = gh[b] @ np.swapaxes(vh[b][..., :kn, :], -1, -2)
            ds -= (ds * w).sum(axis=-1, keepdims=True)
            ds *= w
            ds *= c
            np.matmul(ds, kh[b][..., :kn, :], out=dqh[b])
            dkh[b][..., :kn, :] = np.swapaxes(np.swapaxes(qh[b], -1, -2) @ ds, -1, -2)
            dvh[b][..., :kn, :] = np.swapaxes(w, -1, -2) @ gh[b]
        return dq, dk, dv

    return _make(out, (q, k, v), bwd)


def cross_entropy_loss(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer class targets under softmax(logits)."""
    targets = np.asarray(targets, dtype=np.int64)
    n, m = logits.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch {n}")
    if targets.min() < 0 or targets.max() >= m:
        raise IndexError(f"target class out of range [0, {m})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    loss = -log_probs[np.arange(n), targets].mean()

    def bwd(g):
        probs = np.exp(log_probs)
        probs[np.arange(n), targets] -= 1.0
        return (g * probs / n,)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer index; scatter-add on backward."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"index out of range for table of {table.data.shape[0]} rows")
    out = table.data[ids]

    def bwd(g):
        dt = np.zeros(table.data.shape, table.data.dtype)
        add_rows(dt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (dt,)

    return _make(out, (table,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis per position, then apply learnable gain/bias."""
    # The mean of the squared centred values is x.var's own arithmetic.
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    out = gain.data * xhat
    out += bias.data

    def bwd(g):
        gx = g * gain.data
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return dx, g * xhat, g

    return _make(out, (x, gain, bias), bwd)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Batch normalization over all axes except the channel axis.

    Channel axis is 1 for 3-d input [batch, channels, length] and the last
    axis for 2-d input [batch, features]. In training mode the running
    statistics are updated in place; in eval mode the op is a fixed affine map.
    """
    if x.data.ndim == 2:
        red_axes = (0,)
        cshape = (1, -1)
    elif x.data.ndim == 3:
        red_axes = (0, 2)
        cshape = (1, -1, 1)
    else:
        raise ShapeError(f"batch_norm expects 2-d or 3-d input, got {x.data.shape}")
    gam = gamma.data.reshape(cshape)
    bet = beta.data.reshape(cshape)
    if training:
        mu = x.data.mean(axis=red_axes, keepdims=True)
        var = x.data.var(axis=red_axes, keepdims=True)
        n = x.data.size // x.data.shape[1 if x.data.ndim == 3 else -1]
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.reshape(-1)
        running_var *= 1.0 - momentum
        # unbiased variance for the running estimate
        running_var += momentum * var.reshape(-1) * (n / max(n - 1, 1))
    else:
        mu = running_mean.reshape(cshape)
        var = running_var.reshape(cshape)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = gam * xhat + bet

    def bwd(g):
        dgamma = (g * xhat).sum(axis=red_axes)
        dbeta = g.sum(axis=red_axes)
        gx = g * gam
        if training:
            # the batch statistics depend on x; in eval mode they are constants
            gx = (gx - gx.mean(axis=red_axes, keepdims=True)
                  - xhat * (gx * xhat).mean(axis=red_axes, keepdims=True))
        return inv * gx, dgamma, dbeta

    return _make(out, (x, gamma, beta), bwd)


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 1-d convolution with zero "same" padding: (kernel - 1) // 2
    zeros on the left, the rest on the right.

    x: [batch, in_channels, length], w: [out_channels, in_channels, kernel],
    b: [out_channels]. Output length is length.

    The forward, ``dw`` and ``dx`` are one matrix product per tap over the
    whole batch: the samples lie end to end along one axis, each with its own
    zero padding, and an output column whose window straddles two samples is
    computed and dropped.
    """
    bsz, cin, length = x.data.shape
    cout, cin_w, kernel = w.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv1d channel mismatch: input {cin} vs kernel {cin_w}")
    pl = (kernel - 1) // 2
    span = length + kernel - 1
    n = bsz * span
    xp = np.zeros((cin, bsz + 1, span), x.data.dtype)  # a zero sample past the last
    xp[:, :bsz, pl:pl + length] = x.data.transpose(1, 0, 2)
    xf = xp.reshape(cin, -1)
    acc = w.data[:, :, 0] @ xf[:, :n]
    for k in range(1, kernel):
        acc += w.data[:, :, k] @ xf[:, k:k + n]
    out = np.empty((bsz, cout, length), np.result_type(acc, b.data))
    np.add(acc.reshape(cout, bsz, span)[:, :, :length].transpose(1, 0, 2),
           b.data[:, None], out=out)

    def bwd(g):
        gf = np.zeros((cout, bsz, span), g.dtype)
        gf[:, :, :length] = g.transpose(1, 0, 2)
        gf = gf.reshape(cout, n)
        dw = np.stack([gf @ xf[:, k:k + n].T for k in range(kernel)], axis=-1)
        db = g.sum(axis=(0, 2))
        dxf = np.zeros(xf.shape, x.data.dtype)
        # Tap k of output column j lands on padded input column j + k. Taps go in
        # descending k, the order in which an np.add.at scatter of the window
        # gradients accumulates, so the two agree bit for bit.
        for k in reversed(range(kernel)):
            dxf[:, k:k + n] += w.data[:, :, k].T @ gf
        return dxf.reshape(xp.shape)[:, :bsz, pl:pl + length].transpose(1, 0, 2), dw, db

    return _make(out, (x, w, b), bwd)


def max_pool1d(x: Tensor, stride: int) -> Tensor:
    """Max pooling over the last axis in non-overlapping windows of ``stride``,
    with ceil-mode right padding."""
    bsz, c, length = x.data.shape
    out_len = -(-length // stride)
    pad = out_len * stride - length
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, pad)), constant_values=-np.inf) if pad else x.data
    windows = xp.reshape(bsz, c, out_len, stride)
    arg = windows.argmax(axis=3)
    out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]

    def bwd(g):
        dxp = np.zeros(xp.shape, xp.dtype)
        np.put_along_axis(dxp.reshape(bsz, c, out_len, stride), arg[..., None],
                          g[..., None], axis=3)
        return (dxp[:, :, :length],)

    return _make(out, (x,), bwd)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    if not training or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = x.data * keep

    def bwd(g):
        return (g * keep,)

    return _make(out, (x,), bwd)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)

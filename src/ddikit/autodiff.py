"""Minimal reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps an ndarray; differentiable operations record themselves on
the calling thread's active ``Tape`` (a Wengert list). ``backward`` consumes
the tape from the end, visiting each recorded operation exactly once and
accumulating gradients additively, so a parameter used several times
receives the sum of all its contributions.

The tape keeps only what backward reads. Each entry holds a gradient node
for its op's output, a stand-in of the output's shape and dtype that owns no
array, and its inputs' nodes; leaves (parameters, constants) are kept as
themselves. A backward closure captures only the arrays it reads, so an op
output that no backward reads is freed as soon as the forward drops its
name, while the caller's ``Tensor`` keeps its data. The masks a backward
reads are kept at one bit an element (dropout's keep mask and relu's and
leaky_relu's sign masks, packed by ``np.packbits``) and max-pool's window
winners in one byte, and rebuilt with the same values in backward. A
layer norm's output is not kept for the linears it feeds: its node has a
``rebuild`` that runs the forward's ``gain * xhat + bias`` again from the
``xhat`` its own backward keeps, and a ``linear`` of that output, or of
its leading rows, keeps the rebuild instead and calls it in backward. An
entry's node, its gradient and its closure are released as soon as its
own backward has run.
``join_tiles`` runs one computation in tiles on several threads, each on a
tape of its own, and records them as one entry.

The DDI model records ``linear``, ``attention``, ``layer_norm``,
``batch_norm``, ``conv1d``, ``max_pool1d``, ``relu``, ``leaky_relu``,
``dropout``, ``embedding_lookup``, ``add``, ``reshape``, ``transpose``,
``concat``, ``leading_rows`` and ``join_tiles``, and its training
``cross_entropy_loss``; scoring takes ``softmax`` of the logits unrecorded.
Layer norm and batch norm share one normalization kernel. No model code
records ``sub``, ``mul``, ``scale``, ``matmul`` or ``tsum``: they are kept
as the composed ops that the attention reference in the tests, acceptance
criterion 1 and demo 02 are built from. Training runs in float32; float64
is available for gradient checking.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from . import blas


class ShapeError(ValueError):
    pass


class Tensor:
    """Dense n-dimensional real array with an optional gradient."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        # the _Node that stands for this tensor on a tape, if an op recorded it
        self.node: Optional[_Node] = None

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
        # astype copies, and without a dtype np.array does: the optimizer
        # updates .data in place, so it must not be an array the caller holds
        super().__init__(data if dtype is not None else np.array(data),
                         requires_grad=True, dtype=dtype)
        self.name = name


# The bytes every _Node's data views: a zero-stride array reads one item,
# and 16 bytes hold the widest.
_NO_DATA = bytes(16)


class _Node(Tensor):
    """A recorded op's output as the tape keeps it: its gradient, and a
    zero-stride, read-only ``data`` with the output's shape, dtype and
    ``nbytes`` that owns no memory. ``rebuild``, when not None, is a
    callable of no arguments that returns the output with the forward's
    bits from arrays the op's closure already keeps, so a consumer's
    backward can read the output without the tape keeping it."""

    __slots__ = ("rebuild",)

    def __init__(self, data: np.ndarray):
        self.data = np.ndarray(data.shape, data.dtype, buffer=_NO_DATA,
                               strides=(0,) * data.ndim)
        self.requires_grad = True
        self.grad = None
        self.node = None
        self.rebuild: Optional[Callable] = None


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
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.tapes.pop()
        return False


class _NoGrad:
    def __enter__(self):
        _TAPE_STACK.tapes.append(None)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.tapes.pop()
        return False


class _ThreadTapes(threading.local):
    """Each thread's stack of entered tapes, None for ``no_grad``. A thread
    starts with an empty stack, so it records only on a tape it entered."""

    def __init__(self):
        self.tapes: list[Optional[Tape]] = []


_TAPE_STACK = _ThreadTapes()


def no_grad() -> _NoGrad:
    return _NoGrad()


def active_tape() -> Optional[Tape]:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` goes on the tape, so its backward runs."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def _make(out_data, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    needs = _recording(inputs)
    # The output keeps the array the op made: no op writes into its inputs
    # or into an array a closure keeps.
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        out.node = _Node(out.data)
        active_tape().entries.append(
            _TapeEntry(out.node, tuple(t.node or t for t in inputs), backward_fn))
    return out


def backward(output: Tensor, tape: Tape, grad: Optional[np.ndarray] = None,
             into: Optional[dict] = None):
    """Populate ``.grad`` on every leaf tensor, such as a parameter, that
    influenced a scalar loss ``output``.

    With ``grad``, back-propagation starts from that gradient of ``output``,
    of its shape, instead of a scalar loss's 1. With ``into``, a dict, the
    gradient of each ``Parameter`` is added into ``into[parameter]`` instead
    of its ``.grad``, so threads that back-propagate their own tapes through
    the same parameters write nothing they share.

    The tape holds each recorded output as its gradient node, which owns no
    array, and each closure holds only the arrays it reads; so by the time
    backward runs, an op output that no backward reads is already freed.
    The tape is consumed: each entry is popped, back-propagated and dropped,
    so by the time an op's entry comes up every consumer of its output has
    already been popped, and the node, its gradient and the closure are
    freed right after. Afterwards the tape is empty and only leaves keep
    ``.grad``. A second call on the same tape raises ``ValueError``.
    """
    if grad is None:
        if output.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {output.data.shape}")
        grad = np.ones_like(output.data)
    elif grad.shape != output.data.shape:
        raise ShapeError(f"gradient of shape {grad.shape} for an output of shape "
                         f"{output.data.shape}")
    if tape.consumed:
        raise ValueError("backward has already consumed this tape")
    tape.consumed = True
    (output.node or output).grad = grad
    entries = tape.entries
    while entries:
        entry = entries.pop()
        g = entry.output.grad
        if g is None:
            continue
        # every consumer of the output has run, so nothing calls its rebuild
        entry.output.grad = entry.output.rebuild = None
        # no name keeps the returned gradients alive into the next backward
        for inp, gi in zip(entry.inputs, entry.backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            if gi.shape != inp.data.shape:  # the op broadcast this input
                gi = _unbroadcast(gi, inp.data.shape)
            gi = np.asarray(gi, dtype=inp.data.dtype)
            to_dict = into is not None and isinstance(inp, Parameter)
            held = into.get(inp) if to_dict else inp.grad
            if held is not None:
                held += gi
            elif to_dict:
                # a copy, so backward owns every gradient it adds into
                into[inp] = gi.copy()
            else:
                inp.grad = gi.copy()


def join_tiles(run, starts) -> Tensor:
    """``run(lo)`` for each tile start on the threads ``blas.map_in_threads``
    gives them, the outputs joined along axis 0 in tile order.

    Under a recording tape each tile records on a tape of its own, and the
    caller's tape gets one entry whose inputs are each tile's parameters, in
    tile order. Its backward back-propagates each tile's tape on the same
    workers, each into a gradient dict of its own, so no two threads write
    one ``.grad``, and returns the tiles' gradients in that order for
    ``backward``'s own loop to add, so the sums' bits do not depend on the
    number of workers. A parameter read inside the tiles must be read
    nowhere else: its gradient is then the tiles' sum alone, started at a
    copy of the first tile's. Once the outputs are joined, the entry keeps
    each tile's tape and its output's node, not the output's array."""
    if active_tape() is None:
        return concat(blas.map_in_threads(run, starts), axis=0)

    def recorded(lo):
        tape = Tape()
        with tape:
            out = run(lo)
        return tape, out, list(dict.fromkeys(inp for entry in tape.entries
                                             for inp in entry.inputs
                                             if isinstance(inp, Parameter)))

    tiles = blas.map_in_threads(recorded, starts)
    bounds = np.cumsum([0] + [len(out.data) for _, out, _ in tiles])
    joined = np.concatenate([out.data for _, out, _ in tiles])
    tiles = [(tape, out.node or out, params) for tape, out, params in tiles]

    def bwd(g):
        def tile_grads(i):
            tape, out, params = tiles[i]
            grads = {}
            backward(out, tape, g[bounds[i]:bounds[i + 1]], grads)
            return [grads.get(p) for p in params]

        return [gp for grads in blas.map_in_threads(tile_grads, range(len(tiles)))
                for gp in grads]

    return _make(joined, [p for _, _, params in tiles for p in params], bwd)


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
    # each input's gradient reads the other's array; a constant has none
    da_by = b.data if a.requires_grad else None
    db_by = a.data if b.requires_grad else None

    def bwd(g):
        return (None if da_by is None else g * da_by), (None if db_by is None else g * db_by)

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
        db = _weight_grad(a.data, g) if b.data.ndim == 2 else np.swapaxes(a.data, -1, -2) @ g
        return g @ np.swapaxes(b.data, -1, -2), db

    return _make(out, (a, b), bwd)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a 2-d ``w`` in ``x @ w`` with output gradient ``g``: one
    [d_in, rows] x [rows, d_out] product over all of x's leading axes, so a
    batch never makes a [batch, d_in, d_out] stack to be summed."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _rebuild_of(t: Tensor) -> Optional[Callable]:
    """The rebuild of ``t``'s recorded output, or None."""
    return t.node.rebuild if t.node is not None else None


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one tape entry, so no product array is kept just to route
    gradients. x: [..., d_in], w: [d_in, d_out], b: [d_out]. Outputs and
    gradients are bit-identical to ``add(matmul(x, w), b)``. A ``b`` of a
    wider dtype than ``x @ w`` raises rather than being rounded.

    When x is a recorded output with a rebuild, such as a layer norm's, the
    closure keeps the rebuild instead of x's array, and the weight gradient
    reads x as the rebuild returns it."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear dimension mismatch: {x.data.shape} x {w.data.shape}")
    out = x.data @ w.data
    np.add(out, b.data, out=out, casting="safe")
    rebuild = _rebuild_of(x)
    xd = x.data if rebuild is None else None

    def bwd(g):
        return (g @ np.swapaxes(w.data, -1, -2),
                _weight_grad(xd if rebuild is None else rebuild(), g), g)

    return _make(out, (x, w, b), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape
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
        return (np.broadcast_to(g, shape),)

    return _make(np.asarray(out), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    in_shape = a.data.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _make(out, (a,), bwd)


def leading_rows(a: Tensor, n: int) -> Tensor:
    """``a[:, :n]``, such as the first n positions of each sample of a
    [batch, length, d] array. The output is a view; the backward returns
    zeros for the rows past n. When ``a`` has a rebuild, so does the
    output: the same rows of it."""
    out = a.data[:, :n]
    shape = a.data.shape
    rb = _rebuild_of(a)

    def bwd(g):
        da = np.zeros(shape, g.dtype)
        da[:, :n] = g
        return (da,)

    y = _make(out, (a,), bwd)
    if rb is not None and y.node is not None:
        y.node.rebuild = lambda: rb()[:, :n]
    return y


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


def _pack(mask: np.ndarray):
    """A bool mask as a closure keeps it, one bit an element: the bytes of
    ``np.packbits`` and the mask's shape."""
    return np.packbits(mask, axis=None), mask.shape


def _unpack(packed) -> np.ndarray:
    """The bool mask ``_pack`` packed."""
    bits, shape = packed
    return np.unpackbits(bits, count=math.prod(shape)).reshape(shape).view(bool)


def relu(a: Tensor) -> Tensor:
    """max(a, 0). A recorded op keeps its mask of a > 0 at one bit an
    element."""
    keep = _pack(a.data > 0) if _recording((a,)) else None
    out = np.maximum(a.data, 0)

    def bwd(g):
        return (g * _unpack(keep),)

    return _make(out, (a,), bwd)


def leaky_relu(a: Tensor) -> Tensor:
    """a where a > 0, else 0.01 a. A recorded op keeps its mask of a > 0 at
    one bit an element."""
    pos = a.data > 0
    out = np.where(pos, a.data, 0.01 * a.data)
    keep = _pack(pos) if _recording((a,)) else None

    def bwd(g):
        return (np.where(_unpack(keep), g, 0.01 * g),)

    return _make(out, (a,), bwd)


def softmax(a: Tensor) -> Tensor:
    if a.data.shape[-1] == 0:
        raise ShapeError("softmax over an empty axis")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None,
              heads: int = 1) -> Tensor:
    """Fused masked scaled-dot-product attention, softmax(q k^T / sqrt(d_k)) v,
    in each of ``heads`` heads.

    q: [..., n_q, heads * d_k]; k: [..., n_k, heads * d_k]; v: [..., n_k,
    heads * d_v]. Queries may outnumber keys: a caller that knows every
    position past n_k is padding passes only the first n_k positions as keys
    and values. Head i reads, and writes its output and gradients to, its
    block of d columns through a [..., heads, n, d] view, so nothing is
    copied. mask: boolean [batch, n_k] key padding mask (True = real token)
    or None; any other mask shape, or k and v of different key counts,
    raises ``ShapeError``. Masked keys get a -1e9 score bias; a sample with
    no real token gets all-zero output rows and zero gradients.

    The scores are built and normalised in place one segment at a time.
    When the op is recorded for backward it keeps each segment's softmax
    weights; otherwise each segment's weights are freed before the next is
    built. Without a mask the whole array is one segment over all n_k keys.
    With a mask each sample b that has a real token is a segment whose
    [..., n_q, kmax_b] buffer holds only its keys up to one past its last
    real one: the keys beyond would get weight exp(-1e9) = 0, and their rows
    of dk and dv stay zero. The query axis is never cut. Only the length of
    the row sums and matmul reductions changes, so against the same
    arithmetic over all n_k keys (scale -> bias add -> softmax -> row-zero
    multiply -> matmul as separate ops) outputs and gradients are
    bit-identical when there is no mask or every sample's last key is real,
    and otherwise differ by at most 1e-6 (float32) or 1e-12 (float64) times
    max(1, the array's largest magnitude).
    """
    def by_head(a):  # [..., n, heads * d] -> a [..., heads, n, d] view
        return np.swapaxes(a.reshape(a.shape[:-1] + (heads, -1)), -2, -3)

    n_keys = k.data.shape[-2]
    if v.data.shape[-2] != n_keys:
        raise ShapeError(f"attention keys {k.data.shape} and values {v.data.shape} "
                         f"differ in key count")
    if mask is not None and (k.data.ndim < 3 or mask.shape != (k.data.shape[0], n_keys)):
        raise ShapeError(f"attention mask {mask.shape} is not [batch, n_keys] of keys "
                         f"{k.data.shape}")
    qh, kh, vh = by_head(q.data), by_head(k.data), by_head(v.data)
    c = 1.0 / math.sqrt(qh.shape[-1])
    if mask is None:
        segments = [(..., n_keys)]
    else:
        last = mask.shape[-1] - np.argmax(mask[:, ::-1], axis=-1)
        segments = [(b, last[b]) for b in np.flatnonzero(mask.any(axis=-1))]
    out = np.zeros(q.data.shape[:-1] + v.data.shape[-1:], np.result_type(q.data, k.data, v.data))
    outh = by_head(out)
    kept = [] if _recording((q, k, v)) else None
    for b, kn in segments:
        w = qh[b] @ np.swapaxes(kh[b][..., :kn, :], -1, -2)
        w *= c
        if mask is not None and not mask[b, :kn].all():  # adding 0.0 changes nothing
            w += np.where(mask[b, :kn], 0.0, -1e9).astype(w.dtype)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, vh[b][..., :kn, :], out=outh[b])
        if kept is not None:
            kept.append((b, kn, w))

    shapes, dtype = [t.data.shape for t in (q, k, v)], out.dtype

    def bwd(g):
        gh = by_head(g)
        dq, dk, dv = (np.zeros(shape, dtype) for shape in shapes)
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
    shape, dtype = table.data.shape, table.data.dtype

    def bwd(g):
        dt = np.zeros(shape, dtype)
        add_rows(dt, ids.reshape(-1), g.reshape(-1, shape[1]))
        return (dt,)

    return _make(out, (table,), bwd)


def _normalize(x: np.ndarray, axes):
    """x normalized over ``axes`` (eps 1e-5) in two arrays of x's size.

    The centred x is scaled in place by ``inv = 1 / sqrt(var + 1e-5)``,
    where var is the mean of its squares, ``x.var``'s own arithmetic, taken
    in a buffer the caller may reuse for its output. Returns xhat, inv, the
    mean, var and that buffer; the statistics keep the reduced axes."""
    mean = x.mean(axis=axes, keepdims=True)
    xhat = x - mean
    buf = np.square(xhat)
    var = buf.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    return xhat, inv, mean, var, buf


def _normalize_grad(gx: np.ndarray, xhat: np.ndarray, inv: np.ndarray, axes) -> np.ndarray:
    """Turn ``gx``, the gradient of ``_normalize``'s xhat, into x's in place:
    ``inv * ((gx - mean(gx)) - xhat * mean(gx * xhat))`` in that order.
    Returns the one other array of gx's size it worked in, for the caller
    to reuse."""
    spare = gx * xhat
    mean_gx_xhat = spare.mean(axis=axes, keepdims=True)
    gx -= gx.mean(axis=axes, keepdims=True)
    gx -= np.multiply(xhat, mean_gx_xhat, out=spare)
    gx *= inv
    return spare


def _affine(scale, shift, xhat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A norm's output ``scale * xhat + shift``, written into ``out``."""
    np.multiply(scale, xhat, out=out)
    out += shift
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis per position (eps 1e-5), then apply
    learnable gain/bias.

    A recorded op's output has a rebuild: ``gain * xhat + bias`` run again
    by the forward's own two ops, from the ``xhat`` its backward keeps and
    the gain and bias as they are when it is called, which is the forward's
    bits while the parameters are unchanged."""
    xhat, inv, _, _, buf = _normalize(x.data, -1)
    out = _affine(gain.data, bias.data, xhat, buf)

    def bwd(g):
        # two buffers: gx becomes dx, and the spare the gain's gradient
        gx = g * gain.data
        spare = _normalize_grad(gx, xhat, inv, -1)
        return gx, np.multiply(g, xhat, out=spare), g

    y = _make(out, (x, gain, bias), bwd)
    if y.node is not None:
        y.node.rebuild = lambda: _affine(gain.data, bias.data, xhat, np.empty_like(xhat))
    return y


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool) -> Tensor:
    """Batch normalization over all axes except the channel axis (eps 1e-5).

    Channel axis is 1 for 3-d input [batch, channels, length] and for 2-d
    input [batch, features]. Training mode normalizes with the batch's
    statistics through the kernel ``layer_norm`` runs over the last axis,
    here over the other axes, in two arrays of x's size forward and
    backward, and its output has x's dtype; the running statistics move
    0.1 toward the batch's in place. Eval mode is a fixed affine map of the
    running statistics, written into one buffer.
    """
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"batch_norm expects 2-d or 3-d input, got {x.data.shape}")
    # the statistics are taken over every axis but the channel axis, 1
    axes, cshape = ((0,), (1, -1)) if x.data.ndim == 2 else ((0, 2), (1, -1, 1))
    gam = gamma.data.reshape(cshape)
    if training:
        xhat, inv, mu, var, out = _normalize(x.data, axes)
        n = x.data.size // x.data.shape[1]
        running_mean *= 0.9
        running_mean += 0.1 * mu.reshape(-1)
        running_var *= 0.9
        # unbiased variance for the running estimate
        running_var += 0.1 * var.reshape(-1) * (n / max(n - 1, 1))
    else:
        inv = 1.0 / np.sqrt(running_var.reshape(cshape) + 1e-5)
        out = x.data - running_mean.reshape(cshape)
        xhat = out * inv  # out is then the output's buffer
    out = _affine(gam, beta.data.reshape(cshape), xhat, out)

    def bwd(g):
        gx = g * gam
        if training:
            spare = _normalize_grad(gx, xhat, inv, axes)
        else:  # the running statistics are constants
            gx *= inv
            spare = None
        return gx, np.multiply(g, xhat, out=spare).sum(axis=axes), g.sum(axis=axes)

    return _make(out, (x, gamma, beta), bwd)


# OpenBLAS's small-matrix sgemm/dgemm kernels round the last 1-8 columns of a
# 16-column block differently from a full block, so a product's column bits
# would depend on how many columns it has. Checked on OpenBLAS 0.3.31's
# SkylakeX kernels: with the column count rounded up to a multiple of 16,
# each column of a [m, k] x [k, n] product is equal for every n and at 1 or
# 2 BLAS threads, and so is each block of rows that starts on a multiple of
# 16 rows.
_CONV_COLUMN_BLOCK = 16
# A float32 conv whose forward takes at least this many multiply-adds runs
# its products on the workers in row blocks; a smaller one runs whole on the
# caller, as a fork-join costs 55-110 us. At d_model 256 and batch 4 the
# lengths 500 down to 63 split, and one sample of length 250 or more does.
# It also keeps every split product far above the sizes OpenBLAS gives its
# small-matrix kernels, whose last columns round by the size of the product.
_CONV_SPLIT_MACS = 40_000_000
# The most row blocks a split conv's products are cut into.
_CONV_ROW_BLOCKS = 2


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 1-d convolution with zero "same" padding: (kernel - 1) // 2
    zeros on the left, the rest on the right.

    x: [batch, in_channels, length], w: [out_channels, in_channels, kernel],
    b: [out_channels]. Output length is length.

    The forward, ``dw`` and ``dx`` are matrix products per tap over one
    array that lays the samples end to end, each with its own zero padding;
    an output column whose window straddles two samples is computed and
    dropped. The forward's products run over a multiple of
    ``_CONV_COLUMN_BLOCK`` columns, the tail past the last sample being
    zeros, so a sample's output keeps its bits whatever else is in the
    batch.

    A float32 conv of at least ``_CONV_SPLIT_MACS`` multiply-adds runs its
    products through ``blas.map_in_threads`` in up to ``_CONV_ROW_BLOCKS``
    row blocks, each over all of the batch's columns: the forward and
    ``dw`` in blocks of output channels, ``dx`` in blocks of input channels.
    Each block starts on a multiple of ``_CONV_COLUMN_BLOCK`` rows, so every
    element is computed by the same kernel block, and summed in the same
    order, as in one product: the bits do not change, and as the blocks do
    not depend on the number of workers, neither do they. A smaller conv
    runs whole on the caller, and so does a float64 conv: OpenBLAS's dgemm
    rounds some elements of ``dx`` in row blocks differently from one
    product (at x [4, 128, 125] and a kernel of 3, for one).
    """
    bsz, cin, length = x.data.shape
    cout, cin_w, kernel = w.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv1d channel mismatch: input {cin} vs kernel {cin_w}")
    block = _CONV_COLUMN_BLOCK
    pl = (kernel - 1) // 2
    span = length + kernel - 1
    n = bsz * span
    cols = -(-n // block) * block
    out = np.empty((bsz, cout, length), np.result_type(x.data, w.data, b.data))
    x_dtype = x.data.dtype
    split = out.dtype == np.float32 and cout * cin * kernel * cols >= _CONV_SPLIT_MACS
    run = blas.map_in_threads if split else (lambda fn, items: [fn(i) for i in items])
    xf = np.zeros((cin, cols + kernel - 1), x_dtype)
    xp = xf[:, :n].reshape(cin, bsz, span)
    xp[:, :, pl:pl + length] = x.data.transpose(1, 0, 2)

    def row_blocks(rows):
        # Blocks of a multiple of 16 rows, the last one the largest: numpy
        # takes a one-row product by another kernel.
        count = max(1, min(_CONV_ROW_BLOCKS if split else 1, rows // block))
        size = rows // count - rows // count % block
        edges = [i * size for i in range(count)] + [rows]
        return list(zip(edges, edges[1:]))

    def forward(r0, r1):
        acc = w.data[r0:r1, :, 0] @ xf[:, :cols]
        for k in range(1, kernel):
            acc += w.data[r0:r1, :, k] @ xf[:, k:cols + k]
        np.add(acc[:, :n].reshape(r1 - r0, bsz, span)[:, :, :length].transpose(1, 0, 2),
               b.data[r0:r1, None], out=out[:, r0:r1])

    run(lambda rows: forward(*rows), row_blocks(cout))

    def bwd(g):
        gf = np.zeros((cout, bsz, span), g.dtype)
        gf[:, :, :length] = g.transpose(1, 0, 2)
        gf = gf.reshape(cout, n)
        dw = np.empty((cout, cin, kernel), np.result_type(gf, xf))
        dxf = np.zeros((cin, n), x_dtype)

        def dw_rows(r0, r1):
            for k in range(kernel):
                dw[r0:r1, :, k] = gf[r0:r1] @ xf[:, k:k + n].T

        def dx_rows(r0, r1):
            # Tap k of output column j lands on padded input column j + k. Taps go
            # in descending k, the order in which an np.add.at scatter of the
            # window gradients accumulates, so the two agree bit for bit.
            for k in reversed(range(kernel)):
                dxf[r0:r1, k:] += (w.data[:, r0:r1, k].T @ gf)[:, :n - k]

        run(lambda job: job[0](*job[1]), [(dw_rows, rows) for rows in row_blocks(cout)]
            + [(dx_rows, rows) for rows in row_blocks(cin)])
        db = g.sum(axis=(0, 2))
        dx = dxf.reshape(xp.shape)[:, :, pl:pl + length].transpose(1, 0, 2)
        return dx, dw, db

    return _make(out, (x, w, b), bwd)


def max_pool1d(x: Tensor, stride: int) -> Tensor:
    """Max pooling over the last axis in non-overlapping windows of ``stride``,
    with ceil-mode right padding.

    Each window's maximum is a running ``np.maximum`` over the stride phases
    ``x[..., j::stride]``, keeping the earlier element on a tie (so a window
    of -0.0 and 0.0 gives the first) and propagating NaN. Only a recorded op
    finds each window's winner, which its backward routes the gradient to:
    the first phase equal to the maximum, a NaN counting as equal, which is
    the argmax over the -inf-padded windows. It keeps the winners in one
    byte for a stride up to 256.
    """
    bsz, c, length = x.data.shape
    dtype = x.data.dtype
    out_len = -(-length // stride)
    out = x.data[..., ::stride].copy()
    for j in range(1, stride):
        phase = x.data[..., j::stride]
        head = out[..., :phase.shape[-1]]  # a last window cut short lacks phase j
        np.maximum(phase, head, out=head)
    arg = None
    if _recording((x,)):
        # The winner is the count of leading phases that miss the maximum.
        # A last window cut short has its hit before the phases it lacks.
        arg = np.zeros(out.shape, np.min_scalar_type(stride - 1))
        miss = np.ones(out.shape, bool)
        for j in range(stride - 1):
            phase = x.data[..., j::stride]
            miss[..., :phase.shape[-1]] &= ((phase != out[..., :phase.shape[-1]])
                                            & ~np.isnan(phase))
            arg += miss

    def bwd(g):
        dxp = np.zeros((bsz, c, out_len, stride), dtype)
        np.put_along_axis(dxp, arg[..., None], g[..., None], axis=3)
        return (dxp.reshape(bsz, c, -1)[:, :, :length],)

    return _make(out, (x,), bwd)


def dropout_keep(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """A dropout keep mask: a bool array, False with probability p, one
    ``rng.random`` draw an element."""
    return rng.random(shape) >= p


def dropout(x: Tensor, keep: Optional[np.ndarray], p: float) -> Tensor:
    """x times ``keep / (1 - p)`` in x's dtype, for ``keep`` a mask drawn by
    ``dropout_keep`` with the same p (the trunk's tiles each draw their own
    rows of the batch's mask, see ``EncoderModel.trunk``); x itself when
    ``keep`` is None. A recorded op keeps the mask at one bit an element,
    and its backward rebuilds the same scaled mask from the bits."""
    if keep is None:
        return x
    dtype = x.data.dtype

    def scaled(mask):  # mask.astype(dtype) / (1 - p), cast and divided in one pass
        return np.divide(mask, 1.0 - p, dtype=dtype)

    out = x.data * scaled(keep)
    bits = _pack(keep) if _recording((x,)) else None

    def bwd(g):
        return (g * scaled(_unpack(bits)),)

    return _make(out, (x,), bwd)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)

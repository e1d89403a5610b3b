"""The DDI prediction network: embedding stack, encoder-only transformer,
residual 1-d conv feature extractor, KG self-attention branch, fusion MLPs
and the classifier head.

Defaults follow the training setup this repo reproduces: model width 256,
6 encoder layers with 8 heads, feedforward width 256, sequence length 500,
learned positional embeddings, and a KG pair vector of length 800 treated as
two 400-wide tokens inside the KG self-attention block.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad, blas
from .autodiff import Tensor, Parameter

# The trunk (embed -> encoder, and conv in eval) runs on tiles of samples
# whose [tile, max_len, d_model] activations fit this many bytes, one
# paper-size float32 sample, so each worker's elementwise passes stay in its
# core's L2 cache. The size does not depend on the number of workers, so
# neither do a tile's bits.
TILE_BYTES = 512 << 10


@dataclass
class ModelConfig:
    vocab_size: int
    n_classes: int
    d_model: int = 256
    n_layers: int = 6
    n_heads: int = 8
    d_ff: int = 256
    max_len: int = 500
    n_segments: int = 2
    kg_dim: int = 800
    kg_heads: int = 4
    conv_blocks: int = 8
    conv_kernel: int = 3
    pool_stride: int = 2
    mlp1_hidden: int = 512
    mlp1_out: int = 256
    mlp2_hidden: int = 512
    dropout: float = 0.1
    dtype: str = "float32"

    def __post_init__(self):
        for name, low in (("vocab_size", 1), ("n_classes", 1), ("d_model", 1), ("n_layers", 0),
                          ("n_heads", 1), ("d_ff", 1), ("max_len", 1), ("n_segments", 2),
                          ("kg_dim", 1), ("kg_heads", 1), ("conv_blocks", 0),
                          ("conv_kernel", 1), ("pool_stride", 1), ("mlp1_hidden", 1),
                          ("mlp1_out", 1), ("mlp2_hidden", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if self.kg_dim % 2 or (self.kg_dim // 2) % self.kg_heads:
            raise ValueError("kg_dim must be even and half divisible by kg_heads")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def conv_out_len(self) -> int:
        n = self.max_len
        for _ in range(self.conv_blocks):
            n = -(-n // self.pool_stride)
        return n

    def to_dict(self) -> dict:
        return asdict(self)


class ParamStore:
    """Flat registry of named parameters and non-trainable buffers."""

    def __init__(self, rng: np.random.Generator, dtype):
        self.rng = rng
        self.dtype = dtype
        self.params: dict[str, Parameter] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.nbytes = 0  # of the parameters built so far

    def param(self, name: str, shape, init: str = "normal", std: float = 0.02) -> Parameter:
        """A new parameter, drawn in float64 and cast to the store's dtype.
        Refuses, with ``ValueError``, one whose draw and cast, on top of the
        parameters built so far, take more than the machine's RAM: the peak
        of building the model, checked before it is reached."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        need = self.nbytes + math.prod(shape) * (8 + np.dtype(self.dtype).itemsize)
        ram = blas.ram_bytes()
        if ram is not None and need > ram:
            raise ValueError(f"building this model takes {need / 2**30:.1f} GiB at {name!r}, "
                             f"more than this machine's {ram / 2**30:.1f} GiB of RAM")
        if init == "normal":
            data = self.rng.normal(0.0, std, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ValueError(init)
        p = Parameter(data, name=name, dtype=self.dtype)
        self.params[name] = p
        self.nbytes += p.data.nbytes
        return p

    def buffer(self, name: str, data: np.ndarray) -> np.ndarray:
        if name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        arr = np.asarray(data, dtype=self.dtype)
        self.buffers[name] = arr
        return arr


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int):
        self.w = store.param(f"{name}.w", (d_in, d_out))
        self.b = store.param(f"{name}.b", (d_out,), init="zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, d: int):
        self.gain = store.param(f"{name}.gain", (d,), init="ones")
        self.bias = store.param(f"{name}.bias", (d,), init="zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class BatchNorm1d:
    def __init__(self, store: ParamStore, name: str, channels: int):
        self.gamma = store.param(f"{name}.gamma", (channels,), init="ones")
        self.beta = store.param(f"{name}.beta", (channels,), init="zeros")
        self.running_mean = store.buffer(f"{name}.running_mean", np.zeros(channels))
        self.running_var = store.buffer(f"{name}.running_var", np.ones(channels))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return ad.batch_norm(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training)


class Conv1d:
    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int,
                 kernel: int):
        std = 1.0 / math.sqrt(c_in * kernel)
        self.w = store.param(f"{name}.w", (c_out, c_in, kernel), std=std)
        self.b = store.param(f"{name}.b", (c_out,), init="zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.w, self.b)


class MultiHeadAttention:
    """h parallel attention heads over linear projections, concatenated and
    projected back to model width."""

    def __init__(self, store: ParamStore, name: str, d_model: int, n_heads: int):
        self.n_heads = n_heads
        self.w_q = Linear(store, f"{name}.w_q", d_model, d_model)
        self.w_k = Linear(store, f"{name}.w_k", d_model, d_model)
        self.w_v = Linear(store, f"{name}.w_v", d_model, d_model)
        self.w_o = Linear(store, f"{name}.w_o", d_model, d_model)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """x: [batch, n, d_model]; mask: boolean [batch, n_keys] key padding
        mask (n_keys <= n) or None. Keys and values are projected from the
        first n_keys positions of x only, all n without a mask, so every
        position past n_keys must be padding."""
        kv = x if mask is None else ad.leading_rows(x, mask.shape[1])
        return self.w_o(ad.attention(self.w_q(x), self.w_k(kv), self.w_v(kv), mask, self.n_heads))


class FeedForward:
    def __init__(self, store: ParamStore, name: str, d_model: int, d_ff: int):
        self.fc1 = Linear(store, f"{name}.fc1", d_model, d_ff)
        self.fc2 = Linear(store, f"{name}.fc2", d_ff, d_model)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.relu(self.fc1(x)))


class EncoderLayer:
    """Post-norm residual layer: x <- LN(x + MHA(x)); x <- LN(x + FFN(x))."""

    def __init__(self, store: ParamStore, name: str, cfg: ModelConfig):
        self.attn = MultiHeadAttention(store, f"{name}.attn", cfg.d_model, cfg.n_heads)
        self.norm1 = LayerNorm(store, f"{name}.norm1", cfg.d_model)
        self.ffn = FeedForward(store, f"{name}.ffn", cfg.d_model, cfg.d_ff)
        self.norm2 = LayerNorm(store, f"{name}.norm2", cfg.d_model)

    def __call__(self, x: Tensor, mask, keeps=(None, None)) -> Tensor:
        """keeps: the dropout keep masks after attention and after the
        feedforward, each None for no dropout."""
        a = ad.dropout(self.attn(x, mask), keep=keeps[0])
        x = self.norm1(ad.add(x, a))
        f = ad.dropout(self.ffn(x), keep=keeps[1])
        return self.norm2(ad.add(x, f))


class EmbeddingStack:
    """Sum of token, segment and learned positional embeddings."""

    def __init__(self, store: ParamStore, name: str, cfg: ModelConfig):
        self.token = store.param(f"{name}.token", (cfg.vocab_size, cfg.d_model))
        self.segment = store.param(f"{name}.segment", (cfg.n_segments, cfg.d_model))
        self.position = store.param(f"{name}.position", (cfg.max_len, cfg.d_model))

    def __call__(self, ids: np.ndarray, segment_ids: np.ndarray) -> Tensor:
        b, n = ids.shape
        tok = ad.embedding_lookup(self.token, ids)
        seg = ad.embedding_lookup(self.segment, segment_ids)
        pos = ad.embedding_lookup(self.position, np.broadcast_to(np.arange(n), (b, n)))
        return ad.add(ad.add(tok, seg), pos)


class Encoder:
    def __init__(self, store: ParamStore, name: str, cfg: ModelConfig):
        self.layers = [EncoderLayer(store, f"{name}.{i}", cfg) for i in range(cfg.n_layers)]

    def __call__(self, x: Tensor, mask, keeps=None) -> Tensor:
        """keeps: two dropout keep masks per layer, in layer order, as
        ``EncoderModel.trunk`` draws them; None for no dropout."""
        # Keys stop one past the batch's last real token, so no layer projects
        # keys or values for the all-padding tail. At least two stay: numpy
        # takes a one-row product by another kernel, whose rounding differs
        # from that of the same row in the product over every position.
        real = np.flatnonzero(mask.any(axis=0))
        span = real[-1] + 1 if len(real) else 0
        mask = mask[:, :max(span, 2)]
        for i, layer in enumerate(self.layers):
            x = layer(x, mask, (None, None) if keeps is None else keeps[2 * i:2 * i + 2])
        return x


class ConvBlock:
    """conv -> BN -> relu -> conv -> BN with a residual around the block."""

    def __init__(self, store: ParamStore, name: str, channels: int, kernel: int):
        self.conv1 = Conv1d(store, f"{name}.conv1", channels, channels, kernel)
        self.bn1 = BatchNorm1d(store, f"{name}.bn1", channels)
        self.conv2 = Conv1d(store, f"{name}.conv2", channels, channels, kernel)
        self.bn2 = BatchNorm1d(store, f"{name}.bn2", channels)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = ad.relu(self.bn1(self.conv1(x), training))
        h = self.bn2(self.conv2(h), training)
        return ad.add(x, h)


class ConvModule:
    """Stack of residual conv blocks with stride-2 max pooling between them;
    the sequence length halves (ceil) per block."""

    def __init__(self, store: ParamStore, name: str, cfg: ModelConfig):
        self.blocks = [ConvBlock(store, f"{name}.{i}", cfg.d_model, cfg.conv_kernel)
                       for i in range(cfg.conv_blocks)]
        self.pool_stride = cfg.pool_stride

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        # x: [batch, length, channels] -> [batch, channels, length]
        x = ad.transpose(x, (0, 2, 1))
        for block in self.blocks:
            x = ad.max_pool1d(block(x, training), self.pool_stride)
        b, c, n = x.shape
        return ad.reshape(x, (b, c * n))


class MlpModule:
    """linear -> batch norm -> leaky relu -> linear."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_hidden: int, d_out: int):
        self.fc1 = Linear(store, f"{name}.fc1", d_in, d_hidden)
        self.bn = BatchNorm1d(store, f"{name}.bn", d_hidden)
        self.fc2 = Linear(store, f"{name}.fc2", d_hidden, d_out)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return self.fc2(ad.leaky_relu(self.bn(self.fc1(x), training)))


class KgSelfAttention:
    """Self-attention over the two drug halves of the KG pair vector.

    The pair vector is reshaped to 2 tokens x (kg_dim/2), passed through one
    multi-head self-attention layer with residual + layer norm, and flattened
    back. No positional term, so the block is equivariant to swapping the
    two halves.
    """

    def __init__(self, store: ParamStore, name: str, cfg: ModelConfig):
        self.half = cfg.kg_dim // 2
        self.attn = MultiHeadAttention(store, f"{name}.attn", self.half, cfg.kg_heads)
        self.norm = LayerNorm(store, f"{name}.norm", self.half)

    def __call__(self, pair: Tensor) -> Tensor:
        b = pair.shape[0]
        tokens = ad.reshape(pair, (b, 2, self.half))
        out = self.norm(ad.add(tokens, self.attn(tokens)))
        return ad.reshape(out, (b, 2 * self.half))


class EncoderModel:
    """Embedding stack + transformer encoder shared by both models. Subclasses
    add their heads after this constructor, so ``embed.*`` and ``encoder.*``
    come first in parameter order and RNG draws and transfer 1:1."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.store = ParamStore(np.random.default_rng(seed), cfg.np_dtype)
        self.rng = np.random.default_rng(seed + 1)  # dropout stream
        self.embeddings = EmbeddingStack(self.store, "embed", cfg)
        self.encoder = Encoder(self.store, "encoder", cfg)
        self.training = True

    def parameters(self) -> dict[str, Parameter]:
        return self.store.params

    def buffers(self) -> dict[str, np.ndarray]:
        return self.store.buffers

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.store.params.values())

    def train(self):
        self.training = True

    def eval(self):
        self.training = False

    def tile(self) -> int:
        """Samples per trunk tile: as many as fit ``TILE_BYTES`` at [max_len,
        d_model] each, and at least one."""
        cfg = self.cfg
        sample_bytes = cfg.max_len * cfg.d_model * np.dtype(cfg.np_dtype).itemsize
        return max(1, TILE_BYTES // sample_bytes)

    def trunk(self, ids: np.ndarray, segment_ids: np.ndarray, mask: np.ndarray,
              tail=None) -> Tensor:
        """embed -> encoder and then ``tail`` over the batch in
        ``tile()``-sample tiles, the outputs joined in tile order.

        No sample's path through the trunk reads another sample, so each
        tile runs with its own key span and the outputs keep the bits of one
        pass over the batch. In training each tile draws its own rows of the
        2 x n_layers dropout keep masks. One pass would draw the masks one
        after another from ``self.rng``, one 64-bit output a float64, so row
        ``lo`` of mask ``m`` starts ``(m * batch + lo) * length * d_model``
        outputs in: the tile draws from a copy of the rng's bit generator
        advanced there (PCG's jump-ahead), and ``self.rng`` is advanced past
        all the masks. The masks and the rng's next draw are those of one
        pass. Every batch runs through ``autodiff.join_tiles`` on the threads
        ``blas.map_in_threads`` sizes, one tile too; the parameters the tiles
        read are read nowhere else, as its gradient sums ask."""
        cfg = self.cfg
        size = self.tile()
        row = ids.shape[1] * cfg.d_model  # draws a mask takes per sample
        dropped = self.training and cfg.dropout > 0
        if dropped:
            stream = copy.deepcopy(self.rng.bit_generator)
            self.rng.bit_generator.advance(2 * cfg.n_layers * len(ids) * row)

        def run(lo):
            rows = slice(lo, lo + size)
            keeps = None
            if dropped:
                shape = ids[rows].shape + (cfg.d_model,)
                bits = copy.deepcopy(stream)
                bits.advance(lo * row)
                draws = np.random.Generator(bits)
                keeps = []
                for _ in range(2 * cfg.n_layers):
                    keeps.append(ad.dropout_keep(shape, cfg.dropout, draws, cfg.np_dtype))
                    bits.advance((len(ids) - shape[0]) * row)
            out = self.encoder(self.embeddings(ids[rows], segment_ids[rows]), mask[rows], keeps)
            return out if tail is None else tail(out)

        return ad.join_tiles(run, range(0, len(ids), size))


class DdiModel(EncoderModel):
    """Full network: logits = MLP2(concat(MLP1(conv(encoder(embed(seq)))),
    kg_self_attention(pair_vec))). Softmax is applied by the loss/metrics
    layer, not here."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        super().__init__(cfg, seed)
        self.conv = ConvModule(self.store, "conv", cfg)
        conv_out = cfg.conv_out_len() * cfg.d_model
        self.mlp1 = MlpModule(self.store, "mlp1", conv_out, cfg.mlp1_hidden, cfg.mlp1_out)
        self.kg_attn = KgSelfAttention(self.store, "kg_attn", cfg)
        self.mlp2 = MlpModule(self.store, "mlp2", cfg.mlp1_out + cfg.kg_dim,
                              cfg.mlp2_hidden, cfg.n_classes)

    def forward(self, ids: np.ndarray, segment_ids: np.ndarray, mask: np.ndarray,
                pair_vec: np.ndarray) -> Tensor:
        """ids/segment_ids: int [batch, max_len]; mask: bool [batch, max_len];
        pair_vec: [batch, kg_dim]. Returns logits [batch, n_classes].

        The trunk runs in tiles (see ``trunk``): embed -> encoder in training
        and embed -> encoder -> conv in eval. In training conv runs on the
        calling thread over the joined batch, as batch norm needs the batch's
        statistics: its products run on the workers in row blocks (see
        ``autodiff.conv1d``), and batch norm on the caller. In eval a tile's
        conv runs its row blocks on the tile's thread.
        The head runs once on the whole batch, on the calling thread: its
        GEMMs round differently on fewer rows. Every product runs at one BLAS
        thread (see ``ddikit.blas``)."""
        if self.training:
            conv_feat = self.conv(self.trunk(ids, segment_ids, mask), True)
        else:
            conv_feat = self.trunk(ids, segment_ids, mask, lambda h: self.conv(h, False))
        seq_feat = self.mlp1(conv_feat, self.training)
        kg_feat = self.kg_attn(ad.constant(pair_vec, dtype=self.cfg.np_dtype))
        fused = ad.concat([seq_feat, kg_feat], axis=1)
        return self.mlp2(fused, self.training)


class PretrainModel(EncoderModel):
    """Embedding stack + encoder + token-prediction head for masked-token
    pretraining. Shares the architecture (and parameter names) of the main
    model's encoder so weights transfer 1:1."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        super().__init__(cfg, seed)
        self.lm_head = Linear(self.store, "lm_head", cfg.d_model, cfg.vocab_size)

    def masked_logits(self, ids, segment_ids, mask, flat_positions: np.ndarray) -> Tensor:
        """Logits only at the masked positions (flat indices into the
        flattened [batch * max_len] sequence)."""
        hidden = self.trunk(ids, segment_ids, mask)
        b, n, d = hidden.shape
        flat = ad.reshape(hidden, (b * n, d))
        picked = ad.embedding_lookup(flat, flat_positions)
        return self.lm_head(picked)


TRANSFER_PREFIXES = ("embed.", "encoder.")


def transfer_encoder_weights(src: PretrainModel, dst: DdiModel):
    """Copy pretrained embedding-stack and encoder weights into the main
    model; all other modules keep their fresh initialization."""
    sp, dp = src.parameters(), dst.parameters()
    names = [name for name in sp if name.startswith(TRANSFER_PREFIXES)]
    if set(names) != {name for name in dp if name.startswith(TRANSFER_PREFIXES)}:
        raise ValueError("the two models have different encoder layers")
    for name in names:
        if dp[name].data.shape != sp[name].data.shape:
            raise ValueError(f"shape mismatch transferring {name}")
        dp[name].data = sp[name].data.astype(dp[name].data.dtype).copy()

"""Knowledge-graph triples and translation-based (TransE) embedding training.

Triples come in as TSV ``head<TAB>relation<TAB>tail``. Training follows the
original TransE recipe: margin ranking loss against uniformly corrupted
triples, plain SGD, and entity vectors projected back onto the unit ball
after every update. Per-drug vectors for the model are the concatenation of
the two entity embeddings (zero vector for drugs absent from the graph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .atomic import read_arrays, read_rows, write_arrays, write_lines
from .autodiff import add_rows


# How a dataset drug id is named in the knowledge graph.
ID_TEMPLATE = "Compound::{id}"


class TripleError(ValueError):
    pass


@dataclass
class EntityIndex:
    entities: dict[str, int]
    relations: dict[str, int]


@dataclass
class TransEConfig:
    dim: int = 400
    margin: float = 1.0
    norm_p: int = 1  # 1 or 2
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 0.01
    negatives_per_positive: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "epochs", "batch_size", "negatives_per_positive"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("margin", "learning_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)!r}")
        if self.norm_p not in (1, 2):
            raise ValueError(f"norm_p must be 1 or 2, got {self.norm_p!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


@dataclass
class EmbeddingTable:
    entities: np.ndarray  # [num_entities, dim]
    relations: np.ndarray  # [num_relations, dim]
    index: EntityIndex

    @property
    def dim(self) -> int:
        return self.entities.shape[1]


def load_triples(path) -> tuple[np.ndarray, EntityIndex]:
    """Read a triples TSV into an int64 ``[n, 3]`` array of (head, relation,
    tail) ids, one row per distinct triple in order of first appearance.
    Entities and relations are indexed in sorted name order so the mapping
    is deterministic."""
    ents: dict[str, int] = {}
    rels: dict[str, int] = {}
    rows = ((ents.setdefault(h, len(ents)), rels.setdefault(r, len(rels)),
             ents.setdefault(t, len(ents)))
            for _, (h, r, t) in read_rows(path, 3, "head<TAB>relation<TAB>tail", TripleError))
    triples = np.fromiter(rows, dtype=np.dtype((np.int64, 3)))
    if not len(triples):
        raise TripleError(f"{path}: no triples")
    _, first = np.unique(triples, axis=0, return_index=True)
    triples = triples[np.sort(first)]
    index = EntityIndex({e: i for i, e in enumerate(sorted(ents))},
                        {r: i for i, r in enumerate(sorted(rels))})
    # first-seen id -> sorted-name id
    triples[:, [0, 2]] = np.array([index.entities[e] for e in ents])[triples[:, [0, 2]]]
    triples[:, 1] = np.array([index.relations[r] for r in rels])[triples[:, 1]]
    return triples, index


def init_table(index: EntityIndex, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    bound = 6.0 / np.sqrt(dim)
    ent = rng.uniform(-bound, bound, size=(len(index.entities), dim))
    rel = rng.uniform(-bound, bound, size=(len(index.relations), dim))
    rel /= np.maximum(np.linalg.norm(rel, axis=1, keepdims=True), 1e-12)
    return EmbeddingTable(ent, rel, index)


def transe_score(h: np.ndarray, r: np.ndarray, t: np.ndarray, p: int = 1) -> np.ndarray:
    """Translation distance ||h + r - t||_p; zero iff h + r == t."""
    h, r, t = np.asarray(h), np.asarray(r), np.asarray(t)
    if not (h.shape[-1] == r.shape[-1] == t.shape[-1]):
        raise TripleError(f"dimension mismatch: {h.shape} {r.shape} {t.shape}")
    d = h + r - t
    if p == 1:
        return np.abs(d).sum(axis=-1)
    return np.sqrt((d * d).sum(axis=-1))


def transe_train_step(batch: np.ndarray, table: EmbeddingTable, config: TransEConfig,
                      rng: np.random.Generator) -> float:
    """One SGD step on a batch of encoded triples; returns the batch loss.

    For each positive a corrupted triple is drawn by replacing the head or
    the tail (50/50) with a uniformly random entity. After the update every
    entity row with norm > 1 is projected back to the unit sphere.
    """
    n_ent = table.entities.shape[0]
    reps = config.negatives_per_positive
    pos = np.repeat(batch, reps, axis=0)
    neg = pos.copy()
    flip_head = rng.random(len(neg)) < 0.5
    repl = rng.integers(n_ent, size=len(neg))
    neg[flip_head, 0] = repl[flip_head]
    neg[~flip_head, 2] = repl[~flip_head]

    E, R = table.entities, table.relations
    dp = E[pos[:, 0]] + R[pos[:, 1]] - E[pos[:, 2]]
    dn = E[neg[:, 0]] + R[neg[:, 1]] - E[neg[:, 2]]
    if config.norm_p == 1:
        sp = np.abs(dp).sum(axis=1)
        sn = np.abs(dn).sum(axis=1)
        gp = np.sign(dp)
        gn = np.sign(dn)
    else:
        sp = np.sqrt((dp * dp).sum(axis=1))
        sn = np.sqrt((dn * dn).sum(axis=1))
        gp = dp / np.maximum(sp[:, None], 1e-12)
        gn = dn / np.maximum(sn[:, None], 1e-12)

    viol = config.margin + sp - sn
    active = viol > 0
    loss = float(viol[active].sum())
    if active.any():
        lr = config.learning_rate
        gp = gp[active] * lr
        gn = gn[active] * lr
        pa, na = pos[active], neg[active]
        add_rows(E, pa[:, 0], -gp)
        add_rows(E, pa[:, 2], gp)
        add_rows(R, pa[:, 1], -gp)
        add_rows(E, na[:, 0], gn)
        add_rows(E, na[:, 2], -gn)
        add_rows(R, na[:, 1], gn)
        touched = np.unique(np.concatenate([pa[:, 0], pa[:, 2], na[:, 0], na[:, 2]]))
        norms = np.linalg.norm(E[touched], axis=1)
        over = norms > 1.0
        E[touched[over]] /= norms[over][:, None]
    return loss


def train_transe(triples: np.ndarray, index: EntityIndex,
                 config: TransEConfig) -> tuple[EmbeddingTable, list[float]]:
    """Full training loop over the ``[n, 3]`` id array from ``load_triples``;
    returns the table and per-epoch total losses. FloatingPointError as soon
    as an epoch ends with a non-finite loss, entity or relation; ValueError,
    before drawing, if the measured float64 peak passes the machine's RAM:
    the tables plus the larger of an epoch end's (2 floats an entity for
    its norm and masks, rounded up, and a block of rows of up to 1 MiB with
    2 floats a row more) and a step's (10 [rows, dim] arrays, 32 floats of
    ids a row)."""
    n_ent, n_rel, dim = len(index.entities), len(index.relations), config.dim
    block = max(1, 2**17 // dim)  # the epoch end's rows at a time: 1 MiB of float64
    rows = min(config.batch_size, len(triples)) * config.negatives_per_positive
    epoch_end = 2 * n_ent + min(n_ent, block) * (dim + 2)
    need = 8 * (dim * (n_ent + n_rel) + max(epoch_end, rows * (10 * dim + 32)))
    ram = blas.ram_bytes()
    if ram is not None and need > ram:
        raise ValueError(f"training this TransE table takes {need / 2**30:.1f} GiB, "
                         f"more than this machine's {ram / 2**30:.1f} GiB of RAM")
    rng = np.random.default_rng(config.seed)
    table = init_table(index, config.dim, rng)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        for i in range(0, len(order), config.batch_size):
            batch = triples[order[i:i + config.batch_size]]
            total += transe_train_step(batch, table, config, rng)
        # safety net: renormalize all rows so the post-epoch invariant holds,
        # in place, with the norms taken over blocks of rows
        E = table.entities
        norms = np.empty(len(E))
        for lo in range(0, len(E), block):
            norms[lo:lo + block] = np.linalg.norm(E[lo:lo + block], axis=1)
        if not (math.isfinite(total) and np.isfinite(norms).all()
                and np.isfinite(table.relations).all()):
            raise FloatingPointError(f"TransE epoch {epoch}: non-finite loss, "
                                     f"entity or relation")
        over = norms > 1.0
        np.divide(E, norms[:, None], out=E, where=over[:, None])
        history.append(total)
    return table, history


@dataclass
class PairEmbedder:
    """Maps dataset drug ids to concatenated KG vectors of length 2*dim."""

    table: EmbeddingTable
    id_template: str = ID_TEMPLATE
    miss_count: int = field(default=0, init=False)
    hit_count: int = field(default=0, init=False)

    def entity_vector(self, drug_id: str) -> np.ndarray:
        key = self.id_template.format(id=drug_id)
        idx = self.table.index.entities.get(key)
        if idx is None:
            self.miss_count += 1
            return np.zeros(self.table.dim)
        self.hit_count += 1
        return self.table.entities[idx]

    def pair_embedding(self, drug_a: str, drug_b: str) -> np.ndarray:
        return np.concatenate([self.entity_vector(drug_a), self.entity_vector(drug_b)])

    @property
    def miss_rate(self) -> float:
        total = self.miss_count + self.hit_count
        return self.miss_count / total if total else 0.0


# ---------------------------------------------------------------------------
# export format: array file + sidecar text index
# ---------------------------------------------------------------------------

def save_table(table: EmbeddingTable, bin_path, index_path):
    """The table goes to an array file (see ``ddikit.atomic``) holding group
    ``kg``: float64 ``entities`` and ``relations``, one row each. The sidecar
    lists entity names then relation names, one per line, in row order."""
    kg = {"entities": table.entities, "relations": table.relations}
    write_arrays(bin_path, {"kg": {k: np.asarray(v, dtype=np.float64) for k, v in kg.items()}}, {})
    ents = sorted(table.index.entities, key=table.index.entities.get)
    rels = sorted(table.index.relations, key=table.index.relations.get)
    write_lines(index_path, [f"entities\t{len(ents)}", *ents, f"relations\t{len(rels)}", *rels])


def load_table(bin_path, index_path) -> EmbeddingTable:
    """Read a table written by ``save_table``; TripleError unless the array
    file holds only group ``kg``'s two float64 matrices of one width and the
    index lists that many distinct entities and relations."""
    _, groups = read_arrays(bin_path, TripleError)
    arrays = groups.get("kg", {})
    ent, rel = arrays.get("entities"), arrays.get("relations")
    if not (set(groups) == {"kg"} and set(arrays) == {"entities", "relations"}
            and ent.dtype == rel.dtype == np.float64 and ent.ndim == rel.ndim == 2
            and ent.shape[1] == rel.shape[1]):
        raise TripleError(f"{bin_path}: expected only kg entities and relations, "
                          f"2-d float64 arrays of one width")
    n_ent, n_rel = len(ent), len(rel)
    with open(index_path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if (lines[:1] != [f"entities\t{n_ent}"]
            or lines[1 + n_ent:2 + n_ent] != [f"relations\t{n_rel}"]
            or len(lines) != 2 + n_ent + n_rel):
        raise TripleError(f"{index_path}: does not list the {n_ent} entities and "
                          f"{n_rel} relations of {bin_path}")
    index = EntityIndex({e: i for i, e in enumerate(lines[1:1 + n_ent])},
                        {r: i for i, r in enumerate(lines[2 + n_ent:])})
    if len(index.entities) != n_ent or len(index.relations) != n_rel:
        raise TripleError(f"{index_path}: names an entity or relation twice")
    return EmbeddingTable(ent, rel, index)

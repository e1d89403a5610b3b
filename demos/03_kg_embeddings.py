"""Translation-based knowledge-graph embeddings on a toy graph.

Builds a two-cluster interaction graph, trains embeddings with margin
ranking loss, and shows that (a) true triples score better than corrupted
ones, (b) entity norms stay inside the unit ball, and (c) entities cluster
by their graph role.
"""

import os
import tempfile

import numpy as np

from ddikit import TransEConfig, load_triples, train_transe, transe_score


def build_graph() -> str:
    """Two families of drugs: A* interact with each other, B* with each
    other, and every drug targets its family's protein."""
    lines = []
    a = [f"Compound::A{i}" for i in range(5)]
    b = [f"Compound::B{i}" for i in range(5)]
    for fam, prot in ((a, "Protein::alpha"), (b, "Protein::beta")):
        for i, h in enumerate(fam):
            lines.append(f"{h}\ttargets\t{prot}")
            for t in fam[i + 1:]:
                lines.append(f"{h}\tinteracts\t{t}")
    return "\n".join(lines) + "\n"


def main():
    with tempfile.TemporaryDirectory(prefix="ddikit_demo_") as tmp:
        path = os.path.join(tmp, "kg.tsv")
        with open(path, "w") as fh:
            fh.write(build_graph())
        triples, index = load_triples(path)
    print(f"{len(triples)} triples, {len(index.entities)} entities, "
          f"{len(index.relations)} relations")

    cfg = TransEConfig(dim=16, epochs=200, batch_size=8, learning_rate=0.05,
                       margin=1.0, norm_p=1, seed=0)
    table, history = train_transe(triples, index, cfg)
    print(f"loss: epoch 0 = {history[0]:.2f}, final = {history[-1]:.2f}")

    # positive triples should outrank corrupted tails
    rng = np.random.default_rng(1)
    ent = table.entities
    rel = table.relations
    pos, neg = [], []
    for h, r, t in triples:
        fake = ent[rng.integers(len(ent))]
        pos.append(float(transe_score(ent[h], rel[r], ent[t], cfg.norm_p)))
        neg.append(float(transe_score(ent[h], rel[r], fake, cfg.norm_p)))
    print(f"mean score: positives {np.mean(pos):.3f} vs corrupted {np.mean(neg):.3f}"
          " (lower is better)")
    assert np.mean(pos) < np.mean(neg)

    norms = np.linalg.norm(ent, axis=1)
    print(f"max entity norm: {norms.max():.6f} (must be <= 1)")

    # same-family drugs should sit closer together than cross-family ones
    names = sorted(index.entities, key=index.entities.get)
    fam_a = [i for i, n in enumerate(names) if n.startswith("Compound::A")]
    fam_b = [i for i, n in enumerate(names) if n.startswith("Compound::B")]
    within = [np.linalg.norm(ent[i] - ent[j]) for i in fam_a for j in fam_a if i < j]
    across = [np.linalg.norm(ent[i] - ent[j]) for i in fam_a for j in fam_b]
    print(f"mean distance within family {np.mean(within):.3f}, "
          f"across families {np.mean(across):.3f}")
    assert np.mean(within) < np.mean(across)
    print("embeddings separate the two families: OK")


if __name__ == "__main__":
    main()

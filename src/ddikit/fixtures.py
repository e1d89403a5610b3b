"""Synthetic fixture generation: random molecules, DDI event tables and a
small knowledge graph, so the full pipeline and CI need no licensed data."""

from __future__ import annotations

import os

import numpy as np

from .atomic import write_lines
from .kg import ID_TEMPLATE
from .smiles import Atom, Bond, MolecularGraph, write_smiles

_ELEMENTS = ["C", "C", "C", "C", "N", "O", "O", "S", "F", "Cl", "Br"]
_ORDERS = ["single"] * 8 + ["double"] * 2 + ["triple"]


def random_molecule(rng: np.random.Generator, min_atoms: int = 3,
                    max_atoms: int = 14) -> MolecularGraph:
    """Random connected molecular graph: a tree plus an occasional ring edge,
    an occasional fused aromatic six-ring, and rare charged bracket atoms."""
    n = int(rng.integers(min_atoms, max_atoms + 1))
    atoms = []
    for _ in range(n):
        el = _ELEMENTS[rng.integers(len(_ELEMENTS))]
        if rng.random() < 0.05 and el in ("N", "O"):
            atoms.append(Atom(el, charge=int(rng.choice([-1, 1])), h_count=0, bracket=True))
        else:
            atoms.append(Atom(el))
    bonds = []
    for i in range(1, n):
        parent = int(rng.integers(i))
        order = _ORDERS[rng.integers(len(_ORDERS))]
        bonds.append(Bond(parent, i, order))
    # one extra ring edge between non-adjacent atoms, when possible
    if n >= 4 and rng.random() < 0.6:
        present = {(b.a, b.b) for b in bonds} | {(b.b, b.a) for b in bonds}
        for _ in range(8):
            a, b = rng.choice(n, size=2, replace=False)
            a, b = int(a), int(b)
            if (a, b) not in present:
                bonds.append(Bond(a, b, "single"))
                break
    g = MolecularGraph(atoms=atoms, bonds=bonds, components=[0] * n)
    if rng.random() < 0.35:
        base = len(g.atoms)
        for _ in range(6):
            g.atoms.append(Atom("C", aromatic=True))
            g.components.append(0)
        for k in range(6):
            g.bonds.append(Bond(base + k, base + (k + 1) % 6, "aromatic"))
        g.bonds.append(Bond(int(rng.integers(base)), base, "single"))
    return g


def random_smiles_corpus(n: int, rng: np.random.Generator, **kwargs) -> list[str]:
    return [write_smiles(random_molecule(rng, **kwargs), 0) for _ in range(n)]


def make_dataset_fixture(out_dir, n_drugs: int, n_events: int, n_classes: int,
                         seed: int = 0) -> dict[str, str]:
    """Write drugs.tsv / events.tsv / labels.txt / corpus.txt / kg.tsv under
    out_dir; event labels are a deterministic function of the pair so the
    task is learnable. Returns the path map. Raises ValueError unless
    n_events is between 1 and the number of distinct drug pairs, so that
    the event loop ends."""
    n_pairs = n_drugs * (n_drugs - 1) // 2
    if not 1 <= n_events <= n_pairs:
        raise ValueError(f"n_events must be in [1, {n_pairs}] for {n_drugs} drugs")
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    drug_ids = [f"D{i:04d}" for i in range(n_drugs)]
    smiles = random_smiles_corpus(n_drugs, rng)
    drugs_path = os.path.join(out_dir, "drugs.tsv")
    write_lines(drugs_path, (f"{d}\t{s}" for d, s in zip(drug_ids, smiles)))

    labels_path = os.path.join(out_dir, "labels.txt")
    write_lines(labels_path, (f"event_class_{c:02d}" for c in range(n_classes)))

    # latent per-drug class drives the label so the mapping is consistent
    drug_group = {d: int(rng.integers(n_classes)) for d in drug_ids}
    rows = {}  # unordered pair -> its events line, in drawing order
    while len(rows) < n_events:
        a, b = rng.choice(n_drugs, size=2, replace=False)
        a, b = drug_ids[int(a)], drug_ids[int(b)]
        key = (a, b) if a <= b else (b, a)
        if key not in rows:
            label = (drug_group[a] + drug_group[b]) % n_classes
            rows[key] = f"{a}\t{b}\tevent_class_{label:02d}"
    events_path = os.path.join(out_dir, "events.tsv")
    write_lines(events_path, rows.values())

    corpus_path = os.path.join(out_dir, "corpus.txt")
    write_lines(corpus_path, smiles + random_smiles_corpus(max(n_drugs // 2, 2), rng))

    kg_path = os.path.join(out_dir, "kg.tsv")
    genes = [f"Gene::G{i}" for i in range(max(n_drugs // 2, 4))]
    relations = ["targets", "binds", "upregulates"]
    triples = {}  # the distinct triples, in drawing order
    for d in drug_ids:
        for _ in range(3):
            gene = genes[int(rng.integers(len(genes)))]
            rel = relations[int(rng.integers(len(relations)))]
            triples[ID_TEMPLATE.format(id=d), rel, gene] = None
    write_lines(kg_path, map("\t".join, triples))

    return {"drugs": drugs_path, "events": events_path, "labels": labels_path,
            "corpus": corpus_path, "kg": kg_path}

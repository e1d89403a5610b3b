"""Drug/event table ingestion and split construction.

File formats:
  drugs.tsv   drug_id<TAB>smiles
  events.tsv  drug_a<TAB>drug_b<TAB>label_string
  labels.txt  one label string per line; line number = class index

Drug pairs are unordered for dedup and split membership: (a, b) and (b, a)
are the same pair, though the stored order is what gets encoded. The
inductive splits partition drugs first: an event is train when both drugs
are train drugs, U1 when exactly one is a test drug, U2 when both are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import read_rows
from .smiles import parse_smiles, tokenize, SmilesError


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class DrugRecord:
    drug_id: str
    smiles: str


@dataclass(frozen=True)
class DdiEvent:
    drug_a: str
    drug_b: str
    label: int


@dataclass
class SplitBundle:
    train: list[int]  # event indices
    folds: list[list[int]]  # 5 disjoint folds partitioning the train pool
    u1: list[int]
    u2: list[int]
    test_drugs: set[str]

    def to_json(self) -> str:
        return json.dumps({
            "train": self.train,
            "folds": self.folds,
            "u1": self.u1,
            "u2": self.u2,
            "test_drugs": sorted(self.test_drugs),
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SplitBundle":
        """Inverse of ``to_json``; DataError on bad JSON, a missing key, an
        event index that is not an int or a test drug that is not a string."""
        keys = ("train", "folds", "u1", "u2", "test_drugs")
        try:
            d = json.loads(text)
        except ValueError as exc:
            raise DataError(f"splits file is not JSON: {exc}") from exc
        if not isinstance(d, dict) or not all(k in d for k in keys):
            raise DataError(f"splits file must be a JSON object with keys {', '.join(keys)}")
        train, folds, u1, u2, test_drugs = (d[k] for k in keys)
        if not isinstance(folds, list):
            raise DataError("splits 'folds' is not a list")
        for name, items, kind in (("train", train, int), ("u1", u1, int), ("u2", u2, int),
                                  ("test_drugs", test_drugs, str),
                                  *(("folds", fold, int) for fold in folds)):
            if not isinstance(items, list) or any(type(x) is not kind for x in items):
                raise DataError(f"splits {name!r} is not a list of {kind.__name__}")
        return cls(train, folds, u1, u2, set(test_drugs))


def load_drugs(path) -> dict[str, DrugRecord]:
    drugs: dict[str, DrugRecord] = {}
    for lineno, (drug_id, smi) in read_rows(path, 2, "drug_id<TAB>smiles", DataError):
        if drug_id in drugs:
            raise DataError(f"{path}:{lineno}: duplicate drug_id {drug_id!r}")
        try:
            parse_smiles(smi)
        except SmilesError as exc:
            raise DataError(f"{path}:{lineno}: unparsable SMILES for {drug_id!r}: {exc}") from exc
        drugs[drug_id] = DrugRecord(drug_id, smi)
    if not drugs:
        raise DataError(f"{path}: no drugs")
    return drugs


def load_labels(path) -> dict[str, int]:
    labels = [lab for _, (lab,) in read_rows(path, 1, "one label per line", DataError)]
    if not labels:
        raise DataError(f"{path}: no labels")
    if len(set(labels)) != len(labels):
        raise DataError(f"{path}: duplicate label strings")
    return {lab: i for i, lab in enumerate(labels)}


def load_events(path, drugs: dict[str, DrugRecord], label_map: dict[str, int]) -> list[DdiEvent]:
    """Load, validate and deduplicate events; (a, b) and (b, a) with the same
    label collapse to the first occurrence, with conflicting labels rejected."""
    events: list[DdiEvent] = []
    seen: dict[tuple[str, str], tuple[int, int]] = {}
    for lineno, (a, b, lab) in read_rows(path, 3, "drug_a<TAB>drug_b<TAB>label", DataError):
        for d in (a, b):
            if d not in drugs:
                raise DataError(f"{path}:{lineno}: unknown drug {d!r}")
        if lab not in label_map:
            raise DataError(f"{path}:{lineno}: label {lab!r} not in label file")
        label = label_map[lab]
        key = (a, b) if a <= b else (b, a)
        if key in seen:
            prev_line, prev_label = seen[key]
            if prev_label != label:
                raise DataError(
                    f"{path}:{lineno}: pair ({a}, {b}) conflicts with line {prev_line}")
            continue
        seen[key] = (lineno, label)
        events.append(DdiEvent(a, b, label))
    if not events:
        raise DataError(f"{path}: no events")
    return events


def load_dataset(drugs_path, events_path, labels_path):
    drugs = load_drugs(drugs_path)
    label_map = load_labels(labels_path)
    events = load_events(events_path, drugs, label_map)
    return drugs, events, label_map


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def kfold(indices: list[int], k: int, rng: np.random.Generator) -> list[list[int]]:
    """Random partition into k folds with sizes differing by at most 1."""
    order = list(np.asarray(indices)[rng.permutation(len(indices))])
    folds = [sorted(int(x) for x in order[i::k]) for i in range(k)]
    return folds


def make_inductive_splits(events: list[DdiEvent], drugs: dict[str, DrugRecord],
                          test_drug_fraction: float, rng: np.random.Generator,
                          n_folds: int = 5) -> SplitBundle:
    """Partition drugs into train/test, then classify each event by how many
    of its drugs are test drugs (0 -> train pool, 1 -> U1, 2 -> U2)."""
    if not 0 <= test_drug_fraction < 1:
        raise DataError("test_drug_fraction must be in [0, 1)")
    drug_ids = sorted(drugs)
    n_test = int(round(test_drug_fraction * len(drug_ids)))
    perm = rng.permutation(len(drug_ids))
    test_drugs = {drug_ids[i] for i in perm[:n_test]}
    train, u1, u2 = [], [], []
    for i, ev in enumerate(events):
        hits = (ev.drug_a in test_drugs) + (ev.drug_b in test_drugs)
        (train, u1, u2)[hits].append(i)
    if test_drug_fraction > 0 and (not train or not u1):
        raise DataError("a split came out empty; adjust test_drug_fraction")
    folds = kfold(train, n_folds, rng)
    return SplitBundle(train=train, folds=folds, u1=u1, u2=u2, test_drugs=test_drugs)


def verify_split(bundle: SplitBundle, events: list[DdiEvent]):
    """Exhaustively check the split invariants; raises DataError on violation."""
    seen = set()
    for i in bundle.train + bundle.u1 + bundle.u2:
        if not 0 <= i < len(events):
            raise DataError(f"event index {i} outside [0, {len(events)})")
        if i in seen:  # within one split or across two
            raise DataError(f"event index {i} appears twice in train, u1 and u2")
        seen.add(i)
    for i in bundle.train:
        ev = events[i]
        if ev.drug_a in bundle.test_drugs or ev.drug_b in bundle.test_drugs:
            raise DataError(f"train event {i} touches a test drug")
    for i in bundle.u1:
        ev = events[i]
        if (ev.drug_a in bundle.test_drugs) + (ev.drug_b in bundle.test_drugs) != 1:
            raise DataError(f"U1 event {i} does not have exactly one test drug")
    for i in bundle.u2:
        ev = events[i]
        if not (ev.drug_a in bundle.test_drugs and ev.drug_b in bundle.test_drugs):
            raise DataError(f"U2 event {i} has a train drug")
    flat = sorted(x for fold in bundle.folds for x in fold)
    if flat != sorted(bundle.train):
        raise DataError("folds do not partition the train pool")
    sizes = [len(f) for f in bundle.folds]
    if sizes and max(sizes) - min(sizes) > 1:
        raise DataError("fold size skew exceeds 1")


# ---------------------------------------------------------------------------
# shrinking-training-set series
# ---------------------------------------------------------------------------

def stratified_keep(indices: list[int], labels_of, keep_fraction: float,
                    rng: np.random.Generator) -> list[int]:
    """Keep ``keep_fraction`` of indices, stratified by class with
    largest-remainder rounding. Classes too small to split ride along whole."""
    by_class: dict[int, list[int]] = {}
    for i in indices:
        by_class.setdefault(labels_of(i), []).append(i)
    total_keep = int(round(keep_fraction * len(indices)))
    quotas = {}
    floors = {}
    remainders = []
    for c, members in by_class.items():
        exact = keep_fraction * len(members)
        floors[c] = int(exact)
        remainders.append((-(exact - int(exact)), c))
    assigned = sum(floors.values())
    remainders.sort()
    extra = total_keep - assigned
    for _, c in remainders:
        quotas[c] = floors[c]
    for _, c in remainders[:max(extra, 0)]:
        quotas[c] += 1
    kept = []
    for c, members in by_class.items():
        q = min(max(quotas[c], 1), len(members))  # never drop a class entirely
        picked = rng.permutation(len(members))[:q]
        kept.extend(members[j] for j in picked)
    return sorted(kept)


def sts_series(train_indices: list[int], events: list[DdiEvent],
               rng: np.random.Generator, min_class_count: int = 5,
               stop_fraction: float = 0.075, shrink: float = 0.9) -> list[list[int]]:
    """Shrinking training sets: drop classes with < min_class_count samples,
    then repeatedly keep a stratified 90% until the size falls to
    stop_fraction of the start. Returns the full series including step 0."""
    counts: dict[int, int] = {}
    for i in train_indices:
        counts[events[i].label] = counts.get(events[i].label, 0) + 1
    keep_classes = {c for c, n in counts.items() if n >= min_class_count}
    current = [i for i in train_indices if events[i].label in keep_classes]
    if not current:
        raise DataError(f"no classes with >= {min_class_count} train samples")
    series = [current]
    start = len(current)
    while len(current) > stop_fraction * start:
        nxt = stratified_keep(current, lambda i: events[i].label, shrink, rng)
        if len(nxt) >= len(current):
            break  # rounding fixed point on tiny sets; no further progress
        current = nxt
        series.append(current)
    return series


# ---------------------------------------------------------------------------
# sequence-length bins
# ---------------------------------------------------------------------------

def seqlen_bins(event_indices: list[int], events: list[DdiEvent],
                drugs: dict[str, DrugRecord], bin_width: int,
                max_len: int = 500) -> dict[int, list[int]]:
    """Bin events by real-token count of the encoded pair (before padding).
    Key is the bin lower edge; bins partition the event set."""
    if bin_width <= 0:
        raise DataError("bin_width must be positive")
    bins: dict[int, list[int]] = {}
    for i in event_indices:
        ev = events[i]
        n = len(tokenize(drugs[ev.drug_a].smiles)) + 1 + len(tokenize(drugs[ev.drug_b].smiles))
        n = min(n, max_len)
        lo = (n // bin_width) * bin_width
        bins.setdefault(lo, []).append(i)
    return bins

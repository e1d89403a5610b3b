"""Dataset ingestion, split invariants, shrinking-series arithmetic, and
sequence-length binning."""

import numpy as np
import pytest

from ddikit.data import (DataError, DdiEvent, DrugRecord, SplitBundle, kfold,
                         load_dataset, load_drugs, load_events, load_labels,
                         make_inductive_splits, seqlen_bins, stratified_keep,
                         sts_series, verify_split)
from ddikit.fixtures import make_dataset_fixture
from ddikit.smiles import tokenize


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_drugs_validates(tmp_path):
    p = write(tmp_path / "d.tsv", "D1\tCCO\nD2\tc1ccccc1\n")
    drugs = load_drugs(p)
    assert set(drugs) == {"D1", "D2"}
    with pytest.raises(DataError, match=":2.*duplicate"):
        load_drugs(write(tmp_path / "dup.tsv", "D1\tCCO\nD1\tCC\n"))
    with pytest.raises(DataError, match="unparsable"):
        load_drugs(write(tmp_path / "bad.tsv", "D1\tC(C\n"))
    with pytest.raises(DataError, match=":1"):
        load_drugs(write(tmp_path / "cols.tsv", "D1 CCO\n"))


def test_load_labels(tmp_path):
    p = write(tmp_path / "l.txt", "increase\ndecrease\n")
    assert load_labels(p) == {"increase": 0, "decrease": 1}
    with pytest.raises(DataError):
        load_labels(write(tmp_path / "dup.txt", "a\na\n"))
    # no events row can name a label that holds a tab
    with pytest.raises(DataError, match=":2: expected"):
        load_labels(write(tmp_path / "tab.txt", "a\nb\tc\n"))


def make_world(tmp_path):
    drugs = write(tmp_path / "d.tsv", "A\tCCO\nB\tCC\nC\tCCN\nD\tCCCN\n")
    labels = write(tmp_path / "l.txt", "x\ny\n")
    return load_drugs(drugs), load_labels(labels)


def test_load_events_dedup_unordered(tmp_path):
    drugs, label_map = make_world(tmp_path)
    p = write(tmp_path / "e.tsv", "A\tB\tx\nB\tA\tx\nC\tD\ty\n")
    events = load_events(p, drugs, label_map)
    assert len(events) == 2
    assert events[0] == DdiEvent("A", "B", 0)


def test_load_events_conflicting_label_names_both_lines(tmp_path):
    drugs, label_map = make_world(tmp_path)
    p = write(tmp_path / "e.tsv", "A\tB\tx\nB\tA\ty\n")
    with pytest.raises(DataError, match=r":2.*line 1"):
        load_events(p, drugs, label_map)


def test_load_events_unknown_drug_or_label(tmp_path):
    drugs, label_map = make_world(tmp_path)
    with pytest.raises(DataError, match="unknown drug"):
        load_events(write(tmp_path / "e1.tsv", "A\tZ\tx\n"), drugs, label_map)
    with pytest.raises(DataError, match="label"):
        load_events(write(tmp_path / "e2.tsv", "A\tB\tz\n"), drugs, label_map)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_inductive_split_enumerated_example():
    """Drugs {A,B,C,D}, test drug D. Events AB, AD, CD, AC must land in
    train={AB,AC}, U1={AD,CD}, U2={}."""
    drugs = {d: DrugRecord(d, "C") for d in "ABCD"}
    events = [DdiEvent("A", "B", 0), DdiEvent("A", "D", 0),
              DdiEvent("C", "D", 1), DdiEvent("A", "C", 1)]
    bundle = SplitBundle(train=[], folds=[], u1=[], u2=[], test_drugs={"D"})
    for i, ev in enumerate(events):
        hits = (ev.drug_a in bundle.test_drugs) + (ev.drug_b in bundle.test_drugs)
        (bundle.train, bundle.u1, bundle.u2)[hits].append(i)
    assert bundle.train == [0, 3]
    assert bundle.u1 == [1, 2]
    assert bundle.u2 == []
    bundle.folds = kfold(bundle.train, 2, np.random.default_rng(0))
    verify_split(bundle, events)


@pytest.mark.parametrize("seed", range(10))
def test_inductive_split_invariants_on_random_fixtures(seed, tmp_path):
    paths = make_dataset_fixture(tmp_path / f"f{seed}", n_drugs=20,
                                 n_events=80, n_classes=4, seed=seed)
    drugs, events, _ = load_dataset(paths["drugs"], paths["events"], paths["labels"])
    rng = np.random.default_rng(seed)
    bundle = make_inductive_splits(events, drugs, 0.25, rng)
    verify_split(bundle, events)
    assert len(bundle.train) + len(bundle.u1) + len(bundle.u2) == len(events)
    # U2 events touch only test drugs; exhaustive re-check from scratch
    for i in bundle.u2:
        assert events[i].drug_a in bundle.test_drugs
        assert events[i].drug_b in bundle.test_drugs


def test_kfold_partition_and_skew():
    rng = np.random.default_rng(0)
    for n in (10, 11, 13, 99):
        folds = kfold(list(range(n)), 5, rng)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(x for f in folds for x in f) == list(range(n))


def test_kfold_deterministic_under_seed():
    a = kfold(list(range(30)), 5, np.random.default_rng(7))
    b = kfold(list(range(30)), 5, np.random.default_rng(7))
    assert a == b


def test_verify_split_catches_violations():
    drugs = {d: DrugRecord(d, "C") for d in "ABCD"}
    events = [DdiEvent("A", "B", 0), DdiEvent("A", "D", 0)]
    bad = SplitBundle(train=[0, 1], folds=[[0], [1]], u1=[], u2=[],
                      test_drugs={"D"})
    with pytest.raises(DataError, match="test drug"):
        verify_split(bad, events)


def test_verify_split_accepts_an_empty_train_pool():
    events = [DdiEvent("A", "D", 0)]
    verify_split(SplitBundle(train=[], folds=[], u1=[0], u2=[], test_drugs={"D"}), events)


def test_verify_split_rejects_indices_outside_the_event_table():
    events = [DdiEvent("A", "B", 0), DdiEvent("A", "D", 0)]
    for u1 in ([2], [-1]):
        bad = SplitBundle(train=[0], folds=[[0]], u1=u1, u2=[], test_drugs={"D"})
        with pytest.raises(DataError, match="outside"):
            verify_split(bad, events)


@pytest.mark.parametrize("train,folds,u1", [
    ([0], [[0]], [1, 1]),   # twice in one split: the split's events would count twice
    ([0, 1], [[0], [1]], [1]),   # in two splits
    ([0, 0], [[0], [0]], [1]),   # twice in train, so in two folds
], ids=["within-u1", "train-and-u1", "within-train"])
def test_verify_split_rejects_a_repeated_index(train, folds, u1):
    events = [DdiEvent("A", "B", 0), DdiEvent("A", "D", 0)]
    bad = SplitBundle(train=train, folds=folds, u1=u1, u2=[], test_drugs={"D"})
    with pytest.raises(DataError, match="twice"):
        verify_split(bad, events)


def test_split_bundle_json_roundtrip():
    b = SplitBundle(train=[0, 2], folds=[[0], [2]], u1=[1], u2=[],
                    test_drugs={"D", "E"})
    c = SplitBundle.from_json(b.to_json())
    assert c.train == b.train and c.folds == b.folds
    assert c.u1 == b.u1 and c.u2 == b.u2 and c.test_drugs == b.test_drugs


# ---------------------------------------------------------------------------
# shrinking series
# ---------------------------------------------------------------------------

def test_stratified_keep_quota_arithmetic():
    events = [DdiEvent("A", "B", i % 2) for i in range(20)]
    rng = np.random.default_rng(0)
    kept = stratified_keep(list(range(20)), lambda i: events[i].label, 0.9, rng)
    assert len(kept) == 18
    per_class = [sum(1 for i in kept if events[i].label == c) for c in (0, 1)]
    assert per_class == [9, 9]


def test_stratified_keep_never_drops_a_class():
    events = [DdiEvent("A", "B", 0)] * 50 + [DdiEvent("A", "B", 1)]
    rng = np.random.default_rng(0)
    kept = stratified_keep(list(range(51)), lambda i: events[i].label, 0.5, rng)
    assert any(events[i].label == 1 for i in kept)


def test_sts_series_size_arithmetic():
    """Sizes follow n_k ~ 0.9^k * n_0 (within rounding) and the series stops
    at <= 7.5% of the start."""
    events = [DdiEvent("A", "B", i % 4) for i in range(400)]
    rng = np.random.default_rng(0)
    series = sts_series(list(range(400)), events, rng)
    n0 = len(series[0])
    assert n0 == 400
    for k, subset in enumerate(series):
        assert abs(len(subset) - round(0.9 ** k * n0)) <= 1 + k
    assert len(series[-1]) <= 0.075 * n0
    assert len(series[-2]) > 0.075 * n0


def test_sts_series_drops_rare_classes():
    events = ([DdiEvent("A", "B", 0)] * 50 + [DdiEvent("A", "B", 1)] * 3)
    rng = np.random.default_rng(0)
    series = sts_series(list(range(53)), events, rng, min_class_count=5)
    assert all(events[i].label == 0 for i in series[0])
    assert len(series[0]) == 50


def test_sts_series_rejects_all_rare():
    events = [DdiEvent("A", "B", i) for i in range(4)]
    with pytest.raises(DataError):
        sts_series(list(range(4)), events, np.random.default_rng(0),
                   min_class_count=5)


# ---------------------------------------------------------------------------
# sequence-length bins
# ---------------------------------------------------------------------------

def test_seqlen_bins_hand_count():
    drugs = {"A": DrugRecord("A", "CCO"), "B": DrugRecord("B", "CC"),
             "C": DrugRecord("C", "CCCCCCCCCC")}
    events = [DdiEvent("A", "B", 0),   # 3 + 1 + 2 = 6
              DdiEvent("A", "C", 0),   # 3 + 1 + 10 = 14
              DdiEvent("C", "C", 0)]   # 10 + 1 + 10 = 21
    bins = seqlen_bins([0, 1, 2], events, drugs, bin_width=10)
    assert bins == {0: [0], 10: [1], 20: [2]}


def test_seqlen_bins_cap_at_max_len():
    drugs = {"L": DrugRecord("L", "C" * 60)}
    events = [DdiEvent("L", "L", 0)]  # 60 + 1 + 60 = 121, capped to 100
    bins = seqlen_bins([0], events, drugs, bin_width=25, max_len=100)
    assert list(bins) == [100]


def test_seqlen_bins_partition():
    paths_rng = np.random.default_rng(0)
    drugs = {f"D{i}": DrugRecord(f"D{i}", "C" * int(paths_rng.integers(2, 40)))
             for i in range(10)}
    ids = list(drugs)
    events = [DdiEvent(ids[i], ids[(i + 3) % 10], 0) for i in range(10)]
    bins = seqlen_bins(list(range(10)), events, drugs, bin_width=8)
    flat = sorted(i for b in bins.values() for i in b)
    assert flat == list(range(10))
    for lo, members in bins.items():
        for i in members:
            ev = events[i]
            n = len(tokenize(drugs[ev.drug_a].smiles)) + 1 + len(tokenize(drugs[ev.drug_b].smiles))
            n = min(n, 500)
            assert lo <= n < lo + 8

"""Metric tests against independent brute-force definitional oracles:
per-class F1 from raw counts, MCC from the covariance form, AUC from
pairwise concordance, AUPR from average precision."""

import numpy as np
import pytest

from ddikit.metrics import (ConfusionMatrix, aggregate, aupr, confusion,
                            curves_to_csv, evaluate, f1_per_class, mcc,
                            roc_auc)


def brute_counts(preds, truths, c):
    tp = sum(1 for p, t in zip(preds, truths) if p == c and t == c)
    fp = sum(1 for p, t in zip(preds, truths) if p == c and t != c)
    fn = sum(1 for p, t in zip(preds, truths) if p != c and t == c)
    return tp, fp, fn


def brute_f1(preds, truths, c):
    tp, fp, fn = brute_counts(preds, truths, c)
    denom = tp + 0.5 * (fp + fn)
    return tp / denom if denom else 0.0


def brute_auc(scores, labels):
    """Pairwise concordance probability, ties count half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def brute_ap(scores, labels):
    """Average precision: sum of precision at each positive, by rank."""
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    s = scores[order]
    # ties share the precision of the whole tied block (step-wise curve)
    p = y.sum()
    tp = fp = 0
    ap = 0.0
    i = 0
    while i < len(y):
        j = i
        while j < len(y) and s[j] == s[i]:
            j += 1
        block_tp = int(y[i:j].sum())
        tp += block_tp
        fp += (j - i) - block_tp
        if block_tp:
            ap += (block_tp / p) * (tp / (tp + fp))
        i = j
    return ap


def random_instance(rng, n_max=50, m_max=10):
    n = int(rng.integers(5, n_max + 1))
    m = int(rng.integers(2, min(m_max, n) + 1))
    truths = rng.integers(m, size=n)
    truths[:m] = np.arange(m)  # every class present at least once
    rng.shuffle(truths)
    raw = rng.random((n, m))
    scores = raw / raw.sum(axis=1, keepdims=True)
    return scores, truths, m


@pytest.mark.parametrize("seed", range(30))
def test_confusion_metrics_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    scores, truths, m = random_instance(rng)
    preds = scores.argmax(axis=1)
    cm = confusion(preds, truths, m)
    report = aggregate(cm)

    assert report.accuracy == pytest.approx((preds == truths).mean(), abs=1e-12)
    support = np.array([(truths == c).sum() for c in range(m)])
    f1s = np.array([brute_f1(preds, truths, c) for c in range(m)])
    assert report.f1_weighted == pytest.approx(
        float((f1s * support).sum() / support.sum()), abs=1e-9)
    assert report.f1_macro == pytest.approx(float(f1s[support > 0].mean()), abs=1e-9)
    for c in range(m):
        assert f1_per_class(cm, c) == pytest.approx(f1s[c], abs=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_weighted_recall_equals_accuracy(seed):
    rng = np.random.default_rng(seed)
    scores, truths, m = random_instance(rng)
    report = aggregate(confusion(scores.argmax(axis=1), truths, m))
    assert abs(report.recall_weighted - report.accuracy) < 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_mcc_matches_sample_correlation_construction(seed):
    """Brute-force MCC: correlation between one-hot truth and prediction
    indicator matrices, computed from first principles."""
    rng = np.random.default_rng(seed)
    scores, truths, m = random_instance(rng)
    preds = scores.argmax(axis=1)
    n = len(truths)
    X = np.zeros((n, m))
    Y = np.zeros((n, m))
    X[np.arange(n), preds] = 1
    Y[np.arange(n), truths] = 1
    cov = lambda a, b: ((a - a.mean(0)) * (b - b.mean(0))).sum()
    num = cov(X, Y)
    den = np.sqrt(cov(X, X)) * np.sqrt(cov(Y, Y))
    want = num / den if den > 0 else 0.0
    got = mcc(confusion(preds, truths, m))
    assert got == pytest.approx(want, abs=1e-9)


def test_mcc_binary_reduces_to_textbook_formula():
    preds = np.array([1, 1, 0, 1, 0, 0, 1, 0])
    truth = np.array([1, 0, 0, 1, 0, 1, 1, 0])
    tp = ((preds == 1) & (truth == 1)).sum()
    tn = ((preds == 0) & (truth == 0)).sum()
    fp = ((preds == 1) & (truth == 0)).sum()
    fn = ((preds == 0) & (truth == 1)).sum()
    want = (tp * tn - fp * fn) / np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    assert mcc(confusion(preds, truth, 2)) == pytest.approx(float(want), abs=1e-12)


def test_mcc_degenerate_is_zero():
    assert mcc(confusion([0, 0], [0, 0], 2)) == 0.0
    assert mcc(confusion([1, 1], [0, 0], 2)) == 0.0


def test_perfect_and_worst_predictions():
    truths = np.array([0, 1, 2, 0, 1, 2])
    cm = confusion(truths, truths, 3)
    r = aggregate(cm)
    assert r.accuracy == 1.0 and r.f1_weighted == 1.0
    assert r.mcc == pytest.approx(1.0, abs=1e-12)
    wrong = (truths + 1) % 3
    r2 = aggregate(confusion(wrong, truths, 3))
    assert r2.accuracy == 0.0 and r2.f1_weighted == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_auc_matches_pairwise_concordance(seed):
    rng = np.random.default_rng(seed)
    scores, truths, m = random_instance(rng)
    per_class, micro = roc_auc(scores, truths)
    onehot = np.zeros_like(scores, dtype=np.int64)
    onehot[np.arange(len(truths)), truths] = 1
    for c, curve in per_class.items():
        want = brute_auc(scores[:, c], onehot[:, c])
        assert curve.auc == pytest.approx(want, abs=1e-9)
    want_micro = brute_auc(scores.reshape(-1), onehot.reshape(-1))
    assert micro.auc == pytest.approx(want_micro, abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_aupr_matches_average_precision(seed):
    rng = np.random.default_rng(seed)
    scores, truths, m = random_instance(rng)
    per_class, micro = aupr(scores, truths)
    onehot = np.zeros_like(scores, dtype=np.int64)
    onehot[np.arange(len(truths)), truths] = 1
    for c, curve in per_class.items():
        want = brute_ap(scores[:, c], onehot[:, c])
        assert curve.aupr == pytest.approx(want, abs=1e-9)
    want_micro = brute_ap(scores.reshape(-1), onehot.reshape(-1))
    assert micro.aupr == pytest.approx(want_micro, abs=1e-9)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    scores, truths, m = random_instance(rng)
    _, micro = roc_auc(scores, truths)
    # rank-preserving per-column transform; renormalize rows to keep the
    # probability check happy, which preserves within-column order only if
    # we transform the flattened problem -- so compare per-class curves
    per_class, _ = roc_auc(scores, truths)
    warped = scores ** 3
    warped = warped / warped.sum(axis=1, keepdims=True)
    # cubing is monotone per element but row renormalization can reorder a
    # column, so check invariance on the binary sub-problem directly
    onehot = np.zeros_like(scores, dtype=np.int64)
    onehot[np.arange(len(truths)), truths] = 1
    for c in per_class:
        a = brute_auc(scores[:, c], onehot[:, c])
        b = brute_auc(np.tanh(3 * scores[:, c]), onehot[:, c])
        assert a == pytest.approx(b, abs=1e-12)
        assert per_class[c].auc == pytest.approx(a, abs=1e-9)


def test_roc_curve_endpoints():
    scores = np.array([[0.9, 0.1], [0.4, 0.6], [0.2, 0.8], [0.7, 0.3]])
    truths = np.array([0, 1, 1, 0])
    per_class, micro = roc_auc(scores, truths)
    for curve in list(per_class.values()) + [micro]:
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()


def test_perfect_ranking_auc_and_aupr_are_one():
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    truths = np.array([0, 0, 1, 1])
    per_class, micro = roc_auc(scores, truths)
    assert micro.auc == pytest.approx(1.0)
    pr_per_class, pr_micro = aupr(scores, truths)
    assert pr_micro.aupr == pytest.approx(1.0)


def test_evaluate_report_fields_and_json():
    rng = np.random.default_rng(4)
    scores, truths, m = random_instance(rng)
    report = evaluate(scores, truths, m)
    assert report.n_samples == len(truths)
    assert 0.0 <= report.auc <= 1.0
    assert 0.0 <= report.aupr <= 1.0
    import json
    d = json.loads(report.to_json())
    assert d["accuracy"] == report.accuracy
    assert set(d) == {"accuracy", "f1_weighted", "f1_macro", "mcc",
                      "precision_weighted", "precision_macro",
                      "recall_weighted", "recall_macro", "aupr", "auc",
                      "aupr_macro", "auc_macro", "n_samples"}


def test_evaluate_rejects_unnormalized_scores():
    with pytest.raises(ValueError):
        evaluate(np.array([[0.9, 0.9]]), np.array([0]), 2)


def test_confusion_validation():
    with pytest.raises(IndexError):
        confusion([0, 3], [0, 1], 3)
    with pytest.raises(ValueError):
        confusion([], [], 3)


def test_curves_to_csv_has_micro_rows():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    truths = np.array([0, 1])
    per_class, micro = roc_auc(scores, truths)
    lines = curves_to_csv(per_class, micro, "roc")
    assert lines[0] == "class,fpr,tpr"
    assert any(ln.startswith("-1,") for ln in lines)

"""Evaluation metrics: accuracy, per-class/weighted/macro F1, precision and
recall, multi-class MCC, ROC/AUC and precision-recall/AUPR curves.

Headline AUC and AUPR are micro-averaged over one-vs-rest (sample, class)
pairs; macro variants are also reported. ROC uses a threshold sweep with
ties grouped and trapezoidal area; the PR area is the step-wise
(right-continuous) sum, i.e. average precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .atomic import csv_lines


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # [n_classes, n_classes] of (true, predicted)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def support(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def tp(self) -> np.ndarray:
        return np.diag(self.counts)

    def fp(self) -> np.ndarray:
        return self.counts.sum(axis=0) - self.tp()

    def fn(self) -> np.ndarray:
        return self.counts.sum(axis=1) - self.tp()


def confusion(preds, truths, n_classes: int) -> ConfusionMatrix:
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape or preds.ndim != 1 or len(preds) == 0:
        raise ValueError(f"preds/truths must be equal-length 1-d, got {preds.shape} vs {truths.shape}")
    if preds.max() >= n_classes or truths.max() >= n_classes or min(preds.min(), truths.min()) < 0:
        raise IndexError(f"class index out of range [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (truths, preds), 1)
    return ConfusionMatrix(counts)


def f1_per_class(cm: ConfusionMatrix, c: int) -> float:
    """TP / (TP + (FP + FN) / 2) for class c one-vs-rest; 0 when undefined."""
    return float(_prf(cm)[2][c])


def _prf(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tp = cm.tp().astype(float)
    fp = cm.fp().astype(float)
    fn = cm.fn().astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(tp + 0.5 * (fp + fn) > 0, tp / (tp + 0.5 * (fp + fn)), 0.0)
    return precision, recall, f1


def mcc(cm: ConfusionMatrix) -> float:
    """Multi-class Matthews correlation (covariance form); 0 when degenerate."""
    c = cm.counts.astype(float)
    t_k = c.sum(axis=1)  # true occurrences per class
    p_k = c.sum(axis=0)  # predicted occurrences per class
    s = c.sum()
    correct = np.trace(c)
    cov_ytyp = correct * s - (t_k * p_k).sum()
    cov_ypyp = s * s - (p_k * p_k).sum()
    cov_ytyt = s * s - (t_k * t_k).sum()
    denom = np.sqrt(cov_ypyp) * np.sqrt(cov_ytyt)
    return float(cov_ytyp / denom) if denom > 0 else 0.0


@dataclass
class MetricReport:
    accuracy: float
    f1_weighted: float
    f1_macro: float
    mcc: float
    precision_weighted: float
    precision_macro: float
    recall_weighted: float
    recall_macro: float
    aupr: float = float("nan")
    auc: float = float("nan")
    aupr_macro: float = float("nan")
    auc_macro: float = float("nan")
    n_samples: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def aggregate(cm: ConfusionMatrix) -> MetricReport:
    """Support-weighted and unweighted (macro) aggregates over classes.
    Zero-support classes are excluded from macro averages."""
    precision, recall, f1 = _prf(cm)
    support = cm.support().astype(float)
    total = support.sum()
    nonzero = support > 0
    weights = support / total

    def wavg(x):
        return float((x * weights).sum())

    def mavg(x):
        return float(x[nonzero].mean()) if nonzero.any() else 0.0

    return MetricReport(
        accuracy=float(cm.tp().sum() / total),
        f1_weighted=wavg(f1),
        f1_macro=mavg(f1),
        mcc=mcc(cm),
        precision_weighted=wavg(precision),
        precision_macro=mavg(precision),
        recall_weighted=wavg(recall),
        recall_macro=mavg(recall),
        n_samples=cm.total,
    )


# ---------------------------------------------------------------------------
# threshold-free curves
# ---------------------------------------------------------------------------

@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass
class PrCurve:
    recall: np.ndarray
    precision: np.ndarray
    aupr: float


def _sweep(scores: np.ndarray, labels: np.ndarray):
    """Descending-score threshold sweep with equal scores grouped: cumulative
    true and false positives at the last index of each group, then the
    positive and negative counts."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(float)
    distinct = np.where(np.diff(s))[0]
    idx = np.r_[distinct, len(s) - 1]
    tps = np.cumsum(y)[idx]
    fps = (idx + 1) - tps
    p = y.sum()
    return tps, fps, p, len(y) - p


def _binary_roc(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    tps, fps, p, n = _sweep(scores, labels)
    tpr = np.r_[0.0, tps / p] if p > 0 else np.zeros(len(tps) + 1)
    fpr = np.r_[0.0, fps / n] if n > 0 else np.zeros(len(tps) + 1)
    if tpr[-1] != 1.0 or fpr[-1] != 1.0:
        tpr = np.r_[tpr, 1.0]
        fpr = np.r_[fpr, 1.0]
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr, tpr, auc)


def _binary_pr(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    tps, fps, p, _ = _sweep(scores, labels)  # p > 0: aupr keeps classes with a positive
    recall = tps / p
    precision = tps / (tps + fps)
    # step-wise (right-continuous) area = sum of precision * recall increments
    aupr = float(np.sum(np.diff(np.r_[0.0, recall]) * precision))
    return PrCurve(np.r_[0.0, recall], np.r_[1.0, precision], aupr)


def _check_scores(scores: np.ndarray, truths: np.ndarray):
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths, dtype=np.int64)
    if scores.ndim != 2 or len(scores) != len(truths):
        raise ValueError("scores must be [n_samples, n_classes] aligned with truths")
    sums = scores.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-4:
        raise ValueError("score rows must sum to 1 within 1e-4")
    return scores, truths


def _one_vs_rest(scores, truths, curve, keep):
    """Per-class one-vs-rest curves for each class whose positive count
    ``pos`` out of ``n`` samples passes ``keep(pos, n)``, plus the
    micro-averaged curve."""
    scores, truths = _check_scores(scores, truths)
    n, m = scores.shape
    onehot = np.zeros((n, m), dtype=np.int64)
    onehot[np.arange(n), truths] = 1
    per_class = {c: curve(scores[:, c], onehot[:, c])
                 for c in range(m) if keep(onehot[:, c].sum(), n)}
    return per_class, curve(scores.reshape(-1), onehot.reshape(-1))


def roc_auc(scores, truths) -> tuple[dict[int, RocCurve], RocCurve]:
    """Per-class one-vs-rest ROC curves plus the micro-averaged curve."""
    return _one_vs_rest(scores, truths, _binary_roc, lambda pos, n: 0 < pos < n)


def aupr(scores, truths) -> tuple[dict[int, PrCurve], PrCurve]:
    """Per-class one-vs-rest PR curves plus the micro-averaged curve."""
    return _one_vs_rest(scores, truths, _binary_pr, lambda pos, n: pos > 0)


def evaluate(scores, truths, n_classes: int) -> MetricReport:
    """Full report from class-probability scores: argmax predictions for the
    confusion-matrix metrics plus micro/macro AUC and AUPR."""
    scores, truths = _check_scores(scores, truths)
    preds = scores.argmax(axis=1)
    report = aggregate(confusion(preds, truths, n_classes))
    roc_per_class, roc_micro = roc_auc(scores, truths)
    pr_per_class, pr_micro = aupr(scores, truths)
    report.auc = roc_micro.auc
    report.aupr = pr_micro.aupr
    if roc_per_class:
        report.auc_macro = float(np.mean([c.auc for c in roc_per_class.values()]))
    if pr_per_class:
        report.aupr_macro = float(np.mean([c.aupr for c in pr_per_class.values()]))
    return report


def curves_to_csv(per_class: dict[int, RocCurve] | dict[int, PrCurve],
                  micro: RocCurve | PrCurve) -> list[str]:
    """CSV lines of curve points under the header ``class,fpr,tpr`` (ROC) or
    ``class,recall,precision`` (PR); class -1 denotes the micro average."""
    cols = ("fpr", "tpr") if isinstance(micro, RocCurve) else ("recall", "precision")
    rows = ((cls, x, y) for cls, curve in sorted(per_class.items()) + [(-1, micro)]
            for x, y in zip(*(getattr(curve, col) for col in cols)))
    return csv_lines(f"class,{cols[0]},{cols[1]}", rows)

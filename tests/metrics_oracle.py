"""The scorer as it stood before it read its counts from one [true, predicted]
table: `evaluate_probs` with its per-class counting loop, verbatim, the oracle
its rewrite must match byte for byte in JSON."""

import numpy as np

from transecg.data_io import Task
from transecg.training import auc, roc_curve


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def evaluate_probs(probs: np.ndarray, y: np.ndarray, task: Task | None = None) -> dict:
    y = np.asarray(y, dtype=np.int64)
    k = probs.shape[1]
    preds = np.argmax(probs, axis=1)  # ties resolve to the lowest class index

    precisions, recalls, f1s = [], [], []
    missing = []
    roc_points = {}
    aucs = {}
    for c in range(k):
        tp = int(np.sum((preds == c) & (y == c)))
        fp = int(np.sum((preds == c) & (y != c)))
        fn = int(np.sum((preds != c) & (y == c)))
        if np.sum(y == c) == 0:
            missing.append(c)
            prec = rec = 0.0
        else:
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
        fpr, tpr = roc_curve(probs[:, c], y == c)
        roc_points[c] = (fpr.tolist(), tpr.tolist())
        aucs[c] = auc(fpr, tpr)

    out = {
        "accuracy": _accuracy(probs, y),
        "macro_precision": float(np.mean(precisions)),
        "macro_recall": float(np.mean(recalls)),
        "macro_f1": float(np.mean(f1s)),
        "per_class_auc": {str(c): aucs[c] for c in aucs},
        "roc": {str(c): {"fpr": roc_points[c][0], "tpr": roc_points[c][1]} for c in roc_points},
        "absent_classes": missing,
    }
    if task is Task.PARTICIPANT_ID:
        support = [(int(np.sum(y == c)), -c) for c in range(k)]
        top = sorted(support, reverse=True)[:4]
        out["top4_classes_by_support"] = [-neg_c for _, neg_c in top]
    return out

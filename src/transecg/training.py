"""Dataset splitting, the optimization loop, and evaluation metrics."""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import vit
from .autodiff import AdamW, Tensor, cross_entropy
from .data_io import Task

logger = logging.getLogger(__name__)

PREDICT_BATCH = 64  # windows per no-grad forward in predict_logits


@dataclass
class SplitPlan:
    train: list[int]
    val: list[int]
    test: list[int]
    split_mode: str  # "by_participant" | "within_participant"


@dataclass
class TrainHParams:
    lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 45
    weight_decay: float = 1e-4
    early_stop_patience: int = 10
    scheduler_factor: float = 0.5
    scheduler_patience: int = 5

    def validate(self) -> None:
        for name in ("lr", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"hyperparameter {name!r} must be non-negative")
        if not 0 < self.scheduler_factor <= 1:
            raise ValueError(f"hyperparameter 'scheduler_factor' must be in (0, 1], "
                             f"got {self.scheduler_factor}")
        for name in ("batch_size", "max_epochs", "early_stop_patience", "scheduler_patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"hyperparameter {name!r} must be positive")


def make_split(subject_ids: Sequence[str], offsets: Sequence[int], task: Task, seed: int,
               fractions: tuple[float, float, float]) -> SplitPlan:
    """Deterministic train/val/test split by `fractions` of windows given by
    subject and source offset.

    Gender and age tasks split by participant (no subject in two lists); the
    participant-ID task splits within each participant, since every subject
    is itself a class. Input ordering does not matter: windows are sorted by
    (subject_id, source_offset) before the seeded shuffle. By participant, train
    leaves at least two participants over and val takes at least one, and fewer
    than 3 participants are refused. Within participants, a participant with
    fewer than 3 windows is left out, and the split is refused if all are. A
    split with no train window is refused, naming the fraction to raise.
    """
    if len(subject_ids) < 3:
        raise ValueError("need at least 3 windows to split")
    order = sorted(range(len(subject_ids)), key=lambda i: (subject_ids[i], offsets[i]))
    rng = np.random.default_rng(seed)

    if task is Task.PARTICIPANT_ID:
        by_subject: dict[str, list[int]] = {}
        for i in order:
            by_subject.setdefault(subject_ids[i], []).append(i)
        most = max(len(idx) for idx in by_subject.values())
        if most < 3:
            raise ValueError(f"the within_participant split needs 3 windows of a participant, "
                             f"but each of the {len(by_subject)} participants has at most {most}")
        train, val, test = [], [], []
        for sid in sorted(by_subject):
            idx = by_subject[sid]
            if len(idx) < 3:
                logger.warning("participant %s excluded: only %d windows", sid, len(idx))
                continue
            idx = list(rng.permutation(idx))
            n = len(idx)
            n_val = max(1, int(round(fractions[1] * n)))
            n_test = max(1, int(round(fractions[2] * n)))
            val.extend(int(i) for i in idx[:n_val])
            test.extend(int(i) for i in idx[n_val:n_val + n_test])
            train.extend(int(i) for i in idx[n_val + n_test:])
        return _nonempty(SplitPlan(sorted(train), sorted(val), sorted(test), "within_participant"),
                         fractions, f"{len(by_subject)} participants")

    subjects = sorted(set(subject_ids))
    n = len(subjects)
    if n < 3:
        raise ValueError(f"the by_participant split needs at least 3 participants, but the "
                         f"windows come from {n}")
    shuffled = list(rng.permutation(subjects))
    n_train = min(int(round(fractions[0] * n)), n - 2)
    n_val = max(1, int(round(fractions[1] * n)))
    groups = {
        sid: "train" for sid in shuffled[:n_train]
    }
    for sid in shuffled[n_train:n_train + n_val]:
        groups[sid] = "val"
    for sid in shuffled[n_train + n_val:]:
        groups[sid] = "test"
    plan = {"train": [], "val": [], "test": []}
    for i in order:
        plan[groups[subject_ids[i]]].append(i)
    return _nonempty(SplitPlan(plan["train"], plan["val"], plan["test"], "by_participant"),
                     fractions, f"{n} participants")


def _nonempty(plan: SplitPlan, fractions: tuple[float, float, float], source: str) -> SplitPlan:
    """The plan, or a ValueError naming the fraction to raise if it has no train
    window (make_split gives val a window whenever train has one)."""
    counts = (f"({len(plan.train)} train, {len(plan.val)} val and {len(plan.test)} test "
              f"windows from {source})")
    if not plan.train:
        raise ValueError(f"the {plan.split_mode} split leaves no train window {counts}; "
                         f"raise the train fraction ({fractions[0]}) or add participants")
    return plan


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield perm[lo:lo + batch_size]


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def predict_logits(params, config, x: np.ndarray) -> np.ndarray:
    """Inference-mode class logits of windows, in batches of PREDICT_BATCH."""
    return np.concatenate([vit.forward(x[lo:lo + PREDICT_BATCH], params, config).logits.data
                           for lo in range(0, x.shape[0], PREDICT_BATCH)], axis=0)


def predict_probs(params, config, x: np.ndarray) -> np.ndarray:
    """Inference-mode class probabilities of windows: the softmax of their logits."""
    return ad.softmax(Tensor(predict_logits(params, config, x))).data


def train(x: np.ndarray, y: np.ndarray, plan: SplitPlan, config: vit.VitConfig,
          hparams: TrainHParams, seed: int) -> tuple[dict, dict[str, Tensor]]:
    """Optimize the model; returns the report (`epochs`, one dict of metrics each,
    `best_epoch`, and `test_metrics` None for the caller to fill) and the
    best-validation parameters.

    Scheduler halves the learning rate after `scheduler_patience` epochs
    without validation-accuracy improvement; early stopping fires after
    `early_stop_patience` such epochs.
    """
    hparams.validate()
    if not plan.train or not plan.val:
        raise ValueError("train and val sets must be non-empty")
    params = vit.init_params(config, seed)
    opt = AdamW(params, lr=hparams.lr, weight_decay=hparams.weight_decay)
    x_tr, y_tr = x[plan.train], y[plan.train]
    x_val, y_val = x[plan.val], y[plan.val]

    best_acc = -1.0
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {k: p.data.copy() for k, p in params.items()}
    stall = 0
    epochs = []
    for epoch in range(hparams.max_epochs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)))
        losses = []
        correct = 0
        for batch_no, idx in enumerate(_batches(len(x_tr), hparams.batch_size, rng)):
            opt.zero_grad()
            try:
                with ad.recording():
                    art = vit.forward(x_tr[idx], params, config, training=True, rng=rng)
                    loss = cross_entropy(art.logits, y_tr[idx])
                    ad.backward(loss)
            except FloatingPointError as e:
                raise FloatingPointError(f"{e} at epoch {epoch}, batch {batch_no}") from e
            opt.step()
            losses.append(float(loss.data))
            correct += int(np.sum(np.argmax(art.logits.data, axis=1) == y_tr[idx]))

        val_logits = predict_logits(params, config, x_val)
        val_loss = float(cross_entropy(Tensor(val_logits), y_val).data)
        val_acc = _accuracy(val_logits, y_val)
        epochs.append({
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "train_accuracy": correct / len(x_tr),
            "val_loss": val_loss,
            "val_accuracy": val_acc,
            "lr": opt.lr,
        })

        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = {k: p.data.copy() for k, p in params.items()}
            stall = 0
        else:
            stall += 1
            if stall > 0 and stall % hparams.scheduler_patience == 0:
                opt.lr *= hparams.scheduler_factor
            if stall >= hparams.early_stop_patience:
                break

    restored = {k: Tensor(v, requires_grad=True) for k, v in best_params.items()}
    return {"epochs": epochs, "best_epoch": best_epoch, "test_metrics": None}, restored


# ---------------------------------------------------------------------------
# metrics


def roc_curve(scores: np.ndarray, positives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-rest ROC points (fpr, tpr) sorted by descending score threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return np.array([0.0, 1.0]), np.array([0.0, 1.0])
    order = np.argsort(-scores, kind="stable")
    sorted_pos = positives[order]
    tps = np.cumsum(sorted_pos)
    fps = np.cumsum(~sorted_pos)
    # collapse ties: keep the last point of each distinct score
    distinct = np.r_[np.diff(scores[order]) != 0, True]
    tpr = np.r_[0.0, tps[distinct] / n_pos]
    fpr = np.r_[0.0, fps[distinct] / n_neg]
    return fpr, tpr


def auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    return float(np.trapezoid(tpr, fpr))


def evaluate(params, config, x: np.ndarray, y: np.ndarray,
             task: Task | None = None) -> dict:
    """Accuracy, macro precision/recall/F1, and one-vs-rest ROC/AUC per class."""
    if x.shape[0] == 0:
        raise ValueError("evaluate requires a non-empty set")
    probs = predict_probs(params, config, x)
    return evaluate_probs(probs, y, task=task)


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

"""Dataset splitting, the optimization loop, and evaluation metrics."""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import vit
from .autodiff import AdamW, Tensor, cross_entropy
from .data_io import Task

logger = logging.getLogger(__name__)

# the most windows in flight at once, across threads: a training step of more than
# this many windows runs forward, loss and backward over chunks of half this many
# on two threads, and inference runs one window per forward on at most this many
# threads
FORWARD_CHUNK = 4


@dataclass
class SplitPlan:
    train: list[int]
    val: list[int]
    test: list[int]
    split_mode: str  # "by_participant" | "within_participant"


@dataclass(frozen=True)
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


@functools.cache
def blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The getter and setter of the thread count of numpy's own OpenBLAS, looked
    up once through ctypes on numpy's extension module; None where it exports
    none (numpy on another BLAS)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run_each(n: int, most: int, run: Callable[[int], None]) -> None:
    """run(i) for each i in range(n), the indices handed out in order to
    min(cores, most) workers: the calling thread and helper threads. Meanwhile
    numpy's OpenBLAS runs one thread; NumPy releases the GIL, so the workers
    run in parallel. Without a BLAS thread setter, the calling thread alone
    runs, at the BLAS thread count it finds. After a failure no index is
    handed out; the first failed index's error is raised once every helper
    has ended and the thread count is restored."""
    blas = blas_threads()
    workers = min(_cores(), most, n) if blas else 1
    failed: list[tuple[int, Exception]] = []
    stop = threading.Event()
    lock = threading.Lock()
    todo = iter(range(n))

    def work():
        while not stop.is_set():
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                run(i)
            except Exception as e:  # raised again in the calling thread
                failed.append((i, e))
                stop.set()

    helpers: list[threading.Thread] = []
    if blas:
        before = blas[0]()
        blas[1](1)
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=work, daemon=True)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
        if blas:
            blas[1](before)
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def forward_each(params, config, x: np.ndarray,
                 capture_attention: bool = False) -> list[vit.ForwardArtifacts]:
    """Inference forwards of windows x, one window per `vit.forward` call on
    min(cores, FORWARD_CHUNK) workers (`_run_each`), so a window's logits and
    maps depend neither on its neighbours nor on the core or BLAS thread count.
    Inference tapes nothing."""
    out: list[vit.ForwardArtifacts | None] = [None] * len(x)

    def run(i):
        out[i] = vit.forward(x[i:i + 1], params, config, capture_attention=capture_attention)

    _run_each(len(x), FORWARD_CHUNK, run)
    return out


def predict_logits(params, config, x: np.ndarray) -> np.ndarray:
    """Inference-mode class logits of windows, one window per forward (`forward_each`)."""
    return np.concatenate([art.logits.data for art in forward_each(params, config, x)], axis=0)


def probs_of(captured: list[vit.ForwardArtifacts]) -> np.ndarray:
    """Class probabilities of `forward_each`'s artifacts: the softmax of their logits."""
    return ad.softmax(Tensor(np.concatenate([art.logits.data for art in captured], axis=0))).data


def predict_probs(params, config, x: np.ndarray) -> np.ndarray:
    """Inference-mode class probabilities of windows (`probs_of` their forwards)."""
    return probs_of(forward_each(params, config, x))


def train_step(params: dict[str, Tensor], config: vit.VitConfig, x: np.ndarray,
               y: np.ndarray, rng: np.random.Generator) -> tuple[float, int]:
    """Accumulate onto the parameters' grads the gradient of the mean training
    loss of windows x with labels y, and return that loss and the number of
    windows classified right. One `draw_keep` serves the whole step.

    A step of at most FORWARD_CHUNK windows is one chunk; a larger one runs in
    chunks of FORWARD_CHUNK // 2 windows, handed out in order to min(cores, 2)
    workers (`_run_each`), so at most FORWARD_CHUNK windows are in flight. A
    worker runs a chunk's forward, loss (its mean scaled by the chunk's share
    of the windows) and backward on its own thread's tape, against copies of
    the parameters that share their weights and hold only that chunk's
    gradients. Those gradients and the loss are added on strictly in chunk
    order, so the sums depend neither on the core nor on the BLAS thread count.
    """
    keep = vit.draw_keep(config, rng)
    size = len(x) if len(x) <= FORWARD_CHUNK else FORWARD_CHUNK // 2
    n_chunks = -(-len(x) // size)
    loss, correct, added = 0.0, 0, 0
    turn = threading.Condition()

    def run(c):
        nonlocal loss, correct, added
        xs, ys = x[c * size:(c + 1) * size], y[c * size:(c + 1) * size]
        own = {name: Tensor(p.data, requires_grad=True) for name, p in params.items()}
        done = False
        try:
            with ad.recording():
                logits = vit.forward(xs, own, config, training=True, keep=keep).logits
                part = ad.scale(cross_entropy(logits, ys), len(xs) / len(x))
                ad.backward(part)
            done = True
        finally:
            # chunk c's turn comes once every earlier chunk is added or has failed
            with turn:
                turn.wait_for(lambda: added == c)
                if done:
                    for name, p in params.items():
                        g = own[name].grad
                        if p.grad is None:
                            p.grad = g  # this chunk's alone: no other tensor holds it
                        elif g is not None:
                            p.grad += g
                    loss += float(part.data)
                    correct += int(np.sum(np.argmax(logits.data, axis=1) == ys))
                added += 1
                turn.notify_all()

    _run_each(n_chunks, FORWARD_CHUNK // size, run)
    return loss, correct


def train(x: np.ndarray, y: np.ndarray, plan: SplitPlan, config: vit.VitConfig,
          hparams: TrainHParams, seed: int) -> tuple[dict, dict[str, Tensor]]:
    """Optimize the model; returns the report (`epochs`, one dict of metrics each,
    and `best_epoch`) and the best-validation parameters. The test split is
    `cli evaluate`'s alone.

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
    best_params: dict[str, np.ndarray] = {}  # epoch 0 always fills it: val_acc >= 0
    stall = 0
    epochs = []
    for epoch in range(hparams.max_epochs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)))
        losses = []
        correct = 0
        for batch_no, idx in enumerate(_batches(len(x_tr), hparams.batch_size, rng)):
            opt.zero_grad()
            try:
                loss, right = train_step(params, config, x_tr[idx], y_tr[idx], rng)
            except FloatingPointError as e:
                raise FloatingPointError(f"{e} at epoch {epoch}, batch {batch_no}") from e
            opt.step()
            losses.append(loss)
            correct += right

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
            if stall % hparams.scheduler_patience == 0:
                opt.lr *= hparams.scheduler_factor
            if stall >= hparams.early_stop_patience:
                break

    restored = {k: Tensor(v, requires_grad=True) for k, v in best_params.items()}
    return {"epochs": epochs, "best_epoch": best_epoch}, restored


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


def evaluate_probs(probs: np.ndarray, y: np.ndarray, task: Task | None = None) -> dict:
    """The metrics.json document (its keys and rules are in the README) of class
    probabilities `probs` [n, k] against labels `y`."""
    y = np.asarray(y, dtype=np.int64)
    k = probs.shape[1]
    preds = np.argmax(probs, axis=1)  # ties resolve to the lowest class index
    counts = np.bincount(y * k + preds, minlength=k * k).reshape(k, k)  # [true, predicted]
    tp = np.diag(counts)
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    precision = np.divide(tp, predicted, out=np.zeros(k), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(k), where=support > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(k), where=both > 0)
    roc = {str(c): roc_curve(probs[:, c], y == c) for c in range(k)}

    out = {
        "accuracy": float(tp.sum() / len(y)),
        "macro_precision": float(np.mean(precision)),
        "macro_recall": float(np.mean(recall)),
        "macro_f1": float(np.mean(f1)),
        "per_class_auc": {c: auc(fpr, tpr) for c, (fpr, tpr) in roc.items()},
        "roc": {c: {"fpr": fpr.tolist(), "tpr": tpr.tolist()} for c, (fpr, tpr) in roc.items()},
        "absent_classes": np.flatnonzero(support == 0).tolist(),
    }
    if task is Task.PARTICIPANT_ID:
        out["top4_classes_by_support"] = np.argsort(-support, kind="stable")[:4].tolist()
    return out

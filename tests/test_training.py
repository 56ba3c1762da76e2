import numpy as np
import pytest

from gradcheck import fd_gradient, rel_error
from transecg import autodiff as ad
from transecg import training as tr
from transecg import vit
from transecg.autodiff import Tensor
from transecg.data_io import Task

TINY = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                     n_heads=2, mlp_dim=16, n_classes=2, survival_prob=1.0)


def make_windows(n_subjects, per_subject):
    """Subject IDs and source offsets of per_subject windows for each subject."""
    sids = [f"S{s:03d}" for s in range(n_subjects) for _ in range(per_subject)]
    offsets = [i * 2000 for _ in range(n_subjects) for i in range(per_subject)]
    return sids, offsets


def separable_dataset(n_per_class=16, seed=0):
    """Two-class windows distinguished by the amplitude of a mid-window bump."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, amp in ((0, 0.2), (1, 0.9)):
        for _ in range(n_per_class):
            x = 0.05 * rng.normal(size=TINY.seq_len)
            x[15:25] += amp
            xs.append(x)
            ys.append(label)
    return np.array(xs), np.array(ys)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        logits = Tensor(np.array([[50.0, -50.0], [-50.0, 50.0]]))
        loss = tr.cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_k4_is_ln4(self):
        logits = Tensor(np.full((5, 4), 0.25))
        loss = tr.cross_entropy(logits, np.array([0, 1, 2, 3, 0]))
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-9)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(10, 3)))
        loss = tr.cross_entropy(logits, rng.integers(0, 3, size=10))
        assert float(loss.data) >= 0.0

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        logits_arr = rng.normal(size=(4, 3))
        y = np.array([0, 2, 1, 1])
        logits = Tensor(logits_arr, requires_grad=True)
        with ad.recording():
            ad.backward(tr.cross_entropy(logits, y))

        def scalar(arrs):
            return float(tr.cross_entropy(Tensor(arrs[0]), y).data)

        numeric = fd_gradient(scalar, [logits_arr], 0)
        assert rel_error(logits.grad, numeric) < 1e-5

    def test_analytic_identity_probs_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits_arr = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        logits = Tensor(logits_arr, requires_grad=True)
        with ad.recording():
            ad.backward(tr.cross_entropy(logits, y))
        onehot = np.zeros((6, 4))
        onehot[np.arange(6), y] = 1.0
        expected = (ad.softmax(Tensor(logits_arr)).data - onehot) / 6
        assert np.max(np.abs(logits.grad - expected)) < 1e-9


class TestMakeSplit:
    def test_by_participant_no_overlap(self):
        sids, offsets = make_windows(10, 10)
        plan = tr.make_split(sids, offsets, Task.GENDER, seed=0)
        assert plan.split_mode == "by_participant"
        groups = [{sids[i] for i in part} for part in (plan.train, plan.val, plan.test)]
        assert not (groups[0] & groups[1]) and not (groups[0] & groups[2])
        assert not (groups[1] & groups[2])
        assert len(plan.train) + len(plan.val) + len(plan.test) == 100
        assert len(groups[0]) == 7

    def test_within_participant_all_classes_everywhere(self):
        sids, offsets = make_windows(5, 8)
        plan = tr.make_split(sids, offsets, Task.PARTICIPANT_ID, seed=1)
        assert plan.split_mode == "within_participant"
        for part in (plan.train, plan.val, plan.test):
            assert {sids[i] for i in part} == {
                f"S{s:03d}" for s in range(5)
            }

    def test_id_task_excludes_sparse_participants(self):
        sids, offsets = make_windows(3, 4)
        sids, offsets = sids + ["S999", "S999"], offsets + [0, 2000]
        plan = tr.make_split(sids, offsets, Task.PARTICIPANT_ID, seed=0)
        used = {sids[i] for part in (plan.train, plan.val, plan.test) for i in part}
        assert "S999" not in used

    def test_deterministic_and_order_invariant(self):
        sids, offsets = make_windows(8, 6)
        a = tr.make_split(sids, offsets, Task.GENDER, seed=7)
        b = tr.make_split(sids, offsets, Task.GENDER, seed=7)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
        # shuffled input ordering maps to the same window identities
        perm = np.random.default_rng(0).permutation(len(sids))
        sids2, offsets2 = [sids[i] for i in perm], [offsets[i] for i in perm]
        c = tr.make_split(sids2, offsets2, Task.GENDER, seed=7)
        def keyset(s, o, idx):
            return sorted((s[i], o[i]) for i in idx)
        assert keyset(sids, offsets, a.train) == keyset(sids2, offsets2, c.train)
        assert keyset(sids, offsets, a.test) == keyset(sids2, offsets2, c.test)

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError):
            tr.make_split(*make_windows(1, 2), Task.GENDER, seed=0)

    def test_no_train_window_refused_naming_the_fraction(self):
        with pytest.raises(ValueError, match=r"within_participant split leaves no train window "
                                             r".*raise the train fraction \(0.2\)"):
            tr.make_split(*make_windows(2, 4), Task.PARTICIPANT_ID, seed=0,
                          fractions=(0.2, 0.4, 0.4))


class TestTrainLoop:
    def test_overfits_separable_task(self):
        x, y = separable_dataset()
        order = np.random.default_rng(3).permutation(len(y))
        x, y = x[order], y[order]
        plan = tr.SplitPlan(train=list(range(24)), val=list(range(24, 32)), test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(lr=1e-2, batch_size=8, max_epochs=200,
                             weight_decay=0.0, early_stop_patience=200)
        report, best = tr.train(x, y, plan, TINY, hp, seed=0)
        assert report.epochs[-1]["train_accuracy"] >= 0.95

    def test_zero_lr_keeps_params(self):
        x, y = separable_dataset(n_per_class=4)
        plan = tr.SplitPlan(train=[0, 1, 4, 5], val=[2, 6], test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(lr=0.0, batch_size=4, max_epochs=2,
                             weight_decay=0.0, early_stop_patience=2)
        snapshot = {k: p.data for k, p in vit.init_params(TINY, seed=0).items()}
        report, best = tr.train(x, y, plan, TINY, hp, seed=0)
        for k in snapshot:
            assert np.array_equal(best[k].data, snapshot[k])
        losses = [e["train_loss"] for e in report.epochs]
        assert losses[0] == pytest.approx(losses[-1], rel=1e-12)

    def test_early_stopping_patience(self):
        # validation accuracy can never improve: val labels all equal but the
        # train set is random, so accuracy is frozen at whatever epoch 0 gives
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(24, TINY.seq_len))
        y = np.zeros(24, dtype=int)
        plan = tr.SplitPlan(train=list(range(16)), val=list(range(16, 24)), test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(lr=0.0, batch_size=8, max_epochs=45)
        report, _ = tr.train(x, y, plan, TINY, hp, seed=0)
        assert len(report.epochs) <= 11

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match="lr"):
            tr.TrainHParams(lr=-1.0).validate()

    def test_best_checkpoint_tracks_max_val_accuracy(self):
        x, y = separable_dataset(n_per_class=8)
        plan = tr.SplitPlan(train=list(range(12)), val=list(range(12, 16)), test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(lr=3e-3, batch_size=8, max_epochs=20, early_stop_patience=20)
        report, _ = tr.train(x, y, plan, TINY, hp, seed=0)
        best = report.epochs[report.best_epoch]["val_accuracy"]
        assert best == max(e["val_accuracy"] for e in report.epochs)

    def test_non_finite_loss_names_batch_and_clears_tape(self):
        x, y = separable_dataset(n_per_class=4)
        x[:] = np.nan
        plan = tr.SplitPlan(train=list(range(6)), val=[6, 7], test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(batch_size=4, max_epochs=1)
        with pytest.raises(FloatingPointError, match="epoch 0, batch 0"):
            tr.train(x, y, plan, TINY, hp, seed=0)
        assert not ad._TAPE

    def test_failed_loss_leaves_no_tape(self):
        x, y = separable_dataset(n_per_class=4)
        plan = tr.SplitPlan(train=list(range(6)), val=[6, 7], test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(batch_size=4, max_epochs=1)
        with pytest.raises(ValueError, match="label out of range"):
            tr.train(x, y + TINY.n_classes, plan, TINY, hp, seed=0)
        assert not ad._TAPE


class TestMetrics:
    def test_perfect_classifier(self):
        y = np.array([0, 1, 0, 1, 1])
        probs = np.zeros((5, 2))
        probs[np.arange(5), y] = 1.0
        m = tr.evaluate_probs(probs, y)
        assert m["accuracy"] == 1.0
        assert m["per_class_auc"] == {"0": 1.0, "1": 1.0}
        assert m["macro_f1"] == 1.0

    def test_uniform_scores_auc_near_half(self):
        rng = np.random.default_rng(123)
        y = np.array([0, 1] * 1000)
        probs = rng.uniform(size=(2000, 1))
        probs = np.hstack([probs, 1 - probs])
        m = tr.evaluate_probs(probs, y)
        assert 0.45 <= m["per_class_auc"]["0"] <= 0.55
        assert 0.45 <= m["per_class_auc"]["1"] <= 0.55

    def test_anticlassifier(self):
        y = np.array([0, 1] * 10)
        probs = np.zeros((20, 2))
        probs[np.arange(20), 1 - y] = 1.0
        m = tr.evaluate_probs(probs, y)
        assert m["accuracy"] == 0.0
        assert m["per_class_auc"]["0"] == 0.0
        assert m["per_class_auc"]["1"] == 0.0

    def test_auc_negation_sums_to_one(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=200)
        y = rng.integers(0, 2, size=200).astype(bool)
        a1 = tr.auc(*tr.roc_curve(scores, y))
        a2 = tr.auc(*tr.roc_curve(-scores, y))
        assert a1 + a2 == pytest.approx(1.0, abs=1e-12)

    def test_absent_class_flagged(self):
        y = np.array([0, 0, 1, 1])
        probs = np.full((4, 3), 1 / 3)
        m = tr.evaluate_probs(probs, y)
        assert m["absent_classes"] == [2]

    def test_id_task_reports_top4_support(self):
        rng = np.random.default_rng(6)
        y = np.repeat(np.arange(6), [10, 8, 6, 4, 2, 1])
        probs = rng.uniform(size=(len(y), 6))
        probs /= probs.sum(axis=1, keepdims=True)
        m = tr.evaluate_probs(probs, y, task=Task.PARTICIPANT_ID)
        assert m["top4_classes_by_support"] == [0, 1, 2, 3]

import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import metrics_oracle as oracle
from gradcheck import fd_gradient, rel_error
from transecg import autodiff as ad
from transecg import training as tr
from transecg import vit
from transecg.autodiff import Tensor
from transecg.data_io import Task

TINY = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                     n_heads=2, mlp_dim=16, n_classes=2, survival_prob=1.0)


# the paper's 70/15/15 split
PAPER_FRACTIONS = (0.70, 0.15, 0.15)


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
        plan = tr.make_split(sids, offsets, Task.GENDER, seed=0, fractions=PAPER_FRACTIONS)
        assert plan.split_mode == "by_participant"
        groups = [{sids[i] for i in part} for part in (plan.train, plan.val, plan.test)]
        assert not (groups[0] & groups[1]) and not (groups[0] & groups[2])
        assert not (groups[1] & groups[2])
        assert len(plan.train) + len(plan.val) + len(plan.test) == 100
        assert len(groups[0]) == 7

    def test_within_participant_all_classes_everywhere(self):
        sids, offsets = make_windows(5, 8)
        plan = tr.make_split(sids, offsets, Task.PARTICIPANT_ID, seed=1, fractions=PAPER_FRACTIONS)
        assert plan.split_mode == "within_participant"
        for part in (plan.train, plan.val, plan.test):
            assert {sids[i] for i in part} == {
                f"S{s:03d}" for s in range(5)
            }

    def test_id_task_excludes_sparse_participants(self):
        sids, offsets = make_windows(3, 4)
        sids, offsets = sids + ["S999", "S999"], offsets + [0, 2000]
        plan = tr.make_split(sids, offsets, Task.PARTICIPANT_ID, seed=0, fractions=PAPER_FRACTIONS)
        used = {sids[i] for part in (plan.train, plan.val, plan.test) for i in part}
        assert "S999" not in used

    def test_deterministic_and_order_invariant(self):
        sids, offsets = make_windows(8, 6)
        a = tr.make_split(sids, offsets, Task.GENDER, seed=7, fractions=PAPER_FRACTIONS)
        b = tr.make_split(sids, offsets, Task.GENDER, seed=7, fractions=PAPER_FRACTIONS)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
        # shuffled input ordering maps to the same window identities
        perm = np.random.default_rng(0).permutation(len(sids))
        sids2, offsets2 = [sids[i] for i in perm], [offsets[i] for i in perm]
        c = tr.make_split(sids2, offsets2, Task.GENDER, seed=7, fractions=PAPER_FRACTIONS)
        def keyset(s, o, idx):
            return sorted((s[i], o[i]) for i in idx)
        assert keyset(sids, offsets, a.train) == keyset(sids2, offsets2, c.train)
        assert keyset(sids, offsets, a.test) == keyset(sids2, offsets2, c.test)

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError):
            tr.make_split(*make_windows(1, 2), Task.GENDER, seed=0, fractions=PAPER_FRACTIONS)

    @pytest.mark.parametrize("n, sizes", [(3, (1, 1, 1)), (4, (2, 1, 1)), (5, (3, 1, 1)),
                                          (6, (4, 1, 1)), (7, (5, 1, 1)), (8, (6, 1, 1))])
    def test_by_participant_split_of_few_participants(self, n, sizes):
        sids, offsets = make_windows(n, 3)
        plan = tr.make_split(sids, offsets, Task.GENDER, seed=0, fractions=PAPER_FRACTIONS)
        parts = (plan.train, plan.val, plan.test)
        assert tuple(len({sids[i] for i in part}) for part in parts) == sizes
        assert tuple(len(part) for part in parts) == tuple(3 * k for k in sizes)

    def test_by_participant_split_of_two_participants_refused(self):
        with pytest.raises(ValueError, match=r"needs at least 3 participants.* come from 2$"):
            tr.make_split(*make_windows(2, 5), Task.GENDER, seed=0, fractions=PAPER_FRACTIONS)

    def test_no_train_window_refused_naming_the_fraction(self):
        with pytest.raises(ValueError, match=r"within_participant split leaves no train window "
                                             r".*raise the train fraction \(0.2\)"):
            tr.make_split(*make_windows(2, 4), Task.PARTICIPANT_ID, seed=0,
                          fractions=(0.2, 0.4, 0.4))

    def test_within_participant_split_of_too_few_windows_names_the_cause(self):
        with pytest.raises(ValueError, match=r"within_participant split needs 3 windows of a "
                                             r"participant, but each of the 5 participants "
                                             r"has at most 2$"):
            tr.make_split(*make_windows(5, 2), Task.PARTICIPANT_ID, seed=0,
                          fractions=PAPER_FRACTIONS)


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
        assert report["epochs"][-1]["train_accuracy"] >= 0.95

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
        losses = [e["train_loss"] for e in report["epochs"]]
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
        assert len(report["epochs"]) <= 11

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match="lr"):
            tr.TrainHParams(lr=-1.0).validate()

    def test_best_checkpoint_tracks_max_val_accuracy(self):
        x, y = separable_dataset(n_per_class=8)
        plan = tr.SplitPlan(train=list(range(12)), val=list(range(12, 16)), test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(lr=3e-3, batch_size=8, max_epochs=20, early_stop_patience=20)
        report, _ = tr.train(x, y, plan, TINY, hp, seed=0)
        best = report["epochs"][report["best_epoch"]]["val_accuracy"]
        assert best == max(e["val_accuracy"] for e in report["epochs"])

    def test_non_finite_loss_names_batch_and_clears_tape(self):
        x, y = separable_dataset(n_per_class=4)
        x[:] = np.nan
        plan = tr.SplitPlan(train=list(range(6)), val=[6, 7], test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(batch_size=4, max_epochs=1)
        with pytest.raises(FloatingPointError, match="epoch 0, batch 0"):
            tr.train(x, y, plan, TINY, hp, seed=0)
        assert not ad._TAPE

    def test_val_loss_is_the_training_loss_of_val_logits(self, monkeypatch):
        # a probability floored at 1e-12 read 27.63 for a window 40 nats wrong
        x, y = separable_dataset(n_per_class=4)
        plan = tr.SplitPlan(train=[0, 1, 4, 5], val=[2, 3], test=[],
                            split_mode="by_participant")
        forward = vit.forward

        def confidently_wrong(x, params, config, training=False, **kwargs):
            art = forward(x, params, config, training=training, **kwargs)
            if not training:
                art.logits = Tensor(np.tile([0.0, 40.0], (len(art.logits.data), 1)))
            return art

        monkeypatch.setattr(vit, "forward", confidently_wrong)
        hp = tr.TrainHParams(lr=0.0, batch_size=4, max_epochs=1)
        report, _ = tr.train(x, y, plan, TINY, hp, seed=0)
        assert y[plan.val].tolist() == [0, 0]
        assert report["epochs"][0]["val_loss"] == 40.0
        assert report["epochs"][0]["val_accuracy"] == 0.0

    def test_failed_loss_leaves_no_tape(self):
        x, y = separable_dataset(n_per_class=4)
        plan = tr.SplitPlan(train=list(range(6)), val=[6, 7], test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(batch_size=4, max_epochs=1)
        with pytest.raises(ValueError, match="label out of range"):
            tr.train(x, y + TINY.n_classes, plan, TINY, hp, seed=0)
        assert not ad._TAPE

    def test_predict_logits_matches_per_window_forwards(self, monkeypatch):
        params = vit.init_params(TINY, seed=0)
        forward, sizes = vit.forward, []
        lock, inside, most = threading.Lock(), [0], [0]

        def recorded(x, *args, **kwargs):
            with lock:
                sizes.append(len(x))
                inside[0] += len(x)
                most[0] = max(most[0], inside[0])
            try:
                return forward(x, *args, **kwargs)
            finally:
                with lock:
                    inside[0] -= len(x)

        monkeypatch.setattr(vit, "forward", recorded)
        for n in range(1, 12):
            x = np.random.default_rng(n).normal(size=(n, TINY.seq_len))
            got = tr.predict_logits(params, TINY, x)
            want = np.concatenate([forward(x[i:i + 1], params, TINY).logits.data
                                   for i in range(n)])
            assert np.array_equal(got, want), n
        assert set(sizes) == {1}
        assert sum(sizes) == sum(range(1, 12))
        assert most[0] <= tr.FORWARD_CHUNK

    def test_predict_logits_runs_forward_chunk_windows_at_once_on_many_cores(self, monkeypatch):
        if tr.blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread count setter: one worker runs")
        params = vit.init_params(TINY, seed=0)
        forward = vit.forward
        # each of the first FORWARD_CHUNK forwards waits until all of them have begun
        together = threading.Barrier(tr.FORWARD_CHUNK, timeout=30)
        lock, inside, most, calls = threading.Lock(), [0], [0], [0]

        def recorded(x, *args, **kwargs):
            with lock:
                calls[0] += 1
                first = calls[0] <= tr.FORWARD_CHUNK
                inside[0] += len(x)
                most[0] = max(most[0], inside[0])
            try:
                if first:
                    together.wait()
                return forward(x, *args, **kwargs)
            finally:
                with lock:
                    inside[0] -= len(x)

        monkeypatch.setattr(tr, "_cores", lambda: 64)
        monkeypatch.setattr(vit, "forward", recorded)
        x = np.random.default_rng(0).normal(size=(3 * tr.FORWARD_CHUNK, TINY.seq_len))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches inside the hand-out
        try:
            got = tr.predict_logits(params, TINY, x)
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == tr.FORWARD_CHUNK
        assert calls[0] == len(x)
        assert np.array_equal(got, np.concatenate([forward(x[i:i + 1], params, TINY).logits.data
                                                   for i in range(len(x))]))

    def test_predict_logits_raises_a_helper_threads_error_and_restores_blas(self, monkeypatch):
        """Every window is one sample short; the calling thread forwards a good
        window once a helper's forward has raised, so the error is the helper's."""
        blas = tr.blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS exports no thread count setter: no helper thread runs")
        get, put = blas
        params = vit.init_params(TINY, seed=0)
        forward, good = vit.forward, np.zeros((1, TINY.seq_len))
        raised_in_helper, helper_raised = [], threading.Event()

        def recorded(x, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                assert helper_raised.wait(timeout=30)
                return forward(good, *args, **kwargs)
            try:
                return forward(x, *args, **kwargs)
            except ValueError as e:
                raised_in_helper.append(e)
                helper_raised.set()
                raise

        monkeypatch.setattr(tr, "_cores", lambda: 2)
        monkeypatch.setattr(vit, "forward", recorded)
        threads, previous = threading.active_count(), get()
        put(3)
        try:
            with pytest.raises(ValueError, match="window length 39 != seq_len 40") as info:
                tr.predict_logits(params, TINY, np.zeros((6, TINY.seq_len - 1)))
            assert get() == 3
        finally:
            put(previous)
        assert info.value is raised_in_helper[0]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("batch", [5, 11])
    def test_train_step_is_bit_identical_on_one_worker_two_workers_and_serially(
            self, monkeypatch, batch):
        """Each even chunk's forward first sleeps, so with two workers each odd
        chunk finishes first and must wait its turn to be added; thread switches
        are made more frequent, so that a lost update of the sums would show."""
        config = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                               n_heads=2, mlp_dim=16, n_classes=3, survival_prob=0.7)
        data = np.random.default_rng(batch)
        x = data.normal(size=(batch, config.seq_len))
        y = data.integers(0, config.n_classes, size=batch)
        forward, lock, inside, most, calls = vit.forward, threading.Lock(), [0], [0], []

        def recorded(xs, *args, **kwargs):
            first = int(np.flatnonzero((x == xs[0]).all(axis=1))[0])
            with lock:
                calls.append((threading.current_thread().name, first, len(xs)))
                inside[0] += len(xs)
                most[0] = max(most[0], inside[0])
            try:
                if first // 2 % 2 == 0:
                    time.sleep(0.02)
                return forward(xs, *args, **kwargs)
            finally:
                with lock:
                    inside[0] -= len(xs)

        def run(step, cores):
            monkeypatch.setattr(tr, "_cores", lambda: cores)
            params = vit.init_params(config, seed=batch)
            rng = np.random.default_rng(3)
            loss, correct = step(params, config, x, y, rng)
            return loss, correct, {name: p.grad for name, p in params.items()}, rng.random()

        want_loss, want_correct, want, want_next = run(_chunks_in_order_step, 1)
        assert any(grad is None for grad in want.values())  # a branch was dropped
        monkeypatch.setattr(vit, "forward", recorded)
        for cores in (1, 2):
            calls.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                loss, correct, got, next_draw = run(tr.train_step, cores)
            finally:
                sys.setswitchinterval(interval)
            assert (loss, correct, next_draw) == (want_loss, want_correct, want_next), cores
            for name, grad in want.items():
                assert (got[name] is None) == (grad is None), (cores, name)
                assert grad is None or np.array_equal(got[name], grad), (cores, name)
            assert sorted((first, n) for _, first, n in calls) == \
                [(lo, min(2, batch - lo)) for lo in range(0, batch, 2)]
            threads = {name for name, _, _ in calls}
            assert len(threads) == (1 if cores == 1 or tr.blas_threads() is None else 2)
        assert most[0] <= tr.FORWARD_CHUNK

    def test_a_chunk_failing_on_a_helper_thread_names_its_epoch_and_batch(self, monkeypatch):
        """The calling thread's first chunk waits until a helper thread has run
        the forward of its own, whose windows are NaN, so the helper's backward
        raises."""
        blas = tr.blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS exports no thread count setter: no helper thread runs")
        get, put = blas
        x, y = separable_dataset(n_per_class=6)
        plan = tr.SplitPlan(train=list(range(10)), val=[10, 11], test=[],
                            split_mode="by_participant")
        hp = tr.TrainHParams(batch_size=8, max_epochs=1)
        forward, backward = vit.forward, ad.backward
        helper_forwarded, raised = threading.Event(), []

        def recorded_forward(x, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                assert helper_forwarded.wait(timeout=30)
                return forward(x, *args, **kwargs)
            helper_forwarded.set()
            return forward(np.full_like(x, np.nan), *args, **kwargs)

        def recorded_backward(loss):
            try:
                return backward(loss)
            except FloatingPointError as e:
                raised.append((threading.current_thread() is threading.main_thread(), e))
                raise

        monkeypatch.setattr(tr, "_cores", lambda: 2)
        monkeypatch.setattr(vit, "forward", recorded_forward)
        monkeypatch.setattr(ad, "backward", recorded_backward)
        threads, previous = threading.active_count(), get()
        put(3)
        try:
            with pytest.raises(FloatingPointError,
                               match="loss is not finite at epoch 0, batch 0$") as info:
                tr.train(x, y, plan, TINY, hp, seed=0)
            assert get() == 3
        finally:
            put(previous)
        assert [in_main for in_main, _ in raised] == [False]
        assert info.value.__cause__ is raised[0][1]
        assert threading.active_count() == threads
        assert not ad._TAPE

    def test_train_peak_memory_does_not_grow_with_batch_size(self):
        """One epoch over 32 windows, whose activations (attention maps of 101
        tokens) outweigh the parameters: a step of 32 windows tapes no more at
        once than a step of 4."""
        config = vit.VitConfig(seq_len=400, patch_size=4, hidden_dim=16, n_layers=2,
                               n_heads=2, mlp_dim=16, n_classes=2, survival_prob=1.0)
        x = np.random.default_rng(0).normal(size=(36, config.seq_len))
        y = np.arange(36) % 2
        plan = tr.SplitPlan(train=list(range(32)), val=list(range(32, 36)), test=[],
                            split_mode="by_participant")

        def peak(batch_size):
            tracemalloc.start()
            try:
                tr.train(x, y, plan, config, tr.TrainHParams(batch_size=batch_size, max_epochs=1),
                         seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) <= 2 * peak(4)


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


@st.composite
def scored_labels(draw):
    """(probs [n, k], y) with k 2-8 and n 1-60: labels from a drawn subset of the
    classes (so some are absent, or all but one), and scores either floats or small
    integers, whose ties exercise the argmax and ROC tie rules."""
    k = draw(st.integers(2, 8))
    n = draw(st.integers(1, 60))
    present = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    y = draw(hnp.arrays(np.int64, n, elements=st.sampled_from(present)))
    score = draw(st.sampled_from([st.integers(0, 3).map(float), st.floats(0, 1)]))
    return draw(hnp.arrays(np.float64, (n, k), elements=score)), y


@settings(deadline=None)
@given(case=scored_labels(), task=st.sampled_from(list(Task)))
def test_evaluate_probs_matches_per_class_oracle(case, task):
    probs, y = case
    got = tr.evaluate_probs(probs, y, task=task)
    want = oracle.evaluate_probs(probs, y, task=task)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# The training step as it ran before chunking, kept as the oracle: one forward,
# loss and backward over the whole batch.


def _whole_batch_step(params, config, x, y, rng):
    with ad.recording():
        logits = vit.forward(x, params, config, training=True,
                             keep=vit.draw_keep(config, rng)).logits
        loss = tr.cross_entropy(logits, y)
        ad.backward(loss)
    return float(loss.data), int(np.sum(np.argmax(logits.data, axis=1) == y))


def _chunks_in_order_step(params, config, x, y, rng):
    """train_step's sums spelled out on one thread: windows in chunks of
    FORWARD_CHUNK // 2, each chunk's gradients taken on copies of the
    parameters, then added onto theirs in chunk order."""
    keep = vit.draw_keep(config, rng)
    size = tr.FORWARD_CHUNK // 2
    loss, correct = 0.0, 0
    for lo in range(0, len(x), size):
        xs, ys = x[lo:lo + size], y[lo:lo + size]
        own = {name: Tensor(p.data, requires_grad=True) for name, p in params.items()}
        with ad.recording():
            logits = vit.forward(xs, own, config, training=True, keep=keep).logits
            part = ad.scale(tr.cross_entropy(logits, ys), len(xs) / len(x))
            ad.backward(part)
        for name, p in params.items():
            grad = own[name].grad
            if grad is not None:
                p.grad = grad if p.grad is None else p.grad + grad
        loss += float(part.data)
        correct += int(np.sum(np.argmax(logits.data, axis=1) == ys))
    return loss, correct


@settings(deadline=None)
@given(n_patches=st.integers(1, 5), patch_size=st.integers(1, 3),
       hidden_dim=st.integers(3, 7), n_heads=st.integers(1, 3), n_layers=st.integers(1, 2),
       mlp_dim=st.integers(1, 4), n_classes=st.integers(2, 3), batch=st.integers(1, 11),
       survival_prob=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_chunked_train_step_matches_whole_batch(n_patches, patch_size, hidden_dim, n_heads,
                                                n_layers, mlp_dim, n_classes, batch,
                                                survival_prob, seed):
    """train_step draws as often as the whole-batch step, its loss is within
    1e-12 relative, it counts as many windows right, and every parameter
    gradient is within 1e-12 of the model's largest gradient entry (hidden_dim
    starts at 3 for the reason given in test_vit's class-token property)."""
    config = vit.VitConfig(seq_len=n_patches * patch_size, patch_size=patch_size,
                           hidden_dim=hidden_dim, n_layers=n_layers,
                           n_heads=min(n_heads, hidden_dim), mlp_dim=mlp_dim,
                           n_classes=n_classes, survival_prob=survival_prob)
    data = np.random.default_rng(seed)
    x = data.normal(size=(batch, config.seq_len))
    y = data.integers(0, n_classes, size=batch)

    def run(step):
        # unit-scale weights, so that attention is far from uniform
        init = np.random.default_rng(seed)
        params = {name: Tensor(init.normal(size=shape), requires_grad=True)
                  for name, shape in vit.param_shapes(config).items()}
        rng = np.random.default_rng(seed)
        loss, correct = step(params, config, x, y, rng)
        return loss, correct, {name: p.grad for name, p in params.items()}, rng.random()

    got_loss, got_correct, got, got_next = run(tr.train_step)
    want_loss, want_correct, want, want_next = run(_whole_batch_step)
    assert got_next == want_next                       # as many draws per step
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    assert got_correct == want_correct
    assert [name for name in want if got[name] is None] == \
        [name for name in want if want[name] is None]
    scale = max(np.abs(grad).max() for grad in want.values() if grad is not None)
    for name, grad in want.items():
        if grad is not None:
            assert np.abs(got[name] - grad).max() <= 1e-12 * scale, name

"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every check is scored against an independent oracle: finite differences for
gradients, generator ground truth for detection and delineation, closed-form
values for losses and metrics, and byte comparison for reproducibility.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import fd_gradient, project, rel_error
from transecg import autodiff as ad
from transecg import cli, delineation, explain, signal_core, training, vit
from transecg.autodiff import Tensor
from transecg.data_io import DEFAULT_WAVES, SyntheticEcgSpec, Task, WaveParams, synthesize
from transecg.delineation import BASE_INTERVALS, IntervalMap
from transecg.training import SplitPlan, TrainHParams, cross_entropy

TINY = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                     n_heads=2, mlp_dim=16, n_classes=3, survival_prob=1.0)


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {criterion:2d}: {name}{suffix}", file=sys.stderr)
    assert ok, f"criterion {criterion}: {name}{suffix}"


def test_01_gradient_oracle():
    """Autodiff gradients match central finite differences."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst_op = 0.0

    def check(build, arrays):
        nonlocal worst_op
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        with ad.recording():
            ad.backward(project(build(tensors)))

        def scalar(arrs):
            return float(project(build([Tensor(a) for a in arrs])).data)

        for i, t in enumerate(tensors):
            worst_op = max(worst_op, rel_error(t.grad, fd_gradient(scalar, arrays, i)))

    check(lambda t: ad.matmul(t[0], t[1]),
          [rng.normal(size=(4, 5)), rng.normal(size=(5, 3))])
    w = [rng.normal(size=shape)
         for shape in ((3, 6), (2, 8), (2, 3, 4), (2, 8), (2, 3, 5), (2, 1, 4))]
    check(lambda t: project(ad.softmax(t[0], axis=-1), w[0]), [rng.normal(size=(3, 6))])
    check(lambda t: project(ad.layer_norm(t[0], t[1], t[2]), w[1]),
          [rng.normal(size=(2, 8)), rng.normal(size=8), rng.normal(size=8)])
    check(lambda t: ad.gelu(t[0]), [rng.normal(size=(3, 5))])
    check(lambda t: project(ad.attention(t[0], t[1], t[2], 2)[0], w[2]),
          [rng.normal(size=(2, 3, 4)) for _ in range(3)])
    # one query row against three keys, as the last encoder layer runs it
    check(lambda t: project(ad.attention(t[0], t[1], t[2], 2)[0], w[5]),
          [rng.normal(size=shape) for shape in ((2, 1, 4), (2, 3, 4), (2, 3, 4))])
    check(lambda t: project(ad.layer_norm(t[0], t[1], t[2], residual=t[3],
                                          residual_scale=1.25), w[3]),
          [rng.normal(size=(2, 8)), rng.normal(size=8), rng.normal(size=8),
           rng.normal(size=(2, 8))])
    check(lambda t: project(ad.matmul(t[0], t[1], t[2]), w[4]),
          [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)])
    check(lambda t: ad.cross_entropy(t[0], np.array([0, 2, 1, 2])),
          [3 * rng.normal(size=(4, 3))])

    params = vit.init_params(TINY, seed=0)
    x = rng.uniform(size=(2, TINY.seq_len))
    y = np.array([0, 2])
    with ad.recording():
        ad.backward(cross_entropy(vit.forward(x, params, TINY).logits, y))
    worst_model = 0.0
    # the last layer's keys and values still see every token
    for key in ("embed.E", "layers.0.w_q", "layers.1.w_k", "layers.1.w_v",
                "layers.1.ffn.w1", "head.w"):
        param = params[key]
        arr = param.data

        def scalar(arrs):
            param.data = arrs[0]
            val = float(cross_entropy(vit.forward(x, params, TINY).logits, y).data)
            param.data = arr
            return val

        worst_model = max(worst_model,
                          rel_error(param.grad, fd_gradient(scalar, [arr.copy()], 0)))
    elapsed = time.monotonic() - start
    ok = worst_op < 1e-4 and worst_model < 1e-3 and elapsed < 120
    report(1, "gradients match finite differences", ok,
           f"op err {worst_op:.2e}, model err {worst_model:.2e}, {elapsed:.1f}s")


def test_02_attention_invariants():
    """Attention rows are stochastic and importance is a bounded sub-distribution."""
    start = time.monotonic()
    params = vit.init_params(TINY, seed=1)
    ok = True
    for trial in range(100):
        x = np.random.default_rng(trial).normal(size=(1, TINY.seq_len))
        z = vit.embed_patches(Tensor(x), params, TINY)
        for layer in range(TINY.n_layers):
            z, maps = vit.encoder_layer(z, params, layer, TINY, capture=True)
            ok &= bool(np.allclose(maps.sum(axis=-1), 1.0, atol=1e-6))
        art = vit.forward(x, params, TINY, capture_attention=True)
        importance = explain.extract_importance(art)[0].mean(axis=0)
        ok &= bool(np.all(importance >= 0.0))
        ok &= bool(importance.sum() <= 1.0 + 1e-9)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(2, "attention rows stochastic, importance bounded", ok,
           f"100 forwards in {elapsed:.1f}s")


def test_03_filter_response():
    """Bandpass attenuates drift, passes the QRS band, and adds no lag."""
    fs = 250.0
    spec = signal_core.FilterSpec(0.5, 40.0, 4, fs)
    sos = signal_core.design_butterworth_bandpass(spec)
    stop_db = -20 * np.log10(max(signal_core.sos_gain(sos, 0.2, fs), 1e-300))
    pass_db = abs(20 * np.log10(signal_core.sos_gain(sos, 10.0, fs)))
    # forward-backward filtering doubles the magnitude response
    stop_db *= 2
    pass_db *= 2

    t = np.arange(int(8 * fs)) / fs
    tone = np.sin(2 * np.pi * 10.0 * t)
    filtered = signal_core.filtfilt(sos, tone)
    mid = slice(int(fs), int(7 * fs))
    xc = np.correlate(filtered[mid], tone[mid], mode="full")
    lag = abs(int(np.argmax(xc)) - (len(xc) // 2))

    ok = stop_db >= 20.0 and pass_db <= 1.0 and lag <= 1
    report(3, "filter response and zero lag", ok,
           f"0.2 Hz atten {stop_db:.1f} dB, 10 Hz ripple {pass_db:.2f} dB, lag {lag}")


def test_04_r_peak_detection():
    """Detector recall and precision >= 0.95 over a 30-record synthetic corpus."""
    tol_s = 0.020
    hits = misses = false_alarms = 0
    for k in range(30):
        rng = np.random.default_rng(1000 + k)
        bpm = float(rng.uniform(60.0, 120.0))
        record, beats = synthesize(SyntheticEcgSpec(
            bpm=bpm, duration_s=30.0, fs=250.0, noise_std=0.02, seed=k,
        ))
        peaks = delineation.pan_tompkins(record.samples, record.fs)
        tol = int(round(tol_s * record.fs))
        truth_set = [b.r for b in beats]
        matched = set()
        for p in peaks:
            close = [i for i, r in enumerate(truth_set)
                     if abs(int(p) - r) <= tol and i not in matched]
            if close:
                matched.add(close[0])
                hits += 1
            else:
                false_alarms += 1
        misses += len(truth_set) - len(matched)
    recall = hits / (hits + misses)
    precision = hits / (hits + false_alarms)
    ok = recall >= 0.95 and precision >= 0.95
    report(4, "R-peak recall/precision >= 0.95", ok,
           f"recall {recall:.3f}, precision {precision:.3f}")


def test_05_delineation_accuracy():
    """Q/S land within 3 samples of truth and base intervals never overlap."""
    record, beats = synthesize(SyntheticEcgSpec(bpm=60.0, duration_s=20.0, fs=250.0))
    peaks = delineation.pan_tompkins(record.samples, record.fs)
    fids = delineation.delineate(record.samples, peaks, record.fs)
    by_r = {f.r: f for f in fids}
    worst = 0
    checked = 0
    for beat in beats:
        match = [r for r in by_r if abs(r - beat.r) <= 3]
        if not match or beat.q is None or beat.s is None:
            continue
        f = by_r[match[0]]
        worst = max(worst, abs(f.q - beat.q), abs(f.s - beat.s))
        checked += 1

    imap = delineation.intervals(fids)
    disjoint = True
    for beat in imap.beats:
        spans = sorted(beat[name] for name in BASE_INTERVALS if name in beat)
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            disjoint &= hi1 <= lo2

    ok = checked >= len(beats) - 2 and worst <= 3 and disjoint
    report(5, "delineation within 3 samples, intervals disjoint", ok,
           f"{checked} beats, worst err {worst}, disjoint={disjoint}")


def _separable(n_per_class, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, amp in ((0, 0.2), (1, 0.9)):
        for _ in range(n_per_class):
            x = 0.05 * rng.normal(size=TINY.seq_len)
            x[15:25] += amp
            xs.append(x)
            ys.append(label)
    order = rng.permutation(2 * n_per_class)
    return np.array(xs)[order], np.array(ys)[order]


def test_06_learning_sanity():
    """The model separates an easy two-class task and generalizes."""
    cfg = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                        n_heads=2, mlp_dim=16, n_classes=2, survival_prob=1.0)
    x, y = _separable(40)
    n = len(y)
    n_train, n_val = int(0.7 * n), int(0.15 * n)
    plan = SplitPlan(train=list(range(n_train)),
                     val=list(range(n_train, n_train + n_val)),
                     test=list(range(n_train + n_val, n)),
                     split_mode="by_participant")
    hp = TrainHParams(lr=1e-2, batch_size=8, max_epochs=200, weight_decay=0.0,
                      early_stop_patience=30)
    rep, best = training.train(x, y, plan, cfg, hp, seed=0)
    train_acc = max(e["train_accuracy"] for e in rep["epochs"])
    test = training.evaluate_probs(training.predict_probs(best, cfg, x[plan.test]), y[plan.test])
    ok = train_acc >= 0.95 and test["accuracy"] >= 0.80
    report(6, "learning sanity on a separable task", ok,
           f"train {train_acc:.2f}, held-out {test['accuracy']:.2f}, "
           f"{len(rep['epochs'])} epochs")


def test_07_identity_task():
    """Eight-subject identification beats 3x chance on held-out windows."""
    cfg = vit.VitConfig(seq_len=1000, patch_size=50, hidden_dim=8, n_layers=2,
                        n_heads=2, mlp_dim=16, n_classes=8, survival_prob=1.0)
    xs, subject_ids, offsets, y = [], [], [], []
    for i in range(8):
        # per-subject morphology: distinct T/P amplitudes, widths and timing
        waves = dict(DEFAULT_WAVES)
        waves["T"] = WaveParams(0.250 + 0.01 * (i % 4), 0.15 + 0.5 * i / 7.0, 0.060)
        waves["P"] = WaveParams(-0.180 - 0.008 * (i % 4), 0.12 + 0.02 * (i % 3), 0.025)
        record, _ = synthesize(SyntheticEcgSpec(
            bpm=60.0, duration_s=48.0, fs=250.0, waves=waves,
            noise_std=0.01, seed=i,
        ))
        rows = signal_core.window(record.samples, cfg.seq_len)
        xs.extend(rows)
        subject_ids += [f"S{i:03d}"] * len(rows)
        offsets += range(0, len(rows) * cfg.seq_len, cfg.seq_len)
        y += [i] * len(rows)
    x, y = np.array(xs), np.array(y)
    plan = training.make_split(subject_ids, offsets, Task.PARTICIPANT_ID, seed=0,
                               fractions=(0.70, 0.15, 0.15))
    hp = TrainHParams(lr=1e-2, batch_size=8, max_epochs=100, weight_decay=0.0,
                      early_stop_patience=30)
    _, best = training.train(x, y, plan, cfg, hp, seed=0)
    test = training.evaluate_probs(training.predict_probs(best, cfg, x[plan.test]),
                                   y[plan.test], task=Task.PARTICIPANT_ID)
    ok = test["accuracy"] >= 0.375
    report(7, "8-way identification >= 37.5% held-out", ok,
           f"accuracy {test['accuracy']:.3f} on {len(plan.test)} windows")


def test_08_attribution_arithmetic():
    """Interval attribution reproduces hand-computed fixtures exactly."""
    cfg = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                        n_heads=2, mlp_dim=16, n_classes=2, survival_prob=1.0)
    imap = IntervalMap(beats=[{
        "P_WAVE": (0, 5), "PQ_SEGMENT": (5, 10), "QRS": (10, 20),
        "ST_SEGMENT": (20, 25), "T_WAVE": (25, 35), "TQ_BASELINE": (35, 40),
    }])
    focused, uniform, rng_rep = (
        explain.aggregate([explain.attribute(importance, imap, cfg.patch_size)], "gender", [1.0])
        for importance in (np.array([0.0, 0.7, 0.0, 0.0]), np.full(4, 0.25),
                           np.random.default_rng(0).uniform(size=4))
    )

    ok = focused["percentages"]["QRS"] == pytest.approx(100.0)
    ok &= focused["top3"][0]["feature"] == "R-Wave (QRS Complex)"
    ok &= uniform["percentages"]["QRS"] == pytest.approx(25.0)
    ok &= uniform["percentages"]["P_WAVE"] == pytest.approx(12.5)
    for rep in (focused, uniform, rng_rep):
        ok &= abs(sum(rep["percentages"].values()) - 100.0) <= 0.01
        values = [t["percent"] for t in rep["top3"]]
        ok &= values == sorted(values, reverse=True)
        names = {t["feature"] for t in rep["top3"]}
        ok &= not ({"R-Wave (QRS Complex)", "Q-T Interval"} <= names)
    report(8, "attribution arithmetic and top-3 structure", bool(ok))


def test_09_metric_closed_forms():
    """Metrics agree with closed-form values on constructed inputs."""
    rng = np.random.default_rng(42)
    y = np.array([0, 1] * 1000)
    p = rng.uniform(size=(2000, 1))
    uniform = training.evaluate_probs(np.hstack([p, 1 - p]), y)
    auc0 = uniform["per_class_auc"]["0"]

    y2 = np.array([0, 1, 0, 1, 1])
    perfect_probs = np.zeros((5, 2))
    perfect_probs[np.arange(5), y2] = 1.0
    perfect = training.evaluate_probs(perfect_probs, y2)

    ce = float(cross_entropy(Tensor(np.full((5, 4), 0.25)),    # equal logits
                             np.array([0, 1, 2, 3, 0])).data)

    ok = 0.45 <= auc0 <= 0.55
    ok &= perfect["per_class_auc"] == {"0": 1.0, "1": 1.0}
    ok &= perfect["accuracy"] == 1.0
    ok &= abs(ce - np.log(4.0)) <= 1e-9
    report(9, "metrics match closed forms", bool(ok),
           f"uniform AUC {auc0:.3f}, CE-ln4 {abs(ce - np.log(4.0)):.1e}")


def test_10_pipeline_reproducibility(tmp_path):
    """Two identical CLI runs produce byte-identical artifacts."""
    start = time.monotonic()
    args = [
        "--set", "seq_len=1000", "--set", "patch_size=50",
        "--set", "hidden_dim=8", "--set", "n_layers=2", "--set", "n_heads=2",
        "--set", "mlp_dim=16", "--set", "survival_prob=0.8",
        "--set", "synth_subjects=8", "--set", "synth_duration_s=16",
        "--set", "max_epochs=3", "--set", "batch_size=8",
        "--set", "lr=0.001", "--set", "explain_windows=4",
    ]
    compare = ["model.ckpt", "train_report.json", "metrics.json",
               "explain/attribution.json", "explain/attribution.svg",
               "explain/attribution_per_head.csv", "explain/attribution_intervals.csv"]
    outputs = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        for command in ("synth", "preprocess", "train", "evaluate", "explain"):
            code = cli.main([command, "--workdir", str(workdir), "--seed", "0",
                             "--task", "gender", *args])
            assert code == 0, command
        outputs.append({rel: (workdir / rel).read_bytes() for rel in compare})
    elapsed = time.monotonic() - start
    identical = all(outputs[0][rel] == outputs[1][rel] for rel in compare)
    ok = identical and elapsed < 900
    report(10, "pipeline byte-reproducible across runs", ok,
           f"{len(compare)} artifacts, {elapsed:.1f}s")

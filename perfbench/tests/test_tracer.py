"""Span arithmetic, the tail-percentile rule, and wrapper removal."""

import numpy as np
import pytest

import tracer
from tracer import (TARGETS, Tracer, percentile, self_times, tail_percentile, target_owner,
                    wrapped_attributes)


def test_self_time_subtracts_direct_children_only():
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (5.0, 7.0, 0), (2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, None), (1.0, 5.0, 0), (3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [(0.0, 10.0, None), (8.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(8.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values[::-1], 99) == 99
    assert percentile([7.0], 99.9) == 7.0


@pytest.mark.parametrize("n, q", [
    (5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_tail_rule_holds_for_every_sample_count():
    for n in range(20, 3000):
        q = tail_percentile(n)
        beyond = [v for v in range(n) if v + 1 > tracer.rank(q, n)]
        assert len(beyond) >= 10
        higher = [c for c in tracer.TAIL_CANDIDATES if c > q]
        assert all(n - tracer.rank(c, n) < 10 for c in higher)


def _originals():
    out = {}
    for module_name, path, _ in TARGETS:
        owner, attr = target_owner(module_name, path)
        out[(module_name, path)] = vars(owner)[attr]
    return out


def _tiny_train_and_capture():
    from transecg import autodiff as ad
    from transecg import explain, training, vit

    config = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=12, n_layers=2,
                           n_heads=2, mlp_dim=8, n_classes=2, survival_prob=0.5)
    rng = np.random.default_rng(0)
    x = rng.random((12, 40))
    y = np.arange(12) % 2
    plan = training.SplitPlan(list(range(8)), [8, 9], [10, 11], "by_participant")
    hparams = training.TrainHParams(batch_size=4, max_epochs=2)
    _, params = training.train(x, y, plan, config, hparams, seed=0)
    art = vit.forward(x[:1], params, config, capture_attention=True)
    explain.extract_importance(art)
    ad._TAPE.clear()


def test_wrappers_are_installed_then_removed():
    before = _originals()
    t = Tracer()
    t.install()
    try:
        assert not t.missing
        assert len(wrapped_attributes()) == len(TARGETS)
        _tiny_train_and_capture()
    finally:
        t.uninstall()
    assert wrapped_attributes() == []
    assert _originals() == before


def test_traced_training_records_steps_and_ratios():
    t = Tracer()
    t.install()
    try:
        _tiny_train_and_capture()
    finally:
        t.uninstall()
    s = t.summary()
    steps = 2 * 2                                   # 2 epochs of 2 batches
    assert len(s["ms"]["autodiff.backward"]) == steps
    assert len(s["step_tape"]) == steps and min(s["step_tape"]) > 0
    assert all(len(v) == steps for v in s["step_ops"].values())
    assert sum(calls for _, calls in s["step_ops"]["matmul"]) > 0
    assert s["counts"]["mhsa_outputs"] == steps * 2  # one MHSA per layer per step
    assert 0 <= s["counts"]["mhsa_used"] <= s["counts"]["mhsa_outputs"]
    assert set(s["ms"]) >= {"vit.forward.train", "vit.forward.nograd", "vit.forward.capture"}
    assert s["counts"]["windows_attempted"] == 1
    # an encoder layer's self time excludes its MHSA child
    layer = sum(s["ms"]["vit.encoder_layer"])
    assert sum(s["self_ms"]["vit.encoder_layer"]) < layer - 0.5 * sum(s["ms"]["vit.mhsa"])


def test_uninstall_refuses_a_surviving_wrapper():
    from transecg import autodiff

    t = Tracer()
    t.install()
    stray = autodiff.matmul
    t.uninstall()
    autodiff.matmul, original = stray, autodiff.matmul
    try:
        with pytest.raises(RuntimeError, match="autodiff.matmul"):
            Tracer().uninstall()
    finally:
        autodiff.matmul = original
    assert wrapped_attributes() == []

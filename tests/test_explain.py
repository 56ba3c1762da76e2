import json

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transecg import explain, vit
from transecg.autodiff import Tensor
from transecg.delineation import BASE_INTERVALS, IntervalMap
from transecg.vit import ForwardArtifacts

TINY = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=2,
                     n_heads=2, mlp_dim=16, n_classes=2, survival_prob=1.0)


def artifacts_with_attention(maps):
    """Wrap hand-built final-block attention into ForwardArtifacts."""
    return ForwardArtifacts(logits=None, attention=maps)


class TestExtractImportance:
    def test_uniform_attention(self):
        t = 5  # class token + 4 patches
        maps = np.full((1, 2, t, t), 1.0 / t)
        per_head = explain.extract_importance(artifacts_with_attention(maps))
        assert np.allclose(per_head.mean(axis=1), 1.0 / t)
        assert per_head.shape == (1, 2, 4)

    def test_bounds(self):
        params = vit.init_params(TINY, seed=0)
        x = np.random.default_rng(0).uniform(size=(1, TINY.seq_len))
        art = vit.forward(x, params, TINY, capture_attention=True)
        importance = explain.extract_importance(art)[0].mean(axis=0)
        assert np.all(importance >= 0)
        assert importance.sum() <= 1.0 + 1e-12

    def test_hand_built_two_heads(self):
        t = 7
        maps = np.zeros((1, 2, t, t))
        maps[0, 0, 0, 4] = 1.0   # head 0 attends fully to patch 3
        maps[0, 1, 0, 6] = 1.0   # head 1 attends fully to patch 5
        maps[0, :, 1:, 0] = 1.0  # keep other rows stochastic
        importance = explain.extract_importance(artifacts_with_attention(maps))[0].mean(axis=0)
        expected = np.zeros(6)
        expected[3] = expected[5] = 0.5
        assert np.array_equal(importance, expected)

    def test_missing_attention_rejected(self):
        art = ForwardArtifacts(logits=None, attention=None)
        with pytest.raises(ValueError):
            explain.extract_importance(art)

    def test_uses_final_block(self):
        params = vit.init_params(TINY, seed=0)
        x = np.random.default_rng(2).uniform(size=(1, TINY.seq_len))
        z = vit.embed_patches(Tensor(x), params, TINY)
        for layer in range(TINY.n_layers):
            z, maps = vit.encoder_layer(z, params, layer, TINY, capture=True)
        art = vit.forward(x, params, TINY, capture_attention=True)
        assert np.array_equal(art.attention, maps)
        assert np.array_equal(explain.extract_importance(art), maps[:, :, 0, 1:])

    def test_invariant_to_head_weight_perturbation(self):
        params = vit.init_params(TINY, seed=0)
        x = np.random.default_rng(1).uniform(size=(1, TINY.seq_len))
        a = explain.extract_importance(vit.forward(x, params, TINY, capture_attention=True))
        params["head.w"].data += 10.0
        b = explain.extract_importance(vit.forward(x, params, TINY, capture_attention=True))
        assert np.array_equal(a, b)


class TestHeadWeights:
    def test_equal_blocks_all_ones(self):
        params = vit.init_params(TINY, seed=0)
        w_o = params["layers.1.w_o"]
        w_o.data[:] = np.tile(w_o.data[: TINY.head_dim], (TINY.n_heads, 1))
        assert np.allclose(explain.head_weights(params, TINY), 1.0)

    def test_scaled_block_dominates(self):
        params = vit.init_params(TINY, seed=0)
        w_o = params["layers.1.w_o"]
        w_o.data[:] = np.tile(w_o.data[: TINY.head_dim], (TINY.n_heads, 1))
        w_o.data[TINY.head_dim:] *= 2.0  # head 1
        w = explain.head_weights(params, TINY)
        assert w[1] == 1.0
        assert w[0] == pytest.approx(0.5)

    def test_max_exactly_one(self):
        params = vit.init_params(TINY, seed=9)
        w = explain.head_weights(params, TINY)
        assert w.max() == 1.0
        assert np.all((w > 0) & (w <= 1.0))


class TestAttribute:
    @staticmethod
    def _interval_map():
        # one beat spanning [0, 40): QRS occupies patch 1 exactly
        return IntervalMap(beats=[{
            "P_WAVE": (0, 5), "PQ_SEGMENT": (5, 10), "QRS": (10, 20),
            "ST_SEGMENT": (20, 25), "T_WAVE": (25, 35), "TQ_BASELINE": (35, 40),
        }])

    @classmethod
    def _attribute(cls, importance):
        return explain.attribute(importance, cls._interval_map(), TINY.patch_size)

    @classmethod
    def _report(cls, importance):
        return explain.aggregate([cls._attribute(importance)], "gender", [1.0, 0.5])

    def test_importance_inside_qrs_gives_100(self):
        imp = np.zeros(4)
        imp[1] = 0.7
        assert self._attribute(imp)["QRS"] == pytest.approx(100.0)
        assert self._report(imp).top3[0] == ("R-Wave (QRS Complex)", pytest.approx(100.0))

    def test_uniform_importance_matches_lengths(self):
        pct = self._attribute(np.full(4, 0.2))
        # all 40 samples covered, so percent == interval length / 40
        assert pct["QRS"] == pytest.approx(25.0)
        assert pct["T_WAVE"] == pytest.approx(25.0)
        assert pct["P_WAVE"] == pytest.approx(12.5)

    def test_base_partition_sums_to_100(self):
        rng = np.random.default_rng(0)
        pct = self._attribute(rng.uniform(size=4))
        assert list(pct) == list(BASE_INTERVALS)
        assert sum(pct.values()) == pytest.approx(100.0, abs=0.01)

    def test_scale_invariance(self):
        imp = np.random.default_rng(1).uniform(size=4)
        a = self._attribute(imp)
        b = self._attribute(17.0 * imp)
        for name in BASE_INTERVALS:
            assert a[name] == pytest.approx(b[name], rel=1e-12)

    def test_composites_are_sums(self):
        rep = self._report(np.random.default_rng(2).uniform(size=4))
        p = rep.percentages
        assert rep.composites["P_R"] == pytest.approx(p["P_WAVE"] + p["PQ_SEGMENT"])
        assert rep.composites["S_T"] == pytest.approx(p["ST_SEGMENT"] + p["T_WAVE"])
        assert rep.composites["Q_T"] == pytest.approx(
            p["QRS"] + p["ST_SEGMENT"] + p["T_WAVE"])

    def test_top3_nonincreasing_and_disjoint(self):
        rep = self._report(np.random.default_rng(3).uniform(size=4))
        values = [v for _, v in rep.top3]
        assert values == sorted(values, reverse=True)
        names = [n for n, _ in rep.top3]
        assert len(set(names)) == len(names)
        # QRS counted once: R-Wave and Q-T cannot both appear
        assert not ({"R-Wave (QRS Complex)", "Q-T Interval"} <= set(names))

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="unattributable"):
            self._attribute(np.zeros(4))

    def test_aggregate_weighted_mean(self):
        windows = []
        for qrs_pct in (100.0, 40.0, 10.0):
            pct = {name: 0.0 for name in BASE_INTERVALS}
            pct["QRS"] = qrs_pct
            pct["T_WAVE"] = 100.0 - qrs_pct
            windows.append(pct)
        agg = explain.aggregate(windows, "age", [1.0, 0.5])
        assert agg.percentages["QRS"] == pytest.approx(50.0)
        assert agg.composites["Q_T"] == pytest.approx(100.0)
        assert agg.top3[0] == ("Q-T Interval", pytest.approx(100.0))
        assert agg.n_windows == 3
        assert agg.task == "age" and agg.head_weights == [1.0, 0.5]

    def test_aggregate_of_nothing_rejected(self):
        with pytest.raises(ValueError, match="nothing to aggregate"):
            explain.aggregate([], "gender", [1.0])


def overlap_masses(importance, interval_map, patch_size):
    """Reference attribution: spread each patch's importance over intervals in
    proportion to sample overlap, one beat and one patch at a time."""
    p = patch_size
    mass = {name: 0.0 for name in BASE_INTERVALS}
    for beat in interval_map.beats:
        for name in BASE_INTERVALS:
            if name not in beat:
                continue
            lo, hi = beat[name]
            first, last = lo // p, (hi - 1) // p
            for i in range(max(0, first), min(importance.size - 1, last) + 1):
                overlap = min(hi, (i + 1) * p) - max(lo, i * p)
                if overlap > 0:
                    mass[name] += importance[i] * overlap / p
    return mass


@st.composite
def attribution_cases(draw):
    n_patches = draw(st.integers(1, 8))
    patch_size = draw(st.integers(1, 12))
    seq_len = n_patches * patch_size
    importance = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        min_size=n_patches, max_size=n_patches)))
    span = st.tuples(st.integers(0, seq_len), st.integers(0, seq_len)).map(sorted).map(tuple)
    beats = draw(st.lists(
        st.dictionaries(st.sampled_from(BASE_INTERVALS), span), min_size=1, max_size=3))
    config = dataclasses.replace(TINY, seq_len=seq_len, patch_size=patch_size)
    return importance, IntervalMap(beats=beats), config


@given(attribution_cases())
def test_attribute_matches_overlap_oracle(case):
    importance, interval_map, config = case
    mass = overlap_masses(importance, interval_map, config.patch_size)
    total = sum(mass.values())
    if total <= 0.0:
        with pytest.raises(ValueError, match="unattributable"):
            explain.attribute(importance, interval_map, config.patch_size)
        return
    pct = explain.attribute(importance, interval_map, config.patch_size)
    for name in BASE_INTERVALS:
        assert pct[name] == pytest.approx(100.0 * mass[name] / total,
                                                      rel=1e-12, abs=0.0)


class TestEmitReport:
    @pytest.fixture
    def emitted(self, tmp_path):
        rng = np.random.default_rng(0)
        imp = rng.uniform(size=(TINY.n_heads, TINY.n_patches))
        interval_map = TestAttribute._interval_map()
        pct = explain.attribute(imp.mean(axis=0), interval_map, TINY.patch_size)
        rep = explain.aggregate([pct], "gender", [1.0, 0.5])
        window = rng.uniform(size=TINY.seq_len)
        paths = explain.emit_report(rep, imp, window, tmp_path)
        return rep, imp, paths

    def test_json_round_trip(self, emitted):
        rep, _, paths = emitted
        doc = json.loads(paths["json"].read_text())
        for name, value in rep.percentages.items():
            assert doc["percentages"][name] == value
        assert [t["feature"] for t in doc["top3"]] == [n for n, _ in rep.top3]

    def test_per_head_csv_rows(self, emitted):
        _, imp, paths = emitted
        lines = paths["per_head_csv"].read_text().splitlines()
        assert len(lines) == imp.size + 1
        assert lines[0] == "head,patch,importance"

    def test_svg_patch_count(self, emitted):
        _, _, paths = emitted
        svg = paths["svg"].read_text()
        assert svg.count('class="patch"') == TINY.n_patches
        assert "<polyline" in svg

    def test_deterministic_bytes(self, emitted, tmp_path):
        rep, imp, paths = emitted
        rng = np.random.default_rng(0)
        rng.uniform(size=(TINY.n_heads, TINY.n_patches))  # advance past imp draw
        window = rng.uniform(size=TINY.seq_len)
        paths2 = explain.emit_report(rep, imp, window, tmp_path / "again")
        for key in paths:
            assert paths[key].read_bytes() == paths2[key].read_bytes()

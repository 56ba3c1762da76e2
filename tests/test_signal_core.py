import dataclasses

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from scipy import signal as sps

from transecg import signal_core as sc
from transecg import training
from transecg.data_io import Task


@pytest.fixture
def bandpass():
    return sc.design_butterworth_bandpass(sc.FilterSpec(0.5, 40.0, 4, 250.0))


class TestFilterDesign:
    def test_dc_gain_is_zero(self, bandpass):
        assert sc.sos_gain(bandpass, 0.0, 250.0) < 1e-6

    def test_midband_gain_within_1db(self, bandpass):
        mid = np.sqrt(0.5 * 40.0)
        gain = sc.sos_gain(bandpass, mid, 250.0)
        assert 0.89 <= gain <= 1.12

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            sc.FilterSpec(40.0, 0.5, 4, 250.0)

    def test_high_edge_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            sc.FilterSpec(0.5, 130.0, 4, 250.0)

    @pytest.mark.parametrize("order", [1, 2, 4, 7])
    def test_pad_length_is_scipys_shortest_input(self, order):
        sos = sc.design_butterworth_bandpass(sc.FilterSpec(0.5, 40.0, order, 250.0))
        pad = sc.filter_pad_length(sos)
        with pytest.raises(ValueError, match="padlen"):
            sps.sosfiltfilt(sos, np.ones(pad))
        x = np.random.default_rng(order).normal(size=pad + 1)
        assert np.array_equal(sc.filtfilt(sos, x), sps.sosfiltfilt(sos, x))


class TestFiltfilt:
    def test_constant_killed(self, bandpass):
        out = sc.filtfilt(bandpass, np.full(2000, 3.7))
        assert np.max(np.abs(out)) < 1e-6

    def test_inband_sinusoid_preserved(self, bandpass):
        fs = 250.0
        t = np.arange(int(8 * fs)) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        y = sc.filtfilt(bandpass, x)
        core = slice(int(fs), int(7 * fs))  # skip edge transients
        amp = np.max(np.abs(y[core]))
        assert 10 ** (-1 / 20) <= amp <= 10 ** (1 / 20)
        # zero phase: cross-correlation peak lag <= 1 sample
        lags = np.arange(-5, 6)
        corr = [np.dot(y[core], np.roll(x, lag)[core]) for lag in lags]
        assert abs(lags[int(np.argmax(corr))]) <= 1

    def test_baseline_wander_attenuated(self, bandpass):
        fs = 250.0
        t = np.arange(int(40 * fs)) / fs
        x = np.sin(2 * np.pi * 0.2 * t)
        y = sc.filtfilt(bandpass, x)
        core = slice(int(10 * fs), int(30 * fs))
        ratio = np.sqrt(np.mean(y[core] ** 2)) / np.sqrt(np.mean(x[core] ** 2))
        assert 20 * np.log10(ratio) <= -20

    def test_nonfinite_rejected(self, bandpass):
        with pytest.raises(ValueError):
            sc.filtfilt(bandpass, np.array([1.0, np.nan, 2.0]))

    def test_linearity(self, bandpass):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=1000), rng.normal(size=1000)
        lhs = sc.filtfilt(bandpass, 2.5 * x - 1.5 * y)
        rhs = 2.5 * sc.filtfilt(bandpass, x) - 1.5 * sc.filtfilt(bandpass, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))

    def test_near_idempotent_in_band(self, bandpass):
        fs = 250.0
        t = np.arange(int(8 * fs)) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        once = sc.filtfilt(bandpass, x)
        twice = sc.filtfilt(bandpass, once)
        core = slice(int(fs), int(7 * fs))
        db = 20 * np.log10(np.max(np.abs(twice[core])) / np.max(np.abs(once[core])))
        assert abs(db) <= 2.0


class TestMedianFilter:
    def test_spike_removed(self):
        out = sc.median_filter(np.array([1.0, 9.0, 1.0, 1.0, 1.0]), 3)
        assert np.array_equal(out, np.ones(5))

    def test_ramp_unchanged(self):
        x = np.arange(20.0)
        out = sc.median_filter(x, 5)
        assert np.array_equal(out[2:-2], x[2:-2])

    def test_kernel_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=50)
        assert np.array_equal(sc.median_filter(x, 1), x)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            sc.median_filter(np.zeros(10), 4)


class TestResample:
    def test_identity_rate(self):
        x = np.random.default_rng(2).normal(size=500)
        assert np.allclose(sc.resample(x, 250, 250), x)

    def test_downsample_sinusoid(self):
        fs_in, fs_out = 500.0, 250.0
        t = np.arange(1000) / fs_in
        x = np.sin(2 * np.pi * 1.0 * t)
        y = sc.resample(x, fs_in, fs_out)
        assert y.size == 500
        t_out = np.arange(500) / fs_out
        assert np.max(np.abs(y - np.sin(2 * np.pi * t_out))) < 1e-3

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            sc.resample(np.array([1.0]), 250, 125)

    def test_round_trip_bandlimited(self):
        fs = 250.0
        t = np.arange(2000) / fs
        x = np.sin(2 * np.pi * 5 * t) + 0.5 * np.sin(2 * np.pi * 13 * t)
        back = sc.resample(sc.resample(x, 250, 500), 500, 250)
        n = min(back.size, x.size)
        assert np.max(np.abs(back[:n] - x[:n])) < 1e-2 * np.ptp(x)


class TestNormalize:
    def test_basic(self):
        assert np.allclose(sc.minmax_normalize(np.array([2.0, 4.0, 6.0])), [0, 0.5, 1])

    def test_constant_maps_to_zero(self):
        assert np.array_equal(sc.minmax_normalize(np.full(3, 5.0)), np.zeros(3))

    def test_range_is_unit(self):
        x = np.random.default_rng(3).normal(size=100)
        y = sc.minmax_normalize(x)
        assert y.min() == 0.0 and y.max() == 1.0

    def test_idempotent(self):
        x = np.random.default_rng(4).normal(size=100)
        y = sc.minmax_normalize(x)
        assert np.allclose(sc.minmax_normalize(y), y)


class TestWindow:
    def test_two_windows(self):
        x = np.arange(5000.0)
        wins = sc.window(x, 2000)
        assert wins.shape == (2, 2000)
        assert np.array_equal(wins[1], sc.minmax_normalize(x[2000:4000]))

    def test_short_record_excluded(self):
        assert sc.window(np.arange(1999.0), 2000).shape == (0, 2000)

    def test_exact_length_single_window(self):
        assert len(sc.window(np.arange(2000.0), 2000)) == 1

    @pytest.mark.parametrize("n,seq", [(7000, 2000), (6000, 2000), (2500, 500)])
    def test_window_count_formula(self, n, seq):
        wins = sc.window(np.arange(float(n)), seq)
        assert len(wins) == n // seq

    def test_windows_normalized(self):
        rng = np.random.default_rng(5)
        for w in sc.window(rng.normal(size=4000), 2000):
            assert w.min() == 0.0 and w.max() == 1.0


def per_window_loop(x, seq_len):
    """Reference windowing: normalize one slice at a time."""
    return [sc.minmax_normalize(x[o:o + seq_len]) for o in range(0, x.size - seq_len + 1, seq_len)]


@st.composite
def signals(draw):
    """Traces built from constant runs; runs of length 1 make them vary."""
    runs = draw(st.lists(st.tuples(st.floats(-1e6, 1e6), st.integers(1, 12)), max_size=8))
    return np.array([value for value, length in runs for _ in range(length)], dtype=np.float64)


@given(x=signals(), seq_len=st.integers(1, 20))
def test_window_matches_per_window_loop(x, seq_len):
    want = np.array(per_window_loop(x, seq_len), dtype=np.float64).reshape(-1, seq_len)
    got = sc.window(x, seq_len)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_record_is_samples_and_rate():
    """Whose record it is (subject, gender, age) is the manifest entry's to say."""
    assert tuple(f.name for f in dataclasses.fields(sc.EcgRecord)) == ("samples", "fs")


class TestPreprocessRecord:
    SPEC = sc.FilterSpec(0.5, 40.0, 4, 250.0)

    @staticmethod
    def _record(n):
        return sc.EcgRecord(np.random.default_rng(6).normal(size=n), 250.0)

    @pytest.mark.parametrize("seq_len,offsets", [(2000, [0, 2000]), (1000, [0, 1000, 2000, 3000])])
    def test_offsets_match_rows(self, seq_len, offsets):
        """Row i holds the processed trace's samples from i*seq_len, the offset
        preprocess stores for it; the trailing 999 samples make no row."""
        record = self._record(4999)
        wins, reason = sc.preprocess_record(record, self.SPEC, 250.0, 5, seq_len)
        assert reason is None
        sos = sc.design_butterworth_bandpass(self.SPEC)
        trace = sc.resample(sc.median_filter(sc.filtfilt(sos, record.samples), 5), 250.0, 250.0)
        assert wins.shape == (len(offsets), seq_len)
        for row, offset in zip(wins, offsets):
            assert np.array_equal(row, sc.minmax_normalize(trace[offset:offset + seq_len]))

    def test_short_record_logged_as_excluded(self):
        wins, reason = sc.preprocess_record(self._record(1999), self.SPEC, 250.0, 5, 2000)
        assert wins.shape == (0, 2000)
        assert reason == "1999 samples < window length 2000"

    def test_record_too_short_to_filter_logged_as_excluded(self):
        wins, reason = sc.preprocess_record(self._record(27), self.SPEC, 250.0, 5, 10)
        assert wins.shape == (0, 10)
        assert reason == "27 samples, too few to filter (needs more than 27)"


@given(seq_len=st.integers(1, 40), lengths=st.lists(st.integers(1, 400), min_size=1, max_size=2),
       val=st.floats(0.05, 0.4), test=st.floats(0.05, 0.4), seed=st.integers(0, 2**32 - 1))
def test_id_split_shares_no_sample_with_train(seq_len, lengths, val, test, seed):
    """A record's rows tile its trace, and are stored at offset i * seq_len as
    preprocess stores them. Split by the id task, no val or test window shares
    a sample with a train window."""
    spec = sc.FilterSpec(0.5, 40.0, 4, 250.0)
    pad = sc.filter_pad_length(sc.design_butterworth_bandpass(spec))
    rng = np.random.default_rng(seed)
    subject_ids, offsets = [], []
    for k, n in enumerate(lengths):
        wins, reason = sc.preprocess_record(sc.EcgRecord(rng.normal(size=n), 250.0), spec,
                                            250.0, 5, seq_len)
        assert len(wins) == (n // seq_len if n > pad else 0)  # resampling 250 Hz keeps n
        assert (reason is None) == bool(len(wins))
        subject_ids += [f"S{k}"] * len(wins)
        offsets += range(0, wins.size, seq_len)
    try:
        plan = training.make_split(subject_ids, offsets, Task.PARTICIPANT_ID, seed,
                                   fractions=(1 - val - test, val, test))
    except ValueError:  # too few windows to split: nothing is scored
        event("split refused")
        return
    for i in plan.val + plan.test:
        for j in plan.train:
            assert subject_ids[i] != subject_ids[j] or abs(offsets[i] - offsets[j]) >= seq_len

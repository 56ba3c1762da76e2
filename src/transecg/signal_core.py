"""Deterministic ECG preprocessing: filtering, resampling, normalization, windowing.

Pipeline order: bandpass -> median -> resample -> window -> per-window min-max.
A record's windows are the rows of one [n, seq_len] array.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy import signal as sps

logger = logging.getLogger(__name__)


@dataclass
class EcgRecord:
    """A raw single-lead ECG trace: its samples and their rate (Hz). Whose trace
    it is (subject, gender, age) is the manifest entry's to say."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ValueError("EcgRecord.samples must be non-empty")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("EcgRecord.samples must be finite")
        if self.fs <= 0:
            raise ValueError("EcgRecord.fs must be positive")


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth bandpass specification (edges in Hz)."""

    low_hz: float
    high_hz: float
    order: int
    fs: float

    def __post_init__(self):
        if not (0.0 < self.low_hz < self.high_hz < self.fs / 2.0):
            raise ValueError(
                f"require 0 < low_hz < high_hz < fs/2, got "
                f"low={self.low_hz}, high={self.high_hz}, fs={self.fs}"
            )
        if self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order}")


def design_butterworth_bandpass(spec: FilterSpec) -> np.ndarray:
    """Design an order-`spec.order` Butterworth bandpass as second-order sections.

    Returns the SOS coefficient array, shape (n_sections, 6). Each spec is
    designed once; every call gets its own copy, since SciPy's sosfilt refuses
    a read-only array and a shared writable one could be changed by a caller.
    """
    return _butterworth_sos(spec).copy()


@functools.lru_cache
def _butterworth_sos(spec: FilterSpec) -> np.ndarray:
    nyq = spec.fs / 2.0
    return sps.butter(
        spec.order, [spec.low_hz / nyq, spec.high_hz / nyq], btype="bandpass", output="sos"
    )


def sos_gain(sos: np.ndarray, freq_hz: float, fs: float) -> float:
    """Magnitude of the cascade transfer function at a single frequency."""
    w = 2.0 * np.pi * freq_hz / fs
    _, h = sps.sosfreqz(sos, worN=[w])
    return float(np.abs(h[0]))


def filter_pad_length(sos: np.ndarray) -> int:
    """Samples filtfilt pads each edge with (SciPy's default); the input must be longer."""
    ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    return 3 * int(ntaps)


def filtfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero-phase forward-backward application of a biquad cascade."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("filtfilt: input is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("filtfilt: input contains non-finite values")
    return sps.sosfiltfilt(sos, x, padlen=filter_pad_length(sos))


def median_filter(x: np.ndarray, kernel: int) -> np.ndarray:
    """Sliding-median smoothing with reflected edges."""
    x = np.asarray(x, dtype=np.float64)
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"median kernel must be odd and positive, got {kernel}")
    if kernel > x.size:
        raise ValueError(f"median kernel {kernel} exceeds signal length {x.size}")
    if kernel == 1:
        return x.copy()
    return ndimage.median_filter(x, size=kernel, mode="reflect")


def resample(x: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Resample by linear interpolation on the continuous-time grid."""
    x = np.asarray(x, dtype=np.float64)
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sampling rates must be positive")
    if x.size < 2:
        raise ValueError(f"resample needs at least 2 samples, got {x.size}")
    n_out = int(round(x.size * fs_out / fs_in))
    t_in = np.arange(x.size) / fs_in
    t_out = np.arange(n_out) / fs_out
    return np.interp(t_out, t_in, x)


def minmax_normalize(x: np.ndarray) -> np.ndarray:
    """Scale each row (the last axis) to [0, 1]; a constant row maps to all zeros."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("minmax_normalize: input is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("minmax_normalize: input contains non-finite values")
    lo = x.min(axis=-1, keepdims=True)
    span = x.max(axis=-1, keepdims=True) - lo
    return (x - lo) / np.where(span == 0.0, 1.0, span)


def window(x: np.ndarray, seq_len: int) -> np.ndarray:
    """Cut a filtered, resampled trace into min-max normalized windows.

    Returns a [n, seq_len] array whose row i holds samples
    [i*seq_len, (i+1)*seq_len), so no two rows share a sample. The trailing
    partial window is dropped, so a trace shorter than seq_len gives no rows.
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    x = np.asarray(x, dtype=np.float64)
    n = x.size // seq_len
    if not n:
        return np.empty((0, seq_len))
    return minmax_normalize(x[:n * seq_len].reshape(n, seq_len))


def preprocess_record(record: EcgRecord, spec: FilterSpec, fs_target: float, median_kernel: int,
                      seq_len: int, name: str) -> np.ndarray:
    """Full preprocessing chain: bandpass, median, resample, window, normalize.

    Returns the [n, seq_len] windows; row i starts at resampled sample
    i*seq_len. A record too short to filter, for the median kernel or for one
    window gives no rows and is logged as excluded under `name`, which the
    caller gives (the CLI's is "<subject_id> (<csv>)").
    """
    sos = design_butterworth_bandpass(spec)
    pad = filter_pad_length(sos)
    if record.samples.size <= pad:
        logger.warning("record %s excluded: %d samples, too few to filter (needs more than %d)",
                       name, record.samples.size, pad)
        return np.empty((0, seq_len))
    if record.samples.size < median_kernel:
        logger.warning("record %s excluded: %d samples, fewer than median_kernel %d",
                       name, record.samples.size, median_kernel)
        return np.empty((0, seq_len))
    x = filtfilt(sos, record.samples)
    x = median_filter(x, median_kernel)
    x = resample(x, record.fs, fs_target)
    windows = window(x, seq_len)
    if not len(windows):
        logger.warning("record %s excluded: %d samples < window length %d", name, x.size, seq_len)
    return windows

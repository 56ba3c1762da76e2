"""R-peak detection (Pan-Tompkins) and rule-based PQRST delineation.

`pan_tompkins` takes its candidate beats from `find_peaks` with a 200 ms
refractory distance, so any two detections are at least that far apart.
`delineate` finds each fiducial by one search over a window of clinical
timing around R, clipped to the signal and skipped when empty or flat.

Each beat is cut into a disjoint base partition (P wave, PQ segment, QRS,
ST segment, T wave, TQ baseline), so that percentages attributed over it sum
to 100%. The clinical composites (P-R, S-T, Q-T) are unions of base
intervals; `explain` derives them from the attributed percentages.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .signal_core import FilterSpec, design_butterworth_bandpass

logger = logging.getLogger(__name__)

REFRACTORY_S = 0.200
BASE_INTERVALS = ("P_WAVE", "PQ_SEGMENT", "QRS", "ST_SEGMENT", "T_WAVE", "TQ_BASELINE")


@dataclass
class BeatFiducials:
    r: int
    q: int | None = None
    s: int | None = None
    p_on: int | None = None
    p_off: int | None = None
    t_on: int | None = None
    t_off: int | None = None


@dataclass
class IntervalMap:
    """Per-beat half-open sample ranges of the base intervals the beat has."""

    beats: list[dict[str, tuple[int, int]]]


def pan_tompkins(x: np.ndarray, fs: float) -> np.ndarray:
    """Detect R peaks: bandpass, derivative, squaring, integration, adaptive thresholds.

    Peaks are refined to the local maximum of the band-passed signal within
    +-50 ms of each integrated-signal detection. Returns their sample indices
    as an increasing int64 array, any two at least the 200 ms refractory
    period apart.
    """
    x = np.asarray(x, dtype=np.float64)
    if fs < 100:
        raise ValueError(f"pan_tompkins requires fs >= 100 Hz, got {fs}")
    if x.size < int(2 * fs):
        raise ValueError(f"pan_tompkins needs >= 2 s of signal, got {x.size / fs:.2f} s")
    if np.ptp(x) == 0.0:
        return np.array([], dtype=np.int64)

    sos = design_butterworth_bandpass(FilterSpec(5.0, 15.0, 2, fs))
    # the whole chain runs on an even-reflected extension so a beat cut off at
    # a record boundary still produces a genuine local maximum there
    pad = int(fs)
    bp_p = sps.sosfiltfilt(sos, np.pad(x, pad, mode="reflect"))

    # 5-point derivative, squaring, 150 ms moving-window integration
    deriv = np.convolve(bp_p, np.array([1, 2, 0, -2, -1]) * (fs / 8.0), mode="same")
    sq = deriv ** 2
    win = max(1, int(round(0.150 * fs)))
    mwi_p = np.convolve(sq, np.ones(win) / win, mode="same")
    bp = bp_p[pad:-pad]
    mwi = mwi_p[pad:-pad]

    # candidates, hence detections and missed beats, are >= refractory apart
    refractory = int(round(REFRACTORY_S * fs))
    cand_p, _ = sps.find_peaks(mwi_p, distance=refractory)
    cand = cand_p[(cand_p >= pad) & (cand_p < pad + x.size)] - pad
    if cand.size == 0:
        return np.array([], dtype=np.int64)

    # adaptive dual thresholds initialized from the first 2 s
    init = mwi[: int(2 * fs)]
    spki = 0.25 * init.max()
    npki = 0.5 * float(init.mean())
    threshold1 = npki + 0.25 * (spki - npki)

    detections: list[int] = []
    missed: list[int] = []
    rr_history: list[float] = []
    for c in cand:
        if mwi[c] > threshold1:
            # search-back: after a gap over 1.66 mean RR, take the strongest
            # candidate missed since the last beat if it beats threshold1 / 2
            if rr_history and missed and c - detections[-1] > 1.66 * np.mean(rr_history[-8:]):
                best = max(missed, key=lambda m: mwi[m])
                if mwi[best] > 0.5 * threshold1:
                    rr_history.append(best - detections[-1])
                    detections.append(best)
            if detections:
                rr_history.append(c - detections[-1])
            detections.append(c)
            spki = 0.125 * mwi[c] + 0.875 * spki
            missed = []
        else:
            missed.append(c)
            npki = 0.125 * mwi[c] + 0.875 * npki
        threshold1 = npki + 0.25 * (spki - npki)

    # refine each detection to the band-passed local maximum within +-50 ms
    half = int(round(0.050 * fs))
    out: list[int] = []
    for d in detections:
        lo, hi = max(0, d - half), min(x.size, d + half + 1)
        r = lo + int(np.argmax(bp[lo:hi]))
        # two detections 200 ms apart can refine to peaks closer than that
        if not out or r - out[-1] >= refractory:
            out.append(r)
    return np.array(out, dtype=np.int64)


def _find(x: np.ndarray, lo: int, hi: int, signal_range: float,
          pick: Callable[[np.ndarray], int]) -> int | None:
    """lo + pick(x[lo:hi]) with the range clipped to x, or None if it is empty or flat."""
    lo, hi = max(0, lo), max(0, min(x.size, hi))
    seg = x[lo:hi]
    if seg.size == 0 or signal_range == 0.0 or np.ptp(seg) < 1e-9 * signal_range:
        return None
    return lo + int(pick(seg))


def delineate(x: np.ndarray, peaks: np.ndarray, fs: float) -> list[BeatFiducials]:
    """Locate Q, S, P-wave and T-wave fiducials around each R peak.

    Each is one search clipped to the signal and omitted when its window is
    empty or flat (peak-to-peak below 1e-9 of the signal's): Q and S are the
    minima 80 ms before and after R, P the maximum 240-90 ms before R (only
    when R is at least 240 ms in), T the largest deviation from the median
    80-360 ms after S (only when S was found).
    """
    x = np.asarray(x, dtype=np.float64)
    if len(peaks) == 0:
        raise ValueError("delineate requires at least one R peak")
    ms = lambda v: int(round(v * fs / 1000.0))
    dev = lambda seg: np.argmax(np.abs(seg - np.median(seg)))
    rng = float(np.ptp(x))

    out = []
    for r in peaks:
        r = int(r)
        q = _find(x, r - ms(80), r, rng, np.argmin)
        s = _find(x, r + 1, r + ms(80) + 1, rng, np.argmin)
        p = _find(x, r - ms(240), r - ms(90), rng, np.argmax) if r >= ms(240) else None
        t = _find(x, s + ms(80), s + ms(360), rng, dev) if s is not None else None
        out.append(BeatFiducials(
            r=r, q=q, s=s,
            p_on=None if p is None else max(0, p - ms(40)),
            p_off=None if p is None else p + ms(40),
            t_on=None if t is None else max(s + 1, t - ms(80)),
            t_off=None if t is None else min(x.size, t + ms(80)),
        ))
    return out


def _ordered(fid: BeatFiducials) -> bool:
    seq = [fid.p_on, fid.p_off, fid.q, fid.r, fid.s, fid.t_on, fid.t_off]
    present = [v for v in seq if v is not None]
    return all(a < b for a, b in zip(present, present[1:]))


def intervals(fids: list[BeatFiducials]) -> IntervalMap:
    """Derive the disjoint base partition of each beat.

    Beats whose fiducials are out of order are skipped with a warning.
    """
    beats: list[dict[str, tuple[int, int]]] = []
    for i, fid in enumerate(fids):
        if not _ordered(fid):
            logger.warning("beat %d skipped: fiducial ordering violated", i)
            continue
        b: dict[str, tuple[int, int]] = {}
        if fid.p_on is not None and fid.p_off is not None:
            b["P_WAVE"] = (fid.p_on, fid.p_off)
            if fid.q is not None:
                b["PQ_SEGMENT"] = (fid.p_off, fid.q)
        if fid.q is not None and fid.s is not None:
            b["QRS"] = (fid.q, fid.s + 1)
        if fid.s is not None and fid.t_on is not None and fid.t_off is not None:
            b["ST_SEGMENT"] = (fid.s + 1, fid.t_on)
            b["T_WAVE"] = (fid.t_on, fid.t_off)
        if fid.t_off is not None and i + 1 < len(fids) and fids[i + 1].p_on is not None:
            nxt = fids[i + 1].p_on
            if nxt > fid.t_off:
                b["TQ_BASELINE"] = (fid.t_off, nxt)
        beats.append(b)
    return IntervalMap(beats=beats)

"""The delineator as it stood before its searches were merged into one
`_find`: `pan_tompkins`, `delineate`, `_is_flat` and `_local_extremum`
verbatim, the oracle its rewrite must match bit for bit."""

import numpy as np
from scipy import signal as sps

from transecg.delineation import REFRACTORY_S, BeatFiducials
from transecg.signal_core import FilterSpec, design_butterworth_bandpass


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
            if detections and c - detections[-1] < refractory:
                missed.append(c)
                continue
            # search-back: a long gap suggests a missed beat above threshold2
            if rr_history and detections:
                rr_avg = float(np.mean(rr_history[-8:]))
                if c - detections[-1] > 1.66 * rr_avg and missed:
                    threshold2 = 0.5 * threshold1
                    back = [m for m in missed if detections[-1] + refractory <= m <= c - refractory]
                    if back:
                        best = max(back, key=lambda m: mwi[m])
                        if mwi[best] > threshold2:
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
    refined = []
    for d in sorted(detections):
        lo, hi = max(0, d - half), min(x.size, d + half + 1)
        refined.append(lo + int(np.argmax(bp[lo:hi])))

    # dedupe refinements that collapsed onto the same peak
    out: list[int] = []
    for r in sorted(refined):
        if not out or r - out[-1] >= refractory:
            out.append(r)
    return np.array(out, dtype=np.int64)


def _is_flat(seg: np.ndarray, signal_range: float) -> bool:
    if seg.size == 0:
        return True
    if signal_range == 0.0:
        return True
    return np.ptp(seg) < 1e-9 * signal_range


def _local_extremum(x: np.ndarray, lo: int, hi: int, mode: str) -> int | None:
    """Index of the min/max/largest-|deviation| sample in x[lo:hi), or None."""
    lo, hi = max(0, lo), min(x.size, hi)
    if hi <= lo:
        return None
    seg = x[lo:hi]
    if mode == "min":
        return lo + int(np.argmin(seg))
    if mode == "max":
        return lo + int(np.argmax(seg))
    baseline = np.median(seg)
    return lo + int(np.argmax(np.abs(seg - baseline)))


def delineate(x: np.ndarray, peaks: np.ndarray, fs: float) -> list[BeatFiducials]:
    """Locate Q, S, P-wave and T-wave fiducials around each R peak.

    Search windows follow standard clinical timing; fiducials are clipped to
    the window bounds and omitted when a search region is empty or flat.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(peaks) == 0:
        raise ValueError("delineate requires at least one R peak")
    ms = lambda v: int(round(v * fs / 1000.0))
    rng = float(np.ptp(x))

    out = []
    for r in peaks:
        r = int(r)
        fid = BeatFiducials(r=r)

        q = _local_extremum(x, r - ms(80), r, "min")
        if q is not None and not _is_flat(x[max(0, r - ms(80)):r], rng):
            fid.q = q
        s = _local_extremum(x, r + 1, r + ms(80) + 1, "min")
        if s is not None and not _is_flat(x[r + 1:r + ms(80) + 1], rng):
            fid.s = s

        p_lo, p_hi = r - ms(240), r - ms(90)
        if p_lo >= 0 and not _is_flat(x[max(0, p_lo):max(0, p_hi)], rng):
            p = _local_extremum(x, p_lo, p_hi, "max")
            if p is not None:
                fid.p_on = max(0, p - ms(40))
                fid.p_off = p + ms(40)

        if fid.s is not None:
            t_lo, t_hi = fid.s + ms(80), fid.s + ms(360)
            if not _is_flat(x[max(0, t_lo):min(x.size, t_hi)], rng):
                t = _local_extremum(x, t_lo, t_hi, "dev")
                if t is not None:
                    fid.t_on = max(fid.s + 1, t - ms(80))
                    fid.t_off = min(x.size, t + ms(80))

        out.append(fid)
    return out

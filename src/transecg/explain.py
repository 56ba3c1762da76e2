"""Attention attribution: class-token importance from the final encoder block,
head weighting from the output projection, and interval-level reports.

`attribute` turns one window's patch importance into percentages over the
disjoint base partition of its beats, so they sum to 100. `aggregate` takes
the mean over windows and derives, once, the overlapping clinical composites
(P-R, S-T, Q-T) as sums of their constituents and the top-3 feature table;
what it returns is the `attribution.json` document.

`save_attention` and `load_attention` own `test_attention.bin`: the test
windows' class-token attention rows, which `evaluate` computes anyway and
`explain` reads instead of running its own forwards.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import reprlib
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .data_io import json_value, write_json
from .delineation import BASE_INTERVALS, IntervalMap
from .vit import ForwardArtifacts, VitConfig

COMPOSITE_INTERVALS: dict[str, tuple[str, ...]] = {
    "P_R": ("P_WAVE", "PQ_SEGMENT"),
    "S_T": ("ST_SEGMENT", "T_WAVE"),
    "Q_T": ("QRS", "ST_SEGMENT", "T_WAVE"),
}
# candidate features for the top-3 table, with their base-partition constituents
FEATURE_CANDIDATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("R-Wave (QRS Complex)", ("QRS",)),
    ("S-T Interval", COMPOSITE_INTERVALS["S_T"]),
    ("P-R Interval", COMPOSITE_INTERVALS["P_R"]),
    ("Q-T Interval", COMPOSITE_INTERVALS["Q_T"]),
)
ATTENTION_FILE = "test_attention.bin"

logger = logging.getLogger(__name__)


def extract_importance(artifacts: ForwardArtifacts) -> np.ndarray:
    """Class-token -> patch attention of the final block, per head: [B, H, N],
    from the class-token row [B, H, 1, N+1] that `vit.forward` captures."""
    if artifacts.attention is None:
        raise ValueError("attention was not captured during the forward pass")
    return artifacts.attention[:, :, 0, 1:]          # a_h = A_h[0, 1:N]


def head_weights(params: dict[str, Tensor], config: VitConfig) -> np.ndarray:
    """Per-head weights from the final block's output projection.

    Each head's weight is the Frobenius norm of its rows of W_O, normalized so
    the dominant head scores exactly 1.0. The squares are summed by NumPy, not
    by a BLAS dot product, whose threading would change the last digit.
    """
    w_o = params[f"layers.{config.n_layers - 1}.w_o"].data
    raw = np.sqrt(np.square(w_o).reshape(config.n_heads, -1).sum(axis=1))
    return raw / raw.max()


def _inputs_sha256(checkpoint: Path, windows: np.ndarray) -> dict[str, str]:
    """What attention rows are computed from: the sha256 of the checkpoint file,
    read 1 MiB at a time so that no whole copy of it is held, and of the
    windows' <f8 bytes."""
    digest = hashlib.sha256()
    with open(checkpoint, "rb") as f:
        for chunk in iter(partial(f.read, 1 << 20), b""):
            digest.update(chunk)
    return {"checkpoint_sha256": digest.hexdigest(),
            "windows_sha256": hashlib.sha256(np.ascontiguousarray(windows, "<f8")).hexdigest()}


def save_attention(path: Path, captured: list[ForwardArtifacts], checkpoint: Path,
                   windows: np.ndarray) -> None:
    """Write the attention rows [len(windows), H, N] of forwards `captured` over
    `windows` with the model in `checkpoint`: the u64 LE length of a JSON header
    (the rows' `shape`, `checkpoint_sha256` and `windows_sha256`), the header,
    then the rows' <f8 bytes. An earlier file is removed first: writing a new
    file is cheaper than overwriting one in place, which ext4 flushes at close."""
    rows = np.concatenate([extract_importance(art) for art in captured])
    header = json.dumps({"shape": list(rows.shape), **_inputs_sha256(checkpoint, windows)},
                        sort_keys=True).encode("utf-8")
    path.unlink(missing_ok=True)
    with open(path, "wb") as f:
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        f.write(rows.astype("<f8", copy=False).tobytes())


def load_attention(path: Path, checkpoint: Path, windows: np.ndarray,
                   config: VitConfig) -> np.ndarray | None:
    """The rows [len(windows), H, N] that save_attention wrote to path for these
    windows and this checkpoint, or None when there is no file. A file that is
    truncated or malformed, or was written for another checkpoint, other windows
    or another shape, is not used either; one warning names it and says why."""
    shape = [len(windows), config.n_heads, config.n_patches]
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            hlen = int.from_bytes(f.read(8), "little")
            if size < 8 or 8 + hlen > size:
                raise ValueError(f"truncated (its header length field asks for {hlen} "
                                 f"bytes, the file holds {size})")
            try:
                doc = json_value(json.loads(f.read(hlen)), dict, "header")
            except (ValueError, RecursionError) as e:  # json.loads recurses per nesting level
                raise ValueError(f"bad header ({e})") from None
            for name, digest in _inputs_sha256(checkpoint, windows).items():
                if doc.get(name) != digest:
                    raise ValueError(f"its header field {name!r} is not the sha256 of this "
                                     f"run's {name.split('_')[0]}")
            if doc.get("shape") != shape:
                raise ValueError(f"its header field 'shape' is "
                                 f"{reprlib.repr(doc.get('shape'))}, this run's is {shape}")
            count = math.prod(shape)
            if size - 8 - hlen != 8 * count:
                raise ValueError(f"it holds {size - 8 - hlen} bytes of rows, its shape "
                                 f"needs {8 * count}")
            return np.fromfile(f, dtype="<f8", count=count).reshape(shape)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as e:
        logger.warning("%s not used, so explain runs the forwards: %s", path, e)
        return None


def attribute(importance: np.ndarray, interval_map: IntervalMap,
              patch_size: int) -> dict[str, float]:
    """Distribute patch importance over the delineated base intervals, in percent.

    Each patch's importance is spread evenly over its samples; an interval's
    mass is the sum over its samples, across all beats, normalized to percent.
    """
    per_sample = np.repeat(np.asarray(importance, dtype=np.float64) / patch_size, patch_size)
    mass = {name: 0.0 for name in BASE_INTERVALS}
    for beat in interval_map.beats:
        for name in BASE_INTERVALS:
            if name in beat:
                lo, hi = beat[name]
                mass[name] += per_sample[lo:hi].sum()

    total = sum(mass.values())
    if total <= 0.0:
        raise ValueError("unattributable window: no importance mass over delineated beats")
    return {name: 100.0 * m / total for name, m in mass.items()}


def _top3(pct: dict[str, float]) -> list[dict]:
    """Greedy top-3 over the candidate feature set, counting each base interval once."""
    pool = set(BASE_INTERVALS)
    out: list[dict] = []
    while len(out) < 3:
        best = None
        for name, parts in FEATURE_CANDIDATES:
            if not all(p in pool for p in parts):
                continue
            value = sum(pct[p] for p in parts)
            if best is None or value > best[1]:
                best = (name, value, parts)
        if best is None or best[1] <= 0.0:
            break
        out.append({"feature": best[0], "percent": best[1]})
        pool -= set(best[2])
    return out


def aggregate(percentages: list[dict[str, float]], task: str,
              head_weights: list[float]) -> dict:
    """The attribution.json document over windows: `percentages`, the mean of
    their base-interval percentages (summing to 100), with the `composites` and
    the `top3` ({"feature", "percent"} each) derived from that mean, and the
    `task`, `n_windows` and `head_weights`."""
    if not percentages:
        raise ValueError("nothing to aggregate")
    w = 1.0 / len(percentages)
    pct = {
        name: float(sum(w * window[name] for window in percentages))
        for name in BASE_INTERVALS
    }
    composites = {
        name: sum(pct[part] for part in parts)
        for name, parts in COMPOSITE_INTERVALS.items()
    }
    return {
        "task": task, "n_windows": len(percentages), "percentages": pct,
        "composites": composites, "top3": _top3(pct), "head_weights": head_weights,
    }


# ---------------------------------------------------------------------------
# report output


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def emit_report(report: dict, per_head: np.ndarray,
                window_samples: np.ndarray, outdir: str | Path) -> dict[str, Path]:
    """Write the CSV/JSON/SVG artifact set; byte-deterministic for fixed inputs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}

    head_csv = outdir / "attribution_per_head.csv"
    with open(head_csv, "w", encoding="utf-8", newline="\n") as f:
        f.write("head,patch,importance\n")
        for h in range(per_head.shape[0]):
            for i in range(per_head.shape[1]):
                f.write(f"{h},{i},{_fmt(per_head[h, i])}\n")
    paths["per_head_csv"] = head_csv

    interval_csv = outdir / "attribution_intervals.csv"
    with open(interval_csv, "w", encoding="utf-8", newline="\n") as f:
        f.write("interval,percent\n")
        for key in ("percentages", "composites"):
            for name, value in sorted(report[key].items()):
                f.write(f"{name},{_fmt(value)}\n")
    paths["intervals_csv"] = interval_csv

    paths["json"] = outdir / "attribution.json"
    write_json(paths["json"], report)

    svg_path = outdir / "attribution.svg"
    with open(svg_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_render_svg(report, per_head.mean(axis=0), window_samples))
    paths["svg"] = svg_path
    return paths


def _render_svg(report: dict, importance: np.ndarray,
                samples: np.ndarray) -> str:
    """ECG trace with one shaded rectangle per patch and interval labels."""
    n = importance.size
    width, height, pad = 1200, 360, 30
    plot_w, plot_h = width - 2 * pad, height - 2 * pad
    peak = importance.max() if importance.size and importance.max() > 0 else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    patch_w = plot_w / n
    for i in range(n):
        opacity = 0.85 * float(importance[i]) / peak
        parts.append(
            f'<rect class="patch" x="{_fmt(pad + i * patch_w)}" y="{pad}" '
            f'width="{_fmt(patch_w)}" height="{plot_h}" '
            f'fill="crimson" fill-opacity="{_fmt(opacity)}"/>'
        )
    s = np.asarray(samples, dtype=np.float64)
    lo, hi = float(s.min()), float(s.max())
    rng = hi - lo if hi > lo else 1.0
    pts = " ".join(
        f"{_fmt(pad + plot_w * i / max(1, s.size - 1))},"
        f"{_fmt(pad + plot_h * (1.0 - (v - lo) / rng))}"
        for i, v in enumerate(s)
    )
    parts.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>')
    for j, top in enumerate(report["top3"]):
        parts.append(
            f'<text x="{pad}" y="18" dx="{j * 320}" font-size="14" '
            f'font-family="monospace">{top["feature"]}: {_fmt(top["percent"])}%</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Metric definitions, and the per-layer metrics computed from traced passes.

BENCHMARK.json mirrors the names, units and directions defined here
(tests/test_benchmark_json.py keeps the two in step).  `moves` names the
end-to-end metric, as `metric@workload`, that each layer metric should move.
"""

from __future__ import annotations

import statistics

from tracer import OPS, percentile, tail_percentile

# name, unit, better, bound (share of the parent's median it may worsen by).
# Throughput and interpreter start-up follow the host's speed, which drifted
# by up to ~16% between sets of runs on a shared 2-vCPU machine, so their
# bounds are the widest allowed; peak RSS repeats to a fraction of 1%.
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("startup_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

TRAIN, INGEST, EXPLAIN = "items_per_s@train", "items_per_s@ingest", "items_per_s@explain"

# span, sample field, moves: each gives <span>.<field>.p50 and .tail in ms
# (tail = highest percentile with at least 10 samples beyond it) and
# <span>.calls per traced pass
TIMED = (
    ("autodiff.backward", "ms", f"{TRAIN}, peak_rss_mb@train"),
    ("autodiff.AdamW.step", "ms", TRAIN),
    ("vit.forward.train", "ms", TRAIN),
    ("vit.mhsa", "self_ms", TRAIN),
    ("vit.encoder_layer", "self_ms", TRAIN),    # layer norm plus FFN
    ("vit.embed_patches", "ms", TRAIN),
    ("vit.forward.capture", "ms", EXPLAIN),
    ("vit.forward.nograd", "ms", EXPLAIN),      # evaluate; validation on train
    ("vit.save_checkpoint", "ms", TRAIN),
    ("vit.load_checkpoint", "ms", EXPLAIN),
    ("training.predict_probs", "ms", TRAIN),    # the validation share of an epoch
    ("training.cross_entropy", "ms", TRAIN),
    ("training.train", "self_ms", TRAIN),
    ("training.evaluate_probs", "ms", EXPLAIN),
    ("data_io.load_record", "ms", INGEST),
    ("signal_core.filtfilt", "ms", INGEST),
    ("signal_core.median_filter", "ms", INGEST),
    ("signal_core.resample", "ms", INGEST),
    ("signal_core.window", "ms", INGEST),
    ("delineation.pan_tompkins", "ms", EXPLAIN),
    ("delineation.delineate", "ms", EXPLAIN),
    ("delineation.intervals", "ms", EXPLAIN),
    ("explain.extract_importance", "ms", EXPLAIN),
    ("explain.attribute", "ms", EXPLAIN),
    ("explain.emit_report", "ms", EXPLAIN),
    ("cli.preprocess", "self_ms", INGEST),
    ("cli.train", "self_ms", TRAIN),
    ("cli.evaluate", "self_ms", EXPLAIN),
    ("cli.explain", "self_ms", EXPLAIN),
    ("cli.load_store", "ms", f"{TRAIN}, {EXPLAIN}"),
)

# name, unit, better, moves
OTHER = (
    *((f"autodiff.{op}.fwd_ms_per_step", "ms", "lower", TRAIN) for op in OPS),
    *((f"autodiff.{op}.calls_per_step", "count", "lower", TRAIN) for op in OPS),
    ("autodiff.tape_nodes_per_step", "count", "lower", f"{TRAIN}, peak_rss_mb@train"),
    ("autodiff.tape_nodes_leaked", "count", "lower", f"peak_rss_mb@explain, {EXPLAIN}"),
    ("vit.mhsa.used_ratio", "ratio", "higher", TRAIN),
    ("data_io.load_record.samples_per_s", "1/s", "higher", INGEST),
    ("signal_core.windows", "count", "higher", INGEST),
    ("delineation.beats_kept_ratio", "ratio", "higher", EXPLAIN),
    ("explain.attributed_ratio", "ratio", "higher", EXPLAIN),
    ("trace.overhead_ms", "ms", "lower", "none: traced minus untraced stage time per pass"),
)


def per_layer_spec() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric as (name, unit, better, moves)."""
    out = []
    for span, fld, moves in TIMED:
        out.append((f"{span}.{fld}.p50", "ms", "lower", moves))
        out.append((f"{span}.{fld}.tail", "ms", "lower", moves))
        out.append((f"{span}.calls", "count", "lower", moves))
    return out + list(OTHER)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(traced: list[list[dict]], overhead_ms: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metric values from traced passes.

    `traced` holds one list per pass of stage results ({"trace": summary,
    "tape_leaked": n}).  Returns the values and, for each `.tail` metric,
    the percentile it reports.
    """
    samples: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    step_tape: list[int] = []
    step_ops: dict[str, list[list[float]]] = {op: [] for op in OPS}
    for stages in traced:
        for st in stages:
            tr = st["trace"]
            for fld in ("ms", "self_ms"):
                for name, vals in tr[fld].items():
                    samples.setdefault(f"{name}.{fld}", []).extend(vals)
            for name, v in tr["counts"].items():
                counts[name] = counts.get(name, 0.0) + v
            step_tape.extend(tr["step_tape"])
            for op, steps in tr["step_ops"].items():
                step_ops.setdefault(op, []).extend(steps)
    n_pass = max(1, len(traced))

    values: dict[str, float] = {}
    tails: dict[str, float] = {}
    for span, fld, _ in TIMED:
        vals = samples.get(f"{span}.{fld}", [])
        q = tail_percentile(len(vals))
        values[f"{span}.{fld}.p50"] = percentile(vals, 50) if vals else 0.0
        values[f"{span}.{fld}.tail"] = percentile(vals, q) if vals else 0.0
        values[f"{span}.calls"] = len(vals) / n_pass
        tails[f"{span}.{fld}.tail"] = q
    for op in OPS:
        values[f"autodiff.{op}.fwd_ms_per_step"] = _median([ms for ms, _ in step_ops[op]])
        values[f"autodiff.{op}.calls_per_step"] = _median([c for _, c in step_ops[op]])
    values["autodiff.tape_nodes_per_step"] = _median(step_tape)
    values["autodiff.tape_nodes_leaked"] = _median(
        [sum(st["tape_leaked"] for st in stages) for stages in traced])
    values["vit.mhsa.used_ratio"] = _ratio(counts.get("mhsa_used", 0), counts.get("mhsa_outputs", 0))
    load_s = sum(samples.get("data_io.load_record.ms", [])) / 1e3
    values["data_io.load_record.samples_per_s"] = _ratio(counts.get("samples_loaded", 0), load_s)
    values["signal_core.windows"] = counts.get("windows", 0) / n_pass
    values["delineation.beats_kept_ratio"] = _ratio(
        counts.get("beats_kept", 0), counts.get("beats_delineated", 0))
    values["explain.attributed_ratio"] = _ratio(
        counts.get("windows_attributed", 0), counts.get("windows_attempted", 0))
    values["trace.overhead_ms"] = overhead_ms
    return values, tails

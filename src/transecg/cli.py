"""Command-line pipeline: synth -> preprocess -> train -> evaluate -> explain.

A single JSON config (plus --set overrides) governs every stage; all
randomness derives from the one run seed, so identical configs reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import logging
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields, replace
from functools import partial
from logging.handlers import BufferingHandler
from pathlib import Path

import numpy as np

from . import data_io, delineation, explain, signal_core, training, vit
from .data_io import SyntheticEcgSpec, Task, WaveParams

STORE_BIN = "windows.bin"
STORE_INDEX = "windows.json"
# what the checkpoint records of the run, so that evaluate and explain rebuild its split
SPLIT_FIELDS = ("seed", "task", "train_frac", "val_frac", "test_frac")
MAX_SYNTH_SAMPLES = 21_600_000  # 24 h at the default 250 Hz
# preprocess starts worker processes only for manifests whose CSVs hold at least
# this many bytes: starting them costs about 20 ms, which two workers win back
# from about 2-4 MB of CSV on (a 2-core x86 box)
WORKERS_MIN_CSV_BYTES = 8_000_000


@dataclass(frozen=True)
class RunConfig(vit.VitHParams, training.TrainHParams):
    """Every run setting: the seven training ones are TrainHParams' fields, then
    the eight model ones VitHParams'. The README's config table lists them all,
    with their defaults."""

    # preprocessing
    low_hz: float = 0.5
    high_hz: float = 40.0
    filter_order: int = 4
    fs_target: float = 250.0
    median_kernel: int = 5
    # task and split
    task: str = "gender"
    seed: int = 0
    train_frac: float = 0.70
    val_frac: float = 0.15
    test_frac: float = 0.15
    # synthetic data generation
    synth_subjects: int = 8
    synth_duration_s: float = 64.0
    synth_bpm: float = 60.0
    synth_noise_std: float = 0.01
    # explain
    explain_windows: int = 8
    # paths
    manifest: str = ""
    workdir: str = "work"
    checkpoint: str = ""

    def validate(self) -> None:
        self.vit_config(2)
        signal_core.FilterSpec(self.low_hz, self.high_hz, self.filter_order, fs=float("inf"))
        for name in ("synth_subjects", "explain_windows"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name!r} must be positive")
        if not 100 <= self.fs_target <= 10000:
            raise ValueError(f"config field 'fs_target' must be at least 100 Hz (synth and "
                             f"pan_tompkins need it) and at most 10000 Hz, got {self.fs_target}")
        if self.high_hz >= self.fs_target / 2:  # the band would alias after resampling
            raise ValueError(f"config field 'high_hz' must be below half of config field "
                             f"'fs_target', got {self.high_hz} Hz at {self.fs_target} Hz")
        # the product is compared before round, which cannot take inf
        samples = self.synth_duration_s * self.fs_target
        if not samples <= MAX_SYNTH_SAMPLES or round(samples) < 1:
            raise ValueError(f"config fields 'synth_duration_s' and 'fs_target' must give 1 to "
                             f"{MAX_SYNTH_SAMPLES} samples, got {self.synth_duration_s} s at "
                             f"{self.fs_target} Hz")
        if self.synth_noise_std < 0:
            raise ValueError("config field 'synth_noise_std' must be non-negative")
        if self.median_kernel < 1 or self.median_kernel % 2 == 0:
            raise ValueError(f"config field 'median_kernel' must be odd and at least 1, "
                             f"got {self.median_kernel}")
        # cmd_synth gives subject i the rate synth_bpm + 4 (i mod 5)
        fastest = self.synth_bpm + 4.0 * min(4, self.synth_subjects - 1)
        if self.synth_bpm < 30 or fastest > 220:
            raise ValueError(f"config field 'synth_bpm' must keep every subject's rate in "
                             f"[30, 220] bpm, got {self.synth_bpm}..{fastest}")
        if self.seed < 0:
            raise ValueError(f"config field 'seed' must be non-negative, got {self.seed}")
        fractions = ("train_frac", "val_frac", "test_frac")
        for name in fractions:
            if not (0 < getattr(self, name) < 1):
                raise ValueError(f"config field {name!r} must be in (0, 1)")
        if abs(sum(getattr(self, name) for name in fractions) - 1) > 1e-9:
            raise ValueError("config fields 'train_frac', 'val_frac' and 'test_frac' must sum to 1")
        if self.task not in {t.value for t in Task}:
            raise ValueError(f"config field 'task' must be one of gender|age|id, got {self.task!r}")
        super().validate()

    def vit_config(self, n_classes: int) -> vit.VitConfig:
        return vit.VitConfig(n_classes=n_classes,
                             **{f.name: getattr(self, f.name) for f in fields(vit.VitHParams)})


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        doc = data_io.read_json(args.config)
        try:
            cfg = data_io.json_dataclass(cfg, doc, "config")
        except ValueError as e:
            raise ValueError(f"{args.config}: {e}") from None
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    cfg = data_io.json_dataclass(cfg, overrides, "config", coerce=True)
    flags = {"workdir": args.workdir, "seed": args.seed, "task": args.task}
    cfg = replace(cfg, **{name: value for name, value in flags.items() if value is not None})
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig) -> str:
    """Generate a synthetic multi-subject dataset and its manifest."""
    workdir = Path(cfg.workdir)
    data_dir = workdir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    records = []
    for i in range(cfg.synth_subjects):
        sid = f"S{i:03d}"
        waves = dict(data_io.DEFAULT_WAVES)
        # per-subject morphology: distinct T amplitude, P timing and rate
        waves["T"] = WaveParams(0.250, 0.15 + 0.5 * i / max(1, cfg.synth_subjects - 1), 0.060)
        waves["P"] = WaveParams(-0.180 - 0.004 * (i % 4), 0.12, 0.025)
        bpm = cfg.synth_bpm + 4.0 * (i % 5)
        spec = SyntheticEcgSpec(
            bpm=bpm, duration_s=cfg.synth_duration_s, fs=cfg.fs_target,
            waves=waves, noise_std=cfg.synth_noise_std,
            seed=int(rng.integers(2**63)),
        )
        record, _ = data_io.synthesize(spec)
        csv_name = f"{sid}.csv"
        data_io.save_record_csv(data_dir / csv_name, record.samples)
        records.append({
            "subject_id": sid, "csv": csv_name, "fs": cfg.fs_target,
            "gender": "male" if i % 2 == 0 else "female", "age_years": 20 + 7 * i,
        })

    manifest_path = data_dir / "manifest.json"
    data_io.write_json(manifest_path, {"dataset": "synthetic", "records": records})
    return f"synth: wrote {len(records)} subjects to {manifest_path}"


def _preprocess_one(cfg: RunConfig, manifest_path: Path, i: int,
                    entry: data_io.ManifestEntry) -> tuple[np.ndarray, list[logging.LogRecord]]:
    """Record i's windows, and the log records made while making them. The
    records are held back from the `transecg` loggers' handlers, and the caller
    hands them on, so that a worker process's warnings reach the parent."""
    try:
        spec = signal_core.FilterSpec(cfg.low_hz, cfg.high_hz, cfg.filter_order, entry.fs)
    except ValueError as e:
        raise ValueError(f"{manifest_path}: record {i} field 'fs': {e}") from None
    log = logging.getLogger("transecg")
    held = BufferingHandler(sys.maxsize)  # never full, so never flushed
    handlers, propagate = log.handlers, log.propagate
    log.handlers, log.propagate = [held], False
    try:
        rows = signal_core.preprocess_record(
            data_io.load_record(entry), spec, cfg.fs_target, cfg.median_kernel,
            cfg.seq_len, f"{entry.subject_id} ({entry.csv_path})")
    finally:
        log.handlers, log.propagate = handlers, propagate
    return rows, held.buffer


def _csv_bytes(entries: list[data_io.ManifestEntry]) -> int:
    """The size of the records' CSVs; one that cannot be read counts 0, and
    loading it reports why."""
    total = 0
    for entry in entries:
        with contextlib.suppress(OSError):
            total += os.stat(entry.csv_path).st_size
    return total


def _each_record(run: Callable, entries: list[data_io.ManifestEntry]) -> Iterator:
    """run(i, entry) for each record, yielded in record order. The records go to
    min(usable cores, records) forked worker processes; with fewer than two,
    without fork, or with CSVs of fewer than WORKERS_MIN_CSV_BYTES in all, run is
    called here. A worker's error is raised for its record, after every earlier
    record's result; on close, no record is started and every worker has ended."""
    workers = min(training._cores(), len(entries))
    if workers < 2 or not hasattr(os, "fork") or _csv_bytes(entries) < WORKERS_MIN_CSV_BYTES:
        yield from map(run, range(len(entries)), entries)
        return
    # imported here, so that only a run that starts workers loads the pool's
    # modules (about 15 ms of start-up)
    import multiprocessing

    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(run, range(len(entries)), entries)
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_preprocess(cfg: RunConfig) -> str:
    """Filter, resample, window and normalize every record into the window store.

    Records are preprocessed on every usable core once their CSVs are large
    enough to repay starting worker processes; each record's windows are
    appended to windows.bin.part in record order, so the store is the same at
    any core count. The part file replaces windows.bin only when every record
    was read and at least one window made, so a failed run leaves the previous
    store as it was."""
    workdir = Path(cfg.workdir)
    manifest_path = Path(cfg.manifest) if cfg.manifest else workdir / "data" / "manifest.json"
    entries = data_io.load_manifest(manifest_path)
    workdir.mkdir(parents=True, exist_ok=True)
    part = workdir / f"{STORE_BIN}.part"
    index = []
    excluded = 0
    try:
        with (open(part, "wb") as f,
              contextlib.closing(_each_record(partial(_preprocess_one, cfg, manifest_path),
                                              entries)) as results):
            for i, entry in enumerate(entries):
                try:
                    rows, logs = next(results)
                except concurrent.futures.BrokenExecutor:
                    # an OSError, which main reports as one error line
                    raise ChildProcessError(
                        f"{manifest_path}: record {i} ({entry.csv_path}) was not preprocessed: "
                        f"a worker process ended abruptly") from None
                for record in logs:
                    logging.getLogger(record.name).handle(record)
                f.write(rows.astype("<f8", copy=False).tobytes())
                excluded += not len(rows)
                index += [{
                    "subject_id": entry.subject_id, "source_offset": offset,
                    "gender": entry.gender, "age_years": entry.age_years,
                } for offset in range(0, rows.size, cfg.seq_len)]
        if not index:
            raise ValueError(f"{manifest_path}: no window of seq_len {cfg.seq_len} samples: "
                             f"{excluded} of {len(entries)} records excluded; no store written")
        part.replace(workdir / STORE_BIN)
    finally:
        part.unlink(missing_ok=True)
    data_io.write_json(workdir / STORE_INDEX, {
        "seq_len": cfg.seq_len, "fs": cfg.fs_target, "windows": index,
    })
    return f"preprocess: stored {len(index)} windows in {workdir}"


def load_store(
    cfg: RunConfig, seq_len: int, owner: str,
) -> tuple[np.ndarray, np.ndarray, dict[str, int], training.SplitPlan]:
    """Read the window store, label each window for the task, and split the
    labeled ones: (x, y, vocab, plan), with the plan indexing rows of x.
    The store's windows must be seq_len samples long, the length `owner` has,
    and no two windows of one subject may share a sample."""
    workdir = Path(cfg.workdir)
    index_path, bin_path = workdir / STORE_INDEX, workdir / STORE_BIN
    doc = data_io.read_json(index_path)
    rows = data_io.json_field(doc, "windows", list, str(index_path))
    stored = data_io.json_field(doc, "seq_len", int, str(index_path))
    if stored != seq_len:
        raise ValueError(f"{index_path}: field 'seq_len' is {stored}, but {owner} has "
                         f"seq_len {seq_len}; preprocess again with seq_len={seq_len}")
    fs = data_io.json_field(doc, "fs", float, str(index_path))
    if fs != cfg.fs_target:
        raise ValueError(f"{index_path}: field 'fs' is {fs} Hz, but the config's fs_target "
                         f"is {cfg.fs_target} Hz; preprocess again or set fs_target={fs}")
    for i, row in enumerate(rows):
        data_io.json_value(row, dict, f"{index_path} field 'windows' item {i}")
        where = f"{index_path}: window {i}"
        data_io.json_field(row, "subject_id", str, where)
        data_io.json_field(row, "source_offset", int, where)
        data_io.json_field(row, "gender", str, where, optional=True)
        data_io.json_field(row, "age_years", int, where, optional=True)
    subject_ids = [row["subject_id"] for row in rows]
    offsets = [row["source_offset"] for row in rows]
    last: dict[str, int] = {}
    for sid, offset in sorted(zip(subject_ids, offsets)):
        if sid in last and offset - last[sid] < seq_len:  # the two windows share samples
            raise ValueError(f"{index_path}: subject {sid!r} has windows at field "
                             f"'source_offset' {last[sid]} and {offset}, less than seq_len "
                             f"{seq_len} apart; preprocess again")
        last[sid] = offset
    size = bin_path.stat().st_size
    if size != len(rows) * seq_len * 8:
        raise ValueError(f"{bin_path} holds {size} bytes, but {index_path} lists "
                         f"{len(rows)} windows of {seq_len} float64 samples")
    task = Task(cfg.task)
    vocab = data_io.build_vocab(subject_ids, task)
    labels = data_io.record_labels(rows, task, vocab)
    kept = [i for i, label in enumerate(labels) if label is not None]
    x = np.fromfile(bin_path, dtype="<f8").reshape(len(rows), seq_len)[kept]
    y = np.asarray([labels[i] for i in kept], dtype=np.int64)
    try:
        plan = training.make_split(
            [subject_ids[i] for i in kept], [offsets[i] for i in kept],
            task, cfg.seed, fractions=(cfg.train_frac, cfg.val_frac, cfg.test_frac),
        )
    except ValueError as e:
        raise ValueError(f"{index_path}: {len(kept)} of {len(rows)} windows are labelled "
                         f"for task {task.value}: {e}") from None
    return x, y, vocab, plan


def _checkpoint(cfg: RunConfig) -> Path:
    return Path(cfg.checkpoint) if cfg.checkpoint else Path(cfg.workdir) / "model.ckpt"


def _load_model_and_store(
    cfg: RunConfig,
) -> tuple[dict, vit.VitConfig, np.ndarray, np.ndarray, training.SplitPlan]:
    """Load the checkpoint for inference and the store it scores: (params, config,
    x, y, plan). The split is rebuilt from the config's seed, task and fractions,
    so refuse a checkpoint trained with other ones or with other class labels,
    and a split with no test window to score."""
    ckpt = _checkpoint(cfg)
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    params, config, vocab, meta = vit.load_checkpoint(ckpt)
    for name in SPLIT_FIELDS:
        if name not in meta:
            raise ValueError(f"{ckpt} does not record the {name} it was trained with; "
                             f"retrain it")
        if meta[name] != getattr(cfg, name):
            raise ValueError(
                f"{ckpt} was trained with {name} {meta[name]!r}, but the config's "
                f"{name} is {getattr(cfg, name)!r}; use the checkpoint's seed, task "
                f"and split fractions"
            )
    x, y, store_vocab, plan = load_store(cfg, config.seq_len, f"the checkpoint {ckpt}")
    if vocab != store_vocab:
        raise ValueError(f"{ckpt} field 'vocab' differs from the class labels of the "
                         f"window store in {cfg.workdir}; retrain it on this store")
    if not plan.test:
        raise ValueError(f"{Path(cfg.workdir) / STORE_INDEX}: the test split is empty; "
                         f"raise test_frac or add subjects")
    return params, config, x, y, plan


def cmd_train(cfg: RunConfig) -> str:
    x, y, vocab, plan = load_store(cfg, cfg.seq_len, "the config")
    config = cfg.vit_config(len(vocab))
    report, best = training.train(x, y, plan, config, cfg, cfg.seed)
    ckpt = _checkpoint(cfg)
    vit.save_checkpoint(ckpt, best, config, vocab,
                        meta={name: getattr(cfg, name) for name in SPLIT_FIELDS})
    data_io.write_json(Path(cfg.workdir) / "train_report.json", report)
    best_epoch = report["best_epoch"]
    return (f"train: best epoch {best_epoch}, validation accuracy "
            f"{report['epochs'][best_epoch]['val_accuracy']:.3f}, checkpoint {ckpt}")


def cmd_evaluate(cfg: RunConfig) -> str:
    """Score the test windows into metrics.json. The same forwards capture each
    window's final-block attention row; the rows go to test_attention.bin for explain."""
    params, config, x, y, plan = _load_model_and_store(cfg)
    test = x[plan.test]
    captured = training.forward_each(params, config, test, capture_attention=True)
    metrics = training.evaluate_probs(training.probs_of(captured), y[plan.test],
                                      task=Task(cfg.task))
    workdir = Path(cfg.workdir)
    data_io.write_json(workdir / "metrics.json", metrics)
    explain.save_attention(workdir / explain.ATTENTION_FILE, captured, _checkpoint(cfg), test)
    return f"evaluate: test accuracy {metrics['accuracy']:.3f} -> {workdir / 'metrics.json'}"


def cmd_explain(cfg: RunConfig) -> str:
    """Attribute the first explain_windows test windows. Their attention rows come
    from the test_attention.bin that evaluate wrote for this checkpoint and these
    windows, or else from forwards run here."""
    params, config, x, _, plan = _load_model_and_store(cfg)
    test = x[plan.test]
    windows = test[:cfg.explain_windows]
    saved = Path(cfg.workdir) / explain.ATTENTION_FILE
    rows = explain.load_attention(saved, _checkpoint(cfg), test, config)
    if rows is None:
        source = f"{len(windows)} forwards"
        rows = [explain.extract_importance(art)[0] for art in
                training.forward_each(params, config, windows, capture_attention=True)]
    else:
        source = str(saved)

    percentages = []
    first = None
    errors = []
    for window, per_head in zip(windows, rows):
        try:
            peaks = delineation.pan_tompkins(window, cfg.fs_target)
            fids = delineation.delineate(window, peaks, cfg.fs_target)
            percentages.append(explain.attribute(
                per_head.mean(axis=0), delineation.intervals(fids), config.patch_size))
        except ValueError as e:
            errors.append(e)
            continue
        if first is None:
            first = (per_head, window)

    if not percentages:
        raise ValueError(f"explain: no window could be attributed ({len(errors)} skipped, "
                         f"the first because {errors[0]})")
    report = explain.aggregate(percentages, cfg.task,
                               explain.head_weights(params, config).tolist())
    paths = explain.emit_report(report, *first, Path(cfg.workdir) / "explain")
    return (f"explain: attributed {len(percentages)} windows ({len(errors)} skipped), "
            f"attention from {source}, report {paths['json']}")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="transecg",
        description="ECG preprocessing, transformer training and attention attribution",
    )
    # built per call: a caller may have replaced a cmd_* function on this module
    commands = {"synth": cmd_synth, "preprocess": cmd_preprocess, "train": cmd_train,
                "evaluate": cmd_evaluate, "explain": cmd_explain}
    parser.add_argument("command", choices=list(commands))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--workdir", help="working directory for all stage outputs")
    parser.add_argument("--seed", type=int, default=None, help="run seed")
    parser.add_argument("--task", choices=[t.value for t in Task])
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config field")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args)
        summary = commands[args.command](cfg)
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

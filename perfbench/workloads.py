"""The benchmark's workloads: seeded inputs, the CLI stages of one pass, and
the checks on what those stages write.

Every stage runs in a fresh `python3 perfbench/stage.py` process.  The
workload seed makes the input CSVs; the program's own seed (split, weight
init, batch order, stochastic depth) is fixed at 0 so that every workload
seed asks for the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
STAGE_TIMEOUT_S = 60
SEQ_LEN = 2000
FS_STORE = 250.0

# P, Q, R, S, T bumps: offset from the R peak (s), amplitude, width (s)
WAVES = ((-0.180, 0.12, 0.025), (-0.030, -0.10, 0.010), (0.0, 1.0, 0.012),
         (0.030, -0.15, 0.010), (0.250, 0.30, 0.060))


class RunError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class StageResult:
    stage: str
    rc: int
    stdout: str
    stderr: str
    stage_s: float = math.nan     # time inside cli.main
    startup_s: float = math.nan   # spawn until transecg.cli is imported
    maxrss_kb: int = 0
    tape_leaked: int = 0
    trace: dict | None = None


def run_stage(work: Path, args: list[str], trace: bool = False) -> StageResult:
    """Run `transecg <args>` through stage.py and collect its timings."""
    out = work / f".stage-{args[0]}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "stage.py"), str(out), "1" if trace else "0", *args]
    spawned_at = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        return StageResult(args[0], -1, "", f"timeout: {e}")
    res = StageResult(args[0], proc.returncode, proc.stdout, proc.stderr)
    if out.exists():
        doc = json.loads(out.read_text(encoding="utf-8"))
        res.stage_s, res.startup_s = doc["stage_s"], doc["imported_at"] - spawned_at
        res.maxrss_kb, res.tape_leaked, res.trace = doc["maxrss_kb"], doc["tape_leaked"], doc["trace"]
    elif res.rc == 0:
        res.rc = -1
        res.stderr += "\nstage wrote no result file"
    return res


# ---------------------------------------------------------------------------
# inputs


def synth_ecg(rng: np.random.Generator, fs: float, duration_s: float) -> np.ndarray:
    """A noisy ECG trace: one jittered PQRST template per beat plus baseline wander."""
    n = int(round(duration_s * fs))
    lead = int(0.5 * fs)
    t = (np.arange(lead + int(0.7 * fs) + 1) - lead) / fs
    template = np.zeros_like(t)
    for offset, amp, width in WAVES:
        template += amp * (1.0 + 0.1 * rng.standard_normal()) * np.exp(-0.5 * ((t - offset) / width) ** 2)
    padded = np.zeros(n + template.size)
    rr = 60.0 / rng.uniform(55.0, 85.0)
    r = 0.3 + rng.uniform(0.0, rr)
    while r < duration_s:
        i = int(round(r * fs))
        padded[i:i + template.size] += template
        r += rr * (1.0 + 0.03 * rng.standard_normal())
    x = padded[lead:lead + n]
    time_s = np.arange(n) / fs
    x += 0.05 * np.sin(2 * np.pi * 0.25 * time_s + rng.uniform(0, 2 * np.pi))
    return x + rng.normal(0.0, 0.01, size=n)


def write_dataset(data_dir: Path, seed: int, fs: float, durations_s: list[float]) -> dict[str, int]:
    """Write one CSV per subject plus manifest.json; returns samples per subject."""
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    records, sizes = [], {}
    for i, duration in enumerate(durations_s):
        sid = f"S{i:03d}"
        x = synth_ecg(rng, fs, duration)
        with open(data_dir / f"{sid}.csv", "w", encoding="utf-8") as f:
            f.write("amplitude\n")
            f.write("\n".join(map(repr, x.tolist())))
            f.write("\n")
        sizes[sid] = x.size
        records.append({"subject_id": sid, "csv": f"{sid}.csv", "fs": fs,
                        "gender": "male" if i % 2 == 0 else "female", "age_years": 20 + 7 * i})
    with open(data_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump({"dataset": "perfbench", "records": records}, f, indent=1)
    return sizes


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _windows_per_subject(index: dict) -> dict[str, int]:
    """Window count per subject in a parsed windows.json."""
    counts: dict[str, int] = {}
    for row in index["windows"]:
        counts[row["subject_id"]] = counts.get(row["subject_id"], 0) + 1
    return counts


def _load_json(path: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        problems.append(f"{path.name}: {e}")
        return None


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """One workload: set-up, the CLI commands of a pass, and output checks."""

    name: str
    config: dict
    # per-stage throughput figure in the report -> the stage it divides by
    rates: dict[str, str]
    # files a pass writes; removed before each pass so that every pass
    # creates them afresh, as a first run does, instead of overwriting
    outputs: tuple[str, ...]
    items: int = 0                      # work items per pass, fixed by set-up
    _first_hash: dict[str, str] = field(default_factory=dict)

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def clear_outputs(self, work: Path) -> None:
        for name in self.outputs:
            path = work / name
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)

    def commands(self, work: Path) -> list[list[str]]:
        cfg = str(work / "config.json")
        return [[stage, "--workdir", str(work), "--config", cfg] for stage in self.rates.values()]

    def check(self, work: Path, res: StageResult) -> tuple[list[str], int, int]:
        """Problems in a stage's outputs, plus extra (attempted, failed) operations."""
        raise NotImplementedError

    def _write_config(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        (work / "config.json").write_text(json.dumps(self.config, indent=1), encoding="utf-8")

    def _setup_stage(self, work: Path, args: list[str]) -> None:
        res = run_stage(work, [*args, "--workdir", str(work), "--config", str(work / "config.json")])
        if res.rc != 0:
            raise RunError(f"set-up `transecg {args[0]}` exited {res.rc}: {res.stderr.strip()}")

    def _same_as_first(self, key: str, path: Path, problems: list[str]) -> None:
        digest = _sha256(path)
        if self._first_hash.setdefault(key, digest) != digest:
            problems.append(f"{path.name} differs from the first pass")


class TrainWorkload(Workload):
    # 6 subjects split 4/1/1 by participant; 8 windows each gives 32 train
    # windows, one full batch per epoch
    SUBJECTS, WINDOWS_PER_SUBJECT, TRAIN_WINDOWS = 6, 8, 32

    def setup(self, work: Path, seed: int) -> None:
        duration = self.WINDOWS_PER_SUBJECT * SEQ_LEN / FS_STORE + 2.0
        write_dataset(work / "data", seed, FS_STORE, [duration] * self.SUBJECTS)
        self._write_config(work)
        self._setup_stage(work, ["preprocess"])
        # items per pass assumes this exact store; refuse to time any other
        counts = _windows_per_subject(json.loads((work / "windows.json").read_text(encoding="utf-8")))
        expected = {f"S{i:03d}": self.WINDOWS_PER_SUBJECT for i in range(self.SUBJECTS)}
        if counts != expected:
            raise RunError(f"set-up store has windows per subject {counts}, expected {expected}")
        self.items = self.config["max_epochs"] * self.TRAIN_WINDOWS

    def check(self, work: Path, res: StageResult) -> tuple[list[str], int, int]:
        problems: list[str] = []
        report = _load_json(work / "train_report.json", problems)
        if report is not None:
            epochs = report.get("epochs", [])
            if len(epochs) != self.config["max_epochs"]:
                problems.append(f"{len(epochs)} epochs, expected {self.config['max_epochs']}")
            losses = [e.get(k) for e in epochs for k in ("train_loss", "val_loss")]
            if not all(isinstance(v, float) and math.isfinite(v) for v in losses):
                problems.append("non-finite loss")
        if (work / "model.ckpt").exists():
            self._same_as_first("ckpt", work / "model.ckpt", problems)
        else:
            problems.append("model.ckpt missing")
        return problems, 0, 0


class IngestWorkload(Workload):
    RECORDS, FS_RAW, DURATION_S = 16, 500.0, 300.0

    def setup(self, work: Path, seed: int) -> None:
        sizes = write_dataset(work / "data", seed, self.FS_RAW, [self.DURATION_S] * self.RECORDS)
        self._write_config(work)
        self.items = sum(sizes.values())
        # resampling to 250 Hz keeps round(n * 250 / 500) samples
        self.expected_windows = {
            sid: int(round(n * FS_STORE / self.FS_RAW)) // SEQ_LEN for sid, n in sizes.items()
        }

    def check(self, work: Path, res: StageResult) -> tuple[list[str], int, int]:
        problems: list[str] = []
        index = _load_json(work / "windows.json", problems)
        store = work / "windows.bin"
        if index is None or not store.exists():
            return problems + ["window store missing"], 0, 0
        counts = _windows_per_subject(index)
        if counts != self.expected_windows:
            problems.append(f"windows per record {counts} != {self.expected_windows}")
        n = len(index["windows"])
        if store.stat().st_size != n * index["seq_len"] * 8:
            problems.append(f"windows.bin is {store.stat().st_size} bytes for {n} windows")
        else:
            data = np.fromfile(store, dtype="<f8")
            if data.size and not (data.min() >= 0.0 and data.max() <= 1.0):
                problems.append("window samples outside [0, 1]")
        self._same_as_first("bin", store, problems)
        self._same_as_first("json", work / "windows.json", problems)
        return problems, 0, 0


SUMMARY = re.compile(r"attributed (\d+) windows \((\d+) skipped\)")


class ExplainWorkload(Workload):
    # 6 subjects split 2/1/3 by participant: 60 test windows, 40 train windows
    SUBJECTS, WINDOWS_PER_SUBJECT, TEST_WINDOWS = 6, 20, 60
    METRIC_KEYS = ("accuracy", "macro_precision", "macro_recall", "macro_f1",
                   "per_class_auc", "roc", "absent_classes")

    def setup(self, work: Path, seed: int) -> None:
        duration = self.WINDOWS_PER_SUBJECT * SEQ_LEN / FS_STORE + 2.0
        write_dataset(work / "data", seed, FS_STORE, [duration] * self.SUBJECTS)
        self._write_config(work)
        self._setup_stage(work, ["preprocess"])
        self._setup_stage(work, ["train"])
        self.items = min(self.config["explain_windows"], self.TEST_WINDOWS)

    def check(self, work: Path, res: StageResult) -> tuple[list[str], int, int]:
        problems: list[str] = []
        if res.stage == "evaluate":
            metrics = _load_json(work / "metrics.json", problems)
            if metrics is not None:
                missing = [k for k in self.METRIC_KEYS if k not in metrics]
                if missing:
                    problems.append(f"metrics.json lacks {missing}")
            return problems, 0, 0
        attempted = self.items
        doc = _load_json(work / "explain" / "attribution.json", problems)
        if doc is None:
            return problems, attempted, attempted
        total = sum(doc["percentages"].values())
        if abs(total - 100.0) > 1e-6:
            problems.append(f"percentages sum to {total!r}")
        attributed = int(doc["n_windows"])
        skipped = attempted - attributed
        said = SUMMARY.search(res.stdout)
        if said is None:
            problems.append(f"no attributed/skipped counts in {res.stdout.strip()!r}")
        elif int(said[1]) != attributed or int(said[1]) + int(said[2]) != attempted:
            problems.append(f"{said[0]!r} disagrees with {attributed} of {attempted} attributed")
        return problems, attempted, max(skipped, 0)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        TrainWorkload(
            "train",
            {"task": "gender", "seed": 0, "max_epochs": 3, "early_stop_patience": 4},
            {"train_windows_per_s": "train"},
            ("model.ckpt", "train_report.json"),
        ),
        IngestWorkload(
            "ingest",
            {"task": "gender", "seed": 0},
            {"preprocess_samples_per_s": "preprocess"},
            ("windows.bin", "windows.json"),
        ),
        ExplainWorkload(
            "explain",
            {"task": "gender", "seed": 0, "train_frac": 0.4, "val_frac": 0.2,
             "test_frac": 0.4, "max_epochs": 1, "explain_windows": 60},
            {"evaluate_windows_per_s": "evaluate", "explain_windows_per_s": "explain"},
            ("metrics.json", "explain"),
        ),
    )
}

"""Dataset ingestion (manifest + CSV) and a ground-truth-bearing synthetic ECG generator."""

from __future__ import annotations

import contextlib
import io
import json
import logging
import reprlib
import sys
import warnings
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .signal_core import EcgRecord

logger = logging.getLogger(__name__)


class Task(Enum):
    GENDER = "gender"
    AGE_GROUP = "age"
    PARTICIPANT_ID = "id"


AGE_BIN_EDGES = (18, 35, 50, 65)  # inclusive upper edges; 66+ is the last bin
AGE_BIN_NAMES = ("0-18", "19-35", "36-50", "51-65", "66+")


@dataclass
class ManifestEntry:
    subject_id: str
    csv_path: Path
    fs: float
    gender: str | None = None
    age_years: int | None = None


def json_value(value, kind: type, what: str):
    """`value` if it has `kind`'s JSON type, else a ValueError naming `what`.

    The one type rule for every JSON document the program reads: a str takes a
    string, an int an integer, a float an integer or a float (kept as given)
    within the finite float64 range, a list a list and a dict an object. A bool
    passes for none of them."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{what} expects {kind.__name__}, got {reprlib.repr(value)}")
    # false for NaN and ±inf (json.loads and float() read both) and for an int beyond float64
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} expects a finite float, got {reprlib.repr(value)}")
    return value


def json_field(doc: dict, name: str, kind: type, where: str, optional: bool = False):
    """doc[name] checked by json_value; an optional field may be absent or null (None)."""
    if optional and doc.get(name) is None:
        return None
    if name not in doc:
        raise ValueError(f"{where} has no field {name!r}")
    return json_value(doc[name], kind, f"{where} field {name!r}")


def json_dataclass(base, doc: dict, what: str, coerce: bool = False):
    """Dataclass `base` with the fields `doc` sets, each of its default's type by
    json_value; with coerce, values are first converted to that type if they can be."""
    kinds = {f.name: type(f.default) for f in fields(base)}
    updates = {}
    for name, value in json_value(doc, dict, what).items():
        if name not in kinds:
            raise ValueError(f"unknown {what} field {name!r}")
        if coerce:
            with contextlib.suppress(ValueError):
                value = kinds[name](value)
        updates[name] = json_value(value, kinds[name], f"{what} field {name!r}")
    return replace(base, **updates)


def read_json(path) -> dict:
    """The JSON object file `path` holds, or a ValueError that names the path."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise ValueError(f"{path}: {e}") from None
    return json_value(doc, dict, str(path))


def write_json(path, doc) -> None:
    """Write `doc` as every JSON artifact is written: sorted keys, a two-space
    indent, \\n line ends and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read and validate a dataset manifest JSON file."""
    path = Path(path)
    entries = []
    seen = set()
    for i, row in enumerate(json_field(read_json(path), "records", list, str(path))):
        where = f"{path}: record {i}"
        json_value(row, dict, f"{path} field 'records' item {i}")
        sid = json_field(row, "subject_id", str, where)
        csv = path.parent / json_field(row, "csv", str, where)
        fs = json_field(row, "fs", float, where)
        if sid in seen:
            raise ValueError(f"{path}: duplicate subject_id {sid!r}")
        seen.add(sid)
        if not csv.exists():
            raise FileNotFoundError(f"{path}: record {i} references missing file {csv}")
        gender = json_field(row, "gender", str, where, optional=True)
        age = json_field(row, "age_years", int, where, optional=True)
        if age is not None and age < 0:
            raise ValueError(f"{where} field 'age_years' must be non-negative, got {age}")
        entries.append(ManifestEntry(sid, csv, fs, gender, age))
    return entries


# control bytes np.loadtxt may take as a line or field break where text-mode reading does not
_LOADTXT_ONLY_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _is_plain(path: Path) -> bool:
    """Whether the file is ASCII and holds none of _LOADTXT_ONLY_BREAKS."""
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            if not chunk.isascii() or any(b in chunk for b in _LOADTXT_ONLY_BREAKS):
                return False
    return True


def _parse_plain(path: Path) -> np.ndarray | None:
    """A plain file's samples by one np.loadtxt call, or None: the file is not
    plain, or loadtxt does not read it as one column of floats."""
    if not _is_plain(path):
        return None
    with open(path, encoding="ascii") as f:
        header = f.readline().strip().lower() == "amplitude"
    try:
        with warnings.catch_warnings():
            # a file without samples is refused by EcgRecord, which names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(path, dtype=np.float64, comments=None, quotechar=None,
                                ndmin=2, skiprows=int(header))
    except ValueError:
        return None
    return values[:, 0] if values.shape[1] == 1 else None


def _parse_lines(path: Path) -> list[float]:
    """The samples line by line: the reference reader, and the only one that
    names the line it cannot read. The file must be UTF-8 throughout; lines
    end at \\n, \\r\\n or \\r, as in a text-mode read."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e.reason} {raw[e.start]:#04x} "
                         f"at byte offset {e.start}") from None
    values = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        tok = line.strip()
        if not tok:
            continue
        if lineno == 1 and tok.lower() == "amplitude":
            continue
        try:
            values.append(float(tok))
        except ValueError as e:
            raise ValueError(
                f"{path}: non-numeric sample {tok!r} at line {lineno}"
            ) from e
    return values


def load_record(entry: ManifestEntry) -> EcgRecord:
    """Load one CSV trace: one sample per line as Python's float reads it, blank
    lines skipped, and an optional 'amplitude' header on the first line.

    A plain file (ASCII without _LOADTXT_ONLY_BREAKS) is parsed by np.loadtxt
    in C; any other file, and any that loadtxt does not read as one column, by
    the line loop. Both give the same samples."""
    samples = _parse_plain(entry.csv_path)
    if samples is None:
        samples = _parse_lines(entry.csv_path)
    try:
        return EcgRecord(samples, entry.fs)
    except ValueError as e:
        raise ValueError(f"{entry.csv_path}: {e}") from None


def save_record_csv(path: str | Path, samples: np.ndarray) -> None:
    """Write samples one-per-line; repr round-trips float64 exactly."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("amplitude\n")
        f.write("".join(f"{v!r}\n" for v in np.asarray(samples, dtype=np.float64).tolist()))


@dataclass(frozen=True)
class WaveParams:
    """One Gaussian bump: center offset from the beat anchor (s), amplitude, sigma (s)."""

    offset_s: float
    amplitude: float
    sigma_s: float


DEFAULT_WAVES: dict[str, WaveParams] = {
    "P": WaveParams(-0.180, 0.12, 0.025),
    "Q": WaveParams(-0.030, -0.10, 0.010),
    "R": WaveParams(0.0, 1.0, 0.012),
    "S": WaveParams(0.030, -0.15, 0.010),
    "T": WaveParams(0.250, 0.30, 0.060),
}


@dataclass
class SyntheticEcgSpec:
    bpm: float = 60.0
    duration_s: float = 8.0
    fs: float = 250.0
    waves: dict[str, WaveParams] = field(default_factory=lambda: dict(DEFAULT_WAVES))
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (30.0 <= self.bpm <= 220.0):
            raise ValueError(f"bpm must be in [30, 220], got {self.bpm}")
        if self.fs < 100.0:
            raise ValueError(f"fs must be >= 100, got {self.fs}")
        for name, w in self.waves.items():
            if w.sigma_s <= 0:
                raise ValueError(f"wave {name}: sigma must be positive")


@dataclass
class BeatTruth:
    """Exact wave-center sample indices for one synthetic beat (None if off-record)."""

    p: int | None
    q: int | None
    r: int
    s: int | None
    t: int | None


def synthesize(spec: SyntheticEcgSpec) -> tuple[EcgRecord, list[BeatTruth]]:
    """Generate a Gaussian-bump ECG and the exact fiducials of each beat whose R
    lies on the record."""
    n = int(round(spec.duration_s * spec.fs))
    t = np.arange(n) / spec.fs
    x = np.zeros(n)
    period = 60.0 / spec.bpm
    n_beats = int(np.floor((spec.duration_s - 1e-9) / period)) + 1

    beats = []
    for k in range(n_beats):
        anchor = k * period
        for w in spec.waves.values():
            c = anchor + w.offset_s
            # exp(-z²/2) is exactly 0.0 beyond |z| ≈ 38.6, so samples over 40σ away keep x as is
            lo, hi = np.clip(np.array([c - 40 * w.sigma_s, c + 40 * w.sigma_s]) * spec.fs, 0, n)
            near = slice(int(lo), int(hi) + 1)
            x[near] += w.amplitude * np.exp(-0.5 * ((t[near] - c) / w.sigma_s) ** 2)

        def _idx(offset_s: float) -> int | None:
            i = int(round((anchor + offset_s) * spec.fs))
            return i if 0 <= i < n else None

        r = _idx(spec.waves["R"].offset_s)
        if r is None:
            continue
        beats.append(BeatTruth(
            p=_idx(spec.waves["P"].offset_s),
            q=_idx(spec.waves["Q"].offset_s),
            r=r,
            s=_idx(spec.waves["S"].offset_s),
            t=_idx(spec.waves["T"].offset_s),
        ))

    if spec.noise_std > 0:
        rng = np.random.default_rng(spec.seed)
        x = x + rng.normal(0.0, spec.noise_std, size=n)

    return EcgRecord(x, spec.fs), beats


def age_bin(age_years: int) -> int:
    """Map an age in years to one of the five age-group class indices."""
    for i, edge in enumerate(AGE_BIN_EDGES):
        if age_years <= edge:
            return i
    return len(AGE_BIN_EDGES)


def build_vocab(subject_ids: Iterable[str], task: Task) -> dict[str, int]:
    """Build the label vocabulary (name -> class index) for a task."""
    if task is Task.GENDER:
        return {"male": 0, "female": 1}
    if task is Task.AGE_GROUP:
        return {name: i for i, name in enumerate(AGE_BIN_NAMES)}
    return {sid: i for i, sid in enumerate(sorted(set(subject_ids)))}


def record_labels(rows: list[dict], task: Task, vocab: dict[str, int]) -> list[int | None]:
    """Class index of each store row for a task, or None where its metadata lacks
    the label; each subject so excluded is logged once, with its window count.
    The id vocabulary is built from the same rows, so every row has an id label."""
    if task is Task.PARTICIPANT_ID:
        return [vocab[row["subject_id"]] for row in rows]
    if task is Task.GENDER:
        labels = [vocab.get(row.get("gender")) for row in rows]
    else:
        labels = [None if row.get("age_years") is None else age_bin(row["age_years"])
                  for row in rows]
    missing = Counter(row["subject_id"] for row, label in zip(rows, labels) if label is None)
    for sid, n in missing.items():
        logger.warning("record %s excluded: no %s label (%d windows)", sid, task.value, n)
    return labels

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transecg import data_io
from transecg.data_io import (
    DEFAULT_WAVES,
    SyntheticEcgSpec,
    Task,
    WaveParams,
    age_bin,
    build_vocab,
    load_manifest,
    load_record,
    record_labels,
    save_record_csv,
    synthesize,
)
from transecg.delineation import delineate, pan_tompkins
from transecg.signal_core import EcgRecord


def write_manifest(tmp_path, records, dataset="toy"):
    for row in records:
        (tmp_path / row["csv"]).write_text("amplitude\n0.0\n1.0\n")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"dataset": dataset, "records": records}))
    return path


class TestManifest:
    def test_load_round_trip(self, tmp_path):
        path = write_manifest(tmp_path, [
            {"subject_id": "S1", "csv": "s1.csv", "fs": 500.0,
             "gender": "male", "age_years": 41},
            {"subject_id": "S2", "csv": "s2.csv", "fs": 250.0},
        ])
        entries = load_manifest(path)
        assert [e.subject_id for e in entries] == ["S1", "S2"]
        assert entries[0].age_years == 41
        assert entries[1].gender is None
        assert entries[0].csv_path == tmp_path / "s1.csv"

    def test_duplicate_subject_rejected(self, tmp_path):
        path = write_manifest(tmp_path, [
            {"subject_id": "S1", "csv": "a.csv", "fs": 250.0},
            {"subject_id": "S1", "csv": "b.csv", "fs": 250.0},
        ])
        with pytest.raises(ValueError, match="duplicate subject_id"):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"records": [
            {"subject_id": "S1", "csv": "ghost.csv", "fs": 250.0},
        ]}))
        with pytest.raises(FileNotFoundError, match="ghost.csv"):
            load_manifest(path)

    def test_missing_field_names_record(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"records": [{"subject_id": "S1", "fs": 250.0}]}))
        with pytest.raises(ValueError, match="record 0"):
            load_manifest(path)

    def test_missing_records_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"dataset": "x"}))
        with pytest.raises(ValueError, match="records"):
            load_manifest(path)


class TestRecordCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=257)
        csv = tmp_path / "trace.csv"
        save_record_csv(csv, samples)
        path = write_manifest(tmp_path, [
            {"subject_id": "S1", "csv": "trace.csv", "fs": 360.0},
        ])
        # write_manifest clobbered trace.csv; restore it
        save_record_csv(csv, samples)
        rec = load_record(load_manifest(path)[0])
        assert rec.fs == 360.0
        assert np.array_equal(rec.samples, samples)

    def test_non_numeric_line_cited(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("amplitude\n0.5\nbogus\n0.25\n")
        entry = data_io.ManifestEntry("S1", csv, 250.0)
        with pytest.raises(ValueError, match="line 3"):
            load_record(entry)

    def test_headerless_csv_accepted(self, tmp_path):
        csv = tmp_path / "plain.csv"
        csv.write_text("0.5\n-0.25\n")
        rec = load_record(data_io.ManifestEntry("S1", csv, 250.0))
        assert np.array_equal(rec.samples, [0.5, -0.25])

    def test_plain_file_skips_the_line_loop(self, tmp_path, monkeypatch):
        csv = tmp_path / "trace.csv"
        save_record_csv(csv, np.linspace(-1.0, 1.0, 11))
        monkeypatch.setattr(data_io, "_parse_lines", lambda path: pytest.fail("line loop ran"))
        rec = load_record(data_io.ManifestEntry("S1", csv, 250.0))
        assert np.array_equal(rec.samples, np.linspace(-1.0, 1.0, 11))

    def test_save_writes_repr_lines(self, tmp_path):
        csv = tmp_path / "trace.csv"
        save_record_csv(csv, np.array([0.1, -2.5e-300, 3.0]))
        assert csv.read_text(encoding="utf-8") == "amplitude\n0.1\n-2.5e-300\n3.0\n"


def line_loop_samples(entry):
    """The reference reader: load_record's per-line loop and record checks, as
    they were before plain files took the np.loadtxt parse, and a file that is
    not UTF-8 refused by the first byte where it stops being so."""
    raw = entry.csv_path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{entry.csv_path}: not UTF-8 text: {e.reason} {raw[e.start]:#04x} "
                         f"at byte offset {e.start}") from None
    values = []
    with open(entry.csv_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            tok = line.strip()
            if not tok:
                continue
            if lineno == 1 and tok.lower() == "amplitude":
                continue
            try:
                values.append(float(tok))
            except ValueError as e:
                raise ValueError(
                    f"{entry.csv_path}: non-numeric sample {tok!r} at line {lineno}"
                ) from e
    try:
        return EcgRecord(np.array(values, dtype=np.float64), entry.fs).samples
    except ValueError as e:
        raise ValueError(f"{entry.csv_path}: {e}") from None


def outcome(read, entry):
    """The samples' bits, or the error message, of read(entry)."""
    try:
        return read(entry).view(np.uint64).tolist()
    except ValueError as e:
        return str(e)


# characters that float() or np.loadtxt treat specially, and digits that only float() reads
SEPARATORS = [" ", "\t", "\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
              "\xa0", "\u3000", "_", "#", ",", '"']
CSV_PIECES = [*"0123456789.+-eE", "nan", "inf", "\n", "\r", *SEPARATORS,
              *map(chr, range(0x660, 0x66A))]
numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**6, 10**6).map(str))
separators = st.lists(st.sampled_from(SEPARATORS), max_size=2).map("".join)
pieces = st.lists(st.sampled_from(CSV_PIECES), max_size=6).map("".join)
# mostly lines that one reader or both can read: numbers padded or joined by separators
csv_lines = st.one_of(numbers, st.tuples(separators, numbers, separators).map("".join),
                      st.tuples(numbers, separators, numbers).map("".join), pieces)
csv_texts = st.tuples(
    st.sampled_from(["", "amplitude\n", "Amplitude\r\n", " amplitude\t\r", "amplitude"]),
    st.lists(st.tuples(csv_lines, st.sampled_from(["\n", "\r\n", "\r", "\n\n"])), max_size=6),
).map(lambda parts: parts[0] + "".join(line + end for line, end in parts[1]))
# bytes that are not UTF-8 where they stand: a stray continuation or invalid byte,
# a cut multi-byte character and an encoded surrogate
NOT_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]
csv_bytes = st.tuples(
    csv_texts.map(lambda text: text.encode("utf-8")),
    st.lists(st.tuples(st.integers(0), st.sampled_from(NOT_UTF8)), max_size=2),
).map(lambda parts: _insert_bytes(*parts))


def _insert_bytes(blob, inserts):
    for at, piece in inserts:
        at %= len(blob) + 1
        blob = blob[:at] + piece + blob[at:]
    return blob


@settings(deadline=None)
@given(blob=csv_bytes)
@example(blob=b"amplitude\n1\x0b2\n")
@example(blob="1_000\n\u0661\u0662\n\xa01.5\n".encode("utf-8"))
@example(blob=b"amplitude\n")
@example(blob=b"amplitude\n0.5\n\xff\n")
@example(blob=b"bogus\n\xc3")
def test_load_record_matches_line_loop(tmp_path_factory, blob):
    csv = tmp_path_factory.mktemp("csv") / "r.csv"
    csv.write_bytes(blob)
    entry = data_io.ManifestEntry("S1", csv, 250.0)
    assert outcome(lambda e: load_record(e).samples, entry) == outcome(line_loop_samples, entry)


finite_doubles = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
).filter(np.isfinite)


@settings(deadline=None)
@given(values=st.lists(finite_doubles, min_size=1, max_size=50),
       fmt=st.sampled_from([repr, "{:.17g}".format, "{:.6e}".format]))
def test_written_doubles_parse_bit_identically(tmp_path_factory, values, fmt):
    csv = tmp_path_factory.mktemp("csv") / "r.csv"
    csv.write_text("amplitude\n" + "".join(f"{fmt(v)}\n" for v in values), encoding="utf-8")
    got = load_record(data_io.ManifestEntry("S1", csv, 250.0)).samples
    want = np.array([float(fmt(v)) for v in values], dtype=np.float64)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def full_record_samples(spec):
    """synthesize's samples with every Gaussian bump evaluated over the whole
    record: the reference for its evaluation near each bump's centre only."""
    n = int(round(spec.duration_s * spec.fs))
    t = np.arange(n) / spec.fs
    x = np.zeros(n)
    period = 60.0 / spec.bpm
    for k in range(int(np.floor((spec.duration_s - 1e-9) / period)) + 1):
        for w in spec.waves.values():
            c = k * period + w.offset_s
            x += w.amplitude * np.exp(-0.5 * ((t - c) / w.sigma_s) ** 2)
    if spec.noise_std > 0:
        x = x + np.random.default_rng(spec.seed).normal(0.0, spec.noise_std, size=n)
    return x


wave_params = st.builds(WaveParams, offset_s=st.floats(-0.5, 0.5), amplitude=st.floats(-2.0, 2.0),
                        sigma_s=st.floats(1e-4, 0.3))


@settings(deadline=None)
@given(bpm=st.floats(30.0, 220.0), fs=st.floats(100.0, 600.0), duration_s=st.floats(0.05, 8.0),
       waves=st.fixed_dictionaries({name: wave_params for name in "PQRST"}),
       noise_std=st.sampled_from([0.0, 0.01, 0.3]), seed=st.integers(0, 2**63 - 1))
@example(bpm=61.3, fs=360.0, duration_s=20.0, waves=DEFAULT_WAVES, noise_std=0.01, seed=4)
# narrow, far-apart bumps: between 30σ and 38.6σ of each, x holds only its tiny tail
@example(bpm=30.0, fs=600.0, duration_s=4.0, noise_std=0.0, seed=0,
         waves={name: WaveParams(0.0, 1.0, 0.005) for name in "PQRST"})
def test_synthesize_matches_full_record_loop(bpm, fs, duration_s, waves, noise_std, seed):
    spec = SyntheticEcgSpec(bpm=bpm, duration_s=duration_s, fs=fs, waves=waves,
                            noise_std=noise_std, seed=seed)
    assert synthesize(spec)[0].samples.tobytes() == full_record_samples(spec).tobytes()


class TestSynthesize:
    def test_beat_count_and_spacing(self):
        rec, beats = synthesize(SyntheticEcgSpec(bpm=60.0, duration_s=8.0, fs=250.0))
        assert rec.samples.size == 2000
        assert [b.r for b in beats] == [0, 250, 500, 750, 1000, 1250, 1500, 1750]

    def test_r_peaks_are_local_maxima(self):
        rec, beats = synthesize(SyntheticEcgSpec(bpm=72.0, duration_s=10.0))
        for beat in beats[1:-1]:
            lo, hi = beat.r - 10, beat.r + 11
            assert np.argmax(rec.samples[lo:hi]) + lo == beat.r

    def test_ground_truth_matches_wave_offsets(self):
        spec = SyntheticEcgSpec(bpm=60.0, duration_s=4.0, fs=250.0)
        _, beats = synthesize(spec)
        beat = beats[1]
        assert beat.r == 250
        assert beat.p == 250 + round(DEFAULT_WAVES["P"].offset_s * 250)
        assert beat.q == 250 + round(DEFAULT_WAVES["Q"].offset_s * 250)
        assert beat.s == 250 + round(DEFAULT_WAVES["S"].offset_s * 250)
        assert beat.t == 250 + round(DEFAULT_WAVES["T"].offset_s * 250)

    def test_off_record_fiducials_are_none(self):
        _, beats = synthesize(SyntheticEcgSpec(bpm=60.0, duration_s=4.0))
        first = beats[0]
        assert first.r == 0
        assert first.p is None and first.q is None  # before sample 0
        assert first.s is not None and first.t is not None

    def test_noise_seed_deterministic(self):
        spec = dict(bpm=80.0, duration_s=6.0, noise_std=0.05, seed=11)
        a, _ = synthesize(SyntheticEcgSpec(**spec))
        b, _ = synthesize(SyntheticEcgSpec(**spec))
        c, _ = synthesize(SyntheticEcgSpec(**{**spec, "seed": 12}))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_bpm_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="bpm"):
            SyntheticEcgSpec(bpm=20.0)
        with pytest.raises(ValueError, match="bpm"):
            SyntheticEcgSpec(bpm=300.0)

    def test_bad_sigma_rejected(self):
        waves = dict(DEFAULT_WAVES)
        waves["P"] = WaveParams(-0.18, 0.12, 0.0)
        with pytest.raises(ValueError, match="sigma"):
            SyntheticEcgSpec(waves=waves)

    def test_detector_agrees_with_ground_truth(self):
        """The generator's R locations are an oracle for the detector chain."""
        rec, beats = synthesize(SyntheticEcgSpec(bpm=66.0, duration_s=20.0,
                                                 noise_std=0.01, seed=3))
        peaks = pan_tompkins(rec.samples, rec.fs)
        assert len(peaks) == len(beats)
        for got, beat in zip(peaks, beats):
            assert abs(got - beat.r) <= 5  # 20 ms at fs=250

    def test_delineation_matches_truth_centers(self):
        rec, beats = synthesize(SyntheticEcgSpec(bpm=60.0, duration_s=16.0))
        peaks = pan_tompkins(rec.samples, rec.fs)
        fids = delineate(rec.samples, peaks, rec.fs)
        by_r = {f.r: f for f in fids}
        checked = 0
        for beat in beats:
            match = [r for r in by_r if abs(r - beat.r) <= 3]
            if not match or beat.p is None or beat.t is None:
                continue
            f = by_r[match[0]]
            assert abs(f.q - beat.q) <= 3
            assert abs(f.s - beat.s) <= 3
            # wave peaks must fall inside the delineated onset/offset spans
            assert f.p_on <= beat.p <= f.p_off
            assert f.t_on <= beat.t <= f.t_off
            checked += 1
        assert checked >= len(beats) - 2


class TestLabels:
    @pytest.mark.parametrize("age,expected", [
        (0, 0), (18, 0), (19, 1), (35, 1), (36, 2), (50, 2),
        (51, 3), (65, 3), (66, 4), (90, 4),
    ])
    def test_age_bins(self, age, expected):
        assert age_bin(age) == expected

    def test_gender_vocab_fixed(self):
        assert build_vocab([], Task.GENDER) == {"male": 0, "female": 1}

    def test_age_vocab_five_bins(self):
        vocab = build_vocab([], Task.AGE_GROUP)
        assert vocab == {"0-18": 0, "19-35": 1, "36-50": 2, "51-65": 3, "66+": 4}

    def test_id_vocab_sorted(self):
        assert build_vocab(["B", "A", "C", "A"], Task.PARTICIPANT_ID) == {"A": 0, "B": 1, "C": 2}

    def test_record_label_per_task(self):
        rows = [{"subject_id": "S7", "gender": "female", "age_years": 40}]
        assert record_labels(rows, Task.GENDER, build_vocab(["S7"], Task.GENDER)) == [1]
        assert record_labels(rows, Task.AGE_GROUP, build_vocab(["S7"], Task.AGE_GROUP)) == [2]
        vocab = build_vocab(["S7"], Task.PARTICIPANT_ID)
        assert record_labels(rows, Task.PARTICIPANT_ID, vocab) == [0]

    def test_missing_metadata_returns_none(self):
        rows = [{"subject_id": "S1", "gender": None, "age_years": None}]
        assert record_labels(rows, Task.GENDER, build_vocab(["S1"], Task.GENDER)) == [None]
        assert record_labels(rows, Task.AGE_GROUP, build_vocab(["S1"], Task.AGE_GROUP)) == [None]

import concurrent.futures
import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
import re
import shutil
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import framing
from transecg import autodiff, cli, data_io, explain, training, vit

README = Path(__file__).resolve().parent.parent / "README.md"

TINY_ARGS = [
    "--set", "seq_len=1000", "--set", "patch_size=50",
    "--set", "hidden_dim=8", "--set", "n_layers=2", "--set", "n_heads=2",
    "--set", "mlp_dim=16", "--set", "survival_prob=1.0",
    "--set", "synth_subjects=8", "--set", "synth_duration_s=16",
    "--set", "max_epochs=2", "--set", "batch_size=8",
    "--set", "lr=0.001", "--set", "explain_windows=4",
]


# a JSON value of each type, and the types each field kind takes
JSON_TYPES = {
    "bool": st.booleans(), "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False), "str": st.text(max_size=4),
    "list": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    "null": st.none(),
}
TAKES = {str: {"str"}, int: {"int"}, float: {"int", "float"}, list: {"list"}, dict: {"object"}}
ON_FIXTURES = settings(max_examples=40, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


def wrong_type(kind, optional=False):
    """A JSON value that a field of `kind` does not take (null only if it is required)."""
    bad = set(JSON_TYPES) - TAKES[kind] - ({"null"} if optional else set())
    return st.one_of(*(JSON_TYPES[name] for name in sorted(bad)))


def record(**changes):
    return {"subject_id": "S1", "csv": "s1.csv", "fs": 250.0, **changes}


def rewrite_header(ckpt, dest, edit):
    """Copy checkpoint `ckpt` to `dest` with edit(header) applied to its JSON header."""
    blob = ckpt.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + hlen])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    dest.write_bytes(struct.pack("<Q", len(new)) + new + blob[8 + hlen:])
    return dest


def run(command, workdir, extra=()):
    code = cli.main([command, "--workdir", str(workdir), "--seed", "0",
                     "--task", "gender", *TINY_ARGS, *extra])
    assert not autodiff._TAPE, f"{command} left {len(autodiff._TAPE)} nodes on the tape"
    return code


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth -> preprocess -> train run shared across tests."""
    workdir = tmp_path_factory.mktemp("pipeline")
    for command in ("synth", "preprocess", "train"):
        assert run(command, workdir) == 0
    return workdir


@pytest.fixture(scope="module")
def short_store(tmp_path_factory):
    """A window store preprocessed at seq_len 500, half the length TINY_ARGS train at."""
    workdir = tmp_path_factory.mktemp("short_store")
    for command in ("synth", "preprocess"):
        assert run(command, workdir, extra=["--set", "seq_len=500"]) == 0
    return workdir


class TestConfig:
    def test_defaults_valid(self):
        cli.RunConfig().validate()

    def test_readme_config_table_matches_run_config(self):
        """The README's table lists every RunConfig field in order, with its
        default as JSON and its owner."""
        rows = [[cell.strip().strip("`") for cell in line.split("|")[1:4]]
                for line in README.read_text(encoding="utf-8").splitlines()
                if line.startswith("| `")]
        got = [(name, json.loads(default), type(json.loads(default))) for name, default, _ in rows]
        want = [(f.name, f.default, type(f.default)) for f in dataclasses.fields(cli.RunConfig)]
        assert got == want
        owners = {f.name: cls.__name__ for cls in (training.TrainHParams, vit.VitConfig)
                  for f in dataclasses.fields(cls)}
        for name, _, owner in rows:
            if name in owners:
                assert owner == owners[name], name
            else:
                assert owner in ("preprocessing", "run"), name

    def test_negative_lr_names_field(self):
        cfg = cli.RunConfig(lr=-1.0)
        with pytest.raises(ValueError, match="lr"):
            cfg.validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            data_io.json_dataclass(cli.RunConfig(), {"bogus": 1}, "config")

    def test_set_coerces_to_field_type(self):
        cfg = data_io.json_dataclass(cli.RunConfig(), {"max_epochs": "7", "lr": "0.5"},
                                     "config", coerce=True)
        assert cfg.max_epochs == 7 and isinstance(cfg.max_epochs, int)
        assert cfg.lr == 0.5

    @pytest.mark.parametrize("item,field,kind", [
        ("seed=abc", "seed", "int"), ("max_epochs=1.5", "max_epochs", "int"),
        ("lr=fast", "lr", "float"),
    ])
    def test_bad_override_exits_naming_field_and_type(self, tmp_path, capsys, item, field, kind):
        assert run("synth", tmp_path, extra=["--set", item]) == 1
        err = capsys.readouterr().err
        assert repr(field) in err and kind in err

    @pytest.mark.parametrize("doc,field,kind", [
        ({"seed": "abc"}, "seed", "int"), ({"max_epochs": 1.5}, "max_epochs", "int"),
        ({"batch_size": True}, "batch_size", "int"), ({"lr": "fast"}, "lr", "float"),
        ({"lr": False}, "lr", "float"), ({"task": 1}, "task", "str"),
        ({"seed": None}, "seed", "int"), ({"lr": float("nan")}, "lr", "finite float"),
        ({"lr": 10**400}, "lr", "finite float"),
    ], ids=["seed-str", "max_epochs-float", "batch_size-bool", "lr-str", "lr-bool",
            "task-int", "seed-null", "lr-nan", "lr-int-beyond-float64"])
    def test_bad_config_file_value_exits_naming_field_type_and_path(
            self, tmp_path, capsys, doc, field, kind):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(doc))
        assert run("synth", tmp_path, extra=["--config", str(cfile)]) == 1
        err = capsys.readouterr().err
        assert repr(field) in err and kind in err and str(cfile) in err

    def test_config_file_int_kept_for_float_field(self):
        cfg = data_io.json_dataclass(cli.RunConfig(), {"lr": 1, "seed": 7, "task": "age"},
                                     "config")
        assert cfg.lr == 1 and type(cfg.lr) is int
        assert cfg.seed == 7 and cfg.task == "age"

    def test_config_file_must_be_an_object(self, tmp_path, capsys):
        cfile = tmp_path / "cfg.json"
        cfile.write_text("[1, 2]")
        assert run("synth", tmp_path, extra=["--config", str(cfile)]) == 1
        assert str(cfile) in capsys.readouterr().err

    def test_config_file_plus_overrides(self, tmp_path):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps({"batch_size": 4, "task": "age"}))
        import argparse
        args = argparse.Namespace(config=str(cfile), set=["batch_size=16"],
                                  workdir="w", seed=3, task=None)
        cfg = cli.load_config(args)
        assert cfg.batch_size == 16  # --set wins over the file
        assert cfg.task == "age"
        assert cfg.seed == 3 and cfg.workdir == "w"

    @pytest.mark.parametrize("flags", [True, False], ids=["flags", "no-flags"])
    def test_flags_win_over_set_which_wins_over_the_file(self, tmp_path, monkeypatch, flags):
        """The run's seed, workdir and task come from the flags, else from --set,
        else from the file. main looks the command up when it is called, so a
        cmd_* replaced on the module is the one that runs."""
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps({"seed": 1, "workdir": "file", "task": "age"}))
        runs = []
        monkeypatch.setattr(cli, "cmd_synth", lambda cfg: runs.append(cfg) or "synth")
        argv = ["synth", "--config", str(cfile), "--set", "seed=2", "--set", "workdir=set",
                "--set", "task=id"]
        if flags:
            argv += ["--seed", "3", "--workdir", "flag", "--task", "gender"]
        assert cli.main(argv) == 0
        want = (3, "flag", "gender") if flags else (2, "set", "id")
        assert [(cfg.seed, cfg.workdir, cfg.task) for cfg in runs] == [want]

    @pytest.mark.parametrize("config", [cli.RunConfig(), training.TrainHParams()],
                             ids=["RunConfig", "TrainHParams"])
    def test_run_configs_are_frozen(self, config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.batch_size = 1

    def test_band_edge_must_be_below_half_of_fs_target(self):
        cli.RunConfig(fs_target=100.0, high_hz=49.9).validate()
        with pytest.raises(ValueError, match="'high_hz'.*'fs_target'"):
            cli.RunConfig(fs_target=100.0, high_hz=50.0).validate()

    def test_band_edge_that_aliases_after_resampling_exits_naming_both_fields(
            self, tmp_path, capsys):
        """A 500 Hz record filtered to 60 Hz would fold 50-60 Hz into 100 Hz windows."""
        assert run("synth", tmp_path, extra=["--set", "fs_target=500"]) == 0
        code = run("preprocess", tmp_path,
                   extra=["--set", "fs_target=100", "--set", "high_hz=60"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'high_hz'" in err and "'fs_target'" in err
        assert not (tmp_path / cli.STORE_BIN).exists()


@given(field=st.sampled_from(dataclasses.fields(cli.RunConfig)), text=st.text())
def test_override_yields_field_type_or_names_field(field, text):
    try:
        cfg = data_io.json_dataclass(cli.RunConfig(), {field.name: text}, "config",
                                     coerce=True)
    except ValueError as e:
        assert repr(field.name) in str(e)
    else:
        assert type(getattr(cfg, field.name)) is type(field.default)


@ON_FIXTURES
@given(data=st.data())
def test_config_field_of_wrong_type_exits_naming_file_and_field(tmp_path, capsys, data):
    field = data.draw(st.sampled_from(dataclasses.fields(cli.RunConfig)))
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({field.name: data.draw(wrong_type(type(field.default)))}))
    assert cli.main(["synth", "--workdir", str(tmp_path / "w"), "--config", str(cfile)]) == 1
    err = capsys.readouterr().err
    assert str(cfile) in err and repr(field.name) in err


class TestCommands:
    def test_synth_writes_manifest(self, pipeline):
        manifest = json.loads((pipeline / "data" / "manifest.json").read_text())
        assert len(manifest["records"]) == 8
        genders = {r["gender"] for r in manifest["records"]}
        assert genders == {"male", "female"}

    def test_preprocess_store_shape(self, pipeline):
        index = json.loads((pipeline / "windows.json").read_text())
        n = len(index["windows"])
        assert n == 8 * 4  # 16 s records, 1000-sample windows at 250 Hz
        data = np.fromfile(pipeline / "windows.bin", dtype="<f8")
        assert data.size == n * index["seq_len"]
        assert np.all((data >= 0.0) & (data <= 1.0))  # windows are normalized

    def test_train_outputs(self, pipeline):
        assert (pipeline / "model.ckpt").exists()
        report = json.loads((pipeline / "train_report.json").read_text())
        assert set(report) == {"epochs", "best_epoch"}  # the test split is evaluate's
        assert 1 <= len(report["epochs"]) <= 2
        assert 0 <= report["best_epoch"] < len(report["epochs"])
        for i, epoch in enumerate(report["epochs"]):
            assert epoch["epoch"] == i
            assert 0.0 <= epoch["val_accuracy"] <= 1.0
            assert np.isfinite([epoch["train_loss"], epoch["val_loss"]]).all()

    def test_train_summary_names_best_epoch_and_its_val_accuracy(self, pipeline, tmp_path,
                                                                  capsys):
        work = shutil.copytree(pipeline, tmp_path / "work")
        assert run("train", work) == 0
        report = json.loads((work / "train_report.json").read_text())
        best = report["best_epoch"]
        assert capsys.readouterr().out == (
            f"train: best epoch {best}, validation accuracy "
            f"{report['epochs'][best]['val_accuracy']:.3f}, checkpoint {work / 'model.ckpt'}\n")

    def test_evaluate_metrics_file(self, pipeline):
        assert run("evaluate", pipeline) == 0
        metrics = json.loads((pipeline / "metrics.json").read_text())
        for key in ("accuracy", "macro_f1", "per_class_auc", "roc"):
            assert key in metrics

    def test_readme_metrics_keys_match_the_scorer(self):
        """The README's metrics.json section lists every key evaluate_probs
        returns, marking the one only the id task adds."""
        section = README.read_text(encoding="utf-8").split("## `metrics.json`")[1]
        listed = dict(re.findall(r"^- `(\w+)`( \(`id` only\))? — ", section.split("\n## ")[0],
                                 re.MULTILINE))
        probs, y = np.eye(3), np.arange(3)
        for task in data_io.Task:
            want = set(training.evaluate_probs(probs, y, task=task))
            got = {key for key, id_only in listed.items()
                   if not id_only or task is data_io.Task.PARTICIPANT_ID}
            assert got == want, task

    def test_evaluate_is_byte_deterministic(self, pipeline):
        assert run("evaluate", pipeline) == 0
        first = (pipeline / "metrics.json").read_bytes()
        assert run("evaluate", pipeline) == 0
        assert (pipeline / "metrics.json").read_bytes() == first

    def test_unlabelled_subject_logged_once_with_its_window_count(self, pipeline, tmp_path,
                                                                   caplog):
        index = json.loads((pipeline / "windows.json").read_text())
        for row in index["windows"]:
            if row["subject_id"] == "S000":
                row["gender"] = None
        (tmp_path / "windows.json").write_text(json.dumps(index))
        shutil.copy(pipeline / "windows.bin", tmp_path / "windows.bin")
        assert run("train", tmp_path) == 0
        excluded = [r.getMessage() for r in caplog.records if "excluded" in r.getMessage()]
        assert excluded == ["record S000 excluded: no gender label (4 windows)"]

    def test_default_stride_is_seq_len(self, pipeline, tmp_path, capsys):
        """Windows tile a record at seq_len, and no option sets another stride."""
        index = json.loads((pipeline / "windows.json").read_text())
        offsets = [row["source_offset"] for row in index["windows"] if row["subject_id"] == "S000"]
        assert offsets == [0, 1000, 2000, 3000]  # seq_len 1000 in TINY_ARGS
        manifest = pipeline / "data" / "manifest.json"
        assert run("preprocess", tmp_path,
                   extra=["--set", f"manifest={manifest}", "--set", "stride=1000"]) == 1
        assert "unknown config field 'stride'" in capsys.readouterr().err
        cfile = tmp_path / "config.json"
        cfile.write_text(json.dumps({"manifest": str(manifest), "stride": 1000}))
        assert run("preprocess", tmp_path, extra=["--config", str(cfile)]) == 1
        assert "unknown config field 'stride'" in capsys.readouterr().err
        assert not (tmp_path / "windows.json").exists()

    def test_explain_artifacts(self, pipeline):
        assert run("explain", pipeline) == 0
        out = pipeline / "explain"
        doc = json.loads((out / "attribution.json").read_text())
        assert sum(doc["percentages"].values()) == pytest.approx(100.0, abs=0.01)
        assert 1 <= len(doc["top3"]) <= 3
        assert (out / "attribution.svg").exists()
        assert (out / "attribution_per_head.csv").exists()


class TestErrors:
    def test_negative_lr_exits_nonzero(self, tmp_path, capsys):
        code = run("synth", tmp_path, extra=["--set", "lr=-1"])
        assert code == 1
        assert "lr" in capsys.readouterr().err

    def test_missing_checkpoint_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "windows.json").write_text(json.dumps({
            "seq_len": 1000, "fs": 250.0, "windows": []}))
        (tmp_path / "windows.bin").write_bytes(b"")
        code = run("evaluate", tmp_path)
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_config_naming_a_directory_exits_naming_it(self, tmp_path, capsys):
        assert run("synth", tmp_path, extra=["--config", str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_negative_seed_exits_naming_field(self, tmp_path, capsys):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps({"seed": -1}))
        # not through run(): its --seed would override the file's seed
        assert cli.main(["synth", "--workdir", str(tmp_path), "--config", str(cfile)]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("records,field", [
        ({"S1": {"subject_id": "S1", "csv": "s1.csv", "fs": 250.0}}, "records"),
        ([["S1", "s1.csv", 250.0]], "records"),
        ([{"subject_id": "S1", "csv": "s1.csv", "fs": "abc"}], "fs"),
        ([{"subject_id": "S1", "csv": "s1.csv", "fs": 250.0, "age_years": "x"}], "age_years"),
        ([record(fs=True)], "fs"), ([record(fs="250")], "fs"), ([record(fs=1.0)], "fs"),
        ([record(age_years=41.7)], "age_years"), ([record(age_years="41")], "age_years"),
        ([record(subject_id=5)], "subject_id"), ([record(csv=None)], "csv"),
        ([record(gender=5)], "gender"), ([record(fs=float("inf"))], "fs"),
        ([record(age_years=-4)], "age_years"),
    ], ids=["records-object", "row-not-object", "fs-str", "age_years-str", "fs-bool",
            "fs-numeric-str", "fs-too-low", "age_years-fraction", "age_years-numeric-str",
            "subject_id-int", "csv-null", "gender-int", "fs-infinity", "age_years-negative"])
    def test_bad_manifest_exits_naming_manifest_and_field(self, tmp_path, capsys,
                                                          records, field):
        (tmp_path / "s1.csv").write_text("amplitude\n0.0\n1.0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": records}))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(field) in err
        assert "EcgRecord" not in err
        if field != "records":
            assert "record 0" in err and "s1.csv" not in err

    @ON_FIXTURES
    @given(data=st.data())
    def test_manifest_field_of_wrong_type_exits_naming_file_and_field(
            self, tmp_path, capsys, data):
        fields = {"subject_id": (str, False), "csv": (str, False), "fs": (float, False),
                  "gender": (str, True), "age_years": (int, True)}
        records = [record(subject_id=f"S{i}", gender="male", age_years=40) for i in range(2)]
        (tmp_path / "s1.csv").write_text("amplitude\n0.0\n1.0\n")
        name = data.draw(st.sampled_from(["records", *fields]))
        if name == "records":
            doc = {"records": data.draw(wrong_type(list))}
        else:
            records[data.draw(st.integers(0, 1))][name] = data.draw(wrong_type(*fields[name]))
            doc = {"records": records}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(name) in err

    def test_non_finite_csv_exits_naming_it(self, tmp_path, capsys):
        csv = tmp_path / "s1.csv"
        csv.write_text("amplitude\n0.0\nnan\n1.0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": [
            {"subject_id": "S1", "csv": "s1.csv", "fs": 250.0}]}))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 1
        err = capsys.readouterr().err
        assert str(csv) in err and "finite" in err

    def test_record_too_short_to_filter_is_excluded(self, tmp_path, caplog):
        (tmp_path / "short.csv").write_text("amplitude\n0.0\n1.0\n0.5\n")
        record, _ = data_io.synthesize(data_io.SyntheticEcgSpec(duration_s=16.0))
        data_io.save_record_csv(tmp_path / "long.csv", record.samples)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": [
            {"subject_id": "S1", "csv": "short.csv", "fs": 250.0},
            {"subject_id": "S2", "csv": "long.csv", "fs": 250.0}]}))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 0
        index = json.loads((tmp_path / "windows.json").read_text())
        assert [row["subject_id"] for row in index["windows"]] == ["S2"] * 4
        assert f"record S1 ({tmp_path / 'short.csv'}) excluded" in caplog.text

    def test_preprocess_storing_no_window_exits_writing_no_store(self, tmp_path, capsys):
        short = ["--set", "synth_subjects=2", "--set", "synth_duration_s=4",
                 "--set", "seq_len=2000"]
        assert run("synth", tmp_path, extra=short) == 0
        assert run("preprocess", tmp_path, extra=short) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "data" / "manifest.json") in err
        assert "seq_len 2000" in err and "2 of 2 records excluded" in err
        assert not list(tmp_path.glob("windows.*"))

    def test_unsplittable_store_exits_naming_index_and_count(self, tmp_path, capsys):
        few = ["--set", "synth_subjects=2", "--set", "synth_duration_s=4"]
        for command in ("synth", "preprocess"):
            assert run(command, tmp_path, extra=few) == 0
        assert run("train", tmp_path, extra=few) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "windows.json") in err and "2 of 2 windows are labelled" in err

    def test_store_of_two_participants_exits_naming_the_count(self, tmp_path, capsys):
        two = ["--set", "synth_subjects=2", "--set", "synth_duration_s=24"]
        for command in ("synth", "preprocess"):
            assert run(command, tmp_path, extra=two) == 0
        assert run("train", tmp_path, extra=two) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "windows.json") in err and "12 of 12 windows are labelled" in err
        assert "needs at least 3 participants" in err and "come from 2" in err

    def test_non_utf8_csv_exits_naming_it_and_the_byte(self, tmp_path, capsys):
        csv = tmp_path / "s1.csv"
        csv.write_bytes(b"amplitude\n0.5\n\xff\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": [record()]}))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 1
        err = capsys.readouterr().err
        assert f"{csv}: not UTF-8 text: invalid start byte 0xff at byte offset 14" in err

    def test_record_shorter_than_median_kernel_is_excluded(self, tmp_path, caplog):
        short = np.sin(np.arange(60) / 5.0)
        data_io.save_record_csv(tmp_path / "short.csv", short)
        record, _ = data_io.synthesize(data_io.SyntheticEcgSpec(duration_s=2.0))
        data_io.save_record_csv(tmp_path / "long.csv", record.samples)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": [
            {"subject_id": "S1", "csv": "short.csv", "fs": 250.0},
            {"subject_id": "S2", "csv": "long.csv", "fs": 250.0}]}))
        extra = ["--set", f"manifest={manifest}", "--set", "median_kernel=101",
                 "--set", "seq_len=10", "--set", "patch_size=5"]
        assert run("preprocess", tmp_path, extra=extra) == 0
        index = json.loads((tmp_path / "windows.json").read_text())
        assert [row["subject_id"] for row in index["windows"]] == ["S2"] * 50
        assert (tmp_path / "windows.bin").stat().st_size == 50 * 10 * 8
        assert (f"record S1 ({tmp_path / 'short.csv'}) excluded: 60 samples, "
                f"fewer than median_kernel 101") in caplog.text

    def test_failed_preprocess_keeps_previous_store(self, tmp_path, capsys):
        record, _ = data_io.synthesize(data_io.SyntheticEcgSpec(duration_s=16.0))
        data_io.save_record_csv(tmp_path / "good.csv", record.samples)
        (tmp_path / "bad.csv").write_text("amplitude\n0.5\nbogus\n")
        rows = [{"subject_id": "S1", "csv": "good.csv", "fs": 250.0},
                {"subject_id": "S2", "csv": "bad.csv", "fs": 250.0}]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": rows[:1]}))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 0
        assert not (tmp_path / "windows.bin.part").exists()
        store = {name: (tmp_path / name).read_bytes() for name in ("windows.bin", "windows.json")}
        manifest.write_text(json.dumps({"records": rows}))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'bad.csv'}: non-numeric sample 'bogus' at line 3" in err
        assert not (tmp_path / "windows.bin.part").exists()
        assert {name: (tmp_path / name).read_bytes() for name in store} == store

    def test_malformed_set_rejected(self, tmp_path, capsys):
        code = cli.main(["synth", "--workdir", str(tmp_path), "--set", "oops"])
        assert code == 1
        assert "key=value" in capsys.readouterr().err

    def test_bad_task_rejected_by_config(self):
        with pytest.raises(ValueError, match="task"):
            cli.RunConfig(task="species").validate()

    @pytest.mark.parametrize("overrides,field", [
        (["scheduler_patience=0"], "scheduler_patience"),
        (["early_stop_patience=0"], "early_stop_patience"),
        (["batch_size=0"], "batch_size"),
        (["train_frac=0.9", "val_frac=0.9"], "val_frac"),
        (["train_frac=0.5"], "train_frac"),
        (["test_frac=0", "train_frac=0.85"], "test_frac"),
        (["val_frac=1.5"], "val_frac"),
        (["explain_windows=0"], "explain_windows"),
        (["scheduler_factor=-3", "scheduler_patience=1"], "scheduler_factor"),
        (["scheduler_factor=1.5"], "scheduler_factor"),
        (["weight_decay=-0.1"], "weight_decay"),
        (["median_kernel=4"], "median_kernel"),
        (["median_kernel=-1"], "median_kernel"),
        (["stride=-1"], "stride"),
        (["synth_duration_s=-1"], "synth_duration_s"),
        (["synth_duration_s=0"], "synth_duration_s"),
        (["synth_noise_std=-0.1"], "synth_noise_std"),
        (["synth_bpm=210"], "synth_bpm"),
        (["synth_bpm=20"], "synth_bpm"),
        (["synth_duration_s=0.001"], "synth_duration_s"),
        (["lr=nan"], "lr"),
        (["fs_target=inf"], "fs_target"),
        (["synth_duration_s=inf"], "synth_duration_s"),
        (["synth_noise_std=inf"], "synth_noise_std"),
        (["synth_duration_s=1e300"], "synth_duration_s"),
        (["synth_duration_s=1e12"], "synth_duration_s"),
        (["fs_target=1e306"], "fs_target"),
        (["fs_target=1e12"], "fs_target"),
        (["fs_target=50"], "fs_target"),
        (["fs_target=99.9"], "fs_target"),
        (["synth_duration_s=1.7e308"], "synth_duration_s"),
        # 8.64e8 samples, several ~7 GB arrays if synthesize were reached
        (["synth_duration_s=86400", "fs_target=10000"], "synth_duration_s"),
        # layer_norm needs a width of at least 2
        (["hidden_dim=1", "n_heads=1"], "hidden_dim"),
        pytest.param(["patch_size=30"], "config field 'seq_len' must be a multiple of config "
                     "field 'patch_size'", id="overrides33-seq_len-patch_size"),
        pytest.param(["hidden_dim=2", "n_heads=3"], "config field 'hidden_dim' must be at least "
                     "config field 'n_heads'", id="overrides34-hidden_dim-n_heads"),
    ])
    def test_bad_config_exits_naming_field(self, tmp_path, capsys, overrides, field):
        extra = [arg for item in overrides for arg in ("--set", item)]
        assert run("synth", tmp_path, extra=extra) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("order", [240, 1000])
    def test_filter_order_too_high_exits_naming_field(self, tmp_path, capsys, order):
        """Butterworth sections of order 240 are not finite at 250 Hz, and those of
        order 1000 overflow while scipy designs them."""
        assert run("synth", tmp_path) == 0
        capsys.readouterr()
        assert run("preprocess", tmp_path, extra=["--set", f"filter_order={order}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'filter_order'" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--task", "age")])
    def test_checkpoint_split_mismatch_refused(self, pipeline, capsys, command, flag, value):
        assert run(command, pipeline, extra=[flag, value]) == 1
        err = capsys.readouterr().err
        assert str(pipeline / "model.ckpt") in err and flag[2:] in err

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_checkpoint_fraction_mismatch_refused(self, pipeline, capsys, command):
        extra = ["--set", "train_frac=0.6", "--set", "val_frac=0.25"]
        assert run(command, pipeline, extra=extra) == 1
        err = capsys.readouterr().err
        assert str(pipeline / "model.ckpt") in err and "train_frac" in err

    @pytest.mark.parametrize("name", ["train_frac", "val_frac", "test_frac"])
    def test_checkpoint_without_fractions_refused(self, pipeline, tmp_path, capsys, name):
        bad = rewrite_header(pipeline / "model.ckpt", tmp_path / "old.ckpt",
                             lambda header: header["meta"].pop(name))
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and name in err and "retrain" in err

    @pytest.mark.parametrize("where", ["middle", "last_parameter_dropped"])
    def test_truncated_checkpoint_exits_naming_path(self, pipeline, tmp_path, capsys, where):
        blob = (pipeline / "model.ckpt").read_bytes()
        # dropping head.b, the last parameter, leaves the header well-formed
        cut = len(blob) // 2 if where == "middle" else len(blob) - 8 * 2
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(blob[:cut])
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        assert str(bad) in capsys.readouterr().err

    def test_short_store_exits_naming_both_files(self, pipeline, tmp_path, capsys):
        shutil.copy(pipeline / "windows.json", tmp_path / "windows.json")
        data = (pipeline / "windows.bin").read_bytes()
        (tmp_path / "windows.bin").write_bytes(data[:len(data) // 2])
        assert run("train", tmp_path) == 1
        err = capsys.readouterr().err
        assert "windows.bin" in err and "windows.json" in err

    def test_explain_refuses_empty_test_split(self, pipeline, tmp_path, capsys):
        fractions = {"train_frac": 0.5, "val_frac": 0.45, "test_frac": 0.05}
        ckpt = rewrite_header(pipeline / "model.ckpt", tmp_path / "model.ckpt",
                              lambda header: header["meta"].update(fractions))
        extra = [arg for name, value in fractions.items() for arg in ("--set", f"{name}={value}")]
        assert run("explain", pipeline, extra=[*extra, "--set", f"checkpoint={ckpt}"]) == 1
        assert "test split is empty" in capsys.readouterr().err

    def test_explain_without_attributable_window_says_why(self, tmp_path, capsys):
        short = ["--set", "seq_len=400"]  # 1.6 s windows at 250 Hz
        for command in ("synth", "preprocess", "train"):
            assert run(command, tmp_path, extra=short) == 0
        assert run("explain", tmp_path, extra=short) == 1
        err = capsys.readouterr().err
        assert ("no window could be attributed (4 skipped, the first because pan_tompkins "
                "needs >= 2 s of signal, got 1.60 s)") in err

    def test_evaluate_refuses_empty_test_split(self, pipeline, tmp_path, capsys):
        fractions = {"train_frac": 0.6, "val_frac": 0.39, "test_frac": 0.01}
        ckpt = rewrite_header(pipeline / "model.ckpt", tmp_path / "model.ckpt",
                              lambda header: header["meta"].update(fractions))
        extra = [arg for name, value in fractions.items() for arg in ("--set", f"{name}={value}")]
        assert run("evaluate", pipeline, extra=[*extra, "--set", f"checkpoint={ckpt}"]) == 1
        err = capsys.readouterr().err
        assert str(pipeline / "windows.json") in err and "test split is empty" in err

    def test_bad_checkpoint_header_exits_naming_path(self, pipeline, tmp_path, capsys):
        bad = rewrite_header(pipeline / "model.ckpt", tmp_path / "zero_patch.ckpt",
                             lambda header: header["config"].update(patch_size=0))
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "patch_size" in err

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(vit.VitConfig)])
    def test_checkpoint_config_missing_field_exits_naming_path_and_field(
            self, pipeline, tmp_path, capsys, field):
        bad = rewrite_header(pipeline / "model.ckpt", tmp_path / "bad.ckpt",
                             lambda header: header["config"].pop(field))
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and repr(field) in err

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_checkpoint_vocab_mismatch_refused(self, pipeline, tmp_path, capsys, command):
        bad = rewrite_header(pipeline / "model.ckpt", tmp_path / "bad.ckpt",
                             lambda header: header.update(vocab={"male": 1, "female": 0}))
        assert run(command, pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "'vocab'" in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "explain"])
    def test_store_seq_len_mismatch_refused(self, pipeline, short_store, capsys, command):
        # train compares with the config's seq_len, evaluate and explain with the checkpoint's
        ckpt = pipeline / "model.ckpt"
        extra = [] if command == "train" else ["--set", f"checkpoint={ckpt}"]
        assert run(command, short_store, extra=extra) == 1
        err = capsys.readouterr().err
        assert str(short_store / "windows.json") in err
        assert "'seq_len' is 500" in err and "seq_len 1000" in err
        assert (str(ckpt) in err) == (command != "train")

    def test_store_fs_mismatch_refused(self, pipeline, capsys):
        assert run("explain", pipeline, extra=["--set", "fs_target=500"]) == 1
        err = capsys.readouterr().err
        assert "windows.json" in err and "'fs'" in err and "250.0" in err and "500.0" in err

    def test_store_non_finite_fs_exits_naming_it(self, pipeline, tmp_path, capsys):
        index = json.loads((pipeline / "windows.json").read_text())
        index["fs"] = float("nan")
        (tmp_path / "windows.json").write_text(json.dumps(index))
        shutil.copy(pipeline / "windows.bin", tmp_path / "windows.bin")
        assert run("train", tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'windows.json'} field 'fs' expects a finite float, got nan" in err

    def test_checkpoint_header_non_finite_float_exits_naming_it(self, pipeline, tmp_path,
                                                                capsys):
        bad = rewrite_header(pipeline / "model.ckpt", tmp_path / "bad.ckpt",
                             lambda header: header["config"].update(ln_eps=float("nan")))
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "config field 'ln_eps' expects a finite float" in err

    @pytest.mark.parametrize("content", [b"{oops", b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not-json", "not-utf8", "nested-too-deep"])
    @pytest.mark.parametrize("document", ["config.json", "manifest.json", "windows.json"])
    def test_unreadable_json_exits_naming_path(self, tmp_path, capsys, document, content):
        path = tmp_path / document
        path.write_bytes(content)
        if document == "config.json":
            code = run("synth", tmp_path, extra=["--config", str(path)])
        elif document == "manifest.json":
            code = run("preprocess", tmp_path, extra=["--set", f"manifest={path}"])
        else:
            (tmp_path / "windows.bin").write_bytes(b"")
            code = run("train", tmp_path)
        assert code == 1
        assert str(path) in capsys.readouterr().err

    def test_checkpoint_header_nested_too_deep_exits_naming_path(self, pipeline, tmp_path,
                                                                 capsys):
        header = b"[" * 100_000
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(struct.pack("<Q", len(header)) + header)
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: bad header (" in err

    @pytest.mark.parametrize("edit,field", [
        (lambda header: header["config"].update(seq_len=1000.0), "seq_len"),
        (lambda header: header.pop("vocab"), "vocab"),
        (lambda header: header.update(meta=[]), "meta"),
        (lambda header: header["config"].update(ln_eps="1e-6"), "ln_eps"),
    ], ids=["seq_len-float", "vocab-missing", "meta-list", "ln_eps-str"])
    def test_checkpoint_header_of_wrong_type_exits_naming_path_and_field(
            self, pipeline, tmp_path, capsys, edit, field):
        bad = rewrite_header(pipeline / "model.ckpt", tmp_path / "bad.ckpt", edit)
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and repr(field) in err

    @ON_FIXTURES
    @given(data=st.data())
    def test_checkpoint_header_field_of_wrong_type_exits_naming_path_and_field(
            self, pipeline, tmp_path, capsys, data):
        config_fields = {f.name: type(f.default) for f in dataclasses.fields(vit.VitConfig)}
        name = data.draw(st.sampled_from(["config", "vocab", "meta", *config_fields]))
        value = data.draw(wrong_type(config_fields.get(name, dict)))
        in_config = name in config_fields
        bad = rewrite_header(pipeline / "model.ckpt", tmp_path / "bad.ckpt",
                             lambda header: (header["config"] if in_config else header)
                             .update({name: value}))
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and repr(name) in err

    @pytest.mark.parametrize("field,bad", [
        pytest.param("seq_len", None, id="seq_len"),
        pytest.param("windows", None, id="windows"),
        pytest.param("subject_id", None, id="subject_id"),
        pytest.param("source_offset", None, id="source_offset"),
        pytest.param("fs", None, id="fs"),
        # the float matches windows.bin's size, so only a type check catches it
        pytest.param("seq_len", lambda index: float(index["seq_len"]), id="seq_len-float"),
        pytest.param("windows", lambda index: list(range(len(index["windows"]))),
                     id="windows-not-objects"),
    ])
    def test_store_index_missing_field_exits_naming_it(self, pipeline, tmp_path, capsys,
                                                       field, bad):
        """A missing field (bad is None) or one of the wrong type exits 1 naming it."""
        index = json.loads((pipeline / "windows.json").read_text())
        if bad is not None:
            index[field] = bad(index)
        elif field in index:
            del index[field]
        else:
            del index["windows"][3][field]
        (tmp_path / "windows.json").write_text(json.dumps(index))
        shutil.copy(pipeline / "windows.bin", tmp_path / "windows.bin")
        assert run("train", tmp_path) == 1
        err = capsys.readouterr().err
        assert "windows.json" in err and repr(field) in err

    @pytest.mark.parametrize("command,task", [
        ("train", "gender"), ("train", "age"), ("train", "id"),
        ("evaluate", "gender"), ("explain", "gender"),
    ])
    def test_store_of_overlapping_windows_refused(self, pipeline, tmp_path, capsys,
                                                  command, task):
        """Windows of one subject less than seq_len apart share samples, so a
        test window could hold training samples: every task refuses the store."""
        index = json.loads((pipeline / "windows.json").read_text())
        rows = [row for row in index["windows"] if row["subject_id"] == "S000"]
        for k, row in enumerate(rows):
            row["source_offset"] = 250 * k  # seq_len 1000 in TINY_ARGS
        (tmp_path / "windows.json").write_text(json.dumps(index))
        for name in ("windows.bin", "model.ckpt"):
            shutil.copy(pipeline / name, tmp_path / name)
        assert run(command, tmp_path, extra=["--task", task]) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "windows.json") in err
        assert ("subject 'S000' has windows at field 'source_offset' 0 and 250, less than "
                "seq_len 1000 apart; preprocess again") in err

    @pytest.mark.parametrize("task", ["gender", "id"])
    @pytest.mark.parametrize("field,value", [
        ("subject_id", 7), ("source_offset", "0"), ("source_offset", True),
        ("age_years", "41"), ("gender", ["male"]),
    ], ids=["subject_id-int", "source_offset-str", "source_offset-bool", "age_years-str",
            "gender-list"])
    def test_store_row_of_wrong_type_exits_naming_row_and_field(
            self, pipeline, tmp_path, capsys, task, field, value):
        index = json.loads((pipeline / "windows.json").read_text())
        index["windows"][3][field] = value
        (tmp_path / "windows.json").write_text(json.dumps(index))
        shutil.copy(pipeline / "windows.bin", tmp_path / "windows.bin")
        assert run("train", tmp_path, extra=["--task", task]) == 1
        err = capsys.readouterr().err
        assert "windows.json" in err and "window 3" in err and repr(field) in err

    @ON_FIXTURES
    @given(data=st.data())
    def test_store_field_of_wrong_type_exits_naming_file_and_field(
            self, pipeline, tmp_path, capsys, data):
        fields = {"subject_id": (str, False), "source_offset": (int, False),
                  "gender": (str, True), "age_years": (int, True)}
        index = json.loads((pipeline / "windows.json").read_text())
        name = data.draw(st.sampled_from(["windows", "seq_len", *fields]))
        if name in fields:
            row = data.draw(st.integers(0, len(index["windows"]) - 1))
            index["windows"][row][name] = data.draw(wrong_type(*fields[name]))
        else:
            index[name] = data.draw(wrong_type({"windows": list, "seq_len": int}[name]))
        (tmp_path / "windows.json").write_text(json.dumps(index))
        shutil.copy(pipeline / "windows.bin", tmp_path / "windows.bin")
        assert run("train", tmp_path) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "windows.json") in err and repr(name) in err

    def test_store_index_not_an_object_exits_naming_it(self, pipeline, tmp_path, capsys):
        (tmp_path / "windows.json").write_text("[]")
        shutil.copy(pipeline / "windows.bin", tmp_path / "windows.bin")
        assert run("train", tmp_path) == 1
        assert "windows.json" in capsys.readouterr().err


def mixed_manifest(tmp_path, bad=()):
    """A manifest of 250 and 500 Hz records, two of which preprocessing excludes
    (S2 too short to filter, S4 too short for one 1000-sample window); the
    records named in `bad` hold a non-numeric sample at line 3 instead."""
    rates = {"S1": (250.0, 16.0), "S2": (250.0, None), "S3": (500.0, 12.0),
             "S4": (500.0, 2.0), "S5": (250.0, 8.0), "S6": (500.0, 8.0)}
    rows = []
    for sid, (fs, duration) in rates.items():
        csv = tmp_path / f"{sid}.csv"
        if sid in bad:
            csv.write_text("amplitude\n0.5\nbogus\n")
        elif duration is None:
            csv.write_text("amplitude\n0.0\n1.0\n0.5\n")
        else:
            record, _ = data_io.synthesize(data_io.SyntheticEcgSpec(duration_s=duration, fs=fs))
            data_io.save_record_csv(csv, record.samples)
        rows.append({"subject_id": sid, "csv": csv.name, "fs": fs,
                     "gender": "male", "age_years": 40})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"records": rows}))
    return manifest


class TestPreprocessWorkers:
    """preprocess sends records to min(cores, records) forked worker processes;
    at one core, or for small CSVs, it runs them inline. Outputs, logs and
    errors are the same. These manifests are small, so the tests lower the
    size from which workers start, unless they say otherwise."""

    def preprocess(self, monkeypatch, workdir, manifest, cores, min_bytes=0):
        monkeypatch.setattr(training, "_cores", lambda: cores)
        monkeypatch.setattr(cli, "WORKERS_MIN_CSV_BYTES", min_bytes)
        threads = threading.active_count()
        code = run("preprocess", workdir, extra=["--set", f"manifest={manifest}"])
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        return code

    def test_preprocess_store_same_at_one_and_two_workers(self, tmp_path, monkeypatch):
        manifest = mixed_manifest(tmp_path)
        digests = []
        for cores in (1, 2):
            work = tmp_path / f"cores{cores}"
            assert self.preprocess(monkeypatch, work, manifest, cores) == 0
            digests.append({name: hashlib.sha256((work / name).read_bytes()).hexdigest()
                            for name in (cli.STORE_BIN, cli.STORE_INDEX)})
        assert digests[0] == digests[1]
        index = json.loads((tmp_path / "cores2" / cli.STORE_INDEX).read_text())
        assert [row["subject_id"] for row in index["windows"]] == (
            ["S1"] * 4 + ["S3"] * 3 + ["S5"] * 2 + ["S6"] * 2)

    def test_preprocess_workers_log_in_record_order(self, tmp_path, monkeypatch, caplog):
        manifest = mixed_manifest(tmp_path)
        logged = {}
        for cores in (1, 2):
            caplog.clear()
            pools = count_calls(monkeypatch, concurrent.futures, "ProcessPoolExecutor")
            assert self.preprocess(monkeypatch, tmp_path / f"cores{cores}", manifest, cores) == 0
            assert len(pools) == (cores == 2)
            records = [r for r in caplog.records if r.name.startswith("transecg")]
            logged[cores] = [(r.name, r.levelno, r.getMessage()) for r in records]
            # at two cores the records were preprocessed in workers, and logged here
            assert {r.process for r in records} == {os.getpid()}
        assert logged[1] == logged[2]
        assert [(name, message.split(" excluded")[0]) for name, _, message in logged[2]] == [
            ("transecg.cli", f"record S2 ({tmp_path / 'S2.csv'})"),
            ("transecg.cli", f"record S4 ({tmp_path / 'S4.csv'})"),
        ]

    def test_preprocess_of_small_csvs_starts_no_worker(self, tmp_path, monkeypatch, caplog):
        manifest = mixed_manifest(tmp_path)
        size = sum(p.stat().st_size for p in tmp_path.glob("*.csv"))
        for min_bytes, inline in ((size + 1, True), (size, False)):
            caplog.clear()
            pools = count_calls(monkeypatch, concurrent.futures, "ProcessPoolExecutor")
            assert self.preprocess(monkeypatch, tmp_path, manifest, 2, min_bytes) == 0
            records = [r for r in caplog.records if r.name.startswith("transecg")]
            assert len(records) == 2
            assert len(pools) == (not inline)

    def test_failed_preprocess_at_two_workers_raises_first_bad_record(
            self, tmp_path, monkeypatch, capsys):
        manifest = mixed_manifest(tmp_path)
        assert self.preprocess(monkeypatch, tmp_path, manifest, 2) == 0
        store = {name: (tmp_path / name).read_bytes() for name in ("windows.bin", "windows.json")}
        manifest = mixed_manifest(tmp_path, bad=("S3", "S5"))
        assert self.preprocess(monkeypatch, tmp_path, manifest, 2) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'S3.csv'}: non-numeric sample 'bogus' at line 3\n"
        assert not (tmp_path / "windows.bin.part").exists()
        assert {name: (tmp_path / name).read_bytes() for name in store} == store

    def test_preprocess_worker_that_dies_exits_naming_manifest_and_record(
            self, tmp_path, monkeypatch, capsys):
        manifest = mixed_manifest(tmp_path)
        parent, load = os.getpid(), data_io.load_record

        def load_or_die(entry):
            if os.getpid() != parent and entry.subject_id == "S1":
                os._exit(3)
            return load(entry)

        monkeypatch.setattr(data_io, "load_record", load_or_die)
        assert self.preprocess(monkeypatch, tmp_path, manifest, 2) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{manifest}: record 0 ({tmp_path / 'S1.csv'})" in err
        assert "Traceback" not in err and "BrokenProcessPool" not in err
        assert not list(tmp_path.glob("windows.*"))


def explain_digests(workdir):
    """sha256 of each explain/ file."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted((workdir / "explain").iterdir())}


def count_calls(monkeypatch, owner, name):
    """A list that gains one item per call of owner.name from now on."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def flip_parameter_byte(work):
    """Change the lowest byte of the checkpoint's last parameter."""
    ckpt = work / "model.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[-8] ^= 1
    ckpt.write_bytes(bytes(blob))


def change_test_window(work):
    """Change one sample of the first test window in windows.bin."""
    _, _, _, plan = cli.load_store(cli.RunConfig(workdir=str(work), seq_len=1000), 1000, "test")
    store = np.fromfile(work / "windows.bin", dtype="<f8").reshape(-1, 1000)
    store[plan.test[0], 500] += 1e-3
    store.tofile(work / "windows.bin")


def truncate_saved_attention(work):
    saved = work / explain.ATTENTION_FILE
    saved.write_bytes(saved.read_bytes()[:-8])


def garble_saved_attention_header(work):
    saved = work / explain.ATTENTION_FILE
    blob = saved.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[:8])
    saved.write_bytes(blob[:8] + b"\xff" * hlen + blob[8 + hlen:])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_cut_of_saved_attention_is_refused(tmp_path, caplog, data):
    """A test_attention.bin cut anywhere is not used: load_attention gives None,
    and one warning names the file."""
    config = vit.VitConfig(seq_len=40, patch_size=10, hidden_dim=8, n_layers=1, n_heads=2,
                           mlp_dim=8, n_classes=2)
    params = vit.init_params(config, seed=0)
    ckpt, saved = tmp_path / "model.ckpt", tmp_path / explain.ATTENTION_FILE
    vit.save_checkpoint(ckpt, params, config, {})
    windows = np.random.default_rng(0).uniform(size=(3, config.seq_len))
    explain.save_attention(saved, [vit.forward(windows, params, config, capture_attention=True)],
                           ckpt, windows)
    blob = saved.read_bytes()
    # the named cut drops the last window's rows whole
    saved.write_bytes(blob[:data.draw(framing.cuts(blob, 8 * config.n_heads * config.n_patches))])
    caplog.clear()
    assert explain.load_attention(saved, ckpt, windows, config) is None
    warned = [r.getMessage() for r in caplog.records if r.name.startswith("transecg")]
    assert len(warned) == 1 and str(saved) in warned[0]


class TestSavedAttention:
    """evaluate leaves the test windows' attention rows in test_attention.bin, and
    explain uses them, when they are for its checkpoint and windows, instead of
    running forwards."""

    @pytest.fixture
    def work(self, pipeline, tmp_path):
        work = shutil.copytree(pipeline, tmp_path / "work")
        (work / explain.ATTENTION_FILE).unlink(missing_ok=True)
        return work

    def test_explain_after_evaluate_reads_saved_attention_and_runs_no_forward(
            self, work, monkeypatch, capsys, caplog):
        assert run("explain", work) == 0
        assert ", attention from 4 forwards, " in capsys.readouterr().out
        fresh = explain_digests(work)
        assert run("evaluate", work) == 0
        shutil.rmtree(work / "explain")
        capsys.readouterr()

        def no_forward(*args, **kwargs):
            raise AssertionError("explain ran a forward")

        monkeypatch.setattr(vit, "forward", no_forward)
        assert run("explain", work) == 0
        assert f", attention from {work / explain.ATTENTION_FILE}, " in capsys.readouterr().out
        assert len(fresh) == 4
        assert explain_digests(work) == fresh
        assert not [r for r in caplog.records if r.name == "transecg.explain"]

    @pytest.mark.parametrize("spoil, reason", [
        (flip_parameter_byte, "header field 'checkpoint_sha256' is not the sha256 of this "
                              "run's checkpoint"),
        (change_test_window, "header field 'windows_sha256' is not the sha256 of this "
                             "run's windows"),
        (truncate_saved_attention, "payload bytes, but its header needs"),
        (garble_saved_attention_header, "bad header"),
    ], ids=["checkpoint", "window", "truncated", "header"])
    def test_stale_or_broken_saved_attention_is_not_used(self, work, monkeypatch, caplog,
                                                         spoil, reason):
        assert run("evaluate", work) == 0
        spoil(work)
        forwards = count_calls(monkeypatch, training, "forward_each")
        caplog.clear()
        assert run("explain", work) == 0
        warned = [r.getMessage() for r in caplog.records if r.name == "transecg.explain"]
        assert len(warned) == 1
        assert str(work / explain.ATTENTION_FILE) in warned[0] and reason in warned[0]
        assert len(forwards) == 1
        spoiled = explain_digests(work)
        (work / explain.ATTENTION_FILE).unlink()
        assert run("explain", work) == 0
        assert explain_digests(work) == spoiled

    def test_evaluate_runs_its_forwards_even_with_saved_attention(self, work, monkeypatch):
        assert run("evaluate", work) == 0
        written = {name: (work / name).read_bytes()
                   for name in ("metrics.json", explain.ATTENTION_FILE)}
        forwards = count_calls(monkeypatch, training, "forward_each")
        reads = count_calls(monkeypatch, explain, "load_attention")
        assert run("evaluate", work) == 0
        assert len(forwards) == 1 and not reads
        assert {name: (work / name).read_bytes() for name in written} == written

    def test_saved_attention_file_layout(self, work):
        """A u64 LE header length, a JSON header of the rows' shape and the two
        digests, then the rows as <f8: the test windows' class-token rows."""
        assert run("evaluate", work) == 0
        blob = (work / explain.ATTENTION_FILE).read_bytes()
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8:8 + hlen])
        params, config, _, _ = vit.load_checkpoint(work / "model.ckpt")
        x, _, _, plan = cli.load_store(cli.RunConfig(workdir=str(work), seq_len=1000), 1000,
                                       "test")
        test = x[plan.test]
        assert header == {
            "shape": [len(test), 2, 20],
            "checkpoint_sha256": hashlib.sha256((work / "model.ckpt").read_bytes()).hexdigest(),
            "windows_sha256": hashlib.sha256(test.astype("<f8").tobytes()).hexdigest(),
        }
        rows = np.frombuffer(blob[8 + hlen:], dtype="<f8").reshape(header["shape"])
        want = vit.forward(test, params, config, capture_attention=True).attention[:, :, 0, 1:]
        np.testing.assert_allclose(rows, want, rtol=1e-12)

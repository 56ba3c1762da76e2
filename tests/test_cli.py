import dataclasses
import io
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transecg import autodiff, cli

TINY_ARGS = [
    "--set", "seq_len=1000", "--set", "patch_size=50",
    "--set", "hidden_dim=8", "--set", "n_layers=2", "--set", "n_heads=2",
    "--set", "mlp_dim=16", "--set", "survival_prob=1.0",
    "--set", "synth_subjects=8", "--set", "synth_duration_s=16",
    "--set", "max_epochs=2", "--set", "batch_size=8",
    "--set", "lr=0.001", "--set", "explain_windows=4",
]


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


class TestConfig:
    def test_defaults_valid(self):
        cli.RunConfig().validate()

    def test_negative_lr_names_field(self):
        cfg = cli.RunConfig(lr=-1.0)
        with pytest.raises(ValueError, match="lr"):
            cfg.validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            cli._apply(cli.RunConfig(), {"bogus": 1})

    def test_set_coerces_to_field_type(self):
        cfg = cli._apply(cli.RunConfig(), {"max_epochs": "7", "lr": "0.5"}, coerce=True)
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
        ({"seed": None}, "seed", "int"),
    ], ids=["seed-str", "max_epochs-float", "batch_size-bool", "lr-str", "lr-bool",
            "task-int", "seed-null"])
    def test_bad_config_file_value_exits_naming_field_type_and_path(
            self, tmp_path, capsys, doc, field, kind):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(doc))
        assert run("synth", tmp_path, extra=["--config", str(cfile)]) == 1
        err = capsys.readouterr().err
        assert repr(field) in err and kind in err and str(cfile) in err

    def test_config_file_int_kept_for_float_field(self):
        cfg = cli._apply(cli.RunConfig(), {"lr": 1, "seed": 7, "task": "age"})
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


@given(field=st.sampled_from(dataclasses.fields(cli.RunConfig)), text=st.text())
def test_override_yields_field_type_or_names_field(field, text):
    try:
        cfg = cli._apply(cli.RunConfig(), {field.name: text}, coerce=True)
    except ValueError as e:
        assert repr(field.name) in str(e)
    else:
        assert type(getattr(cfg, field.name)) is type(field.default)


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
        assert len(report["epochs"]) <= 2
        assert report["test_metrics"]["accuracy"] >= 0.0

    def test_evaluate_metrics_file(self, pipeline):
        assert run("evaluate", pipeline) == 0
        metrics = json.loads((pipeline / "metrics.json").read_text())
        for key in ("accuracy", "macro_f1", "per_class_auc", "roc"):
            assert key in metrics

    def test_evaluate_is_byte_deterministic(self, pipeline):
        assert run("evaluate", pipeline) == 0
        first = (pipeline / "metrics.json").read_bytes()
        assert run("evaluate", pipeline) == 0
        assert (pipeline / "metrics.json").read_bytes() == first

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
    ], ids=["records-object", "row-not-object", "fs-str", "age_years-str"])
    def test_bad_manifest_exits_naming_manifest_and_field(self, tmp_path, capsys,
                                                          records, field):
        (tmp_path / "s1.csv").write_text("amplitude\n0.0\n1.0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": records}))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(field) in err
        if field != "records":
            assert "record 0" in err

    def test_non_finite_csv_exits_naming_it(self, tmp_path, capsys):
        csv = tmp_path / "s1.csv"
        csv.write_text("amplitude\n0.0\nnan\n1.0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": [
            {"subject_id": "S1", "csv": "s1.csv", "fs": 250.0}]}))
        assert run("preprocess", tmp_path, extra=["--set", f"manifest={manifest}"]) == 1
        err = capsys.readouterr().err
        assert str(csv) in err and "finite" in err

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
    ])
    def test_bad_config_exits_naming_field(self, tmp_path, capsys, overrides, field):
        extra = [arg for item in overrides for arg in ("--set", item)]
        assert run("synth", tmp_path, extra=extra) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--task", "age")])
    def test_checkpoint_split_mismatch_refused(self, pipeline, capsys, command, flag, value):
        assert run(command, pipeline, extra=[flag, value]) == 1
        err = capsys.readouterr().err
        assert str(pipeline / "model.ckpt") in err and flag[2:] in err

    @pytest.mark.parametrize("where", ["middle", "tensor_boundary"])
    def test_truncated_checkpoint_exits_naming_path(self, pipeline, tmp_path, capsys, where):
        blob = (pipeline / "model.ckpt").read_bytes()
        if where == "middle":
            cut = len(blob) // 2
        else:  # drop the last tensor record whole: the container itself stays well-formed
            buf = io.BytesIO()
            autodiff.save_tensors(buf, {"head.b": np.zeros(2)})
            cut = len(blob) - (len(buf.getvalue()) - 8)
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

    def test_explain_refuses_empty_test_split(self, pipeline, capsys):
        fractions = ["train_frac=0.5", "val_frac=0.45", "test_frac=0.05"]
        extra = [arg for item in fractions for arg in ("--set", item)]
        assert run("explain", pipeline, extra=extra) == 1
        assert "test split is empty" in capsys.readouterr().err

    def test_bad_checkpoint_header_exits_naming_path(self, pipeline, tmp_path, capsys):
        blob = (pipeline / "model.ckpt").read_bytes()
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8:8 + hlen])
        header["config"]["patch_size"] = 0
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "zero_patch.ckpt"
        bad.write_bytes(struct.pack("<Q", len(new)) + new + blob[8 + hlen:])
        assert run("evaluate", pipeline, extra=["--set", f"checkpoint={bad}"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "patch_size" in err

    @pytest.mark.parametrize("field,bad", [
        pytest.param("seq_len", None, id="seq_len"),
        pytest.param("windows", None, id="windows"),
        pytest.param("subject_id", None, id="subject_id"),
        pytest.param("source_offset", None, id="source_offset"),
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

    @pytest.mark.parametrize("task", ["gender", "id"])
    @pytest.mark.parametrize("field,value", [
        ("subject_id", 7), ("source_offset", "0"), ("source_offset", True),
    ], ids=["subject_id-int", "source_offset-str", "source_offset-bool"])
    def test_store_row_of_wrong_type_exits_naming_row_and_field(
            self, pipeline, tmp_path, capsys, task, field, value):
        index = json.loads((pipeline / "windows.json").read_text())
        index["windows"][3][field] = value
        (tmp_path / "windows.json").write_text(json.dumps(index))
        shutil.copy(pipeline / "windows.bin", tmp_path / "windows.bin")
        assert run("train", tmp_path, extra=["--task", task]) == 1
        err = capsys.readouterr().err
        assert "windows.json" in err and "window 3" in err and repr(field) in err

    def test_store_index_not_an_object_exits_naming_it(self, pipeline, tmp_path, capsys):
        (tmp_path / "windows.json").write_text("[]")
        shutil.copy(pipeline / "windows.bin", tmp_path / "windows.bin")
        assert run("train", tmp_path) == 1
        assert "windows.json" in capsys.readouterr().err

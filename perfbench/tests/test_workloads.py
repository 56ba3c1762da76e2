"""Seeded inputs and the output checks that count toward fail_rate."""

import json

from workloads import ExplainWorkload, StageResult, WORKLOADS, write_dataset


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_same_seed_gives_same_inputs(tmp_path):
    write_dataset(tmp_path / "a", 3, 250.0, [10.0, 12.0])
    write_dataset(tmp_path / "b", 3, 250.0, [10.0, 12.0])
    write_dataset(tmp_path / "c", 4, 250.0, [10.0, 12.0])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["S000.csv"] != _files(tmp_path / "c")["S000.csv"]


def _explain_outputs(work, percentages, n_windows, stdout):
    (work / "explain").mkdir(parents=True)
    (work / "explain" / "attribution.json").write_text(
        json.dumps({"percentages": percentages, "n_windows": n_windows}))
    return StageResult("explain", 0, stdout, "")


def _explain_workload():
    w = WORKLOADS["explain"]
    fresh = ExplainWorkload(w.name, dict(w.config), dict(w.rates), w.outputs)
    fresh.items = 60
    return fresh


def test_skipped_windows_count_as_failed_operations(tmp_path):
    res = _explain_outputs(tmp_path, {"A": 40.0, "B": 60.0}, 58,
                           "explain: attributed 58 windows (2 skipped), report x\n")
    assert _explain_workload().check(tmp_path, res) == ([], 60, 2)


def test_percentages_must_sum_to_100(tmp_path):
    res = _explain_outputs(tmp_path, {"A": 40.0, "B": 59.0}, 60,
                           "explain: attributed 60 windows (0 skipped), report x\n")
    problems, attempted, failed = _explain_workload().check(tmp_path, res)
    assert len(problems) == 1 and "sum" in problems[0]
    assert (attempted, failed) == (60, 0)


def test_attributed_plus_skipped_must_equal_attempted(tmp_path):
    res = _explain_outputs(tmp_path, {"A": 100.0}, 60,
                           "explain: attributed 60 windows (3 skipped), report x\n")
    problems, _, _ = _explain_workload().check(tmp_path, res)
    assert len(problems) == 1 and "disagrees" in problems[0]


def test_traced_stage_process_reports_spans_and_exits_clean(tmp_path):
    from workloads import run_stage

    write_dataset(tmp_path / "data", 0, 250.0, [20.0, 20.0])
    res = run_stage(tmp_path, ["preprocess", "--workdir", str(tmp_path)], trace=True)
    assert res.rc == 0, res.stderr
    assert res.trace["ms"]["data_io.load_record"] and res.trace["self_ms"]["cli.preprocess"]
    assert res.trace["counts"]["windows"] == 4
    assert res.startup_s > 0 and res.stage_s > 0 and res.tape_leaked == 0
    untraced = run_stage(tmp_path, ["preprocess", "--workdir", str(tmp_path)])
    assert untraced.rc == 0 and untraced.trace is None


def test_train_setup_refuses_a_store_of_another_size(tmp_path, monkeypatch):
    import pytest

    from workloads import RunError, TrainWorkload

    def fake_preprocess(self, work, args):
        rows = [{"subject_id": f"S{i:03d}"} for i in range(6) for _ in range(7)]
        (work / "windows.json").write_text(json.dumps({"windows": rows}))

    monkeypatch.setattr(TrainWorkload, "_setup_stage", fake_preprocess)
    w = WORKLOADS["train"]
    fresh = TrainWorkload(w.name, dict(w.config), dict(w.rates), w.outputs)
    with pytest.raises(RunError, match="windows per subject"):
        fresh.setup(tmp_path, 0)
    assert fresh.items == 0

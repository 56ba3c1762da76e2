"""BENCHMARK.json mirrors the metric definitions in metrics.py."""

import json
from pathlib import Path

from metrics import END_TO_END, per_layer, per_layer_spec
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] \
        == list(END_TO_END)


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [(n, u, b) for n, u, b, _ in per_layer_spec()]


def test_every_layer_metric_names_what_it_moves():
    for name, _, _, moves in per_layer_spec():
        assert moves, name


def test_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_per_layer_reports_every_listed_metric():
    empty = {"ms": {}, "self_ms": {}, "counts": {}, "step_tape": [], "step_ops": {}, "missing": []}
    values, _ = per_layer([[{"trace": empty, "tape_leaked": 0}]], overhead_ms=1.0)
    assert sorted(values) == sorted(n for n, _, _, _ in per_layer_spec())

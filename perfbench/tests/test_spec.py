"""BENCHMARK.json names exactly what the benchmark's code reports."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert all(0.0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_per_layer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER

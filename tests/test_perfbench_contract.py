"""The benchmark's use of vasskit, run in this process at reduced scale.

`perfbench/` runs each workload through vasskit's public API in processes of
its own.  Here every workload's reduced instance set (`small=True`) runs
through the same, unedited benchmark code in-process, traced, so a change
to any function, field or option the benchmark relies on fails this test
instead of a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from gauge import SpeedGauge  # noqa: E402
from layers import Layers  # noqa: E402
from workloads import WORKLOADS, Gate, round_groups  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# measured by perfbench/run.py around whole groups, not by Layers
RUN_LEVEL = {"bench.trace_overhead_s"}


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_small_round_passes_its_gate_and_reports_every_layer(workload):
    layers = Layers(SpeedGauge(), traced=True)
    gate = Gate()
    for group in round_groups(workload, seed=1, round_ix=0, small=True):
        for label, fn, args in group:
            gate.run(label, lambda: fn(layers, gate, *args))
    assert gate.attempted > 0
    assert gate.failures == []
    metrics = layers.metrics(work_s=1.0, speed=1.0)
    declared = {m["name"] for m in SPEC["per_layer"]} - RUN_LEVEL
    assert declared - metrics.keys() == set()

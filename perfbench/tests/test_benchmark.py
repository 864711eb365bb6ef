"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench/tests -q

from the root of a checkout. The traced runs take about two minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from panoptic4d import metrics, optim, pipeline  # noqa: E402
from panoptic4d.sequence import ClassMap  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Hooks  # noqa: E402

BOUNDARY = {
    "train_desk": [(optim.AdamW, "step")],
    "infer_dense": [(pipeline, "model_predictor")],
    "eval_long": [],
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_patches_only_the_boundary(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    originals = {(o, a): o.__dict__[a] for o, a in BOUNDARY[name]}
    hooks = Hooks()
    workload.install_boundary(hooks)
    try:
        assert [(o, a) for o, a, _ in hooks.installed] == BOUNDARY[name]
    finally:
        hooks.undo()
    assert all(o.__dict__[a] is f for (o, a), f in originals.items())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_spans_cover_the_measured_time(name):
    seed = 3
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    with open(os.path.join(ROOT, ".bench_work", f"trace-{name}-seed{seed}.json")) as f:
        trace = json.load(f)
    assert trace["metrics"]["trace.coverage"] >= 0.95
    spans = trace["spans"]
    assert spans and all(s["start"] <= s["end"] for s in spans)
    assert all(s["parent"] < i for i, s in enumerate(spans))
    assert any(s["op"] >= 0 for s in spans)


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_oracle_matches_package_metrics():
    cmap = ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4))
    rng = np.random.default_rng(7)
    frames = list(range(6))
    gt, pred = [], []
    for _ in frames:
        n = int(rng.integers(50, 400))
        g_sem = rng.choice([1, 2, 3, 4, 255], size=n, p=[0.3, 0.2, 0.2, 0.25, 0.05])
        g_inst = np.where(np.isin(g_sem, [1, 2]), rng.integers(1, 6, size=n), 0)
        p_sem = np.where(rng.random(n) < 0.2, rng.choice([1, 2, 3, 4], size=n), g_sem)
        p_inst = np.where(rng.random(n) < 0.3, rng.integers(0, 9, size=n), g_inst)
        gt.append((g_sem, g_inst))
        pred.append((p_sem, p_inst))

    def labels(pairs):
        return metrics.SequenceLabels(
            frames=frames,
            semantic={f: s for f, (s, _) in zip(frames, pairs)},
            instance={f: i for f, (_, i) in zip(frames, pairs)},
        )

    expected = metrics.evaluate(labels(pred), labels(gt), cmap).as_row()
    got = oracle.report(pred, gt, [1, 2], [3, 4])
    for col in oracle.COLUMNS:
        assert abs(got[col] - expected[col]) <= 1e-12, col

"""Writes reference/eval_long.json, the stored reports that eval_long checks.

For each seed in 0..31 it builds eval_long's labels and scores them with
`panoptic4d.metrics.evaluate` in memory, keeping every digit. A run of
eval_long with one of these seeds must reproduce its row to 1e-12; other
seeds are checked against the vectorized oracle alone. Rewrite the file only
when the metric definitions change on purpose:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from panoptic4d import metrics  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(32)


def reference_row(seed: int) -> dict[str, float]:
    seq, pred = workloads.long_labels(seed)
    gt = metrics.SequenceLabels.from_scans(seq)
    frames = [s.frame_index for s in seq.scans]
    labels = metrics.SequenceLabels(
        frames=frames,
        semantic={f: p[0] for f, p in zip(frames, pred)},
        instance={f: p[1] for f, p in zip(frames, pred)},
    )
    row = metrics.evaluate(labels, gt, seq.class_map).as_row()
    return {c: row[c] for c in oracle.COLUMNS}


def main() -> None:
    table = {str(seed): reference_row(seed) for seed in SEEDS}
    os.makedirs(os.path.dirname(workloads.REFERENCE), exist_ok=True)
    with open(workloads.REFERENCE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

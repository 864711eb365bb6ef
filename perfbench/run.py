"""panoptic4d benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a traced run, whose spans are also written to
.bench_work/trace-<workload>-seed<seed>.json. Without --workload every
workload runs in its own fresh process and a table of all metrics follows.

Run it from the root of a source checkout: it imports the package from
src/ and keeps its scratch files under .bench_work/, removed at exit.
"""

from __future__ import annotations

import os

# One BLAS thread: this must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("train_desk", "infer_dense", "eval_long")
# Set-up runs at least this often and for at least this long; setup_s is the
# median, so that a few seconds of a busy machine do not decide it.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0

# name -> unit. quality_gap is the workload's own quality figure turned into
# "lower is better": the final-pass training loss for train_desk, 1 - LSTQ
# for infer_dense and eval_long.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "scans_per_s": "1/s",
    "quality_gap": "score",
}

# Per-layer metrics of the traced run. "_ms" is mean self time per call;
# counters are per call of the layer named, except "_per_step", which is per
# operation (optimizer step or window) of the measured phase.
PER_LAYER = {
    "synth.generate_ms": "ms",
    "sequence.load_ms": "ms",
    "kitti_io.read_ms": "ms",
    "kitti_io.read_mb": "MB",
    "kitti_io.write_ms": "ms",
    "kitti_io.write_mb": "MB",
    "model.prepare_window_ms": "ms",
    "geometry.voxels": "count",
    "heads.build_targets_ms": "ms",
    "model.forward_ms": "ms",
    "backbone.extract_ms": "ms",
    "backbone.voxels_l0": "count",
    "backbone.voxels_l1": "count",
    "backbone.voxels_l2": "count",
    **{f"decoder.block_ms.r{i}l{j}": "ms" for i in range(2) for j in range(3)},
    "decoder.propagate_fg_ms": "ms",
    "decoder.attn_fallback_frac": "frac",
    "heads.mask_module_ms": "ms",
    "heads.mask_module_calls": "count",
    "heads.match_ms": "ms",
    "heads.loss_ms": "ms",
    "heads.assign_ms": "ms",
    "heads.assign_max_cols": "count",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.matmul_gflop_per_step": "GFLOP",
    "optim.adamw_ms": "ms",
    "optim.param_scalars": "count",
    "optim.zero_grad_ms": "ms",
    "pipeline.window_ms": "ms",
    "inference.extract_ms": "ms",
    "inference.split_ms": "ms",
    "inference.dbscan_ms": "ms",
    "inference.dbscan_calls": "count",
    "inference.dbscan_points_max": "count",
    "inference.dbscan_split_frac": "frac",
    "inference.stitch_ms": "ms",
    "inference.track_births": "count",
    "inference.track_continuations": "count",
    "metrics.confusion_ms": "ms",
    "metrics.s_assoc_ms": "ms",
    "metrics.pq_ms": "ms",
    "metrics.evaluate_ms": "ms",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, setups: list[float], phase) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "op_ms_p50": 1e3 * percentile(phase.ops, 0.5),
        "op_ms_p90": 1e3 * percentile(phase.ops, 0.9),
        # The median interval: a few held-out sequences in a hundred make one
        # stitch take seconds, which would otherwise decide the rate of a run.
        "scans_per_s": statistics.median(
            n / (b - a) for n, (a, b) in zip(phase.scans, phase.intervals)
        ),
        "quality_gap": workload.quality_gap,
    }


def per_layer(tracer, phase, baseline) -> dict[str, float]:
    self_times = tracer.self_times()
    counts, maxima = tracer.counts, tracer.maxima

    def calls(span: str) -> int:
        return self_times.get(span, (0.0, 0))[1]

    def ms(span: str) -> float:
        total, n = self_times.get(span, (0.0, 0))
        return 1e3 * total / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ops = len(phase.ops)
    out = {name: ms(name[: -len("_ms")]) for name in PER_LAYER if name.endswith("_ms")}
    out.update({f"decoder.block_ms.r{i}l{j}": ms(f"decoder.block.r{i}l{j}")
                for i in range(2) for j in range(3)})
    out.update({
        "kitti_io.read_mb": ratio(counts["kitti_io.read_bytes"], calls("kitti_io.read")) / 1e6,
        "kitti_io.write_mb": ratio(counts["kitti_io.write_bytes"], calls("kitti_io.write")) / 1e6,
        "geometry.voxels": ratio(counts["geometry.voxels"], calls("model.prepare_window")),
        "decoder.attn_fallback_frac": ratio(counts["decoder.fallback_rows"], counts["decoder.query_rows"]),
        "heads.mask_module_calls": ratio(calls("heads.mask_module"), calls("model.forward")),
        "heads.assign_max_cols": maxima["heads.assign_max_cols"],
        "autodiff.tape_nodes_per_step": ratio(counts["autodiff.tensors"], ops),
        "autodiff.matmul_gflop_per_step": ratio(counts["autodiff.matmul_flop"], ops) / 1e9,
        "optim.param_scalars": maxima["optim.param_scalars"],
        "inference.dbscan_calls": ratio(calls("inference.dbscan"), calls("inference.split")),
        "inference.dbscan_points_max": maxima["inference.dbscan_points_max"],
        "inference.dbscan_split_frac": ratio(counts["inference.dbscan_split"], counts["inference.dbscan_clustered"]),
        "inference.track_births": ratio(counts["inference.track_births"], calls("inference.stitch")),
        "inference.track_continuations": ratio(counts["inference.track_continuations"], calls("inference.stitch")),
        "trace.coverage": tracer.coverage(phase.intervals),
        "trace.overhead_frac": statistics.median(phase.ops) / statistics.median(baseline.ops) - 1.0,
    })
    for r in range(3):
        out[f"backbone.voxels_l{r}"] = ratio(counts[f"backbone.voxels_l{r}"], calls("backbone.extract"))
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import workloads
    from tracing import Hooks, Tracer

    workload = workloads.WORKLOADS[name](seed, workdir)
    repeats, min_seconds = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_SECONDS)
    setups = []
    first = workloads.clock()
    while len(setups) < repeats or workloads.clock() - first < min_seconds:
        start = workloads.clock()
        workload.setup()
        setups.append(workloads.clock() - start)
    hooks = Hooks()
    workload.install_boundary(hooks)
    try:
        gc.collect()
        if not trace:
            phase = workload.run(seconds, first=True)
            values = end_to_end(workload, setups, phase)
        else:
            # Untraced and traced halves run the same inputs; the difference
            # of their median operation times is the tracing overhead.
            baseline = workload.run(seconds / 2, first=True)
            tracer = Tracer(hooks)
            workload.install_layers(tracer)
            workload.setup()
            for key in ("autodiff.tensors", "autodiff.matmul_flop"):
                tracer.counts[key] = 0.0
            gc.collect()
            phase = workload.run(seconds / 2, first=False)
            hooks.undo()
            values = per_layer(tracer, phase, baseline)
            record = {"workload": name, "seed": seed, "metrics": values}
            record.update(tracer.dump(phase.intervals))
            path = os.path.join(WORK, f"trace-{name}-seed{seed}.json")
            with open(path, "w") as f:
                json.dump(record, f)
    finally:
        hooks.undo()
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not workload.errors and phase.attempted > 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        "errors": workload.errors,
    }


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "panoptic4d", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in result.pop("errors"):
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        if not result["correct"]:
            status = 1
        rows.append((name, result))
    print()
    print(f"{'workload':<12} {'metric':<32} {'value':>14}  unit")
    for name, result in rows:
        print(f"{name:<12} {'checks':<32} {'pass' if result['correct'] else 'FAIL':>14}"
              f"  ({result['failed']} of {result['attempted']} operations failed)")
        for metric, m in result["metrics"].items():
            print(f"{name:<12} {metric:<32} {m['value']:>14.6g}  {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

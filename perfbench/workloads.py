"""The three benchmark workloads.

Each is a closed-loop batch job: one process, one caller, the next
operation starting when the previous one returns. A workload builds its
inputs from the seed in `setup`, times operations from outside the package
in `run`, and checks the outputs as they come; each failed check is kept in
`errors`.

- train_desk: `training.train_model` with `desk_preset()` on the
  criterion-4 overfit scene. One operation is an optimizer step.
- infer_dense: the `panoptic4d infer` path (`load_model`, then per sequence
  `load_sequence`, `predict_sequence` with DBSCAN, `write_prediction`) over
  held-out synthetic sequences. One operation is a predictor call (window).
- eval_long: the `panoptic4d eval` command on one long labelled sequence
  with corrupted predictions. One operation is one eval call; its time is
  reported per scan.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from panoptic4d import (
    autodiff,
    backbone,
    cli,
    config,
    decoder,
    heads,
    inference,
    kitti_io,
    metrics,
    model as model_mod,
    optim,
    pipeline,
    sequence,
    synth,
    training,
)
from panoptic4d.sequence import IGNORE_LABEL

import oracle
from tracing import Hooks, Tracer, clock

# The checks read labels through the unwrapped function, so that a traced
# run attributes only the package's own reads to kitti_io.
READ_LABELS = kitti_io.read_labels
HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
CHECKPOINT = os.path.join(FIXTURES, "desk_dense.ckpt")


@dataclass
class Phase:
    """Timings of one measured phase."""

    ops: list[float] = field(default_factory=list)  # seconds per operation
    # Measured wall time: one interval per step, sequence or eval call, with
    # the number of scans it trained on, labelled or scored.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    scans: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.errors: list[str] = []
        self.quality_gap = float("nan")
        self.block_names: dict[int, str] = {}  # decoder block id -> span name

    def setup(self) -> None:
        raise NotImplementedError

    def install_boundary(self, hooks: Hooks) -> None:
        """Patch only what timestamps operation boundaries."""

    def install_layers(self, tracer: Tracer) -> None:
        install_layer_spans(tracer, self.block_names)

    def run(self, seconds: float, first: bool) -> Phase:
        raise NotImplementedError

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# train_desk

OVERFIT_SCENE = synth.SceneSpec(
    seed=0, num_frames=4, num_thing_objects=3, points_per_object=110, points_per_stuff=220
)
TRAIN_STEPS = 150


class _Deadline(Exception):
    """Stops a timing-only training run once the measured time is over."""


class TrainDesk(Workload):
    name = "train_desk"

    def setup(self) -> None:
        # The scene and the model init are the criterion-4 ones; see README.md
        # for why the seed does not vary the init.
        self.seq = synth.generate_sequence(OVERFIT_SCENE)
        self.cfg = config.desk_preset(steps=TRAIN_STEPS)
        model = model_mod.PanopticModel(self.cfg.model_config(), init_seed=self.cfg.model_seed)
        windows = training.sequence_windows(self.seq, self.cfg.window, self.cfg.train_stride)
        for scans, poses in windows:
            model.window_targets(model_mod.prepare_window(scans, poses, self.cfg.voxel_size))
        self.num_windows = len(windows)
        self.stamps: list[float] = []
        self.abort_at: float | None = None

    def install_boundary(self, hooks: Hooks) -> None:
        original = optim.AdamW.__dict__["step"]

        def step(opt, lr=None):
            original(opt, lr)
            now = clock()
            self.stamps.append(now)
            if self.abort_at is not None and now >= self.abort_at:
                raise _Deadline

        hooks.patch(optim.AdamW, "step", step)

    def _fresh_model(self):
        model = model_mod.PanopticModel(self.cfg.model_config(), init_seed=self.cfg.model_seed)
        register_blocks(model, self.block_names)
        return model

    def run(self, seconds: float, first: bool) -> Phase:
        phase = Phase()
        deadline = clock() + seconds
        full = True  # the first training of a phase always runs all its steps
        while full or clock() < deadline:
            self.stamps = []
            self.abort_at = None if full else deadline
            result = None
            try:
                result = training.train_model(self._fresh_model(), self.seq, self.cfg, log_every=0)
            except _Deadline:
                pass
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                phase.attempted += 1
                phase.failed += 1
                self.fail(f"training raised {exc!r}")
            # A step's time runs from the previous step's end; each training's
            # first step, which has no such start, is the warm-up left out.
            steps = np.diff(self.stamps)
            phase.ops.extend(steps.tolist())
            phase.scans.extend([self.cfg.window * self.cfg.batch_size] * len(steps))
            phase.intervals.extend(zip(self.stamps[:-1], self.stamps[1:]))
            phase.attempted += len(self.stamps)
            if result is not None:
                self.check_rows(result)
                if full and first:
                    final = result.rows[-self.num_windows :]
                    self.quality_gap = float(np.mean([r["loss_total"] for r in final]))
            full = False
        return phase

    def check_rows(self, result) -> None:
        if len(result.rows) != self.cfg.steps:
            self.fail(f"{len(result.rows)} loss rows for {self.cfg.steps} steps")
        for row in result.rows:
            if not all(np.isfinite(v) for v in row.values()):
                self.fail(f"non-finite loss row {row}")
                return


# ---------------------------------------------------------------------------
# infer_dense

DENSE_SEQUENCES = 20
DENSE_FRAMES = 8


def dense_scene() -> synth.SceneSpec:
    return config.load_scene_spec(os.path.join(FIXTURES, "dense_scene.cfg"))


def checkpoint_digest() -> str:
    with open(os.path.join(FIXTURES, "SHA256SUMS")) as f:
        for line in f:
            digest, _, name = line.strip().partition("  ")
            if name == os.path.basename(CHECKPOINT):
                return digest
    raise RuntimeError("no digest recorded for the checkpoint")


class InferDense(Workload):
    name = "infer_dense"

    def setup(self) -> None:
        with open(CHECKPOINT, "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != checkpoint_digest():
                raise RuntimeError(f"{CHECKPOINT} does not match its recorded digest")
        self.model, self.cfg = training.load_model(CHECKPOINT)
        register_blocks(self.model, self.block_names)
        spec = dense_scene()
        rng = np.random.default_rng([self.seed, 1])
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=DENSE_SEQUENCES)]
        # Keep the checkpoint's training scene out of the held-out set.
        seeds = [s + 1 if s == spec.seed else s for s in seeds]
        self.truth = []
        self.dirs = []
        for i, s in enumerate(seeds):
            seq = synth.generate_sequence(dataclasses.replace(spec, seed=s, num_frames=DENSE_FRAMES))
            path = os.path.join(self.workdir, f"seq{i:02d}")
            sequence.save_sequence(seq, path, write_labels=False)
            self.truth.append(seq)
            self.dirs.append(path)
        self.class_map = self.cfg.model_config().class_map()
        self.windows: list[float] = []

    def install_boundary(self, hooks: Hooks) -> None:
        original = pipeline.__dict__["model_predictor"]

        def model_predictor(model, cfg):
            predict = original(model, cfg)

            def timed(scans, poses, frames):
                start = clock()
                out = predict(scans, poses, frames)
                self.windows.append(clock() - start)
                return out

            return timed

        hooks.patch(pipeline, "model_predictor", model_predictor)

    def install_layers(self, tracer: Tracer) -> None:
        install_layer_spans(tracer, self.block_names)
        install_window_span(tracer)

    def run(self, seconds: float, first: bool) -> Phase:
        """One pass over every sequence, then on in the same order until the
        time is over. Checks and quality use the first pass."""
        phase = Phase()
        deadline = clock() + seconds
        lstq = []
        self.windows = []
        i = 0
        while i < len(self.dirs) or clock() < deadline:
            k = i % len(self.dirs)
            i += 1
            out_dir = os.path.join(self.workdir, f"pred{k:02d}")
            phase.attempted += 1
            start = clock()
            try:
                seq = sequence.load_sequence(self.dirs[k], self.class_map, with_labels=False)
                pred = pipeline.predict_sequence(self.model, seq, self.cfg)
                pipeline.write_prediction(pred, out_dir)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                phase.failed += 1
                self.fail(f"sequence {k} raised {exc!r}")
                break
            phase.intervals.append((start, clock()))
            phase.scans.append(len(pred.frames))
            if i <= len(self.dirs):
                if not self.check_prediction(pred, out_dir, self.truth[k]):
                    phase.failed += 1
                if first:
                    lstq.append(pipeline.evaluate_prediction(pred, self.truth[k]).lstq)
        phase.ops = list(self.windows)
        if first and lstq:
            self.quality_gap = 1.0 - float(np.mean(lstq))
        return phase

    def check_prediction(self, pred, out_dir, truth) -> bool:
        problems = []
        class_ids = np.array(self.class_map.all_ids)
        thing_ids = np.array(self.class_map.thing_ids)
        if pred.frames != [s.frame_index for s in truth.scans]:
            problems.append(f"predicted frames {pred.frames} do not cover the sequence")
        for scan in truth.scans:
            f = scan.frame_index
            sem, inst = pred.semantic[f], pred.instance[f]
            if sem.shape != (scan.num_points,) or inst.shape != (scan.num_points,):
                problems.append(f"frame {f}: labels do not cover every point")
                continue
            if not np.isin(sem, class_ids).all():
                problems.append(f"frame {f}: semantic id outside the class map")
            if np.any((inst > 0) & ~np.isin(sem, thing_ids)) or np.any(inst < 0):
                problems.append(f"frame {f}: instance id on a stuff point or negative")
            back = READ_LABELS(kitti_io.label_path(out_dir, f), expected_count=sem.size)
            if not (np.array_equal(back[0], sem) and np.array_equal(back[1], inst)):
                problems.append(f"frame {f}: written labels do not read back")
        for message in problems:
            self.fail(message)
        return not problems


# ---------------------------------------------------------------------------
# eval_long

LONG_FRAMES = 250
REFERENCE = os.path.join(HERE, "reference", "eval_long.json")


def long_scene(seed: int) -> synth.SceneSpec:
    return synth.SceneSpec(
        seed=seed,
        num_frames=LONG_FRAMES,
        num_thing_objects=6,
        points_per_object=200,
        points_per_stuff=1000,
        arena_extent=40.0,
    )


def long_labels(seed: int):
    """The long ground-truth sequence and its corrupted predictions.

    Ground truth gets 1% ignore-labelled points. Predictions flip 4% of the
    semantic labels, switch every object's id at its own 25-frame phase and
    split a third of the (object, frame) pairs into 2-4 spatial fragments
    with fresh ids.
    """
    rng = np.random.default_rng([seed, 2])
    seq = synth.generate_sequence(long_scene(int(rng.integers(0, 2**31 - 1))))
    cmap = seq.class_map
    classes = np.array(cmap.all_ids)
    nobj = len(seq.tracks)
    phase = rng.integers(0, 25, size=nobj + 1)
    fresh = nobj * (LONG_FRAMES // 25 + 2) + 1
    pred = []
    for scan in seq.scans:
        ignore = rng.random(scan.num_points) < 0.01
        scan.semantic[ignore] = IGNORE_LABEL
        scan.instance[ignore] = 0
        sem = scan.semantic.copy()
        flip = rng.random(sem.size) < 0.04
        sem[flip] = rng.choice(classes, size=int(flip.sum()))
        gt = scan.instance
        inst = np.where(gt > 0, gt + nobj * ((scan.frame_index + phase[gt]) // 25), 0)
        for obj in np.unique(gt[gt > 0]):
            if rng.random() >= 1 / 3:
                continue
            idx = np.flatnonzero(gt == obj)
            pieces = int(rng.integers(2, 5))
            direction = rng.normal(size=3)
            proj = scan.points[idx] @ direction
            cuts = np.quantile(proj, np.linspace(0, 1, pieces + 1)[1:-1])
            inst[idx] = fresh + np.searchsorted(cuts, proj)
            fresh += pieces
        pred.append((sem, inst))
    return seq, pred


class EvalLong(Workload):
    name = "eval_long"

    def setup(self) -> None:
        self.gt_dir = os.path.join(self.workdir, "gt")
        self.pred_dir = os.path.join(self.workdir, "pred")
        self.report_path = os.path.join(self.workdir, "report.csv")
        seq, pred = long_labels(self.seed)
        sequence.save_sequence(seq, self.gt_dir)
        os.makedirs(os.path.join(self.pred_dir, "labels"), exist_ok=True)
        for scan, (sem, inst) in zip(seq.scans, pred):
            kitti_io.write_labels(kitti_io.label_path(self.pred_dir, scan.frame_index), sem, inst)
        self.frames = seq.num_frames
        self.truth = [(s.semantic, s.instance) for s in seq.scans]
        self.pred = pred
        self.things = list(seq.class_map.thing_ids)
        self.stuff = list(seq.class_map.stuff_ids)

    def eval_cli(self, pred_dir: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(
                ["eval", "--pred", pred_dir, "--gt", self.gt_dir, "--out", self.report_path]
            )

    def read_report(self) -> dict[str, float]:
        with open(self.report_path) as f:
            row = next(r for r in csv.DictReader(f) if r["name"] == "sequence")
        return {c: float(row[c]) for c in oracle.COLUMNS}

    def run(self, seconds: float, first: bool) -> Phase:
        """An operation is one eval call, its time divided by the scans."""
        phase = Phase()
        deadline = clock() + seconds
        first_report = None
        while not phase.intervals or clock() < deadline:
            phase.attempted += 1
            start = clock()
            code = self.eval_cli(self.pred_dir)
            end = clock()
            if code != 0:
                phase.failed += 1
                self.fail(f"eval exited with code {code}")
                break
            phase.intervals.append((start, end))
            phase.ops.append((end - start) / self.frames)
            phase.scans.append(self.frames)
            report = self.read_report()
            if first_report is None:
                first_report = report
                if not self.check_report(report):
                    phase.failed += 1
                self.quality_gap = 1.0 - report["LSTQ"]
            elif report != first_report:
                phase.failed += 1
                self.fail(f"eval call {phase.attempted} reported {report}, not {first_report}")
        if first:
            self.check_identity()
        return phase

    def check_report(self, report: dict[str, float]) -> bool:
        """The report against the oracle and, if this seed has one, the
        stored reference, to 1e-12."""
        expected = {"oracle": oracle.report(self.pred, self.truth, self.things, self.stuff)}
        stored = load_reference().get(str(self.seed))
        if stored is not None:
            expected["stored reference"] = stored
        ok = True
        for source, values in expected.items():
            for col in oracle.COLUMNS:
                if abs(report[col] - values[col]) > 1e-12:
                    self.fail(f"{col} {report[col]!r} differs from the {source}'s {values[col]!r}")
                    ok = False
        return ok

    def check_identity(self) -> None:
        code = self.eval_cli(self.gt_dir)
        report = self.read_report() if code == 0 else None
        if report is None or report["LSTQ"] != 1.0 or report["PQ"] != 1.0:
            self.fail(f"ground truth against itself scored {report}")


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


WORKLOADS = {w.name: w for w in (TrainDesk, InferDense, EvalLong)}


# ---------------------------------------------------------------------------
# traced-run wrappers


def register_blocks(model, names: dict[int, str]) -> None:
    """Name each decoder block by its (round, level) for the traced run."""
    for i, round_blocks in enumerate(model.refiner.blocks):
        for j, block in enumerate(round_blocks):
            names[id(block)] = f"decoder.block.r{i}l{j}"


def install_window_span(tracer: Tracer) -> None:
    """A span around each call of the window predictor."""
    original = pipeline.__dict__["model_predictor"]

    def model_predictor(model, cfg):
        return tracer.traced(original(model, cfg), "pipeline.window")

    tracer.hooks.patch(pipeline, "model_predictor", model_predictor)


def install_layer_spans(tracer: Tracer, block_names: dict[int, str]) -> None:
    """Wrap every layer's public entry at the attribute its caller looks up.

    Call counts come from the spans; the observers add what only the
    arguments and results show."""
    wrap, count, peak = tracer.wrap, tracer.count, tracer.peak

    def on_window(args, data):
        count("geometry.voxels", data.grid.num_voxels)

    def on_extract(args, pyramid):
        for r, level in enumerate(pyramid.levels):
            count(f"backbone.voxels_l{r}", level.coords.shape[0])

    def on_block(args, out):
        mask = args[3]
        if mask is not None:
            count("decoder.query_rows", mask.shape[0])
            count("decoder.fallback_rows", int((~mask.any(axis=1)).sum()))

    def on_dbscan(args, labels):
        clusters = np.unique(labels[labels >= 1]).size
        count("inference.dbscan_clustered", 1 if clusters else 0)
        count("inference.dbscan_split", 1 if clusters > 1 else 0)
        peak("inference.dbscan_points_max", labels.size)

    def on_stitch(args, out):
        mapping, next_free = out
        births = next_free - args[3]
        count("inference.track_births", births)
        count("inference.track_continuations", len(mapping) - births)

    def on_read(nbytes):
        def observe(args, out):
            count("kitti_io.read_bytes", out[0].shape[0] * nbytes)

        return observe

    def on_write(args, out):
        count("kitti_io.write_bytes", np.asarray(args[1]).size * kitti_io.LABEL_RECORD_BYTES)

    def on_adamw(args, out):
        peak("optim.param_scalars", sum(p.values.size for p in args[0].params.values()))

    wrap(synth, "generate_sequence", "synth.generate")
    wrap(sequence, "load_sequence", "sequence.load")
    wrap(cli, "load_sequence", "sequence.load")
    wrap(kitti_io, "read_scan", "kitti_io.read", on_read(kitti_io.SCAN_RECORD_BYTES))
    wrap(kitti_io, "read_labels", "kitti_io.read", on_read(kitti_io.LABEL_RECORD_BYTES))
    wrap(pipeline, "write_labels", "kitti_io.write", on_write)
    wrap(training, "prepare_window", "model.prepare_window", on_window)
    wrap(pipeline, "prepare_window", "model.prepare_window", on_window)
    wrap(model_mod, "build_targets", "heads.build_targets")
    wrap(model_mod.PanopticModel, "forward", "model.forward")
    wrap(backbone.Backbone, "extract", "backbone.extract", on_extract)
    wrap(decoder.DecoderBlock, "__call__", lambda a: block_names.get(id(a[0]), "decoder.block"), on_block)
    wrap(decoder, "propagate_foreground", "decoder.propagate_fg")
    wrap(heads.MaskModule, "__call__", "heads.mask_module")
    wrap(training, "hungarian_match", "heads.match")
    wrap(training, "total_loss", "heads.loss")
    wrap(heads, "solve_assignment", "heads.assign", lambda a, o: peak("heads.assign_max_cols", a[0].shape[1]))
    wrap(autodiff, "backward", "autodiff.backward")
    wrap(optim.AdamW, "step", "optim.adamw", on_adamw)
    wrap(optim.AdamW, "zero_grad", "optim.zero_grad")
    wrap(pipeline, "extract_panoptic", "inference.extract")
    wrap(pipeline, "split_non_compact", "inference.split")
    wrap(inference, "dbscan", "inference.dbscan", on_dbscan)
    wrap(inference, "stitch", "inference.stitch", on_stitch)
    wrap(cli, "evaluate", "metrics.evaluate")
    wrap(metrics, "confusion_matrix", "metrics.confusion")
    wrap(metrics, "s_assoc", "metrics.s_assoc")
    wrap(metrics, "pq_sequence", "metrics.pq")

    # Counters only: tape nodes are Tensor constructions, matmul work comes
    # from operand shapes (a recorded product also pays two in backward).
    tensor_init = autodiff.Tensor.__dict__["__init__"]

    def init(self, *args, **kwargs):
        tensor_init(self, *args, **kwargs)
        tracer.counts["autodiff.tensors"] += 1

    matmul = autodiff.__dict__["matmul"]

    def traced_matmul(a, b):
        out = matmul(a, b)
        n, k = np.shape(getattr(a, "values", a))
        flop = 2.0 * n * k * out.shape[1]
        tracer.counts["autodiff.matmul_flop"] += flop * 3 if out._parents else flop
        return out

    tracer.hooks.patch(autodiff.Tensor, "__init__", init)
    tracer.hooks.patch(autodiff, "matmul", traced_matmul)

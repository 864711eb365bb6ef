"""Command line interface.

Subcommands: generate | train | infer | eval | ablate | inspect. Every
subcommand is deterministic given its config and seeds, exits 0 on success,
and removes partial outputs when it fails. Log verbosity comes from the
PANOPTIC4D_LOG environment variable (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .config import (
    RunConfig,
    desk_preset,
    load_config,
    load_scene_spec,
    save_config,
)
from .autodiff import no_grad
from .errors import ParameterError
from .metrics import evaluate, report_csv
from .model import PanopticModel, prepare_window
from .pca import features_to_rgb, write_ply
from .pipeline import evaluate_prediction, predict_sequence, write_prediction
from .sequence import load_sequence, save_sequence, sequence_windows
from .synth import SceneSpec, generate_sequence
from .training import load_model, save_model, train_model
from . import kitti_io

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = os.environ.get("PANOPTIC4D_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


class _Outputs:
    """Tracks created files so a failing command can clean up after itself."""

    def __init__(self):
        self.paths: list[str] = []

    def add(self, *paths: str):
        self.paths.extend(paths)

    def discard(self):
        for p in self.paths:
            try:
                os.remove(p)
            except OSError:
                pass


def _load_run_config(args) -> RunConfig:
    return _override(load_config(args.config) if args.config else desk_preset(), args)


def _override(cfg: RunConfig, args) -> RunConfig:
    """cfg with the command line's overrides, applied (and validated) at once."""
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["train_seed"] = args.seed
    if getattr(args, "window", None) is not None:
        updates["window"] = args.window
    if getattr(args, "stride", None) is not None:
        updates["stride"] = args.stride
    if getattr(args, "no_dbscan", False):
        updates["use_dbscan"] = False
    if getattr(args, "no_box_loss", False):
        updates["use_box_loss"] = False
    if getattr(args, "sequence", None):
        updates["sequence_dir"] = args.sequence
    return dataclasses.replace(cfg, **updates) if updates else cfg


def cmd_generate(args, out: _Outputs) -> int:
    spec = load_scene_spec(args.spec) if args.spec else SceneSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    seq = generate_sequence(spec)
    out.add(*save_sequence(seq, args.out))
    spec_path = os.path.join(args.out, "scene_spec.cfg")
    save_config(spec_path, spec)
    out.add(spec_path)
    print(f"wrote {seq.num_frames} scans to {args.out}")
    return 0


def cmd_train(args, out: _Outputs) -> int:
    cfg = _load_run_config(args)
    if not cfg.sequence_dir:
        print("train: no sequence directory (use --sequence or sequence_dir)", file=sys.stderr)
        return 2
    seq = load_sequence(cfg.sequence_dir, cfg.class_map())
    model = PanopticModel(cfg.model_config(), init_seed=cfg.model_seed)
    try:
        result = train_model(model, seq, cfg)
    except ValueError as exc:
        raise type(exc)(f"{cfg.sequence_dir}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "model.ckpt")
    save_model(ckpt, model, cfg)
    out.add(ckpt)
    trace = os.path.join(args.out, "loss.csv")
    with open(trace, "w") as f:
        f.write(result.csv())
    out.add(trace)
    print(f"trained {cfg.steps} steps, final loss {result.final_loss:.4f}")
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_infer(args, out: _Outputs) -> int:
    model, cfg = load_model(args.checkpoint)
    cfg = _override(cfg, args)
    seq = load_sequence(args.sequence, cfg.class_map(), with_labels=False)
    pred = predict_sequence(model, seq, cfg)
    out.add(*write_prediction(pred, args.out))
    print(f"wrote predictions for {len(pred.frames)} scans to {args.out}")
    return 0


def cmd_eval(args, out: _Outputs) -> int:
    cfg = _load_run_config(args)
    gt = kitti_io.LabelFiles(args.gt, "ground-truth")
    pred = kitti_io.LabelFiles(args.pred, "predicted")
    report = evaluate(pred, gt, cfg.class_map())
    print(report.table())
    if args.out:
        with open(args.out, "w") as f:
            f.write(report_csv({"sequence": report}))
        out.add(args.out)
    return 0


def cmd_ablate(args, out: _Outputs) -> int:
    cfg = _load_run_config(args)
    rows = run_ablation(
        cfg,
        train_scenes=args.train_scenes,
        eval_scenes=args.eval_scenes,
        base_seed=args.seed if args.seed is not None else 0,
    )
    header = f"{'row':>3} | {'L_box':>5} | {'DBS':>3} | {'LSTQ':>7} | {'S_cls':>7} | {'S_assoc':>7}"
    print(header)
    print("-" * len(header))
    csv_lines = ["row,box_loss,dbscan,LSTQ,S_cls,S_assoc"]
    for i, (use_box, use_dbs, rep) in enumerate(rows, start=1):
        print(
            f"{i:>3} | {'yes' if use_box else 'no':>5} | {'yes' if use_dbs else 'no':>3} "
            f"| {rep['LSTQ']:7.4f} | {rep['S_cls']:7.4f} | {rep['S_assoc']:7.4f}"
        )
        csv_lines.append(
            f"{i},{int(use_box)},{int(use_dbs)},"
            f"{rep['LSTQ']:.6f},{rep['S_cls']:.6f},{rep['S_assoc']:.6f}"
        )
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(csv_lines) + "\n")
        out.add(args.out)
    return 0


def ablation_scene(seed: int) -> SceneSpec:
    """Benchmark scene: two well-separated objects of the same class."""
    return SceneSpec(
        seed=seed,
        num_frames=4,
        num_thing_objects=2,
        thing_classes=(1,),
        stuff_classes=(3, 4),
        points_per_object=110,
        points_per_stuff=240,
        min_object_separation=12.0,
    )


def run_ablation(
    cfg: RunConfig, train_scenes: int = 2, eval_scenes: int = 20, base_seed: int = 0
) -> list[tuple[bool, bool, dict]]:
    """Train with and without the box loss, evaluate each with and without
    DBSCAN splitting on held-out scenes; returns rows of mean scores."""
    for name, count in (("train_scenes", train_scenes), ("eval_scenes", eval_scenes)):
        if count < 1:
            raise ParameterError(f"{name} must be >= 1, got {count}")
    train_seqs = [
        generate_sequence(ablation_scene(base_seed + 1000 + i)) for i in range(train_scenes)
    ]
    eval_seqs = [
        generate_sequence(ablation_scene(base_seed + 2000 + i)) for i in range(eval_scenes)
    ]

    models = {}
    for use_box in (False, True):
        variant = dataclasses.replace(cfg, use_box_loss=use_box)
        model = PanopticModel(variant.model_config(), init_seed=variant.model_seed)
        train_model(model, train_seqs, variant)
        models[use_box] = (model, variant)
        log.info("trained ablation model use_box=%s", use_box)

    rows = []
    for use_box in (False, True):
        for use_dbs in (False, True):
            model, variant = models[use_box]
            run_cfg = dataclasses.replace(variant, use_dbscan=use_dbs)
            scores = []
            for seq in eval_seqs:
                pred = predict_sequence(model, seq, run_cfg)
                rep = evaluate_prediction(pred, seq)
                scores.append(rep.as_row())
            mean = {k: float(np.mean([s[k] for s in scores])) for k in scores[0]}
            rows.append((use_box, use_dbs, mean))
    # present in the grid order: (no, no), (no, yes), (yes, no), (yes, yes)
    return rows


def cmd_inspect(args, out: _Outputs) -> int:
    model, cfg = load_model(args.checkpoint)
    seq = load_sequence(args.sequence, cfg.class_map(), with_labels=False)
    # with stride 1, window i starts at scan i
    start, windows = args.window_start, sequence_windows(seq, cfg.window, 1)
    if not 0 <= start < len(windows):
        print(f"inspect: window start {start} outside [0, {len(windows) - 1}]", file=sys.stderr)
        return 2
    scans, poses = windows[start]
    with no_grad():
        data = prepare_window(scans, poses, cfg.voxel_size)
        fwd = model.forward(data)
    voxel_feats = fwd.pyramid.levels[0].features.values
    point_feats = voxel_feats[data.grid.point_to_voxel]
    rgb = features_to_rgb(point_feats)
    write_ply(args.out, data.cloud.points, rgb)
    out.add(args.out)
    print(f"wrote {data.cloud.num_points} colored points to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panoptic4d",
        description="4D panoptic segmentation of LiDAR sequences, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic labeled sequence")
    p.add_argument("--spec", help="scene spec config file (defaults built in)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output sequence directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a sequence directory")
    p.add_argument("--config", help="run config file (defaults: desk preset)")
    p.add_argument("--sequence", help="training sequence directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-box-loss", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="predict labels for a sequence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--no-dbscan", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory with predicted labels/")
    p.add_argument("--gt", required=True, help="ground-truth sequence directory")
    p.add_argument("--config", help="run config (for the class partition)")
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="box-loss / DBSCAN 2x2 ablation grid")
    p.add_argument("--config", help="run config (defaults: desk preset)")
    p.add_argument("--train-scenes", type=int, default=2)
    p.add_argument("--eval-scenes", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect", help="PCA feature colors of one window as PLY")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--window-start", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    outputs = _Outputs()
    try:
        return args.func(args, outputs)
    except Exception as exc:  # noqa: BLE001 - single operator-facing surface
        outputs.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

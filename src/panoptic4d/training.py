"""Toy-scale training loop: window round-robin, Hungarian matching on the
final output, deep-supervised loss, AdamW with the one-cycle schedule.
Deterministic under the config seeds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .config import RunConfig, config_to_text, config_from_text
from .errors import CapacityError, EmptyInstanceError, ParameterError
from .geometry import rot_z
from .heads import hungarian_match, label_pairs, total_loss
from .model import PanopticModel, point_labels, prepare_window
from .nn import load_parameters
from .optim import AdamW, load_checkpoint, save_checkpoint
from .sequence import ScanSequence, sequence_windows

log = logging.getLogger(__name__)

LOSS_CSV_COLUMNS = [
    "step",
    "lr",
    "loss_total",
    "loss_dice",
    "loss_bce",
    "loss_ce",
    "loss_box",
    "loss_no_object",
]


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; carries batch diagnostics."""

    def __init__(self, step: int, frames: list[int], breakdown: dict):
        self.step = step
        self.frames = frames
        self.breakdown = breakdown
        super().__init__(
            f"non-finite loss at step {step} on window frames {frames}: {breakdown}"
        )


@dataclass
class TrainResult:
    rows: list[dict] = field(default_factory=list)
    final_loss: float = float("nan")

    def csv(self) -> str:
        lines = [",".join(LOSS_CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join("%.10g" % row[c] for c in LOSS_CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def augmentation(cfg: RunConfig, rng: np.random.Generator) -> Callable[[np.ndarray], np.ndarray]:
    """A random rotation about z, scale and translation of the superimposed
    cloud (global frame), drawn from rng in that order for the enabled flags.
    With no flag set it draws nothing and returns the points unchanged."""
    rot = rot_z(rng.uniform(0.0, 2.0 * np.pi)) if cfg.aug_rotate else None
    scale = rng.uniform(0.95, 1.05) if cfg.aug_scale else None
    shift = rng.uniform(-1.0, 1.0, size=3) if cfg.aug_translate else None

    def transform(pts: np.ndarray) -> np.ndarray:
        if rot is not None:
            pts = pts @ rot.T
        if scale is not None:
            pts = pts * scale
        if shift is not None:
            pts = pts + shift
        return pts

    return transform


def train_model(
    model: PanopticModel,
    seq: ScanSequence | list[ScanSequence],
    cfg: RunConfig,
    log_every: int = 100,
) -> TrainResult:
    """Optimize the model on one or more sequences under a single schedule;
    returns the per-step loss trace. One pass first checks each window, with
    no voxels (its scans and poses are valid by construction): it has points
    and at most `num_queries` distinct labelled (class, instance) pairs. The
    pairs bound the targets under any augmentation, so no step fails later;
    a window is rejected on its pairs even if its voxel winners would fit."""
    sequences = seq if isinstance(seq, list) else [seq]
    if not sequences:
        raise ParameterError("cannot train on an empty sequence")
    windows = []
    for i, s in enumerate(sequences):
        unlabelled = [scan.frame_index for scan in s.scans if not scan.has_labels()]
        if unlabelled:
            raise ParameterError(f"training sequence {i}: frame {unlabelled[0]} has no labels")
        windows.extend(sequence_windows(s, cfg.window, cfg.train_stride))
    limit = model.config.num_queries
    for scans, _ in windows:
        frames = [s.frame_index for s in scans]
        if not any(s.num_points for s in scans):
            raise EmptyInstanceError(f"window frames {frames}: no points")
        pairs = len(label_pairs(*point_labels(scans), model.class_map)[2])
        if pairs > limit:
            raise CapacityError(f"window frames {frames}: {pairs} targets exceed {limit} queries")
    rng = np.random.Generator(np.random.PCG64(cfg.train_seed))

    params = model.parameters()
    opt = AdamW(
        params,
        lr=cfg.max_lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        weight_decay=cfg.weight_decay,
    )
    sched = cfg.schedule()
    weights = cfg.loss_weights()

    result = TrainResult()
    for step in range(cfg.steps):
        lr = sched.lr(step)
        opt.zero_grad()
        breakdown = None
        for b in range(cfg.batch_size):
            scans, poses = windows[(step * cfg.batch_size + b) % len(windows)]
            data = prepare_window(scans, poses, cfg.voxel_size, transform=augmentation(cfg, rng))
            targets = model.window_targets(data)
            fwd = model.forward(data)
            if not (
                np.all(np.isfinite(fwd.final.heatmap_logits.values))
                and np.all(np.isfinite(fwd.final.class_logits.values))
            ):
                raise TrainingDiverged(step, data.frames, {"forward": "non-finite outputs"})
            match = hungarian_match(fwd.final, targets, weights)
            loss, breakdown = total_loss(fwd.outputs, targets, match, weights)
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(step, data.frames, breakdown.as_row())
            if cfg.batch_size > 1:
                loss = ad.mul(loss, 1.0 / cfg.batch_size)
            ad.backward(loss)
        opt.step(lr)
        row = {"step": float(step), "lr": lr}
        row.update(breakdown.as_row())
        result.rows.append(row)
        result.final_loss = breakdown.total
        if log_every and step % log_every == 0:
            log.info("step %d lr %.3g loss %.4f", step, lr, breakdown.total)
    return result


def save_model(path: str, model: PanopticModel, cfg: RunConfig) -> None:
    save_checkpoint(path, model.parameters(), config_text=config_to_text(cfg))


def load_model(path: str) -> tuple[PanopticModel, RunConfig]:
    values, cfg_text = load_checkpoint(path)
    try:
        cfg = config_from_text(RunConfig, cfg_text)
    except ValueError as exc:
        raise type(exc)(f"checkpoint {path}: {exc}") from exc
    model = PanopticModel(cfg.model_config(), init_seed=cfg.model_seed)
    load_parameters(model.parameters(), values, path)
    return model, cfg

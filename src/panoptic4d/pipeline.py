"""End-to-end wiring: a trained model as a window predictor, whole-sequence
inference, and evaluation against ground truth.
"""

from __future__ import annotations

import os

import numpy as np

from .autodiff import no_grad
from .config import RunConfig
from .inference import extract_panoptic, frame_labels, run_sequence, split_non_compact
from .geometry import superimpose
from .kitti_io import check_labels, label_path, write_labels
from .metrics import MetricReport, SequenceLabels, evaluate
from .model import PanopticModel, prepare_window
from .sequence import ScanSequence


def model_predictor(model: PanopticModel, cfg: RunConfig):
    """Wrap a model as a window predictor for run_sequence."""
    def predict(scans, poses, frames) -> SequenceLabels:
        if not any(s.num_points for s in scans):
            # nothing to voxelize: every frame gets its empty labels
            empty = np.zeros(0, dtype=np.int64)
            return frame_labels(empty, empty, superimpose(scans, poses), frames)
        with no_grad():
            data = prepare_window(scans, poses, cfg.voxel_size)
            fwd = model.forward(data)
        sem, inst = extract_panoptic(fwd.final, data.grid, model.class_map)
        if cfg.use_dbscan:
            inst = split_non_compact(
                inst, data.cloud, eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts
            )
        return frame_labels(sem, inst, data.cloud, frames)

    return predict


def predict_sequence(
    model: PanopticModel, seq: ScanSequence, cfg: RunConfig
) -> SequenceLabels:
    return run_sequence(model_predictor(model, cfg), seq, cfg.window, cfg.stride)


def evaluate_prediction(pred: SequenceLabels, seq: ScanSequence) -> MetricReport:
    return evaluate(pred, SequenceLabels.from_scans(seq), seq.class_map)


def write_prediction(pred: SequenceLabels, out_dir: str) -> list[str]:
    """Emit one packed .label file per scan; returns the created paths.

    Every frame is packed once to validate it before the first file is
    opened, so labels that cannot be written leave no partial output; the
    error names the frame and its path.
    """
    for f in pred.frames:
        check_labels(out_dir, f, pred.semantic[f], pred.instance[f])
    paths = [label_path(out_dir, f) for f in pred.frames]
    os.makedirs(os.path.join(out_dir, "labels"), exist_ok=True)
    for f, path in zip(pred.frames, paths):
        write_labels(path, pred.semantic[f], pred.instance[f])
    return paths

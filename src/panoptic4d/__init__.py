"""Desk-scale 4D panoptic segmentation of LiDAR scan sequences.

Raw scans with ego poses go in; temporally consistent per-point
(semantic class, instance id) labels come out. The package covers the whole
loop: synthetic data generation, a tape-based autodiff engine, a voxel
feature pyramid with a query-refinement transformer, Hungarian-matched mask
training, DBSCAN-based instance splitting, cross-window track stitching,
and the LSTQ / PQ evaluation stack.
"""

from .config import RunConfig, desk_preset, load_config, save_config
from .geometry import (
    LidarScan,
    Pose,
    SuperimposedCloud,
    VoxelGrid,
    farthest_point_sampling,
    superimpose,
    trajectory_box,
    voxelize,
)
from .inference import dbscan, extract_panoptic, run_sequence, stitch
from .metrics import MetricReport, SequenceLabels, evaluate, lstq
from .model import ModelConfig, PanopticModel, prepare_window
from .pipeline import evaluate_prediction, predict_sequence
from .sequence import ClassMap, ScanSequence, load_sequence, save_sequence
from .synth import SceneSpec, generate_sequence
from .training import train_model

__version__ = "0.1.0"

__all__ = [
    "ClassMap",
    "LidarScan",
    "MetricReport",
    "ModelConfig",
    "PanopticModel",
    "Pose",
    "RunConfig",
    "ScanSequence",
    "SceneSpec",
    "SequenceLabels",
    "SuperimposedCloud",
    "VoxelGrid",
    "dbscan",
    "desk_preset",
    "evaluate",
    "evaluate_prediction",
    "extract_panoptic",
    "farthest_point_sampling",
    "generate_sequence",
    "load_config",
    "load_sequence",
    "lstq",
    "predict_sequence",
    "prepare_window",
    "run_sequence",
    "save_config",
    "save_sequence",
    "stitch",
    "superimpose",
    "train_model",
    "trajectory_box",
    "voxelize",
]

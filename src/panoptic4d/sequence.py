"""Scan sequences: the class taxonomy, the in-memory sequence container, and
loading/saving sequences in the on-disk layout of kitti_io.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import kitti_io
from .errors import ArityError, ParameterError
from .geometry import LidarScan, Pose

IGNORE_LABEL = 255


@dataclass(frozen=True)
class ClassMap:
    """Partition of semantic class ids into countable things and amorphous stuff."""

    thing_ids: tuple[int, ...]
    stuff_ids: tuple[int, ...]

    def __post_init__(self):
        overlap = set(self.thing_ids) & set(self.stuff_ids)
        if overlap:
            raise ParameterError(f"classes {sorted(overlap)} are both thing and stuff")
        if not self.thing_ids and not self.stuff_ids:
            raise ParameterError("class map must contain at least one class")

    @property
    def all_ids(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.thing_ids) | set(self.stuff_ids)))

    @property
    def num_classes(self) -> int:
        return len(self.all_ids)

    def is_thing(self, class_id: int) -> bool:
        return class_id in self.thing_ids


DEFAULT_CLASS_MAP = ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4))


@dataclass
class ObjectTrack:
    """Ground-truth trajectory of one movable object."""

    instance_id: int
    class_id: int
    centers: np.ndarray  # (num_frames, 3)
    shape: np.ndarray  # (3,) box dimensions, meters
    visible: np.ndarray  # (num_frames,) bool


@dataclass
class ScanSequence:
    """Ordered scans with ego poses, optional labels, and optional gt tracks."""

    scans: list[LidarScan]
    poses: list[Pose]
    class_map: ClassMap
    tracks: list[ObjectTrack] = field(default_factory=list)

    def __post_init__(self):
        if len(self.scans) != len(self.poses):
            raise ArityError(f"{len(self.scans)} scans but {len(self.poses)} poses")

    @property
    def num_frames(self) -> int:
        return len(self.scans)

    def has_labels(self) -> bool:
        return all(s.has_labels() for s in self.scans)


def window_starts(n: int, window: int, stride: int) -> list[int]:
    """Window starts over n frames: every stride-th one plus a last one that
    covers the tail (a window longer than the sequence leaves only 0)."""
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    last = max(n - window, 0)
    starts = list(range(0, last + 1, stride))
    if starts[-1] != last:
        starts.append(last)
    return starts


def save_sequence(seq: ScanSequence, out_dir: str, write_labels: bool = True) -> list[str]:
    """Write a sequence in the kitti_io layout; returns the created file paths."""
    os.makedirs(os.path.join(out_dir, "velodyne"), exist_ok=True)
    created = []
    if write_labels and seq.has_labels():
        os.makedirs(os.path.join(out_dir, "labels"), exist_ok=True)
    for scan in seq.scans:
        spath = kitti_io.scan_path(out_dir, scan.frame_index)
        kitti_io.write_scan(spath, scan.points)
        created.append(spath)
        if write_labels and scan.has_labels():
            lpath = kitti_io.label_path(out_dir, scan.frame_index)
            kitti_io.write_labels(lpath, scan.semantic, scan.instance)
            created.append(lpath)
    ppath = kitti_io.poses_path(out_dir)
    kitti_io.write_poses(ppath, seq.poses)
    created.append(ppath)
    return created


def load_sequence(
    sequence_dir: str,
    class_map: ClassMap = DEFAULT_CLASS_MAP,
    with_labels: bool = True,
) -> ScanSequence:
    """Read a sequence directory back into memory. Labels are optional."""
    frames = kitti_io.list_frames(sequence_dir)
    if not frames:
        raise ParameterError(f"no scans found under {sequence_dir}")
    poses = kitti_io.read_poses(kitti_io.poses_path(sequence_dir))
    if len(poses) != len(frames):
        raise ArityError(
            f"{len(frames)} scans but {len(poses)} poses in {sequence_dir}"
        )
    scans = []
    for frame in frames:
        points, _ = kitti_io.read_scan(kitti_io.scan_path(sequence_dir, frame))
        semantic = instance = None
        lpath = kitti_io.label_path(sequence_dir, frame)
        if with_labels and os.path.exists(lpath):
            semantic, instance = kitti_io.read_labels(lpath, expected_count=points.shape[0])
        scans.append(
            LidarScan(points=points, frame_index=frame, semantic=semantic, instance=instance)
        )
    return ScanSequence(scans=scans, poses=poses, class_map=class_map)

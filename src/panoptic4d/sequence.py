"""Scan sequences: the class taxonomy, the in-memory sequence container, its
windows, and loading/saving sequences in the on-disk layout of kitti_io.
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
    """Partition of semantic class ids into countable things and amorphous
    stuff, and the one class table: a class's index is its rank in `ids`.
    Every id fits the 16-bit semantic label field and is not IGNORE_LABEL."""

    thing_ids: tuple[int, ...]
    stuff_ids: tuple[int, ...]
    ids: np.ndarray = field(init=False, repr=False, compare=False)  # ascending int64
    thing: np.ndarray = field(init=False, repr=False, compare=False)  # per class index
    _table: np.ndarray = field(init=False, repr=False, compare=False)  # id -> index

    def __post_init__(self):
        overlap = set(self.thing_ids) & set(self.stuff_ids)
        if overlap:
            raise ParameterError(f"classes {sorted(overlap)} are both thing and stuff")
        if not self.thing_ids and not self.stuff_ids:
            raise ParameterError("class map must contain at least one class")
        for c in (*self.thing_ids, *self.stuff_ids):
            if not 0 <= c < 2**16 or c == IGNORE_LABEL:
                raise ParameterError(f"class id {c} is outside [0, 65536) or is {IGNORE_LABEL}")
        # sorted(), not np.unique: a bare np.unique imports numpy.ma, about 1 MB of RSS
        ids = np.array(sorted({*self.thing_ids, *self.stuff_ids}), dtype=np.int64)
        table = np.full(ids[-1] + 2, -1)  # the last -1 takes every clipped id
        table[ids] = np.arange(ids.size)
        thing = np.isin(ids, self.thing_ids)
        for name, value in (("ids", ids), ("thing", thing), ("_table", table)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def all_ids(self) -> tuple[int, ...]:
        return tuple(self.ids.tolist())

    def index(self, semantic) -> np.ndarray:
        """The class index of every semantic id, -1 for an id outside the map."""
        return self._table[np.clip(np.asarray(semantic, dtype=np.int64), -1, self._table.size - 1)]


@dataclass
class ObjectTrack:
    """Ground-truth trajectory of one movable object."""

    instance_id: int
    class_id: int
    centers: np.ndarray  # (num_frames, 3)
    shape: np.ndarray  # (3,) box dimensions, meters
    visible: np.ndarray  # (num_frames,) bool


@dataclass(frozen=True)
class ScanSequence:
    """At least one scan in strictly increasing frame order, with ego poses,
    optional labels and optional gt tracks. Frozen, with tuple fields built
    from any iterables, so the order holds; dataclasses.replace checks again."""

    scans: tuple[LidarScan, ...]
    poses: tuple[Pose, ...]
    class_map: ClassMap
    tracks: tuple[ObjectTrack, ...] = ()

    def __post_init__(self):
        for name in ("scans", "poses", "tracks"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.scans:
            raise ParameterError("a sequence needs at least one scan")
        if len(self.scans) != len(self.poses):
            raise ArityError(f"{len(self.scans)} scans but {len(self.poses)} poses")
        frames = [scan.frame_index for scan in self.scans]
        for i in range(1, len(frames)):
            if frames[i] <= frames[i - 1]:
                raise ParameterError(
                    f"frames must be strictly increasing: position {i} holds frame "
                    f"{frames[i]} after frame {frames[i - 1]}"
                )

    @property
    def num_frames(self) -> int:
        return len(self.scans)


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


def sequence_windows(
    seq: ScanSequence, window: int, stride: int
) -> list[tuple[tuple[LidarScan, ...], tuple[Pose, ...]]]:
    """The (scans, poses) tuple slices of every window, at window_starts."""
    return [
        (seq.scans[s : s + window], seq.poses[s : s + window])
        for s in window_starts(seq.num_frames, window, stride)
    ]


def save_sequence(seq: ScanSequence, out_dir: str, write_labels: bool = True) -> list[str]:
    """Write a sequence in the kitti_io layout; returns the created file paths.
    Scans and labels that cannot be written fail before the first directory
    is made, and so does a file under velodyne/ or labels/ that this
    sequence would not overwrite."""
    labelled = []
    for scan in seq.scans:
        kitti_io.check_scan(kitti_io.scan_path(out_dir, scan.frame_index), scan.points)
        if write_labels and scan.has_labels():
            kitti_io.check_labels(out_dir, scan.frame_index, scan.semantic, scan.instance)
            labelled.append(scan.frame_index)
    frames = [scan.frame_index for scan in seq.scans]
    stray = "is not a file of this sequence; write it to a new directory"
    kitti_io.check_no_stray(out_dir, kitti_io.scan_path, frames, ParameterError, stray)
    kitti_io.check_no_stray(out_dir, kitti_io.label_path, labelled, ParameterError, stray)
    os.makedirs(os.path.join(out_dir, "velodyne"), exist_ok=True)
    created = []
    if labelled:
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
    class_map: ClassMap,
    with_labels: bool = True,
) -> ScanSequence:
    """Read a sequence directory back into memory. Labels are optional."""
    frames = kitti_io.list_frames(sequence_dir)
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

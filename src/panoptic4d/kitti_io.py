"""Binary scan / label / pose file I/O in the SemanticKITTI directory layout.

Formats:
  - scan (.bin): little-endian float32 records of (x, y, z, intensity).
  - label (.label): little-endian uint32 records, semantic in the lower 16
    bits, instance in the upper 16 bits.
  - poses.txt: one scan per line, 12 whitespace-separated floats, the
    row-major 3x4 [R|t] matrix of the KITTI odometry convention; each line
    must make a valid geometry.Pose (a proper rotation, a finite translation).

Directory layout of a sequence, NNNNNN being the frame in ASCII digits,
zero-padded to six as scan_path writes it (any other .bin name is an error):
  <sequence>/velodyne/NNNNNN.bin
  <sequence>/labels/NNNNNN.label
  <sequence>/poses.txt

`LabelFiles` serves the labels of such a directory to metrics.evaluate one
block of frames at a time, taking point counts from file sizes alone.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import (
    ArityError,
    ContractError,
    FormatError,
    InvalidPoseError,
    MissingLabelsError,
    ParameterError,
)
from .geometry import Pose, first_non_finite

SCAN_RECORD_BYTES = 16  # four float32 per point
LABEL_RECORD_BYTES = 4


def pack_labels(semantic: np.ndarray, instance: np.ndarray) -> np.ndarray:
    """Pack (semantic, instance) pairs into uint32: instance * 65536 + semantic."""
    semantic = np.asarray(semantic, dtype=np.int64)
    instance = np.asarray(instance, dtype=np.int64)
    if semantic.shape != instance.shape:
        raise ArityError("semantic and instance arrays differ in length")
    if semantic.size and (semantic.min() < 0 or semantic.max() >= 2**16):
        raise ParameterError("semantic ids must fit in 16 bits")
    if instance.size and (instance.min() < 0 or instance.max() >= 2**16):
        raise ParameterError("instance ids must fit in 16 bits")
    return (instance.astype(np.uint32) << 16) | semantic.astype(np.uint32)


def check_labels(sequence_dir: str, frame: int, semantic: np.ndarray, instance: np.ndarray):
    """pack_labels' check of one frame's labels; the error names the frame and its path."""
    try:
        pack_labels(semantic, instance)
    except ParameterError as exc:
        raise type(exc)(f"frame {frame} ({label_path(sequence_dir, frame)}): {exc}") from exc


def unpack_labels(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    raw = np.asarray(raw, dtype=np.uint32)
    return (raw & 0xFFFF).astype(np.int64), (raw >> 16).astype(np.int64)


def _records(path: str, nbytes: int, record_bytes: int, kind: str) -> int:
    """The number of records in a file of nbytes; a partial last record is a
    FormatError at its offset."""
    if nbytes % record_bytes:
        raise FormatError(
            f"{kind} file {path} is not a whole number of {record_bytes}-byte records",
            byte_offset=nbytes - nbytes % record_bytes,
        )
    return nbytes // record_bytes


def _expect_records(path: str, count: int, expected: int) -> None:
    if count != expected:
        raise ArityError(f"label file {path} has {count} records, expected {expected}")


def check_scan(path: str, points: np.ndarray) -> np.ndarray:
    """The points as the (N, 3) float32 records of a scan file at path; a
    coordinate that is not finite in float32 is a ParameterError naming the
    path and the record."""
    with np.errstate(over="ignore"):
        points = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    bad = first_non_finite(points)
    if bad >= 0:
        raise ParameterError(
            f"scan file {path}: record {bad} {points[bad].tolist()} is not finite in float32"
        )
    return points


def write_scan(path: str, points: np.ndarray, intensity: np.ndarray | None = None) -> None:
    """Write a .bin scan; points are checked by check_scan before the file opens."""
    points = check_scan(path, points)
    rec = np.zeros((points.shape[0], 4), dtype="<f4")
    rec[:, :3] = points
    if intensity is not None:
        intensity = np.asarray(intensity, dtype=np.float32).reshape(-1)
        if intensity.shape[0] != points.shape[0]:
            raise ArityError("intensity length does not match point count")
        rec[:, 3] = intensity
    with open(path, "wb") as f:
        f.write(rec.tobytes())


def read_scan(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a .bin scan; returns (points (N,3) float32, intensity (N,) float32).

    A record whose x, y or z is NaN or infinite is a FormatError at its offset.
    """
    with open(path, "rb") as f:
        blob = f.read()
    _records(path, len(blob), SCAN_RECORD_BYTES, "scan")
    rec = np.frombuffer(blob, dtype="<f4").reshape(-1, 4)
    points = rec[:, :3].copy()
    bad = first_non_finite(points)
    if bad >= 0:
        raise FormatError(
            f"scan file {path} has a non-finite coordinate in record {bad}",
            byte_offset=bad * SCAN_RECORD_BYTES,
        )
    return points, rec[:, 3].copy()


def write_labels(path: str, semantic: np.ndarray, instance: np.ndarray) -> None:
    raw = pack_labels(semantic, instance)
    with open(path, "wb") as f:
        f.write(raw.astype("<u4").tobytes())


def read_labels(path: str, expected_count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read a .label file; returns (semantic, instance) int64 arrays."""
    with open(path, "rb") as f:
        blob = f.read()
    _records(path, len(blob), LABEL_RECORD_BYTES, "label")
    raw = np.frombuffer(blob, dtype="<u4")
    if expected_count is not None:
        _expect_records(path, raw.shape[0], expected_count)
    return unpack_labels(raw)


def write_poses(path: str, poses: list[Pose]) -> None:
    lines = []
    for pose in poses:
        mat = np.hstack([pose.rotation, pose.translation.reshape(3, 1)])
        lines.append(" ".join("%.17g" % v for v in mat.reshape(-1)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_poses(path: str) -> list[Pose]:
    poses = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            vals = line.split()
            if len(vals) != 12:
                raise FormatError(
                    f"pose line {lineno} of {path} has {len(vals)} fields, expected 12"
                )
            try:
                mat = np.array([float(v) for v in vals]).reshape(3, 4)
            except ValueError as exc:
                raise FormatError(f"pose line {lineno} of {path}: {exc}") from exc
            try:
                poses.append(Pose(mat[:, :3], mat[:, 3]))
            except InvalidPoseError as exc:
                raise InvalidPoseError(f"pose line {lineno} of {path}: {exc}") from exc
    return poses


def scan_path(sequence_dir: str, frame: int) -> str:
    return os.path.join(sequence_dir, "velodyne", f"{frame:06d}.bin")


def label_path(sequence_dir: str, frame: int) -> str:
    return os.path.join(sequence_dir, "labels", f"{frame:06d}.label")


def poses_path(sequence_dir: str) -> str:
    return os.path.join(sequence_dir, "poses.txt")


def list_frames(sequence_dir: str) -> list[int]:
    """Frame indices present under velodyne/, sorted ascending. A .bin file
    must be named as scan_path names its frame (ASCII digits, at least six);
    any other .bin name is a FormatError, and no scan at all a ParameterError."""
    scan_dir = os.path.join(sequence_dir, "velodyne")
    if not os.path.isdir(scan_dir):
        raise FormatError(f"{sequence_dir} has no velodyne/ directory")
    frames = []
    for name in os.listdir(scan_dir):
        if name.endswith(".bin"):
            stem = name[:-4]
            frame = int(stem) if stem.isdecimal() else -1
            if frame < 0 or name != os.path.basename(scan_path(sequence_dir, frame)):
                raise FormatError(f"{scan_dir}: unexpected scan file name {name!r}")
            frames.append(frame)
    if not frames:
        raise ParameterError(f"no scans found under {sequence_dir}")
    return sorted(frames)


def check_no_stray(sequence_dir: str, path_of, frames, error: type, what: str) -> None:
    """Raise error when the directory of path_of (scan_path or label_path)
    holds an entry other than the files path_of names for frames; the
    message names the directory and the first such entry in sorted order,
    followed by what. A missing directory holds nothing."""
    directory = os.path.dirname(path_of(sequence_dir, 0))
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return
    names = {os.path.basename(path_of(sequence_dir, f)) for f in frames}
    stray = min(set(entries) - names, default=None)
    if stray is not None:
        raise error(f"{directory}: {stray!r} {what}")


class LabelFiles:
    """The labels of a sequence directory, read one block of frames at a time:
    the on-disk counterpart of metrics.SequenceLabels.

    Ground truth names the frames (its velodyne/ listing) and each frame's
    point count (its .bin size): no point and no pose is ever read. `kind`
    ("ground-truth", "predicted") names the labels in errors.
    """

    def __init__(self, sequence_dir: str, kind: str):
        self.sequence_dir = sequence_dir
        self.kind = kind

    def frame_sizes(self) -> tuple[list[int], list[int]]:
        """The frames of this directory and their point counts, taken from
        the .bin sizes alone."""
        frames = list_frames(self.sequence_dir)
        sizes = []
        for f in frames:
            path = scan_path(self.sequence_dir, f)
            sizes.append(_records(path, os.stat(path).st_size, SCAN_RECORD_BYTES, "scan"))
        return frames, sizes

    def check_sizes(self, frames: list[int], sizes: list[int]) -> None:
        """Check that every frame has a .label file of whole records, one
        record per point of its size, and that labels/ holds nothing else."""
        check_no_stray(
            self.sequence_dir, label_path, frames, ContractError,
            f"is not the {self.kind} label file of any frame",
        )
        for frame, expected in zip(frames, sizes):
            path = label_path(self.sequence_dir, frame)
            try:
                nbytes = os.stat(path).st_size
            except FileNotFoundError:
                raise MissingLabelsError(
                    f"{self.sequence_dir}: frame {frame} has no {self.kind} labels ({path} not found)"
                ) from None
            _expect_records(path, _records(path, nbytes, LABEL_RECORD_BYTES, "label"), expected)

    def read(self, frames: list[int], sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The frames' (semantic, instance) labels, concatenated int64."""
        labels = [
            read_labels(label_path(self.sequence_dir, f), expected_count=n)
            for f, n in zip(frames, sizes)
        ]
        semantic, instance = zip(*labels)
        return np.concatenate(semantic), np.concatenate(instance)

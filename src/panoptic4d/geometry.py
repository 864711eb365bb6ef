"""Point-cloud primitives: rigid transforms, scan superposition, voxelization,
a window's normalization frame, farthest point sampling, trajectory bounding
boxes, and the one integer-key rule (pack_keys, first_occurrence_groups).

All operations are pure functions over immutable inputs; none of them keeps
shared mutable state, so concurrent calls are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ArityError,
    EmptyInstanceError,
    InvalidPoseError,
    ParameterError,
)

ORTHONORMAL_TOL = 1e-6
# np.allclose(r.T @ r, I, atol=ORTHONORMAL_TOL) bounds, without its call overhead
_GRAM_TOL = ORTHONORMAL_TOL + 1e-5 * np.eye(3)


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of values."""
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid body transform: world_point = rotation @ point + translation.

    A proper rotation, orthonormal with determinant +1 (within 1e-6), and a
    finite translation, checked on construction: else InvalidPoseError.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r, t = _frozen(self.rotation), _frozen(np.reshape(self.translation, 3))
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if r.shape != (3, 3):
            raise InvalidPoseError(f"rotation must be 3x3, got {r.shape}")
        if not (np.abs(r.T @ r - np.eye(3)) <= _GRAM_TOL).all():
            raise InvalidPoseError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise InvalidPoseError("rotation determinant is not +1")
        if not np.isfinite(t).all():
            raise InvalidPoseError("translation is not finite")

    def __reduce__(self):  # copies and pickles go through the constructor
        return Pose, (self.rotation, self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return points @ self.rotation.T + self.translation

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


def rot_z(angle_rad: float) -> np.ndarray:
    """Rotation matrix about the +z axis."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def first_non_finite(points: np.ndarray) -> int:
    """Index of the first row of points holding a NaN or infinity, -1 if none."""
    finite = np.isfinite(points)
    # the flat all() is about ten times faster than the per-row one
    return -1 if finite.all() else int(np.argmin(finite.all(axis=1)))


@dataclass(frozen=True)
class LidarScan:
    """One LiDAR sweep in the sensor frame, with optional per-point labels
    (writable, one entry per point). Its points are a read-only, finite
    float64 copy: copies and pickles go through the constructor too."""

    points: np.ndarray  # (N, 3) meters, sensor frame
    frame_index: int
    semantic: np.ndarray | None = None  # (N,) int
    instance: np.ndarray | None = None  # (N,) int, 0 for stuff

    def __post_init__(self):
        points = _frozen(np.reshape(self.points, (-1, 3)))
        object.__setattr__(self, "points", points)
        if self.frame_index < 0:
            raise ParameterError("frame_index must be >= 0")
        bad = first_non_finite(points)
        if bad >= 0:
            raise ParameterError(
                f"frame {self.frame_index}: point {bad} {points[bad].tolist()} is not finite"
            )
        for name in ("semantic", "instance"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int64).reshape(-1)
                if arr.shape[0] != points.shape[0]:
                    raise ArityError(
                        f"{name} has {arr.shape[0]} entries for {points.shape[0]} points"
                    )
                object.__setattr__(self, name, arr)

    def __reduce__(self):
        return LidarScan, (self.points, self.frame_index, self.semantic, self.instance)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def has_labels(self) -> bool:
        return self.semantic is not None and self.instance is not None


@dataclass
class SuperimposedCloud:
    """Ego-pose-aligned scans concatenated into one global-frame point set, in
    the layout every per-point array of a window follows: the scans in
    window-slot order, each in file order."""

    points: np.ndarray  # (M, 3) global frame
    frame_of: np.ndarray  # (M,) source frame index

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def extent(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (min, max) corners of the cloud."""
        if self.num_points == 0:
            raise EmptyInstanceError("extent of an empty cloud is undefined")
        return self.points.min(axis=0), self.points.max(axis=0)


@dataclass
class VoxelGrid:
    """Regular cubic voxelization of a superimposed cloud.

    point_to_voxel is the only membership record (the members of voxel v are
    np.flatnonzero(point_to_voxel == v)); voxel_coords rows are unique and
    listed in first-occurrence order of the input points.
    """

    voxel_coords: np.ndarray  # (K0, 3) int
    voxel_size: float
    point_to_voxel: np.ndarray  # (M,) int
    voxel_centroids: np.ndarray = field(repr=False)  # (K0, 3) meters
    voxel_frame: np.ndarray = field(repr=False)  # (K0,) mean frame index

    @property
    def num_voxels(self) -> int:
        return self.voxel_coords.shape[0]


@dataclass(frozen=True)
class WindowContext:
    """Normalization frame of one superimposed window: spatial extent and time
    span. Positions and trajectory boxes are both normalized by extent_size,
    which floors a zero-size axis (a planar window) at 1e-12."""

    extent_min: np.ndarray  # (3,)
    extent_max: np.ndarray  # (3,)
    frame_lo: int
    frame_hi: int

    @property
    def extent_size(self) -> np.ndarray:
        return np.maximum(self.extent_max - self.extent_min, 1e-12)

    @property
    def frame_span(self) -> int:
        return max(1, self.frame_hi - self.frame_lo)

    # Coordinates map into [0, 1/2] instead of [0, 1]: with integer frequency
    # banks, phase 2*pi*f aliases with phase 0, which would give the first and
    # last frame of a window identical encodings. Half a period keeps the base
    # frequency injective over the window.
    def normalize_positions(self, positions: np.ndarray) -> np.ndarray:
        return 0.5 * (positions - self.extent_min) / self.extent_size

    def normalize_frames(self, frames: np.ndarray) -> np.ndarray:
        return (
            0.5 * (np.asarray(frames, dtype=np.float64) - self.frame_lo) / self.frame_span
        )


def superimpose(scans: list[LidarScan], poses: list[Pose]) -> SuperimposedCloud:
    """Concatenate pose-transformed scans into one spatio-temporal point set."""
    if len(scans) != len(poses):
        raise ArityError(f"{len(scans)} scans but {len(poses)} poses")
    if not scans:
        raise ParameterError("need at least one scan")
    return SuperimposedCloud(
        points=np.concatenate([pose.apply(s.points) for s, pose in zip(scans, poses)], axis=0),
        frame_of=np.concatenate([np.full(s.num_points, s.frame_index, dtype=np.int64) for s in scans]),
    )


def pack_keys(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Collision-free int64 keys ordered like the pairs (major, minor) of two
    int64 arrays, and the function that turns keys back into pairs.

    The strides come from the value ranges; when the ranges are too wide for
    int64 keys, each side is first replaced by the ranks of its values.
    """
    if major.size == 0:
        return major, lambda key: (key, key)
    lo_a, lo_b = int(major.min()), int(minor.min())
    span_b = int(minor.max()) - lo_b + 1
    if (int(major.max()) - lo_a + 1) * span_b < 1 << 63:
        key = major - lo_a
        key *= span_b
        key += minor - lo_b
        return key, lambda key: (key // span_b + lo_a, key % span_b + lo_b)
    values_a, rank_a = np.unique(major, return_inverse=True)
    values_b, rank_b = np.unique(minor, return_inverse=True)
    span_b = values_b.size
    return rank_a * span_b + rank_b, lambda key: (values_a[key // span_b], values_b[key % span_b])


def first_occurrence_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct key's first entry, in order of first
    occurrence, and each entry's group: the position of its key there."""
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[group]  # argsort inverts a permutation


def unique_rows_first_occurrence(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of (N, 3) integer coordinates in order of first
    occurrence, plus each row's group; any int64 values work."""
    xy = pack_keys(coords[:, 0], coords[:, 1])[0]
    first, group = first_occurrence_groups(pack_keys(xy, coords[:, 2])[0])
    return coords[first], group


def pool_coords(
    coords: np.ndarray, positions: np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The unique coordinates in first-occurrence order, the group of every
    row, and each group's mean position and mean frame."""
    unique, inverse = unique_rows_first_occurrence(coords)
    k = unique.shape[0]
    counts = np.bincount(inverse, minlength=k).astype(np.float64)
    mean = np.zeros((k, 3))
    for axis in range(3):
        mean[:, axis] = np.bincount(inverse, weights=positions[:, axis], minlength=k)
    mean /= counts[:, None]
    frame = np.bincount(inverse, weights=frames, minlength=k) / counts
    return unique, inverse, mean, frame


def voxelize(cloud: SuperimposedCloud, voxel_size: float) -> VoxelGrid:
    """Assign each point to the voxel floor(p / voxel_size), componentwise.

    Voxels are enumerated in first-occurrence order. Centroids and mean frame
    indices are averaged over member points. A point whose |p / voxel_size|
    is not below 2^63 has no int64 voxel: a ParameterError names it.
    """
    if not (np.isfinite(voxel_size) and voxel_size > 0):
        raise ParameterError(f"voxel_size must be positive and finite, got {voxel_size}")
    scaled = cloud.points / voxel_size
    fits = np.abs(scaled) < 2.0**63
    if not fits.all():
        i = int(np.argmin(fits.all(axis=1)))
        frame = cloud.frame_of[i]
        raise ParameterError(
            f"frame {frame}: point {i - int(np.argmax(cloud.frame_of == frame))} "
            f"{cloud.points[i].tolist()} is too far out for int64 voxels of size {voxel_size}"
        )
    coords = np.floor(scaled).astype(np.int64)
    voxel_coords, point_to_voxel, centroids, frame = pool_coords(
        coords, cloud.points, cloud.frame_of
    )
    return VoxelGrid(
        voxel_coords=voxel_coords,
        voxel_size=float(voxel_size),
        point_to_voxel=point_to_voxel,
        voxel_centroids=centroids,
        voxel_frame=frame,
    )


def farthest_point_sampling(points: np.ndarray, k: int, seed_index: int = 0) -> np.ndarray:
    """Greedy farthest point sampling.

    The first pick is seed_index; every later pick maximizes the minimum
    distance to the points already chosen, ties broken by lowest index.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    if not 0 <= seed_index < n:
        raise ParameterError(f"seed_index must be in [0, {n}), got {seed_index}")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = seed_index
    min_dist = np.linalg.norm(points - points[seed_index], axis=1)
    for i in range(1, k):
        # np.argmax returns the first maximum, which is the lowest index.
        nxt = int(np.argmax(min_dist))
        chosen[i] = nxt
        min_dist = np.minimum(min_dist, np.linalg.norm(points - points[nxt], axis=1))
    return chosen


def trajectory_box(points: np.ndarray, ctx: WindowContext) -> np.ndarray:
    """Axis-aligned bounds of an instance point set, normalized to the
    window's extent, as the (6,) vector (center, dims).

    center = (box midpoint - extent_min) / extent_size, dims = box size / extent_size.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if points.shape[0] == 0:
        raise EmptyInstanceError("cannot build a trajectory box from zero points")
    lo, hi = points.min(axis=0), points.max(axis=0)
    size = ctx.extent_size
    return np.concatenate([((lo + hi) / 2.0 - ctx.extent_min) / size, (hi - lo) / size])

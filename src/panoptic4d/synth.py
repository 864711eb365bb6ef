"""Deterministic synthetic LiDAR sequences with ground-truth tracklets.

Scenes contain a moving ego sensor, box-shaped moving objects (things), a
ground plane, and static wall structures (stuff). Randomness comes from a
single seeded numpy PCG64 generator, so the same spec always produces a
bit-identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import LidarScan, Pose, rot_z
from .sequence import ClassMap, ObjectTrack, ScanSequence


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of one synthetic scene."""

    seed: int = 0
    num_frames: int = 4
    num_thing_objects: int = 3
    thing_classes: tuple[int, ...] = (1, 2)
    stuff_classes: tuple[int, ...] = (3, 4)
    points_per_object: int = 120
    points_per_stuff: int = 300
    ego_speed: float = 1.0  # meters per frame
    ego_turn_rate: float = 0.0  # radians per frame
    object_speed_range: tuple[float, float] = (0.2, 0.8)  # meters per frame
    arena_extent: float = 28.0  # side length of the square arena, meters
    min_object_separation: float = 6.0
    # (instance_id, frame) pairs during which an object emits no points,
    # simulating e.g. dropping below the sensor's field of view.
    hidden: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.num_frames <= 0:
            raise ParameterError("num_frames must be positive")
        if self.num_thing_objects < 0:
            raise ParameterError("num_thing_objects must be >= 0")
        if self.points_per_object <= 0 or self.points_per_stuff <= 0:
            raise ParameterError("point counts must be positive")
        if not self.stuff_classes:
            raise ParameterError("need at least one stuff class")
        if self.num_thing_objects > 0 and not self.thing_classes:
            raise ParameterError("thing objects requested but no thing classes given")
        speeds = np.asarray(self.object_speed_range, dtype=np.float64)
        if speeds.shape != (2,) or not np.isfinite(speeds).all() or not 0 <= speeds[0] <= speeds[1]:
            raise ParameterError(
                f"object_speed_range must be two finite values lo,hi with 0 <= lo <= hi, "
                f"got {self.object_speed_range}"
            )
        for inst, frame in self.hidden:
            if not (1 <= inst <= self.num_thing_objects and 0 <= frame < self.num_frames):
                raise ParameterError(
                    f"hidden pair {inst}:{frame} is outside instances [1, "
                    f"{self.num_thing_objects}] or frames [0, {self.num_frames})"
                )
        self.class_map()  # rejects overlapping or unwritable class ids

    def class_map(self) -> ClassMap:
        return ClassMap(thing_ids=tuple(self.thing_classes), stuff_ids=tuple(self.stuff_classes))


def _sample_box_surface(rng: np.random.Generator, center, dims, n: int) -> np.ndarray:
    """Uniform points on the surface of an axis-aligned box."""
    dims = np.asarray(dims, dtype=np.float64)
    areas = np.array([dims[1] * dims[2], dims[0] * dims[2], dims[0] * dims[1]])
    areas = np.repeat(areas, 2)  # +x, -x, +y, -y, +z, -z
    face = rng.choice(6, size=n, p=areas / areas.sum())
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.zeros((n, 3))
    for f in range(6):
        sel = face == f
        axis = f // 2
        sign = 1.0 if f % 2 == 0 else -1.0
        others = [a for a in range(3) if a != axis]
        pts[sel, axis] = sign * 0.5 * dims[axis]
        pts[sel, others[0]] = uv[sel, 0] * dims[others[0]]
        pts[sel, others[1]] = uv[sel, 1] * dims[others[1]]
    return pts + np.asarray(center, dtype=np.float64)


def _ego_poses(spec: SceneSpec) -> list[Pose]:
    poses = []
    heading = 0.0
    position = np.zeros(3)
    for frame in range(spec.num_frames):
        poses.append(Pose(rot_z(heading), position.copy()))
        direction = np.array([np.cos(heading), np.sin(heading), 0.0])
        position = position + spec.ego_speed * direction
        heading += spec.ego_turn_rate
    return poses


def _spawn_tracks(spec: SceneSpec, rng: np.random.Generator) -> list[ObjectTrack]:
    tracks = []
    half = spec.arena_extent / 2.0
    hidden = set(spec.hidden)
    lanes = [-4.0, 4.0, 0.0, -8.0, 8.0]
    for i in range(spec.num_thing_objects):
        instance_id = i + 1
        class_id = spec.thing_classes[i % len(spec.thing_classes)]
        start = np.array(
            [
                3.0 + i * spec.min_object_separation + rng.uniform(-1.0, 1.0),
                lanes[i % len(lanes)] + rng.uniform(-1.0, 1.0),
                0.9,
            ]
        )
        start[:2] = np.clip(start[:2], -half + 2.0, half - 2.0)
        speed = rng.uniform(*spec.object_speed_range)
        heading = rng.uniform(-0.3, 0.3)  # roughly along the road
        velocity = speed * np.array([np.cos(heading), np.sin(heading), 0.0])
        turn = rng.uniform(-0.05, 0.05)
        dims = np.array(
            [rng.uniform(2.5, 4.0), rng.uniform(1.4, 2.0), rng.uniform(1.2, 1.8)]
        )
        centers = np.zeros((spec.num_frames, 3))
        c = start.copy()
        v = velocity.copy()
        for frame in range(spec.num_frames):
            centers[frame] = c
            c = c + v
            v = rot_z(turn) @ v
        visible = np.array(
            [(instance_id, f) not in hidden for f in range(spec.num_frames)]
        )
        tracks.append(
            ObjectTrack(
                instance_id=instance_id,
                class_id=class_id,
                centers=centers,
                shape=dims,
                visible=visible,
            )
        )
    return tracks


def _stuff_points(
    spec: SceneSpec, rng: np.random.Generator, ego_xy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """World-frame stuff points near the ego plus their semantic ids."""
    n_ground = spec.points_per_stuff
    n_wall = 0
    if len(spec.stuff_classes) > 1:
        n_wall = spec.points_per_stuff // 3
        n_ground = spec.points_per_stuff - n_wall
    half = spec.arena_extent / 2.0
    ground = np.zeros((n_ground, 3))
    ground[:, 0] = ego_xy[0] + rng.uniform(-half, half, size=n_ground)
    ground[:, 1] = ego_xy[1] + rng.uniform(-half, half, size=n_ground)
    ground[:, 2] = rng.normal(0.0, 0.02, size=n_ground)
    sem = [np.full(n_ground, spec.stuff_classes[0], dtype=np.int64)]
    pts = [ground]
    if n_wall:
        # Two wall strips flanking the route, sampled near the ego.
        wall = np.zeros((n_wall, 3))
        side = rng.choice([-1.0, 1.0], size=n_wall)
        wall[:, 0] = ego_xy[0] + rng.uniform(-half, half, size=n_wall)
        wall[:, 1] = side * (half - 1.0) + rng.normal(0.0, 0.15, size=n_wall)
        wall[:, 2] = rng.uniform(0.0, 3.0, size=n_wall)
        pts.append(wall)
        sem.append(np.full(n_wall, spec.stuff_classes[1], dtype=np.int64))
    return np.concatenate(pts, axis=0), np.concatenate(sem)


def generate_sequence(spec: SceneSpec) -> ScanSequence:
    """Build a labeled synthetic sequence, deterministic under spec.seed."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    poses = _ego_poses(spec)
    tracks = _spawn_tracks(spec, rng)

    scans = []
    for frame in range(spec.num_frames):
        pose = poses[frame]
        world_pts, sem, inst = [], [], []
        for track in tracks:
            if not track.visible[frame]:
                continue
            pts = _sample_box_surface(
                rng, track.centers[frame], track.shape, spec.points_per_object
            )
            world_pts.append(pts)
            sem.append(np.full(pts.shape[0], track.class_id, dtype=np.int64))
            inst.append(np.full(pts.shape[0], track.instance_id, dtype=np.int64))
        stuff_pts, stuff_sem = _stuff_points(spec, rng, pose.translation[:2])
        world_pts.append(stuff_pts)
        sem.append(stuff_sem)
        inst.append(np.zeros(stuff_pts.shape[0], dtype=np.int64))

        world = np.concatenate(world_pts, axis=0)
        sensor = pose.inverse().apply(world)
        scans.append(
            LidarScan(
                points=sensor,
                frame_index=frame,
                semantic=np.concatenate(sem),
                instance=np.concatenate(inst),
            )
        )
    return ScanSequence(
        scans=scans, poses=poses, class_map=spec.class_map(), tracks=tracks
    )

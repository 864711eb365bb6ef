"""From mask predictions to a non-overlapping 4D panoptic labeling.

extract_panoptic resolves the overlapping per-query heatmaps into one query
per voxel by confidence argmax and split_non_compact breaks spatially
scattered instances apart with DBSCAN, both on flat per-point arrays in
superimposed order; stitch carries instance ids across overlapping windows on
those flat arrays, and run_sequence, the one place that cuts a window's labels
into frames (frame_labels), gives a whole sequence consistent tracks.
"""

from __future__ import annotations

import itertools
import logging
import math
import warnings

import numpy as np

from . import heads
from .errors import CapacityError, ContractError, ParameterError, ShapeError
from .geometry import SuperimposedCloud, VoxelGrid, first_non_finite, pack_keys
from .metrics import SequenceLabels
from .sequence import ClassMap, ScanSequence, sequence_windows

log = logging.getLogger(__name__)


def extract_panoptic(
    output: heads.MaskModuleOutput, grid: VoxelGrid, class_map: ClassMap
) -> tuple[np.ndarray, np.ndarray]:
    """Assign every voxel to one query by confidence argmax, then expand to points.

    Returns (semantic, instance) as int64 per point in superimposed order,
    with window-local instance ids. Query confidence on a voxel is (max
    real-class probability) times the sigmoid heatmap value. Queries whose
    most likely class is "no object" are excluded; if that excludes everyone,
    all queries are kept and a warning is emitted. Ties go to the lower query
    index.
    """
    probs = output.class_probs()  # (N_q, C+1)
    heat = output.heatmap_sigmoid()  # (N_q, K0)
    num_classes = class_map.ids.size
    if probs.shape[1] != num_classes + 1:
        raise ContractError(f"{probs.shape[1]} class columns for {num_classes} classes")

    best_class = probs[:, :num_classes].argmax(axis=1)
    confidence = probs[np.arange(probs.shape[0]), best_class]
    included = probs.argmax(axis=1) != num_classes
    if not included.any():
        warnings.warn("all queries predict no-object; keeping all of them")
        included[:] = True

    score = confidence[:, None] * heat  # (N_q, K0)
    score[~included, :] = -np.inf
    voxel_query = score.argmax(axis=0)  # first maximum = lowest query index

    # thing queries get dense local instance ids, stuff queries id 0
    things = included & class_map.thing[best_class]
    local_id = np.zeros(probs.shape[0], dtype=np.int64)
    local_id[things] = np.arange(1, things.sum() + 1)

    q_of_point = voxel_query[grid.point_to_voxel]
    return class_map.ids[best_class[q_of_point]], local_id[q_of_point]


def frame_labels(semantic: np.ndarray, instance: np.ndarray, scans) -> SequenceLabels:
    """A window's labels in superimposed point order cut into one array per
    frame at each scan's num_points; an empty scan keeps its empty array.
    Each frame gets a copy, so a kept frame does not hold the whole window.
    Arrays that do not hold one label per window point raise ContractError."""
    frames, sizes = [s.frame_index for s in scans], [s.num_points for s in scans]
    n = sum(sizes)
    if np.shape(semantic) != (n,) or np.shape(instance) != (n,):
        raise ContractError(
            f"frames {frames}: {np.size(semantic)} semantic and {np.size(instance)} "
            f"instance labels for {n} points"
        )
    cuts = np.cumsum(sizes)[:-1]
    by_frame = [dict(zip(frames, map(np.copy, np.split(a, cuts)))) for a in (semantic, instance)]
    return SequenceLabels(frames, *by_frame)


def dbscan(
    points: np.ndarray, eps: float, min_pts: int, groups: np.ndarray | None = None
) -> np.ndarray:
    """Textbook DBSCAN: returns a cluster id per point, -1 for noise.

    Points p and q are neighbors when ((p - q) ** 2).sum() <= eps * eps and,
    if integer groups are given, groups[p] == groups[q]. A point is core when
    it has at least min_pts neighbors, itself included. Clusters are the
    connected components of the core-core neighbor graph, numbered by their
    smallest core index over the whole input, and a border point joins the
    lowest-numbered cluster among its core neighbors: the labels of a scan in
    input order (Ester et al., KDD 1996). So on group-major input each
    group's clusters come out in the order a call on that group alone gives
    them, offset by the clusters of the groups before it.

    Neighbors are found through a hash grid with cells of edge >= eps (Gan
    and Tao, SIGMOD 2015) and streamed in bounded batches: once to count
    degrees, once to join core points and collect border points. No (n, n)
    array and no list of all neighbor pairs is built, so memory is
    O(n * min_pts) however dense the cloud.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    if min_pts < 1:
        raise ParameterError("min_pts must be >= 1")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    bad = first_non_finite(points)
    if bad >= 0:
        raise ParameterError(f"point {bad} of {n} has non-finite coordinates")
    if groups is None:
        group_rank = np.zeros(n, dtype=np.int64)
    else:
        groups = np.asarray(groups)
        if groups.shape != (n,):
            raise ShapeError(f"groups has shape {groups.shape}, expected ({n},)")
        if not np.issubdtype(groups.dtype, np.integer):
            raise ParameterError(f"groups must be integers, got dtype {groups.dtype}")
        group_rank = np.unique(groups, return_inverse=True)[1]
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    neighbor_pairs = _grid_neighbor_pairs(points, eps * eps, group_rank)
    # Every point neighbors itself, so with min_pts == 1 all are core and
    # the degrees need not be counted.
    core = np.ones(n, dtype=bool)
    if min_pts > 1:
        degree = np.ones(n, dtype=np.int64)
        for i, j in neighbor_pairs():
            degree += np.bincount(i, minlength=n)
            degree += np.bincount(j, minlength=n)
        core = degree >= min_pts

    # A border point has fewer than min_pts neighbors, so at most
    # n * (min_pts - 1) (border, core) pairs are kept.
    root = np.arange(n)
    border, reached_from = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for i, j in neighbor_pairs():
        both = core[i] & core[j]
        _join(root, i[both], j[both])
        to_i = ~core[i] & core[j]
        to_j = core[i] & ~core[j]
        border += [i[to_i], j[to_j]]
        reached_from += [j[to_i], i[to_j]]

    labels = np.full(n, -1, dtype=np.int64)
    labels[core] = np.unique(root[core], return_inverse=True)[1] + 1
    none = np.iinfo(np.int64).max
    lowest = np.full(n, none)
    np.minimum.at(lowest, np.concatenate(border), labels[np.concatenate(reached_from)])
    reached = lowest != none
    labels[reached] = lowest[reached]
    return labels


# Forward half of the 27-cell neighbourhood: every pair of distinct adjacent
# cells is visited once, from the cell with the smaller key.
_FORWARD_OFFSETS = [o for o in itertools.product((-1, 0, 1), repeat=3) if o > (0, 0, 0)]
# Candidate pairs tested at once; bounds the temporaries of a dense cloud.
_PAIR_BATCH = 1 << 17


def _grid_neighbor_pairs(points: np.ndarray, eps2, group: np.ndarray):
    """Hash points into a grid; returns a function that yields, in batches,
    every unordered pair (i, j), i != j, with group[i] == group[j] and
    ((p_i - p_j) ** 2).sum() <= eps2. group holds ranks 0..G-1."""
    n = points.shape[0]
    # A pair that passes the test is less than one cell edge apart on every
    # axis, even after rounding in the test and in points / edge, so it lies
    # in adjacent cells. The relative margin covers rounding near eps, the
    # absolute term coordinates far from the origin, and the floor an eps2
    # that underflowed.
    radius = max(math.sqrt(eps2), 2.0**-480)
    edge = radius * (1 + 2.0**-20) + float(np.abs(points).max()) * 2.0**-50
    cells = np.floor(points / edge).astype(np.int64)
    # Close the gaps between occupied coordinates to at most 2 along each
    # axis: adjacency is unchanged and every coordinate lies in 1..2n-1.
    for k in range(3):
        occupied, inverse = np.unique(cells[:, k], return_inverse=True)
        steps = np.minimum(np.diff(occupied), 2)
        cells[:, k] = np.concatenate(([1], 1 + np.cumsum(steps)))[inverse]
    # Coordinates 0 and radix - 1 stay empty, so a forward offset never
    # carries into the next axis, and the group rank in front keeps every
    # group in its own block of keys: offsets need those empty border
    # cells, which geometry.pack_keys does not leave, so it is not used here.
    radix = [int(r) for r in cells.max(axis=0) + 2]
    if (int(group.max()) + 1) * radix[0] * radix[1] * radix[2] >= 2**63:
        raise CapacityError(f"{n} points span too many grid cells for int64 keys")
    key = ((group * radix[0] + cells[:, 0]) * radix[1] + cells[:, 1]) * radix[2] + cells[:, 2]

    order = np.argsort(key, kind="stable")
    x, y, z = (np.ascontiguousarray(c) for c in points[order].T)
    cell_key, start, count = np.unique(key[order], return_index=True, return_counts=True)
    cell_of = np.repeat(np.arange(cell_key.size), count)  # per sorted position
    end = start + count

    # Each row tests the point at sorted position `at` against the positions
    # lo..hi-1: the later points of its own cell, then each forward neighbor
    # cell in turn.
    at, lo, hi = [np.arange(n)], [np.arange(1, n + 1)], [end[cell_of]]
    for dx, dy, dz in _FORWARD_OFFSETS:
        target = cell_key + (dx * radix[1] + dy) * radix[2] + dz
        found = np.minimum(np.searchsorted(cell_key, target), cell_key.size - 1)
        rows = np.flatnonzero((cell_key[found] == target)[cell_of])
        at.append(rows)
        lo.append(start[found[cell_of[rows]]])
        hi.append(end[found[cell_of[rows]]])
    at, lo, hi = (np.concatenate(v) for v in (at, lo, hi))
    nonempty = hi > lo
    at, lo, width = at[nonempty], lo[nonempty], (hi - lo)[nonempty]

    def pairs():
        for rows in _row_batches(width):
            w = width[rows]
            a = np.repeat(at[rows], w)
            # b runs through lo, lo + 1, ..., hi - 1 of each row in turn
            b = np.arange(a.size) + np.repeat(lo[rows] - np.cumsum(w) + w, w)
            # summed in the order of ((p_i - p_j) ** 2).sum(), so bit for bit equal
            d2 = (x[a] - x[b]) ** 2
            d2 += (y[a] - y[b]) ** 2
            d2 += (z[a] - z[b]) ** 2
            keep = d2 <= eps2
            yield order[a[keep]], order[b[keep]]

    return pairs


def _row_batches(count: np.ndarray):
    """Consecutive row slices holding at most _PAIR_BATCH candidates each
    (or a single row)."""
    total = np.cumsum(count)
    first = 0
    while first < count.size:
        done = total[first - 1] if first else 0
        last = max(int(np.searchsorted(total, done + _PAIR_BATCH, side="right")), first + 1)
        yield slice(first, last)
        first = last


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge, in place, the components that edges (a, b) join.

    root maps every node to the smallest node of its component so far. Each
    edge hooks the larger of its two roots onto the smaller one; pointer
    jumping then flattens the trees again, and edges inside one tree are
    dropped, until no edge joins two trees.
    """
    while a.size:
        ra, rb = root[a], root[b]
        cross = ra != rb
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root[:] = up


def split_non_compact(
    instance: np.ndarray, cloud: SuperimposedCloud, eps: float, min_pts: int
) -> np.ndarray:
    """Split each thing instance into spatially compact DBSCAN clusters.

    Takes and returns int64 instance ids per point in superimposed order.
    Every cluster over the whole window becomes its own instance; noise
    points join the nearest cluster by centroid distance (ties to the lowest
    cluster). An instance whose points are all noise is kept as a single
    instance. New ids run from 1 in (instance, cluster) order, and stuff
    points (id 0) stay 0. One dbscan call, grouped by instance, covers every
    instance of the window.
    """
    inst = np.asarray(instance, dtype=np.int64)
    if inst.shape != (cloud.num_points,):
        raise ContractError(f"{inst.size} instance ids for a window of {cloud.num_points} points")
    # thing points in (instance, point index) order; local is the instance
    # rank, and instance i holds positions bounds[i]:bounds[i + 1]
    order = np.flatnonzero(inst > 0)
    order = order[np.argsort(inst[order], kind="stable")]
    _, bounds, local = np.unique(inst[order], return_index=True, return_inverse=True)
    bounds = np.append(bounds, order.size)
    pts = cloud.points[order]
    cl = dbscan(pts, eps, min_pts, groups=local)

    for i in np.unique(local[cl == -1]):  # noise exists only with min_pts > 1
        c, p = cl[bounds[i] : bounds[i + 1]], pts[bounds[i] : bounds[i + 1]]
        cluster_ids = np.unique(c[c >= 1])
        if not cluster_ids.size:  # everything noise: keep the instance whole
            continue
        centroids = np.stack([p[c == k].mean(axis=0) for k in cluster_ids])
        noise = c == -1
        d = np.linalg.norm(p[noise][:, None, :] - centroids[None, :, :], axis=2)
        c[noise] = cluster_ids[d.argmin(axis=1)]

    # an all-noise instance keeps cluster -1, its single key
    new_inst = np.zeros_like(inst)
    new_inst[order] = np.unique(pack_keys(local, cl)[0], return_inverse=True)[1] + 1
    return new_inst


def stitch(
    prev: SequenceLabels,
    nxt: np.ndarray,
    shared_frames: list[int],
    next_free_id: int,
) -> tuple[dict[int, int], int]:
    """One-to-one match of window-local instances against existing track ids.

    nxt holds the window's instance ids in superimposed order; windows are
    increasing, contiguous runs of frames, so the shared frames' points lead
    it. Their overlap counts feed a maximum-weight assignment; matched locals
    inherit the previous id (only with overlap >= 1 point), everything else
    gets a fresh globally unique id, in ascending local id order, as does
    every local without shared frames. A shared frame that prev has not
    labelled, or shared points past the end of nxt, raise ContractError.
    Returns the local -> global mapping and the updated fresh-id counter.
    """
    for f in shared_frames:
        if f not in prev.instance:
            raise ContractError(f"shared frame {f} is not labelled by the previous windows")
    empty = [np.zeros(0, dtype=np.int64)]  # no shared frames: nothing to match
    a = np.concatenate(empty + [prev.instance[f] for f in shared_frames], dtype=np.int64)
    if a.size > nxt.size:
        raise ContractError(f"shared frames {shared_frames}: {a.size} points past nxt's {nxt.size}")
    b = nxt[: a.size].astype(np.int64)
    both = (a > 0) & (b > 0)
    pg, nl = a[both], b[both]

    locals_ = np.unique(nxt[nxt > 0]).tolist()
    mapping: dict[int, int] = {}
    if pg.size:
        # overlap counts of (previous id, local id) pairs via packed keys
        pair, unpack = pack_keys(pg, nl)
        pair, overlap = np.unique(pair, return_counts=True)
        pair_prev, pair_local = unpack(pair)
        prevs, p_idx = np.unique(pair_prev, return_inverse=True)
        l_idx = np.searchsorted(locals_, pair_local)
        counts = np.zeros((prevs.size, len(locals_)))
        counts[p_idx, l_idx] = overlap
        if prevs.size <= len(locals_):
            pairs = heads.solve_assignment(-counts)
        else:
            pairs = [(i, j) for j, i in heads.solve_assignment(-counts.T)]
        for i, j in pairs:
            if counts[i, j] >= 1:
                mapping[locals_[j]] = int(prevs[i])
    for nl in locals_:
        if nl not in mapping:
            mapping[nl] = next_free_id
            next_free_id += 1
    return mapping, next_free_id


def run_sequence(
    predictor,
    sequence: ScanSequence,
    window: int,
    stride: int,
) -> SequenceLabels:
    """Slide overlapping windows over a sequence and stitch the results.

    predictor(scans, poses, frames) returns the window's (semantic, instance)
    int arrays per point in superimposed order, with window-local instance
    ids. Each window is remapped onto the tracks at once and then cut into
    frames, here only; shared frames take the later window's labels. A
    window whose tracks need an id that does not fit 16 bits raises
    CapacityError before the next window is predicted.
    """
    windows = sequence_windows(sequence, window, stride)
    # only windows that actually form need to overlap
    if len(windows) > 1 and window > 1 and stride >= window:
        raise ParameterError(f"stride {stride} must be < window {window} so windows overlap")

    result = SequenceLabels()
    next_free_id = 1
    for w, (scans, poses) in enumerate(windows):
        frames = [s.frame_index for s in scans]
        semantic, instance = predictor(scans, poses, frames)
        shared = [f for f in frames if f in result.instance]
        mapping, next_free_id = stitch(result, instance, shared, next_free_id)
        if next_free_id > 2**16:  # fail here, not when the labels are written
            raise CapacityError(
                f"window {w} frames {frames}: track id {next_free_id - 1} exceeds "
                f"the 16-bit instance id limit {2**16 - 1}"
            )
        log.debug("window %d frames %s: %d local instances", w, frames, len(mapping))
        lookup = np.zeros(max(mapping, default=0) + 1, dtype=np.int64)
        lookup[list(mapping)] = list(mapping.values())
        tracked = lookup[np.maximum(instance, 0)].astype(instance.dtype, copy=False)
        cut = frame_labels(semantic, tracked, scans)
        result.frames += [f for f in frames if f not in result.instance]
        result.semantic.update(cut.semantic)
        result.instance.update(cut.instance)
    return result

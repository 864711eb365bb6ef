"""Independent brute-force reference implementations used as test oracles.

Everything here is written directly from the definitions with plain loops and
dictionaries, deliberately sharing no code with the package internals it
checks.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

import panoptic4d.autodiff as ad
from panoptic4d.autodiff import Tensor
from panoptic4d.backbone import FeaturePyramid, seed_features
from panoptic4d.config import RunConfig
from panoptic4d.errors import (
    CapacityError,
    ContractError,
    ParameterError,
    ShapeError,
    check_fields,
    domain,
)
from panoptic4d.geometry import (
    LidarScan,
    Pose,
    SuperimposedCloud,
    VoxelGrid,
    WindowContext,
    pack_keys,
    rot_z,
    superimpose,
    trajectory_box,
    unique_rows_first_occurrence,
    voxelize,
)
from panoptic4d.heads import (
    EPS,
    LossBreakdown,
    MaskModuleOutput,
    MatchResult,
    Targets,
    box_l1_loss,
    ce_loss,
    solve_assignment,
)
from panoptic4d.inference import dbscan
from panoptic4d.kitti_io import label_path, read_labels
from panoptic4d.metrics import MetricReport, SequenceLabels, evaluate
from panoptic4d.model import WindowData
from panoptic4d.sequence import (
    IGNORE_LABEL,
    ClassMap,
    ScanSequence,
    load_sequence,
    sequence_windows,
)

log = logging.getLogger(__name__)


def brute_force_assignment(cost: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Minimum-cost injection of rows into columns by trying every permutation."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    assert n <= m <= 9
    best_total, best = np.inf, None
    for perm in itertools.permutations(range(m), n):
        total = 0.0
        for r, c in enumerate(perm):
            total += cost[r, c]
        if total < best_total:
            best_total = total
            best = [(r, c) for r, c in enumerate(perm)]
    return best_total, best


# The package's original column-by-column shortest augmenting path solver,
# kept verbatim as the reference for the vectorized one: same pairs, same
# tie-breaking.
def scalar_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of rows to columns (rows <= cols).

    Shortest augmenting path formulation with row/column potentials; returns
    (row, column) pairs sorted by row.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n > m:
        raise CapacityError(f"assignment needs rows <= cols, got {cost.shape}")
    if n == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ContractError("assignment cost matrix must be finite")
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    match_col = np.zeros(m + 1, dtype=np.int64)  # column -> row (1-based, 0 = free)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = np.full(m + 1, INF)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = INF
            j1 = -1
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    pairs = [(int(match_col[j]) - 1, j - 1) for j in range(1, m + 1) if match_col[j]]
    return sorted(pairs)


def brute_force_max_assignment(weight: np.ndarray) -> float:
    total, _ = brute_force_assignment(-np.asarray(weight, dtype=np.float64))
    return -total


def greedy_fps(points: np.ndarray, k: int, seed_index: int) -> list[int]:
    """O(N^2 k) farthest point sampling with explicit distance scans."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    chosen = [seed_index]
    while len(chosen) < k:
        best_idx, best_dist = None, -1.0
        for i in range(n):
            d = min(float(np.linalg.norm(points[i] - points[j])) for j in chosen)
            if d > best_dist:  # strict: ties keep the lowest index
                best_dist = d
                best_idx = i
        chosen.append(best_idx)
    return chosen


def floor_voxel_oracle(points: np.ndarray, voxel_size: float) -> list[tuple[int, int, int]]:
    """Per-point voxel coordinates by scalar floor division."""
    import math

    out = []
    for p in np.asarray(points, dtype=np.float64):
        out.append(tuple(int(math.floor(c / voxel_size)) for c in p))
    return out


def reference_dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN from the definition: core graph components in min-core-index
    order, borders to the earliest component with a core neighbor."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    neigh = [
        {j for j in range(n) if np.linalg.norm(points[i] - points[j]) <= eps}
        for i in range(n)
    ]
    cores = [i for i in range(n) if len(neigh[i]) >= min_pts]
    core_set = set(cores)

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in cores:
        for j in neigh[i]:
            if j in core_set:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj

    comp_min: dict[int, int] = {}
    for i in cores:
        r = find(i)
        comp_min[r] = min(comp_min.get(r, i), i)
    order = sorted(comp_min.values())
    cluster_of_root = {r: order.index(m) + 1 for r, m in comp_min.items()}

    labels = np.full(n, -1, dtype=np.int64)
    for i in cores:
        labels[i] = cluster_of_root[find(i)]
    for i in range(n):
        if i in core_set:
            continue
        candidates = [cluster_of_root[find(j)] for j in neigh[i] if j in core_set]
        if candidates:
            labels[i] = min(candidates)
    return labels


# The package's original O(n^2) DBSCAN, kept verbatim as the reference the
# grid-hashed implementation must reproduce label for label.
def quadratic_dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Textbook DBSCAN: returns a cluster id per point, -1 for noise.

    A point is core when it has at least min_pts neighbors within eps,
    itself included. Scanning follows input order, so border points go to the
    first cluster that reaches them.
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    if min_pts < 1:
        raise ParameterError("min_pts must be >= 1")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    labels = np.zeros(n, dtype=np.int64)  # 0 = unvisited
    if n == 0:
        return labels

    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    neighbor = d2 <= eps * eps
    neighbor_lists = [np.flatnonzero(neighbor[i]) for i in range(n)]
    is_core = np.array([len(nb) >= min_pts for nb in neighbor_lists])

    cluster = 0
    for i in range(n):
        if labels[i] != 0:
            continue
        if not is_core[i]:
            labels[i] = -1
            continue
        cluster += 1
        labels[i] = cluster
        queue = list(neighbor_lists[i])
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] == -1:  # border, previously flagged as noise
                labels[j] = cluster
            if labels[j] != 0:
                continue
            labels[j] = cluster
            if is_core[j]:
                queue.extend(neighbor_lists[j])
    return labels


def adam_reference(theta, grads, lr, beta1, beta2, eps):
    """Plain Adam (no weight decay), iterating a list of gradient arrays."""
    theta = np.array(theta, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    return theta


# ---------------------------------------------------------------------------
# metric oracles over simple label dicts
#
# A "scene" here is: frames -> (gt_sem, gt_inst, pred_sem, pred_inst) arrays.


def oracle_confusion_iou(scene, class_ids, ignore=255):
    """Per-class IoU by direct counting; returns dict class -> IoU for classes
    present in gt or pred."""
    tp, fp, fn = {}, {}, {}
    for f in scene:
        gt_sem, _, pred_sem, _ = scene[f]
        for g, p in zip(gt_sem, pred_sem):
            g, p = int(g), int(p)
            if g == ignore:
                continue
            if g == p:
                tp[g] = tp.get(g, 0) + 1
            else:
                fn[g] = fn.get(g, 0) + 1
                fp[p] = fp.get(p, 0) + 1
    ious = {}
    for c in class_ids:
        denom = tp.get(c, 0) + fp.get(c, 0) + fn.get(c, 0)
        if denom > 0:
            ious[c] = tp.get(c, 0) / denom
    return ious


def oracle_s_cls(scene, class_ids, ignore=255):
    ious = oracle_confusion_iou(scene, class_ids, ignore)
    return sum(ious.values()) / len(ious) if ious else 0.0


def oracle_s_assoc(scene, thing_ids, ignore=255):
    """Association score straight from the definition, with sets of
    (frame, point index) tuples as tubes."""
    thing_ids = set(thing_ids)
    gt_tubes: dict[int, set] = {}
    pred_tubes: dict[int, set] = {}
    for f in scene:
        gt_sem, gt_inst, pred_sem, pred_inst = scene[f]
        for i in range(len(gt_sem)):
            if int(gt_sem[i]) == ignore:
                continue
            if int(gt_sem[i]) in thing_ids and int(gt_inst[i]) > 0:
                gt_tubes.setdefault(int(gt_inst[i]), set()).add((f, i))
            if int(pred_inst[i]) > 0:
                pred_tubes.setdefault(int(pred_inst[i]), set()).add((f, i))
    if not gt_tubes:
        return 1.0
    total = 0.0
    for t_pts in gt_tubes.values():
        inner = 0.0
        for p_pts in pred_tubes.values():
            ov = len(t_pts & p_pts)
            if ov > 0:
                iou = ov / len(t_pts | p_pts)
                inner += ov * iou
        total += inner / len(t_pts)
    return total / len(gt_tubes)


def oracle_pq_scan(gt_sem, gt_inst, pred_sem, pred_inst, thing_ids, stuff_ids, ignore=255):
    """Single-scan PQ by enumerating every segment pair; returns
    class -> (iou_sum, tp, fp, fn)."""
    thing_ids, stuff_ids = set(thing_ids), set(stuff_ids)

    def segments(sem, inst):
        segs = {}
        for i in range(len(sem)):
            if int(gt_sem[i]) == ignore:
                continue
            c = int(sem[i])
            if c in thing_ids:
                if int(inst[i]) > 0:
                    segs.setdefault((c, int(inst[i])), set()).add(i)
            elif c in stuff_ids:
                segs.setdefault((c, 0), set()).add(i)
        return segs

    gt_segs = segments(gt_sem, gt_inst)
    pred_segs = segments(pred_sem, pred_inst)
    stats = {}
    for c in sorted(thing_ids | stuff_ids):
        g_keys = [k for k in gt_segs if k[0] == c]
        p_keys = [k for k in pred_segs if k[0] == c]
        if not g_keys and not p_keys:
            continue
        iou_sum, tp = 0.0, 0
        matched_g, matched_p = set(), set()
        for gk in g_keys:
            for pk in p_keys:
                inter = len(gt_segs[gk] & pred_segs[pk])
                union = len(gt_segs[gk] | pred_segs[pk])
                if union and inter / union > 0.5:
                    iou_sum += inter / union
                    tp += 1
                    matched_g.add(gk)
                    matched_p.add(pk)
        stats[c] = (iou_sum, tp, len(p_keys) - len(matched_p), len(g_keys) - len(matched_g))
    return stats


def oracle_pq_scene(scene, thing_ids, stuff_ids, ignore=255):
    """Scene PQ/SQ/RQ: per-scan class means, averaged over scans."""
    pqs, sqs, rqs = [], [], []
    for f in scene:
        gt_sem, gt_inst, pred_sem, pred_inst = scene[f]
        stats = oracle_pq_scan(gt_sem, gt_inst, pred_sem, pred_inst, thing_ids, stuff_ids, ignore)
        cpq, csq, crq = [], [], []
        for iou_sum, tp, fp, fn in stats.values():
            sq = iou_sum / tp if tp else 0.0
            denom = tp + 0.5 * fp + 0.5 * fn
            rq = tp / denom if denom else 0.0
            cpq.append(sq * rq)
            csq.append(sq)
            crq.append(rq)
        pqs.append(np.mean(cpq) if cpq else 0.0)
        sqs.append(np.mean(csq) if csq else 0.0)
        rqs.append(np.mean(crq) if crq else 0.0)
    return float(np.mean(pqs)), float(np.mean(sqs)), float(np.mean(rqs))


def eig_pca_oracle(features: np.ndarray, k: int = 3):
    """Principal directions via a dense symmetric eigendecomposition."""
    x = features - features.mean(axis=0, keepdims=True)
    cov = x.T @ x / max(1, x.shape[0])
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    return v[:, order[:k]].T, w[order[:k]]


def random_scene(rng: np.random.Generator, thing_ids, stuff_ids, max_points=500,
                 max_instances=8, max_frames=5, ignore=255, with_ignore=True):
    """Random label scene for metric oracle comparisons."""
    num_frames = int(rng.integers(1, max_frames + 1))
    all_ids = list(thing_ids) + list(stuff_ids)
    scene = {}
    for f in range(num_frames):
        n = int(rng.integers(5, max_points // num_frames + 6))
        gt_sem = rng.choice(all_ids, size=n)
        pred_sem = np.where(
            rng.random(n) < 0.7, gt_sem, rng.choice(all_ids, size=n)
        )
        gt_inst = np.zeros(n, dtype=np.int64)
        pred_inst = np.zeros(n, dtype=np.int64)
        for i in range(n):
            if int(gt_sem[i]) in thing_ids:
                gt_inst[i] = rng.integers(1, max_instances + 1)
            if int(pred_sem[i]) in thing_ids:
                pred_inst[i] = rng.integers(1, max_instances + 1)
        if with_ignore and n > 3:
            drop = rng.random(n) < 0.05
            gt_sem = np.where(drop, ignore, gt_sem)
        scene[f] = (gt_sem, gt_inst, pred_sem, pred_inst)
    return scene


# ---------------------------------------------------------------------------
# the package's original per-point metric loops, kept verbatim as the
# reference the vectorized `panoptic4d.metrics` must reproduce bit for bit


def _valid(pred_sem: np.ndarray, gt_sem: np.ndarray) -> np.ndarray:
    return gt_sem != IGNORE_LABEL


# metrics' searchsorted id -> class index lookup, which ClassMap.index replaced
def _class_index(class_ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in class_ids (the last one if repeated), -1 where absent."""
    if class_ids.size == 0:
        return np.full(values.shape, -1)
    order = np.argsort(class_ids, kind="stable")
    ordered = class_ids[order]
    pos = np.searchsorted(ordered, values, side="right") - 1
    # pos = -1 reads the largest id, which a value below the smallest cannot equal
    return np.where(ordered[pos] == values, order[pos], -1)


def loop_confusion_matrix(
    pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap
) -> np.ndarray:
    """(C, C) counts of (gt class, pred class), ignore-labeled points excluded."""
    index = {cid: i for i, cid in enumerate(class_map.all_ids)}
    c = len(index)
    mat = np.zeros((c, c), dtype=np.int64)
    for f in gt.frames:
        g = gt.semantic[f]
        p = pred.semantic[f]
        keep = _valid(p, g)
        for gi, pi in zip(g[keep], p[keep]):
            gi, pi = int(gi), int(pi)
            if gi in index and pi in index:
                mat[index[gi], index[pi]] += 1
    return mat


def _tubes(labels: SequenceLabels, select: dict[int, np.ndarray]) -> dict[int, int]:
    """Tube sizes: instance id -> point count over selected points per frame."""
    sizes: dict[int, int] = {}
    for f in labels.frames:
        inst = labels.instance[f][select[f]]
        for i, c in zip(*np.unique(inst[inst > 0], return_counts=True)):
            sizes[int(i)] = sizes.get(int(i), 0) + int(c)
    return sizes


def check_both_sides(pred: SequenceLabels, gt: SequenceLabels) -> None:
    """The size checks of metrics.evaluate: the ground truth's frames and
    point counts, checked on the ground truth, then on the prediction."""
    frames, sizes = gt.frame_sizes()
    gt.check_sizes(frames, sizes)
    pred.check_sizes(frames, sizes)


def loop_s_assoc(pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap) -> float:
    """Class-agnostic association quality over whole-sequence tubes.

    For every ground-truth thing tube t:  (1/|t|) * sum over predicted tubes p
    with |p n t| > 0 of |p n t| * IoU(p, t); the final score averages over
    tubes uniformly. Predicted tube sizes count all points carrying that
    predicted instance id. 1.0 (with a warning) when there are no gt tubes.
    """
    check_both_sides(pred, gt)
    thing_set = set(class_map.thing_ids)
    gt_select = {}
    pred_select = {}
    for f in gt.frames:
        g_sem = gt.semantic[f]
        valid = g_sem != IGNORE_LABEL
        gt_select[f] = valid & np.isin(g_sem, list(thing_set)) & (gt.instance[f] > 0)
        pred_select[f] = valid & (pred.instance[f] > 0)
    gt_sizes = _tubes(gt, gt_select)
    pred_sizes = _tubes(pred, pred_select)

    overlap: dict[tuple[int, int], int] = {}
    for f in gt.frames:
        both = gt_select[f] & pred_select[f]
        g = gt.instance[f][both]
        p = pred.instance[f][both]
        for gi, pi in zip(g, p):
            key = (int(gi), int(pi))
            overlap[key] = overlap.get(key, 0) + 1

    if not gt_sizes:
        warnings.warn("no ground-truth thing tubes; association score defined as 1.0")
        return 1.0
    total = 0.0
    for t, t_size in gt_sizes.items():
        inner = 0.0
        for (gi, pi), ov in overlap.items():
            if gi != t:
                continue
            union = t_size + pred_sizes[pi] - ov
            inner += ov * (ov / union)
        total += inner / t_size
    return total / len(gt_sizes)


def _scan_segments(
    sem: np.ndarray, inst: np.ndarray, class_map: ClassMap, valid: np.ndarray
) -> dict[tuple[int, int], np.ndarray]:
    """Segments of one scan: thing instances plus one segment per stuff class.

    Keys are (class id, instance id or 0); values are point index arrays.
    """
    segments: dict[tuple[int, int], np.ndarray] = {}
    for cid in class_map.all_ids:
        sel = (sem == cid) & valid
        if not sel.any():
            continue
        if cid in class_map.thing_ids:
            sub = inst[sel]
            idx = np.flatnonzero(sel)
            for i in np.unique(sub):
                if i <= 0:
                    continue
                segments[(cid, int(i))] = idx[sub == i]
        else:
            segments[(cid, 0)] = np.flatnonzero(sel)
    return segments


def loop_pq_single_scan(
    pred_sem: np.ndarray,
    pred_inst: np.ndarray,
    gt_sem: np.ndarray,
    gt_inst: np.ndarray,
    class_map: ClassMap,
) -> dict[int, tuple[float, int, int, int]]:
    """Per-class panoptic statistics of one scan.

    Returns class id -> (sum of matched IoU, TP, FP, FN). Matches require the
    same class and IoU strictly greater than 0.5, which makes them unique.
    """
    valid = gt_sem != IGNORE_LABEL
    gt_segments = _scan_segments(gt_sem, gt_inst, class_map, valid)
    pred_segments = _scan_segments(pred_sem, pred_inst, class_map, valid)
    stats: dict[int, tuple[float, int, int, int]] = {}
    for cid in class_map.all_ids:
        g_keys = [k for k in gt_segments if k[0] == cid]
        p_keys = [k for k in pred_segments if k[0] == cid]
        iou_sum, tp = 0.0, 0
        matched_p = set()
        for gk in g_keys:
            g_set = gt_segments[gk]
            for pk in p_keys:
                p_set = pred_segments[pk]
                inter = np.intersect1d(g_set, p_set, assume_unique=True).size
                if inter == 0:
                    continue
                iou = inter / (g_set.size + p_set.size - inter)
                if iou > 0.5:
                    iou_sum += iou
                    tp += 1
                    matched_p.add(pk)
                    break  # > 0.5 matches are unique per gt segment
        fp = len(p_keys) - len(matched_p)
        fn = len(g_keys) - tp
        if g_keys or p_keys:
            stats[cid] = (iou_sum, tp, fp, fn)
    return stats


def _pq_from_stats(stats: dict[int, tuple[float, int, int, int]]) -> tuple[float, float, float]:
    """Class-averaged (PQ, SQ, RQ) over the classes present in the stats."""
    pqs, sqs, rqs = [], [], []
    for iou_sum, tp, fp, fn in stats.values():
        sq = iou_sum / tp if tp else 0.0
        denom = tp + 0.5 * fp + 0.5 * fn
        rq = tp / denom if denom else 0.0
        pqs.append(sq * rq)
        sqs.append(sq)
        rqs.append(rq)
    if not pqs:
        return 0.0, 0.0, 0.0
    return float(np.mean(pqs)), float(np.mean(sqs)), float(np.mean(rqs))


def loop_pq_sequence(
    pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap
) -> tuple[float, float, float, dict[int, tuple[float, float, float]]]:
    """Scan-wise panoptic quality, averaged over scans.

    Per-class values aggregate the per-scan statistics over the whole
    sequence; the scalar PQ/SQ/RQ average the per-scan class means.
    """
    check_both_sides(pred, gt)
    per_scan = []
    accum: dict[int, list[float]] = {}
    for f in gt.frames:
        stats = loop_pq_single_scan(
            pred.semantic[f], pred.instance[f], gt.semantic[f], gt.instance[f], class_map
        )
        per_scan.append(_pq_from_stats(stats))
        for cid, (iou_sum, tp, fp, fn) in stats.items():
            acc = accum.setdefault(cid, [0.0, 0, 0, 0])
            acc[0] += iou_sum
            acc[1] += tp
            acc[2] += fp
            acc[3] += fn
    per_class: dict[int, tuple[float, float, float]] = {}
    for cid, (iou_sum, tp, fp, fn) in accum.items():
        sq = iou_sum / tp if tp else 0.0
        denom = tp + 0.5 * fp + 0.5 * fn
        rq = tp / denom if denom else 0.0
        per_class[cid] = (sq * rq, sq, rq)
    if per_scan:
        pq = float(np.mean([x[0] for x in per_scan]))
        sq = float(np.mean([x[1] for x in per_scan]))
        rq = float(np.mean([x[2] for x in per_scan]))
    else:
        pq = sq = rq = 0.0
    return pq, sq, rq, per_class


def scan_loading_eval(pred_dir: str, gt_dir: str, class_map: ClassMap) -> MetricReport:
    """The `eval` command's report as it was computed before labels were
    streamed: the whole ground-truth sequence (points, poses, labels) is
    loaded to learn each frame's point count, every prediction file is read
    up front, and the in-memory labels are scored."""
    gt_seq = load_sequence(gt_dir, class_map)
    try:
        gt = SequenceLabels.from_scans(gt_seq)
    except ValueError as exc:
        raise type(exc)(f"{gt_dir}: {exc}") from exc
    pred = SequenceLabels()
    for scan in gt_seq.scans:
        f = scan.frame_index
        pred.frames.append(f)
        pred.semantic[f], pred.instance[f] = read_labels(
            label_path(pred_dir, f), expected_count=scan.num_points
        )
    return evaluate(pred, gt, class_map)


def finite_difference_check(
    f: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    h: float = 1e-6,
    coords_per_tensor: int | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    f is a scalar-valued closure over `tensors`; the relative error of
    coordinate i is |g_analytic,i - g_fd,i| / max(1, |g_fd,i|). When
    coords_per_tensor is given, only that many evenly spaced coordinates of
    each tensor are probed.
    """
    if h <= 0:
        raise ParameterError("finite difference step h must be positive")
    tensors = list(tensors)
    for t in tensors:
        if not t.requires_grad:
            raise ContractError("finite_difference_check tensors must require grad")
        t.grad[...] = 0.0
    loss = f()
    ad.backward(loss)
    analytic = [t.grad.copy() for t in tensors]

    worst = 0.0
    with ad.no_grad():
        for t, ga in zip(tensors, analytic):
            flat = t.values.reshape(-1)
            idx = range(flat.size)
            if coords_per_tensor is not None and flat.size > coords_per_tensor:
                idx = np.linspace(0, flat.size - 1, coords_per_tensor).astype(int)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                up = float(f().values)
                flat[i] = orig - h
                down = float(f().values)
                flat[i] = orig
                gfd = (up - down) / (2.0 * h)
                err = abs(ga.reshape(-1)[i] - gfd) / max(1.0, abs(gfd))
                worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# the package's original small-op training paths, kept verbatim as the
# references for the fused attention, the batched loss and the flat AdamW.
# They are built from the package's elementary tape ops (and its per-row
# ce/box losses), so gradients can be compared as well as values.


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = ad.as_tensor(a)
    if a.values.ndim != 2 or not (0 <= start <= stop <= a.shape[1]):
        raise ShapeError(f"slice_cols: bad range [{start}, {stop}) for shape {a.shape}")
    shape = a.shape

    def vjp(g):
        acc = np.zeros(shape)
        acc[:, start:stop] = g
        return (acc,)

    return ad._make(a.values[:, start:stop].copy(), (a,), vjp)


def loop_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int, mask=None) -> Tensor:
    """Multi-head attention over projected q, k, v one head at a time; a mask
    is added to the scores as 0 (allowed) or -inf (masked), as Mask2Former does."""
    head_dim = q.shape[1] // num_heads
    scale = 1.0 / np.sqrt(head_dim)
    heads = []
    for h in range(num_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qh = slice_cols(q, lo, hi)
        kh = slice_cols(k, lo, hi)
        vh = slice_cols(v, lo, hi)
        scores = ad.mul(ad.matmul(qh, ad.transpose(kh)), scale)
        if mask is not None:
            scores = ad.add(scores, np.where(mask, 0.0, -np.inf))
        attn = ad.softmax(scores, axis=-1)
        heads.append(ad.matmul(attn, vh))
    return ad.concat(heads, axis=1)


def _single_output_loss(
    output: MaskModuleOutput,
    targets: Targets,
    match: MatchResult,
    cfg: RunConfig,
) -> tuple[Tensor, dict[str, float]]:
    norm = float(max(1, len(targets)))
    num_classes = output.class_logits.shape[1] - 1
    terms: list[Tensor] = []
    parts = {"dice": 0.0, "bce": 0.0, "ce": 0.0, "box": 0.0, "no_object": 0.0}

    if match.pairs:
        q_idx = np.array([q for q, _ in match.pairs], dtype=np.int64)
        t_idx = [t for _, t in match.pairs]
        masks = np.stack([targets.masks[t].astype(np.float64) for t in t_idx])
        classes = np.array([targets.class_index[t] for t in t_idx])

        sig = ad.sigmoid(ad.gather_rows(output.heatmap_logits, q_idx))  # (P, K0)
        k0 = sig.shape[1]
        inter = ad.tsum(ad.mul(sig, masks), axis=1)
        denom = ad.tsum(sig, axis=1) + masks.sum(axis=1) + EPS
        dice_vec = 1.0 - ad.div(ad.mul(inter, 2.0), denom)
        bce_elems = ad.mul(ad.log(sig + EPS), masks) + ad.mul(
            ad.log((1.0 - sig) + EPS), 1.0 - masks
        )
        bce_vec = ad.mul(ad.neg(ad.tsum(bce_elems, axis=1)), 1.0 / k0)
        ce_vec = ce_loss(ad.gather_rows(output.class_logits, q_idx), classes)

        dice_term = ad.mul(ad.tsum(dice_vec), cfg.lambda_dice / norm)
        bce_term = ad.mul(ad.tsum(bce_vec), cfg.lambda_bce / norm)
        ce_term = ad.mul(ad.tsum(ce_vec), cfg.lambda_ce / norm)
        terms += [dice_term, bce_term, ce_term]
        parts["dice"] = dice_term.item()
        parts["bce"] = bce_term.item()
        parts["ce"] = ce_term.item()

        thing_pairs = [(q, t) for q, t in match.pairs if targets.instance_id[t] > 0]
        if thing_pairs and cfg.use_box_loss and cfg.lambda_box > 0:
            bq = np.array([q for q, _ in thing_pairs], dtype=np.int64)
            bt = np.stack([targets.boxes[t] for _, t in thing_pairs])
            box_vec = box_l1_loss(ad.gather_rows(output.boxes, bq), bt)
            box_term = ad.mul(ad.tsum(box_vec), cfg.lambda_box / norm)
            terms.append(box_term)
            parts["box"] = box_term.item()

    free = match.unmatched_queries()
    if free.size:
        no_obj = np.full(free.size, num_classes, dtype=np.int64)
        noobj_vec = ce_loss(ad.gather_rows(output.class_logits, free), no_obj)
        noobj_term = ad.mul(
            ad.tsum(noobj_vec), cfg.no_object_weight * cfg.lambda_ce / norm
        )
        terms.append(noobj_term)
        parts["no_object"] = noobj_term.item()

    if not terms:
        return Tensor(0.0), parts
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total, parts


def loop_total_loss(
    outputs: list[MaskModuleOutput],
    targets: Targets,
    match: MatchResult,
    cfg: RunConfig,
) -> tuple[Tensor, LossBreakdown]:
    """Deep-supervised loss: the matched assignment is applied to every
    intermediate output and the per-output losses are summed."""
    if not outputs:
        raise ParameterError("total_loss needs at least one output")
    total: Tensor | None = None
    last_parts: dict[str, float] = {}
    for output in outputs:
        loss, parts = _single_output_loss(output, targets, match, cfg)
        total = loss if total is None else ad.add(total, loss)
        last_parts = parts
    breakdown = LossBreakdown(total=total.item(), **last_parts)
    return total, breakdown


def loop_adamw_step(
    params: dict[str, Tensor],
    m_state: dict[str, np.ndarray],
    v_state: dict[str, np.ndarray],
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> None:
    """AdamW step number t (1-based) tensor by tensor; the moment arrays in
    m_state / v_state are updated in place."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = p.grad
        if g.shape != p.values.shape:
            raise ContractError(f"gradient shape mismatch for {name!r}")
        if weight_decay:
            p.values *= 1.0 - lr * weight_decay
        m = m_state[name]
        v = v_state[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def whole_array_adamw_step(
    values: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> None:
    """AdamW step number t (1-based) over whole flat arrays in place, one
    pass per operation with two full-size scratch arrays."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    a, b = np.empty(values.size), np.empty(values.size)
    if weight_decay:
        values *= 1.0 - lr * weight_decay
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=a)
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=a)
    v += np.multiply(a, g, out=a)
    np.sqrt(np.divide(v, bc2, out=a), out=a)
    a += eps
    np.multiply(np.divide(m, bc1, out=b), lr, out=b)
    values -= np.divide(b, a, out=b)


@dataclass(frozen=True)
class OneCycleSchedule:
    """Cosine warmup to max_lr, then cosine anneal to a much lower floor."""

    max_lr: float = field(metadata=domain(0, above=True))
    steps: int = field(metadata=domain(1))
    warmup_frac: float = field(default=0.3, metadata=domain(0, 1))
    div_start: float = field(default=25.0, metadata=domain(1))
    div_end: float = field(default=1e4, metadata=domain(1))

    def __post_init__(self):
        check_fields(self)

    @property
    def warmup_steps(self) -> int:
        return int(round(self.warmup_frac * (self.steps - 1)))

    def lr(self, step: int) -> float:
        if not 0 <= step < self.steps:
            raise ParameterError(
                f"step {step} outside schedule of {self.steps} steps"
            )
        warm = self.warmup_steps
        if step <= warm:
            lo, hi = self.max_lr / self.div_start, self.max_lr
            t = 1.0 if warm == 0 else step / warm
            # cosine ramp lo -> hi
            return hi + (lo - hi) * (1.0 + np.cos(np.pi * t)) / 2.0
        lo, hi = self.max_lr / self.div_end, self.max_lr
        span = self.steps - 1 - warm
        t = 1.0 if span == 0 else (step - warm) / span
        return lo + (hi - lo) * (1.0 + np.cos(np.pi * t)) / 2.0


# ---------------------------------------------------------------------------
# the package's original kernel formulas, kept as the bit-equality references
# for attention's own masked softmax, the once-centred layer norm and the
# in-place bias of linear.


def where_masked_softmax(z: np.ndarray, mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax where entries the (broadcast) mask marks False get exactly 0:
    masked scores become -inf before exp and 0 after it."""
    z = np.where(mask, z, -np.inf)
    e = np.exp(z - np.max(z, axis=axis, keepdims=True))
    e = np.where(mask, e, 0.0)
    return e / e.sum(axis=axis, keepdims=True)


def where_masked_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, num_heads: int, mask: np.ndarray
) -> np.ndarray:
    """The values of `ad.attention` with the masked softmax above."""
    n, d = q.shape
    dh = d // num_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[0], num_heads, dh).transpose(1, 0, 2)

    qh, kh, vh = heads(q), heads(k), heads(v)
    s = where_masked_softmax((qh @ kh.transpose(0, 2, 1)) * scale, mask)
    return (s @ vh).transpose(1, 0, 2).reshape(n, d)


def mean_var_layer_norm(
    a: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Layer norm over the last axis with np.mean and np.var."""
    mu = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (a - mu) * inv * gain + bias


# ---------------------------------------------------------------------------
# the package's original window bookkeeping, kept verbatim as the references
# for the lexsort row grouping, the counted target vote, the bincount
# scatters and the index-assignment foreground lift.


def loop_unique_rows(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows in order of first occurrence, plus the inverse mapping."""
    uniq, first_pos, inverse = np.unique(
        coords, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    # np.unique sorts lexicographically; remap to first-occurrence order.
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], rank[inverse]


def loop_first_occurrence_groups(keys: np.ndarray) -> tuple[list[int], list[int]]:
    """The index of each distinct key's first entry, in order of first
    occurrence, and each entry's group, from a dict filled key by key."""
    group_of: dict[int, int] = {}
    first, group = [], []
    for i, key in enumerate(keys.tolist()):
        if key not in group_of:
            group_of[key] = len(first)
            first.append(i)
        group.append(group_of[key])
    return first, group


def loop_pyramid_geometry(cloud: SuperimposedCloud, voxel_size: float, depth: int):
    """The mean pooling of voxelize and of Backbone.extract as each did it
    alone: per pyramid level the coordinates, the parent map (None at the
    coarsest), the mean positions and the mean frames."""
    coords = np.floor(cloud.points / voxel_size).astype(np.int64)
    voxel_coords, point_to_voxel = unique_rows_first_occurrence(coords)
    k = voxel_coords.shape[0]
    counts = np.bincount(point_to_voxel, minlength=k).astype(np.float64)
    centroids = np.zeros((k, 3))
    for axis in range(3):
        centroids[:, axis] = np.bincount(
            point_to_voxel, weights=cloud.points[:, axis], minlength=k
        )
    centroids /= counts[:, None]
    frame = np.bincount(
        point_to_voxel, weights=cloud.frame_of.astype(np.float64), minlength=k
    ) / counts

    coords = [voxel_coords]
    positions = [centroids]
    frames = [frame]
    parent_maps: list[np.ndarray] = []
    for r in range(1, depth):
        parents, inverse = unique_rows_first_occurrence(coords[r - 1] // 2)
        parent_maps.append(inverse)
        k = parents.shape[0]
        counts = np.bincount(inverse, minlength=k).astype(np.float64)
        pos = np.zeros((k, 3))
        for axis in range(3):
            pos[:, axis] = np.bincount(inverse, weights=positions[r - 1][:, axis], minlength=k)
        coords.append(parents)
        positions.append(pos / counts[:, None])
        frames.append(np.bincount(inverse, weights=frames[r - 1], minlength=k) / counts)
    return coords, parent_maps + [None], positions, frames


def voxel_to_points(grid: VoxelGrid) -> list[np.ndarray]:
    """Ascending member point indices of every voxel."""
    counts = np.bincount(grid.point_to_voxel, minlength=grid.num_voxels)
    member_order = np.argsort(grid.point_to_voxel, kind="stable")
    boundaries = np.cumsum(counts.astype(np.int64))[:-1]
    return [np.sort(g) for g in np.split(member_order, boundaries)]


def loop_build_targets(
    cloud: SuperimposedCloud,
    grid: VoxelGrid,
    point_semantic: np.ndarray,
    point_instance: np.ndarray,
    class_map: ClassMap,
    ctx: WindowContext,
) -> Targets:
    """Voxel-level segments from per-point labels.

    Each voxel is assigned to the most frequent (class, instance) pair among
    its member points (ignored points excluded, ties to the pair seen first).
    Thing instances additionally get a trajectory box computed from their raw
    points, normalized by the window context's extent.
    """
    point_semantic = np.asarray(point_semantic).reshape(-1)
    point_instance = np.asarray(point_instance).reshape(-1)
    if point_semantic.shape[0] != cloud.num_points:
        raise ShapeError("per-point labels do not match the cloud size")
    class_index = {cid: i for i, cid in enumerate(class_map.all_ids)}
    members_of = voxel_to_points(grid)

    k = grid.num_voxels
    voxel_key: list[tuple[int, int] | None] = [None] * k
    for v in range(k):
        members = members_of[v]
        counts: dict[tuple[int, int], int] = {}
        for p in members:
            sem = int(point_semantic[p])
            if sem == IGNORE_LABEL or sem not in class_index:
                continue
            inst = int(point_instance[p]) if sem in class_map.thing_ids else 0
            key = (sem, inst)
            counts[key] = counts.get(key, 0) + 1
        if counts:
            best = max(counts.values())
            voxel_key[v] = next(k_ for k_ in counts if counts[k_] == best)

    groups: dict[tuple[int, int], list[int]] = {}
    for v, key in enumerate(voxel_key):
        if key is not None:
            groups.setdefault(key, []).append(v)

    segments = []
    for (sem, inst), voxels in groups.items():
        mask = np.zeros(k, dtype=bool)
        mask[voxels] = True
        is_thing = sem in class_map.thing_ids and inst > 0
        box = None
        if is_thing:
            pts = cloud.points[(point_instance == inst) & (point_semantic == sem)]
            if pts.shape[0] == 0:  # only possible via voxel-majority flips
                pts = grid.voxel_centroids[mask]
            box = trajectory_box(pts, ctx)
        segments.append((mask, class_index[sem], inst, box))
    return target_table(segments, k)


def target_table(segments, num_voxels: int) -> Targets:
    """The target table of (voxel mask, class index, instance id, box) rows,
    box None for stuff."""
    return Targets(
        masks=np.array([m for m, _, _, _ in segments], dtype=bool).reshape(-1, num_voxels),
        class_index=np.array([c for _, c, _, _ in segments], dtype=np.int64),
        instance_id=np.array([i for _, _, i, _ in segments], dtype=np.int64),
        boxes=np.array(
            [np.zeros(6) if b is None else b for _, _, _, b in segments], dtype=np.float64
        ).reshape(-1, 6),
    )


def loop_gather_rows(a, index: np.ndarray) -> Tensor:
    """out[i] = a[index[i]]; duplicate indices accumulate in the backward pass."""
    a = ad.as_tensor(a)
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    if index.size and (index.min() < 0 or index.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    shape = a.shape

    def vjp(g):
        acc = np.zeros(shape)
        np.add.at(acc, index, g)
        return (acc,)

    return ad._make(a.values[index], (a,), vjp)


def loop_segment_mean(a, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows of a per segment id. Every segment must be non-empty."""
    a = ad.as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"segment_mean: expected 2-D, got {a.shape}")
    segment_ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
    if segment_ids.shape[0] != a.shape[0]:
        raise ShapeError(
            f"segment_mean: {segment_ids.shape[0]} segment ids for {a.shape[0]} rows"
        )
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    if np.any(counts == 0):
        raise ParameterError("segment_mean: every segment must receive at least one row")
    sums = np.zeros((num_segments, a.shape[1]))
    np.add.at(sums, segment_ids, a.values)
    values = sums / counts[:, None]

    def vjp(g):
        return (g[segment_ids] / counts[segment_ids, None],)

    return ad._make(values, (a,), vjp)


def loop_propagate_foreground(
    fg_finest: np.ndarray, pyramid: FeaturePyramid, level: int
) -> np.ndarray:
    """Lift a (N_q, K_0) boolean foreground map to level r: a coarse voxel is
    foreground for a query if any of its finest descendants is."""
    fg = fg_finest.astype(np.uint8)
    for r in range(level):
        parent = pyramid.levels[r].parent_map
        k_next = pyramid.levels[r + 1].coords.shape[0]
        acc = np.zeros((k_next, fg.shape[0]), dtype=np.uint8)
        np.maximum.at(acc, parent, fg.T)
        fg = acc.T
    return fg.astype(bool)


def _slot_index(sizes: list[int]) -> list[tuple[int, int]]:
    """(window slot, index in its scan) of every superimposed point, given
    the scan sizes in slot order."""
    return [(slot, i) for slot, n in enumerate(sizes) for i in range(n)]


def loop_frame_labels(
    sem: np.ndarray, inst: np.ndarray, sizes: list[int], frames: list[int]
) -> SequenceLabels:
    """Labels in superimposed point order moved, point by point, into one
    int64 array per frame."""
    semantic = {f: np.empty(n, dtype=np.int64) for f, n in zip(frames, sizes)}
    instance = {f: np.empty(n, dtype=np.int64) for f, n in zip(frames, sizes)}
    for p, (slot, i) in enumerate(_slot_index(sizes)):
        semantic[frames[slot]][i] = sem[p]
        instance[frames[slot]][i] = inst[p]
    return SequenceLabels(list(frames), semantic, instance)


def loop_point_labels(
    labels: SequenceLabels, sizes: list[int], frames: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame labels moved, point by point, into superimposed order."""
    slots = _slot_index(sizes)
    sem = np.empty(len(slots), dtype=np.int64)
    inst = np.empty(len(slots), dtype=np.int64)
    for p, (slot, i) in enumerate(slots):
        sem[p] = labels.semantic[frames[slot]][i]
        inst[p] = labels.instance[frames[slot]][i]
    return sem, inst


def loop_extract_points(
    output: MaskModuleOutput, grid: VoxelGrid, class_map: ClassMap
) -> tuple[np.ndarray, np.ndarray]:
    """extract_panoptic's (semantic, instance) per superimposed point, voxel by
    voxel: the included query with the highest confidence times heatmap
    value wins, the lowest index on ties; included thing queries are
    numbered from 1 in query order."""
    probs = output.class_probs()
    sig = output.heatmap_sigmoid()
    class_ids = class_map.all_ids
    nq, c = probs.shape[0], len(class_ids)
    best = [int(np.argmax(probs[q, :c])) for q in range(nq)]
    included = [q for q in range(nq) if np.argmax(probs[q]) != c] or list(range(nq))
    local = {}
    for q in included:
        if class_ids[best[q]] in class_map.thing_ids:
            local[q] = len(local) + 1
    sem = np.empty(grid.point_to_voxel.size, dtype=np.int64)
    inst = np.empty(grid.point_to_voxel.size, dtype=np.int64)
    for v in range(grid.num_voxels):
        winner, top = None, -1.0
        for q in included:
            score = probs[q, best[q]] * sig[q, v]
            if score > top:
                winner, top = q, score
        for p in np.flatnonzero(grid.point_to_voxel == v):
            sem[p] = class_ids[best[winner]]
            inst[p] = local.get(winner, 0)
    return sem, inst


# The per-instance DBSCAN split that made one dbscan call per instance, kept
# verbatim as the reference for the grouped single-call split.
def loop_split_non_compact(
    pred: SequenceLabels,
    cloud: SuperimposedCloud,
    frames: list[int],
    eps: float = 1.0,
    min_pts: int = 1,
) -> SequenceLabels:
    """Split each thing instance into spatially compact DBSCAN clusters.

    Every cluster becomes its own instance with the same semantics; noise
    points join the nearest cluster by centroid distance. An instance whose
    points are all noise is kept as a single instance. Semantic labels and
    point coverage are never altered.
    """
    sizes = [len(pred.instance[f]) for f in frames]
    sem, inst = loop_point_labels(pred, sizes, frames)
    new_inst = np.zeros_like(inst)
    nxt = 1
    for local in sorted(int(i) for i in np.unique(inst) if i > 0):
        idx = np.flatnonzero(inst == local)
        pts = cloud.points[idx]
        cl = dbscan(pts, eps, min_pts)
        cluster_ids = sorted(int(c) for c in np.unique(cl) if c >= 1)
        if not cluster_ids:  # everything noise: keep the instance whole
            new_inst[idx] = nxt
            nxt += 1
            continue
        centroids = np.stack([pts[cl == c].mean(axis=0) for c in cluster_ids])
        noise = cl == -1
        if noise.any():
            d = np.linalg.norm(pts[noise][:, None, :] - centroids[None, :, :], axis=2)
            cl[noise] = np.array(cluster_ids)[d.argmin(axis=1)]
        new_inst[idx] = nxt + np.searchsorted(cluster_ids, cl)
        nxt += len(cluster_ids)
    return loop_frame_labels(sem, new_inst, sizes, frames)


def _augmented_window(
    scans: list[LidarScan],
    poses: list[Pose],
    cfg: RunConfig,
    rng: np.random.Generator,
) -> WindowData:
    """Window preparation with a random rigid + scale transform of the
    superimposed cloud (applied in the global frame)."""
    cloud = superimpose(scans, poses)
    pts = cloud.points
    if cfg.aug_rotate:
        pts = pts @ rot_z(rng.uniform(0.0, 2.0 * np.pi)).T
    if cfg.aug_scale:
        pts = pts * rng.uniform(0.95, 1.05)
    if cfg.aug_translate:
        pts = pts + rng.uniform(-1.0, 1.0, size=3)
    cloud.points = pts
    grid = voxelize(cloud, cfg.voxel_size)
    frames = [s.frame_index for s in scans]
    ext_min, ext_max = cloud.extent()
    ctx = WindowContext(ext_min, ext_max, min(frames), max(frames))
    return WindowData(
        frames=frames,
        scans=scans,
        cloud=cloud,
        grid=grid,
        seed=seed_features(grid, ctx),
        ctx=ctx,
    )


def two_path_run_sequence(
    predictor,
    sequence: ScanSequence,
    window: int,
    stride: int,
) -> SequenceLabels:
    """run_sequence as it was with two ways of numbering tracks: a window
    without shared frames numbered its locals itself, every other window went
    through stitch. The predictor returns per-frame SequenceLabels, as for
    per_frame_run_sequence."""
    windows = sequence_windows(sequence, window, stride)
    # only windows that actually form need to overlap, or for single scans abut
    if len(windows) > 1 and window == 1 and stride > 1:
        raise ParameterError(f"stride {stride} must be 1 for window 1 so no frame is skipped")
    if len(windows) > 1 and window > 1 and stride >= window:
        raise ParameterError(f"stride {stride} must be < window {window} so windows overlap")

    result = SequenceLabels()
    next_free_id = 1
    for w, (scans, poses) in enumerate(windows):
        frames = [s.frame_index for s in scans]
        pred = predictor(scans, poses, frames)
        shared = [f for f in frames if f in result.instance]
        if not shared:
            # first window, or single-scan windows: no tracking context yet
            mapping = {}
            for nl in _per_frame_local_ids(pred):
                mapping[nl] = next_free_id
                next_free_id += 1
        else:
            mapping, next_free_id = per_frame_stitch(result, pred, shared, next_free_id)
        log.debug("window %d frames %s: %d local instances", w, frames, len(mapping))
        lookup = np.zeros(max(mapping, default=0) + 1, dtype=np.int64)
        lookup[list(mapping)] = list(mapping.values())
        for f in frames:
            if f not in result.instance:
                result.frames.append(f)
            inst = pred.instance[f]
            result.semantic[f] = pred.semantic[f].copy()
            result.instance[f] = lookup[np.maximum(inst, 0)].astype(inst.dtype)
    result.frames.sort()
    return result


# The per-frame window path that run_sequence replaced, kept verbatim as the
# reference: each window's predictor output cut into frames by counting
# cloud.frame_of, stitched frame by frame, and remapped frame by frame.
def per_frame_labels(
    semantic: np.ndarray, instance: np.ndarray, cloud: SuperimposedCloud, frames: list[int]
) -> SequenceLabels:
    """A window's labels in superimposed point order cut into one array per
    frame at the counts of each frame in cloud.frame_of; an empty scan keeps
    its empty array. The counts must cover the window exactly, so a repeated
    or foreign frame raises ContractError."""
    sizes = [np.count_nonzero(cloud.frame_of == f) for f in frames]
    if sum(sizes) != cloud.num_points:
        raise ContractError(f"frames {frames} count {sum(sizes)} of {cloud.num_points} points")
    cuts = np.cumsum(sizes)[:-1]
    by_frame = [dict(zip(frames, np.split(a, cuts))) for a in (semantic, instance)]
    return SequenceLabels(list(frames), *by_frame)


def per_frame_predictor(predictor):
    """A flat window predictor, (semantic, instance) per superimposed point,
    as a predictor of per-frame SequenceLabels cut by per_frame_labels."""

    def predict(scans, poses, frames):
        semantic, instance = predictor(scans, poses, frames)
        return per_frame_labels(semantic, instance, superimpose(scans, poses), frames)

    return predict


def per_frame_stitch(
    prev: SequenceLabels,
    nxt: SequenceLabels,
    shared_frames: list[int],
    next_free_id: int,
) -> tuple[dict[int, int], int]:
    """One-to-one match of window-local instances against existing track ids.

    Overlap counts on the shared frames feed a maximum-weight assignment;
    matched locals inherit the previous id (only with overlap >= 1 point),
    everything else gets a fresh globally unique id, in ascending local id
    order. Without shared frames (a first window, single-scan windows) every
    local id is fresh; a shared frame not labelled on both sides with equal
    point counts raises ContractError. Returns the local -> global mapping
    and the updated fresh-id counter.
    """
    for f in shared_frames:
        if f not in prev.instance or f not in nxt.instance:
            raise ContractError(f"shared frame {f} is not labelled on both sides")
        if prev.instance[f].shape != nxt.instance[f].shape:
            raise ContractError(f"shared frame {f} has mismatched point counts")
    empty = [np.zeros(0, dtype=np.int64)]  # no shared frames: nothing to match
    a = np.concatenate(empty + [prev.instance[f] for f in shared_frames], dtype=np.int64)
    b = np.concatenate(empty + [nxt.instance[f] for f in shared_frames], dtype=np.int64)
    both = (a > 0) & (b > 0)
    pg, nl = a[both], b[both]

    locals_ = _per_frame_local_ids(nxt)
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
            pairs = solve_assignment(-counts)
        else:
            pairs = [(i, j) for j, i in solve_assignment(-counts.T)]
        for i, j in pairs:
            if counts[i, j] >= 1:
                mapping[locals_[j]] = int(prevs[i])
    for nl in locals_:
        if nl not in mapping:
            mapping[nl] = next_free_id
            next_free_id += 1
    return mapping, next_free_id


def _per_frame_local_ids(labels: SequenceLabels) -> list[int]:
    """The positive instance ids of every frame, ascending."""
    ids: set[int] = set()
    for arr in labels.instance.values():
        ids.update(np.unique(arr[arr > 0]).tolist())
    return sorted(ids)


def per_frame_run_sequence(
    predictor,
    sequence: ScanSequence,
    window: int,
    stride: int,
) -> SequenceLabels:
    """Slide overlapping windows over a sequence and stitch the results.

    predictor(scans, poses, frames) must return the window's SequenceLabels
    with window-local instance ids. Shared-frame labels are taken from the later
    window after its instances have been remapped onto existing tracks. A
    window whose tracks need an id that does not fit 16 bits raises
    CapacityError before the next window is predicted.
    """
    windows = sequence_windows(sequence, window, stride)
    # only windows that actually form need to overlap, or for single scans abut
    if len(windows) > 1 and window == 1 and stride > 1:
        raise ParameterError(f"stride {stride} must be 1 for window 1 so no frame is skipped")
    if len(windows) > 1 and window > 1 and stride >= window:
        raise ParameterError(f"stride {stride} must be < window {window} so windows overlap")

    result = SequenceLabels()
    next_free_id = 1
    for w, (scans, poses) in enumerate(windows):
        frames = [s.frame_index for s in scans]
        pred = predictor(scans, poses, frames)
        shared = [f for f in frames if f in result.instance]
        mapping, next_free_id = per_frame_stitch(result, pred, shared, next_free_id)
        if next_free_id > 2**16:  # fail here, not when the labels are written
            raise CapacityError(
                f"window {w} frames {frames}: track id {next_free_id - 1} exceeds "
                f"the 16-bit instance id limit {2**16 - 1}"
            )
        log.debug("window %d frames %s: %d local instances", w, frames, len(mapping))
        lookup = np.zeros(max(mapping, default=0) + 1, dtype=np.int64)
        lookup[list(mapping)] = list(mapping.values())
        for f in frames:
            if f not in result.instance:
                result.frames.append(f)
            inst = pred.instance[f]
            result.semantic[f] = pred.semantic[f].copy()
            result.instance[f] = lookup[np.maximum(inst, 0)].astype(inst.dtype)
    return result

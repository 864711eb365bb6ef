"""Independent brute-force reference implementations used as test oracles.

Everything here is written directly from the definitions with plain loops and
dictionaries, deliberately sharing no code with the package internals it
checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from panoptic4d.errors import CapacityError, ContractError, ParameterError


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

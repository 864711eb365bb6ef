"""Mask module (instance heatmaps, class logits, box regression), ground-truth
target construction, Hungarian matching, and the loss stack.

The matching cost combines the mask losses (dice + binary cross-entropy) with
the classification cross-entropy; the box term is deliberately excluded from
matching and only enters the training loss for matched thing targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import FeaturePyramid
from .errors import CapacityError, ContractError, ParameterError, ShapeError, check_fields, domain
from .geometry import SuperimposedCloud, VoxelGrid, WindowContext, trajectory_box
from .nn import MLP, LayerNorm, Linear, collect_parameters
from .sequence import ClassMap

EPS = 1e-7


@dataclass
class MaskModuleOutput:
    heatmap_logits: Tensor  # (N_q, K0)
    class_logits: Tensor  # (N_q, C+1), last column is "no object"
    boxes: Tensor  # (N_q, 6) in [0, 1]

    @property
    def num_queries(self) -> int:
        return self.heatmap_logits.shape[0]

    def class_probs(self) -> np.ndarray:
        return ad.softmax_np(self.class_logits.values, axis=1)

    def heatmap_sigmoid(self) -> np.ndarray:
        return ad.sigmoid_np(self.heatmap_logits.values)


class MaskModule:
    """Per-query predictions against the finest pyramid level.

    Query features are layer-normalized before the heads; with pre-norm
    residual refinement blocks the raw features grow with depth, which would
    otherwise saturate the class softmax and the heatmap dot products.
    """

    def __init__(self, rng: np.random.Generator, dim: int, finest_width: int, num_classes: int):
        self.num_classes = num_classes
        self.norm = LayerNorm(dim)
        self.mask_embed = MLP(rng, [dim, dim, dim])
        self.feature_proj = Linear(rng, finest_width, dim)
        self.class_head = Linear(rng, dim, num_classes + 1)
        self.box_head = MLP(rng, [dim, dim, 6])

    def project(self, pyramid: FeaturePyramid) -> Tensor:
        """(dim, K0) transposed projection of the finest features; it depends
        only on the pyramid, so one forward computes it once for all outputs."""
        return ad.transpose(self.feature_proj(pyramid.levels[0].features))

    def __call__(self, query_features: Tensor, projected_t: Tensor) -> MaskModuleOutput:
        """Predictions of the queries against `project(pyramid)`."""
        normed = self.norm(query_features)
        embed = self.mask_embed(normed)
        heatmap = ad.matmul(embed, projected_t)
        class_logits = self.class_head(normed)
        boxes = ad.sigmoid(self.box_head(normed))
        return MaskModuleOutput(heatmap_logits=heatmap, class_logits=class_logits, boxes=boxes)

    def parameters(self) -> dict[str, Tensor]:
        return collect_parameters(
            {
                "norm": self.norm,
                "embed": self.mask_embed,
                "fproj": self.feature_proj,
                "cls": self.class_head,
                "box": self.box_head,
            }
        )


# ---------------------------------------------------------------------------
# targets


@dataclass
class Targets:
    """The ground-truth segments of a window, one row each: a thing instance
    or a stuff region."""

    masks: np.ndarray  # (T, K0) bool, disjoint rows
    class_index: np.ndarray  # (T,) int64 contiguous class index, not the raw class id
    instance_id: np.ndarray  # (T,) int64 gt instance id, 0 for stuff
    boxes: np.ndarray  # (T, 6) float64 trajectory boxes of things, zero rows otherwise

    def __len__(self) -> int:
        return self.class_index.shape[0]

    @property
    def is_thing(self) -> np.ndarray:
        return self.instance_id > 0


def label_pairs(point_semantic: np.ndarray, point_instance: np.ndarray, class_map: ClassMap):
    """The points of a class in index order, the instance ids, the distinct (class index,
    instance) pairs keyed class * len(ids) + instance rank, and each point's pair; stuff points
    carry instance 0. Every target is one pair under any transform, so len(keys) bounds them."""
    cls = class_map.index(point_semantic)
    idx = np.flatnonzero(cls >= 0)
    cls = cls[idx]
    inst = np.where(class_map.thing[cls], point_instance[idx], 0)
    inst_ids, inst_rank = np.unique(inst, return_inverse=True)
    pair_keys, pair = np.unique(cls * inst_ids.size + inst_rank, return_inverse=True)
    return idx, inst_ids, pair_keys, pair


def build_targets(
    cloud: SuperimposedCloud,
    grid: VoxelGrid,
    point_semantic: np.ndarray,
    point_instance: np.ndarray,
    class_map: ClassMap,
    ctx: WindowContext,
) -> Targets:
    """Voxel-level segments from per-point labels.

    Each voxel is assigned to the most frequent (class, instance) pair among
    its member points (points of no class excluded, ties to the pair seen first).
    Thing instances additionally get a trajectory box computed from their raw
    points, normalized by the window context's extent.
    """
    point_semantic = np.asarray(point_semantic).reshape(-1)
    point_instance = np.asarray(point_instance).reshape(-1)
    if point_semantic.shape[0] != cloud.num_points:
        raise ShapeError("per-point labels do not match the cloud size")

    idx, inst_ids, pair_keys, pair = label_pairs(point_semantic, point_instance, class_map)
    # Count the (voxel, pair) keys: each voxel takes its most frequent pair,
    # ties to the pair whose first member point comes first.
    key, first, count = np.unique(
        grid.point_to_voxel[idx] * pair_keys.size + pair, return_index=True, return_counts=True
    )
    voxel, pair = np.divmod(key, pair_keys.size)
    order = np.lexsort((first, -count, voxel))
    order = order[np.diff(voxel[order], prepend=-1) != 0]
    voxel, pair = voxel[order], pair[order]  # the winners, voxels ascending

    # One segment per winning pair, in order of its first voxel.
    _, first_voxel = np.unique(pair, return_index=True)
    winners = pair[np.sort(first_voxel)]
    segment_of = np.empty(pair_keys.size, dtype=np.int64)
    segment_of[winners] = np.arange(winners.size)
    masks = np.zeros((winners.size, grid.num_voxels), dtype=bool)
    masks[segment_of[pair], voxel] = True
    class_index, rank = np.divmod(pair_keys[winners], inst_ids.size)
    instance_id = inst_ids[rank].astype(np.int64)
    targets = Targets(masks, class_index, instance_id, np.zeros((winners.size, 6)))
    for t in np.flatnonzero(targets.is_thing).tolist():
        sem, inst = class_map.ids[class_index[t]], instance_id[t]
        pts = cloud.points[(point_instance == inst) & (point_semantic == sem)]
        targets.boxes[t] = trajectory_box(pts, ctx)
    return targets


# ---------------------------------------------------------------------------
# losses


@dataclass(frozen=True)
class LossWeights:
    """Loss-term weights. A mask's BCE is always averaged over the window's
    voxels, in the matching cost and the loss alike (as in Mask2Former)."""

    lambda_dice: float = field(default=2.0, metadata=domain(0))
    lambda_bce: float = field(default=5.0, metadata=domain(0))
    lambda_ce: float = field(default=2.0, metadata=domain(0))
    lambda_box: float = field(default=1.0, metadata=domain(0))
    no_object_weight: float = field(default=0.1, metadata=domain(0))

    def __post_init__(self):
        check_fields(self)


def ce_loss(class_logits: Tensor, target_classes: np.ndarray) -> Tensor:
    """Per-row cross-entropy -log p[target]; returns a vector of losses."""
    target_classes = np.asarray(target_classes, dtype=np.int64).reshape(-1)
    n, c = class_logits.shape
    if target_classes.shape[0] != n:
        raise ShapeError(f"ce: {n} rows but {target_classes.shape[0]} targets")
    if target_classes.size and (target_classes.min() < 0 or target_classes.max() >= c):
        raise ParameterError("ce: target class out of range")
    probs = ad.softmax(class_logits, axis=-1)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), target_classes] = 1.0
    picked = ad.tsum(ad.mul(probs, onehot), axis=1)
    return ad.neg(ad.log(picked + EPS))


def box_l1_loss(pred_boxes: Tensor, target_boxes: np.ndarray) -> Tensor:
    """Mean absolute error over the 6 box parameters, one value per row."""
    target_boxes = np.asarray(target_boxes, dtype=np.float64).reshape(-1, 6)
    if pred_boxes.shape != target_boxes.shape:
        raise ShapeError(f"box l1: {pred_boxes.shape} vs {target_boxes.shape}")
    return ad.tmean(ad.absolute(pred_boxes - target_boxes), axis=1)


# ---------------------------------------------------------------------------
# matching


@dataclass
class MatchResult:
    pairs: list[tuple[int, int]]  # (query index, target index)
    num_queries: int

    def unmatched_queries(self) -> np.ndarray:
        used = {q for q, _ in self.pairs}
        return np.array([q for q in range(self.num_queries) if q not in used], dtype=np.int64)


def solve_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
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
    cost = np.concatenate([np.zeros((n, 1)), cost], axis=1)  # 1-based columns
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    match_col = np.zeros(m + 1, dtype=np.int64)  # column -> row (1-based, 0 = free)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            free = ~used
            i0 = match_col[j0]
            cur = cost[i0 - 1] - u[i0] - v
            better = free & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            # first minimum over the free columns: the lowest column wins ties
            j1 = int(np.argmin(np.where(free, minv, np.inf)))
            delta = minv[j1]
            u[match_col[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    pairs = [(int(match_col[j]) - 1, j - 1) for j in range(1, m + 1) if match_col[j]]
    return sorted(pairs)


def matching_cost_matrix(
    output: MaskModuleOutput, targets: Targets, weights: LossWeights
) -> np.ndarray:
    """(num_targets, N_q) cost matrix of dice + BCE + classification terms."""
    sig = output.heatmap_sigmoid()  # (N_q, K0)
    probs = output.class_probs()
    k0 = sig.shape[1]
    masks = targets.masks.astype(np.float64)  # (T, K0)

    inter = sig @ masks.T  # (N_q, T)
    dice = 1.0 - 2.0 * inter / (sig.sum(axis=1, keepdims=True) + masks.sum(axis=1)[None, :] + EPS)
    log_p = np.log(sig + EPS)
    log_n = np.log(1.0 - sig + EPS)
    bce = -(log_p @ masks.T + log_n @ (1.0 - masks).T)
    bce /= k0
    ce = -np.log(probs[:, targets.class_index] + EPS)  # (N_q, T)
    cost = weights.lambda_dice * dice + weights.lambda_bce * bce + weights.lambda_ce * ce
    return cost.T  # rows = targets


def hungarian_match(
    output: MaskModuleOutput, targets: Targets, weights: LossWeights
) -> MatchResult:
    """Globally optimal one-to-one target-to-query assignment; every target is
    matched, leftover queries later count as "no object"."""
    nq = output.num_queries
    if len(targets) == 0:
        return MatchResult(pairs=[], num_queries=nq)
    cost = matching_cost_matrix(output, targets, weights)
    pairs = solve_assignment(cost)  # (target, query)
    return MatchResult(pairs=sorted((q, t) for t, q in pairs), num_queries=nq)


# ---------------------------------------------------------------------------
# total loss


@dataclass
class LossBreakdown:
    """Final-round components (already normalized by target count) plus the
    deep-supervision total."""

    total: float = 0.0
    dice: float = 0.0
    bce: float = 0.0
    ce: float = 0.0
    box: float = 0.0
    no_object: float = 0.0

    def as_row(self) -> dict[str, float]:
        return {
            "loss_total": self.total,
            "loss_dice": self.dice,
            "loss_bce": self.bce,
            "loss_ce": self.ce,
            "loss_box": self.box,
            "loss_no_object": self.no_object,
        }


def total_loss(
    outputs: list[MaskModuleOutput],
    targets: Targets,
    match: MatchResult,
    weights: LossWeights,
) -> tuple[Tensor, LossBreakdown]:
    """Deep-supervised loss: the matched assignment is applied to every
    intermediate output and the per-output losses are summed.

    The outputs are stacked, row q of output l at row l * N_q + q, so every
    term is built once over the matched (or unmatched) rows of all outputs.
    """
    if not outputs:
        raise ParameterError("total_loss needs at least one output")
    num_out = len(outputs)
    offsets = np.arange(num_out)[:, None] * outputs[0].num_queries
    norm = float(max(1, len(targets)))
    num_classes = outputs[0].class_logits.shape[1] - 1
    matched, target = np.array(match.pairs, dtype=np.int64).reshape(-1, 2).T
    free = match.unmatched_queries()

    def rows(field: str, queries: np.ndarray) -> Tensor:
        """The given query rows of every output's `field`, output by output."""
        stacked = ad.concat([getattr(o, field) for o in outputs], axis=0)
        return ad.gather_rows(stacked, (offsets + queries).reshape(-1))

    def final(vec: Tensor, lo: int = 0, hi: int | None = None) -> float:
        """Sum of the final output's entries [lo, hi) of a per-row loss."""
        return float(vec.values.reshape(num_out, -1)[-1, lo:hi].sum())

    terms: list[Tensor] = []
    parts = {"dice": 0.0, "bce": 0.0, "ce": 0.0, "box": 0.0, "no_object": 0.0}
    if target.size:
        masks = np.tile(targets.masks[target].astype(np.float64), (num_out, 1))
        sig = ad.sigmoid(rows("heatmap_logits", matched))  # (L * P, K0)
        k0 = sig.shape[1]
        inter = ad.tsum(ad.mul(sig, masks), axis=1)
        denom = ad.tsum(sig, axis=1) + masks.sum(axis=1) + EPS
        dice_vec = 1.0 - ad.div(ad.mul(inter, 2.0), denom)
        bce_elems = ad.mul(ad.log(sig + EPS), masks) + ad.mul(
            ad.log((1.0 - sig) + EPS), 1.0 - masks
        )
        bce_vec = ad.mul(ad.neg(ad.tsum(bce_elems, axis=1)), 1.0 / k0)
        per_row = [("dice", dice_vec, weights.lambda_dice), ("bce", bce_vec, weights.lambda_bce)]
        things = targets.is_thing[target]
        if things.any() and weights.lambda_box > 0:
            bt = np.tile(targets.boxes[target[things]], (num_out, 1))
            box_vec = box_l1_loss(rows("boxes", matched[things]), bt)
            per_row.append(("box", box_vec, weights.lambda_box))
        for name, vec, lam in per_row:
            terms.append(ad.mul(ad.tsum(vec), lam / norm))
            parts[name] = final(vec) * (lam / norm)

    # Matched rows against their classes, free rows against "no object".
    classes = np.concatenate([targets.class_index[target], np.full(free.size, num_classes)])
    ce_vec = ce_loss(
        rows("class_logits", np.concatenate([matched, free])), np.tile(classes, num_out)
    )
    w_ce = weights.lambda_ce / norm
    w_free = weights.no_object_weight * weights.lambda_ce / norm
    row_weights = np.array([w_ce] * matched.size + [w_free] * free.size)
    terms.append(ad.tsum(ad.mul(ce_vec, np.tile(row_weights, num_out))))
    parts["ce"] = final(ce_vec, 0, matched.size) * w_ce
    parts["no_object"] = final(ce_vec, matched.size) * w_free

    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total, LossBreakdown(total=total.item(), **parts)

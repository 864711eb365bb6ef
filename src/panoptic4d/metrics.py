"""Sequence-level evaluation: classification score (instance-agnostic mIoU),
association score (class-agnostic tube overlap quality), their geometric mean
LSTQ, and single-scan panoptic quality (PQ = SQ x RQ at IoU > 0.5).

Instance tubes span the entire sequence: a ground-truth tube is one instance's
point set over all frames (things only), a predicted tube likewise for each
predicted instance id. The association score averages, over ground-truth
tubes, the size-normalized sum of |overlap| * IoU against every predicted tube
that touches it.

Points are counted with np.unique / np.bincount on packed integer keys, one
block of consecutive frames at a time, so memory stays bounded on long
sequences. Floating-point sums keep the order of the per-point loops this
replaced (kept as test oracles), so every report is bit-identical to theirs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ContractError
from .sequence import IGNORE_LABEL, ClassMap, ScanSequence

_EXPECTED_COLUMNS = ["LSTQ", "S_assoc", "S_cls", "IoU_St", "IoU_Th", "PQ", "SQ", "RQ"]


@dataclass
class SequenceLabels:
    """Per-frame (semantic, instance) label arrays: ground truth, one window's
    prediction (window-local instance ids) or a stitched sequence."""

    frames: list[int] = field(default_factory=list)
    semantic: dict[int, np.ndarray] = field(default_factory=dict)
    instance: dict[int, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def from_scans(seq: ScanSequence) -> "SequenceLabels":
        for scan in seq.scans:
            if not scan.has_labels():
                raise ContractError(f"frame {scan.frame_index} has no ground-truth labels")
        return SequenceLabels(
            frames=[s.frame_index for s in seq.scans],
            semantic={s.frame_index: s.semantic for s in seq.scans},
            instance={s.frame_index: s.instance for s in seq.scans},
        )

    def check_coverage(self, other: "SequenceLabels") -> None:
        """Both sides label the same frames, each frame with one-dimensional
        integer semantic and instance arrays of one length."""
        if self.frames != other.frames:
            raise ContractError(
                f"frame sets differ: {self.frames} vs {other.frames}"
            )
        for f in self.frames:
            arrays = [
                labels.get(f)
                for labels in (self.semantic, self.instance, other.semantic, other.instance)
            ]
            if any(a is None for a in arrays):
                raise ContractError(f"frame {f}: labels missing")
            shapes = [np.shape(a) for a in arrays]
            if len(set(shapes)) != 1 or len(shapes[0]) != 1:
                raise ContractError(
                    f"frame {f}: labels must be 1-D arrays of one length, got semantic "
                    f"{shapes[0]}, instance {shapes[1]} vs semantic {shapes[2]}, instance {shapes[3]}"
                )
            if any(np.asarray(a).dtype.kind not in "iu" for a in arrays):
                raise ContractError(f"frame {f}: labels must be integer arrays")


@dataclass
class MetricReport:
    s_cls: float
    s_assoc: float
    lstq: float
    per_class_iou: dict[int, float]
    iou_stuff: float
    iou_things: float
    pq: float
    sq: float
    rq: float
    per_class_pq: dict[int, tuple[float, float, float]] = field(default_factory=dict)

    def as_row(self) -> dict[str, float]:
        return {
            "LSTQ": self.lstq,
            "S_assoc": self.s_assoc,
            "S_cls": self.s_cls,
            "IoU_St": self.iou_stuff,
            "IoU_Th": self.iou_things,
            "PQ": self.pq,
            "SQ": self.sq,
            "RQ": self.rq,
        }

    def table(self) -> str:
        row = self.as_row()
        header = " | ".join(f"{c:>8}" for c in _EXPECTED_COLUMNS)
        values = " | ".join(f"{row[c]:8.4f}" for c in _EXPECTED_COLUMNS)
        return f"{header}\n{values}"


# Labels are counted over runs of consecutive frames holding at most this
# many points (a larger frame forms a run alone), so the working memory of
# every metric stays bounded however long the sequence is.
_BLOCK_POINTS = 1 << 16


class _Block(NamedTuple):
    """Consecutive frames of a sequence."""

    start: int  # index of the block's first point in the whole sequence
    begin: int  # position of the block's first frame in the frame list
    frames: list[int]
    frame: np.ndarray  # each point's frame, counted from the block's first

    def cat(self, labels: dict[int, np.ndarray]) -> np.ndarray:
        """The block's labels from one per-frame dict, concatenated as int64."""
        return np.concatenate([labels[f] for f in self.frames], dtype=np.int64)


def _blocks(gt: SequenceLabels) -> Iterator[_Block]:
    """The sequence in frame order as blocks of at most _BLOCK_POINTS points."""
    sizes = [len(gt.semantic[f]) for f in gt.frames]
    begin = start = 0
    while begin < len(sizes):
        end, total = begin + 1, sizes[begin]
        while end < len(sizes) and total + sizes[end] <= _BLOCK_POINTS:
            total += sizes[end]
            end += 1
        yield _Block(
            start, begin, gt.frames[begin:end], np.repeat(np.arange(end - begin), sizes[begin:end])
        )
        begin, start = end, start + total


def _pack(
    major: np.ndarray, minor: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]]:
    """Collision-free int64 keys ordered like the pairs (major, minor), and
    the function that turns keys back into pairs.

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


def confusion_matrix(pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap) -> np.ndarray:
    """(C, C) counts of (gt class index, pred class index); points whose gt or
    predicted id is no class (IGNORE_LABEL included) are left out."""
    c = class_map.ids.size
    counts = np.zeros(c * c, dtype=np.int64)
    for block in _blocks(gt):
        g, p = class_map.index(block.cat(gt.semantic)), class_map.index(block.cat(pred.semantic))
        counts += np.bincount((g * c + p)[(g >= 0) & (p >= 0)], minlength=c * c)
    return counts.reshape(c, c)


def s_cls(
    pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap
) -> tuple[float, dict[int, float], float, float]:
    """Instance-agnostic mIoU; returns (miou, per-class IoU, stuff IoU, thing IoU).

    Classes absent from both prediction and ground truth are left out of every
    average.
    """
    gt.check_coverage(pred)
    return _s_cls(pred, gt, class_map)


def _s_cls(
    pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap
) -> tuple[float, dict[int, float], float, float]:
    mat = confusion_matrix(pred, gt, class_map)
    tp = np.diag(mat).astype(np.float64)
    fn = mat.sum(axis=1) - tp
    fp = mat.sum(axis=0) - tp
    union = tp + fp + fn
    per_class: dict[int, float] = {}
    for i, cid in enumerate(class_map.all_ids):
        if union[i] > 0:
            per_class[cid] = float(tp[i] / union[i])
    miou = float(np.mean(list(per_class.values()))) if per_class else 0.0
    stuff = [per_class[c] for c in class_map.stuff_ids if c in per_class]
    things = [per_class[c] for c in class_map.thing_ids if c in per_class]
    iou_st = float(np.mean(stuff)) if stuff else 0.0
    iou_th = float(np.mean(things)) if things else 0.0
    return miou, per_class, iou_st, iou_th


def s_assoc(pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap) -> float:
    """Class-agnostic association quality over whole-sequence tubes.

    For every ground-truth thing tube t:  (1/|t|) * sum over predicted tubes p
    with |p n t| > 0 of |p n t| * IoU(p, t); the final score averages over
    tubes uniformly. Predicted tube sizes count all points carrying that
    predicted instance id. 1.0 (with a warning) when there are no gt tubes.

    Floating-point sums keep a fixed order: each tube sums its terms in the
    order its (gt, pred) pairs first occur, and the tubes are summed in
    order of (first frame, gt id).
    """
    gt.check_coverage(pred)
    return _s_assoc(pred, gt, class_map)


def _s_assoc(pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap) -> float:
    things = class_map.ids[class_map.thing]
    tubes, pred_tubes, pairs = [], [], []
    for block in _blocks(gt):
        gt_sem, gt_inst, pred_inst = map(block.cat, (gt.semantic, gt.instance, pred.instance))
        valid = gt_sem != IGNORE_LABEL
        g_sel = valid & np.isin(gt_sem, things, kind="sort") & (gt_inst > 0)
        p_sel = valid & (pred_inst > 0)
        idx = np.flatnonzero(g_sel)
        t_id, first, size = np.unique(gt_inst[idx], return_index=True, return_counts=True)
        tubes.append((t_id, block.begin + block.frame[idx[first]], size))
        pred_tubes.append(np.unique(pred_inst[p_sel], return_counts=True))
        idx = np.flatnonzero(g_sel & p_sel)
        g, p = gt_inst[idx], pred_inst[idx]
        _, first, size = np.unique(_pack(g, p)[0], return_index=True, return_counts=True)
        pairs.append((g[first], p[first], size, block.start + idx[first]))

    if not sum(t[0].size for t in tubes):
        warnings.warn("no ground-truth thing tubes; association score defined as 1.0")
        return 1.0
    # Merge the blocks; a key's first entry comes from the earliest block.
    t_id, t_frame, t_size = _concat(tubes)
    first, t_size = _merge(t_id, t_size)
    t_id, t_frame = t_id[first], t_frame[first]
    p_id, p_size = _concat(pred_tubes)
    first, p_size = _merge(p_id, p_size)
    p_id = p_id[first]
    pair_g, pair_p, overlap, seen = _concat(pairs)
    first, overlap = _merge(_pack(pair_g, pair_p)[0], overlap)
    order = np.argsort(seen[first])
    pair_g, pair_p, overlap = pair_g[first][order], pair_p[first][order], overlap[order]

    tube = np.searchsorted(t_id, pair_g)
    union = t_size[tube] + p_size[np.searchsorted(p_id, pair_p)] - overlap
    inner = np.bincount(tube, weights=overlap * (overlap / union), minlength=t_id.size)
    # cumsum adds the tubes one by one, in order of (first frame, gt id)
    return float(np.cumsum((inner / t_size)[np.lexsort((t_id, t_frame))])[-1] / t_id.size)


def _concat(tables: list[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """Column-wise concatenation of per-block tables."""
    return [np.concatenate(column) for column in zip(*tables)]


def _merge(key: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each distinct key's first entry (keys ascending) and the
    summed counts per key (float64, exact below 2^53)."""
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return first, np.bincount(group, weights=counts)


def lstq(s_cls_value: float, s_assoc_value: float) -> float:
    """Geometric mean of the classification and association scores."""
    for name, v in (("s_cls", s_cls_value), ("s_assoc", s_assoc_value)):
        if not 0.0 <= v <= 1.0:
            raise ContractError(f"{name} must lie in [0, 1], got {v}")
    return float(np.sqrt(s_cls_value * s_assoc_value))


# ---------------------------------------------------------------------------
# panoptic quality (single scans)


def _segments(
    frame: np.ndarray, sem: np.ndarray, inst: np.ndarray, valid: np.ndarray, class_map: ClassMap
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segments of the scans of one block: thing instances plus one segment
    per stuff class, ordered by (frame, class, instance id).

    Returns each point's segment key (-1 outside every segment), the sorted
    segment keys, and each segment's (frame, class) cell, numbered
    frame * C + class index, and size.
    """
    thing = np.isin(sem, class_map.thing_ids, kind="sort")
    stuff = np.isin(sem, class_map.stuff_ids, kind="sort")
    member = np.flatnonzero(valid & ((thing & (inst > 0)) | stuff))
    cell = frame[member] * class_map.ids.size + class_map.index(sem[member])
    key, unpack = _pack(cell, np.where(thing[member], inst[member], 0))
    keys, size = np.unique(key, return_counts=True)
    point_key = np.full(sem.size, -1, dtype=np.int64)
    point_key[member] = key
    return point_key, keys, unpack(keys)[0], size


def _scan_stats(
    pred_sem, pred_inst, gt_sem, gt_inst, frame, num_frames, class_map
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-(frame, class) panoptic statistics of the scans of one block, as
    (num_frames, C) arrays: sum of matched IoU, TP, FP, FN. Matched IoUs are
    summed in gt instance order."""
    shape = (num_frames, class_map.ids.size)
    cells = num_frames * class_map.ids.size
    valid = gt_sem != IGNORE_LABEL
    g_key, g_keys, g_cell, g_size = _segments(frame, gt_sem, gt_inst, valid, class_map)
    p_key, p_keys, p_cell, p_size = _segments(frame, pred_sem, pred_inst, valid, class_map)
    both = np.flatnonzero((g_key >= 0) & (p_key >= 0) & (gt_sem == pred_sem))
    pair, unpack = _pack(g_key[both], p_key[both])
    pair, inter = np.unique(pair, return_counts=True)
    g_pair, p_pair = unpack(pair)
    g = np.searchsorted(g_keys, g_pair)
    iou = inter / (g_size[g] + p_size[np.searchsorted(p_keys, p_pair)] - inter)
    hit = iou > 0.5  # > 0.5 matches are unique per segment
    tp = np.bincount(g_cell[g[hit]], minlength=cells)
    return (
        np.bincount(g_cell[g[hit]], weights=iou[hit], minlength=cells).reshape(shape),
        tp.reshape(shape),
        (np.bincount(p_cell, minlength=cells) - tp).reshape(shape),
        (np.bincount(g_cell, minlength=cells) - tp).reshape(shape),
    )


def _quality(iou_sum, tp, fp, fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise (PQ, SQ, RQ); SQ is 0 without TP and RQ 0 without segments."""
    sq = np.divide(iou_sum, tp, out=np.zeros(np.shape(tp)), where=tp > 0)
    denom = tp + 0.5 * fp + 0.5 * fn
    rq = np.divide(tp, denom, out=np.zeros(np.shape(tp)), where=denom != 0)
    return sq * rq, sq, rq


def _present_mean(values: np.ndarray, present: np.ndarray) -> np.ndarray:
    """np.mean over each row's present entries in column order, 0.0 for rows
    with none."""
    out = np.zeros(values.shape[0])
    count = present.sum(axis=1)
    for k in np.unique(count[count > 0]):
        rows = count == k
        out[rows] = values[rows][present[rows]].reshape(-1, k).mean(axis=1)
    return out


def pq_sequence(
    pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap
) -> tuple[float, float, float, dict[int, tuple[float, float, float]]]:
    """Scan-wise panoptic quality, averaged over scans.

    A match needs the same class and IoU strictly above 0.5, which makes it
    unique. Per-class values aggregate the per-scan statistics over the whole
    sequence; the scalar PQ/SQ/RQ average the per-scan class means.
    """
    gt.check_coverage(pred)
    return _pq_sequence(pred, gt, class_map)


def _pq_sequence(
    pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap
) -> tuple[float, float, float, dict[int, tuple[float, float, float]]]:
    if not gt.frames:
        return 0.0, 0.0, 0.0, {}
    shape = (len(gt.frames), class_map.ids.size)
    iou_sum = np.zeros(shape)
    tp, fp, fn = (np.zeros(shape, dtype=np.int64) for _ in range(3))
    for block in _blocks(gt):
        labels = (pred.semantic, pred.instance, gt.semantic, gt.instance)
        stats = _scan_stats(*map(block.cat, labels), block.frame, len(block.frames), class_map)
        for total, part in zip((iou_sum, tp, fp, fn), stats):
            total[block.begin : block.begin + len(block.frames)] = part
    present = (tp + fp + fn) > 0
    per_scan = [_present_mean(v, present) for v in _quality(iou_sum, tp, fp, fn)]
    pq, sq, rq = (float(np.mean(v)) for v in per_scan)
    # cumsum adds the frames in order, as the per-class sums always have
    totals = _quality(
        np.cumsum(iou_sum, axis=0)[-1], tp.sum(axis=0), fp.sum(axis=0), fn.sum(axis=0)
    )
    per_class = {
        cid: tuple(float(v[i]) for v in totals)
        for i, cid in enumerate(class_map.all_ids)
        if present[:, i].any()
    }
    return pq, sq, rq, per_class


def evaluate(pred: SequenceLabels, gt: SequenceLabels, class_map: ClassMap) -> MetricReport:
    """Full metric report for one sequence; the labels are checked once."""
    gt.check_coverage(pred)
    miou, per_class, iou_st, iou_th = _s_cls(pred, gt, class_map)
    assoc = _s_assoc(pred, gt, class_map)
    pq, sq, rq, per_class_pq = _pq_sequence(pred, gt, class_map)
    return MetricReport(
        s_cls=miou,
        s_assoc=assoc,
        lstq=lstq(miou, assoc),
        per_class_iou=per_class,
        iou_stuff=iou_st,
        iou_things=iou_th,
        pq=pq,
        sq=sq,
        rq=rq,
        per_class_pq=per_class_pq,
    )


def report_csv(reports: dict[str, MetricReport]) -> str:
    """CSV with one row per named sequence plus a mean row."""
    lines = ["name," + ",".join(_EXPECTED_COLUMNS)]
    rows = []
    for name, rep in reports.items():
        row = rep.as_row()
        rows.append(row)
        lines.append(name + "," + ",".join("%.12g" % row[c] for c in _EXPECTED_COLUMNS))
    if rows:
        mean = {c: float(np.mean([r[c] for r in rows])) for c in _EXPECTED_COLUMNS}
        lines.append("mean," + ",".join("%.12g" % mean[c] for c in _EXPECTED_COLUMNS))
    return "\n".join(lines) + "\n"

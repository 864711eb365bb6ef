"""Sequence-level evaluation: classification score (instance-agnostic mIoU),
association score (class-agnostic tube overlap quality), their geometric mean
LSTQ, and single-scan panoptic quality (PQ = SQ x RQ at IoU > 0.5).

Instance tubes span the entire sequence: a ground-truth tube is one instance's
point set over all frames (things only), a predicted tube likewise for each
predicted instance id. The association score averages, over ground-truth
tubes, the size-normalized sum of |overlap| * IoU against every predicted tube
that touches it.

Labels come from a LabelSource: SequenceLabels in memory, or
kitti_io.LabelFiles, which reads only .label files and takes each frame's
point count from its .bin size (no point and no pose is read, so a broken
poses.txt or a non-finite coordinate does not fail an evaluation). Every
size is checked before the first block is read. `evaluate` then makes one
pass over blocks of consecutive frames, reading each block once per side and
feeding it to the confusion, association and PQ counts, so memory stays
bounded on long sequences. Points are counted with np.unique / np.bincount
on packed integer keys. Floating-point sums keep the order of the per-point
loops this replaced (kept as test oracles), so every report is bit-identical
to theirs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Protocol

import numpy as np

from .errors import ContractError
from .geometry import pack_keys
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

    def frame_sizes(self) -> tuple[list[int], list[int]]:
        """The frames and each frame's point count (its semantic array's
        length)."""
        return self.frames, [np.size(self.semantic.get(f, ())) for f in self.frames]

    def check_sizes(self, frames: list[int], sizes: list[int]) -> None:
        """Check that these labels hold exactly the given frames, each with
        one-dimensional integer semantic and instance arrays of its size."""
        if self.frames != frames:
            raise ContractError(f"frame sets differ: expected {frames}, got {self.frames}")
        for f, n in zip(frames, sizes):
            sem, inst = self.semantic.get(f), self.instance.get(f)
            if sem is None or inst is None:
                raise ContractError(f"frame {f}: labels missing")
            if np.shape(sem) != (n,) or np.shape(inst) != (n,):
                raise ContractError(
                    f"frame {f}: labels must be 1-D arrays of one length ({n} points), "
                    f"got semantic {np.shape(sem)}, instance {np.shape(inst)}"
                )
            if np.asarray(sem).dtype.kind not in "iu" or np.asarray(inst).dtype.kind not in "iu":
                raise ContractError(f"frame {f}: labels must be integer arrays")

    def read(self, frames: list[int], sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The frames' (semantic, instance) labels, concatenated int64 (the
        sizes are those check_sizes accepted, which the arrays have)."""
        return tuple(
            np.concatenate([labels[f] for f in frames], dtype=np.int64)
            for labels in (self.semantic, self.instance)
        )


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


class LabelSource(Protocol):
    """Per-frame labels that evaluation reads one block of frames at a time:
    SequenceLabels in memory, kitti_io.LabelFiles on disk, either one on
    either side. Before any block is read, the ground truth's `frame_sizes`
    names the frames and their point counts, and `check_sizes` checks them
    on the ground truth and then on the prediction."""

    def frame_sizes(self) -> tuple[list[int], list[int]]: ...

    def check_sizes(self, frames: list[int], sizes: list[int]) -> None: ...

    def read(self, frames: list[int], sizes: list[int]) -> tuple[np.ndarray, np.ndarray]: ...


# Labels are counted over runs of consecutive frames holding at most this
# many points (a larger frame forms a run alone), so the working memory of
# every metric stays bounded however long the sequence is.
_BLOCK_POINTS = 1 << 16


class _Side(NamedTuple):
    """One side's labels of a block."""

    cls: np.ndarray  # class index, -1 for an id outside the class map
    thing: np.ndarray  # the class is a thing
    inst: np.ndarray


class _Block(NamedTuple):
    """Consecutive frames of a sequence, with both sides' labels."""

    start: int  # index of the block's first point in the whole sequence
    begin: int  # position of the block's first frame in the frame list
    frame: np.ndarray  # each point's frame, counted from the block's first
    num_frames: int
    valid: np.ndarray  # the ground truth is not IGNORE_LABEL
    gt: _Side
    pred: _Side


def _blocks(pred: LabelSource, gt: LabelSource, class_map: ClassMap) -> Iterator[_Block]:
    """The sequence in frame order as blocks of at most _BLOCK_POINTS points.

    Both sides are checked in full before the first block is read, and each
    block's labels are read once per side."""
    frames, sizes = gt.frame_sizes()
    gt.check_sizes(frames, sizes)
    pred.check_sizes(frames, sizes)
    begin = start = 0
    while begin < len(sizes):
        end, total = begin + 1, sizes[begin]
        while end < len(sizes) and total + sizes[end] <= _BLOCK_POINTS:
            total += sizes[end]
            end += 1
        span = frames[begin:end], sizes[begin:end]
        (gt_sem, gt_inst), (pred_sem, pred_inst) = gt.read(*span), pred.read(*span)
        gt_cls, pred_cls = class_map.index(gt_sem), class_map.index(pred_sem)
        yield _Block(
            start,
            begin,
            np.repeat(np.arange(end - begin), span[1]),
            end - begin,
            gt_sem != IGNORE_LABEL,
            _Side(gt_cls, class_map.thing[gt_cls] & (gt_cls >= 0), gt_inst),
            _Side(pred_cls, class_map.thing[pred_cls] & (pred_cls >= 0), pred_inst),
        )
        begin, start = end, start + total


def _fold(pred: LabelSource, gt: LabelSource, class_map: ClassMap, *metrics) -> list:
    """Every metric's result after one pass that feeds it each block."""
    for block in _blocks(pred, gt, class_map):
        for metric in metrics:
            metric.add(block)
    return [metric.result() for metric in metrics]


class _Confusion:
    """The counts of confusion_matrix, summed block by block."""

    def __init__(self, class_map: ClassMap):
        self.size = class_map.ids.size
        self.counts = np.zeros(self.size * self.size, dtype=np.int64)

    def add(self, block: _Block) -> None:
        c, g, p = self.size, block.gt.cls, block.pred.cls
        # dense (gt class, pred class) bins of one C x C table, not pack_keys
        self.counts += np.bincount((g * c + p)[(g >= 0) & (p >= 0)], minlength=c * c)

    def result(self) -> np.ndarray:
        return self.counts.reshape(self.size, self.size)


def confusion_matrix(pred: LabelSource, gt: LabelSource, class_map: ClassMap) -> np.ndarray:
    """(C, C) counts of (gt class index, pred class index); points whose gt or
    predicted id is no class (IGNORE_LABEL included) are left out."""
    return _fold(pred, gt, class_map, _Confusion(class_map))[0]


def s_cls(
    pred: LabelSource, gt: LabelSource, class_map: ClassMap
) -> tuple[float, dict[int, float], float, float]:
    """Instance-agnostic mIoU; returns (miou, per-class IoU, stuff IoU, thing IoU).

    Classes absent from both prediction and ground truth are left out of every
    average.
    """
    return _class_scores(confusion_matrix(pred, gt, class_map), class_map)


def _class_scores(
    mat: np.ndarray, class_map: ClassMap
) -> tuple[float, dict[int, float], float, float]:
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


def s_assoc(pred: LabelSource, gt: LabelSource, class_map: ClassMap) -> float:
    """Class-agnostic association quality over whole-sequence tubes.

    For every ground-truth thing tube t:  (1/|t|) * sum over predicted tubes p
    with |p n t| > 0 of |p n t| * IoU(p, t); the final score averages over
    tubes uniformly. Predicted tube sizes count all points carrying that
    predicted instance id. 1.0 (with a warning) when there are no gt tubes.

    Floating-point sums keep a fixed order: each tube sums its terms in the
    order its (gt, pred) pairs first occur, and the tubes are summed in
    order of (first frame, gt id).
    """
    return _fold(pred, gt, class_map, _Association())[0]


class _Tally:
    """A table whose rows are merged by key: each key keeps its first row,
    with column `count` summed (float64, exact below 2^53), and the merged
    rows are in ascending key order. Added rows wait until they are as many
    as the merged ones, so the rows held stay within twice the distinct keys
    plus one addition, however many additions come."""

    def __init__(self, count: int, key: Callable[[list[np.ndarray]], np.ndarray]):
        self.count, self.key = count, key
        self.tables: list[tuple[np.ndarray, ...]] = []  # the merged table first
        self.merged = self.rows = 0

    def add(self, *columns: np.ndarray) -> None:
        self.tables.append(columns)
        self.rows += columns[0].size
        if self.rows >= 2 * self.merged:
            self.merge()

    def merge(self) -> list[np.ndarray]:
        table = _concat(self.tables)
        _, first, group = np.unique(self.key(table), return_index=True, return_inverse=True)
        merged = [column[first] for column in table]
        merged[self.count] = np.bincount(group, weights=table[self.count])
        self.tables = [tuple(merged)]
        self.merged = self.rows = first.size
        return merged


class _Association:
    """S_assoc from running tables of gt tubes, predicted tubes and
    (gt, pred) overlaps, merged by key as the blocks come in, so the rows
    held follow the distinct keys rather than the blocks."""

    def __init__(self):
        self.tubes = _Tally(2, lambda t: t[0])  # (gt id, first frame, size)
        self.pred_tubes = _Tally(1, lambda t: t[0])  # (predicted id, size)
        # (gt id, predicted id, overlap, index of the pair's first point)
        self.pairs = _Tally(2, lambda t: pack_keys(t[0], t[1])[0])

    def add(self, block: _Block) -> None:
        gt_inst, pred_inst = block.gt.inst, block.pred.inst
        g_sel = block.gt.thing & (gt_inst > 0)
        p_sel = block.valid & (pred_inst > 0)
        idx = np.flatnonzero(g_sel)
        t_id, first, size = np.unique(gt_inst[idx], return_index=True, return_counts=True)
        self.tubes.add(t_id, block.begin + block.frame[idx[first]], size)
        self.pred_tubes.add(*np.unique(pred_inst[p_sel], return_counts=True))
        idx = np.flatnonzero(g_sel & p_sel)
        g, p = gt_inst[idx], pred_inst[idx]
        _, first, size = np.unique(pack_keys(g, p)[0], return_index=True, return_counts=True)
        self.pairs.add(g[first], p[first], size, block.start + idx[first])

    def result(self) -> float:
        if not self.tubes.rows:
            warnings.warn("no ground-truth thing tubes; association score defined as 1.0")
            return 1.0
        # a key's first row comes from the earliest block
        t_id, t_frame, t_size = self.tubes.merge()
        p_id, p_size = self.pred_tubes.merge()
        pair_g, pair_p, overlap, seen = self.pairs.merge()
        order = np.argsort(seen)
        pair_g, pair_p, overlap = pair_g[order], pair_p[order], overlap[order]

        tube = np.searchsorted(t_id, pair_g)
        union = t_size[tube] + p_size[np.searchsorted(p_id, pair_p)] - overlap
        inner = np.bincount(tube, weights=overlap * (overlap / union), minlength=t_id.size)
        # cumsum adds the tubes one by one, in order of (first frame, gt id)
        return float(np.cumsum((inner / t_size)[np.lexsort((t_id, t_frame))])[-1] / t_id.size)


def _concat(tables: list[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """Column-wise concatenation of per-block tables."""
    return [np.concatenate(column) for column in zip(*tables)]


def lstq(s_cls_value: float, s_assoc_value: float) -> float:
    """Geometric mean of the classification and association scores."""
    for name, v in (("s_cls", s_cls_value), ("s_assoc", s_assoc_value)):
        if not 0.0 <= v <= 1.0:
            raise ContractError(f"{name} must lie in [0, 1], got {v}")
    return float(np.sqrt(s_cls_value * s_assoc_value))


# ---------------------------------------------------------------------------
# panoptic quality (single scans)


def _segments(
    frame: np.ndarray, side: _Side, valid: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segments of one side of a block: thing instances plus one segment per
    stuff class and scan, ordered by (frame, class, instance id).

    Returns each point's segment key (-1 outside every segment), the sorted
    segment keys, and each segment's (frame, class) cell, numbered
    frame * C + class index, and size.
    """
    stuff = (side.cls >= 0) & ~side.thing
    member = np.flatnonzero(valid & ((side.thing & (side.inst > 0)) | stuff))
    # (frame, class) cells are dense bins of the block's bincount tables; only
    # the (cell, instance) segment key goes through pack_keys
    cell = frame[member] * num_classes + side.cls[member]
    key, unpack = pack_keys(cell, np.where(side.thing[member], side.inst[member], 0))
    keys, size = np.unique(key, return_counts=True)
    point_key = np.full(side.cls.size, -1, dtype=np.int64)
    point_key[member] = key
    return point_key, keys, unpack(keys)[0], size


class _Panoptic:
    """Scan-wise PQ from per-(frame, class) statistics: sum of matched IoU,
    TP, FP, FN."""

    def __init__(self, class_map: ClassMap):
        self.class_map = class_map
        self.stats: list[tuple[np.ndarray, ...]] = []

    def add(self, block: _Block) -> None:
        """The block's statistics as (frames, C) arrays; matched IoUs are
        summed in gt instance order."""
        num_classes = self.class_map.ids.size
        shape = (block.num_frames, num_classes)
        cells = block.num_frames * num_classes
        g_key, g_keys, g_cell, g_size = _segments(block.frame, block.gt, block.valid, num_classes)
        p_key, p_keys, p_cell, p_size = _segments(block.frame, block.pred, block.valid, num_classes)
        both = np.flatnonzero((g_key >= 0) & (p_key >= 0) & (block.gt.cls == block.pred.cls))
        pair, unpack = pack_keys(g_key[both], p_key[both])
        pair, inter = np.unique(pair, return_counts=True)
        g_pair, p_pair = unpack(pair)
        g = np.searchsorted(g_keys, g_pair)
        iou = inter / (g_size[g] + p_size[np.searchsorted(p_keys, p_pair)] - inter)
        hit = iou > 0.5  # > 0.5 matches are unique per segment
        tp = np.bincount(g_cell[g[hit]], minlength=cells)
        self.stats.append((
            np.bincount(g_cell[g[hit]], weights=iou[hit], minlength=cells).reshape(shape),
            tp.reshape(shape),
            (np.bincount(p_cell, minlength=cells) - tp).reshape(shape),
            (np.bincount(g_cell, minlength=cells) - tp).reshape(shape),
        ))

    def result(self) -> tuple[float, float, float, dict[int, tuple[float, float, float]]]:
        if not self.stats:
            return 0.0, 0.0, 0.0, {}
        iou_sum, tp, fp, fn = _concat(self.stats)
        present = (tp + fp + fn) > 0
        per_scan = [_present_mean(v, present) for v in _quality(iou_sum, tp, fp, fn)]
        pq, sq, rq = (float(np.mean(v)) for v in per_scan)
        # cumsum adds the frames in order, as the per-class sums always have
        totals = _quality(
            np.cumsum(iou_sum, axis=0)[-1], tp.sum(axis=0), fp.sum(axis=0), fn.sum(axis=0)
        )
        return pq, sq, rq, {
            cid: tuple(float(v[i]) for v in totals)
            for i, cid in enumerate(self.class_map.all_ids)
            if present[:, i].any()
        }


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
    pred: LabelSource, gt: LabelSource, class_map: ClassMap
) -> tuple[float, float, float, dict[int, tuple[float, float, float]]]:
    """Scan-wise panoptic quality, averaged over scans.

    A match needs the same class and IoU strictly above 0.5, which makes it
    unique. Per-class values aggregate the per-scan statistics over the whole
    sequence; the scalar PQ/SQ/RQ average the per-scan class means.
    """
    return _fold(pred, gt, class_map, _Panoptic(class_map))[0]


def evaluate(pred: LabelSource, gt: LabelSource, class_map: ClassMap) -> MetricReport:
    """Full metric report for one sequence, from one pass over its blocks:
    the labels are checked once and each block is read once per side."""
    confusion, assoc, (pq, sq, rq, per_class_pq) = _fold(
        pred, gt, class_map, _Confusion(class_map), _Association(), _Panoptic(class_map)
    )
    miou, per_class, iou_st, iou_th = _class_scores(confusion, class_map)
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

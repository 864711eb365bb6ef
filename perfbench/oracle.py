"""Vectorized LSTQ / PQ used to check the `eval_long` report.

It follows the definitions in `panoptic4d.metrics` (and 4D-PLS, arXiv
2102.12472) but counts with np.unique / np.bincount instead of per-point
loops, so it scores long sequences in a fraction of the time and shares no
code with the package.
"""

from __future__ import annotations

import numpy as np

IGNORE = 255
COLUMNS = ["LSTQ", "S_assoc", "S_cls", "IoU_St", "IoU_Th", "PQ", "SQ", "RQ"]
_KEY = 1 << 20  # instance ids fit in 16 bits, class ids in 16 bits


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _s_cls(gs, ps, things, stuff):
    classes = np.array(sorted(things + stuff))
    keep = (gs != IGNORE) & np.isin(gs, classes) & np.isin(ps, classes)
    c = classes.size
    g = np.searchsorted(classes, gs[keep])
    p = np.searchsorted(classes, ps[keep])
    conf = np.bincount(g * c + p, minlength=c * c).reshape(c, c)
    tp = np.diag(conf).astype(np.float64)
    union = conf.sum(axis=1) + conf.sum(axis=0) - tp
    iou = {int(cid): float(tp[i] / union[i]) for i, cid in enumerate(classes) if union[i] > 0}
    return (
        _mean(list(iou.values())),
        _mean([iou[c] for c in stuff if c in iou]),
        _mean([iou[c] for c in things if c in iou]),
    )


def _s_assoc(gs, gi, pi, things):
    valid = gs != IGNORE
    gsel = valid & np.isin(gs, things) & (gi > 0)
    psel = valid & (pi > 0)
    g_ids, g_sizes = np.unique(gi[gsel], return_counts=True)
    if g_ids.size == 0:
        return 1.0
    p_ids, p_sizes = np.unique(pi[psel], return_counts=True)
    both = gsel & psel
    pairs, overlap = np.unique(gi[both] * _KEY + pi[both], return_counts=True)
    t_size = g_sizes[np.searchsorted(g_ids, pairs // _KEY)]
    p_size = p_sizes[np.searchsorted(p_ids, pairs % _KEY)]
    ov = overlap.astype(np.float64)
    per_pair = ov * (ov / (t_size + p_size - ov)) / t_size
    per_tube = np.zeros(g_ids.size)
    np.add.at(per_tube, np.searchsorted(g_ids, pairs // _KEY), per_pair)
    return float(per_tube.mean())


def _segments(sem, inst, valid, things, classes):
    thing = np.isin(sem, things)
    ok = valid & np.isin(sem, classes) & (~thing | (inst > 0))
    key = sem * _KEY + np.where(thing, inst, 0)
    return key, ok


def _pq_scan(gs, gi, ps, pi, things, stuff):
    classes = sorted(things + stuff)
    valid = gs != IGNORE
    gk, gok = _segments(gs, gi, valid, things, classes)
    pk, pok = _segments(ps, pi, valid, things, classes)
    g_keys, g_sizes = np.unique(gk[gok], return_counts=True)
    p_keys, p_sizes = np.unique(pk[pok], return_counts=True)
    both = gok & pok & (gs == ps)
    pair_g, pair_p = gk[both], pk[both]
    pairs, inter = np.unique(np.stack([pair_g, pair_p]), axis=1, return_counts=True)
    iou = inter / (
        g_sizes[np.searchsorted(g_keys, pairs[0])]
        + p_sizes[np.searchsorted(p_keys, pairs[1])]
        - inter
    )
    match = iou > 0.5
    pqs, sqs, rqs = [], [], []
    for cid in classes:
        n_g = int(np.sum(g_keys // _KEY == cid))
        n_p = int(np.sum(p_keys // _KEY == cid))
        if not (n_g or n_p):
            continue
        hit = match & (pairs[0] // _KEY == cid)
        tp = int(hit.sum())
        sq = float(iou[hit].sum()) / tp if tp else 0.0
        denom = tp + 0.5 * (n_p - tp) + 0.5 * (n_g - tp)
        rq = tp / denom if denom else 0.0
        pqs.append(sq * rq)
        sqs.append(sq)
        rqs.append(rq)
    return _mean(pqs), _mean(sqs), _mean(rqs)


def report(pred, gt, things, stuff) -> dict[str, float]:
    """Scores per-frame (semantic, instance) pairs against ground truth.

    pred and gt are lists of (semantic, instance) int64 arrays, one pair per
    frame in sequence order; things and stuff are lists of class ids.
    """
    gs = np.concatenate([s for s, _ in gt])
    gi = np.concatenate([i for _, i in gt])
    ps = np.concatenate([s for s, _ in pred])
    pi = np.concatenate([i for _, i in pred])
    s_cls, iou_st, iou_th = _s_cls(gs, ps, things, stuff)
    s_assoc = _s_assoc(gs, gi, pi, things)
    scans = [_pq_scan(g[0], g[1], p[0], p[1], things, stuff) for p, g in zip(pred, gt)]
    pq, sq, rq = (_mean([s[k] for s in scans]) for k in range(3))
    return {
        "LSTQ": float(np.sqrt(s_cls * s_assoc)),
        "S_assoc": s_assoc,
        "S_cls": s_cls,
        "IoU_St": iou_st,
        "IoU_Th": iou_th,
        "PQ": pq,
        "SQ": sq,
        "RQ": rq,
    }

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panoptic4d import metrics, synth
from panoptic4d.errors import ContractError
from panoptic4d.metrics import (
    SequenceLabels,
    confusion_matrix,
    evaluate,
    lstq,
    pq_sequence,
    pq_single_scan,
    s_assoc,
    s_cls,
)
from panoptic4d.sequence import ClassMap

from oracles import (
    loop_confusion_matrix,
    loop_pq_sequence,
    loop_pq_single_scan,
    loop_s_assoc,
    oracle_pq_scene,
    oracle_s_assoc,
    oracle_s_cls,
    random_scene,
)

CM = ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4))


def labels_from_scene(scene):
    frames = sorted(scene)
    gt = SequenceLabels(
        frames=frames,
        semantic={f: np.asarray(scene[f][0]) for f in frames},
        instance={f: np.asarray(scene[f][1]) for f in frames},
    )
    pred = SequenceLabels(
        frames=frames,
        semantic={f: np.asarray(scene[f][2]) for f in frames},
        instance={f: np.asarray(scene[f][3]) for f in frames},
    )
    return pred, gt


def manual_scene(*frames):
    """frames: tuples of (gt_sem, gt_inst, pred_sem, pred_inst) lists."""
    return {
        f: tuple(np.asarray(a, dtype=np.int64) for a in arrays)
        for f, arrays in enumerate(frames)
    }


class TestSCls:
    def test_perfect(self):
        scene = manual_scene(([1, 3, 3], [1, 0, 0], [1, 3, 3], [1, 0, 0]))
        pred, gt = labels_from_scene(scene)
        miou, per_class, st, th = s_cls(pred, gt, CM)
        assert miou == 1.0 and st == 1.0 and th == 1.0

    def test_half_split_example(self):
        # gt: class 1 on 10 points; pred: 1 on 5, 2 on the other 5; no gt 2
        scene = manual_scene(
            ([1] * 10, [1] * 10, [1] * 5 + [2] * 5, [1] * 10)
        )
        pred, gt = labels_from_scene(scene)
        miou, per_class, st, th = s_cls(pred, gt, CM)
        assert per_class[1] == pytest.approx(0.5)
        assert per_class[2] == 0.0
        assert miou == pytest.approx(0.25)

    def test_instance_agnostic(self):
        scene = manual_scene(
            ([1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 1, 1], [9, 8, 7, 6])
        )
        pred, gt = labels_from_scene(scene)
        miou, _, _, _ = s_cls(pred, gt, CM)
        assert miou == 1.0

    def test_ignore_excluded(self):
        scene = manual_scene(([1, 255], [1, 0], [1, 3], [1, 0]))
        pred, gt = labels_from_scene(scene)
        mat = confusion_matrix(pred, gt, list(CM.all_ids))
        assert mat.sum() == 1

    def test_coverage_mismatch(self):
        scene = manual_scene(([1], [1], [1], [1]))
        pred, gt = labels_from_scene(scene)
        pred.semantic[0] = np.array([1, 1])
        with pytest.raises(ContractError):
            s_cls(pred, gt, CM)

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("field", ["instance", "semantic"])
    def test_coverage_checks_every_array(self, side, field):
        scene = manual_scene(([1, 3], [1, 0], [1, 3], [1, 0]), ([1, 3], [1, 0], [1, 3], [1, 0]))
        labels = dict(zip(["pred", "gt"], labels_from_scene(scene)))
        getattr(labels[side], field)[1] = np.array([1])  # one point short
        for score in (s_cls, s_assoc, pq_sequence, evaluate):
            with pytest.raises(ContractError, match="frame 1"):
                score(labels["pred"], labels["gt"], CM)

    def test_coverage_rejects_missing_and_non_integer_labels(self):
        scene = manual_scene(([1, 3], [1, 0], [1, 3], [1, 0]))
        pred, gt = labels_from_scene(scene)
        del pred.instance[0]
        with pytest.raises(ContractError, match="frame 0: labels missing"):
            evaluate(pred, gt, CM)
        pred, gt = labels_from_scene(scene)
        pred.semantic[0] = np.array([1.0, 3.0])
        with pytest.raises(ContractError, match="frame 0: labels must be integer"):
            evaluate(pred, gt, CM)


class TestSAssoc:
    def test_perfect(self):
        scene = manual_scene(
            ([1, 1, 3], [1, 1, 0], [1, 1, 3], [5, 5, 0]),
            ([1, 1, 3], [1, 1, 0], [1, 1, 3], [5, 5, 0]),
        )
        pred, gt = labels_from_scene(scene)
        assert s_assoc(pred, gt, CM) == pytest.approx(1.0)

    def test_split_tube_half(self):
        # one gt tube of 10 points split into two predicted tubes of 5 each
        scene = manual_scene(
            ([1] * 5, [1] * 5, [1] * 5, [7] * 5),
            ([1] * 5, [1] * 5, [1] * 5, [8] * 5),
        )
        pred, gt = labels_from_scene(scene)
        assert s_assoc(pred, gt, CM) == pytest.approx(0.5, abs=1e-12)

    def test_zero_overlap(self):
        scene = manual_scene(([1, 3], [1, 0], [3, 1], [0, 9]))
        pred, gt = labels_from_scene(scene)
        # prediction tube only covers a gt-stuff point
        assert s_assoc(pred, gt, CM) == pytest.approx(0.0)

    def test_no_gt_tubes_warns_one(self):
        scene = manual_scene(([3, 3], [0, 0], [3, 1], [0, 1]))
        pred, gt = labels_from_scene(scene)
        with pytest.warns(UserWarning):
            assert s_assoc(pred, gt, CM) == 1.0

    def test_semantic_relabeling_invariant(self):
        rng = np.random.default_rng(0)
        scene = random_scene(rng, CM.thing_ids, CM.stuff_ids)
        pred, gt = labels_from_scene(scene)
        base = s_assoc(pred, gt, CM)
        relabeled = SequenceLabels(
            frames=pred.frames,
            semantic={f: np.full_like(pred.semantic[f], 2) for f in pred.frames},
            instance=pred.instance,
        )
        assert s_assoc(relabeled, gt, CM) == pytest.approx(base, abs=1e-15)


class TestLstq:
    def test_arithmetic(self):
        assert lstq(0.64, 0.81) == pytest.approx(0.72, abs=1e-12)

    def test_annihilator_and_identity(self):
        assert lstq(0.37, 0.0) == 0.0
        assert lstq(1.0, 1.0) == 1.0

    def test_range_check(self):
        with pytest.raises(ContractError):
            lstq(1.2, 0.5)
        with pytest.raises(ContractError):
            lstq(0.5, -0.01)


class TestPq:
    def test_single_match_plus_fp(self):
        # one gt segment matched at IoU 0.6, one predicted FP
        gt_sem = np.array([1] * 10 + [3] * 4)
        gt_inst = np.array([1] * 10 + [0] * 4)
        pred_sem = np.array([1] * 10 + [1] * 4)
        pred_inst = np.array([1] * 6 + [0] * 4 + [2] * 4)
        stats = pq_single_scan(pred_sem, pred_inst, gt_sem, gt_inst, ClassMap((1,), ()))
        iou_sum, tp, fp, fn = stats[1]
        assert tp == 1 and fp == 1 and fn == 0
        assert iou_sum == pytest.approx(0.6)
        sq = iou_sum / tp
        rq = tp / (tp + 0.5 * fp + 0.5 * fn)
        assert sq * rq == pytest.approx(0.4)

    def test_perfect(self):
        scene = manual_scene(
            ([1, 1, 3, 3], [1, 1, 0, 0], [1, 1, 3, 3], [4, 4, 0, 0])
        )
        pred, gt = labels_from_scene(scene)
        pq, sq, rq, per_class = pq_sequence(pred, gt, CM)
        assert pq == 1.0 and sq == 1.0 and rq == 1.0

    def test_unique_matching_under_adversarial_overlap(self):
        # two gt segments both overlapping one big prediction; at most one match
        gt_sem = np.array([1] * 10)
        gt_inst = np.array([1] * 5 + [2] * 5)
        pred_sem = np.array([1] * 10)
        pred_inst = np.array([3] * 10)
        stats = pq_single_scan(pred_sem, pred_inst, gt_sem, gt_inst, ClassMap((1,), ()))
        _, tp, fp, fn = stats[1]
        assert tp == 0 and fn == 2 and fp == 1  # IoU 0.5 is not > 0.5

    def test_matches_oracle_random(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            scene = random_scene(rng, CM.thing_ids, CM.stuff_ids)
            pred, gt = labels_from_scene(scene)
            pq, sq, rq, _ = pq_sequence(pred, gt, CM)
            opq, osq, orq = oracle_pq_scene(scene, CM.thing_ids, CM.stuff_ids)
            assert pq == pytest.approx(opq, abs=1e-12)
            assert sq == pytest.approx(osq, abs=1e-12)
            assert rq == pytest.approx(orq, abs=1e-12)


class TestAgainstOraclesRandom:
    def test_s_cls_and_s_assoc(self):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            scene = random_scene(rng, CM.thing_ids, CM.stuff_ids)
            pred, gt = labels_from_scene(scene)
            assert s_cls(pred, gt, CM)[0] == pytest.approx(
                oracle_s_cls(scene, CM.all_ids), abs=1e-12
            )
            assert s_assoc(pred, gt, CM) == pytest.approx(
                oracle_s_assoc(scene, CM.thing_ids), abs=1e-12
            )

    def test_full_report_consistency(self):
        rng = np.random.default_rng(5)
        scene = random_scene(rng, CM.thing_ids, CM.stuff_ids)
        pred, gt = labels_from_scene(scene)
        rep = evaluate(pred, gt, CM)
        assert rep.lstq**2 == pytest.approx(rep.s_cls * rep.s_assoc, abs=1e-12)
        for v in rep.as_row().values():
            assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# bit-exact agreement with the original per-point loops


def loop_evaluate(pred, gt, class_map):
    """evaluate() with the loop oracles in place of the vectorized counting."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "confusion_matrix", loop_confusion_matrix)
        mp.setattr(metrics, "s_assoc", loop_s_assoc)
        mp.setattr(metrics, "pq_sequence", loop_pq_sequence)
        return evaluate(pred, gt, class_map)


def assert_same_as_loops(pred, gt, class_map):
    got = evaluate(pred, gt, class_map)
    want = loop_evaluate(pred, gt, class_map)
    # == on the dataclass compares every field exactly, dicts included
    assert got == want
    for f in gt.frames:
        args = (pred.semantic[f], pred.instance[f], gt.semantic[f], gt.instance[f], class_map)
        assert pq_single_scan(*args) == loop_pq_single_scan(*args)
    # unsorted and repeated ids: a repeated id counts at its last position
    for ids in (list(class_map.all_ids), list(class_map.all_ids)[::-1] + [1, 3]):
        np.testing.assert_array_equal(
            confusion_matrix(pred, gt, ids), loop_confusion_matrix(pred, gt, ids)
        )
    return got


WIDE_CM = ClassMap(thing_ids=(1, 2, 5, 7, 9), stuff_ids=(3, 4, 6, 8, 10, 11, 12))

# (gt_sem, gt_inst, pred_sem, pred_inst) per frame
EDGE_SCENES = {
    "empty frame list": {},
    "zero-point frames": manual_scene(
        ([], [], [], []), ([1, 1, 3], [2, 2, 0], [1, 1, 3], [5, 6, 0]), ([], [], [], [])
    ),
    "all-ignore frames": manual_scene(
        ([255, 255], [1, 0], [1, 3], [4, 0]), ([1, 1, 4], [1, 1, 0], [1, 2, 4], [4, 4, 0])
    ),
    "no gt tubes": manual_scene(([3, 3, 4], [0, 0, 0], [3, 1, 4], [0, 1, 0])),
    "stuff points with instance ids": manual_scene(
        ([3, 3, 4, 1], [7, 8, 9, 1], [3, 3, 4, 1], [2, 3, 4, 1])
    ),
    "pred ids reused across classes": manual_scene(
        ([1, 1, 2, 2, 3], [1, 1, 2, 2, 0], [1, 1, 2, 2, 3], [5, 5, 5, 5, 5]),
        ([1, 2, 2, 1], [1, 2, 2, 1], [2, 1, 2, 1], [5, 5, 5, 5]),
    ),
    "semantic ids outside the class map": manual_scene(
        ([1, 0, 17, 3, 1], [1, 4, 4, 0, 1], [1, 1, 17, 0, 99], [1, 1, 4, 0, 3])
    ),
    "negative and wide semantic ids": manual_scene(
        ([-5, 1, 70000, 2, 1], [1, 1, 2, 3, 1], [1, -5, 70000, 2, 1 << 40], [1, 1, 2, 3, 1])
    ),
    "instance ids of 2**20 and beyond": manual_scene(
        ([1, 1, 1, 2, 2, 3], [1 << 20, 1 << 20, 5, 1 << 33, 1 << 33, 0],
         [1, 1, 1, 2, 2, 3], [1 << 21, 1 << 21, 1 << 45, 7, 7, 0]),
        ([1, 1, 2, 2], [1 << 20, 1 << 20, 1 << 33, 1], [1, 1, 2, 2], [1 << 21, 9, 7, 7]),
    ),
    "instance ids too wide for strided int64 keys": manual_scene(
        ([1, 1, 2, 2, 1], [1 << 62, 1 << 62, 3, 3, 1], [1, 1, 2, 2, 1],
         [(1 << 62) + 5, 1, 1 << 61, 1 << 61, 1]),
        ([1, 2, 1], [1, 3, 1 << 62], [1, 2, 1], [1, 1 << 61, -(1 << 62)]),
    ),
    # IoUs (n - 1) / n whose float sum depends on the order of the terms
    "many matched instances": manual_scene(
        (
            [1] * 60 + [3] * 4,
            [n for n in range(4, 12) for _ in range(n)] + [0] * 4,
            [1] * 60 + [3] * 4,
            [i for n in range(4, 12) for i in [100 + n] * (n - 1) + [99]] + [0] * 4,
        )
    ),
    "negative instance ids": manual_scene(
        ([1, 1, 2, 3], [-1, -1, 2, -4], [1, 1, 2, 3], [-3, 2, -2, 0])
    ),
}


def late_ids_and_missing_classes(scene, rng, class_map):
    """Later frames bring lower gt ids, so id order is not first-seen order,
    and each frame loses up to three classes to an id outside the map."""
    last = max(scene)
    out = {}
    for f, (gt_sem, gt_inst, pred_sem, pred_inst) in scene.items():
        gone = rng.choice(class_map.all_ids, size=int(rng.integers(0, 4)))
        out[f] = (
            np.where(np.isin(gt_sem, gone), 0, gt_sem),
            np.where(gt_inst > 0, gt_inst + 8 * (last - f), 0),
            np.where(np.isin(pred_sem, gone), 0, pred_sem),
            pred_inst,
        )
    return out


@pytest.mark.filterwarnings("ignore:no ground-truth thing tubes")
class TestAgainstLoopOracles:
    """Every report field equals the original loops', bit for bit."""

    @pytest.mark.parametrize("block_points", [1 << 16, 3])
    @pytest.mark.parametrize("name", sorted(EDGE_SCENES))
    def test_edge_cases(self, name, block_points, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_POINTS", block_points)
        pred, gt = labels_from_scene(EDGE_SCENES[name])
        assert_same_as_loops(pred, gt, CM)

    def test_empty_frame_list_report(self):
        pred, gt = labels_from_scene({})
        with pytest.warns(UserWarning, match="no ground-truth thing tubes"):
            rep = evaluate(pred, gt, CM)
        assert (rep.s_cls, rep.s_assoc, rep.lstq, rep.pq) == (0.0, 1.0, 0.0, 0.0)
        assert rep.per_class_iou == {} and rep.per_class_pq == {}

    def test_no_gt_tubes_warns_and_scores_one(self):
        pred, gt = labels_from_scene(EDGE_SCENES["no gt tubes"])
        with pytest.warns(UserWarning, match="no ground-truth thing tubes"):
            assert evaluate(pred, gt, CM).s_assoc == 1.0

    @pytest.mark.parametrize("block_points", [1 << 16, 40, 1])
    @pytest.mark.parametrize("class_map", [CM, WIDE_CM], ids=["4 classes", "12 classes"])
    def test_random_scenes(self, class_map, block_points, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_POINTS", block_points)
        for seed in range(30):
            rng = np.random.default_rng(7000 + seed)
            scene = random_scene(
                rng, class_map.thing_ids, class_map.stuff_ids, max_points=400, max_frames=6
            )
            if seed % 2:
                scene = late_ids_and_missing_classes(scene, rng, class_map)
            pred, gt = labels_from_scene(scene)
            assert_same_as_loops(pred, gt, class_map)

    @pytest.mark.parametrize(
        "class_map", [ClassMap((), (3, 4)), ClassMap((1, 2), ())], ids=["stuff only", "things only"]
    )
    def test_one_sided_class_maps(self, class_map):
        for seed in range(5):
            scene = random_scene(np.random.default_rng(seed), CM.thing_ids, CM.stuff_ids)
            assert_same_as_loops(*labels_from_scene(scene), class_map)

    def test_unsorted_frame_numbers_and_narrow_dtypes(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_POINTS", 50)
        scene = random_scene(np.random.default_rng(3), CM.thing_ids, CM.stuff_ids)
        frames = [9, 2, 40, 0, 7][: len(scene)]
        arrays = [scene[f] for f in sorted(scene)]
        gt = SequenceLabels(
            frames,
            {f: a[0].astype(np.uint16) for f, a in zip(frames, arrays)},
            {f: a[1].astype(np.int32) for f, a in zip(frames, arrays)},
        )
        pred = SequenceLabels(
            frames,
            {f: a[2].astype(np.uint32) for f, a in zip(frames, arrays)},
            {f: a[3].astype(np.uint64) for f, a in zip(frames, arrays)},
        )
        assert_same_as_loops(pred, gt, CM)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        frames=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([1, 2, 3, 4, 255, 0, 9]),
                    st.sampled_from([0, 1, 2, 3, -1, 1 << 20, 1 << 62]),
                    st.sampled_from([1, 2, 3, 4, 0, 9, -7]),
                    st.sampled_from([0, 1, 2, 5, -2, 1 << 21, (1 << 62) + 1]),
                ),
                max_size=25,
            ),
            max_size=5,
        ),
        block_points=st.integers(1, 80),
    )
    def test_property(self, frames, block_points):
        scene = {
            f: tuple(np.array([p[k] for p in points], dtype=np.int64) for k in range(4))
            for f, points in enumerate(frames)
        }
        pred, gt = labels_from_scene(scene)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK_POINTS", block_points)
            assert_same_as_loops(pred, gt, CM)



@pytest.fixture(scope="module")
def long_sequence():
    """250 scans of 2200 points, the size of the benchmark's eval sequence,
    with predictions that flip semantic labels, switch ids every 25 scans
    and give random points fresh ids."""
    seq = synth.generate_sequence(
        synth.SceneSpec(
            seed=11,
            num_frames=250,
            num_thing_objects=6,
            points_per_object=200,
            points_per_stuff=1000,
            arena_extent=40.0,
        )
    )
    gt = SequenceLabels.from_scans(seq)
    rng = np.random.default_rng(11)
    semantic, instance = {}, {}
    for f in gt.frames:
        sem, inst = gt.semantic[f].copy(), gt.instance[f]
        flip = rng.random(sem.size) < 0.04
        sem[flip] = rng.choice(seq.class_map.all_ids, size=int(flip.sum()))
        inst = np.where(inst > 0, inst + 10 * (f // 25), 0)
        fresh = (inst > 0) & (rng.random(sem.size) < 0.1)
        inst[fresh] = 1000 + f
        semantic[f], instance[f] = sem, inst
    return SequenceLabels(gt.frames, semantic, instance), gt, seq.class_map


class TestLongSequence:
    def test_same_as_loops(self, long_sequence):
        pred, gt, class_map = long_sequence
        assert sum(a.size for a in gt.semantic.values()) > 8 * metrics._BLOCK_POINTS
        rep = evaluate(pred, gt, class_map)
        assert rep == loop_evaluate(pred, gt, class_map)
        assert 0.0 < rep.lstq < 1.0 and 0.0 < rep.pq < 1.0

    def test_peak_memory_bounded(self, long_sequence):
        pred, gt, class_map = long_sequence
        tracemalloc.start()
        try:
            evaluate(pred, gt, class_map)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

import dataclasses

import numpy as np
import pytest

from panoptic4d.config import desk_preset
from panoptic4d.geometry import LidarScan
from panoptic4d.inference import run_sequence
from panoptic4d.model import PanopticModel, prepare_window
from panoptic4d.pipeline import (
    evaluate_prediction,
    model_predictor,
    predict_sequence,
    write_prediction,
)
from panoptic4d.sequence import ScanSequence, load_sequence
from panoptic4d.synth import SceneSpec, generate_sequence
from panoptic4d.training import train_model

from test_inference import gt_stub_predictor


@pytest.fixture(scope="module")
def small():
    cfg = desk_preset(
        voxel_size=1.0,
        num_queries=6,
        dim=16,
        num_heads=2,
        num_rounds=1,
        ffn_width=24,
        num_frequencies=2,
        backbone_depth=2,
        backbone_widths=(8, 12),
        steps=60,
        max_lr=1e-3,
    )
    seq = generate_sequence(
        SceneSpec(seed=2, num_frames=3, num_thing_objects=2,
                  points_per_object=40, points_per_stuff=90)
    )
    model = PanopticModel(cfg.model_config(), init_seed=0)
    train_model(model, seq, cfg)
    return cfg, seq, model


def test_predict_sequence_covers_everything(small):
    cfg, seq, model = small
    pred = predict_sequence(model, seq, cfg)
    assert pred.frames == [0, 1, 2]
    for scan in seq.scans:
        f = scan.frame_index
        assert pred.semantic[f].shape == (scan.num_points,)
        thing_sel = np.isin(pred.semantic[f], cfg.thing_classes)
        assert np.all(pred.instance[f][thing_sel] > 0)
        assert np.all(pred.instance[f][~thing_sel] == 0)


def test_sparse_window_gets_labels_for_every_point(small):
    cfg, seq, model = small
    # the last window holds three points, fewer voxels than queries
    sparse = [LidarScan(points=seq.scans[2].points[:n], frame_index=f) for n, f in ((2, 2), (1, 3))]
    scans = list(seq.scans[:2]) + sparse
    poses = list(seq.poses[:2]) + [seq.poses[2], seq.poses[2]]
    assert prepare_window(sparse, poses[2:], cfg.voxel_size).grid.num_voxels < cfg.num_queries
    pred = predict_sequence(model, ScanSequence(scans, poses, seq.class_map), cfg)
    assert pred.frames == [0, 1, 2, 3]
    for scan in scans:
        f = scan.frame_index
        assert pred.semantic[f].shape == pred.instance[f].shape == (scan.num_points,)
        assert np.isin(pred.semantic[f], seq.class_map.all_ids).all()
        thing_sel = np.isin(pred.semantic[f], cfg.thing_classes)
        assert np.all(pred.instance[f][thing_sel] > 0)
        assert np.all(pred.instance[f][~thing_sel] == 0)


def empty_middle_sequence(seq):
    """Four frames whose frames 1 and 2 have no points: the window over
    frames 1-2 is empty."""
    empty = [LidarScan(points=np.zeros((0, 3)), frame_index=f) for f in (1, 2)]
    scans = [seq.scans[0], *empty, LidarScan(points=seq.scans[2].points, frame_index=3)]
    poses = [seq.poses[0], seq.poses[1], seq.poses[2], seq.poses[2]]
    return ScanSequence(scans, poses, seq.class_map)


def test_all_empty_window_gets_empty_labels(small, monkeypatch):
    cfg, seq, model = small
    seq4 = empty_middle_sequence(seq)
    windows = []
    forward = PanopticModel.forward

    def counting_forward(self, window):
        windows.append(window.frames)
        return forward(self, window)

    monkeypatch.setattr(PanopticModel, "forward", counting_forward)
    pred = predict_sequence(model, seq4, cfg)
    assert windows == [[0, 1], [2, 3]]
    assert pred.frames == [0, 1, 2, 3]
    for scan in seq4.scans:
        f = scan.frame_index
        assert pred.semantic[f].shape == pred.instance[f].shape == (scan.num_points,)
        assert pred.semantic[f].dtype == pred.instance[f].dtype == np.int64
        assert np.isin(pred.semantic[f], seq.class_map.all_ids).all()


def test_report_in_range(small):
    cfg, seq, model = small
    rep = evaluate_prediction(predict_sequence(model, seq, cfg), seq)
    for value in rep.as_row().values():
        assert 0.0 <= value <= 1.0


def test_window_one_gives_3d_panoptic_mode(small):
    cfg, seq, model = small
    cfg1 = dataclasses.replace(cfg, window=1, stride=1)
    pred = predict_sequence(model, seq, cfg1)
    assert pred.frames == [0, 1, 2]
    # no tracking context: instance ids never repeat across scans
    seen: set[int] = set()
    for f in pred.frames:
        ids = {int(i) for i in pred.instance[f] if i > 0}
        assert not ids & seen
        seen |= ids
    rep = evaluate_prediction(pred, seq)
    assert 0.0 <= rep.pq <= 1.0


def test_window_one_with_stub_gives_perfect_pq(small):
    _, seq, _ = small
    pred = run_sequence(gt_stub_predictor(), seq, window=1, stride=1)
    rep = evaluate_prediction(pred, seq)
    assert rep.pq == 1.0 and rep.sq == 1.0 and rep.rq == 1.0
    assert rep.s_cls == 1.0


def test_no_dbscan_flag_changes_only_instances(small):
    cfg, seq, model = small
    pred_a = predict_sequence(model, seq, cfg)
    pred_b = predict_sequence(model, seq, dataclasses.replace(cfg, use_dbscan=False))
    for f in pred_a.frames:
        np.testing.assert_array_equal(pred_a.semantic[f], pred_b.semantic[f])


def test_write_prediction_round_trip(small, tmp_path):
    cfg, seq, model = small
    pred = predict_sequence(model, seq, cfg)
    out = str(tmp_path / "pred")
    created = write_prediction(pred, out)
    assert len(created) == 3
    from panoptic4d import kitti_io

    for scan in seq.scans:
        sem, inst = kitti_io.read_labels(
            kitti_io.label_path(out, scan.frame_index), expected_count=scan.num_points
        )
        np.testing.assert_array_equal(sem, pred.semantic[scan.frame_index])
        np.testing.assert_array_equal(inst, pred.instance[scan.frame_index])


def test_model_predictor_deterministic(small):
    cfg, seq, model = small
    predict = model_predictor(model, cfg)
    a = predict(seq.scans[:2], seq.poses[:2], [0, 1])
    b = predict(seq.scans[:2], seq.poses[:2], [0, 1])
    for f in (0, 1):
        np.testing.assert_array_equal(a.semantic[f], b.semantic[f])
        np.testing.assert_array_equal(a.instance[f], b.instance[f])


def test_production_defaults_forward_pass():
    """The full-scale RunConfig defaults (5 cm voxels, 100 queries) must at
    least run a forward pass on a small scene."""
    from panoptic4d.config import RunConfig
    from panoptic4d.model import prepare_window

    cfg = RunConfig()
    seq = generate_sequence(
        SceneSpec(seed=3, num_frames=2, num_thing_objects=1,
                  points_per_object=60, points_per_stuff=120)
    )
    model = PanopticModel(cfg.model_config(), init_seed=0)
    data = prepare_window(seq.scans, seq.poses, cfg.voxel_size)
    assert data.grid.num_voxels >= cfg.num_queries
    from panoptic4d.autodiff import no_grad

    with no_grad():
        fwd = model.forward(data)
    assert fwd.final.heatmap_logits.shape == (100, data.grid.num_voxels)
    assert len(fwd.outputs) == cfg.num_rounds * cfg.backbone_depth + 1


@pytest.mark.parametrize("use_dbscan", [False, True])
@pytest.mark.parametrize("min_pts", [1, 3])
def test_one_dbscan_call_per_window(small, monkeypatch, min_pts, use_dbscan):
    import panoptic4d.inference as inference
    import panoptic4d.pipeline as pipeline

    cfg, seq, model = small
    dbscan_calls, extract_calls, windows = [], [], []
    real_dbscan, real_extract = inference.dbscan, pipeline.extract_panoptic
    real_cut = pipeline.frame_labels

    def dbscan_spy(*args, **kwargs):
        dbscan_calls.append(args[0].shape[0])
        return real_dbscan(*args, **kwargs)

    def extract_spy(*args, **kwargs):
        extract_calls.append(args[1].num_voxels)
        return real_extract(*args, **kwargs)

    def cut_spy(*args, **kwargs):
        windows.append(args[3])
        return real_cut(*args, **kwargs)

    monkeypatch.setattr(inference, "dbscan", dbscan_spy)
    monkeypatch.setattr(pipeline, "extract_panoptic", extract_spy)
    monkeypatch.setattr(pipeline, "frame_labels", cut_spy)
    run_cfg = dataclasses.replace(
        cfg, window=2, stride=1, dbscan_min_pts=min_pts, use_dbscan=use_dbscan
    )
    predict_sequence(model, seq, run_cfg)
    assert windows == [[0, 1], [1, 2]]  # one cut per window
    assert len(extract_calls) == len(windows)
    assert len(dbscan_calls) == (len(windows) if use_dbscan else 0)

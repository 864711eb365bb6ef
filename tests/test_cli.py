import os
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from panoptic4d import kitti_io, metrics
from panoptic4d.cli import main
from panoptic4d.config import config_to_text, desk_preset
from panoptic4d.errors import ArityError, ContractError, FormatError, MissingLabelsError

from oracles import scan_loading_eval


@pytest.fixture(scope="module")
def tiny_cfg_text():
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
        steps=30,
        max_lr=1e-3,
    )
    return config_to_text(cfg)


@pytest.fixture(scope="module")
def scene_spec_text():
    return (
        "seed = 4\nnum_frames = 3\nnum_thing_objects = 2\n"
        "points_per_object = 40\npoints_per_stuff = 90\n"
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, tiny_cfg_text, scene_spec_text):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(tiny_cfg_text)
    spec_path = root / "scene.cfg"
    spec_path.write_text(scene_spec_text)
    seq_dir = root / "seq"
    assert main(["generate", "--spec", str(spec_path), "--out", str(seq_dir)]) == 0
    train_dir = root / "train"
    assert (
        main(
            [
                "train", "--config", str(cfg_path), "--sequence", str(seq_dir),
                "--out", str(train_dir),
            ]
        )
        == 0
    )
    return root


def test_generate_layout(workspace):
    seq = workspace / "seq"
    assert sorted(os.listdir(seq / "velodyne")) == ["000000.bin", "000001.bin", "000002.bin"]
    assert sorted(os.listdir(seq / "labels")) == [
        "000000.label", "000001.label", "000002.label",
    ]
    assert (seq / "poses.txt").exists()


def test_generate_deterministic(workspace, tmp_path, scene_spec_text):
    spec_path = tmp_path / "scene.cfg"
    spec_path.write_text(scene_spec_text)
    out = tmp_path / "again"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
    for name in ("velodyne/000001.bin", "labels/000002.label", "poses.txt"):
        a = (workspace / "seq" / name).read_bytes()
        b = (out / name).read_bytes()
        assert a == b


def test_train_outputs(workspace):
    train = workspace / "train"
    assert (train / "model.ckpt").exists()
    lines = (train / "loss.csv").read_text().splitlines()
    assert lines[0].startswith("step,lr,loss_total")
    assert len(lines) == 31


def test_infer_eval_roundtrip(workspace):
    pred_dir = workspace / "pred"
    rc = main(
        [
            "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(workspace / "seq"), "--out", str(pred_dir),
        ]
    )
    assert rc == 0
    assert sorted(os.listdir(pred_dir / "labels")) == [
        "000000.label", "000001.label", "000002.label",
    ]
    csv_path = workspace / "report.csv"
    rc = main(
        [
            "eval", "--pred", str(pred_dir), "--gt", str(workspace / "seq"),
            "--out", str(csv_path),
        ]
    )
    assert rc == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "name,LSTQ,S_assoc,S_cls,IoU_St,IoU_Th,PQ,SQ,RQ"
    values = csv_path.read_text().splitlines()[1].split(",")[1:]
    assert all(0.0 <= float(v) <= 1.0 for v in values)


def test_eval_identity_is_perfect(workspace):
    csv_path = workspace / "self.csv"
    rc = main(
        [
            "eval", "--pred", str(workspace / "seq"), "--gt", str(workspace / "seq"),
            "--out", str(csv_path),
        ]
    )
    assert rc == 0
    row = dict(
        zip(
            csv_path.read_text().splitlines()[0].split(","),
            csv_path.read_text().splitlines()[1].split(","),
        )
    )
    assert float(row["LSTQ"]) == 1.0
    assert float(row["PQ"]) == 1.0


def test_infer_deterministic(workspace, tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    for out in (out1, out2):
        assert (
            main(
                [
                    "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
                    "--sequence", str(workspace / "seq"), "--out", str(out),
                ]
            )
            == 0
        )
    for name in os.listdir(out1 / "labels"):
        assert (out1 / "labels" / name).read_bytes() == (out2 / "labels" / name).read_bytes()


def test_inspect_writes_ply(workspace, tmp_path):
    ply = tmp_path / "view.ply"
    rc = main(
        [
            "inspect", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(workspace / "seq"), "--out", str(ply),
        ]
    )
    assert rc == 0
    text = ply.read_text().splitlines()
    assert text[0] == "ply"
    n = int([l for l in text if l.startswith("element vertex")][0].split()[-1])
    assert n > 0 and len(text) == 10 + n


@pytest.mark.parametrize("start, code", [(-1, 2), (1, 0), (2, 2)])
def test_inspect_window_start_range(workspace, tmp_path, capsys, start, code):
    # 3 scans and a window-2 checkpoint: the valid starts are 0 and 1
    ply = tmp_path / "view.ply"
    rc = main(
        [
            "inspect", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(workspace / "seq"), "--window-start", str(start),
            "--out", str(ply),
        ]
    )
    assert rc == code
    assert ply.exists() == (code == 0)
    if code:
        assert f"window start {start} outside [0, 1]" in capsys.readouterr().err


def test_error_exit_code_and_cleanup(workspace, tmp_path, capsys):
    rc = main(
        [
            "infer", "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--sequence", str(workspace / "seq"), "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_eval_unexpected_scan_name_names_the_directory(workspace, tmp_path, capsys):
    gt = tmp_path / "gt"
    shutil.copytree(workspace / "seq", gt)
    (gt / "velodyne" / "abc.bin").write_bytes(b"")
    rc = main(
        [
            "eval", "--pred", str(workspace / "seq"), "--gt", str(gt),
            "--out", str(tmp_path / "report.csv"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {gt / 'velodyne'}: unexpected scan file name 'abc.bin'" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command", ["eval", "infer", "train"])
def test_aliased_scan_name_fails_before_any_output(workspace, tmp_path, capsys, command):
    # 1.bin would name frame 1 a second time, beside 000001.bin
    seq = tmp_path / "seq"
    shutil.copytree(workspace / "seq", seq)
    shutil.copy(seq / "velodyne" / "000001.bin", seq / "velodyne" / "1.bin")
    out = tmp_path / "out"
    args = {
        "eval": ["--pred", str(workspace / "seq"), "--gt", str(seq)],
        "infer": ["--checkpoint", str(workspace / "train" / "model.ckpt"), "--sequence", str(seq)],
        "train": ["--config", str(workspace / "run.cfg"), "--sequence", str(seq)],
    }[command]
    assert main([command, *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{seq / 'velodyne'}: unexpected scan file name '1.bin'" in err
    assert not out.exists()


def test_eval_missing_gt_label_names_frame_and_directory(workspace, tmp_path, capsys):
    gt = tmp_path / "gt"
    shutil.copytree(workspace / "seq", gt)
    (gt / "labels" / "000002.label").unlink()
    rc = main(
        [
            "eval", "--pred", str(workspace / "seq"), "--gt", str(gt),
            "--out", str(tmp_path / "report.csv"),
        ]
    )
    assert rc == 1
    assert f"error: {gt}: frame 2 has no ground-truth labels" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def eval_dirs(workspace, tmp_path):
    """A copy of the workspace sequence as ground truth and of its labels as
    the prediction."""
    gt, pred = tmp_path / "gt", tmp_path / "pred"
    shutil.copytree(workspace / "seq", gt)
    shutil.copytree(workspace / "seq" / "labels", pred / "labels")
    return gt, pred


def eval_fails_before_scoring(gt, pred, tmp_path, monkeypatch, capsys, error, message):
    """`evaluate` over the two directories raises `error` matching `message`
    before any label file is read, and the eval command exits 1 with that
    message and leaves no report."""
    reads = []
    read_labels = kitti_io.read_labels

    def counted(*args, **kwargs):
        reads.append(args[0])
        return read_labels(*args, **kwargs)

    monkeypatch.setattr(kitti_io, "read_labels", counted)
    with pytest.raises(error, match=re.escape(message)):
        metrics.evaluate(
            kitti_io.LabelFiles(str(pred), "predicted"),
            kitti_io.LabelFiles(str(gt), "ground-truth"),
            desk_preset().class_map(),
        )
    report = tmp_path / "report.csv"
    rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(report)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert reads == []
    assert not report.exists()


def truncate(path, nbytes):
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) + nbytes)


def test_eval_missing_pred_label_is_a_typed_error(workspace, tmp_path, monkeypatch, capsys):
    gt, pred = eval_dirs(workspace, tmp_path)
    path = pred / "labels" / "000001.label"
    path.unlink()
    eval_fails_before_scoring(
        gt, pred, tmp_path, monkeypatch, capsys, MissingLabelsError,
        f"{pred}: frame 1 has no predicted labels ({path} not found)",
    )


@pytest.mark.parametrize("side", ["gt", "pred"])
def test_eval_truncated_label_is_a_format_error_at_its_offset(
    workspace, tmp_path, monkeypatch, capsys, side
):
    gt, pred = eval_dirs(workspace, tmp_path)
    path = dict(gt=gt, pred=pred)[side] / "labels" / "000002.label"
    truncate(path, -2)
    offset = os.path.getsize(path) - 2
    eval_fails_before_scoring(
        gt, pred, tmp_path, monkeypatch, capsys, FormatError,
        f"label file {path} is not a whole number of 4-byte records (at byte offset {offset})",
    )


def test_eval_label_count_must_match_the_scan_size(workspace, tmp_path, monkeypatch, capsys):
    gt, pred = eval_dirs(workspace, tmp_path)
    truncate(gt / "velodyne" / "000001.bin", -16)
    n = os.path.getsize(gt / "labels" / "000001.label") // 4
    eval_fails_before_scoring(
        gt, pred, tmp_path, monkeypatch, capsys, ArityError,
        f"label file {gt / 'labels' / '000001.label'} has {n} records, expected {n - 1}",
    )


def test_eval_scan_size_must_be_whole_records(workspace, tmp_path, monkeypatch, capsys):
    gt, pred = eval_dirs(workspace, tmp_path)
    path = gt / "velodyne" / "000002.bin"
    offset = os.path.getsize(path)
    truncate(path, 5)
    eval_fails_before_scoring(
        gt, pred, tmp_path, monkeypatch, capsys, FormatError,
        f"scan file {path} is not a whole number of 16-byte records (at byte offset {offset})",
    )


@pytest.mark.parametrize("side", ["gt", "pred"])
@pytest.mark.parametrize("name", ["000007.label", "abc.label"])
def test_eval_rejects_a_label_file_of_no_frame(workspace, tmp_path, monkeypatch, capsys, side, name):
    """A label file that names a frame the ground truth lacks, or no frame
    at all, fails on either side instead of being skipped."""
    gt, pred = eval_dirs(workspace, tmp_path)
    labels = dict(gt=gt, pred=pred)[side] / "labels"
    shutil.copy(labels / "000001.label", labels / name)
    kind = dict(gt="ground-truth", pred="predicted")[side]
    eval_fails_before_scoring(
        gt, pred, tmp_path, monkeypatch, capsys, ContractError,
        f"{labels}: {name!r} is not the {kind} label file of any frame",
    )


def test_generate_into_another_sequence_fails_leaving_it_whole(tmp_path, capsys):
    """A 4-frame sequence written over a 6-frame one would leave two of the
    old scans beside four new poses; rewriting the same sequence works."""
    spec = tmp_path / "six.cfg"
    spec.write_text("num_frames = 6\n")
    seq = tmp_path / "seq"
    assert main(["generate", "--spec", str(spec), "--seed", "1", "--out", str(seq)]) == 0
    before = {p: p.read_bytes() for p in seq.rglob("*") if p.is_file()}
    assert main(["generate", "--seed", "2", "--out", str(seq)]) == 1
    assert (
        f"error: {seq / 'velodyne'}: '000004.bin' is not a file of this sequence; "
        "write it to a new directory"
    ) in capsys.readouterr().err
    assert {p: p.read_bytes() for p in seq.rglob("*") if p.is_file()} == before
    assert main(["generate", "--spec", str(spec), "--seed", "1", "--out", str(seq)]) == 0
    assert {p: p.read_bytes() for p in seq.rglob("*") if p.is_file()} == before


def test_infer_beside_labels_of_other_frames_writes_nothing(workspace, tmp_path, capsys):
    out = tmp_path / "pred"
    (out / "labels").mkdir(parents=True)
    (out / "labels" / "000007.label").write_bytes(b"")
    rc = main(
        [
            "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(workspace / "seq"), "--out", str(out),
        ]
    )
    assert rc == 1
    assert (
        f"error: {out / 'labels'}: '000007.label' is not a file of this prediction; "
        "write it to a new directory"
    ) in capsys.readouterr().err
    assert os.listdir(out / "labels") == ["000007.label"]


def test_eval_reads_no_points_and_no_poses(workspace, tmp_path, monkeypatch):
    """eval needs only label files and scan sizes: scans full of NaN and an
    unreadable poses.txt score as the intact sequence does."""
    gt, pred = eval_dirs(workspace, tmp_path)
    intact = tmp_path / "intact.csv"
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(intact)]) == 0
    for name in os.listdir(gt / "velodyne"):
        path = gt / "velodyne" / name
        path.write_bytes(np.full(os.path.getsize(path) // 4, np.nan, dtype="<f4").tobytes())
    (gt / "poses.txt").write_text("not a pose\n")

    def forbidden(*args, **kwargs):
        raise AssertionError("eval read points or poses")

    monkeypatch.setattr(kitti_io, "read_scan", forbidden)
    monkeypatch.setattr(kitti_io, "read_poses", forbidden)
    broken = tmp_path / "broken.csv"
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(broken)]) == 0
    assert broken.read_text() == intact.read_text()


def test_eval_csv_equals_the_scan_loading_reference(workspace, tmp_path):
    """The CLI's report against the earlier path that loaded every scan and
    pose of the ground truth, on predictions that differ from it."""
    gt, pred = eval_dirs(workspace, tmp_path)
    rng = np.random.default_rng(0)
    class_ids = desk_preset().class_map().all_ids
    for name in os.listdir(pred / "labels"):
        sem, inst = kitti_io.read_labels(str(pred / "labels" / name))
        flip = rng.random(sem.size) < 0.2
        sem[flip] = rng.choice(class_ids, size=int(flip.sum()))
        inst[rng.random(sem.size) < 0.2] = 7
        kitti_io.write_labels(str(pred / "labels" / name), sem, inst)
    report = tmp_path / "report.csv"
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(report)]) == 0
    want = scan_loading_eval(str(pred), str(gt), desk_preset().class_map())
    assert 0.0 < want.lstq < 1.0
    assert report.read_text() == metrics.report_csv({"sequence": want})


def write_label_sequence(root, num_frames, points, rng):
    """A ground-truth directory of `num_frames` scans of `points` points each
    (the .bin files hold zeros: eval reads only their size) and a
    prediction directory: 16 objects of two thing classes, ids kept across
    scans, 4% ignore labels, and predictions that flip 5% of the classes
    and move 5% of the points to another id."""
    class_ids = np.array(desk_preset().class_map().all_ids)
    gt, pred = root / "gt", root / "pred"
    for d in (gt / "velodyne", gt / "labels", pred / "labels"):
        d.mkdir(parents=True)
    for f in range(num_frames):
        with open(kitti_io.scan_path(gt, f), "wb") as out:
            out.truncate(points * kitti_io.SCAN_RECORD_BYTES)
        inst = rng.integers(0, 17, size=points)
        sem = np.where(inst > 0, 1 + inst % 2, rng.choice(class_ids, size=points))
        inst = np.where(np.isin(sem, (1, 2)), inst, 0)
        sem[rng.random(points) < 0.04] = 255
        kitti_io.write_labels(kitti_io.label_path(gt, f), sem, inst)
        flip = rng.random(points) < 0.05
        sem = np.where(flip, rng.choice(class_ids, size=points), sem)
        inst = np.where(rng.random(points) < 0.05, rng.integers(0, 40, size=points), inst)
        kitti_io.write_labels(kitti_io.label_path(pred, f), np.where(sem == 255, 3, sem), inst)
    return gt, pred


def test_eval_memory_does_not_grow_with_sequence_length(tmp_path):
    """The tracemalloc peak of a 200-scan eval stays within 1.25x of a
    20-scan one. 12k-point scans make the 20-scan run span about four
    2^16-point blocks, so both runs hold full blocks."""
    peaks = {}
    for num_frames in (20, 200):
        gt, pred = write_label_sequence(
            tmp_path / str(num_frames), num_frames, 12_000, np.random.default_rng(num_frames)
        )
        argv = ["eval", "--pred", str(pred), "--gt", str(gt)]
        assert main(argv) == 0  # warm: imports, logging and numpy set-up
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[num_frames] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] <= 1.25 * peaks[20], peaks


def test_train_missing_label_names_the_directory(workspace, tmp_path, capsys):
    seq = tmp_path / "seq"
    shutil.copytree(workspace / "seq", seq)
    (seq / "labels" / "000002.label").unlink()
    out = tmp_path / "run"
    rc = main(
        ["train", "--config", str(workspace / "run.cfg"), "--sequence", str(seq), "--out", str(out)]
    )
    assert rc == 1
    assert f"error: {seq}: training sequence 0: frame 2 has no labels" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


def test_train_requires_sequence(tmp_path, tiny_cfg_text):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_cfg_text)
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_ablate_emits_four_rows(tmp_path, tiny_cfg_text, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_cfg_text.replace("steps = 30", "steps = 15"))
    csv_path = tmp_path / "ablation.csv"
    rc = main(
        [
            "ablate", "--config", str(cfg_path), "--train-scenes", "1",
            "--eval-scenes", "2", "--out", str(csv_path),
        ]
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "row,box_loss,dbscan,LSTQ,S_cls,S_assoc"
    assert len(lines) == 5
    flags = [tuple(l.split(",")[1:3]) for l in lines[1:]]
    assert flags == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    table = capsys.readouterr().out
    assert "S_assoc" in table


@pytest.mark.parametrize("train_scenes, eval_scenes, bad", [(1, 0, "eval_scenes"), (0, 1, "train_scenes")])
def test_ablation_rejects_no_scenes_before_any_work(monkeypatch, train_scenes, eval_scenes, bad):
    from panoptic4d import cli
    from panoptic4d.errors import ParameterError

    calls = []
    monkeypatch.setattr(cli, "generate_sequence", lambda *a: calls.append("generate"))
    monkeypatch.setattr(cli, "train_model", lambda *a: calls.append("train"))
    with pytest.raises(ParameterError, match=bad):
        cli.run_ablation(desk_preset(steps=3), train_scenes=train_scenes, eval_scenes=eval_scenes)
    assert calls == []


def test_train_byte_deterministic(workspace, tmp_path, tiny_cfg_text):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_cfg_text.replace("steps = 30", "steps = 10"))
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        rc = main(
            [
                "train", "--config", str(cfg_path),
                "--sequence", str(workspace / "seq"), "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
    assert (outs[0] / "loss.csv").read_text() == (outs[1] / "loss.csv").read_text()


def test_infer_unwritable_ids_leave_no_label_file(workspace, tmp_path, monkeypatch, capsys):
    # frame 1 carries an instance id that does not fit the 16-bit label field
    from panoptic4d import cli
    from panoptic4d.metrics import SequenceLabels

    def stub_predict_sequence(model, seq, cfg):
        pred = SequenceLabels(frames=[s.frame_index for s in seq.scans])
        for scan in seq.scans:
            n = scan.num_points
            pred.semantic[scan.frame_index] = np.ones(n, dtype=np.int64)
            pred.instance[scan.frame_index] = np.full(n, 2**16 if scan.frame_index == 1 else 3)
        return pred

    monkeypatch.setattr(cli, "predict_sequence", stub_predict_sequence)
    out = tmp_path / "pred"
    rc = main(
        [
            "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(workspace / "seq"), "--out", str(out),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "frame 1" in err and "000001.label" in err and "16 bits" in err
    assert not [name for _, _, files in os.walk(out) for name in files if name.endswith(".label")]


def test_infer_all_empty_window_writes_empty_labels(workspace, tmp_path):
    from panoptic4d.sequence import load_sequence, save_sequence

    from test_pipeline import empty_middle_sequence

    seq = load_sequence(str(workspace / "seq"), desk_preset().class_map())
    seq_dir = tmp_path / "seq"
    save_sequence(empty_middle_sequence(seq), str(seq_dir), write_labels=False)
    out = tmp_path / "pred"
    rc = main(
        [
            "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(seq_dir), "--out", str(out),
        ]
    )
    assert rc == 0
    sizes = [(out / "labels" / f"{f:06d}.label").stat().st_size for f in range(4)]
    assert sizes[1:3] == [0, 0]
    assert sizes[0] == 4 * seq.scans[0].num_points
    assert sizes[3] == 4 * seq.scans[2].num_points


def test_infer_rejects_bad_pose_before_any_forward(workspace, tmp_path, monkeypatch, capsys):
    from panoptic4d.model import PanopticModel
    from panoptic4d.sequence import save_sequence
    from panoptic4d.synth import SceneSpec, generate_sequence

    seq_dir = tmp_path / "seq"
    save_sequence(
        generate_sequence(
            SceneSpec(seed=4, num_frames=6, num_thing_objects=2, points_per_object=40,
                      points_per_stuff=90)
        ),
        str(seq_dir),
    )
    poses = (seq_dir / "poses.txt").read_text().splitlines()
    fields = poses[4].split()
    fields[0] = repr(float(fields[0]) + 0.5)  # line 5: rotation no longer orthonormal
    poses[4] = " ".join(fields)
    (seq_dir / "poses.txt").write_text("\n".join(poses) + "\n")

    calls = []
    forward = PanopticModel.forward

    def counting_forward(self, window):
        calls.append(window.frames)
        return forward(self, window)

    monkeypatch.setattr(PanopticModel, "forward", counting_forward)
    rc = main(
        [
            "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(seq_dir), "--out", str(tmp_path / "pred"),
        ]
    )
    assert rc == 1
    assert calls == []
    err = capsys.readouterr().err
    assert "poses.txt" in err and "line 5" in err and "orthonormal" in err


def test_infer_rejects_a_point_beyond_int64_voxels_writing_nothing(workspace, tmp_path, capsys):
    """A translation of 1e19 m puts every point past the int64 voxel range;
    voxel indices used to wrap silently and infer wrote labels from them."""
    seq_dir = tmp_path / "seq"
    assert main(["generate", "--out", str(seq_dir)]) == 0
    poses = [line.split() for line in (seq_dir / "poses.txt").read_text().splitlines()]
    for fields in poses:
        fields[3] = "1e19"  # x translation
    (seq_dir / "poses.txt").write_text("\n".join(" ".join(f) for f in poses) + "\n")
    out = tmp_path / "pred"
    rc = main(
        [
            "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(seq_dir), "--out", str(out),
        ]
    )
    assert rc == 1
    assert "frame 0: point 0 [1e+19, " in capsys.readouterr().err
    assert not out.exists()


def test_infer_overrides_are_validated_together(workspace, tmp_path):
    # a window-4 stride-3 checkpoint run as window 2, stride 1: valid only as a whole
    from panoptic4d.model import PanopticModel
    from panoptic4d.training import save_model

    cfg = desk_preset(
        window=4, stride=3, num_queries=6, dim=16, num_heads=2, num_rounds=1, ffn_width=24,
        num_frequencies=2, backbone_depth=2, backbone_widths=(8, 12),
    )
    ckpt = tmp_path / "model.ckpt"
    save_model(str(ckpt), PanopticModel(cfg.model_config(), init_seed=0), cfg)
    rc = main(
        [
            "infer", "--checkpoint", str(ckpt), "--sequence", str(workspace / "seq"),
            "--window", "2", "--stride", "1", "--out", str(tmp_path / "pred"),
        ]
    )
    assert rc == 0
    assert len(os.listdir(tmp_path / "pred" / "labels")) == 3


def test_infer_single_scan_windows_need_stride_one(workspace, tmp_path, monkeypatch, capsys):
    # window 1, stride 3 used to label only some frames and exit 0
    from panoptic4d.model import PanopticModel

    calls = []
    forward = PanopticModel.forward

    def counting_forward(self, window):
        calls.append(window.frames)
        return forward(self, window)

    monkeypatch.setattr(PanopticModel, "forward", counting_forward)
    out = tmp_path / "pred"
    rc = main(
        [
            "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(workspace / "seq"), "--window", "1", "--stride", "3",
            "--out", str(out),
        ]
    )
    assert rc == 1
    assert calls == []
    assert "stride 3 must be 1 for window 1" in capsys.readouterr().err
    assert not out.exists()


def test_infer_window_longer_than_sequence(workspace, tmp_path):
    # window 4, stride 3 on the 3-scan sequence: one window, nothing to overlap
    out = tmp_path / "pred"
    rc = main(
        [
            "infer", "--checkpoint", str(workspace / "train" / "model.ckpt"),
            "--sequence", str(workspace / "seq"), "--window", "4", "--stride", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert sorted(os.listdir(out / "labels")) == ["000000.label", "000001.label", "000002.label"]


def test_infer_rejects_bad_checkpoint_config_before_any_forward(workspace, tmp_path, monkeypatch, capsys):
    # dbscan_eps = 0 used to load and fail only after window 0's forward pass
    from panoptic4d.model import PanopticModel
    from panoptic4d.optim import load_checkpoint, save_checkpoint

    params, cfg_text = load_checkpoint(str(workspace / "train" / "model.ckpt"))
    assert "dbscan_eps = 1.0\n" in cfg_text
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(str(ckpt), params, cfg_text.replace("dbscan_eps = 1.0\n", "dbscan_eps = 0.0\n"))

    calls = []
    forward = PanopticModel.forward

    def counting_forward(self, window):
        calls.append(window.frames)
        return forward(self, window)

    monkeypatch.setattr(PanopticModel, "forward", counting_forward)
    out = tmp_path / "pred"
    rc = main(
        [
            "infer", "--checkpoint", str(ckpt), "--sequence", str(workspace / "seq"),
            "--out", str(out),
        ]
    )
    assert rc == 1
    assert calls == []
    assert "dbscan_eps" in capsys.readouterr().err
    assert not [name for _, _, files in os.walk(tmp_path) for name in files if name.endswith(".label")]


def test_infer_checkpoint_parameter_mismatch_exits_with_path(workspace, tmp_path, capsys):
    from panoptic4d.optim import load_checkpoint, save_checkpoint

    params, cfg_text = load_checkpoint(str(workspace / "train" / "model.ckpt"))
    del params["query_bias"]
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(str(ckpt), params, cfg_text)
    rc = main(
        [
            "infer", "--checkpoint", str(ckpt), "--sequence", str(workspace / "seq"),
            "--out", str(tmp_path / "pred"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "missing parameter 'query_bias'" in err


@pytest.mark.parametrize(
    "line, bad", [("thing_classes = 70000", "70000"), ("stuff_classes = 3,255", "255")]
)
def test_generate_rejects_unwritable_class_id_leaving_no_file(tmp_path, capsys, line, bad):
    spec = tmp_path / "scene.cfg"
    spec.write_text(f"seed = 1\nnum_frames = 2\n{line}\n")
    out = tmp_path / "seq"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {spec}: class id {bad}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "value, message", [("nan", "must be finite, got nan"), ("-5", "must be >= 4, got -5.0")]
)
def test_generate_rejects_unusable_arena_extent_leaving_no_file(tmp_path, capsys, value, message):
    spec = tmp_path / "scene.cfg"
    spec.write_text(f"seed = 1\nnum_frames = 2\narena_extent = {value}\n")
    out = tmp_path / "seq"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
    assert f"error: {spec}: arena_extent {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_negative_no_object_weight_before_training(
    workspace, tmp_path, tiny_cfg_text, monkeypatch, capsys
):
    monkeypatch.setattr("panoptic4d.cli.train_model", lambda *a, **k: pytest.fail("trained"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny_cfg_text.replace("no_object_weight = 0.1", "no_object_weight = -1"))
    out = tmp_path / "o"
    seq = str(workspace / "seq")
    assert main(["train", "--config", str(cfg), "--sequence", seq, "--out", str(out)]) == 1
    assert f"error: {cfg}: no_object_weight must be >= 0, got -1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (b"voxel_size = 0.8\nfoo = 1\n", "line 2: unknown config key 'foo'"),
        (b"window = 0\n", "window must be >= 1"),
        (b"steps = 3\nwindow = two\n", "line 2: bad value for key 'window': invalid literal"),
        (b"\xff", "config is not UTF-8 text (at byte offset 0)"),
    ],
)
def test_train_config_errors_name_the_file(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text)
    rc = main(
        ["train", "--config", str(cfg), "--sequence", str(tmp_path), "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert f"error: {cfg}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, in_file, argv",
    [
        ("train_seed", "0", ["--seed", "-1"]),
        ("train_seed", "-1", []),
        ("model_seed", "-2", []),
        ("query_seed", "-2", []),
    ],
)
def test_train_rejects_negative_seed_naming_the_key(
    workspace, tmp_path, tiny_cfg_text, monkeypatch, capsys, key, in_file, argv
):
    """A negative seed, given on the command line or in the config file,
    fails at load with its key, before any training."""
    monkeypatch.setattr("panoptic4d.cli.train_model", lambda *a, **k: pytest.fail("trained"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny_cfg_text.replace(f"{key} = 0", f"{key} = {in_file}"))
    out = tmp_path / "o"
    seq = str(workspace / "seq")
    rc = main(["train", "--config", str(cfg), "--sequence", seq, *argv, "--out", str(out)])
    assert rc == 1
    value, prefix = (argv[1], "error: ") if argv else (in_file, f"error: {cfg}: ")
    assert f"{prefix}{key} must be >= 0, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_points_beyond_float32_leaving_no_file(tmp_path, capsys):
    """At 1e200 m per frame the sensor-frame points of frame 1 are finite in
    float64 but not in float32; generate used to write them as inf."""
    spec = tmp_path / "scene.cfg"
    spec.write_text("ego_speed = 1e200\n")
    out = tmp_path / "seq"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
    assert "000001.bin: record 0 [-inf, " in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "seq"
    assert main(["generate", "--seed", "-1", "--out", str(out)]) == 1
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def _corrupt_checkpoint(blob: bytes, how: str) -> tuple[bytes, str]:
    """The checkpoint bytes corrupted one way, and the message that names it.
    Layout: magic 8, version 4, config length 4, config, count 4, then per
    parameter name length 2, name, ..."""
    (cfg_len,) = np.frombuffer(blob[12:16], dtype="<u4")
    name_at = 16 + int(cfg_len) + 4 + 2
    if how == "truncated":
        return blob[:40], "truncated reading config (at byte offset 16)"
    if how == "trailing":
        return blob + b"\0", f"trailing bytes after the parameters (at byte offset {len(blob)})"
    if how == "config not utf-8":
        return blob[:17] + b"\xff" + blob[18:], "config not UTF-8 (at byte offset 17)"
    if how == "name not utf-8":
        bad = blob[:name_at] + b"\xff" + blob[name_at + 1 :]
        return bad, f"name not UTF-8 (at byte offset {name_at})"
    assert how == "class id"
    text = blob[16 : 16 + int(cfg_len)].replace(b"thing_classes = 1,2", b"thing_classes = 1,2,255")
    length = np.array([len(text)], dtype="<u4").tobytes()
    blob = blob[:12] + length + text + blob[16 + int(cfg_len) :]
    return blob, "class id 255"


@pytest.mark.parametrize(
    "how", ["truncated", "trailing", "config not utf-8", "name not utf-8", "class id"]
)
def test_infer_checkpoint_errors_name_the_file(workspace, tmp_path, capsys, how):
    blob, message = _corrupt_checkpoint((workspace / "train" / "model.ckpt").read_bytes(), how)
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(blob)
    out = tmp_path / "pred"
    seq = str(workspace / "seq")
    rc = main(["infer", "--checkpoint", str(ckpt), "--sequence", seq, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: {message}" in err, err
    assert not out.exists()

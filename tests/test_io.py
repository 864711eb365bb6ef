import dataclasses

import numpy as np
import pytest

from panoptic4d import kitti_io
from panoptic4d.errors import ArityError, FormatError, InvalidPoseError, ParameterError
from panoptic4d.geometry import LidarScan, Pose, rot_z
from panoptic4d.sequence import ClassMap, ScanSequence, load_sequence, save_sequence
from panoptic4d.synth import SceneSpec, generate_sequence


def unpack_one(raw: int) -> tuple[int, int]:
    """unpack_labels on a one-element array."""
    sem, inst = kitti_io.unpack_labels(np.array([raw]))
    assert sem.shape == inst.shape == (1,)
    return int(sem[0]), int(inst[0])


def pack_one(semantic: int, instance: int) -> int:
    """pack_labels on one-element arrays."""
    raw = kitti_io.pack_labels(np.array([semantic]), np.array([instance]))
    assert raw.shape == (1,)
    return int(raw[0])


class TestPackLabel:
    def test_known_value(self):
        assert pack_one(10, 3) == 196618 == 3 * 65536 + 10

    def test_zero(self):
        assert pack_one(0, 0) == 0
        assert unpack_one(0) == (0, 0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s = int(rng.integers(0, 2**16))
            i = int(rng.integers(0, 2**16))
            assert unpack_one(pack_one(s, i)) == (s, i)

    def test_overflow(self):
        with pytest.raises(ParameterError):
            pack_one(2**16, 0)
        with pytest.raises(ParameterError):
            pack_one(0, 2**16)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        sem = rng.integers(0, 2**16, size=50)
        inst = rng.integers(0, 2**16, size=50)
        raw = kitti_io.pack_labels(sem, inst)
        for k in range(50):
            assert int(raw[k]) == pack_one(int(sem[k]), int(inst[k]))
            assert int(raw[k]) == int(inst[k]) * 65536 + int(sem[k])
        s2, i2 = kitti_io.unpack_labels(raw)
        np.testing.assert_array_equal(s2, sem)
        np.testing.assert_array_equal(i2, inst)


class TestScanFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 3)).astype(np.float32)
        path = str(tmp_path / "scan.bin")
        kitti_io.write_scan(path, pts)
        back, intensity = kitti_io.read_scan(path)
        np.testing.assert_array_equal(back, pts)
        np.testing.assert_array_equal(intensity, np.zeros(5, dtype=np.float32))

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        kitti_io.write_scan(a, pts)
        back, inten = kitti_io.read_scan(a)
        kitti_io.write_scan(b, back, inten)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_malformed_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FormatError) as exc:
            kitti_io.read_scan(str(path))
        assert exc.value.byte_offset == 16

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected_at_its_record(self, tmp_path, bad):
        pts = np.zeros((6, 3))
        pts[3, 2] = bad
        pts[5, 0] = bad
        intensity = np.full(6, np.nan)  # intensity is not a coordinate
        path = str(tmp_path / "bad.bin")
        # write_scan refuses such points, so the records are written by hand
        np.column_stack([pts, intensity]).astype("<f4").tofile(path)
        with pytest.raises(FormatError, match="bad.bin") as exc:
            kitti_io.read_scan(path)
        assert exc.value.byte_offset == 3 * kitti_io.SCAN_RECORD_BYTES

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39, -1e200])
    def test_write_rejects_a_point_not_finite_in_float32(self, tmp_path, bad):
        pts = np.zeros((6, 3))
        pts[3, 2] = bad
        pts[5, 0] = bad
        path = tmp_path / "bad.bin"
        with pytest.raises(ParameterError, match=r"scan file .*bad.bin: record 3 \[0.0, 0.0, -?(nan|inf)\]"):
            kitti_io.write_scan(str(path), pts)
        assert not path.exists()

    def test_non_finite_intensity_is_read(self, tmp_path):
        path = str(tmp_path / "scan.bin")
        kitti_io.write_scan(path, np.ones((3, 3)), np.array([np.nan, np.inf, 1.0]))
        points, intensity = kitti_io.read_scan(path)
        assert points.tolist() == np.ones((3, 3)).tolist()
        assert np.isnan(intensity[0]) and np.isinf(intensity[1])


class TestLabelFiles:
    def test_round_trip_and_count_check(self, tmp_path):
        path = str(tmp_path / "x.label")
        sem = np.array([1, 2, 3], dtype=np.int64)
        inst = np.array([0, 7, 7], dtype=np.int64)
        kitti_io.write_labels(path, sem, inst)
        s, i = kitti_io.read_labels(path, expected_count=3)
        np.testing.assert_array_equal(s, sem)
        np.testing.assert_array_equal(i, inst)
        with pytest.raises(ArityError):
            kitti_io.read_labels(path, expected_count=4)
        with pytest.raises(ArityError):
            kitti_io.read_labels(path, expected_count=2)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.label"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(FormatError):
            kitti_io.read_labels(str(path))


class TestPoseFiles:
    def test_round_trip_exact(self, tmp_path):
        poses = [
            Pose(rot_z(0.3), [1.25, -3.5, 0.125]),
            Pose(rot_z(-1.2), [100.0, 0.001, -7.0]),
        ]
        path = str(tmp_path / "poses.txt")
        kitti_io.write_poses(path, poses)
        back = kitti_io.read_poses(path)
        assert len(back) == 2
        for a, b in zip(poses, back):
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.translation, b.translation)
        # rewrite is byte-identical
        path2 = str(tmp_path / "poses2.txt")
        kitti_io.write_poses(path2, back)
        assert open(path).read() == open(path2).read()

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 1 0\n")
        with pytest.raises(FormatError):
            kitti_io.read_poses(str(path))

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("2 0 0 0 0 1 0 0 0 0 1 0", "not orthonormal"),
            ("1 0 0 0 0 1 0 0 0 0 -1 0", "determinant"),
            ("1 0 0 nan 0 1 0 0 0 0 1 0", "translation is not finite"),
        ],
    )
    def test_invalid_pose_names_file_and_line(self, tmp_path, bad, reason):
        good = "1 0 0 0 0 1 0 0 0 0 1 0"
        path = tmp_path / "poses.txt"
        path.write_text("\n".join([good, good, bad, good]) + "\n")
        with pytest.raises(InvalidPoseError, match=reason) as info:
            kitti_io.read_poses(str(path))
        assert f"pose line 3 of {path}" in str(info.value)


class TestListFrames:
    def test_frames_are_named_as_scan_path_names_them(self, tmp_path):
        (tmp_path / "velodyne").mkdir()
        for frame in (12, 1234567, 0):
            open(kitti_io.scan_path(str(tmp_path), frame), "wb").close()
        (tmp_path / "velodyne" / "notes.txt").write_text("not a scan")
        assert kitti_io.list_frames(str(tmp_path)) == [0, 12, 1234567]

    # int() reads the first seven as frames 1, 1, 1, 10, -1, 1 and 1, and
    # "\u00b2" (superscript two) is a digit that int() rejects
    @pytest.mark.parametrize(
        "name",
        [
            "1.bin", "+1.bin", "0000001.bin", "1_0.bin", "-1.bin", " 000001.bin",
            "00000\u0661.bin", "-00001.bin", "00000\u00b2.bin", ".bin",
        ],
    )
    def test_any_other_scan_name_is_rejected(self, tmp_path, name):
        scan_dir = tmp_path / "velodyne"
        scan_dir.mkdir()
        (scan_dir / "000001.bin").write_bytes(b"")
        (scan_dir / name).write_bytes(b"")
        with pytest.raises(FormatError) as info:
            kitti_io.list_frames(str(tmp_path))
        assert str(info.value) == f"{scan_dir}: unexpected scan file name {name!r}"

    def test_no_scans(self, tmp_path):
        (tmp_path / "velodyne").mkdir()
        with pytest.raises(ParameterError) as info:
            kitti_io.list_frames(str(tmp_path))
        assert str(info.value) == f"no scans found under {tmp_path}"


@pytest.mark.parametrize("frames, position, before", [([0, 1, 1, 3], 2, 1), ([0, 4, 2], 2, 4)])
def test_scan_sequence_frames_must_increase(frames, position, before):
    scans = [LidarScan(np.zeros((2, 3)), f) for f in frames]
    with pytest.raises(ParameterError) as info:
        ScanSequence(scans, [Pose.identity()] * len(frames), ClassMap((1,), (3,)))
    assert str(info.value) == (
        f"frames must be strictly increasing: position {position} holds frame "
        f"{frames[position]} after frame {before}"
    )


class TestSequenceRoundTrip:
    def test_save_load(self, tmp_path):
        seq = generate_sequence(SceneSpec(seed=5, num_frames=3))
        out = str(tmp_path / "seq")
        save_sequence(seq, out)
        back = load_sequence(out, seq.class_map)
        assert back.num_frames == 3
        for a, b in zip(seq.scans, back.scans):
            np.testing.assert_array_equal(
                a.points.astype(np.float32), b.points.astype(np.float32)
            )
            np.testing.assert_array_equal(a.semantic, b.semantic)
            np.testing.assert_array_equal(a.instance, b.instance)

    def test_partly_labelled_round_trip(self, tmp_path):
        seq = generate_sequence(SceneSpec(seed=5, num_frames=3))
        seq.scans[1] = dataclasses.replace(seq.scans[1], semantic=None, instance=None)
        out = str(tmp_path / "seq")
        created = save_sequence(seq, out)
        assert kitti_io.label_path(out, 1) not in created
        back = load_sequence(out, seq.class_map)
        assert [s.has_labels() for s in back.scans] == [True, False, True]
        for a, b in zip(seq.scans[::2], back.scans[::2]):
            np.testing.assert_array_equal(a.semantic, b.semantic)
            np.testing.assert_array_equal(a.instance, b.instance)

    def test_unwritable_scan_leaves_no_output(self, tmp_path):
        """A coordinate that overflows float32 fails before any directory is made."""
        seq = generate_sequence(SceneSpec(seed=5, num_frames=3))
        points = seq.scans[2].points.copy()
        points[4, 0] = 1e39
        seq.scans[2] = dataclasses.replace(seq.scans[2], points=points)
        out = tmp_path / "seq"
        with pytest.raises(ParameterError, match=r"000002.bin: record 4 \[inf, "):
            save_sequence(seq, str(out))
        assert not out.exists()

    def test_unwritable_labels_leave_no_output(self, tmp_path):
        seq = generate_sequence(SceneSpec(seed=5, num_frames=3))
        seq.scans[2].semantic[4] = 70000
        out = tmp_path / "seq"
        with pytest.raises(ParameterError, match="semantic ids must fit in 16 bits") as info:
            save_sequence(seq, str(out))
        assert f"frame 2 ({kitti_io.label_path(str(out), 2)})" in str(info.value)
        assert not out.exists()

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FormatError):
            load_sequence(str(tmp_path / "nope"), ClassMap((1,), (3,)))

    def test_pose_count_mismatch(self, tmp_path):
        seq = generate_sequence(SceneSpec(seed=6, num_frames=3))
        out = str(tmp_path / "seq")
        save_sequence(seq, out)
        kitti_io.write_poses(kitti_io.poses_path(out), seq.poses[:2])
        with pytest.raises(ArityError):
            load_sequence(out, seq.class_map)

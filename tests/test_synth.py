import numpy as np
import pytest

from panoptic4d.errors import ParameterError
from panoptic4d.synth import SceneSpec, generate_sequence


def test_deterministic_bit_identical():
    a = generate_sequence(SceneSpec(seed=42))
    b = generate_sequence(SceneSpec(seed=42))
    for sa, sb in zip(a.scans, b.scans):
        np.testing.assert_array_equal(sa.points, sb.points)
        np.testing.assert_array_equal(sa.semantic, sb.semantic)
        np.testing.assert_array_equal(sa.instance, sb.instance)
    assert any(
        not np.array_equal(sa.points, sb.points)
        for sa, sb in zip(a.scans, generate_sequence(SceneSpec(seed=43)).scans)
    )


def test_no_things():
    seq = generate_sequence(SceneSpec(seed=1, num_thing_objects=0))
    for scan in seq.scans:
        assert np.all(scan.instance == 0)
        assert np.all(np.isin(scan.semantic, [3, 4]))


def test_single_frame():
    seq = generate_sequence(SceneSpec(seed=2, num_frames=1))
    assert seq.num_frames == 1


def test_zero_frames_rejected():
    with pytest.raises(ParameterError):
        SceneSpec(num_frames=0)


def test_labels_complete_and_stuff_instance_zero():
    seq = generate_sequence(SceneSpec(seed=7))
    cm = seq.class_map
    for scan in seq.scans:
        assert scan.semantic.shape == (scan.num_points,)
        assert scan.instance.shape == (scan.num_points,)
        stuff = np.isin(scan.semantic, cm.stuff_ids)
        assert np.all(scan.instance[stuff] == 0)
        assert np.all(scan.instance[~stuff] > 0)


def test_instance_ids_stable_over_time():
    seq = generate_sequence(SceneSpec(seed=9, num_frames=5, num_thing_objects=2))
    for track in seq.tracks:
        for scan in seq.scans:
            pts = scan.instance == track.instance_id
            if not pts.any():
                continue
            assert np.all(scan.semantic[pts] == track.class_id)
    ids = {t.instance_id for t in seq.tracks}
    assert len(ids) == len(seq.tracks)


def test_hidden_frames_emit_no_points():
    spec = SceneSpec(seed=3, num_frames=4, num_thing_objects=2, hidden=((1, 2),))
    seq = generate_sequence(spec)
    assert not (seq.scans[2].instance == 1).any()
    assert (seq.scans[1].instance == 1).any()
    assert (seq.scans[3].instance == 1).any()


def test_object_points_near_track_center():
    spec = SceneSpec(seed=11, num_frames=3, num_thing_objects=1)
    seq = generate_sequence(spec)
    track = seq.tracks[0]
    for f, scan in enumerate(seq.scans):
        world = seq.poses[f].apply(scan.points)
        sel = scan.instance == track.instance_id
        d = np.linalg.norm(world[sel] - track.centers[f], axis=1)
        assert d.max() <= np.linalg.norm(track.shape) / 2 + 1e-9

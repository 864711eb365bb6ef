import numpy as np
import pytest

from panoptic4d.errors import ParameterError
from panoptic4d.pca import features_to_rgb, top_components, write_ply

from oracles import eig_pca_oracle


def test_components_match_eigendecomposition():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(50, 8)) @ np.diag([5, 3, 2, 1, 0.5, 0.3, 0.2, 0.1])
    comps, proj = top_components(feats, k=3)
    expected, _ = eig_pca_oracle(feats, k=3)
    for c in range(3):
        # match up to sign
        dot = abs(float(comps[c] @ expected[c]))
        assert dot == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(
        proj, (feats - feats.mean(0)) @ comps.T, atol=1e-12
    )


def test_near_equal_top_eigenvalues_match_eigendecomposition():
    """Top two eigenvalues within 1% of each other, where power iteration
    ends about 3 degrees off: the components still match the oracle."""
    rng = np.random.default_rng(3)
    z = rng.normal(size=(400, 6))
    z -= z.mean(axis=0)
    z = z @ np.linalg.inv(np.linalg.cholesky(z.T @ z / 400)).T  # identity covariance
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    feats = (z * np.sqrt([1.0, 0.995, 0.4, 0.2, 0.1, 0.05])) @ basis.T
    comps, _ = top_components(feats, k=3)
    expected, values = eig_pca_oracle(feats, k=3)
    assert 0.99 < values[1] / values[0] < 1.0
    pivot = expected[np.arange(3), np.abs(expected).argmax(axis=1)]
    np.testing.assert_allclose(comps, expected * np.sign(pivot)[:, None], rtol=0, atol=1e-9)


def test_isotropic_3d_projection_spans_full_range():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(200, 3))
    rgb = features_to_rgb(feats)
    assert rgb.shape == (200, 3)
    for c in range(3):
        assert rgb[:, c].min() == 0
        assert rgb[:, c].max() == 255


def test_rank_one_features_give_two_gray_channels():
    rng = np.random.default_rng(2)
    direction = np.array([1.0, 2.0, 3.0, 4.0])
    feats = np.outer(rng.normal(size=30), direction)
    rgb = features_to_rgb(feats)
    assert rgb[:, 0].max() == 255 and rgb[:, 0].min() == 0
    assert np.all(rgb[:, 1] == 128)
    assert np.all(rgb[:, 2] == 128)


@pytest.mark.parametrize("shape", [(5,), (5, 0)])
def test_features_need_two_dimensions_and_a_column(shape):
    with pytest.raises(ParameterError, match="features must be 2-D with a column"):
        top_components(np.zeros(shape))


def test_constant_features_all_gray_with_warning():
    feats = np.ones((10, 4)) * 3.0
    with pytest.warns(UserWarning):
        rgb = features_to_rgb(feats)
    assert np.all(rgb == 128)


def test_ply_output(tmp_path):
    pts = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    rgb = np.array([[255, 0, 0], [0, 255, 0]])
    path = str(tmp_path / "x.ply")
    write_ply(path, pts, rgb)
    lines = open(path).read().splitlines()
    assert lines[0] == "ply"
    assert "element vertex 2" in lines
    assert lines[-1].endswith("0 255 0")
    assert len(lines) == 12

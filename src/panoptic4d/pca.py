"""Feature inspection: top principal components from a symmetric
eigendecomposition, RGB mapping, and ASCII PLY output.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError

_VARIANCE_FLOOR = 1e-12


def top_components(features: np.ndarray, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Leading k principal directions of (n, d) features.

    The eigenvectors of the covariance (np.linalg.eigh) in order of
    decreasing eigenvalue. Signs are fixed by making each component's
    largest-magnitude entry positive. Returns (components (k, d), projections
    (n, k)); components of exhausted variance (eigenvalue at most 1e-12) come
    back as zero rows.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] < 1:
        raise ParameterError(f"features must be 2-D with a column, got shape {features.shape}")
    n, d = features.shape
    if k < 1:
        raise ParameterError("k must be >= 1")
    centered = features - features.mean(axis=0, keepdims=True)
    eigenvalues, vectors = np.linalg.eigh(centered.T @ centered / max(1, n))
    top = vectors[:, ::-1][:, : min(k, d)].T  # eigh sorts eigenvalues ascending
    top = top[eigenvalues[::-1][: min(k, d)] > _VARIANCE_FLOOR]
    pivot = top[np.arange(len(top)), np.argmax(np.abs(top), axis=1)]
    components = np.zeros((k, d))
    components[: len(top)] = top * np.sign(pivot)[:, None]
    return components, centered @ components.T


def features_to_rgb(features: np.ndarray) -> np.ndarray:
    """Map features to (n, 3) uint8 colors via their top-3 principal components.

    Channels without variance come out flat gray; fully constant features give
    an all-gray image with a warning.
    """
    comps, proj = top_components(features, k=3)
    rgb = np.full((features.shape[0], 3), 128, dtype=np.uint8)
    if not comps.any():
        warnings.warn("constant features: emitting all-gray colors")
        return rgb
    for c in range(3):
        col = proj[:, c]
        lo, hi = col.min(), col.max()
        if hi - lo <= _VARIANCE_FLOOR:
            continue
        rgb[:, c] = np.round((col - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return rgb


def write_ply(path: str, points: np.ndarray, colors: np.ndarray) -> None:
    """ASCII PLY with per-vertex position and color."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    colors = np.asarray(colors, dtype=np.int64).reshape(-1, 3)
    if points.shape[0] != colors.shape[0]:
        raise ParameterError("points and colors differ in length")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {points.shape[0]}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for p, c in zip(points, colors):
        lines.append("%.6f %.6f %.6f %d %d %d" % (p[0], p[1], p[2], c[0], c[1], c[2]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")

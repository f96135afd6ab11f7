"""Evaluation metrics: marker RMSE, Chamfer distances, reprojection stats."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .cameras import project
from .errors import (InsufficientCorrespondencesError, NoOverlapError,
                     ParameterError, positive_number)
from .geometry import PointCloud


def marker_rmse(a, b) -> float:
    """RMS of Euclidean residuals over common marker ids, in millimeters.

    Accepts MarkerSet-like objects exposing ``positions`` keyed by id.
    """
    common = sorted(set(a.positions) & set(b.positions))
    if not common:
        raise InsufficientCorrespondencesError("marker sets share no ids")
    return _rms_mm(np.array([a.positions[i] for i in common]),
                   np.array([b.positions[i] for i in common]))


def _rms_mm(a: np.ndarray, b: np.ndarray) -> float:
    """RMS of the Euclidean distances between matching rows of ``a`` and
    ``b`` (metres), in millimetres."""
    return float(np.sqrt(((a - b) ** 2).sum(axis=1).mean()) * 1000.0)


# Smaller kNN queries, counted in (query point, neighbour) pairs, run on one
# thread: there, starting threads costs more than it saves. On 2 CPUs a
# 1,400-point Chamfer direction (k = 1) took 2.1 ms serial and 4.7 ms threaded.
_PARALLEL_MIN_PAIRS = 8192


# (Query point, neighbour) pairs per query block. cKDTree.query returns an
# int64 neighbour index next to each distance, which is never used; in
# blocks, the indices and distances held at once take at most 16.8 MB,
# where a 995,456-point outlier filter (k = 17) held 135 MB of each. On
# 2 CPUs a 90,496-point k = 17 query in 15,420-row blocks took about 15%
# longer than in one call; in 61,680-row blocks it did not.
_QUERY_BLOCK_PAIRS = 2 ** 20


# Points per kd-tree leaf. A sliding-midpoint tree splits into more nodes than
# scipy's median split: over 995,456 uniform points, at scipy's default of 16
# its build took 30.6 MB against the median split's 21.4 MB; at 24 it takes
# 21.6 MB. On the room cloud the outlier filter and Chamfer ran no slower at
# 24 than at 16 or 32.
_LEAF_SIZE = 24


def _kd_tree(points: np.ndarray) -> cKDTree:
    """Sliding-midpoint kd-tree (Maneewongvatana & Mount, 1999): it builds
    faster than scipy's median split and, queried in its own leaf order,
    answers faster too. A point's k nearest distances are exact whatever the
    tree's shape."""
    return cKDTree(points, leafsize=_LEAF_SIZE, balanced_tree=False)


def _nn_distances(src: np.ndarray, tree: cKDTree, k: int,
                  order: np.ndarray | None = None, row_stat=None) -> np.ndarray:
    """Per ``src`` row, in input order: the distance to its nearest ``tree``
    point (k = 1), or ``row_stat`` of the row of distances to its ``k``
    nearest.

    Rows are queried in blocks, taken in ``order`` when given, and each
    block is written back to its rows. The leaf order of a kd-tree over
    ``src`` (``cKDTree.indices``) queries neighbouring points one after
    another: on the 90,496-point room cloud and 2 CPUs, the outlier filter's
    tree build and k = 17 query took 0.15 s, against 0.23 s for a median-split
    tree queried in input order. A large query runs on every CPU. Each row
    is searched on its own, so the result does not depend on the order, the
    blocks or the number of threads.
    """
    n = len(src)
    workers = -1 if n * k >= _PARALLEL_MIN_PAIRS else 1
    step = max(1, _QUERY_BLOCK_PAIRS // k)
    out = np.empty(n)
    for i in range(0, n, step):
        rows = slice(i, i + step) if order is None else order[i:i + step]
        d = tree.query(src[rows], k=k, workers=workers)[0]
        out[rows] = d if row_stat is None else row_stat(d)
    return out


def _directional_mean(src: np.ndarray, dst_tree: cKDTree, max_dist_m: float | None,
                      order: np.ndarray | None = None) -> tuple[float, int, int]:
    d = _nn_distances(src, dst_tree, 1, order)
    if max_dist_m is not None:
        keep = d <= max_dist_m
        n_filtered = int((~keep).sum())
        d = d[keep]
    else:
        n_filtered = 0
    if len(d) == 0:
        raise NoOverlapError("all nearest-neighbor correspondences filtered out")
    return float(d.mean()), len(d), n_filtered


def chamfer(a: PointCloud, b: PointCloud, max_dist_m: float) -> tuple[float, int, int]:
    """Symmetric Chamfer distance in millimeters.

    Each directional mean excludes nearest-neighbor pairs farther than
    ``max_dist_m``; the result averages the two directional means. Returns
    ``(cd_mm, samples_used, samples_filtered)``.
    """
    if len(a) == 0 or len(b) == 0:
        raise ParameterError("chamfer requires non-empty clouds")
    positive_number(max_dist_m, "max_dist_m")
    # each direction queries in the leaf order of the other direction's tree
    tree_a, tree_b = _kd_tree(a.points), _kd_tree(b.points)
    m_ab, used_ab, filt_ab = _directional_mean(a.points, tree_b, max_dist_m,
                                               tree_a.indices)
    m_ba, used_ba, filt_ba = _directional_mean(b.points, tree_a, max_dist_m,
                                               tree_b.indices)
    cd_mm = 0.5 * (m_ab + m_ba) * 1000.0
    return cd_mm, used_ab + used_ba, filt_ab + filt_ba


def chamfer_one_sided(a: PointCloud, b: PointCloud,
                      max_dist_m: float | None = None) -> float:
    """Mean nearest-neighbor distance from ``a`` to ``b``, millimeters."""
    if len(a) == 0 or len(b) == 0:
        raise ParameterError("chamfer requires non-empty clouds")
    if max_dist_m is not None:
        positive_number(max_dist_m, "max_dist_m")
    mean_m, _, _ = _directional_mean(a.points, _kd_tree(b.points), max_dist_m)
    return mean_m * 1000.0


def reprojection_stats(cam, points, pixels) -> tuple[float, float]:
    """Mean and population std of the distances between ``pixels`` (N, 2)
    and the projections of ``points`` (N, 3) into ``cam``, one ``project``
    call per point."""
    r = np.array([np.linalg.norm(uv - project(cam, p))
                  for p, uv in zip(points, pixels)])
    if not len(r):
        return 0.0, 0.0
    return float(r.mean()), float(r.std())


def render_reprojection_table(per_camera: dict[str, tuple[float, float]]) -> str:
    """Text table of per-camera reprojection stats with a mean column."""
    return _mean_table("Camera", list(per_camera), [
        ("Mean error (px)", [m for m, _ in per_camera.values()], ".2f", ".2f"),
        ("Std of errors (px)", [s for _, s in per_camera.values()], ".2f", ".2f"),
    ])


def _mean_table(title: str, names: list[str], rows) -> str:
    """Text table with one column per name and a Mean column. Each row is
    (label, one value per name, value format, mean format); with no names,
    each row shows "-" under Mean."""
    cols = [[title] + names + ["Mean"]] + [
        [label] + [format(v, spec) for v in values]
        + [format(np.mean(values), mean_spec) if names else "-"]
        for label, values, spec, mean_spec in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(cols[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in cols]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"

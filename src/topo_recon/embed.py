"""Delay-coordinate embedding, mutual-information delay selection, and scale helpers.

A point of the m-dimensional reconstruction at time index t is

    (x(t), x(t - tau), ..., x(t - (m - 1) * tau))

with all delays pointing backward.  Anchoring the start of the cloud at a
common ``m_anchor`` makes the clouds for different m share their time-index
set, so the m-dimensional cloud is a bitwise coordinate prefix of any higher
dimensional cloud built from the same series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal import ScalarSeries, SeriesFormatError, _read_table, _write_table


class DegenerateSeriesError(ValueError):
    """The series carries no usable variation (e.g. constant input)."""


@dataclass
class PointCloud:
    """Points in R^m tagged with the source time index of each point."""

    points: np.ndarray
    time_index: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.time_index = np.asarray(self.time_index, dtype=np.int64)
        if self.points.ndim != 2:
            raise ValueError("cloud points must be a 2-d array")
        if self.time_index.ndim != 1 or self.time_index.size != self.points.shape[0]:
            raise ValueError("time_index must align with points")
        if self.time_index.size > 1 and not (np.diff(self.time_index) > 0).all():
            raise ValueError("time_index must be strictly increasing")

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class AmiCurve:
    """Average mutual information in bits, indexed by delay in samples."""

    values: np.ndarray
    bins: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    def __len__(self) -> int:
        return self.values.size


def delay_embed(series: ScalarSeries, m: int, tau_steps: int, m_anchor: int | None = None) -> PointCloud:
    """Build the m-dimensional delay reconstruction of a scalar series.

    The first reconstructed time index is ``(m_anchor - 1) * tau_steps``
    (``m_anchor`` defaults to ``m``), so clouds anchored at a common
    ``m_anchor`` agree bitwise on their shared coordinates: the output for
    ``m`` equals the first ``m`` columns of the output for any larger
    dimension.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if tau_steps < 1:
        raise ValueError("tau_steps must be at least 1")
    if m_anchor is None:
        m_anchor = m
    if m_anchor < m:
        raise ValueError("m_anchor must be at least m")
    n = len(series)
    t0 = (m_anchor - 1) * tau_steps
    if t0 >= n:
        raise ValueError(
            f"series of length {n} too short for m_anchor={m_anchor}, tau_steps={tau_steps}"
        )
    x = series.values
    cols = [x[t0 - k * tau_steps : n - k * tau_steps] for k in range(m)]
    points = np.column_stack(cols)
    return PointCloud(points, np.arange(t0, n, dtype=np.int64))


def project(cloud: PointCloud, m_target: int) -> PointCloud:
    """Keep the first ``m_target`` coordinates of every point (an exact prefix)."""
    if not 1 <= m_target <= cloud.m:
        raise ValueError(f"m_target must be in [1, {cloud.m}]")
    return PointCloud(cloud.points[:, :m_target].copy(), cloud.time_index.copy())


def default_bins(n: int) -> int:
    """Histogram bin count rule: 64 for n >= 10^4, else ceil(n^(1/3)), at least 2."""
    if n >= 10_000:
        return 64
    return max(2, math.ceil(n ** (1.0 / 3.0)))


def ami_curve(series: ScalarSeries, tau_max: int, bins: int | None = None) -> AmiCurve:
    """Average mutual information (bits) of (x(t), x(t + tau)) for tau = 0..tau_max.

    Uses an equal-width 2-d histogram with shared bin edges spanning the full
    series range; marginals are taken from the same pair population, so every
    value is a true KL divergence and hence nonnegative.  ``values[0]`` equals
    the Shannon entropy of the 1-d histogram of the series.
    """
    n = len(series)
    if tau_max < 1:
        raise ValueError("tau_max must be at least 1")
    if tau_max >= n:
        raise ValueError(f"tau_max={tau_max} must be smaller than the series length {n}")
    if bins is None:
        bins = default_bins(n)
    if bins < 2:
        raise ValueError("bins must be at least 2")
    x = series.values
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise DegenerateSeriesError("constant series: histogram range is empty")
    edges = np.linspace(lo, hi, bins + 1)
    # bin of each sample, once; like histogram2d, the last bin is closed on the right
    idx = np.searchsorted(edges, x, side="right") - 1
    idx[idx == bins] = bins - 1
    values = np.empty(tau_max + 1, dtype=np.float64)
    for tau in range(tau_max + 1):
        pair = idx[: n - tau] * bins + idx[tau:]
        joint = np.bincount(pair, minlength=bins * bins).reshape(bins, bins).astype(np.float64)
        total = joint.sum()
        p = joint / total
        px = p.sum(axis=1)
        py = p.sum(axis=0)
        mask = p > 0
        denom = px[:, None] * py[None, :]
        values[tau] = float(np.sum(p[mask] * np.log2(p[mask] / denom[mask])))
    return AmiCurve(values, bins)


def first_minimum(curve: AmiCurve) -> int | None:
    """Smallest tau >= 1 with values[tau] < values[tau-1] and values[tau] <= values[tau+1].

    Returns None when no interior local minimum exists in the curve.
    """
    v = curve.values
    if v.size < 3:
        raise ValueError("curve must contain at least three values")
    for tau in range(1, v.size - 1):
        if v[tau] < v[tau - 1] and v[tau] <= v[tau + 1]:
            return tau
    return None


def bbox_diameter(cloud: PointCloud) -> float:
    """Diagonal length of the axis-aligned bounding box of the cloud."""
    if len(cloud) == 0:
        raise ValueError("cloud must be nonempty")
    extents = cloud.points.max(axis=0) - cloud.points.min(axis=0)
    return float(np.sqrt(np.sum(extents * extents)))


def save_cloud(cloud: PointCloud, path) -> None:
    """Write a point-cloud CSV with header t,c0,...,c{m-1}; floats use repr."""
    cols = ",".join(f"c{k}" for k in range(cloud.m))
    _write_table(path, [f"t,{cols}"], cloud.time_index, *cloud.points.T)


def load_cloud(path) -> PointCloud:
    """Read a point-cloud CSV written by :func:`save_cloud`."""
    table = _read_table(path, "t,c0,...", ints=1, finite="coordinate in cloud")
    if not len(table.ints):
        raise SeriesFormatError(path, 2, "no data rows")
    return PointCloud(table.floats, table.ints[:, 0])

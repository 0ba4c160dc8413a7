"""Landmark selection: equal-time spacing and greedy max-min (k-center) picks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embed import PointCloud
from .signal import SeriesFormatError, _read_table, _write_table


@dataclass
class LandmarkSet:
    """A subset of a witness cloud used as complex vertices.

    indices are positions into the source cloud, strictly increasing;
    coords[i] is the cloud point at indices[i]; spacing is the equal-time
    stride in samples (0 for max-min picks).  ``order`` records the greedy
    pick sequence for max-min selection, for diagnostics only.
    """

    indices: np.ndarray
    coords: np.ndarray
    time_index: np.ndarray
    spacing: int = 0
    order: list[int] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.time_index = np.asarray(self.time_index, dtype=np.int64)
        if self.indices.ndim != 1 or self.coords.ndim != 2:
            raise ValueError("indices must be 1-d and coords 2-d")
        if self.indices.size != self.coords.shape[0] or self.indices.size != self.time_index.size:
            raise ValueError("indices, coords and time_index must align")
        if self.indices.size == 0:
            raise ValueError("landmark set must be nonempty")
        if self.indices.size > 1 and not (np.diff(self.indices) > 0).all():
            raise ValueError("indices must be strictly increasing")

    @property
    def ell(self) -> int:
        return self.indices.size

    @property
    def m(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.ell


def select_evenly_spaced(cloud: PointCloud, every: int) -> LandmarkSet:
    """Take every ``every``-th cloud point, starting at position 0."""
    if every < 1:
        raise ValueError("every must be at least 1")
    if len(cloud) == 0:
        raise ValueError("cloud must be nonempty")
    idx = np.arange(0, len(cloud), every, dtype=np.int64)
    return LandmarkSet(
        indices=idx,
        coords=cloud.points[idx].copy(),
        time_index=cloud.time_index[idx].copy(),
        spacing=every,
    )


def select_maxmin(cloud: PointCloud, ell: int, seed: int) -> LandmarkSet:
    """Greedy max-min (farthest point) selection of ``ell`` landmarks.

    The first landmark is a seeded PCG64 draw; each later pick maximizes the
    distance to the already chosen set, ties broken by lowest index.  Greedy
    max-min is the classical 2-approximation to the k-center objective.
    """
    n = len(cloud)
    if not 1 <= ell <= n:
        raise ValueError(f"ell must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    chosen = [first]
    pts = cloud.points
    diff = pts - pts[first]
    mind = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    for _ in range(ell - 1):
        nxt = int(np.argmax(mind))  # argmax returns the lowest tied index
        chosen.append(nxt)
        diff = pts - pts[nxt]
        np.minimum(mind, np.sqrt(np.einsum("ij,ij->i", diff, diff)), out=mind)
    idx = np.array(sorted(set(chosen)), dtype=np.int64)
    if idx.size != ell:
        # duplicate picks only happen when the cloud has coincident points
        raise ValueError("max-min selection collapsed onto duplicate points; reduce ell")
    return LandmarkSet(
        indices=idx,
        coords=pts[idx].copy(),
        time_index=cloud.time_index[idx].copy(),
        spacing=0,
        order=chosen,
    )


def save_landmarks(landmarks: LandmarkSet, path) -> None:
    """Write landmarks as CSV: a '# spacing=' comment, then idx,t,c0,...,c{m-1}."""
    cols = ",".join(f"c{k}" for k in range(landmarks.m))
    head = [f"# spacing={landmarks.spacing}", f"idx,t,{cols}"]
    _write_table(path, head, landmarks.indices, landmarks.time_index, *landmarks.coords.T)


def load_landmarks(path) -> LandmarkSet:
    """Read a landmark CSV written by :func:`save_landmarks`."""
    table = _read_table(path, "idx,t,c0,...", ints=2, finite="landmark coordinate")
    spacing = 0
    for line_no, text in enumerate(table.lines, start=1):
        if text.lstrip().startswith("#") and "spacing=" in text:
            try:
                spacing = int(text.split("spacing=")[1])
            except ValueError:
                raise SeriesFormatError(path, line_no, f"bad spacing comment {text.strip()!r}") from None
    if not len(table.ints):
        raise SeriesFormatError(path, 1, "no landmark rows")
    return LandmarkSet(
        indices=table.ints[:, 0],
        coords=table.floats,
        time_index=table.ints[:, 1],
        spacing=spacing,
    )

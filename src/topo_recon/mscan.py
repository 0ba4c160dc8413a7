"""Embedding-dimension sweep: edge existence across m, lifespans, and the
lifespan-derived filtration.

All reconstructions are anchored at m_max, so every dimension shares one
time-index set and one landmark index set, and lower-dimensional clouds are
exact coordinate prefixes of higher ones: W_m is a view of the first m rows
of the m_max cloud, held coordinate-major.  The scale grows with dimension as
epsilon(m) = xi * bbox_diameter(W_m), keeping the relative scale fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import PointCloud, bbox_diameter, delay_embed
from .landmarks import LandmarkSet, select_evenly_spaced
from .persistence import Barcode, persistent_homology
from .signal import ScalarSeries, _read_table, _write_table
from .witness import EdgeFiltration, FlagFiltration, distance_matrix, edge_births, flag_expand


@dataclass
class DimensionSweep:
    """Edge filtrations and existence sets for m = 1..m_max at a fixed xi.

    per_m[m-1] is the edge filtration of the m-dimensional cloud truncated at
    epsilons[m-1]: exact at or below that scale, +inf above it.
    """

    m_max: int
    xi: float
    tau_steps: int
    every: int
    landmarks: LandmarkSet
    diameters: list
    epsilons: list
    per_m: list
    existence: np.ndarray  # (ell, ell) bitmask; bit (m-1) set when the edge exists at m
    witnesses: int = 0  # the cloud's points, the same at every m

    @property
    def ell(self) -> int:
        return self.landmarks.ell


@dataclass
class DmFiltration:
    """Nested edge sets by lifespan, with their flag filtration and barcode.

    Level k holds every edge with lifespan >= k; the filtration value of an
    edge is m_max - lifespan, so long-lived edges enter first.
    """

    m_max: int
    levels: dict
    filtration: FlagFiltration
    barcode: Barcode


def sweep(series: ScalarSeries, tau_steps: int, xi: float, every: int, m_max: int) -> DimensionSweep:
    """Run the dimension sweep for m = 1..m_max.

    Landmarks are chosen once, evenly spaced on the anchored m_max cloud;
    their coordinates at lower m are exact prefixes.  For each m the edge
    filtration is computed exactly up to epsilon(m) = xi * diam(W_m) and
    truncated there (see ``edge_births``'s ``cap``).  m_max is at most 32,
    the bits of ``existence``.
    """
    if not 1 <= m_max <= 32:
        raise ValueError(f"m_max must be in 1..32, the bits of the uint32 existence mask, got {m_max}")
    if not xi >= 0:
        raise ValueError(f"xi must be a nonnegative number, got {xi}")
    cloud = delay_embed(series, m_max, tau_steps, m_anchor=m_max)
    lms = select_evenly_spaced(cloud, every)
    coords = np.ascontiguousarray(cloud.points.T)  # (m_max, N): W_m is coords[:m].T

    diameters: list[float] = []
    epsilons: list[float] = []
    per_m: list[EdgeFiltration] = []
    existence = np.zeros((lms.ell, lms.ell), dtype=np.uint32)
    for m in range(1, m_max + 1):
        w_m = coords[:m].T
        diam = bbox_diameter(PointCloud(w_m, cloud.time_index))
        eps = xi * diam
        ef = edge_births(distance_matrix(w_m, lms.coords[:, :m]), cap=eps)
        diameters.append(diam)
        epsilons.append(eps)
        per_m.append(ef)
        existence |= (ef.births <= eps).astype(np.uint32) << (m - 1)
    return DimensionSweep(
        m_max=m_max,
        xi=xi,
        tau_steps=tau_steps,
        every=every,
        landmarks=lms,
        diameters=diameters,
        epsilons=epsilons,
        per_m=per_m,
        existence=existence,
        witnesses=len(cloud.points),
    )


def lifespan_matrix(sw: DimensionSweep) -> np.ndarray:
    """Per-edge lifespans as an (ell, ell) integer matrix (diagonal 0)."""
    run = np.zeros_like(sw.existence, dtype=np.int64)
    best = np.zeros_like(run)
    for m in range(1, sw.m_max + 1):
        bit = ((sw.existence >> (m - 1)) & 1).astype(np.int64)
        run = (run + bit) * bit
        np.maximum(best, run, out=best)
    np.fill_diagonal(best, 0)
    return best


def _runs(mask: int, m_max: int) -> list[tuple[int, int]]:
    """Maximal runs of consecutive set dimensions, as half-open [start, end)."""
    runs = []
    m = 1
    while m <= m_max:
        if mask >> (m - 1) & 1:
            start = m
            while m <= m_max and mask >> (m - 1) & 1:
                m += 1
            runs.append((start, m))
        else:
            m += 1
    return runs


def dimension_barcode(sw: DimensionSweep, landmark: int) -> list[tuple[int, int, int, bool]]:
    """Bars over the dimension axis for one landmark's edges.

    Returns (partner, m_birth, m_death, alive_at_max) with half-open
    [m_birth, m_death) runs; an edge alive on {2} gives [2, 3).
    """
    if not 0 <= landmark < sw.ell:
        raise ValueError(f"landmark index {landmark} out of range")
    bars = []
    for j in range(sw.ell):
        if j == landmark:
            continue
        for start, end in _runs(int(sw.existence[landmark, j]), sw.m_max):
            bars.append((j, start, end, end == sw.m_max + 1))
    bars.sort(key=lambda b: (b[1], b[2], b[0]))
    return bars


def dm_filtration(sw: DimensionSweep, dim_cap: int = 2) -> DmFiltration:
    """Filter edges by lifespan: level k keeps edges with lifespan >= k.

    Levels are nested by construction (a lifespan >= k is >= k - 1);
    reusing value = m_max - lifespan turns the nesting into an ordinary
    filtration, so the standard reduction applies unchanged.
    """
    ls = lifespan_matrix(sw)
    levels: dict[int, list[tuple[int, int]]] = {}
    iu, ju = np.triu_indices(sw.ell, k=1)
    for k in range(1, sw.m_max + 1):
        keep = ls[iu, ju] >= k
        levels[k] = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    levels[sw.m_max + 1] = []

    births = np.full((sw.ell, sw.ell), np.inf)
    alive = ls >= 1
    births[alive] = sw.m_max - ls[alive]
    np.fill_diagonal(births, np.inf)
    ef = EdgeFiltration(vertex_birth=np.zeros(sw.ell), births=births, witness=None)
    ff = flag_expand(ef, dim_cap=dim_cap)
    bc = persistent_homology(ff)
    return DmFiltration(m_max=sw.m_max, levels=levels, filtration=ff, barcode=bc)


def save_lifespan_csv(matrix: np.ndarray, path) -> None:
    """Write the lifespan matrix as plain comma-separated integer rows."""
    _write_table(path, [], *matrix.T)


def load_lifespan_csv(path) -> np.ndarray:
    """Read a lifespan matrix written by :func:`save_lifespan_csv`; a non-square one fails at its first extra row."""
    table = _read_table(path, None, ints=None)
    rows, cols = table.ints.shape
    if rows != cols:
        raise table.error(cols if rows > cols else 0, f"lifespan matrix has {rows} rows of {cols} fields, not square")
    return table.ints


def save_existence_csv(sw: DimensionSweep, path) -> None:
    """Write edge existence bitmasks as CSV i,j,mask (i < j, nonzero masks only)."""
    i, j = np.nonzero(np.triu(sw.existence, k=1))
    _write_table(path, ["i,j,mask"], i, j, sw.existence[i, j])


def save_dimension_barcode_csv(sw: DimensionSweep, landmark: int, path) -> None:
    _write_table(path, ["partner,m_birth,m_death,alive_at_max"], *zip(*dimension_barcode(sw, landmark)))

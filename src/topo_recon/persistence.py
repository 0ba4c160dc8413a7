"""Persistent homology over Z/2: one coboundary reduction for every degree of a flag filtration.

H_k reduces the coboundary columns of the k-simplices in reverse filtration
order, each the set of its (k+1)-cofaces with the smallest one as pivot (de
Silva, Morozov & Vejdemo-Johansson, *Dualities in persistent (co)homology*,
2011); for k = 0 the columns are the vertices and the rows their edges.
Dimensions run upwards with clearing (Bauer, *Ripser*, 2021): a k-simplex
that destroyed a (k-1)-class in the pass below is skipped, so most columns
pair at once with a free pivot (an apparent pair) and need no addition.  The
pairs are those of the standard boundary reduction, so creators and
destroyers are positions in the filtration's simplex list.  One routine,
``_reduce``, does every reduction, representative cycles included: a
k-cycle is its creator plus the unique set of earlier k-simplices that
destroyed a (k-1)-class whose boundaries sum to the creator's (Edelsbrunner,
Letscher & Zomorodian, *Topological persistence and simplification*, 2002).
For k = 1 that is the creator edge closed through the H0 spanning forest.

Every filtration comes from ``flag_expand`` (a loaded file is rebuilt by
it), so every degree is reduced with Ripser's implicit coboundary: a
k-simplex's cofaces are the vertices in the AND of its vertices' adjacency
rows, each valued at the max of the simplex's value and its new edges'
births.  Among equal values they run by vertex ascending, their (value, dim,
vertices) order, so every pivot is a first-index argmin over a chunked
(simplices x ell) value array.  Columns are built only when added, as Ripser
computes coboundaries on demand: a column with a free pivot is kept as its
key alone, and its cofaces are read from the adjacency only when it needs an
addition or a later column must add it.  A coface is an integer row, its
value's rank and its vertices as base-ell digits; a destroyer below the top
dimension is found among its dimension's listed rows by one search, and the
top dimension is never listed.  Creators and destroyers stay positions in
the whole list: a listed simplex's is its index plus the top simplices of
smaller value, and a top destroyer's is its rank, the listed simplices of
value <= its own plus the top simplices before it, counted a chunk of
(dim_cap - 1)-simplices at a time.  Homology is reported for k < dim_cap;
intervals with equal birth and death are homologically invisible and
omitted.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .signal import _read_table, _write_table
from .witness import FlagFiltration

_COFACE_CELLS = 1 << 16  # the (simplices x ell) coface values a pass holds at once
_ROW_BOUND = 2**63  # coface rows that could reach it are Python ints


@dataclass(frozen=True)
class Interval:
    """One bar: homology degree, birth/death scales, and the creator column.

    ``death`` is +inf for classes still alive at the top of the filtration
    (or at its cap, when one was set).  ``creator``/``destroyer`` are
    positions in the filtration's simplex list; destroyer is None for
    infinite bars.
    """

    k: int
    birth: float
    death: float
    creator: int
    destroyer: int | None = None

    @property
    def length(self) -> float:
        return self.death - self.birth


@dataclass
class Barcode:
    """All intervals of a filtration, plus a handle back to it for cycle queries."""

    intervals: list
    dim_cap: int
    filtration: FlagFiltration = field(repr=False)
    # sorted positions of every simplex that destroyed a class, zero-length pairs included
    destroyers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)
    counts: dict = field(default_factory=dict, repr=False)  # columns reduced, cleared and added per k, sets built
    # the position of each listed simplex in the whole list, ascending
    positions: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)

    def by_dim(self, k: int) -> list:
        return [iv for iv in self.intervals if iv.k == k]


def _reduce(heads, column, track: bool = False):
    """Reduce sparse Z/2 columns left to right, yielding (key, pivot, v, additions) per column.

    ``heads`` yields (key, pivot row of its unreduced column, None when it
    is empty) in reduction order, and ``column(key)`` builds that column as a
    set of rows; a nonzero set's pivot is its smallest row.  While the pivot
    is that of an earlier column, the earlier reduced column is added.  A
    column whose pivot is free at once is kept as its key alone: its set is
    built only when a later column must add it, and a column's own set only
    when it needs an addition.  Each column being reduced keeps its rows in a
    lazy heap, as Ripser keeps its working column: the added column's rows
    are pushed, and rows no longer in the set are popped when they reach the
    top, so no addition rescans the whole set for its new pivot.  The pivot
    is None for a column that vanishes.
    With ``track`` set, ``v`` is the set of keys whose columns sum to the
    reduced one (its V column); otherwise it is None.  ``additions`` counts
    the earlier columns added to this one.
    """
    reduced: dict = {}  # pivot row -> key of an unreduced column, or (reduced column, its V column)
    for key, low in heads:
        col, v, additions = None, {key} if track else None, 0
        while low is not None:
            other = reduced.get(low)
            if other is None:
                reduced[low] = key if col is None else (col, v)
                break
            if col is None:
                col = column(key)
                heap = list(col)  # holds every row of col, and stale rows, which are popped when they surface
                heapq.heapify(heap)
            if not isinstance(other, tuple):
                other = reduced[low] = (column(other), {other} if track else None)
            col ^= other[0]
            additions += 1
            if track:
                v ^= other[1]
            for row in other[0]:
                heapq.heappush(heap, row)
            while heap and heap[0] not in col:
                heapq.heappop(heap)
            low = heap[0] if heap else None
        yield key, low, v, additions


class _Rows:
    """The coboundaries of a flag filtration: coface values, and simplices above a degree as ordered integers.

    A listed k-simplex's cofaces are the vertices v whose ``top_births`` are
    finite to each of its vertices; a coface's value is the max of the
    simplex's value and those births, so it is an edge birth.  A
    (k+1)-simplex's row is (rank of its value among the edge births) *
    ell^(k+2) plus its sorted vertices as base-ell digits, so the rows of one
    dimension compare in (value, vertices) order; they are NumPy int64, or
    Python ints (object arrays) when the top dimension's could reach ``_ROW_BOUND``.
    """

    def __init__(self, ff: FlagFiltration):
        if ff.top_births is None:
            raise ValueError("the barcode needs a flag filtration from flag_expand, which keeps its top_births")
        self.verts, self.values, self.births, self.d = ff.listed_vertices, ff.listed_values, ff.top_births, ff.dim_cap
        self.ell = self.births.shape[0]
        self.levels = np.unique(self.births[np.isfinite(self.births)])
        self.dtype = np.int64 if max(1, self.levels.size) * self.ell ** (self.d + 1) < _ROW_BOUND else object
        self.powers = np.array([self.ell ** (self.d + 1 - c) for c in range(self.d + 2)], dtype=self.dtype)

    def cofaces(self, rows, k: int) -> np.ndarray:
        """The (rows, ell) values of the listed k-simplices ``rows`` plus each vertex, +inf where that is no simplex."""
        out = self.births[self.verts[rows, 0]]
        for c in range(1, k + 1):
            np.maximum(out, self.births[self.verts[rows, c]], out=out)
        return np.maximum(out, self.values[rows, None], out=out)

    def encode(self, faces, xs, vs) -> np.ndarray:
        """The rows of the sorted ``faces`` (r or 1, k + 1) plus the vertices ``vs``, at the values ``xs``."""
        k = faces.shape[1] - 1
        at, powers = (faces < vs[:, None]).sum(axis=1), self.powers[-(k + 3) :]  # where v goes; ell^(k+2) .. 1
        out = np.searchsorted(self.levels, xs).astype(self.dtype) * powers[0] + vs.astype(self.dtype) * powers[1:][at]
        for c in range(k + 1):
            out += faces[:, c].astype(self.dtype) * powers[1:][c + (c >= at)]
        return out

    def value(self, rows) -> np.ndarray:
        """The values of the top simplex ``rows``."""
        return self.levels[(np.asarray(rows, dtype=self.dtype) // self.powers[0]).astype(np.int64)]


def _coboundary(rows: _Rows, k: int, keys: list, counts: dict):
    """The pivots of the listed k-simplices ``keys`` and their column builder, from the adjacency.

    Among equal values the cofaces run by v ascending, which is their
    (value, vertices) order, so a pivot is a first-index argmin over v,
    taken a chunk of ``_COFACE_CELLS`` values at a time.  The builder counts
    the sets it builds in ``counts["column_sets"]``.
    """
    order, step = np.asarray(keys, dtype=np.int64), max(1, _COFACE_CELLS // max(1, rows.ell))
    pivots = np.empty(order.size, dtype=rows.dtype)
    for s in range(0, order.size, step):
        block = rows.cofaces(order[s : s + step], k)
        vs = block.argmin(axis=1)
        xs = block[np.arange(vs.size), vs]
        pivots[s : s + step] = np.where(xs < np.inf, rows.encode(rows.verts[order[s : s + step], : k + 1], xs, vs), -1)
    heads = ((i, None if low < 0 else low) for i, low in zip(keys, pivots.tolist()))

    def column(i):
        counts["column_sets"] += 1
        xs = rows.cofaces([i], k)[0]
        vs = np.flatnonzero(xs < np.inf)
        return set(rows.encode(rows.verts[i : i + 1, : k + 1], xs[vs], vs).tolist())

    return heads, column


def _positions(ff: FlagFiltration, top: _Rows, tops: list) -> tuple[np.ndarray, np.ndarray]:
    """The positions in the whole (value, dim, vertices) list of every listed simplex and of the top rows ``tops``.

    A listed simplex precedes the top simplices of its value, so its
    position is its index plus the count of top rows of smaller value.  A
    top simplex's is the count of listed simplices of value <= its own plus
    that of the top rows below its own.  Each top simplex is counted once,
    as its first dim_cap vertices (a listed simplex) plus a larger vertex, a
    chunk of ``_COFACE_CELLS`` at a time, so no array grows with the top dimension.
    """
    values, k = ff.listed_values, top.d - 1
    prefixes, higher = np.flatnonzero(ff.listed_dims == k), np.arange(top.ell)
    queries = np.concatenate((np.searchsorted(top.levels, values).astype(top.dtype) * top.powers[0],
                              np.asarray(tops, dtype=top.dtype)))  # a listed query: the least row of its value
    before, step = np.zeros(queries.size, dtype=np.int64), max(1, _COFACE_CELLS // max(1, top.ell))
    for s in range(0, prefixes.size, step):
        p = prefixes[s : s + step]
        cells = top.cofaces(p, k)
        cells[higher <= top.verts[p, k, None]] = np.inf
        r, v = np.nonzero(cells < np.inf)
        before += np.searchsorted(np.sort(top.encode(top.verts[p[r], : k + 1], cells[r, v], v)), queries)
    n = values.size
    return np.arange(n) + before[:n], np.searchsorted(values, top.value(tops), side="right") + before[n:]


def persistent_homology(ff: FlagFiltration) -> Barcode:
    """Compute the barcode of a flag filtration from ``flag_expand`` over Z/2.

    The pairs are those of standard left-to-right boundary reduction of the
    whole (value, dim, vertices) list; the returned multiset of intervals is
    independent of tie order among equal-valued simplices.  Every degree is
    reduced through ``_coboundary`` from the adjacency, and the top
    destroyers are placed by ``_positions``.  A filtration without
    ``top_births`` raises ValueError.
    """
    rows, dims, values, top = _Rows(ff), ff.listed_dims, ff.listed_values, ff.dim_cap - 1
    pairs, cleared, tops = [], set(), []  # cleared: the listed destroyers; a pass skips those of its own dimension
    counts = {"reduced_columns": {}, "cleared_columns": {}, "column_additions": {}, "column_sets": 0}
    for k in range(ff.dim_cap):
        simplices = np.flatnonzero(dims == k)[::-1].tolist()
        keys = [i for i in simplices if i not in cleared]
        counts["reduced_columns"][k], counts["cleared_columns"][k] = len(keys), len(simplices) - len(keys)
        reduced = [(i, j, additions) for i, j, _, additions in _reduce(*_coboundary(rows, k, keys, counts))]
        counts["column_additions"][k] = sum(additions for _, _, additions in reduced)
        found = [j for _, j, _ in reduced if j is not None]
        if k == top:
            tops = found
        else:  # the destroyers as listed indices, by one search over their dimension's rows; the next pass skips them
            above = np.flatnonzero(dims == k + 1)
            table = rows.encode(rows.verts[above, : k + 1], values[above], rows.verts[above, k + 1])
            found = dict(zip(found, above[np.searchsorted(table, np.asarray(found, dtype=rows.dtype))].tolist()))
            cleared.update(found.values())
        pairs += [(k, i, j if j is None or k == top else found[j]) for i, j, _ in reduced]

    positions, top_positions = _positions(ff, rows, tops)
    at, intervals = positions.tolist(), []
    top_at = dict(zip(tops, zip(top_positions.tolist(), rows.value(tops).tolist())))
    for k, i, j in pairs:
        if j is None:
            destroyer, death = None, math.inf
        elif k == top:
            destroyer, death = top_at[j]
        else:
            destroyer, death = at[j], float(values[j])
        if death > values[i]:
            intervals.append(Interval(k=k, birth=float(values[i]), death=death, creator=at[i], destroyer=destroyer))
    intervals.sort(key=lambda iv: (iv.k, iv.birth, iv.death, iv.creator))
    listed = positions[np.fromiter(cleared, dtype=np.int64, count=len(cleared))]
    return Barcode(intervals=intervals, dim_cap=ff.dim_cap, filtration=ff, counts=counts, positions=positions,
                   destroyers=np.sort(np.concatenate((listed, top_positions))))


def betti_at(bc: Barcode, epsilon: float) -> list[int]:
    """Betti numbers [beta_0, ..., beta_{dim_cap-1}] at a fixed scale.

    A bar counts at epsilon when birth <= epsilon < death; with a capped
    filtration this is exact for every epsilon up to the cap.
    """
    if not epsilon <= (math.inf if bc.filtration.max_value is None else bc.filtration.max_value):  # NaN fails too
        raise ValueError(f"epsilon {epsilon} is NaN or exceeds the filtration cap {bc.filtration.max_value}")
    betti = [0] * bc.dim_cap
    for iv in bc.intervals:
        if iv.birth <= epsilon < iv.death:
            betti[iv.k] += 1
    return betti


def representative_cycles(bc: Barcode, k: int, top_n: int = 2) -> list[tuple[Interval, list[tuple]]]:
    """One representative k-cycle for each of the top_n longest k-intervals.

    Representatives are non-canonical: each is a single valid choice among
    homologous cycles born with its bar, returned as a list of k-simplex
    vertex tuples in filtration order.  A creator's column in the standard
    boundary reduction reduces to zero and is never added, so its V column is
    the creator plus earlier k-simplices that destroyed a class, the only such
    set whose boundaries (independent) sum to the creator's.  A V-tracked pass
    over the bars' creators and the k-dimensional destroyers before the last
    of them, rows the facets' vertex tuples, finds it.
    """
    if k < 1 or top_n < 0:
        raise ValueError(f"representative cycles need k >= 1 and top_n >= 0, got k={k}, top_n={top_n}")
    bars = sorted(bc.by_dim(k), key=lambda iv: (-iv.length, iv.birth, iv.creator))[:top_n]
    if not bars:  # no bar, no reduction
        return []
    positions, ff = bc.positions, bc.filtration  # k < dim_cap, so every simplex used is listed
    creators = np.searchsorted(positions, [iv.creator for iv in bars]).tolist()
    at = np.minimum(np.searchsorted(positions, bc.destroyers), positions.size - 1)
    listed = (positions[at] == bc.destroyers) & (ff.listed_dims[at] == k) & (at < max(creators))
    keys = [*at[listed].tolist(), *creators]
    rows = dict(zip(keys, ff.listed_vertices[keys, : k + 1].tolist()))
    heads = ((key, tuple(row[:k])) for key, row in rows.items())  # a sorted row's smallest facet drops its last vertex
    column = lambda key: set(itertools.combinations(rows[key], k))
    cycles = {g: sorted(v) for g, low, v, _ in _reduce(heads, column, track=True) if low is None}
    return [(iv, [tuple(rows[p]) for p in cycles[g]]) for iv, g in zip(bars, creators)]


def save_barcode(bc: Barcode, path) -> None:
    """Write bars as CSV k,birth,death with 'inf' for open deaths."""
    _write_table(path, ["k,birth,death"], *zip(*((iv.k, iv.birth, iv.death) for iv in bc.intervals)))


def load_barcode(path) -> list[tuple[int, float, float]]:
    """Read a barcode CSV back as (k, birth, death) rows; death may be +inf."""
    table = _read_table(path, "k,birth,death", ints=1)
    return list(zip(table.ints[:, 0].tolist(), *table.floats.T.tolist()))

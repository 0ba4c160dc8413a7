"""Persistent homology over Z/2: union-find for H0, coboundary reduction above.

H0 comes from Kruskal's union-find with the elder rule: edges are taken in
filtration order, and an edge joining two components kills the younger one
(the one whose oldest vertex comes later).  H_k for k >= 1 reduces the
coboundary columns of the k-simplices in reverse filtration order, each the
set of positions of its (k+1)-cofaces with the smallest one as pivot (de
Silva, Morozov & Vejdemo-Johansson, *Dualities in persistent (co)homology*,
2011).  Dimensions run upwards with clearing (Bauer, *Ripser*, 2021): a
k-simplex that destroyed a (k-1)-class in the pass below is skipped, so most
columns pair at once with a free pivot (an apparent pair) and need no
addition.  The pairs are those of the standard boundary reduction, so
creators and destroyers are positions in the filtration's simplex list.
Facets are found a chunk of simplices at a time by ``np.searchsorted`` over
sorted integer keys, and ``np.minimum.at`` folds each chunk into its facets'
first cofaces, every column's pivot.  Columns are built only when added, as
Ripser computes coboundaries on demand: a column with a free pivot is kept
as its key alone, and its rows are looked up only when it needs an addition
or a later column must add it: the one-vertex extensions of a k-simplex
whose keys are (k+1)-simplex keys.  One routine, ``_reduce``, does every
reduction, representative cycles included: a k-cycle is its creator plus the
unique set of earlier k-simplices that destroyed a (k-1)-class whose
boundaries sum to the creator's (Edelsbrunner, Letscher & Zomorodian,
*Topological persistence and simplification*, 2002).  For k = 1 that is the
creator edge closed through the H0 spanning forest.
Homology is reported for k < dim_cap; intervals with equal birth and death
are homologically invisible and omitted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .signal import _read_table, _write_table
from .witness import FlagFiltration

_FACET_CHUNK = 1 << 14  # the simplices of one dimension whose facets _validate holds at once


class ContractViolationError(ValueError):
    """The input filtration is not sorted or not closed under faces."""


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
    counts: dict = field(default_factory=dict, repr=False)  # columns reduced and cleared per k >= 1, sets built

    def by_dim(self, k: int) -> list:
        return [iv for iv in self.intervals if iv.k == k]


def _find(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The index of each entry of ``x`` in the sorted array ``table``, or -1 where absent."""
    at = np.minimum(np.searchsorted(table, x), max(table.size - 1, 0))
    return np.where(table[at] == x, at, -1) if table.size else np.full(x.shape, -1)


def _validate(ff: FlagFiltration) -> tuple:
    """Check canonical order and face closure; return positions, edge ends, pivots and a coface lookup.

    ``by_dim[k]`` lists the k-simplices' positions, ascending, for edges and
    below dim_cap only, and ``ends[r]`` the positions of the two vertices of
    the edge at ``by_dim[1][r]``.  ``head[p]`` is simplex p's first coface
    position (n if none), and ``cofaces(p)`` lists them all.  A k-simplex's key is the
    index of its first k vertices' key among the (k-1)-simplex keys, times the
    vertex count, plus its last vertex's rank, so keys stay below n * ell.  The
    first failing position raises (order, value, duplicate, then faces).
    """
    verts, dims, values, n = ff.vertices, ff.dims, ff.values, len(ff)
    live = np.arange(1, verts.shape[1]) <= dims[:, None]
    unsorted = (dims < 0) | ((verts[:, 1:] <= verts[:, :-1]) & live).any(axis=1)
    low = ~(values >= np.concatenate(([-np.inf], values[:-1])))
    dup, missing, head = np.zeros(n, dtype=bool), np.full(n, -1, dtype=np.int8), np.full(n + 1, n)
    ids = np.unique(verts[dims == 0, 0])
    tables, by_dim = [], []  # tables[k]: the k-simplex keys, sorted, and the first position of each

    def key(ranks):
        out = ranks[:, 0]
        for c in range(1, ranks.shape[1]):
            prefix = out if c == 1 else _find(tables[c - 1][0], out)  # a vertex's key index is its rank
            out = np.where((prefix >= 0) & (ranks[:, c] >= 0), prefix * ids.size + ranks[:, c], -1)
        return out

    for d in range(max(ff.dim_cap, int(dims.max(initial=0))) + 1):
        pos, below = np.flatnonzero(dims == d), d < max(ff.dim_cap, 2)  # only these dims are read later
        keys, first = np.empty(pos.size, dtype=np.int64), np.append(tables[d - 1][1], n) if d else None
        if d == 1:
            ends = np.empty((pos.size, 2), dtype=np.int64)
        for s in range(0, pos.size, _FACET_CHUNK):
            p = pos[s : s + _FACET_CHUNK]
            ranks = _find(ids, verts[p, : d + 1]).reshape(p.size, d + 1)  # without d-simplices, verts may be narrower
            keys[s : s + p.size] = key(ranks)
            if d:  # facet i drops vertex d - i; an absent facet reads position n
                f = np.column_stack([first[_find(tables[d - 1][0], key(np.delete(ranks, d - i, axis=1)))]
                                     for i in range(d + 1)])
                missing[p] = np.where((late := f > p[:, None]).any(axis=1), late.argmax(axis=1), -1)
                np.minimum.at(head, f, p[:, None])
                if d == 1:
                    ends[s : s + p.size] = f
        order = np.argsort(keys, kind="stable")  # a duplicate key's first position is kept
        keys = keys[order]
        new = np.ones(keys.size, dtype=bool)  # the first of each key
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        dup[pos[order[~new]]] = True
        new &= keys >= 0
        keys = keys[new]
        order = order[new]
        tables.append((keys, pos[order]))
        by_dim.append(pos if below else None)
    failed = np.flatnonzero(unsorted | low | dup | (missing >= 0))
    if not failed.size:
        def cofaces(p):  # p plus each vertex v, carried into order through p's ranks (then ids.size) and keyed
            out, carry = None, np.arange(ids.size)
            for c, r in enumerate(np.searchsorted(ids, verts[p, : dims[p] + 1]).tolist() + [ids.size]):
                x, carry = np.minimum(carry, r), np.maximum(carry, r)
                out = x if c == 0 else (out if c == 1 else _find(tables[c - 1][0], out)) * ids.size + x
            at = _find(tables[dims[p] + 1][0], out)  # a repeated vertex or an absent prefix finds nothing
            return tables[dims[p] + 1][1][at[at >= 0]]

        return by_dim, ends, head, cofaces
    p = int(failed[0])
    simplex = tuple(verts[p, : dims[p] + 1].tolist())
    if unsorted[p]:
        raise ContractViolationError(f"simplex {simplex} at position {p} is not strictly sorted")
    if low[p]:
        prev = values[p - 1] if p else -math.inf
        raise ContractViolationError(f"filtration value {values[p]} at position {p} is NaN or below {prev} before it")
    if dup[p]:
        raise ContractViolationError(f"duplicate simplex {simplex}")
    drop = dims[p] - missing[p]  # the vertex that the first missing facet leaves out
    raise ContractViolationError(f"face {simplex[:drop] + simplex[drop + 1:]} of {simplex} missing or out of order")


def _reduce(heads, column, track: bool = False):
    """Reduce sparse Z/2 columns left to right, yielding (key, pivot, v) per column.

    ``heads`` yields (key, pivot row of its unreduced column, None when it
    is empty) in reduction order, and ``column(key)`` builds that column as a
    set of rows; a nonzero set's pivot is its smallest row.  While the pivot
    is that of an earlier column, the earlier reduced column is added.  A
    column whose pivot is free at once is kept as its key alone: its set is
    built only when a later column must add it, and a column's own set only
    when it needs an addition.  The pivot is None for a column that vanishes.
    With ``track`` set, ``v`` is the set of keys whose columns sum to the
    reduced one (its V column); otherwise it is None.
    """
    reduced: dict = {}  # pivot row -> key of an unreduced column, or (reduced column, its V column)
    for key, low in heads:
        col, v = None, {key} if track else None
        while low is not None:
            other = reduced.get(low)
            if other is None:
                reduced[low] = key if col is None else (col, v)
                break
            if col is None:
                col = column(key)
            if not isinstance(other, tuple):
                other = reduced[low] = (column(other), {other} if track else None)
            col ^= other[0]
            if track:
                v ^= other[1]
            low = min(col) if col else None
        yield key, low, v


def persistent_homology(ff: FlagFiltration) -> Barcode:
    """Compute the barcode of a flag filtration over Z/2.

    The filtration must be sorted by value with every face preceding its
    cofaces (the canonical (value, dim, lex) order always qualifies), else a
    ContractViolationError is raised.  The pairs are those of standard
    left-to-right boundary reduction; the returned multiset of intervals is
    independent of tie order among equal-valued simplices.
    """
    by_dim, ends, head, cofaces = _validate(ff)
    values = ff.values

    intervals = []

    def pair(k: int, i: int, j: int | None) -> None:
        birth, death = float(values[i]), math.inf if j is None else float(values[j])
        if death > birth and k < ff.dim_cap:
            intervals.append(Interval(k=k, birth=birth, death=death, creator=i, destroyer=j))

    parent = {i: i for i in by_dim[0].tolist()}  # union-find over vertex positions

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    cleared = set()  # every destroyer found so far; a pass skips those of its own dimension
    for j, u, w in zip(by_dim[1].tolist(), *ends.T.tolist()):
        ru, rw = find(u), find(w)
        if ru != rw:
            young, old = max(ru, rw), min(ru, rw)
            parent[young] = old
            cleared.add(j)
            pair(0, young, j)
    for i in by_dim[0].tolist():
        if find(i) == i:
            pair(0, i, None)
    counts = {"reduced_columns": {}, "cleared_columns": {}, "column_sets": 0}

    def column(i):
        counts["column_sets"] += 1
        return set(cofaces(i).tolist())

    for k in range(1, ff.dim_cap):
        keys = [i for i in reversed(by_dim[k].tolist()) if i not in cleared]
        counts["reduced_columns"][k], counts["cleared_columns"][k] = len(keys), by_dim[k].size - len(keys)
        heads = ((i, None if low == values.size else low) for i, low in zip(keys, head[keys].tolist()))
        for i, j, _ in _reduce(heads, column):
            if j is not None:
                cleared.add(j)
            pair(k, i, j)

    intervals.sort(key=lambda iv: (iv.k, iv.birth, iv.death, iv.creator))
    destroyers = np.sort(np.fromiter(cleared, dtype=np.int64, count=len(cleared)))
    return Barcode(intervals=intervals, dim_cap=ff.dim_cap, filtration=ff, destroyers=destroyers, counts=counts)


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
    creators, destroyers = [iv.creator for iv in bars], bc.destroyers
    keys = [*destroyers[(bc.filtration.dims[destroyers] == k) & (destroyers < max(creators))].tolist(), *creators]
    rows = dict(zip(keys, bc.filtration.vertices[keys, : k + 1].tolist()))
    heads = ((key, tuple(row[:k])) for key, row in rows.items())  # a sorted row's smallest facet drops its last vertex
    column = lambda key: set(itertools.combinations(rows[key], k))
    cycles = {g: sorted(v) for g, low, v in _reduce(heads, column, track=True) if low is None}
    return [(iv, [tuple(rows[p]) for p in cycles[iv.creator]]) for iv in bars]


def save_barcode(bc: Barcode, path) -> None:
    """Write bars as CSV k,birth,death with 'inf' for open deaths."""
    _write_table(path, ["k,birth,death"], *zip(*((iv.k, iv.birth, iv.death) for iv in bc.intervals)))


def load_barcode(path) -> list[tuple[int, float, float]]:
    """Read a barcode CSV back as (k, birth, death) rows; death may be +inf."""
    table = _read_table(path, "k,birth,death", ints=1)
    return list(zip(table.ints[:, 0].tolist(), *table.floats.T.tolist()))

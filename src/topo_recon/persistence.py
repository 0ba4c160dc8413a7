"""Persistent homology over Z/2: one coboundary reduction for every degree.

H_k reduces the coboundary columns of the k-simplices in reverse filtration
order, each the set of positions of its (k+1)-cofaces with the smallest one
as pivot (de Silva, Morozov & Vejdemo-Johansson, *Dualities in persistent
(co)homology*, 2011); for k = 0 the columns are the vertices and the rows
their edges.  Dimensions run upwards with clearing (Bauer, *Ripser*, 2021):
a k-simplex that destroyed a (k-1)-class in the pass below is skipped, so
most columns pair at once with a free pivot (an apparent pair) and need no
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

A filtration from ``flag_expand`` keeps its top dimension implicit, and its
last degree is reduced with Ripser's implicit coboundary: a
(dim_cap - 1)-simplex's cofaces are the vertices in the AND of its
vertices' adjacency rows, each valued at the max of the simplex's value and
its new edges' births.  Among equal values they run by vertex ascending,
their (value, dim, vertices) order, so every pivot is a first-index argmin
over a chunked (simplices x ell) value array and a column is one AND; no
list of top simplices is made.  Creators and destroyers stay positions in
the whole list: a listed simplex's is its index plus the top simplices of
smaller value, and a top destroyer's is its rank, the listed simplices of
value <= its own plus the top simplices before it, counted a chunk of
(dim_cap - 1)-simplices at a time.  Only the listed simplices are checked;
a loaded filtration lists every simplex, so all of it is.
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
_COFACE_CELLS = 1 << 16  # the (simplices x ell) coface values an implicit top dimension holds at once
_ROW_BOUND = 2**63  # top rows that could reach it are Python ints


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
    counts: dict = field(default_factory=dict, repr=False)  # columns reduced, cleared and added per k, sets built
    # the position of each listed simplex in the whole list, ascending
    positions: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)

    def by_dim(self, k: int) -> list:
        return [iv for iv in self.intervals if iv.k == k]


def _find(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The index of each entry of ``x`` in the sorted array ``table``, or -1 where absent."""
    at = np.minimum(np.searchsorted(table, x), max(table.size - 1, 0))
    return np.where(table[at] == x, at, -1) if table.size else np.full(x.shape, -1)


def _validate(verts, dims, values, top: int) -> tuple:
    """Check canonical order and face closure of the listed simplices; return the pivots and a coface lookup.

    ``head[p]`` is simplex p's first coface position (n if none), and
    ``cofaces(p)`` lists them all.  A k-simplex's key is the index of its
    first k vertices' key among the (k-1)-simplex keys, times the vertex
    count, plus its last vertex's rank, so keys stay below n * ell.  The first
    failing position raises (order, value, duplicate, then faces).  Keys are
    tabled through dimension ``top``, so the cofaces of simplices below it are found.
    """
    n = values.size
    live = np.arange(1, verts.shape[1]) <= dims[:, None]
    unsorted = (dims < 0) | ((verts[:, 1:] <= verts[:, :-1]) & live).any(axis=1)
    low = ~(values >= np.concatenate(([-np.inf], values[:-1])))
    dup, missing, head = np.zeros(n, dtype=bool), np.full(n, -1, dtype=np.int8), np.full(n + 1, n)
    ids = np.unique(verts[dims == 0, 0])
    tables = []  # tables[k]: the k-simplex keys, sorted, and the first position of each

    def key(ranks):
        out = ranks[:, 0]
        for c in range(1, ranks.shape[1]):
            prefix = out if c == 1 else _find(tables[c - 1][0], out)  # a vertex's key index is its rank
            out = np.where((prefix >= 0) & (ranks[:, c] >= 0), prefix * ids.size + ranks[:, c], -1)
        return out

    for d in range(max(top, int(dims.max(initial=0))) + 1):
        pos = np.flatnonzero(dims == d)
        keys, first = np.empty(pos.size, dtype=np.int64), np.append(tables[d - 1][1], n) if d else None
        for s in range(0, pos.size, _FACET_CHUNK):
            p = pos[s : s + _FACET_CHUNK]
            ranks = _find(ids, verts[p, : d + 1]).reshape(p.size, d + 1)  # without d-simplices, verts may be narrower
            keys[s : s + p.size] = key(ranks)
            if d:  # facet i drops vertex d - i; an absent facet reads position n
                f = np.column_stack([first[_find(tables[d - 1][0], key(np.delete(ranks, d - i, axis=1)))]
                                     for i in range(d + 1)])
                missing[p] = np.where((late := f > p[:, None]).any(axis=1), late.argmax(axis=1), -1)
                np.minimum.at(head, f, p[:, None])
        order = np.argsort(keys, kind="stable")  # a duplicate key's first position is kept
        keys = keys[order]
        new = np.ones(keys.size, dtype=bool)  # the first of each key
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        dup[pos[order[~new]]] = True
        new &= keys >= 0
        keys = keys[new]
        order = order[new]
        tables.append((keys, pos[order]))
    failed = np.flatnonzero(unsorted | low | dup | (missing >= 0))
    if not failed.size:
        def cofaces(p):  # p plus each vertex v, carried into order through p's ranks (then ids.size) and keyed
            out, carry = None, np.arange(ids.size)
            for c, r in enumerate(np.searchsorted(ids, verts[p, : dims[p] + 1]).tolist() + [ids.size]):
                x, carry = np.minimum(carry, r), np.maximum(carry, r)
                out = x if c == 0 else (out if c == 1 else _find(tables[c - 1][0], out)) * ids.size + x
            at = _find(tables[dims[p] + 1][0], out)  # a repeated vertex or an absent prefix finds nothing
            return tables[dims[p] + 1][1][at[at >= 0]]

        return head, cofaces
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
    """Reduce sparse Z/2 columns left to right, yielding (key, pivot, v, additions) per column.

    ``heads`` yields (key, pivot row of its unreduced column, None when it
    is empty) in reduction order, and ``column(key)`` builds that column as a
    set of rows; a nonzero set's pivot is its smallest row.  While the pivot
    is that of an earlier column, the earlier reduced column is added.  A
    column whose pivot is free at once is kept as its key alone: its set is
    built only when a later column must add it, and a column's own set only
    when it needs an addition.  The pivot is None for a column that vanishes.
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
            if not isinstance(other, tuple):
                other = reduced[low] = (column(other), {other} if track else None)
            col ^= other[0]
            additions += 1
            if track:
                v ^= other[1]
            low = min(col) if col else None
        yield key, low, v, additions


class _TopRows:
    """The implicit top dimension of a flag filtration: coface values, and top simplices as ordered integers.

    A listed (dim_cap - 1)-simplex's cofaces are the vertices v whose
    ``top_births`` are finite to each of its vertices; a coface's value is
    the max of the simplex's value and those births, so it is an edge birth.
    A top simplex's row is (rank of its value among the edge births) *
    ell^(dim_cap + 1) plus its sorted vertices as base-ell digits, so rows
    compare in (value, vertices) order; they are NumPy int64, or Python ints
    (object arrays) when they could reach ``_ROW_BOUND``.
    """

    def __init__(self, ff: FlagFiltration):
        self.verts, self.values, self.births, self.d = ff.listed_vertices, ff.listed_values, ff.top_births, ff.dim_cap
        self.ell = self.births.shape[0]
        self.levels = np.unique(self.births[np.isfinite(self.births)])
        self.span = self.ell ** (self.d + 1)
        self.dtype = np.int64 if max(1, self.levels.size) * self.span < _ROW_BOUND else object
        self.powers = np.array([self.ell ** (self.d - c) for c in range(self.d + 1)], dtype=self.dtype)

    def cofaces(self, rows) -> np.ndarray:
        """The (rows, ell) values of the listed simplices ``rows`` plus each vertex, +inf where that is no simplex."""
        out = self.births[self.verts[rows, 0]]
        for c in range(1, self.d):
            np.maximum(out, self.births[self.verts[rows, c]], out=out)
        return np.maximum(out, self.values[rows, None], out=out)

    def encode(self, faces, xs, vs) -> np.ndarray:
        """The rows of the sorted ``faces`` (r or 1, dim_cap) plus the vertices ``vs``, at the values ``xs``."""
        at = (faces < vs[:, None]).sum(axis=1)  # where v goes
        out = np.searchsorted(self.levels, xs).astype(self.dtype) * self.span + vs.astype(self.dtype) * self.powers[at]
        for c in range(self.d):
            out += faces[:, c].astype(self.dtype) * self.powers[c + (c >= at)]
        return out

    def value(self, rows) -> np.ndarray:
        """The values of ``rows``."""
        return self.levels[(np.asarray(rows, dtype=self.dtype) // self.span).astype(np.int64)]


def _top_coboundary(top: _TopRows, keys: list):
    """The pivots of the listed (dim_cap - 1)-simplices ``keys`` and their column builder, from the implicit top.

    Among equal values the cofaces run by v ascending, which is their
    (value, vertices) order, so a pivot is a first-index argmin over v,
    taken a chunk of ``_COFACE_CELLS`` values at a time.
    """
    order, step = np.asarray(keys, dtype=np.int64), max(1, _COFACE_CELLS // top.ell)
    pivots = np.empty(order.size, dtype=top.dtype)
    for s in range(0, order.size, step):
        block = top.cofaces(order[s : s + step])
        vs = block.argmin(axis=1)
        xs = block[np.arange(vs.size), vs]
        pivots[s : s + step] = np.where(xs < np.inf, top.encode(top.verts[order[s : s + step], : top.d], xs, vs), -1)
    heads = ((i, None if low < 0 else low) for i, low in zip(keys, pivots.tolist()))

    def column(i):
        xs = top.cofaces([i])[0]
        vs = np.flatnonzero(xs < np.inf)
        return set(top.encode(top.verts[i : i + 1, : top.d], xs[vs], vs).tolist())

    return heads, column


def _positions(ff: FlagFiltration, top: _TopRows | None, tops: list) -> tuple[np.ndarray, np.ndarray]:
    """The positions in the whole (value, dim, vertices) list of every listed simplex and of the top rows ``tops``.

    A listed simplex precedes the top simplices of its value, so its
    position is its index plus the count of top rows of smaller value.  A
    top simplex's is the count of listed simplices of value <= its own plus
    that of the top rows below its own.  Each top simplex is counted once,
    as its first dim_cap vertices (a listed simplex) plus a larger vertex, a
    chunk of ``_COFACE_CELLS`` at a time, so no array grows with the top dimension.
    """
    values = ff.listed_values
    if top is None:
        return np.arange(values.size), np.empty(0, dtype=np.int64)
    prefixes, higher = np.flatnonzero(ff.listed_dims == top.d - 1), np.arange(top.ell)
    queries = np.concatenate((np.searchsorted(top.levels, values).astype(top.dtype) * top.span,
                              np.asarray(tops, dtype=top.dtype)))  # a listed query: the least row of its value
    before, step = np.zeros(queries.size, dtype=np.int64), max(1, _COFACE_CELLS // top.ell)
    for s in range(0, prefixes.size, step):
        p = prefixes[s : s + step]
        cells = top.cofaces(p)
        cells[higher <= top.verts[p, top.d - 1, None]] = np.inf
        r, v = np.nonzero(cells < np.inf)
        before += np.searchsorted(np.sort(top.encode(top.verts[p[r], : top.d], cells[r, v], v)), queries)
    n = values.size
    return np.arange(n) + before[:n], np.searchsorted(values, top.value(tops), side="right") + before[n:]


def persistent_homology(ff: FlagFiltration) -> Barcode:
    """Compute the barcode of a flag filtration over Z/2.

    The filtration must be sorted by value with every face preceding its
    cofaces (the canonical (value, dim, lex) order always qualifies), else a
    ContractViolationError is raised.  The pairs are those of standard
    left-to-right boundary reduction; the returned multiset of intervals is
    independent of tie order among equal-valued simplices.  The listed
    simplices are checked; an implicit top dimension is reduced through
    ``_top_coboundary`` and its destroyers placed by ``_positions``.
    """
    top = _TopRows(ff) if ff.top_births is not None else None
    verts, dims, values = ff.listed_vertices, ff.listed_dims, ff.listed_values
    head, cofaces = _validate(verts, dims, values, ff.dim_cap - (top is not None))
    pairs, cleared, tops = [], set(), []  # cleared: the listed destroyers; a pass skips those of its own dimension
    counts = {"reduced_columns": {}, "cleared_columns": {}, "column_additions": {}, "column_sets": 0}

    def counted(build):  # the column builder, counting the sets it builds
        def column(i):
            counts["column_sets"] += 1
            return build(i)

        return column

    for k in range(ff.dim_cap):
        simplices = np.flatnonzero(dims == k)[::-1].tolist()
        keys = [i for i in simplices if i not in cleared]
        counts["reduced_columns"][k], counts["cleared_columns"][k] = len(keys), len(simplices) - len(keys)
        counts["column_additions"][k] = 0
        implicit = top is not None and k == ff.dim_cap - 1
        if implicit:
            heads, build = _top_coboundary(top, keys)
        else:
            heads = ((i, None if low == values.size else low) for i, low in zip(keys, head[keys].tolist()))
            build = lambda i: set(cofaces(i).tolist())
        for i, j, _, additions in _reduce(heads, counted(build)):
            counts["column_additions"][k] += additions
            if j is not None:
                (tops.append if implicit else cleared.add)(j)
            pairs.append((k, i, j, implicit))

    positions, top_positions = _positions(ff, top, tops)
    at, intervals = positions.tolist(), []
    top_at = dict(zip(tops, zip(top_positions.tolist(), top.value(tops).tolist()))) if top else {}
    for k, i, j, implicit in pairs:
        if j is None:
            destroyer, death = None, math.inf
        elif implicit:
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

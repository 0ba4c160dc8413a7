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
Columns are sparse sets and one routine, ``_reduce``, does every reduction,
representative cycles included.  Homology is reported for k < dim_cap;
intervals with equal birth and death are homologically invisible and omitted.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

from .signal import _read_table, _write_table
from .witness import FlagFiltration


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

    def by_dim(self, k: int) -> list:
        return [iv for iv in self.intervals if iv.k == k]


def _validate(ff: FlagFiltration) -> tuple[dict, dict, dict]:
    """Check canonical order and face closure; return the index map, coface lists and positions by dim.

    ``cofaces[p]`` lists, ascending, the positions of the simplices that have
    the simplex at position p as a facet; ``by_dim[k]`` lists the positions
    of the k-simplices, ascending.
    """
    index: dict[tuple, int] = {}
    cofaces: defaultdict[int, list[int]] = defaultdict(list)
    by_dim: defaultdict[int, list[int]] = defaultdict(list)
    prev_value = -math.inf
    for pos, (verts, value) in enumerate(ff.simplices):
        n = len(verts)
        if not n or not all(map(operator.lt, verts, verts[1:])):
            raise ContractViolationError(f"simplex {verts} at position {pos} is not strictly sorted")
        if not value >= prev_value:
            raise ContractViolationError(
                f"filtration value {value} at position {pos} is NaN or below {prev_value} before it"
            )
        prev_value = value
        if index.setdefault(verts, pos) != pos:
            raise ContractViolationError(f"duplicate simplex {verts}")
        by_dim[n - 1].append(pos)
        if n > 1:
            for f in combinations(verts, n - 1):
                fp = index.get(f)
                if fp is None:
                    raise ContractViolationError(f"face {f} of {verts} missing or out of order")
                cofaces[fp].append(pos)
    return index, cofaces, by_dim


def _reduce(columns, pick, track: bool = False):
    """Reduce sparse Z/2 columns left to right, yielding (key, pivot, v) per column.

    ``columns`` yields (key, set of rows) in reduction order, and ``pick``
    (min or max) names a nonzero column's pivot row.  While that row is the
    pivot of an earlier column, the earlier reduced column is added.  The
    pivot is None for a column that vanishes.  With ``track`` set, ``v`` is
    the set of keys whose columns sum to the reduced one (its V column);
    otherwise it is None.
    """
    reduced: dict = {}  # pivot row -> (reduced column, its V column)
    for key, col in columns:
        v = {key} if track else None
        while col:
            low = pick(col)
            other = reduced.get(low)
            if other is None:
                reduced[low] = (col, v)
                yield key, low, v
                break
            col ^= other[0]
            if track:
                v ^= other[1]
        else:
            yield key, None, v


def persistent_homology(ff: FlagFiltration) -> Barcode:
    """Compute the barcode of a flag filtration over Z/2.

    The filtration must be sorted by value with every face preceding its
    cofaces (the canonical (value, dim, lex) order always qualifies), else a
    ContractViolationError is raised.  The pairs are those of standard
    left-to-right boundary reduction; the returned multiset of intervals is
    independent of tie order among equal-valued simplices.
    """
    index, cofaces, by_dim = _validate(ff)
    sims = ff.simplices
    values = [v for _, v in sims]

    intervals = []

    def pair(k: int, i: int, j: int | None) -> None:
        death = math.inf if j is None else values[j]
        if death > values[i] and k < ff.dim_cap:
            intervals.append(Interval(k=k, birth=values[i], death=death, creator=i, destroyer=j))

    parent = list(range(len(sims)))  # union-find over vertex positions

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    cleared = set()  # destroyers found by the pass one dimension below
    for j in by_dim.get(1, ()):
        u, w = sims[j][0]
        ru, rw = find(index[(u,)]), find(index[(w,)])
        if ru != rw:
            young, old = max(ru, rw), min(ru, rw)
            parent[young] = old
            cleared.add(j)
            pair(0, young, j)
    for i in by_dim.get(0, ()):
        if find(i) == i:
            pair(0, i, None)

    for k in range(1, ff.dim_cap):
        below, cleared = cleared, set()
        columns = ((i, set(cofaces.get(i, ()))) for i in reversed(by_dim.get(k, ())) if i not in below)
        for i, j, _ in _reduce(columns, min):
            if j is not None:
                cleared.add(j)
            pair(k, i, j)

    intervals.sort(key=lambda iv: (iv.k, iv.birth, iv.death, iv.creator))
    return Barcode(intervals=intervals, dim_cap=ff.dim_cap, filtration=ff)


def betti_at(bc: Barcode, epsilon: float) -> list[int]:
    """Betti numbers [beta_0, ..., beta_{dim_cap-1}] at a fixed scale.

    A bar counts at epsilon when birth <= epsilon < death; with a capped
    filtration this is exact for every epsilon up to the cap.
    """
    if bc.filtration.max_value is not None and epsilon > bc.filtration.max_value:
        raise ValueError(f"epsilon {epsilon} exceeds the filtration cap {bc.filtration.max_value}")
    betti = [0] * bc.dim_cap
    for iv in bc.intervals:
        if iv.birth <= epsilon < iv.death:
            betti[iv.k] += 1
    return betti


def _kernel_cycles(bc: Barcode, k: int) -> dict[int, list[tuple]]:
    """Cycle representatives for every dim-k creator, via a V-tracked boundary pass.

    Reduces the dim-k boundary columns alone, in filtration order with the
    largest face position as pivot; a column that reduces to zero is a
    creator, and its V column is a k-cycle whose youngest simplex is that
    creator.
    """
    sims = bc.filtration.simplices
    index = {verts: pos for pos, (verts, _) in enumerate(sims)}
    columns = (
        (g, {index[f] for f in combinations(verts, k)})
        for g, (verts, _) in enumerate(sims)
        if len(verts) == k + 1
    )
    reduction = _reduce(columns, max, track=True)
    return {g: [sims[p][0] for p in sorted(v)] for g, low, v in reduction if low is None}


def representative_cycles(bc: Barcode, k: int, top_n: int = 2) -> list[tuple[Interval, list[tuple]]]:
    """One representative k-cycle for each of the top_n longest k-intervals.

    Representatives are non-canonical: each is a single valid choice among
    homologous cycles born with its bar, returned as a list of k-simplex
    vertex tuples.
    """
    if k < 1:
        raise ValueError("representative cycles need k >= 1")
    bars = sorted(bc.by_dim(k), key=lambda iv: (-iv.length, iv.birth, iv.creator))
    cycles = _kernel_cycles(bc, k)
    out = []
    for iv in bars[:top_n]:
        out.append((iv, cycles[iv.creator]))
    return out


def save_barcode(bc: Barcode, path) -> None:
    """Write bars as CSV k,birth,death with 'inf' for open deaths."""
    _write_table(path, ["k,birth,death"], *zip(*((iv.k, iv.birth, iv.death) for iv in bc.intervals)))


def load_barcode(path) -> list[tuple[int, float, float]]:
    """Read a barcode CSV back as (k, birth, death) rows; death may be +inf."""
    table = _read_table(path, "k,birth,death", ints=1)
    return list(zip(table.ints[:, 0].tolist(), *table.floats.T.tolist()))

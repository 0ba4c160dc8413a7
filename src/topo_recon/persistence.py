"""Persistent homology over Z/2 by boundary-matrix column reduction.

Columns are stored as arbitrary-precision Python integers (one bit per row),
so a column addition is a single XOR.  Reduction runs a dimension at a time
from the top down with the clearing optimization: once a column is paired,
the creator it points at is skipped entirely.  Homology is reported for
k < dim_cap; intervals with equal birth and death are homologically
invisible and omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .signal import _read_table
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


def _validate(ff: FlagFiltration) -> dict:
    """Check canonical order and face closure; return the simplex index map."""
    index: dict[tuple, int] = {}
    prev_value = -math.inf
    for pos, (verts, value) in enumerate(ff.simplices):
        if not verts or any(verts[i] >= verts[i + 1] for i in range(len(verts) - 1)):
            raise ContractViolationError(f"simplex {verts} at position {pos} is not strictly sorted")
        if value < prev_value:
            raise ContractViolationError(
                f"filtration values decrease at position {pos} ({value} after {prev_value})"
            )
        prev_value = value
        if verts in index:
            raise ContractViolationError(f"duplicate simplex {verts}")
        if len(verts) > 1:
            for f in combinations(verts, len(verts) - 1):
                if f not in index:
                    raise ContractViolationError(f"face {f} of {verts} missing or out of order")
        index[verts] = pos
    return index


def persistent_homology(ff: FlagFiltration) -> Barcode:
    """Compute the barcode of a flag filtration over Z/2.

    The filtration must be sorted by value with every face preceding its
    cofaces (the canonical (value, dim, lex) order always qualifies), else a
    ContractViolationError is raised.  Pairing follows standard left-to-right
    column reduction; the returned multiset of intervals is independent of
    tie order among equal-valued simplices.
    """
    index = _validate(ff)
    sims = ff.simplices
    n = len(sims)
    values = [v for _, v in sims]
    dims_of = [len(v) - 1 for v, _ in sims]
    by_dim: dict[int, list[int]] = {}
    for pos, d in enumerate(dims_of):
        by_dim.setdefault(d, []).append(pos)
    max_dim = max(by_dim) if by_dim else 0

    reduced: dict[int, int] = {}  # destroyer position -> reduced column bits
    pivot: dict[int, int] = {}  # low row -> destroyer position
    cleared: set[int] = set()  # creator rows identified by a higher-dim pass
    pairs: list[tuple[int, int]] = []

    for d in range(max_dim, 0, -1):
        for j in by_dim.get(d, ()):
            if j in cleared:
                continue
            verts = sims[j][0]
            col = 0
            for f in combinations(verts, d):
                col |= 1 << index[f]
            while col:
                low = col.bit_length() - 1
                other = pivot.get(low)
                if other is None:
                    break
                col ^= reduced[other]
            if col:
                low = col.bit_length() - 1
                pivot[low] = j
                reduced[j] = col
                cleared.add(low)
                pairs.append((low, j))

    intervals = []
    for i, j in pairs:
        k = dims_of[i]
        if k >= ff.dim_cap:
            continue
        birth, death = values[i], values[j]
        if death > birth:
            intervals.append(Interval(k=k, birth=birth, death=death, creator=i, destroyer=j))

    destroyers = set(reduced)
    for pos in range(n):
        if pos in cleared or pos in destroyers:
            continue
        k = dims_of[pos]
        if k >= ff.dim_cap:
            continue
        intervals.append(Interval(k=k, birth=values[pos], death=math.inf, creator=pos))

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
    """Cycle representatives for every dim-k creator, via a V-tracked kernel pass.

    Reduces the dim-k boundary columns alone; a column that reduces to zero
    is a creator, and its accumulated V column is a k-cycle whose youngest
    simplex is that creator.
    """
    ff = bc.filtration
    index = {verts: pos for pos, (verts, _) in enumerate(ff.simplices)}
    cols = [pos for pos, (verts, _) in enumerate(ff.simplices) if len(verts) == k + 1]
    reduced: dict[int, int] = {}
    vcols: dict[int, int] = {}
    pivot: dict[int, int] = {}
    cycles: dict[int, list[tuple]] = {}
    for li, g in enumerate(cols):
        verts = ff.simplices[g][0]
        col = 0
        for f in combinations(verts, k):
            col |= 1 << index[f]
        vec = 1 << li
        while col:
            low = col.bit_length() - 1
            other = pivot.get(low)
            if other is None:
                break
            col ^= reduced[other]
            vec ^= vcols[other]
        if col:
            low = col.bit_length() - 1
            pivot[low] = li
            reduced[li] = col
            vcols[li] = vec
        else:
            members = []
            while vec:
                bit = vec & -vec
                members.append(ff.simplices[cols[bit.bit_length() - 1]][0])
                vec ^= bit
            cycles[g] = members
    return cycles


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,birth,death\n")
        for iv in bc.intervals:
            death = "inf" if math.isinf(iv.death) else repr(iv.death)
            fh.write(f"{iv.k},{iv.birth!r},{death}\n")


def load_barcode(path) -> list[tuple[int, float, float]]:
    """Read a barcode CSV back as (k, birth, death) rows; death may be +inf."""
    _, rows = _read_table(path, "k,birth,death", ints=1)
    return [tuple(row) for _, row in rows]


__all__ = [
    "Barcode",
    "ContractViolationError",
    "Interval",
    "betti_at",
    "load_barcode",
    "persistent_homology",
    "representative_cycles",
    "save_barcode",
]

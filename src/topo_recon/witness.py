"""Fuzzy witness complexes as exact edge-birth filtrations with flag expansion.

For witnesses W and landmarks L, a witness w supports landmark l at scale
epsilon when ||w - l|| <= n(w) + epsilon, where n(w) is the distance from w
to its nearest landmark.  A landmark pair {i, j} enters the complex at the
smallest epsilon at which one witness supports both ends, which gives the
closed-form birth value

    birth(i, j) = min over w of ( max(||w - l_i||, ||w - l_j||) - n(w) ).

Higher simplices are filled in flag-style: a simplex is present exactly when
all its edges are, with filtration value the largest edge birth.  Computing
births exactly makes every epsilon queryable instead of sampling a grid.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .embed import PointCloud
from .landmarks import LandmarkSet


class ResourceLimitError(RuntimeError):
    """The expansion would exceed the configured simplex budget."""


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, PointCloud):
        return obj.points
    if isinstance(obj, LandmarkSet):
        return obj.coords
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d array of points")
    return arr


@dataclass
class DistanceMatrix:
    """All witness-to-landmark distances plus each witness's nearest-landmark distance."""

    entries: np.ndarray
    nearest: np.ndarray


@dataclass
class EdgeFiltration:
    """Exact birth scales for vertices and edges over landmark indices.

    births is a symmetric (ell, ell) array with +inf on the diagonal and at
    absent edges; witness[i, j] is the index of the lowest witness achieving
    the birth (-1 where absent or not applicable).  When ``max_value`` is set
    the filtration is truncated at that scale: every value <= max_value is
    exact, and every larger one reads +inf (witness -1).
    """

    vertex_birth: np.ndarray
    births: np.ndarray
    witness: np.ndarray | None = None
    max_value: float | None = None

    def __post_init__(self):
        self.vertex_birth = np.asarray(self.vertex_birth, dtype=np.float64)
        self.births = np.asarray(self.births, dtype=np.float64)
        ell = self.vertex_birth.size
        if self.births.shape != (ell, ell):
            raise ValueError("births must be square and match vertex_birth")

    @property
    def n_vertices(self) -> int:
        return self.vertex_birth.size

    def edge_list(self, max_value: float | None = None):
        """Yield (i, j, birth) with i < j for every present edge, sorted by (i, j)."""
        iu, ju = np.triu_indices(self.n_vertices, k=1)
        vals = self.births[iu, ju]
        keep = np.isfinite(vals)
        if max_value is not None:
            keep &= vals <= max_value
        return list(zip(iu[keep].tolist(), ju[keep].tolist(), vals[keep].tolist()))


@dataclass
class FlagFiltration:
    """Simplices up to dim_cap with filtration values, sorted by (value, dim, vertices).

    When built with ``max_value`` set, the filtration is truncated at that
    scale: barcode queries at epsilon <= max_value are exact, and intervals
    still open there report death = +inf.
    """

    simplices: list
    dim_cap: int
    max_value: float | None = None

    def __len__(self) -> int:
        return len(self.simplices)

    def counts_by_dim(self) -> dict:
        out: dict[int, int] = {}
        for verts, _ in self.simplices:
            d = len(verts) - 1
            out[d] = out.get(d, 0) + 1
        return out


def distance_matrix(witnesses, landmarks) -> DistanceMatrix:
    """Euclidean distances from every witness to every landmark."""
    W = _as_points(witnesses)
    L = _as_points(landmarks)
    if W.shape[1] != L.shape[1]:
        raise ValueError(f"dimension mismatch: witnesses are {W.shape[1]}-d, landmarks {L.shape[1]}-d")
    if W.shape[0] == 0 or L.shape[0] == 0:
        raise ValueError("witnesses and landmarks must be nonempty")
    entries = cdist(W, L)
    return DistanceMatrix(entries=entries, nearest=entries.min(axis=1))


def _fold_rows(excess, s, births, witness, iu, ju, key) -> None:
    """Fold one block into the minima of pairs iu < ju (flat keys ``key``), a run of 64 witnesses at a time.

    ``excess[j]`` is landmark j's excess over the witnesses from index ``s``.  No witness of a run
    gives {i, j} less than max(low[i], low[j]), so a pair whose bound is not below its birth is skipped.
    """
    births, witness = births.reshape(-1), witness.reshape(-1)
    for r in range(0, excess.shape[1], 64):  # runs of 32/64/128/256, 3-d trajectory: 0.83/0.47-0.69/1.0/1.8 s
        run = excess[:, r : r + 64]
        low = run.min(axis=1)  # the run's smallest excess per landmark
        cand = np.flatnonzero(np.maximum(low[iu], low[ju]) < births[key])
        for c in range(0, cand.size, 512):  # chunks bound the temporaries of a run that folds most pairs
            pick = cand[c : c + 512]
            pm = np.maximum(run[iu[pick]], run[ju[pick]])
            w_idx = pm.argmin(axis=1)  # first (lowest) witness of the run achieving the min
            vals, k = pm[np.arange(pick.size), w_idx], key[pick]
            better = vals < births[k]  # strict: an earlier run keeps its tie
            births[k[better]], witness[k[better]] = vals[better], s + r + w_idx[better]


def _fold_pairs(excess, near, s, births, witness) -> None:
    """Fold one block into the running minima through the landmark pairs each witness has within the cap.

    A witness gives pair {i, j} a value <= cap only when both excesses are
    <= cap, so listing those pairs per witness is exact below the cap.
    """
    n_l = excess.shape[0]
    w_of, l_of = np.nonzero(near.T)  # by witness, then landmark
    ex = excess[l_of, w_of]
    later = np.searchsorted(w_of, w_of, side="right") - np.arange(w_of.size) - 1
    first = np.repeat(np.arange(w_of.size), later)  # each entry, paired with every later one of its witness
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    key = l_of[first] * n_l + l_of[second]
    val = np.maximum(ex[first], ex[second])
    order = np.lexsort((val, key))  # stable, so the lowest witness leads its ties
    key, val, wit = key[order], val[order], w_of[first[order]]
    lead = np.ones(key.size, dtype=bool)
    lead[1:] = key[1:] != key[:-1]
    key, val, wit = key[lead], val[lead], wit[lead]
    better = val < births.reshape(-1)[key]  # strict: an earlier block keeps its tie
    births.reshape(-1)[key[better]] = val[better]
    witness.reshape(-1)[key[better]] = s + wit[better]


def edge_births(dm: DistanceMatrix, block: int = 512, cap: float | None = None) -> EdgeFiltration:
    """Exact vertex and edge birth scales from a distance matrix.

    vertex_birth[j] = min over w of (d(w, j) - n(w)) and
    births[i, j]    = min over w of (max(d(w, i), d(w, j)) - n(w)),
    with the lowest witness index achieving each edge minimum recorded.
    Witnesses are scanned in blocks of ``block`` rows of ``dm.entries``, so
    no temporary is larger than ell x block.  The row fold skips the pairs a
    run of 64 witnesses cannot lower, which pays when consecutive witnesses
    lie close together, as along a trajectory.  A later run or block replaces
    a running minimum only when strictly smaller, so ties go to the lowest witness.

    With ``cap`` set, the result is truncated at that scale: every birth
    <= cap is bitwise the uncapped value with the same witness, and every
    larger one is +inf with witness -1.  A witness can give edge {i, j} a
    birth <= cap only if its excesses d(w, i) - n(w) and d(w, j) - n(w) are
    both <= cap.  A block whose witnesses have few such pairs is folded in
    pair by pair; a denser one goes through the row fold, whose births above
    the cap the truncation drops.
    """
    if cap is not None and not cap >= 0:
        raise ValueError(f"cap must be a nonnegative number, got {cap}")
    if block < 1:
        raise ValueError(f"block must be at least 1, got {block}")
    n_w, n_l = dm.entries.shape
    vertex_birth = np.full(n_l, np.inf)
    births = np.full((n_l, n_l), np.inf)
    witness = np.full((n_l, n_l), -1, dtype=np.int64)
    pairs = None  # landmark pairs i < j and flat keys, made only once a block takes the row fold
    for s in range(0, n_w, block):
        e = min(s + block, n_w)
        # excess[j] is landmark j's row over this block's witnesses, contiguous
        excess = np.subtract(dm.entries[s:e].T, dm.nearest[s:e], order="C")
        np.minimum(vertex_birth, excess.min(axis=1), out=vertex_birth)
        if cap is not None:
            near = excess <= cap
            per_witness = near.sum(axis=0)
            # the measured crossover (ell ~ 200, 512 rows): pairs win below ~0.4 pairs per excess
            if 5 * (int(per_witness @ (per_witness - 1)) // 2) <= 2 * excess.size:
                _fold_pairs(excess, near, s, births, witness)
                continue
        if pairs is None:
            iu, ju = np.triu_indices(n_l, k=1)
            pairs = (iu, ju, iu * n_l + ju)
        _fold_rows(excess, s, births, witness, *pairs)
    lower = np.tril_indices(n_l, k=-1)
    births[lower] = births.T[lower]
    witness[lower] = witness.T[lower]
    if cap is not None:
        vertex_birth[vertex_birth > cap] = np.inf
        over = births > cap
        births[over] = np.inf
        witness[over] = -1
    return EdgeFiltration(vertex_birth, births, witness, max_value=cap)


def flag_expand(
    ef: EdgeFiltration,
    dim_cap: int = 3,
    max_value: float | None = None,
    max_simplices: int = 100_000_000,
) -> FlagFiltration:
    """Expand an edge filtration into its clique (flag) filtration up to dim_cap.

    A clique's value is the largest birth among its edges.  ``max_value``
    truncates the filtration at that scale; ``max_simplices`` bounds the
    total count and raises ResourceLimitError when exceeded.  A truncated
    ``ef`` needs a ``max_value`` no larger than its own.
    """
    if dim_cap < 1:
        raise ValueError("dim_cap must be at least 1")
    if ef.max_value is not None and (max_value is None or max_value > ef.max_value):
        raise ValueError(
            f"edge filtration is truncated at {ef.max_value}; max_value={max_value} would drop edges"
        )
    ell = ef.n_vertices
    births = ef.births
    vb = ef.vertex_birth

    simplices: list[tuple[tuple[int, ...], float]] = []
    for v in range(ell):
        value = float(vb[v])
        if max_value is not None and value > max_value:
            continue
        simplices.append(((v,), value))

    edges = ef.edge_list(max_value)
    if len(simplices) + len(edges) > max_simplices:
        raise ResourceLimitError(
            f"vertex and edge count {len(simplices) + len(edges)} exceeds budget {max_simplices}"
        )

    # neighbors with higher index, as bitmasks, over edges below the cap
    nbr = [0] * ell
    for i, j, _ in edges:
        nbr[i] |= 1 << j

    count = len(simplices) + len(edges)
    births_rows = [births[v] for v in range(ell)]

    def grow(simplex: tuple, value: float, cand: int):
        nonlocal count
        while cand:
            lowbit = cand & -cand
            u = lowbit.bit_length() - 1
            cand ^= lowbit
            val = value
            for w in simplex:
                b = births_rows[w][u]
                if b > val:
                    val = b
            child = simplex + (u,)
            count += 1
            if count > max_simplices:
                raise ResourceLimitError(f"simplex count exceeds budget {max_simplices}")
            simplices.append((child, float(val)))
            if len(child) <= dim_cap:
                grow(child, val, cand & nbr[u])

    for i, j, bij in edges:
        simplices.append(((i, j), float(bij)))
        if dim_cap >= 2:
            grow((i, j), float(bij), nbr[i] & nbr[j])

    simplices.sort(key=lambda sv: (sv[1], len(sv[0]), sv[0]))
    return FlagFiltration(simplices=simplices, dim_cap=dim_cap, max_value=max_value)


def complex_at(ff: FlagFiltration, epsilon: float) -> list:
    """The simplex list at a fixed scale: every simplex with value <= epsilon."""
    if ff.max_value is not None and epsilon > ff.max_value:
        raise ValueError(f"epsilon {epsilon} exceeds the filtration cap {ff.max_value}")
    return ff.simplices[: bisect_right(ff.simplices, epsilon, key=lambda sv: sv[1])]


def skeleton_export(ff: FlagFiltration, epsilon: float, edges_path) -> int:
    """Write the 1-skeleton at a scale as an edge CSV (i, j, birth).

    Returns the number of edges written; the file is header-only when the
    complex has no edges at this scale.
    """
    wrote = 0
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write("i,j,birth\n")
        for verts, value in complex_at(ff, epsilon):
            if len(verts) == 2:
                fh.write(f"{verts[0]},{verts[1]},{value!r}\n")
                wrote += 1
    return wrote


def save_filtration(ff: FlagFiltration, path) -> None:
    """Write the filtration as a JSON array of {vertices, value}, canonically sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        last = len(ff.simplices) - 1
        for pos, (verts, value) in enumerate(ff.simplices):
            row = json.dumps({"vertices": list(verts), "value": value})
            fh.write(row)
            fh.write(",\n" if pos != last else "\n")
        fh.write("]\n")


def load_filtration(path) -> FlagFiltration:
    """Read a filtration JSON array; dim_cap is inferred from the largest simplex."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON array of simplices")
    simplices = []
    try:
        for pos, entry in enumerate(raw):
            verts = tuple(int(v) for v in entry["vertices"])
            simplices.append((verts, float(entry["value"])))
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"{path}: entry {pos} is not an object with numeric 'vertices' and 'value'"
        ) from None
    if not simplices:
        raise ValueError(f"{path}: filtration is empty")
    dim_cap = max(1, max(len(v) - 1 for v, _ in simplices))
    return FlagFiltration(simplices=simplices, dim_cap=dim_cap, max_value=None)

"""Fuzzy witness complexes as exact edge-birth filtrations with flag expansion.

For witnesses W and landmarks L, a witness w supports landmark l at scale
epsilon when ||w - l|| <= n(w) + epsilon, where n(w) is the distance from w
to its nearest landmark.  A landmark pair {i, j} enters the complex at the
smallest epsilon at which one witness supports both ends, which gives the
closed-form birth value

    birth(i, j) = min over w of ( max(||w - l_i||, ||w - l_j||) - n(w) ).

Witnesses and landmarks come in as 2-d coordinate arrays.  The distances
are computed a block of witnesses at a time inside ``edge_births``, so no
array grows with the witness count, and folded in runs of 64 witnesses.
Under a cap a run lists only the landmark pairs one of its witnesses holds
within the cap, exact below it by the lazy-witness restriction of de Silva &
Carlsson (2004).

Higher simplices are filled in flag-style: a simplex is present exactly when
all its edges are, with filtration value the largest edge birth.  Computing
births exactly makes every epsilon queryable instead of sampling a grid.  A
flag filtration is held as NumPy arrays (padded vertex ids, dimensions,
values), expanded a dimension at a time from the boolean adjacency and put
in (value, dim, vertices) order by one ``np.lexsort``, as Ripser keeps its
simplices as arrays (Bauer, *Ripser*, 2021).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .signal import SeriesFormatError, _write_table


class ResourceLimitError(RuntimeError):
    """The expansion would exceed the configured simplex budget."""


@dataclass
class DistanceMatrix:
    """Witness-to-landmark distances, computed a block of witnesses at a time by ``rows``.

    Holds the witnesses coordinate-major, (m, N), and the (ell, m) landmarks,
    never an N x ell array.  ``entries`` (N, ell) builds the whole array on
    every access.
    """

    coords: np.ndarray
    landmarks: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.coords.shape[1], self.landmarks.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self.rows(0, self.shape[0]).T

    def rows(self, s: int, e: int, out=None, scratch=None) -> np.ndarray:
        """Distances from every landmark to witnesses s..e-1, landmark-major (ell, e - s), bitwise ``cdist``.

        Each entry sums (w_c - l_c)^2 in coordinate order from 0.0, SciPy's
        euclidean order, then takes the square root.  The first square is
        written as it is (0.0 + x is x for x >= 0).  ``out`` and ``scratch``,
        (ell, e - s) arrays, are reused when given.
        """
        shape = (self.landmarks.shape[0], e - s)
        out = np.empty(shape) if out is None else out
        scratch = np.empty(shape) if scratch is None else scratch
        if not self.coords.shape[0]:
            out.fill(0.0)
        for c, (column, values) in enumerate(zip(self.coords[:, s:e], self.landmarks.T)):
            sq = scratch if c else out
            np.square(np.subtract(column, values[:, None], out=sq), out=sq)
            if c:
                out += sq
        return np.sqrt(out, out=out)


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


@dataclass(init=False, eq=False)
class FlagFiltration:
    """Simplices up to dim_cap with filtration values, sorted by (value, dim, vertices).

    Stored as arrays: simplex p has dimension ``dims[p]``, vertex ids
    ``vertices[p, :dims[p] + 1]`` (the rest of the row is -1) and value
    ``values[p]``.  It can also be built from a list of (vertex tuple, value)
    pairs, which ``simplices`` lists back.  When built with ``max_value`` set,
    the filtration is truncated at that scale: barcode queries at epsilon <=
    max_value are exact, and intervals still open there report death = +inf.
    """

    vertices: np.ndarray
    dims: np.ndarray
    values: np.ndarray
    dim_cap: int
    max_value: float | None = None

    def __init__(self, simplices=None, dim_cap: int = 1, max_value=None, *, vertices=None, dims=None, values=None):
        if simplices is not None:
            dims = np.array([len(verts) - 1 for verts, _ in simplices], dtype=np.int64)
            vertices = np.full((dims.size, int(dims.max(initial=0)) + 1), -1, dtype=np.int64)
            for row, (verts, _) in zip(vertices, simplices):
                row[: len(verts)] = verts
            values = np.array([value for _, value in simplices], dtype=np.float64)
        self.vertices, self.dims, self.values = vertices, dims, values
        self.dim_cap, self.max_value = dim_cap, max_value

    def __len__(self) -> int:
        return self.values.size

    @property
    def simplices(self) -> list:
        """The (vertex tuple, value) pairs in order, built on each access."""
        rows = zip(self.vertices.tolist(), self.dims.tolist(), self.values.tolist())
        return [(tuple(verts[: d + 1]), value) for verts, d, value in rows]

    def counts_by_dim(self) -> dict:
        dims, counts = np.unique(self.dims, return_counts=True)
        return dict(zip(dims.tolist(), counts.tolist()))


def distance_matrix(witnesses: np.ndarray, landmarks: np.ndarray) -> DistanceMatrix:
    """Check (N, m) witness and (ell, m) landmark arrays and keep them for ``DistanceMatrix.rows``.

    Witnesses whose transpose is C-contiguous, like the sweep's ``coords[:m].T``, are not copied.
    """
    W, L = np.asarray(witnesses, dtype=np.float64), np.asarray(landmarks, dtype=np.float64)
    if W.ndim != 2 or L.ndim != 2:
        raise ValueError(f"witnesses and landmarks must be 2-d arrays of points, got {W.ndim}-d and {L.ndim}-d")
    if W.shape[1] != L.shape[1]:
        raise ValueError(f"dimension mismatch: witnesses are {W.shape[1]}-d, landmarks {L.shape[1]}-d")
    if W.shape[0] == 0 or L.shape[0] == 0:
        raise ValueError("witnesses and landmarks must be nonempty")
    return DistanceMatrix(coords=np.ascontiguousarray(W.T), landmarks=L)


def _fold(excess, s, bound, births, witness, full) -> None:
    """Fold one block into the running minima of the landmark pairs, a run of 64 witnesses at a time.

    ``excess[j]`` is landmark j's excess over the witnesses from index ``s``.  A run in which some
    landmark's minimum is above ``bound`` lists only the pairs one of its witnesses has within the
    bound, else it takes every pair, ``full`` = (iu, ju, flat keys).  No witness of a run gives {i, j}
    less than max(low[i], low[j]), so a pair whose bound is not below its birth is skipped.
    """
    n_l, n = excess.shape
    births, witness = births.reshape(-1), witness.reshape(-1)
    lows = np.minimum.reduceat(excess, np.arange(0, n, 64), axis=1).T  # each run's smallest excess per landmark
    for r, low in zip(range(0, n, 64), lows):  # runs of 32/64/128/256, 3-d trajectory: 0.83/0.47-0.69/1.0/1.8 s
        run = excess[:, r : r + 64]
        near = np.flatnonzero(low <= bound)
        if near.size < n_l:  # a pair's count of witnesses holding it is at most 64, exact in float32
            hit = (run[near] <= bound).astype(np.float32)
            a, b = np.nonzero(hit @ hit.T)
            upper = a < b
            iu, ju = near[a[upper]], near[b[upper]]
            key = iu * n_l + ju
        else:
            iu, ju, key = full
        cand = np.flatnonzero(np.maximum(low[iu], low[ju]) < births[key])
        for c in range(0, cand.size, 512):  # chunks bound the temporaries of a run that folds most pairs
            pick = cand[c : c + 512]
            pm = np.maximum(run[iu[pick]], run[ju[pick]])
            w_idx = pm.argmin(axis=1)  # first (lowest) witness of the run achieving the min
            vals, k = pm[np.arange(pick.size), w_idx], key[pick]
            better = vals < births[k]  # strict: an earlier run keeps its tie
            births[k[better]], witness[k[better]] = vals[better], s + r + w_idx[better]


def edge_births(dm: DistanceMatrix, block: int = 512, cap: float | None = None) -> EdgeFiltration:
    """Exact vertex and edge birth scales over the witnesses of a distance matrix.

    vertex_birth[j] = min over w of (d(w, j) - n(w)) and
    births[i, j]    = min over w of (max(d(w, i), d(w, j)) - n(w)),
    with the lowest witness index achieving each edge minimum recorded.
    ``dm.rows`` computes each block of ``block`` witnesses' (ell, block)
    distances into two buffers made once; n(w) is the block's minimum over
    landmarks and the excesses are taken in place, so memory is set by
    ell x block and ell^2, not by the witness count.  ``_fold`` takes a block
    in runs of 64 witnesses, skipping the pairs a run cannot lower (which pays
    when consecutive witnesses lie close, as along a trajectory), and replaces
    a running minimum only when strictly smaller, so ties go to the lowest
    witness.

    With ``cap`` set, the result is truncated at that scale: every birth
    <= cap is bitwise the uncapped value with the same witness, and every
    larger one is +inf with witness -1.  A witness gives {i, j} a value
    <= cap only if both its excesses are <= cap, so the pairs a run lists
    include every pair it can give a value <= cap, and the truncation drops
    the rest.  On the 100,001-point 3-d trajectory with 201 landmarks, caps
    1 to 6 take ~0.2-0.3 s against ~0.35-0.45 s uncapped.
    """
    if cap is not None and not cap >= 0:
        raise ValueError(f"cap must be a nonnegative number, got {cap}")
    if block < 1:
        raise ValueError(f"block must be at least 1, got {block}")
    n_w, n_l = dm.shape
    vertex_birth = np.full(n_l, np.inf)
    births = np.full((n_l, n_l), np.inf)
    witness = np.full((n_l, n_l), -1, dtype=np.int64)
    buffers = np.empty(n_l * min(block, n_w)), np.empty(n_l * min(block, n_w))
    iu, ju = np.triu_indices(n_l, k=1)
    full, bound = (iu, ju, iu * n_l + ju), np.inf if cap is None else cap
    for s in range(0, n_w, block):
        e = min(s + block, n_w)
        # excess[j] is landmark j's row over this block's witnesses, contiguous
        excess = dm.rows(s, e, *(buf[: n_l * (e - s)].reshape(n_l, e - s) for buf in buffers))
        excess -= excess.min(axis=0)
        np.minimum(vertex_birth, excess.min(axis=1), out=vertex_birth)
        _fold(excess, s, bound, births, witness, full)
    lower = np.tril_indices(n_l, k=-1)
    births[lower], witness[lower] = births.T[lower], witness.T[lower]
    if cap is not None:
        vertex_birth[vertex_birth > cap] = np.inf
        over = births > cap
        births[over] = np.inf
        witness[over] = -1
    return EdgeFiltration(vertex_birth, births, witness, max_value=cap)


_MASK_CELLS = 1 << 20  # the largest candidate mask flag_expand holds, in cells


def flag_expand(ef: EdgeFiltration, dim_cap: int = 3, max_value: float | None = None,
                max_simplices: int = 10**7) -> FlagFiltration:
    """Expand an edge filtration into its clique (flag) filtration up to dim_cap.

    A clique's value is the largest birth among its edges.  ``max_value``
    truncates the filtration at that scale; ``max_simplices`` bounds the
    total count and raises ResourceLimitError, with the bytes it would take,
    when exceeded.  A truncated ``ef`` needs a ``max_value`` no larger than its own.

    A k-simplex's cofaces are its common upper neighbours: the AND of its
    vertices' rows of the upper-triangular adjacency below the cap, in
    chunks of at most ``_MASK_CELLS`` cells.  Every dimension is counted
    before the arrays are made once, at the total, so the budget fires before
    that memory is spent; the top dimension is written into them a chunk at
    a time.  A child's value is the max of its parent's and its new edges'.
    """
    if dim_cap < 1:
        raise ValueError("dim_cap must be at least 1")
    if ef.max_value is not None and (max_value is None or max_value > ef.max_value):
        raise ValueError(f"edge filtration is truncated at {ef.max_value}; max_value={max_value} would drop edges")
    births, vb, top = ef.births, ef.vertex_birth, np.inf if max_value is None else max_value
    adj = np.triu(np.isfinite(births) & (births <= top), k=1)
    kept, (iu, ju) = np.flatnonzero(~(vb > top)), np.nonzero(adj)
    levels = [(kept[:, None], vb[kept]), (np.column_stack((iu, ju)), births[iu, ju])]  # rows below the top
    counts, step = [kept.size, iu.size], max(1, _MASK_CELLS // max(1, vb.size))

    def masks(rows, k):  # (first row, candidate mask) per chunk of the k-vertex rows
        for s in range(0, len(rows), step):
            mask = adj[rows[s : s + step, 0]]
            for c in range(1, k):
                mask &= adj[rows[s : s + step, c]]
            yield s, mask

    def children(rows, vals, k, out_rows, out_vals):  # write the (k + 1)-vertex children of the k-vertex rows
        at = 0
        for s, mask in masks(rows, k):
            r, u = np.nonzero(mask)
            new, r = slice(at, at + r.size), r + s
            out_rows[new, k], out_vals[new], at = u, vals[r], at + r.size
            for c in range(k):  # a column at a time, so a chunk holds few temporaries
                out_rows[new, c] = rows[r, c]
                np.maximum(out_vals[new], births[out_rows[new, c], u], out=out_vals[new])

    for k in range(1, dim_cap + 1):
        if k > 1:
            counts.append(sum(int(np.count_nonzero(mask)) for _, mask in masks(levels[-1][0], k)))
        if (total := sum(counts)) > max_simplices:  # each simplex: dim_cap + 1 vertex ids, a dim and a value
            raise ResourceLimitError(f"simplex count {total} through dimension {k} exceeds budget {max_simplices}:"
                                     f" its arrays would take {total * (dim_cap + 3) * 8} bytes")
        if 1 < k < dim_cap:
            levels.append((np.empty((counts[-1], k + 1), dtype=np.int64), np.empty(counts[-1])))
            children(*levels[-2], k, *levels[-1])
    vertices, values = np.full((sum(counts), dim_cap + 1), -1, dtype=np.int64), np.empty(sum(counts))
    dims, at = np.repeat(np.arange(dim_cap + 1), counts), np.cumsum([0] + counts)
    for d in range(len(levels)):
        vertices[at[d] : at[d + 1], : d + 1], values[at[d] : at[d + 1]] = levels[d]
    if dim_cap > 1:
        children(*levels[-1], dim_cap, vertices[at[-2] :], values[at[-2] :])
    del levels
    order = np.lexsort((*vertices.T[::-1], dims, values))
    for c in range(dim_cap + 1):
        vertices[:, c] = vertices[order, c]
    return FlagFiltration(
        dim_cap=dim_cap, max_value=max_value, vertices=vertices, dims=dims[order], values=values[order]
    )


def skeleton_export(ff: FlagFiltration, epsilon: float, edges_path) -> int:
    """Write the 1-skeleton at a scale as an edge CSV (i, j, birth).

    Returns the number of edges written; the file is header-only when the
    complex has no edges at this scale.
    """
    if ff.max_value is not None and epsilon > ff.max_value:
        raise ValueError(f"epsilon {epsilon} exceeds the filtration cap {ff.max_value}")
    edges = np.flatnonzero(ff.dims[: np.searchsorted(ff.values, epsilon, side="right")] == 1)
    _write_table(edges_path, ["i,j,birth"], *ff.vertices[edges, :2].T, ff.values[edges])
    return edges.size


def save_filtration(ff: FlagFiltration, path) -> None:
    """Write the filtration as a JSON array of {vertices, value}, canonically sorted."""
    rows = zip(ff.vertices.tolist(), ff.dims.tolist(), ff.values.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps({"vertices": verts[: d + 1], "value": value}) for verts, d, value in rows))
        fh.write("\n]\n" if len(ff) else "]\n")


def load_filtration(path) -> FlagFiltration:
    """Read a filtration JSON array; dim_cap is inferred from the largest simplex.

    Each entry must hold a list of integer vertex ids (int64) and a number;
    order and face closure are checked by the barcode.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SeriesFormatError(path, exc.lineno, exc.msg) from None
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON array of simplices")
    if not raw:
        raise ValueError(f"{path}: filtration is empty")
    for pos, entry in enumerate(raw):
        verts, value = (entry.get("vertices"), entry.get("value")) if isinstance(entry, dict) else (None, None)
        if not (
            isinstance(verts, list)
            and all(type(v) is int and -(2**63) <= v < 2**63 for v in verts)
            and (type(value) is float or type(value) is int and abs(value) < 2**1023)
        ):
            raise ValueError(f"{path}: entry {pos} is not an object with integer 'vertices' and a numeric 'value'")
    sims = [(entry["vertices"], float(entry["value"])) for entry in raw]
    return FlagFiltration(sims, dim_cap=max(1, max(len(verts) - 1 for verts, _ in sims)))

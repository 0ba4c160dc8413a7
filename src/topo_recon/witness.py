"""Fuzzy witness complexes as exact edge-birth filtrations with flag expansion.

For witnesses W and landmarks L, a witness w supports landmark l at scale
epsilon when ||w - l|| <= n(w) + epsilon, where n(w) is the distance from w
to its nearest landmark.  A landmark pair {i, j} enters the complex at the
smallest epsilon at which one witness supports both ends, which gives the
closed-form birth value

    birth(i, j) = min over w of ( max(||w - l_i||, ||w - l_j||) - n(w) ).

Witnesses and landmarks come in as 2-d coordinate arrays.  The distances
are computed a block of witnesses at a time inside ``edge_births``, so no
array grows with the witness count.  Uncapped, a block is folded in runs of
64 witnesses.  Under a cap only the distances that can fall within it are
computed: the triangle inequality bounds the excesses of a sub-run of 16
witnesses from its middle one, as Elkan's k-means bounds do (*Using the
triangle inequality to accelerate k-means*, 2003), over spans of 4,096
witnesses.  Then each witness's landmarks within the cap are listed and only
the pairs it holds are folded, exact below the cap by the lazy-witness
restriction of de Silva & Carlsson (2004); where a sub-run's witnesses hold
the same landmarks, its held pairs are folded over the sub-run at once.

Higher simplices are filled in flag-style: a simplex is present exactly when
all its edges are, with filtration value the largest edge birth.  Computing
births exactly makes every epsilon queryable instead of sampling a grid.  A
flag filtration holds its simplices below dim_cap as NumPy arrays (padded
vertex ids, dimensions, values), expanded a dimension at a time from the
boolean adjacency and put in (value, dim, vertices) order by one
``np.lexsort``, as Ripser keeps its simplices as arrays (Bauer, *Ripser*,
2021).  The top dimension is only counted: it is kept as the truncated
births, from which the barcode reads each coboundary, and it is listed only
when the whole list is asked for (``save_filtration``, ``simplices`` and
the ``vertices``/``dims``/``values`` views).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .signal import _CHUNK_ROWS, SeriesFormatError, _write_table


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

        ``out`` and ``scratch``, (ell, e - s) arrays, are reused when given.
        """
        shape = (self.landmarks.shape[0], e - s)
        out = np.empty(shape) if out is None else out
        scratch = np.empty(shape) if scratch is None else scratch
        return _distances(zip(self.coords[:, s:e], self.landmarks.T[:, :, None]), out, scratch)


def _distances(terms, out, scratch) -> np.ndarray:
    """The square root of the sum over coordinates c of (a_c - b_c)^2, for the (a_c, b_c) of ``terms``, in ``out``.

    The squares are summed in coordinate order from 0.0, SciPy's euclidean
    order, so every entry is bitwise ``cdist``.  The first square is written
    as it is (0.0 + x is x for x >= 0); ``scratch`` holds the others.
    """
    c = -1
    for c, (a, b) in enumerate(terms):
        sq = scratch if c else out
        np.square(np.subtract(a, b, out=sq), out=sq)
        if c:
            out += sq
    if c < 0:  # no coordinates: every distance is 0
        out.fill(0.0)
    return np.sqrt(out, out=out)


@dataclass
class EdgeFiltration:
    """Exact birth scales for vertices and edges over landmark indices.

    births is a symmetric (ell, ell) array with +inf on the diagonal and at
    absent edges; witness[i, j] is the index of the lowest witness achieving
    the birth (-1 where absent or not applicable).  When ``max_value`` is set
    the filtration is truncated at that scale: every value <= max_value is
    exact, and every larger one reads +inf (witness -1).  ``distances``
    counts the witness-landmark distances ``edge_births`` computed,
    ``listed`` the (witness, pair) entries it listed, and ``run_chunks`` the
    chunks it folded by runs of witnesses.
    """

    vertex_birth: np.ndarray
    births: np.ndarray
    witness: np.ndarray | None = None
    max_value: float | None = None
    distances: int | None = None
    listed: int | None = None
    run_chunks: int | None = None

    def __post_init__(self):
        self.vertex_birth = np.asarray(self.vertex_birth, dtype=np.float64)
        self.births = np.asarray(self.births, dtype=np.float64)
        ell = self.vertex_birth.size
        if self.births.shape != (ell, ell):
            raise ValueError("births must be square and match vertex_birth")


@dataclass(eq=False)
class FlagFiltration:
    """Simplices up to dim_cap with filtration values, sorted by (value, dim, vertices).

    The listed simplices are arrays: listed simplex i has dimension
    ``listed_dims[i]``, vertex ids ``listed_vertices[i, :listed_dims[i] + 1]``
    (the rest of the row is -1) and value ``listed_values[i]``.
    ``flag_expand`` makes every filtration (``load_filtration`` rebuilds a
    file with it): it lists the simplices below dim_cap and keeps the top
    dimension implicit.  ``top_births`` holds the truncated edge births
    (symmetric, +inf at absent edges and on the diagonal), from which the
    barcode reads every coboundary, and ``top_count`` the number of top
    simplices.  A top simplex
    is a (dim_cap - 1)-simplex plus a vertex adjacent to all of its vertices,
    valued at the largest birth among its edges.  ``arrays()``, and the
    ``vertices``, ``dims``, ``values`` and ``simplices`` views over it, give
    the whole list, the top dimension built on each call.  When ``max_value``
    is set, the filtration is truncated at that scale: barcode queries at
    epsilon <= max_value are exact, and intervals still open there report
    death = +inf.
    """

    listed_vertices: np.ndarray
    listed_dims: np.ndarray
    listed_values: np.ndarray
    dim_cap: int
    max_value: float | None = None
    top_births: np.ndarray | None = None
    top_count: int = 0

    def __len__(self) -> int:
        return self.listed_values.size + self.top_count

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every simplex's (vertices, dims, values) rows in order; the implicit top dimension is listed on each call."""
        d, n = self.dim_cap, self.listed_values.size
        vertices, values = np.full((len(self), d + 1), -1, dtype=np.int64), np.empty(len(self))
        vertices[:n, :d], values[:n] = self.listed_vertices, self.listed_values
        prefixes = self.listed_dims == d - 1
        upper = np.triu(np.isfinite(self.top_births), k=1)
        _children(upper, self.top_births, self.listed_vertices[prefixes, :d], self.listed_values[prefixes],
                  vertices[n:], values[n:])
        return _in_order(vertices, np.concatenate((self.listed_dims, np.full(self.top_count, d))), values)

    vertices = property(lambda self: self.arrays()[0])
    dims = property(lambda self: self.arrays()[1])
    values = property(lambda self: self.arrays()[2])

    @property
    def simplices(self) -> list:
        """The (vertex tuple, value) pairs in order, built on each access; ``perfbench/tracing.py`` reads it."""
        rows = zip(*(a.tolist() for a in self.arrays()))
        return [(tuple(verts[: d + 1]), value) for verts, d, value in rows]

    def counts_by_dim(self) -> dict:
        dims, counts = np.unique(self.listed_dims, return_counts=True)
        out = dict(zip(dims.tolist(), counts.tolist()))
        if self.top_count:
            out[self.dim_cap] = self.top_count
        return out


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


def _fold(excess, s, births, witness, full) -> None:
    """Fold one uncapped block into the running minima of the landmark pairs, a run of 64 witnesses at a time.

    ``excess[j]`` is landmark j's excess over the witnesses from index ``s``, and ``full`` = (iu, ju, flat
    keys) lists every pair.  No witness of a run gives {i, j} less than max(low[i], low[j]), so a pair
    whose bound is not below its birth is skipped; every pair is first cut by the same test on the whole
    block's minima, which bound every run's.
    """
    n = excess.shape[1]
    births, witness = births.reshape(-1), witness.reshape(-1)
    lows = np.minimum.reduceat(excess, np.arange(0, n, 64), axis=1).T  # each run's smallest excess per landmark
    block_low = lows.min(axis=0)
    iu, ju, key = full
    left = np.flatnonzero(np.maximum(block_low[iu], block_low[ju]) < births[key])  # on a trajectory ~28 % are left
    iu, ju, key = iu[left], ju[left], key[left]
    for r, low in zip(range(0, n, 64), lows):  # runs of 32/64/128/256, 3-d trajectory: 0.83/0.47-0.69/1.0/1.8 s
        run = excess[:, r : r + 64]
        cand = np.flatnonzero(np.maximum(low[iu], low[ju]) < births[key])
        for c in range(0, cand.size, 512):  # chunks bound the temporaries of a run that folds most pairs
            pick = cand[c : c + 512]
            pm = np.maximum(run[iu[pick]], run[ju[pick]])
            w_idx = pm.argmin(axis=1)  # first (lowest) witness of the run achieving the min
            vals, k = pm[np.arange(pick.size), w_idx], key[pick]
            better = vals < births[k]  # strict: an earlier run keeps its tie
            births[k[better]], witness[k[better]] = vals[better], s + r + w_idx[better]


_SUB = 16  # witnesses per sub-run of a capped call's bound
_SLACK = 1e-12  # the bound's slack, relative to the distances in it; their rounding is under 1e-13 of them
_GATHER = 5  # a kept row's gather costs about five coordinate passes of the dense rows
_SPAN = 256  # sub-runs per span of the bound: 4,096 witnesses, its overhead paid 8x less often than per block
_RUN_PAIRS = 1  # a held row pair costs about as much to fold as a witness's held pair (forced folds cross at 0.7-1.3)


def _span_bound(dm, s, e, cap, buffers) -> tuple[np.ndarray, np.ndarray]:
    """Witnesses s..e-1 as (m, n_sub, 16) sub-runs, and the (n_sub, ell) mask of the landmarks their bound keeps.

    The centres' distances are taken in ``buffers``.  Only a span shorter than a sub-run is padded, with
    its last witness, so only it is copied.
    """
    m, n_l, n = dm.coords.shape[0], dm.landmarks.shape[0], e - s
    n_sub = -(-n // _SUB)
    coords = dm.coords[:, s:e] if n % _SUB == 0 else dm.coords[:, s:e][:, np.minimum(np.arange(_SUB), n - 1)]
    runs = coords.reshape(m, n_sub, _SUB)
    centres = runs[:, :, _SUB // 2, None]
    d_c, scratch = (buf[: n_sub * n_l].reshape(n_sub, n_l) for buf in buffers)
    _distances(zip(centres, dm.landmarks.T[:, None, :]), d_c, scratch)
    spread = _distances(zip(runs, centres), np.empty((n_sub, _SUB)), np.empty((n_sub, _SUB)))
    reach = d_c.min(axis=1, keepdims=True) + 2 * spread.max(axis=1, keepdims=True)
    slack = np.multiply(np.add(d_c, reach, out=scratch), _SLACK, out=scratch)
    slack += cap
    return runs, np.subtract(d_c, reach, out=d_c) <= slack


def _chunk_rows(dm, runs, keep, buffers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distances of a chunk of sub-runs as (k, 16) rows in ``buffers[0]``, with each row's sub-run and landmark.

    ``keep`` is the chunk's (n_sub, ell) mask of kept rows, or None for every row, computed without a
    gather.  Rows are in (sub-run, landmark) order, and a kept row sums the same squares in the same
    order as ``DistanceMatrix.rows``, so it is bitwise the dense entries.
    """
    m, n_sub, n_l = runs.shape[0], runs.shape[1], dm.landmarks.shape[0]
    if keep is None:
        acc, sq = (buf[: n_sub * n_l * _SUB].reshape(n_sub, n_l, _SUB) for buf in buffers)
        _distances(zip(runs[:, :, None, :], dm.landmarks.T[:, None, :, None]), acc, sq)
        sub, lm = np.divmod(np.arange(n_sub * n_l), n_l)
        return acc.reshape(-1, _SUB), sub, lm
    sub, lm = np.divmod(np.flatnonzero(keep), n_l)
    acc, sq = (buf[: sub.size * _SUB].reshape(-1, _SUB) for buf in buffers)
    terms = ((np.take(runs[c], sub, axis=0, out=sq if c else acc), dm.landmarks[lm, c, None]) for c in range(m))
    return _distances(terms, acc, sq), sub, lm


def _fold_pairs(vals, low, lm, first, group, births, witness, step, hold=None) -> int:
    """Fold the landmark pairs that items of one group hold into the running births; the count of pairs.

    Item i holds landmark ``lm[i]`` with the excesses ``vals[i]`` of consecutive witnesses from
    ``first[i]``, whose smallest is ``low[i]``, and ``hold[i]`` marks the witnesses within the cap as bits.
    Items are grouped by ``group`` (nondecreasing, landmarks ascending within a group), and the pairs are
    taken about ``step`` at a time, whole items, so the temporaries are bounded.  A pair that no witness
    holds, or whose bound max(low) is not below its birth, is dropped; the rest take the smallest max
    over their witnesses, the first on a tie.  One ``np.lexsort`` on (key, value, witness) keeps each
    pair's minimum and, on a tie, its lowest witness, and a birth is replaced only when strictly
    smaller, so an earlier step keeps its ties.
    """
    n_l = births.shape[0]
    births, witness = births.reshape(-1), witness.reshape(-1)
    after = np.searchsorted(group, group, side="right") - np.arange(group.size) - 1  # later items of its group
    start = np.cumsum(after) - after  # item i's first pair
    i = 0
    while i < group.size:
        j = int(np.searchsorted(start, start[i] + step, side="right"))  # whole items, about step pairs
        a = np.repeat(np.arange(i, j), after[i:j])
        b = a + 1 + np.arange(a.size) - np.repeat(start[i:j] - start[i], after[i:j])
        key = lm[a] * n_l + lm[b]
        left = np.maximum(low[a], low[b]) < births[key]
        if hold is not None:
            left &= (hold[a] & hold[b]) != 0
        left = np.flatnonzero(left)
        a, b, key = a[left], b[left], key[left]
        pm = np.maximum(vals[a], vals[b])
        t = pm.argmin(axis=1)
        value, w = pm[np.arange(t.size), t], first[a] + t
        left = np.flatnonzero(value < births[key])
        order = left[np.lexsort((w[left], value[left], key[left]))]
        key, value, w = key[order], value[order], w[order]
        new = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])  # the first of each pair: its minimum, lowest witness
        births[key[new]], witness[key[new]] = value[new], w[new]
        i = j
    return int(after.sum())


def _capped_births(dm, cap, width, buffers, vertex_birth, births, witness) -> tuple[int, int, int]:
    """Fold every witness's pairs within ``cap`` (see ``edge_births``); the distances, pairs listed and run chunks."""
    n_w, n_l = dm.shape
    m, rows = dm.coords.shape[0], buffers[0].size // _SUB  # a chunk's rows: its distances fill a buffer
    computed = listed = run_chunks = 0
    s = 0
    while s < n_w:
        e = min(s + _SUB * min(width, _SPAN), n_w)  # its centres' distances fit a buffer
        if e % _SUB and e - s > _SUB:  # the last, padded sub-run is a span of its own
            e -= e % _SUB
        runs, keep = _span_bound(dm, s, e, cap, buffers)
        kept = keep.sum(axis=1)
        computed += keep.size
        if kept.sum() * (m + _GATHER) > keep.size * m:  # the dense rows cost less than the gather
            keep, kept = None, np.full(kept.size, n_l)
        ends = np.cumsum(kept)
        a = 0
        while a < kept.size:
            b = int(np.searchsorted(ends, ends[a] - kept[a] + rows, side="right"))  # whole sub-runs that fit
            acc, sub, lm = _chunk_rows(dm, runs[:, a:b], None if keep is None else keep[a:b], buffers)
            computed += acc.size if keep is not None else n_l * (min(b * _SUB, e - s) - a * _SUB)
            starts = ends[a:b] - kept[a:b] - ends[a] + kept[a]  # each sub-run's first row
            near = np.minimum.reduceat(acc, starts, axis=0)  # n(w): every witness's nearest landmark is kept
            acc -= np.take(near, sub, axis=0, out=buffers[1][: acc.size].reshape(acc.shape))
            inside = acc <= cap
            hold = np.packbits(inside.reshape(-1), bitorder="little").view(np.uint16)  # each row's as 16 bits
            r, t = np.divmod(np.flatnonzero(inside), _SUB)  # the entries within the cap, row-major
            at = sub[r] * _SUB + t  # their witnesses, from the chunk's first
            per_run = np.add.reduceat(hold != 0, starts, dtype=np.int64)
            per_witness = np.bincount(at)
            first = s + a * _SUB
            if _RUN_PAIRS * (per_run * (per_run - 1)).sum() < (per_witness * (per_witness - 1)).sum():
                run_chunks += 1
                items = np.flatnonzero(hold)
                vals = np.take(acc, items, axis=0, out=buffers[1][: items.size * _SUB].reshape(-1, _SUB))
                low = functools.reduce(np.minimum, vals.T)  # a column at a time: min(axis=1) is ~5x slower
                np.minimum.at(vertex_birth, lm[items], low)
                _fold_pairs(vals, low, lm[items], first + sub[items] * _SUB, sub[items], births, witness, rows,
                            hold[items])
            else:
                x = acc[r, t]
                np.minimum.at(vertex_birth, lm[r], x)
                order = np.argsort(at.astype(np.uint16), kind="stable")  # a radix sort: a span is 4,096 witnesses
                order = order[: np.count_nonzero(at < n_w - first)]  # witness-major; the padding sorts last
                x, at = x[order], at[order]
                listed += _fold_pairs(x[:, None], x, lm[r[order]], first + at, at, births, witness, rows)
            a = b
        s = e
    return computed, listed, run_chunks


def edge_births(dm: DistanceMatrix, block: int = 512, cap: float | None = None) -> EdgeFiltration:
    """Exact vertex and edge birth scales over the witnesses of a distance matrix.

    vertex_birth[j] = min over w of (d(w, j) - n(w)) and
    births[i, j]    = min over w of (max(d(w, i), d(w, j)) - n(w)),
    with the lowest witness index achieving each edge minimum recorded.
    Distances are computed into two (ell, block) buffers made once, so
    memory is set by ell x block and ell^2, not by the witness count.
    Uncapped, ``dm.rows`` computes each block of ``block`` witnesses; n(w) is
    the block's minimum over landmarks, the excesses are taken in place, and
    ``_fold`` takes the block in runs of 64 witnesses, skipping the pairs a
    run cannot lower (which pays when consecutive witnesses lie close, as
    along a trajectory, and costs up to 2.5x the full evaluation when they
    do not).  A running minimum is replaced only when strictly smaller, so
    ties go to the lowest witness.

    With ``cap`` set, the result is truncated at that scale: every birth
    <= cap is bitwise the uncapped value with the same witness, and every
    larger one is +inf with witness -1.  A witness gives {i, j} a value
    <= cap only if it holds both within the cap (both excesses <= cap), so
    folding, for each witness, the pairs it holds is exact below the cap.

    A capped call computes only the distances it can use.  With c the
    middle witness of a sub-run of 16 and r = max ||w - c|| over it, the
    triangle inequality gives each of its witnesses d(w, j) - n(w) >=
    d(c, j) - n(c) - 2r.  A landmark whose bound is above cap + 1e-12 x
    (d(c, j) + n(c) + 2r) gives the sub-run no birth <= cap and is no
    witness's nearest landmark (that bound is <= 0).  Computed distances are
    within (m/2 + 2) ulps, so rounding moves the bound and the excesses by
    under 1e-13 of those distances for m up to several hundred: the slack
    keeps it from dropping a landmark the exact bound keeps.  The bound is
    taken over a span of 256 sub-runs (4,096 witnesses; fewer when ``block``
    is under 256), whose centres' distances fill one buffer.  The kept
    (sub-run, landmark) rows get their distances, bitwise the dense entries,
    in chunks of whole sub-runs that fill the buffers; a span whose bound
    keeps over m / (m + 5) of its rows, where the gather (about five
    coordinate passes a row) costs more than it saves, computes every row,
    ``block`` witnesses (rounded up to whole sub-runs) at a time.  n(w) is
    the minimum of each witness's kept rows.

    Each chunk then lists its (witness, landmark, excess) entries within the
    cap, witness-major: the vertex births are their per-landmark minima,
    and a witness's pairs are its entries two at a time.  A pair whose value
    is not below its running birth is dropped, and one ``np.lexsort`` keeps
    each remaining pair's minimum and lowest witness.  Where a sub-run's
    witnesses hold the same landmarks, as along a trajectory, folding each
    held row pair over the 16 witnesses at once costs less: a chunk takes
    that fold when its held row pairs are fewer than its witnesses' held
    pairs (with each fold forced on the sweep's and the 3-d trajectory's
    clouds, they cross between 0.7 and 1.3 witness pairs a row pair).  Both
    folds give the same births, and the listing's cost does not depend on
    the witness order, so capped births do not slow down on witnesses in
    random order.  ``distances``, ``listed`` and ``run_chunks`` count the
    distances computed, the (witness, pair) entries listed, and the chunks
    (uncapped: blocks) folded by runs.  On the sweep benchmark's cloud
    (24,721 witnesses, 198 landmarks) capped births compute 37 % of N x ell
    at m = 1 and 11-17 % at m = 2..8, and the eight take 0.14-0.16 s against
    0.32 s when runs of 64 folded the dense excesses; on the 100,001-point
    3-d trajectory, caps 0.5 to 6 take 0.03-0.18 s in time order and
    0.28-0.94 s shuffled, against 0.11-0.21 and 0.34-2.75 s.
    """
    if cap is not None and not cap >= 0:
        raise ValueError(f"cap must be a nonnegative number, got {cap}")
    if block < 1:
        raise ValueError(f"block must be at least 1, got {block}")
    n_w, n_l = dm.shape
    vertex_birth = np.full(n_l, np.inf)
    births = np.full((n_l, n_l), np.inf)
    witness = np.full((n_l, n_l), -1, dtype=np.int64)
    width = min(block, n_w) if cap is None else -(-min(block, n_w) // _SUB) * _SUB  # whole sub-runs
    buffers = np.empty(n_l * width), np.empty(n_l * width)
    if cap is not None:
        counts = _capped_births(dm, cap, width, buffers, vertex_birth, births, witness)
    else:
        iu, ju = np.triu_indices(n_l, k=1)
        full = iu, ju, iu * n_l + ju
        for s in range(0, n_w, block):
            e = min(s + block, n_w)
            # excess[j] is landmark j's row over this block's witnesses
            excess = dm.rows(s, e, *(buf[: n_l * (e - s)].reshape(n_l, e - s) for buf in buffers))
            excess -= excess.min(axis=0)
            np.minimum(vertex_birth, excess.min(axis=1), out=vertex_birth)
            _fold(excess, s, births, witness, full)
        counts = n_w * n_l, 0, -(-n_w // block)
    lower = np.tril_indices(n_l, k=-1)
    births[lower], witness[lower] = births.T[lower], witness.T[lower]
    if cap is not None:
        vertex_birth[vertex_birth > cap] = np.inf
        over = births > cap
        births[over] = np.inf
        witness[over] = -1
    return EdgeFiltration(vertex_birth, births, witness, cap, *counts)


_MASK_CELLS = 1 << 20  # the largest candidate mask flag expansion holds, in cells


def _masks(adj, rows):
    """(first row, mask) per chunk of ``rows``: the AND of its vertices' rows of the adjacency ``adj``."""
    step = max(1, _MASK_CELLS // max(1, adj.shape[0]))
    for s in range(0, len(rows), step):
        mask = adj[rows[s : s + step, 0]]
        for c in range(1, rows.shape[1]):
            mask &= adj[rows[s : s + step, c]]
        yield s, mask


def _children(adj, births, rows, vals, out_rows, out_vals) -> None:
    """Write the one-vertex extensions of the k-vertex ``rows`` along the upper-triangular ``adj``.

    A child's value is the max of its parent's and its new edges' births; the
    children go to the first rows of ``out_rows`` and ``out_vals``, a column
    at a time, so a chunk holds few temporaries.
    """
    at, k = 0, rows.shape[1]
    for s, mask in _masks(adj, rows):
        r, u = np.nonzero(mask)
        new, r = slice(at, at + r.size), r + s
        out_rows[new, k], out_vals[new], at = u, vals[r], at + r.size
        for c in range(k):
            out_rows[new, c] = rows[r, c]
            np.maximum(out_vals[new], births[out_rows[new, c], u], out=out_vals[new])


def _in_order(vertices, dims, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows in (value, dim, vertices) order, by one ``np.lexsort`` applied a vertex column at a time."""
    order = np.lexsort((*vertices.T[::-1], dims, values))
    for c in range(vertices.shape[1]):
        vertices[:, c] = vertices[order, c]
    return vertices, dims[order], values[order]


def flag_expand(ef: EdgeFiltration, dim_cap: int = 3, max_value: float | None = None,
                max_simplices: int = 10**7) -> FlagFiltration:
    """Expand an edge filtration into its clique (flag) filtration up to dim_cap.

    A clique's value is the largest birth among its edges.  ``max_value``
    truncates the filtration at that scale; ``max_simplices`` bounds the
    total count and raises ResourceLimitError, with the bytes it would take,
    when exceeded.  A truncated ``ef`` needs a ``max_value`` no larger than
    its own, and every edge kept needs a birth no smaller than its vertices'.

    A k-simplex's cofaces are its common upper neighbours: the AND of its
    vertices' rows of the upper-triangular adjacency below the cap, in
    chunks of at most ``_MASK_CELLS`` cells.  Every dimension is counted
    before any is made, so the budget fires before that memory is spent.
    The simplices below dim_cap are listed; the top dimension is only
    counted, and kept as the truncated births (see ``FlagFiltration``).
    """
    return _expand(ef, dim_cap, max_value, max_simplices)


def _expand(ef, dim_cap, max_value, max_simplices) -> FlagFiltration:
    """``flag_expand``; ``load_filtration`` calls it here, so a traced run counts its rebuild as loading."""
    if dim_cap < 1:
        raise ValueError("dim_cap must be at least 1")
    births, vb, top = ef.births, ef.vertex_birth, np.inf if max_value is None else max_value
    if ef.max_value is not None and not top <= ef.max_value:  # NaN fails too
        raise ValueError(f"edge filtration is truncated at {ef.max_value}; max_value={max_value} would drop edges")
    if np.isnan(top):
        raise ValueError(f"max_value must be a number, got {max_value}")
    adj = np.triu(np.isfinite(births) & (births <= top), k=1)
    kept, (iu, ju) = np.flatnonzero(~(vb > top)), np.nonzero(adj)
    early = np.flatnonzero(births[iu, ju] < np.maximum(vb[iu], vb[ju]))
    if early.size:
        i, j = int(iu[early[0]]), int(ju[early[0]])
        raise ValueError(f"edge ({i}, {j}) is born at {births[i, j]}, before its vertices ({vb[i]}, {vb[j]})")
    levels = [(kept[:, None], vb[kept]), (np.column_stack((iu, ju)), births[iu, ju])]  # rows below the top
    counts = [kept.size, iu.size]
    for k in range(1, dim_cap + 1):
        if k > 1:
            counts.append(sum(int(np.count_nonzero(mask)) for _, mask in _masks(adj, levels[-1][0])))
        if (total := sum(counts)) > max_simplices:  # each simplex: dim_cap + 1 vertex ids, a dim and a value
            raise ResourceLimitError(f"simplex count {total} through dimension {k} exceeds budget {max_simplices}:"
                                     f" its arrays would take {total * (dim_cap + 3) * 8} bytes")
        if 1 < k < dim_cap:
            levels.append((np.empty((counts[-1], k + 1), dtype=np.int64), np.empty(counts[-1])))
            _children(adj, births, *levels[-2], *levels[-1])
    listed = counts[:dim_cap]
    vertices, values = np.full((sum(listed), dim_cap), -1, dtype=np.int64), np.empty(sum(listed))
    at = np.cumsum([0] + listed)
    for d in range(dim_cap):
        vertices[at[d] : at[d + 1], : d + 1], values[at[d] : at[d + 1]] = levels[d]
    del levels
    upper = np.where(adj, births, np.inf)
    return FlagFiltration(*_in_order(vertices, np.repeat(np.arange(dim_cap), listed), values), dim_cap=dim_cap,
                          max_value=max_value, top_births=np.minimum(upper, upper.T), top_count=counts[-1])


def skeleton_export(ff: FlagFiltration, epsilon: float, edges_path) -> int:
    """Write the 1-skeleton at a scale as an edge CSV (i, j, birth).

    Returns the number of edges written; the file is header-only when the
    complex has no edges at this scale.  The edges are read from the listed
    simplices, or from the whole list when they are the top dimension.
    """
    if not epsilon <= (np.inf if ff.max_value is None else ff.max_value):  # NaN fails too
        raise ValueError(f"epsilon {epsilon} is NaN or exceeds the filtration cap {ff.max_value}")
    verts, dims, values = ff.arrays() if ff.dim_cap == 1 else (ff.listed_vertices, ff.listed_dims, ff.listed_values)
    edges = np.flatnonzero(dims[: np.searchsorted(values, epsilon, side="right")] == 1)
    _write_table(edges_path, ["i,j,birth"], *verts[edges, :2].T, values[edges])
    return edges.size


def save_filtration(ff: FlagFiltration, path) -> None:
    """Write the filtration as a JSON array of {vertices, value}, canonically sorted.

    Its whole list is built as arrays; the entries are written ``_CHUNK_ROWS`` at a time.
    """
    arrays = ff.arrays()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        for lo in range(0, len(ff), _CHUNK_ROWS):
            rows = zip(*(a[lo : lo + _CHUNK_ROWS].tolist() for a in arrays))
            entries = (json.dumps({"vertices": verts[: d + 1], "value": value}) for verts, d, value in rows)
            fh.write((",\n" if lo else "") + ",\n".join(entries))
        fh.write("\n]\n" if len(ff) else "]\n")


def load_filtration(path, dim_cap: int | None = None) -> FlagFiltration:
    """Read a filtration JSON array, as ``save_filtration`` writes it: the flag expansion of its vertices and edges.

    Each entry must hold a nonempty, strictly increasing list of integer
    vertex ids in 0..n-1, for the file's n vertex entries, and a non-NaN
    number; no edge may be valued below its vertices.  The file is rebuilt by
    ``flag_expand`` from those entries, with its entry count as the budget,
    and must list exactly that expansion, else a ValueError names the first
    entry that differs.  ``dim_cap`` defaults to the top simplex dimension
    (at least 1) and may be one more, the next dimension read from the edges.
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
    dims = np.array([len(entry["vertices"]) - 1 for entry in raw], dtype=np.int64)
    top, n = int(dims.max()), int(np.count_nonzero(dims == 0))
    vertices = np.full((dims.size, max(1, top) + 1), -1, dtype=np.int64)
    for row, entry in zip(vertices, raw):
        row[: len(entry["vertices"])] = entry["vertices"]
    values = np.array([float(entry["value"]) for entry in raw])
    live = np.arange(vertices.shape[1]) <= dims[:, None]
    bad = (dims < 0) | np.isnan(values) | (live & ((vertices < 0) | (vertices >= n))).any(axis=1)
    bad |= (live[:, 1:] & (vertices[:, 1:] <= vertices[:, :-1])).any(axis=1)
    if bad.any():  # checked before any n x n array is made
        p = int(bad.argmax())
        raise ValueError(f"{path}: entry {p} ({raw[p]['vertices']} at {values[p]}) is not a nonempty increasing list"
                         f" of vertex ids in 0..{n - 1} with a non-NaN value")
    vertex_birth, births, edges = np.full(n, np.inf), np.full((n, n), np.inf), np.flatnonzero(dims == 1)
    vertex_birth[vertices[dims == 0, 0]] = values[dims == 0]
    (i, j), x = vertices[edges, :2].T, values[edges]
    births[i, j] = births[j, i] = x
    if (early := np.flatnonzero(x < np.maximum(vertex_birth[i], vertex_birth[j]))).size:
        p = int(edges[early[0]])
        raise ValueError(f"{path}: entry {p} ({raw[p]['vertices']} at {values[p]}) is an edge valued below its"
                         f" vertices ({vertex_birth[i[early[0]]]}, {vertex_birth[j[early[0]]]})")
    ef = EdgeFiltration(vertex_birth, births)
    try:
        ff = _expand(ef, max(1, top), None, dims.size)
    except ResourceLimitError:
        raise ValueError(f"{path}: the flag expansion of its vertex and edge entries has more than its"
                         f" {dims.size} entries") from None
    want, m = ff.arrays(), len(ff)  # the budget holds m <= dims.size
    differ = (want[1] != dims[:m]) | (want[2] != values[:m]) | (want[0] != vertices[:m]).any(axis=1)
    if differ.any() or m < dims.size:
        p = int(differ.argmax()) if differ.any() else m
        has = f"{want[0][p, : want[1][p] + 1].tolist()} at {want[2][p]}" if p < m else "no entry"
        raise ValueError(f"{path}: entry {p} ({raw[p]['vertices']} at {values[p]}) differs from the flag expansion"
                         f" of the file's vertex and edge entries, which has {has} there")
    if dim_cap is None or dim_cap == ff.dim_cap:
        return ff
    if not 1 <= dim_cap <= top + 1:
        raise ValueError(f"{path}: dim_cap must be in 1..{top + 1} for this filtration, got {dim_cap}")
    return flag_expand(ef, dim_cap=dim_cap)

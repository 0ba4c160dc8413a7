"""Independent ground-truth helpers shared by the test suite.

Everything here is deliberately naive and shares no code with the package:
SciPy's ``cdist`` (the package itself does not import SciPy), the
conversion of a (vertex tuple, value) list into a ``FlagFiltration``,
brute-force clique enumeration, the tuple-based flag expansion and
dict-based filtration checks that the package used before its arrays,
the fixed-scale simplex list ``complex_at``,
dense Gaussian elimination over Z/2,
the bigint boundary-matrix reduction and V-tracked kernel pass that the
package used before its coboundary reduction, the landmark-row edge-birth
kernel that the package used before its witness blocks, a union-find
component count, per-edge existence sets and lifespans, the
mutual-information curve by one ``histogram2d`` per delay, and the
truncation of an uncapped edge filtration at a cap.  Slow, but transparently
correct on small inputs, which makes them usable referees for the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist  # the bitwise referee for witness.DistanceMatrix.rows

from topo_recon.mscan import DimensionSweep
from topo_recon.witness import EdgeFiltration, FlagFiltration


def flag_filtration(simplices, dim_cap: int = 1, max_value: float | None = None) -> FlagFiltration:
    """A ``FlagFiltration`` holding a list of (vertex tuple, value) pairs as given, unchecked."""
    dims = np.array([len(verts) - 1 for verts, _ in simplices], dtype=np.int64)
    vertices = np.full((dims.size, int(dims.max(initial=0)) + 1), -1, dtype=np.int64)
    for row, (verts, _) in zip(vertices, simplices):
        row[: len(verts)] = verts
    values = np.array([value for _, value in simplices], dtype=np.float64)
    return FlagFiltration(vertices, dims, values, dim_cap=dim_cap, max_value=max_value)


def brute_force_cliques(present_vertices, edge_set, dim_cap):
    """All cliques on the given vertices with at most ``dim_cap + 1`` members.

    ``edge_set`` is a set of sorted (i, j) tuples.  Returns sorted vertex
    tuples including the singletons, i.e. the ``dim_cap``-skeleton of the
    clique complex of the graph.
    """
    verts = sorted(present_vertices)
    sims = [(v,) for v in verts]
    for size in range(2, dim_cap + 2):
        for combo in itertools.combinations(verts, size):
            if all(pair in edge_set for pair in itertools.combinations(combo, 2)):
                sims.append(combo)
    return sims


def gf2_rank(columns):
    """Rank over Z/2 of a matrix given as bigint columns (bit i = row i)."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low in pivots:
                col ^= pivots[low]
            else:
                pivots[low] = col
                rank += 1
                break
    return rank


def boundary_columns(simplices_by_dim, k):
    """The degree-k boundary matrix as bigint columns over the (k-1)-simplices."""
    rows = {s: i for i, s in enumerate(simplices_by_dim.get(k - 1, ()))}
    cols = []
    for s in simplices_by_dim.get(k, ()):
        col = 0
        for face in itertools.combinations(s, k):
            col |= 1 << rows[face]
        cols.append(col)
    return cols


def dense_betti(simplices):
    """Betti numbers of a simplicial complex by rank-nullity over Z/2.

    ``simplices`` is an iterable of sorted vertex tuples closed under faces.
    Returns ``[beta_0, ..., beta_D]`` where D is the top dimension present,
    treating the input as the whole complex (no higher simplices assumed).
    """
    by_dim: dict[int, list[tuple]] = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(s))
    if not by_dim:
        return [0]
    top = max(by_dim)
    ranks = {k: gf2_rank(boundary_columns(by_dim, k)) for k in range(1, top + 1)}
    ranks[top + 1] = 0
    return [len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks[k + 1] for k in range(top + 1)]


def euler_characteristic(simplices):
    """Alternating sum of simplex counts by dimension."""
    chi = 0
    for s in simplices:
        chi += -1 if len(s) % 2 == 0 else 1
    return chi


def edge_list(ef: EdgeFiltration, max_value: float | None = None):
    """(i, j, birth) with i < j for every present edge, sorted by (i, j)."""
    iu, ju = np.triu_indices(ef.vertex_birth.size, k=1)
    vals = ef.births[iu, ju]
    keep = np.isfinite(vals)
    if max_value is not None:
        keep &= vals <= max_value
    return list(zip(iu[keep].tolist(), ju[keep].tolist(), vals[keep].tolist()))


def flag_expand_tuples(ef: EdgeFiltration, dim_cap: int, max_value: float | None = None):
    """The flag filtration as (vertex tuple, value) pairs, by growing cliques from bitmasks.

    The tuple-based expansion the package used before its NumPy one: each
    edge grows into the cliques of its common upper neighbours, a clique's
    value is the largest of its edges' births, and one Python sort puts the
    list in (value, dim, vertices) order.
    """
    sims = [((v,), float(b)) for v, b in enumerate(ef.vertex_birth) if max_value is None or not b > max_value]
    edges = edge_list(ef, max_value)
    nbr = [0] * ef.vertex_birth.size  # upper neighbours as bitmasks
    for i, j, _ in edges:
        nbr[i] |= 1 << j

    def grow(simplex, value, cand):
        while cand:
            low = cand & -cand
            u, cand = low.bit_length() - 1, cand ^ low
            child = simplex + (u,)
            val = max([value] + [ef.births[w, u] for w in simplex])
            sims.append((child, float(val)))
            if len(child) <= dim_cap:
                grow(child, val, cand & nbr[u])

    for i, j, b in edges:
        sims.append(((i, j), float(b)))
        if dim_cap >= 2:
            grow((i, j), b, nbr[i] & nbr[j])
    return sorted(sims, key=lambda sv: (sv[1], len(sv[0]), sv[0]))


def first_violation(simplices):
    """The message of the first broken filtration contract, by one pass over a tuple dict; None if valid.

    The checks the package ran position by position before its array
    validator: strictly sorted vertices, nondecreasing non-NaN values, no
    duplicates, and every facet at an earlier position.
    """
    index = {}
    prev = -math.inf
    for pos, (verts, value) in enumerate(simplices):
        if not verts or any(a >= b for a, b in zip(verts, verts[1:])):
            return f"simplex {verts} at position {pos} is not strictly sorted"
        if not value >= prev:
            return f"filtration value {value} at position {pos} is NaN or below {prev} before it"
        prev = value
        if index.setdefault(verts, pos) != pos:
            return f"duplicate simplex {verts}"
        for f in itertools.combinations(verts, len(verts) - 1) if len(verts) > 1 else ():
            if f not in index:
                return f"face {f} of {verts} missing or out of order"
    return None


def complex_below(ef: EdgeFiltration, epsilon: float, dim_cap: int):
    """Brute-force scale-epsilon clique complex of an edge filtration."""
    n = ef.vertex_birth.size
    present = [v for v in range(n) if ef.vertex_birth[v] <= epsilon]
    edge_set = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if ef.vertex_birth[i] <= epsilon
        and ef.vertex_birth[j] <= epsilon
        and ef.births[i, j] <= epsilon
    }
    return brute_force_cliques(present, edge_set, dim_cap)


def complex_at(ff: FlagFiltration, epsilon: float) -> list:
    """The simplex list at a fixed scale: every (vertex tuple, value) pair with value <= epsilon."""
    if ff.max_value is not None and epsilon > ff.max_value:
        raise ValueError(f"epsilon {epsilon} exceeds the filtration cap {ff.max_value}")
    return [(verts, value) for verts, value in ff.simplices if value <= epsilon]


def random_edge_filtration(rng: np.random.Generator, n_max: int = 12) -> EdgeFiltration:
    """A small random edge filtration with ties, staggered births, missing edges."""
    n = int(rng.integers(3, n_max + 1))
    if rng.random() < 0.5:
        vb = np.zeros(n)
    else:
        vb = np.round(rng.uniform(0.0, 0.3, size=n), 2)
    drop_p = float(rng.uniform(0.0, 0.4))
    births = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < drop_p:
                continue  # absent edge
            b = max(vb[i], vb[j]) + rng.uniform(0.0, 1.0)
            if rng.random() < 0.5:
                b = max(round(b, 1), vb[i], vb[j])  # deliberate ties
            births[i, j] = births[j, i] = b
    return EdgeFiltration(vertex_birth=vb, births=births)


def truncate_births(ef: EdgeFiltration, cap: float) -> EdgeFiltration:
    """An uncapped edge filtration cut at ``cap``: larger values become +inf, their witness -1."""
    over = ef.births > cap
    return EdgeFiltration(
        vertex_birth=np.where(ef.vertex_birth > cap, np.inf, ef.vertex_birth),
        births=np.where(over, np.inf, ef.births),
        witness=np.where(over, -1, ef.witness),
        max_value=cap,
    )


def ami_histogram2d(x: np.ndarray, tau_max: int, bins: int) -> np.ndarray:
    """Average mutual information (bits) for tau = 0..tau_max, one histogram2d per delay."""
    n = x.size
    edges = np.linspace(float(x.min()), float(x.max()), bins + 1)
    values = np.empty(tau_max + 1, dtype=np.float64)
    for tau in range(tau_max + 1):
        joint, _, _ = np.histogram2d(x[: n - tau], x[tau:], bins=(edges, edges))
        p = joint / joint.sum()
        px = p.sum(axis=1)
        py = p.sum(axis=0)
        mask = p > 0
        denom = px[:, None] * py[None, :]
        values[tau] = float(np.sum(p[mask] * np.log2(p[mask] / denom[mask])))
    return values


def components_unionfind(ef: EdgeFiltration, epsilon: float) -> int:
    """Connected-component count of the scale-epsilon 1-skeleton via union-find.

    Independent of the reduction path: counts vertices with birth <= epsilon,
    merged along every edge with birth <= epsilon.
    """
    ell = ef.vertex_birth.size
    parent = list(range(ell))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    alive = ef.vertex_birth <= epsilon
    iu, ju = np.nonzero(np.triu(ef.births <= epsilon, k=1))
    for i, j in zip(iu.tolist(), ju.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    return len({find(v) for v in range(ell) if alive[v]})


def lifespan(ms, m_max: int | None = None) -> int:
    """Length of the longest contiguous run in a set of dimension values.

    An edge alive on {2} has lifespan 1; alive on {2} and {5, 6, 7} it has
    lifespan 3; never alive, 0.
    """
    values = sorted(set(int(m) for m in ms))
    if m_max is not None and values and values[-1] > m_max:
        raise ValueError(f"dimension value {values[-1]} exceeds m_max={m_max}")
    best = run = 0
    prev = None
    for m in values:
        run = run + 1 if prev is not None and m == prev + 1 else 1
        best = max(best, run)
        prev = m
    return best


def existence_set(sw: DimensionSweep, i: int, j: int) -> list[int]:
    """The sorted list of dimensions at which edge (i, j) exists."""
    mask = int(sw.existence[i, j])
    return [m for m in range(1, sw.m_max + 1) if mask >> (m - 1) & 1]


def boundary_reduction(ff: FlagFiltration):
    """Barcode of a filtration by left-to-right reduction of bigint boundary columns.

    Reduces every dimension from the top down with clearing.  Returns
    ``(k, birth, death, creator, destroyer)`` for k < dim_cap, positive
    length only, sorted by (k, birth, death, creator); death is +inf and
    destroyer None for an open class.  Assumes a valid filtration.
    """
    sims = ff.simplices
    index = {verts: pos for pos, (verts, _) in enumerate(sims)}
    values = [v for _, v in sims]
    dims = [len(v) - 1 for v, _ in sims]
    reduced: dict[int, int] = {}  # destroyer position -> reduced column bits
    pivot: dict[int, int] = {}  # low row -> destroyer position
    for d in range(max(dims), 0, -1):
        for j in (pos for pos in range(len(sims)) if dims[pos] == d and pos not in pivot):
            col = 0
            for f in itertools.combinations(sims[j][0], d):
                col |= 1 << index[f]
            while col and col.bit_length() - 1 in pivot:
                col ^= reduced[pivot[col.bit_length() - 1]]
            if col:
                pivot[col.bit_length() - 1] = j
                reduced[j] = col
    bars = [(dims[i], values[i], values[j], i, j) for i, j in pivot.items()]
    bars += [(dims[p], values[p], math.inf, p, None) for p in range(len(sims))
             if p not in pivot and p not in reduced]
    return sorted(bar for bar in bars if bar[0] < ff.dim_cap and bar[2] > bar[1])


def kernel_cycles_bigint(ff: FlagFiltration, k: int) -> dict:
    """Creator position -> its k-cycle (vertex tuples, ascending position), by a bigint V-tracked pass.

    Reduces the dim-k boundary columns alone in filtration order; a column
    that reduces to zero is a creator and its V column is the cycle.
    """
    sims = ff.simplices
    index = {verts: pos for pos, (verts, _) in enumerate(sims)}
    cols = [pos for pos, (verts, _) in enumerate(sims) if len(verts) == k + 1]
    reduced: dict[int, tuple[int, int]] = {}  # low row -> (column, V column)
    cycles = {}
    for li, g in enumerate(cols):
        col = 0
        for f in itertools.combinations(sims[g][0], k):
            col |= 1 << index[f]
        vec = 1 << li
        while col and col.bit_length() - 1 in reduced:
            other, other_vec = reduced[col.bit_length() - 1]
            col ^= other
            vec ^= other_vec
        if col:
            reduced[col.bit_length() - 1] = (col, vec)
        else:
            cycles[g] = [sims[cols[b]][0] for b in range(len(cols)) if vec >> b & 1]
    return cycles


def edge_births_rows(witnesses, landmarks, row_block: int = 32, cap: float | None = None) -> EdgeFiltration:
    """Edge births by landmark rows over one transposed N x ell excess array of ``cdist`` distances.

    Row j is scanned over every witness (or, under a cap, over the witnesses
    whose excess at landmark j is <= cap), ``row_block`` partner rows at a
    time; values above the cap read +inf with witness -1.
    """
    dist = cdist(witnesses, landmarks)
    excess_t = np.subtract(dist.T, dist.min(axis=1), order="C")
    n_l = excess_t.shape[0]
    vertex_birth = excess_t.min(axis=1)
    births = np.full((n_l, n_l), np.inf)
    witness = np.full((n_l, n_l), -1, dtype=np.int64)
    for j in range(n_l - 1):
        cols = slice(None) if cap is None else np.flatnonzero(excess_t[j] <= cap)
        if cap is not None and cols.size == 0:
            continue
        base = excess_t[j, cols]
        for start in range(j + 1, n_l, row_block):
            stop = min(start + row_block, n_l)
            pm = np.maximum(excess_t[start:stop, cols], base)
            w_idx = pm.argmin(axis=1)
            vals = pm[np.arange(stop - start), w_idx]
            if cap is not None:
                w_idx = cols[w_idx]
            births[j, start:stop] = births[start:stop, j] = vals
            witness[j, start:stop] = witness[start:stop, j] = w_idx
    if cap is not None:
        vertex_birth[vertex_birth > cap] = np.inf
        over = births > cap
        births[over] = np.inf
        witness[over] = -1
    return EdgeFiltration(vertex_birth, births, witness, max_value=cap)

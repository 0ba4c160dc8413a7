"""Barcode reduction, Betti queries, union-find oracle, and cycle extraction."""

import itertools
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    boundary_reduction,
    complex_below,
    components_unionfind,
    dense_betti,
    flag_filtration,
    flag_refusal,
    kernel_cycles_bigint,
    random_edge_filtration,
    tied_edge_filtration,
)
from topo_recon.persistence import (
    _reduce,
    Barcode,
    Interval,
    betti_at,
    load_barcode,
    persistent_homology,
    representative_cycles,
    save_barcode,
)
from topo_recon import mscan as mscan_module
from topo_recon import persistence as persistence_module
from topo_recon import witness as witness_module
from topo_recon.embed import PointCloud, ami_curve, first_minimum
from topo_recon.landmarks import select_evenly_spaced
from topo_recon.signal import SeriesFormatError, Trajectory, integrate_lorenz, observe
from topo_recon.witness import (
    EdgeFiltration,
    distance_matrix,
    edge_births,
    flag_expand,
    load_filtration,
    save_filtration,
)


def edge_filtration(n, edges, vertex_birth=None):
    vb = np.zeros(n) if vertex_birth is None else np.asarray(vertex_birth, dtype=float)
    births = np.full((n, n), np.inf)
    for (i, j), v in edges.items():
        births[i, j] = births[j, i] = v
    return EdgeFiltration(vb, births)


def square():
    return edge_filtration(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})


class TestSmallBarcodes:
    def test_hollow_square(self):
        bc = persistent_homology(flag_expand(square(), dim_cap=2))
        k0 = bc.by_dim(0)
        assert len(k0) == 4
        assert sorted((iv.birth, iv.death) for iv in k0) == [
            (0.0, 1.0),
            (0.0, 1.0),
            (0.0, 1.0),
            (0.0, math.inf),
        ]
        k1 = bc.by_dim(1)
        assert [(iv.birth, iv.death) for iv in k1] == [(1.0, math.inf)]

    def test_filled_square_drops_zero_length_bar(self):
        # A diagonal at scale 2 creates a second cycle and two triangles kill
        # both cycles at the same scale: one finite bar survives, the
        # zero-length one is dropped.
        ef = edge_filtration(
            4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0, (0, 2): 2.0}
        )
        bc = persistent_homology(flag_expand(ef, dim_cap=2))
        k1 = bc.by_dim(1)
        assert [(iv.birth, iv.death) for iv in k1] == [(1.0, 2.0)]

    def test_staggered_vertex_births(self):
        ef = edge_filtration(
            3, {(0, 1): 0.5, (1, 2): 0.6}, vertex_birth=[0.0, 0.1, 0.2]
        )
        bc = persistent_homology(flag_expand(ef, dim_cap=2))
        assert sorted((iv.birth, iv.death) for iv in bc.by_dim(0)) == [
            (0.0, math.inf),
            (0.1, 0.5),
            (0.2, 0.6),
        ]

    def test_two_components(self):
        ef = edge_filtration(4, {(0, 1): 1.0, (2, 3): 1.5})
        bc = persistent_homology(flag_expand(ef, dim_cap=2))
        inf_bars = [iv for iv in bc.by_dim(0) if math.isinf(iv.death)]
        assert len(inf_bars) == 2

    @pytest.mark.parametrize("dim_cap", [1, 2, 3])
    def test_no_vertices(self, dim_cap):
        bc = persistent_homology(flag_expand(EdgeFiltration(np.zeros(0), np.zeros((0, 0))), dim_cap=dim_cap))
        assert bc.intervals == [] and bc.destroyers.size == bc.positions.size == 0

    def test_listed_filtration_without_births_refused(self):
        # every degree reads the truncated births, so a filtration that lists its simplices alone is refused
        with pytest.raises(ValueError, match="needs a flag filtration from flag_expand, which keeps its top_births"):
            persistent_homology(flag_filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)], dim_cap=2))

    def test_interval_length(self):
        assert Interval(k=1, birth=0.5, death=2.0, creator=0).length == 1.5
        assert math.isinf(Interval(k=0, birth=0.0, death=math.inf, creator=0).length)

    def test_betti_at_and_grid(self):
        bc = persistent_homology(flag_expand(square(), dim_cap=2))
        assert betti_at(bc, 0.5) == [4, 0]
        assert betti_at(bc, 1.0) == [1, 1]  # birth <= eps < death is inclusive at birth
        grid = [betti_at(bc, eps) for eps in (0.5, 1.0, 1.5)]
        assert grid == [[4, 0], [1, 1], [1, 1]]

    def test_betti_at_respects_cap(self):
        ef = square()
        bc = persistent_homology(flag_expand(ef, dim_cap=2, max_value=2.0))
        assert betti_at(bc, 2.0) == [1, 1]
        with pytest.raises(ValueError):
            betti_at(bc, 2.5)

    @pytest.mark.parametrize("cap", [2.0, None])
    def test_betti_at_nan_rejected(self, cap):
        bc = persistent_homology(flag_expand(square(), dim_cap=2, max_value=cap))
        with pytest.raises(ValueError, match="epsilon nan is NaN or exceeds the filtration cap"):
            betti_at(bc, math.nan)

    def test_capped_open_bars_report_infinite_death(self):
        # The square's cycle is still open at the cap, so its death is +inf
        # even though larger complexes might close it later.
        ef = edge_filtration(
            4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0, (0, 2): 5.0}
        )
        bc = persistent_homology(flag_expand(ef, dim_cap=2, max_value=2.0))
        assert [(iv.birth, iv.death) for iv in bc.by_dim(1)] == [(1.0, math.inf)]


class TestAgainstDenseOracle:
    def test_betti_matches_rank_nullity_on_random_filtrations(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            ef = random_edge_filtration(rng, n_max=9)
            dim_cap = int(rng.integers(2, 4))
            ff = flag_expand(ef, dim_cap=dim_cap)
            bc = persistent_homology(ff)
            values = sorted({v for _, v in ff.simplices})
            probe = [values[i] for i in rng.choice(len(values), size=min(5, len(values)), replace=False)]
            for eps in probe:
                sims = complex_below(ef, eps, dim_cap)
                expected = dense_betti(sims) if sims else []
                expected = (expected + [0] * dim_cap)[:dim_cap]
                assert betti_at(bc, eps) == expected

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_unionfind_equals_reduction_beta0(self, seed):
        rng = np.random.default_rng(seed)
        ef = random_edge_filtration(rng, n_max=10)
        ff = flag_expand(ef, dim_cap=2)
        bc = persistent_homology(ff)
        finite = [v for _, v in ff.simplices]
        top = max(finite)
        for eps in rng.uniform(0.0, top * 1.1, size=5):
            assert components_unionfind(ef, float(eps)) == betti_at(bc, float(eps))[0]

    def test_relabeling_leaves_barcode_invariant(self):
        rng = np.random.default_rng(21)
        ef = random_edge_filtration(rng, n_max=8)
        n = ef.vertex_birth.size
        perm = rng.permutation(n)
        vb2 = ef.vertex_birth[perm]
        births2 = ef.births[np.ix_(perm, perm)]
        bars = lambda e: sorted(
            (iv.k, iv.birth, iv.death)
            for iv in persistent_homology(flag_expand(e, dim_cap=3)).intervals
        )
        assert bars(ef) == bars(EdgeFiltration(vb2, births2))


def interval_tuples(bc):
    return [(iv.k, iv.birth, iv.death, iv.creator, iv.destroyer) for iv in bc.intervals]


def check_against_referees(ff):
    """Bars equal the bigint boundary reduction; Betti numbers equal dense rank-nullity
    at every critical value; representative cycles equal the bigint kernel pass."""
    bc = persistent_homology(ff)
    assert interval_tuples(bc) == boundary_reduction(ff)
    for eps in sorted({v for _, v in ff.simplices}):
        expected = dense_betti([verts for verts, v in ff.simplices if v <= eps])
        assert betti_at(bc, eps) == (expected + [0] * ff.dim_cap)[: ff.dim_cap]
    for k in range(1, ff.dim_cap):
        want = kernel_cycles_bigint(ff, k)
        got = representative_cycles(bc, k, top_n=len(bc.by_dim(k)))
        assert len(got) == len(bc.by_dim(k))
        for iv, cycle in got + representative_cycles(bc, k, top_n=1):  # the longest bar alone reads fewer destroyers
            assert cycle == want[iv.creator]
    return bc


def write_filtration(path, sims):
    """Write (vertex tuple, value) pairs as a filtration file, as given."""
    path.write_text(json.dumps([{"vertices": list(verts), "value": value} for verts, value in sims]))
    return path


def hollow_tetrahedron(tmp_path):
    """All faces of a tetrahedron but not its interior, the triangles valued above their edges: no flag filtration."""
    sims = [((v,), 0.0) for v in range(4)]
    sims += [(e, 1.0) for e in itertools.combinations(range(4), 2)]
    sims += [(t, 5.0 + i) for i, t in enumerate(itertools.combinations(range(4), 3))]
    return write_filtration(tmp_path / "tetra.json", sims)


def octahedron():
    """The octahedron's edges: six vertices, all pairs but the three antipodal ones (0-1, 2-3, 4-5)."""
    edges = [e for e in itertools.combinations(range(6), 2) if e not in ((0, 1), (2, 3), (4, 5))]
    return edge_filtration(6, {e: 1.0 + 0.25 * i for i, e in enumerate(edges)})


class TestAgainstBoundaryReduction:
    @given(seed=st.integers(0, 10_000), dim_cap=st.integers(1, 4), capped=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_flag_filtrations(self, seed, dim_cap, capped):
        rng = np.random.default_rng(seed)
        ef = random_edge_filtration(rng, n_max=9)  # tied values and missing edges
        max_value = None
        if capped:
            finite = np.unique(ef.births[np.isfinite(ef.births)])
            max_value = float(rng.choice(finite)) if finite.size else 0.5
        check_against_referees(flag_expand(ef, dim_cap=dim_cap, max_value=max_value))

    def test_loaded_hollow_tetrahedron(self, tmp_path):
        # its edges fill in the tetrahedron's triangles at 1.0, so the file is refused at its first triangle
        path = hollow_tetrahedron(tmp_path)
        with pytest.raises(ValueError) as exc:
            load_filtration(path)
        assert str(exc.value) == (f"{path}: entry 10 ([0, 1, 2] at 5.0) differs from the flag expansion of the"
                                  " file's vertex and edge entries, which has [0, 1, 2] at 1.0 there")

    def test_flag_octahedron(self, tmp_path):
        # the octahedron's clique complex is a 2-sphere: one H2 bar, born with its last triangles at 3.75
        ff = flag_expand(octahedron(), dim_cap=3)
        assert ff.counts_by_dim() == {0: 6, 1: 12, 2: 8}
        sphere = check_against_referees(ff)
        assert betti_at(sphere, 3.7) == [1, 0, 0]
        assert betti_at(sphere, 3.75) == [1, 0, 1]
        (h2,) = sphere.by_dim(2)
        assert (h2.birth, h2.death, h2.creator, h2.destroyer) == (3.75, math.inf, len(ff) - 1, None)
        # written at dim_cap 2 and read one dimension higher, as ``barcode --dim-cap 3`` does
        save_filtration(flag_expand(octahedron(), dim_cap=2), tmp_path / "octahedron.json")
        loaded = load_filtration(tmp_path / "octahedron.json", dim_cap=3)
        assert interval_tuples(persistent_homology(loaded)) == interval_tuples(sphere)


def check_implicit_top(ef, dim_cap, max_value=None):
    """Every degree reduced from the adjacency, the top one unlisted, gives the bigint referee's bars, destroyers
    and cycles, and places each listed simplex at its position in the whole list."""
    ff = flag_expand(ef, dim_cap=dim_cap, max_value=max_value)
    bc, whole = persistent_homology(ff), ff.simplices
    if whole:  # the bigint referee needs a simplex
        assert (interval_tuples(bc), bc.destroyers.tolist()) == boundary_reduction(ff, destroyers=True)
    assert [whole[p] for p in bc.positions.tolist()] == [
        (tuple(v[: d + 1]), x) for v, d, x in zip(ff.listed_vertices.tolist(), ff.listed_dims.tolist(),
                                                  ff.listed_values.tolist())
    ]
    for k in range(1, dim_cap):
        want = kernel_cycles_bigint(ff, k)
        for top_n in (1, len(bc.by_dim(k))):
            assert all(cycle == want[iv.creator] for iv, cycle in representative_cycles(bc, k, top_n))
    return bc


class TestImplicitTop:
    """The top dimension of a flag filtration is reduced without its list, with the bigint referee's results."""

    @given(data=st.data(), n=st.integers(1, 9), dim_cap=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_random_edge_filtrations(self, data, n, dim_cap):
        ef, cap = tied_edge_filtration(data, n)
        check_implicit_top(ef, dim_cap, cap)

    @given(data=st.data(), n=st.integers(1, 8), dim_cap=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_every_top_position(self, data, n, dim_cap):
        # every top simplex, not only the destroyers: its rank is its index in the whole list
        ef, cap = tied_edge_filtration(data, n)
        ff = flag_expand(ef, dim_cap=dim_cap, max_value=cap)
        whole = ff.simplices
        tops = [(verts, value) for verts, value in whole if len(verts) == dim_cap + 1]
        verts = np.array([v for v, _ in tops], dtype=np.int64).reshape(-1, dim_cap + 1)
        top = persistence_module._Rows(ff)
        rows = top.encode(verts[:, :dim_cap], np.array([x for _, x in tops]), verts[:, dim_cap]).tolist()
        positions, top_positions = persistence_module._positions(ff, top, rows)
        assert [whole[p] for p in top_positions.tolist()] == tops
        assert len(set(positions.tolist()) | set(top_positions.tolist())) == len(ff)

    @pytest.mark.parametrize("seed", range(6))
    def test_python_int_rows(self, seed, monkeypatch):
        # rows that could pass int64 are Python ints in object arrays, with the same results
        monkeypatch.setattr(persistence_module, "_ROW_BOUND", 0)
        ef = random_edge_filtration(np.random.default_rng(seed), n_max=9)
        for dim_cap in (1, 2, 3):
            check_implicit_top(ef, dim_cap)

    def test_sweep8_lifespan_filtration(self, monkeypatch):
        # the lifespan filtration of the m = 1..8 sweep benchmark, captured on its way into flag_expand
        traj = integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=100_001, transient_steps=10_000)
        series = observe(Trajectory(np.ascontiguousarray(traj.points[::4]), traj.dt * 4), "x")
        sw = mscan_module.sweep(series, first_minimum(ami_curve(series, tau_max=400)), 0.0054, 125, 8)
        captured = []
        monkeypatch.setattr(mscan_module, "flag_expand", lambda ef, **kw: captured.append(ef) or flag_expand(ef, **kw))
        dmf = mscan_module.dm_filtration(sw, dim_cap=2)
        bc = check_implicit_top(captured[0], 2)
        assert interval_tuples(bc) == interval_tuples(dmf.barcode) and len(dmf.filtration) > 7000

    def test_lorenz_trajectory_at_cap(self):
        # the 3-d trajectory over 201 landmarks, read to 1.2, where it has its two loops
        traj = integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=100_001, transient_steps=10_000)
        lms = select_evenly_spaced(PointCloud(traj.points, np.arange(len(traj))), 500)
        ef = edge_births(distance_matrix(traj.points, lms.coords), cap=1.2)
        bc = check_implicit_top(ef, 2, 1.2)
        assert betti_at(bc, 1.2) == [1, 2]


class TestLazyColumns:
    """A coboundary column is built as a set only when it needs an addition or must be added."""

    def test_free_pivots_build_no_column(self):
        built = []
        heads = [(0, 10), (1, 11), (2, None), (3, 12)]
        got = list(_reduce(iter(heads), lambda key: built.append(key) or set(), track=True))
        assert got == [(0, 10, {0}, 0), (1, 11, {1}, 0), (2, None, {2}, 0), (3, 12, {3}, 0)]
        assert built == []

    def test_only_added_columns_are_built(self):
        cols = {0: {10, 20}, 1: {10, 30}, 2: {10, 20, 40}, 3: {50}}
        built = []
        heads = ((key, min(col)) for key, col in cols.items())
        got = list(_reduce(heads, lambda key: built.append(key) or set(cols[key]), track=True))
        # column 1 adds column 0 and pivots at 20; column 2 adds the column 0 already built
        assert got == [(0, 10, {0}, 0), (1, 20, {0, 1}, 1), (2, 40, {0, 2}, 1), (3, 50, {3}, 0)]
        assert built == [1, 0, 2]

    def test_apparent_pairs_hold_no_set_per_column(self, monkeypatch):
        # the flag filtration of 80 random points in the plane by distance, complete through
        # triangles: nearly every edge column pairs at once with its first coface
        rng = np.random.default_rng(0)
        n = 80
        P = rng.uniform(size=(n, 2))
        D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(axis=-1))
        np.fill_diagonal(D, np.inf)
        ff = flag_expand(EdgeFiltration(np.zeros(n), D), dim_cap=2)
        built, growth = [], []
        original = persistence_module._reduce

        def measured(heads, column, *args, **kwargs):  # the reduction's memory above what it was handed
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield from original(heads, lambda key: built.append(key) or column(key), *args, **kwargs)
            growth.append(tracemalloc.get_traced_memory()[1] - start)

        monkeypatch.setattr(persistence_module, "_reduce", measured)
        tracemalloc.start()
        try:
            persistent_homology(ff)
        finally:
            tracemalloc.stop()
        columns = n * (n - 1) // 2 - (n - 1)  # the edges left after the H0 pass clears the spanning forest
        assert len(growth) == 2 and len(built) < columns / 20  # one pass per degree, the vertices' included
        # every such column has n - 2 cofaces; one set of them per column would hold at least
        assert all(g < columns * sys.getsizeof(set(range(n - 2))) / 10 for g in growth)


class TestReductionMemory:
    def test_peak_above_the_filtration_is_near_its_arrays(self):
        # 90 random points in the plane, complete through triangles: 121,575 simplices.  Every
        # degree's pivots are taken a chunk of coface values at a time, and a column's cofaces
        # are read from the adjacency, so no per-simplex facet table or coface CSR is held
        rng = np.random.default_rng(0)
        P = rng.uniform(size=(90, 2))
        D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(axis=-1))
        np.fill_diagonal(D, np.inf)
        ff = flag_expand(EdgeFiltration(np.zeros(len(P)), D), dim_cap=2)
        assert len(ff) >= 100_000
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            persistent_homology(ff)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (ff.vertices.nbytes + ff.dims.nbytes + ff.values.nbytes)


class TestReductionCounts:
    def test_counts_of_the_hollow_and_filled_square(self):
        bc = persistent_homology(flag_expand(square(), dim_cap=2))
        # positions: vertices 0-3, edges 01=4, 03=5, 12=6, 23=7.  Vertex columns, last first:
        # 3 {5, 7}, 2 {6, 7} and 1 {4, 6} pair at once; 0 {4, 5} adds the columns of 1, 3 and 2
        # and vanishes, building its own set and those three (3 additions, 4 sets).  Of the edges,
        # the destroyers 4, 5, 6 are cleared, and 7 is reduced and has no coface
        assert bc.counts == {
            "reduced_columns": {0: 4, 1: 1},
            "cleared_columns": {0: 0, 1: 3},
            "column_additions": {0: 3, 1: 0},
            "column_sets": 4,
        }
        # filled: the diagonal 02=8 and triangles 012=9, 023=10.  The vertex pass runs as
        # above, 0 {4, 5, 8} now vanishing with 2 {6, 7, 8}; edges 8 {9, 10} and 7 {10} pair at once
        ef = edge_filtration(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0, (0, 2): 2.0})
        assert persistent_homology(flag_expand(ef, dim_cap=2)).counts == {
            "reduced_columns": {0: 4, 1: 2},
            "cleared_columns": {0: 0, 1: 3},
            "column_additions": {0: 3, 1: 0},
            "column_sets": 4,
        }

    @given(seed=st.integers(0, 10_000), dim_cap=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_counts_add_up_and_sets_are_those_built(self, seed, dim_cap):
        ff = flag_expand(random_edge_filtration(np.random.default_rng(seed), n_max=9), dim_cap=dim_cap)
        built = []
        original = persistence_module._reduce

        def counted(heads, column, *args, **kwargs):
            yield from original(heads, lambda key: built.append(key) or column(key), *args, **kwargs)

        persistence_module._reduce = counted
        try:
            bc = persistent_homology(ff)
        finally:
            persistence_module._reduce = original
        by_dim = ff.counts_by_dim()
        assert set(bc.counts["reduced_columns"]) == set(bc.counts["column_additions"]) == set(range(dim_cap))
        for k in range(dim_cap):
            assert bc.counts["reduced_columns"][k] + bc.counts["cleared_columns"][k] == by_dim.get(k, 0)
        if dim_cap > 1:  # the H0 pass clears exactly the spanning forest
            assert bc.counts["cleared_columns"][1] == np.count_nonzero(ff.dims[bc.destroyers] == 1)
        assert bc.counts["column_sets"] == len(built)
        # an addition builds at most two sets: the column's own, first time, and the one it adds
        assert bc.counts["column_sets"] <= 2 * sum(bc.counts["column_additions"].values())


def circle_barcode(n_witness=200, stride=10, cap=1.5):
    theta = np.linspace(0.0, 2.0 * np.pi, n_witness, endpoint=False)
    W = np.column_stack([np.cos(theta), np.sin(theta)])
    from topo_recon.witness import distance_matrix, edge_births

    ef = edge_births(distance_matrix(W, W[::stride]))
    return persistent_homology(flag_expand(ef, dim_cap=2, max_value=cap))


class TestRepresentativeCycles:
    def test_dominant_circle_cycle_is_closed_and_born_with_its_bar(self):
        bc = circle_barcode()
        (iv, cycle), = representative_cycles(bc, k=1, top_n=1)
        longest = max(bc.by_dim(1), key=lambda b: b.length)
        assert iv == longest
        # closed over Z/2: every vertex meets an even number of edges
        degree = {}
        for a, b in cycle:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(d % 2 == 0 for d in degree.values())
        # the cycle is born exactly with the bar and contains its creator edge
        values = {s: v for s, v in bc.filtration.simplices}
        assert max(values[e] for e in cycle) == iv.birth
        assert bc.filtration.simplices[iv.creator][0] in cycle

    def test_cycle_spans_the_landmark_circle(self):
        bc = circle_barcode()
        (_, cycle), = representative_cycles(bc, k=1, top_n=1)
        touched = {v for e in cycle for v in e}
        assert len(touched) >= 10  # a real loop, not a local wiggle

    def test_top_n_larger_than_bar_count(self):
        bc = persistent_homology(flag_expand(square(), dim_cap=2))
        got = representative_cycles(bc, k=1, top_n=5)
        assert len(got) == 1

    def test_no_bar_no_reduction(self, monkeypatch):
        # dim_cap 2 reports no H2 bar, so no reduction of the triangles may run
        bc = circle_barcode()
        assert bc.filtration.counts_by_dim()[2] > 0

        def refuse(*args, **kwargs):
            raise AssertionError("reduction run without a bar")

        monkeypatch.setattr(persistence_module, "_reduce", refuse)
        assert representative_cycles(bc, k=2, top_n=5) == []

    def test_cycles_read_no_second_validation(self, monkeypatch):
        # the H2 cycle comes from the destroyers the barcode kept, not from another pass over the filtration
        sphere = persistent_homology(flag_expand(octahedron(), dim_cap=3))

        def refuse(*args, **kwargs):
            raise AssertionError("filtration expanded or its coboundaries read again")

        for module, name in ((witness_module, "flag_expand"), (persistence_module, "_coboundary"),
                             (persistence_module, "_Rows")):
            monkeypatch.setattr(module, name, refuse)
        (iv, cycle), = representative_cycles(sphere, k=2)
        assert cycle == kernel_cycles_bigint(sphere.filtration, 2)[iv.creator]
        assert len(cycle) == 8

    def test_k_zero_rejected(self):
        bc = persistent_homology(flag_expand(square(), dim_cap=2))
        with pytest.raises(ValueError):
            representative_cycles(bc, k=0)

    def test_negative_top_n_rejected(self):
        # a negative count must not slice off the last bars
        bc = persistent_homology(flag_expand(square(), dim_cap=2))
        with pytest.raises(ValueError, match="top_n >= 0"):
            representative_cycles(bc, k=1, top_n=-1)
        assert representative_cycles(bc, k=1, top_n=0) == []

    def test_every_reported_cycle_is_a_cycle(self):
        rng = np.random.default_rng(22)
        ef = random_edge_filtration(rng, n_max=10)
        bc = persistent_homology(flag_expand(ef, dim_cap=2))
        for _, cycle in representative_cycles(bc, k=1, top_n=10):
            degree = {}
            for a, b in cycle:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            assert degree and all(d % 2 == 0 for d in degree.values())


class TestContractValidation:
    """Filtrations that are not the flag expansion of their vertices and edges, refused by the loader at an entry."""

    @staticmethod
    def refused(tmp_path, sims):
        with pytest.raises(ValueError) as exc:
            load_filtration(write_filtration(tmp_path / "f.json", sims))
        return str(exc.value).removeprefix(f"{tmp_path / 'f.json'}: ")

    def test_decreasing_values_rejected(self, tmp_path):
        assert self.refused(tmp_path, [((0,), 1.0), ((1,), 0.5)]).startswith("entry 0 ([0] at 1.0) differs from ")

    def test_nan_value_rejected(self, tmp_path):
        assert self.refused(tmp_path, [((0,), 0.0), ((1,), math.nan), ((2,), 1.0)]) == (
            "entry 1 ([1] at nan) is not a nonempty increasing list of vertex ids in 0..2 with a non-NaN value")

    def test_missing_face_rejected(self, tmp_path):
        assert self.refused(tmp_path, [((0,), 0.0), ((0, 1), 1.0)]).startswith("entry 1 ([0, 1] at 1.0) is not a ")

    def test_duplicate_simplex_rejected(self, tmp_path):
        assert self.refused(tmp_path, [((0,), 0.0), ((0,), 0.0)]) == (
            "entry 1 ([0] at 0.0) differs from the flag expansion of the file's vertex and edge entries,"
            " which has [1] at inf there")

    def test_unsorted_vertex_tuple_rejected(self, tmp_path):
        assert self.refused(tmp_path, [((0,), 0.0), ((1,), 0.0), ((1, 0), 1.0)]).startswith("entry 2 ([1, 0] at 1.0)")


def mutated(data, sims):
    """A valid simplex list with one random defect, or none."""
    sims = list(sims)
    p = data.draw(st.integers(0, len(sims) - 1))
    verts, value = sims[p]
    how = data.draw(st.sampled_from(["none", "drop", "copy", "swap", "nan", "reverse", "extend", "value", "empty"]))
    if how == "drop":
        del sims[p]
    elif how == "copy":
        sims.insert(data.draw(st.integers(p, len(sims))), sims[p])
    elif how == "swap":
        q = data.draw(st.integers(0, len(sims) - 1))
        sims[p], sims[q] = sims[q], sims[p]
    elif how == "nan":
        sims[p] = (verts, math.nan)
    elif how == "reverse":
        sims[p] = (verts[::-1], value)
    elif how == "extend":
        sims[p] = (verts + (data.draw(st.integers(-2, 12)),), value)
    elif how == "value":
        sims[p] = (verts, data.draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, math.inf])))
    elif how == "empty":
        sims[p] = ((), value)
    return sims


class TestContractReferee:
    @given(seed=st.integers(0, 10_000), dim_cap=st.integers(1, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_first_violation_as_tuple_checks(self, tmp_path_factory, seed, dim_cap, data):
        # a list is accepted exactly when it is the tuple expansion of its own vertex and edge entries
        ef = random_edge_filtration(np.random.default_rng(seed), n_max=7)
        sims = mutated(data, flag_expand(ef, dim_cap=dim_cap).simplices)
        path = write_filtration(tmp_path_factory.mktemp("referee") / "f.json", sims)
        want = flag_refusal(sims)
        if want is None:
            loaded = load_filtration(path)
            assert loaded.simplices == sims
            assert interval_tuples(persistent_homology(loaded)) == boundary_reduction(loaded)
            return
        with pytest.raises(ValueError) as exc:
            load_filtration(path)
        if want < 0:
            assert str(exc.value).startswith(f"{path}: the flag expansion of its vertex and edge entries has more than")
        else:
            assert str(exc.value).startswith(f"{path}: entry {want} ({list(sims[want][0])} at {sims[want][1]})")


def fuzz_filtration_file(data, path):
    """Write a saved flag filtration with one defect that must make loading fail."""
    ef = random_edge_filtration(np.random.default_rng(data.draw(st.integers(0, 10_000))), n_max=6)
    ff = flag_expand(ef, dim_cap=2)
    save_filtration(ff, path)
    text = path.read_text()
    entries = json.loads(text)
    edges = [p for p, e in enumerate(entries) if len(e["vertices"]) == 2]
    how = data.draw(st.sampled_from(
        ["truncate", "nan", "infinity", "ragged", "non_integer", "unsorted", "missing_face", "duplicate", "order"]
    ))
    if how == "truncate":
        path.write_text(text[: data.draw(st.integers(0, len(text) - 3))])
        return
    if how in ("nan", "infinity"):  # a NaN anywhere, or Infinity before a finite value
        p = data.draw(st.integers(0, len(entries) - (1 if how == "nan" else 2)))
        entries[p]["value"] = math.nan if how == "nan" else math.inf
    elif how == "ragged":
        entries[data.draw(st.integers(0, len(entries) - 1))]["vertices"] = data.draw(
            st.sampled_from([[[0], [1]], "0,1", 3, None, {"0": 1}])
        )
    elif how == "non_integer":
        verts = entries[data.draw(st.integers(0, len(entries) - 1))]["vertices"]
        verts[0] = data.draw(st.sampled_from([0.5, 1.0, "1", True, 2**64, None]))
    elif how == "unsorted" and edges:
        entries[data.draw(st.sampled_from(edges))]["vertices"].reverse()
    elif how == "missing_face" and edges:  # drop a vertex of some edge
        u = entries[data.draw(st.sampled_from(edges))]["vertices"][0]
        del entries[[e["vertices"] for e in entries].index([u])]
    elif how == "order" and edges:  # an edge valued below everything before it
        entries[data.draw(st.sampled_from(edges))]["value"] = -1.0
    else:  # duplicate, and the cases above when there is no edge
        p = data.draw(st.integers(0, len(entries) - 1))
        entries.insert(p + 1, dict(entries[p]))
    path.write_text(json.dumps(entries))


class TestFiltrationFileFuzz:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_filtration_file_fails_with_a_located_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "filtration.json"
        fuzz_filtration_file(data, path)
        with pytest.raises(ValueError) as exc:  # SeriesFormatError is a ValueError
            load_filtration(path)
        if not isinstance(exc.value, SeriesFormatError):  # names the file and the entry
            assert re.match(rf"{re.escape(str(path))}: (entry \d+ |expected a JSON array|filtration is empty)",
                            str(exc.value))


class TestBarcodeFiles:
    def test_round_trip_with_infinite_bars(self, tmp_path):
        bc = persistent_homology(flag_expand(square(), dim_cap=2))
        path = tmp_path / "barcode.csv"
        save_barcode(bc, path)
        rows = load_barcode(path)
        assert sorted(rows) == sorted((iv.k, iv.birth, iv.death) for iv in bc.intervals)
        assert any(math.isinf(d) for _, _, d in rows)

    def test_layout(self, tmp_path):
        ff = flag_expand(edge_filtration(2, {(0, 1): 1.0}), dim_cap=1)
        path = tmp_path / "b.csv"
        save_barcode(persistent_homology(ff), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,birth,death"
        assert set(lines[1:]) == {"0,0.0,1.0", "0,0.0,inf"}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("dim,b,d\n0,0.0,1.0\n")
        with pytest.raises(ValueError):
            load_barcode(path)

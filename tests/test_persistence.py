"""Barcode reduction, Betti queries, union-find oracle, and cycle extraction."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    boundary_reduction,
    complex_below,
    components_unionfind,
    dense_betti,
    kernel_cycles_bigint,
    random_edge_filtration,
)
from topo_recon.persistence import (
    Barcode,
    ContractViolationError,
    Interval,
    betti_at,
    load_barcode,
    persistent_homology,
    representative_cycles,
    save_barcode,
)
from topo_recon.witness import EdgeFiltration, FlagFiltration, flag_expand, load_filtration


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
        n = ef.n_vertices
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
        for iv, cycle in got:
            assert cycle == want[iv.creator]
    return bc


class TestAgainstBoundaryReduction:
    @given(seed=st.integers(0, 10_000), dim_cap=st.integers(1, 3), capped=st.booleans())
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
        # all faces of a tetrahedron but not its interior: no flag filtration
        # has this shape, so cofaces come from the simplex list alone
        sims = [((v,), 0.0) for v in range(4)]
        sims += [(e, 1.0 + 0.5 * i) for i, e in enumerate(itertools.combinations(range(4), 2))]
        sims += [(t, 5.0 + i) for i, t in enumerate(itertools.combinations(range(4), 3))]
        path = tmp_path / "tetra.json"
        path.write_text(json.dumps([{"vertices": list(s), "value": v} for s, v in sims]))
        loaded = load_filtration(path)
        assert loaded.dim_cap == 2
        bc = check_against_referees(loaded)
        assert betti_at(bc, 8.0) == [1, 0]
        sphere = check_against_referees(dataclasses.replace(loaded, dim_cap=3))
        assert betti_at(sphere, 4.5) == [1, 3, 0]
        assert betti_at(sphere, 7.9) == [1, 0, 0]
        assert betti_at(sphere, 8.0) == [1, 0, 1]
        (h2,) = sphere.by_dim(2)
        assert (h2.birth, h2.death, h2.creator, h2.destroyer) == (8.0, math.inf, len(sims) - 1, None)


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

    def test_k_zero_rejected(self):
        bc = persistent_homology(flag_expand(square(), dim_cap=2))
        with pytest.raises(ValueError):
            representative_cycles(bc, k=0)

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
    def test_decreasing_values_rejected(self):
        ff = FlagFiltration(
            simplices=[((0,), 1.0), ((1,), 0.5)], dim_cap=1
        )
        with pytest.raises(ContractViolationError):
            persistent_homology(ff)

    def test_nan_value_rejected(self):
        ff = FlagFiltration(simplices=[((0,), 0.0), ((1,), math.nan), ((2,), 1.0)], dim_cap=1)
        with pytest.raises(ContractViolationError, match="at position 1 is NaN or below 0.0"):
            persistent_homology(ff)

    def test_missing_face_rejected(self):
        ff = FlagFiltration(simplices=[((0,), 0.0), ((0, 1), 1.0)], dim_cap=1)
        with pytest.raises(ContractViolationError):
            persistent_homology(ff)

    def test_duplicate_simplex_rejected(self):
        ff = FlagFiltration(simplices=[((0,), 0.0), ((0,), 0.0)], dim_cap=1)
        with pytest.raises(ContractViolationError):
            persistent_homology(ff)

    def test_unsorted_vertex_tuple_rejected(self):
        ff = FlagFiltration(
            simplices=[((0,), 0.0), ((1,), 0.0), ((1, 0), 1.0)], dim_cap=1
        )
        with pytest.raises(ContractViolationError):
            persistent_homology(ff)


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

"""Distance matrices, fuzzy edge births, and flag-filtration expansion."""

import inspect
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complex_below, edge_births_rows, random_edge_filtration, truncate_births
from topo_recon.embed import PointCloud
from topo_recon import witness as witness_module
from topo_recon.landmarks import LandmarkSet
from topo_recon.signal import SeriesFormatError
from topo_recon.witness import (
    EdgeFiltration,
    FlagFiltration,
    ResourceLimitError,
    complex_at,
    distance_matrix,
    edge_births,
    flag_expand,
    load_filtration,
    save_filtration,
    skeleton_export,
)

DEFAULT_BLOCK = inspect.signature(edge_births).parameters["block"].default


def brute_force_births(W, L):
    """Double-loop recomputation of vertex/edge births and witness records."""
    D = np.sqrt(((W[:, None, :] - L[None, :, :]) ** 2).sum(axis=-1))
    nearest = D.min(axis=1)
    excess = D - nearest[:, None]
    ell = L.shape[0]
    vb = excess.min(axis=0)
    births = np.full((ell, ell), np.inf)
    wit = np.full((ell, ell), -1, dtype=np.int64)
    for i in range(ell):
        for j in range(i + 1, ell):
            vals = np.maximum(excess[:, i], excess[:, j])
            w = int(np.argmin(vals))
            births[i, j] = births[j, i] = vals[w]
            wit[i, j] = wit[j, i] = w
    return vb, births, wit


class TestDistanceMatrix:
    def test_345_triangle(self):
        W = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
        L = np.array([[0.0, 0.0], [3.0, 4.0]])
        dm = distance_matrix(W, L)
        assert np.allclose(dm.entries, [[0.0, 5.0], [3.0, 4.0], [5.0, 0.0]])
        assert np.allclose(dm.nearest, [0.0, 3.0, 0.0])

    def test_nearest_is_row_minimum(self):
        rng = np.random.default_rng(0)
        dm = distance_matrix(rng.standard_normal((30, 3)), rng.standard_normal((7, 3)))
        assert np.array_equal(dm.nearest, dm.entries.min(axis=1))

    def test_landmark_subset_has_zero_nearest(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((20, 2))
        dm = distance_matrix(W, W[::5])
        assert (dm.nearest[::5] == 0.0).all()

    def test_accepts_cloud_and_landmark_objects(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((10, 2))
        cloud = PointCloud(pts, np.arange(10))
        lms = LandmarkSet(np.array([0, 4]), pts[[0, 4]], np.array([0, 4]))
        dm = distance_matrix(cloud, lms)
        assert dm.entries.shape == (10, 2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            distance_matrix(np.zeros((3, 2)), np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_matrix(np.zeros((0, 2)), np.zeros((2, 2)))


class TestEdgeBirths:
    def test_midpoint_witness_frozen_values(self):
        # Witness at 0.4 between landmarks at 0 and 1: the edge is born at
        # max(0.4, 0.6) - 0.4 = 0.2, witnessed by point 1.
        W = np.array([[0.0], [0.4], [1.0]])
        L = np.array([[0.0], [1.0]])
        ef = edge_births(distance_matrix(W, L))
        assert np.array_equal(ef.vertex_birth, [0.0, 0.0])
        assert ef.births[0, 1] == pytest.approx(0.2, abs=1e-15)
        assert ef.witness[0, 1] == 1

    def test_exact_midpoint_gives_zero_birth(self):
        W = np.array([[0.0], [0.5], [1.0]])
        L = np.array([[0.0], [1.0]])
        ef = edge_births(distance_matrix(W, L))
        assert ef.births[0, 1] == 0.0

    def test_landmark_subset_vertex_births_are_exactly_zero(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((50, 3))
        ef = edge_births(distance_matrix(W, W[::7]))
        assert (ef.vertex_birth == 0.0).all()

    def test_matches_brute_force_including_witness_records(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((40, 3))
        L = np.vstack([W[:6], rng.standard_normal((3, 3))])
        ef = edge_births(distance_matrix(W, L))
        vb, births, wit = brute_force_births(W, L)
        assert np.array_equal(ef.vertex_birth, vb)
        iu, ju = np.triu_indices(len(L), k=1)
        assert np.array_equal(ef.births[iu, ju], births[iu, ju])
        assert np.array_equal(ef.witness[iu, ju], wit[iu, ju])

    @pytest.mark.parametrize("block", [1, 3, 32])
    def test_row_blocking_does_not_change_results(self, block):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((25, 2))
        dm = distance_matrix(W, W[::3])
        base = edge_births(dm)
        blocked = edge_births(dm, block=block)
        assert np.array_equal(base.births, blocked.births)
        assert np.array_equal(base.witness, blocked.witness)

    @pytest.mark.parametrize("cap_kind", [None, "zero", "attained", "inf"])
    @pytest.mark.parametrize("n_kind", ["below", "equal", "ragged"])
    @pytest.mark.parametrize("block", [1, 3, DEFAULT_BLOCK])
    def test_witness_blocks_match_row_kernel(self, block, n_kind, cap_kind):
        # witnesses on a coarse grid tie many births, and every block boundary
        # splits a pair of equal witnesses, so the lower index must win there
        n = {"below": max(block - 1, 1), "equal": block, "ragged": 2 * block + 1}[n_kind]
        rng = np.random.default_rng(block + n)
        W = np.round(rng.uniform(-1.0, 1.0, size=(n, 2)), 1)
        for s in range(block, n, block):
            W[s] = W[s - 1]
        L = np.vstack([W[:: max(n // 6, 1)][:8], [[0.05, 0.05]]])  # one landmark off the grid
        dm = distance_matrix(W, L)
        full = edge_births_rows(dm)
        finite = full.births[np.isfinite(full.births)]
        attained = float(np.sort(finite)[finite.size // 2])
        cap = {None: None, "zero": 0.0, "attained": attained, "inf": np.inf}[cap_kind]
        got = edge_births(dm, block=block, cap=cap)
        want = edge_births_rows(dm, cap=cap)
        assert got.max_value == want.max_value
        assert np.array_equal(got.vertex_birth, want.vertex_birth)
        assert np.array_equal(got.births, want.births)
        assert np.array_equal(got.witness, want.witness)

    @pytest.mark.parametrize("cap", [None, 0.0])
    @pytest.mark.parametrize("block", [1, 3, DEFAULT_BLOCK])
    def test_tie_across_block_boundary_keeps_lowest_witness(self, block, cap):
        # the midpoint 0.5 gives edge {0, 1} birth 0, at the last witness of
        # the first block and again at the first witness of the second
        W = np.full((2 * block + 1, 1), 0.9)
        W[block - 1] = W[block] = 0.5
        ef = edge_births(distance_matrix(W, np.array([[0.0], [1.0]])), block=block, cap=cap)
        assert ef.births[0, 1] == 0.0
        assert ef.witness[0, 1] == ef.witness[1, 0] == block - 1

    def test_bad_block_rejected(self):
        dm = distance_matrix(np.zeros((4, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="block"):
            edge_births(dm, block=0)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((30, 2))
        ef = edge_births(distance_matrix(W, W[::4]))
        assert np.array_equal(ef.births, ef.births.T)
        assert np.isinf(np.diag(ef.births)).all()
        assert ef.max_value is None

    def test_single_landmark(self):
        ef = edge_births(distance_matrix(np.zeros((4, 2)), np.zeros((1, 2))))
        assert ef.n_vertices == 1
        assert ef.edge_list() == []

    def test_edge_list_filter_and_order(self):
        vb = np.zeros(3)
        births = np.array([[np.inf, 0.5, 2.0], [0.5, np.inf, np.inf], [2.0, np.inf, np.inf]])
        ef = EdgeFiltration(vb, births)
        assert ef.edge_list() == [(0, 1, 0.5), (0, 2, 2.0)]
        assert ef.edge_list(max_value=1.0) == [(0, 1, 0.5)]

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_births_dominate_vertex_births(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.uniform(-1.0, 1.0, size=(20, 2))
        L = W[:: int(rng.integers(2, 5))]
        ef = edge_births(distance_matrix(W, L))
        for i, j, b in ef.edge_list():
            assert b >= max(ef.vertex_birth[i], ef.vertex_birth[j]) - 1e-12

    @given(
        seed=st.integers(0, 10_000),
        cap_kind=st.sampled_from(["zero", "attained", "random", "inf"]),
        duplicated=st.booleans(),
        gridded=st.booleans(),
        block=st.sampled_from([1, 3, DEFAULT_BLOCK]),
    )
    @settings(max_examples=80, deadline=None)
    def test_capped_births_equal_truncated_uncapped(self, seed, cap_kind, duplicated, gridded, block):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        W = rng.uniform(-1.0, 1.0, size=(int(rng.integers(4, 40)), dim))
        if gridded:  # coordinates on a coarse grid tie many births
            W = np.round(W, 1)
        if duplicated:  # repeated witnesses tie the argmin between their indices
            W = W[rng.integers(0, len(W), size=2 * len(W))]
        # landmarks off the cloud give positive vertex births
        off_cloud = rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, 3)), dim))
        L = np.vstack([W[:: int(rng.integers(2, 6))], off_cloud])
        dm = distance_matrix(W, L)
        full = edge_births(dm)
        finite = full.births[np.isfinite(full.births)]
        cap = {
            "zero": 0.0,
            "attained": float(rng.choice(finite)) if finite.size else 0.0,
            "random": float(rng.uniform(0.0, finite.max() if finite.size else 1.0)),
            "inf": np.inf,
        }[cap_kind]
        got = edge_births(dm, block=block, cap=cap)
        want = truncate_births(full, cap)
        assert got.max_value == cap
        assert np.array_equal(got.vertex_birth, want.vertex_birth)
        assert np.array_equal(got.births, want.births)
        assert np.array_equal(got.witness, want.witness)

    @pytest.mark.parametrize("cap", [np.nan, -0.1, -np.inf])
    def test_bad_cap_rejected(self, cap):
        dm = distance_matrix(np.zeros((4, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="cap"):
            edge_births(dm, cap=cap)


class _FoldCounter:
    """Forwards to numpy, counting the rows of every 2-d maximum: the (pair, run) terms the row fold takes."""

    def __init__(self):
        self.rows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args, **kwargs):
        out = np.maximum(*args, **kwargs)
        self.rows += out.shape[0] if out.ndim == 2 else 0
        return out


class TestBoundedRowFold:
    """The row fold skips the pairs a run of 64 witnesses cannot improve; referee: the landmark-row kernel."""

    @pytest.mark.parametrize("cap_kind", [None, "attained"])
    @pytest.mark.parametrize("ell", [1, 2, 9, 40])
    @pytest.mark.parametrize("n", [63, 64, 65, 577])
    def test_matches_row_kernel(self, n, ell, cap_kind):
        # a coarse grid ties many births, and equal witnesses straddle the run
        # boundaries 64, 128, 576 and the block boundary 512; at ell = 40 the
        # first run folds its 780 pairs as a full chunk and a tail
        rng = np.random.default_rng(1000 * n + ell)
        W = np.round(rng.uniform(-1.0, 1.0, size=(n, 2)), 1)
        for s in range(64, n, 64):
            W[s] = W[s - 1]
        L = np.vstack([W[rng.choice(n, size=ell - 1, replace=False)], [[0.05, 0.05]]])  # one landmark off the grid
        dm = distance_matrix(W, L)
        full = edge_births_rows(dm)
        finite = full.births[np.isfinite(full.births)]
        # the largest birth leaves every pair within the cap: capped blocks of 9 or 40 landmarks are too dense for pairs
        cap = None if cap_kind is None else float(finite.max(initial=0.0))
        got = edge_births(dm, cap=cap)
        want = edge_births_rows(dm, cap=cap)
        assert got.max_value == want.max_value
        assert np.array_equal(got.vertex_birth, want.vertex_birth)
        assert np.array_equal(got.births, want.births)
        assert np.array_equal(got.witness, want.witness)

    @pytest.mark.parametrize("cap", [None, 4.0])
    @pytest.mark.parametrize("pos", [63, 127])
    def test_tie_across_run_boundary_keeps_lowest_witness(self, pos, cap):
        # witnesses at 0.0625 and 0.9375 put the lows of landmarks 0 and 1 at 0
        # in every run, so each run folds edge {0, 1}; 0.375 gives it birth 0.25
        # at pos, the last witness of one run, and again at pos + 1, the first
        # of the next.  Cap 4 leaves every pair within it: a block too dense for pairs
        W = np.tile([[0.0625], [0.9375]], (100, 1))
        W[pos] = W[pos + 1] = 0.375
        ef = edge_births(distance_matrix(W, np.array([[0.0], [1.0], [2.0]])), cap=cap)
        assert ef.births[0, 1] == 0.25
        assert ef.witness[0, 1] == ef.witness[1, 0] == pos

    def test_run_that_cannot_improve_folds_nothing(self, monkeypatch):
        # 128 copies of one witness: each pair's running birth after the first
        # run equals the second run's bound, so only the first run is folded
        rng = np.random.default_rng(8)
        W = np.repeat(rng.uniform(-1.0, 1.0, size=(1, 2)), 128, axis=0)
        dm = distance_matrix(W, rng.uniform(-1.0, 1.0, size=(5, 2)))
        counter = _FoldCounter()
        monkeypatch.setattr(witness_module, "np", counter)
        got = edge_births(dm)
        monkeypatch.undo()
        assert counter.rows == 10  # the 10 landmark pairs, once
        want = edge_births_rows(dm)
        assert np.array_equal(got.births, want.births)
        assert np.array_equal(got.witness, want.witness)

    @pytest.mark.parametrize("n", [20_000, 80_000])
    def test_uncapped_peak_memory_is_independent_of_witness_count(self, n):
        # a noisy helix in time order, 200 landmarks; the fold holds about four
        # ell x block buffers (a block's excesses, the pair indices with the
        # running births, one chunk's temporaries), an n x ell temporary 39 or more
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 20.0 * np.pi, n)
        W = np.column_stack([np.cos(t), np.sin(t), 0.05 * t]) + 0.01 * rng.standard_normal((n, 3))
        dm = distance_matrix(W, W[:: n // 200])
        ell = dm.entries.shape[1]
        tracemalloc.start()
        try:
            edge_births(dm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * ell * DEFAULT_BLOCK * 8


def triangle_filtration():
    vb = np.zeros(3)
    births = np.array([[np.inf, 1.0, 3.0], [1.0, np.inf, 2.0], [3.0, 2.0, np.inf]])
    return EdgeFiltration(vb, births)


class TestFlagExpand:
    def test_triangle_values_and_order(self):
        ff = flag_expand(triangle_filtration(), dim_cap=2)
        assert ff.simplices == [
            ((0,), 0.0),
            ((1,), 0.0),
            ((2,), 0.0),
            ((0, 1), 1.0),
            ((1, 2), 2.0),
            ((0, 2), 3.0),
            ((0, 1, 2), 3.0),
        ]

    def test_canonical_sort_value_dim_lex(self):
        rng = np.random.default_rng(7)
        ef = random_edge_filtration(rng)
        ff = flag_expand(ef, dim_cap=3)
        keys = [(v, len(s), s) for s, v in ff.simplices]
        assert keys == sorted(keys)

    def test_faces_precede_cofaces_with_smaller_or_equal_value(self):
        rng = np.random.default_rng(8)
        ef = random_edge_filtration(rng)
        ff = flag_expand(ef, dim_cap=3)
        value_of = {s: v for s, v in ff.simplices}
        for s, v in ff.simplices:
            for f in itertools.combinations(s, len(s) - 1):
                if f:
                    assert value_of[f] <= v

    def test_clique_value_is_max_edge_birth(self):
        rng = np.random.default_rng(9)
        ef = random_edge_filtration(rng)
        ff = flag_expand(ef, dim_cap=3)
        for s, v in ff.simplices:
            if len(s) >= 2:
                expected = max(ef.births[a, b] for a, b in itertools.combinations(s, 2))
                assert v == expected

    def test_cap_equals_truncated_uncapped(self):
        rng = np.random.default_rng(10)
        ef = random_edge_filtration(rng)
        full = flag_expand(ef, dim_cap=3)
        cap = float(np.median([v for _, v in full.simplices]))
        capped = flag_expand(ef, dim_cap=3, max_value=cap)
        assert capped.simplices == [(s, v) for s, v in full.simplices if v <= cap]
        assert capped.max_value == cap

    def test_truncated_edge_filtration_expands_like_uncapped(self):
        rng = np.random.default_rng(14)
        W = rng.uniform(-1.0, 1.0, size=(60, 2))
        dm = distance_matrix(W, W[::6])
        full = edge_births(dm)
        cap = float(np.median(full.births[np.isfinite(full.births)]))
        truncated = edge_births(dm, cap=cap)
        for value in (cap, cap / 2, 0.0):
            got = flag_expand(truncated, dim_cap=2, max_value=value)
            assert got.simplices == flag_expand(full, dim_cap=2, max_value=value).simplices

    @pytest.mark.parametrize("max_value", [None, 1.5])
    def test_truncated_edge_filtration_needs_cap_within_its_own(self, max_value):
        ef = truncate_births(edge_births(distance_matrix(np.eye(3), np.eye(3))), 1.0)
        with pytest.raises(ValueError, match="truncated"):
            flag_expand(ef, dim_cap=2, max_value=max_value)

    def test_counts_by_dim_complete_graph(self):
        n = 5
        births = np.full((n, n), 1.0)
        np.fill_diagonal(births, np.inf)
        ff = flag_expand(EdgeFiltration(np.zeros(n), births), dim_cap=3)
        assert ff.counts_by_dim() == {0: 5, 1: 10, 2: 10, 3: 5}
        assert len(ff) == 30

    def test_dim_cap_one_keeps_graph_only(self):
        ff = flag_expand(triangle_filtration(), dim_cap=1)
        assert all(len(s) <= 2 for s, _ in ff.simplices)

    def test_dim_cap_validation(self):
        with pytest.raises(ValueError):
            flag_expand(triangle_filtration(), dim_cap=0)

    def test_simplex_budget(self):
        n = 8
        births = np.full((n, n), 1.0)
        np.fill_diagonal(births, np.inf)
        ef = EdgeFiltration(np.zeros(n), births)
        with pytest.raises(ResourceLimitError):
            flag_expand(ef, dim_cap=3, max_simplices=20)

    def test_budget_message_mentions_limit(self):
        n = 6
        births = np.full((n, n), 1.0)
        np.fill_diagonal(births, np.inf)
        with pytest.raises(ResourceLimitError, match="budget"):
            flag_expand(EdgeFiltration(np.zeros(n), births), dim_cap=2, max_simplices=25)


class TestComplexAt:
    def test_matches_brute_force_cliques_at_critical_values(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ef = random_edge_filtration(rng, n_max=9)
            ff = flag_expand(ef, dim_cap=3)
            criticals = sorted({v for _, v in ff.simplices})
            for eps in criticals:
                got = sorted(s for s, _ in complex_at(ff, eps))
                expected = sorted(complex_below(ef, eps, dim_cap=3))
                assert got == expected

    def test_inclusive_at_exact_value(self):
        ff = flag_expand(triangle_filtration(), dim_cap=2)
        sims = [s for s, _ in complex_at(ff, 2.0)]
        assert (1, 2) in sims
        assert (0, 2) not in sims

    def test_cap_boundary_inclusive(self):
        ff = flag_expand(triangle_filtration(), dim_cap=2, max_value=2.0)
        sims = [s for s, _ in complex_at(ff, 2.0)]
        assert (1, 2) in sims

    def test_above_cap_rejected(self):
        ff = flag_expand(triangle_filtration(), dim_cap=2, max_value=2.0)
        with pytest.raises(ValueError):
            complex_at(ff, 2.5)

    def test_below_everything_is_vertices_only(self):
        ff = flag_expand(triangle_filtration(), dim_cap=2)
        assert [s for s, _ in complex_at(ff, 0.0)] == [(0,), (1,), (2,)]


class TestSkeletonExport:
    def test_edge_csv(self, tmp_path):
        ff = flag_expand(triangle_filtration(), dim_cap=2)
        edges_path = tmp_path / "edges.csv"
        wrote = skeleton_export(ff, 2.0, edges_path)
        assert wrote == 2
        lines = edges_path.read_text().splitlines()
        assert lines[0] == "i,j,birth"
        assert lines[1] == "0,1,1.0"
        assert lines[2] == "1,2,2.0"
        assert len(lines) == 3

    def test_header_only_when_no_edges(self, tmp_path):
        ff = flag_expand(triangle_filtration(), dim_cap=2)
        edges_path = tmp_path / "edges.csv"
        assert skeleton_export(ff, 0.5, edges_path) == 0
        assert edges_path.read_text() == "i,j,birth\n"


class TestFiltrationFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        ff = flag_expand(random_edge_filtration(rng), dim_cap=3)
        path = tmp_path / "filtration.json"
        save_filtration(ff, path)
        back = load_filtration(path)
        assert back.simplices == ff.simplices
        assert back.dim_cap == ff.dim_cap

    def test_file_is_valid_json(self, tmp_path):
        ff = flag_expand(triangle_filtration(), dim_cap=2)
        path = tmp_path / "f.json"
        save_filtration(ff, path)
        raw = json.loads(path.read_text())
        assert raw[0] == {"vertices": [0], "value": 0.0}
        assert raw[-1] == {"vertices": [0, 1, 2], "value": 3.0}

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"vertices": [0], "value": 0.0}')
        with pytest.raises(ValueError):
            load_filtration(path)

    def test_truncated_file_is_located(self, tmp_path):
        ff = flag_expand(triangle_filtration(), dim_cap=2)
        path = tmp_path / "f.json"
        save_filtration(ff, path)
        text = path.read_text()
        cut = text.index('"value"', text.index("[0, 1]"))  # mid-entry, inside a key
        path.write_text(text[: cut + 3])
        with pytest.raises(SeriesFormatError, match="Unterminated string") as exc:
            load_filtration(path)
        assert exc.value.path == str(path)
        assert exc.value.line_no == text[:cut].count("\n") + 1

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_filtration(path)

    def test_dim_cap_inferred_from_content(self, tmp_path):
        ff = flag_expand(triangle_filtration(), dim_cap=1)
        path = tmp_path / "f.json"
        save_filtration(ff, path)
        assert load_filtration(path).dim_cap == 1


class TestFlagFiltrationDataclass:
    def test_len_and_values_cache(self):
        # no cached value array: complex_at bisects the simplex values themselves
        ff = FlagFiltration(simplices=[((0,), 0.0), ((1,), 0.5)], dim_cap=1)
        assert len(ff) == 2
        assert [complex_at(ff, eps) for eps in (-1.0, 0.0, 0.4, 0.5)] == [
            [], [((0,), 0.0)], [((0,), 0.0)], ff.simplices
        ]

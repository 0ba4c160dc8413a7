"""Distance matrices, fuzzy edge births, and flag-filtration expansion."""

import inspect
import itertools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cdist,
    complex_at,
    complex_below,
    edge_births_rows,
    edge_list,
    flag_expand_tuples,
    flag_filtration,
    random_edge_filtration,
    tied_edge_filtration,
    traced_peak,
    truncate_births,
)
from topo_recon.embed import ami_curve, bbox_diameter, delay_embed, first_minimum
from topo_recon import witness as witness_module
from topo_recon.landmarks import select_evenly_spaced
from topo_recon.signal import (
    ScalarSeries,
    SeriesFormatError,
    Trajectory,
    add_uniform_noise,
    integrate_lorenz,
    observe,
)
from topo_recon.witness import (
    EdgeFiltration,
    ResourceLimitError,
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
        assert np.array_equal(dm.entries.min(axis=1), cdist(W, L).min(axis=1))

    def test_landmark_subset_has_zero_nearest(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((20, 2))
        nearest = distance_matrix(W, W[::5]).entries.min(axis=1)
        assert np.array_equal(nearest, cdist(W, W[::5]).min(axis=1))
        assert (nearest[::5] == 0.0).all()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            distance_matrix(np.zeros((3, 2)), np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_matrix(np.zeros((0, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(6,), (3, 2, 2)])
    def test_points_must_be_2d_arrays(self, shape):
        with pytest.raises(ValueError, match="2-d arrays of points"):
            distance_matrix(np.zeros(shape), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="2-d arrays of points"):
            distance_matrix(np.zeros((3, 2)), np.zeros(shape))

    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(0, 64),
        gridded=st.booleans(),
        duplicated=st.booleans(),
        subset=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_cdist(self, seed, dim, gridded, duplicated, subset):
        rng = np.random.default_rng(seed)
        n, ell = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        # each coordinate at its own magnitude, 1e-3..1e3
        W = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
        if gridded:
            W = np.round(W, int(rng.integers(0, 3)))
        if duplicated:
            W[rng.integers(0, n, size=n // 2)] = W[0]
        if subset:
            L = W[rng.choice(n, size=min(ell, n), replace=False)]
        else:
            L = rng.standard_normal((ell, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
        dm, ref = distance_matrix(W, L), cdist(W, L)
        assert np.array_equal(dm.entries, ref)
        assert np.array_equal(dm.entries.min(axis=1), ref.min(axis=1))

    def test_zero_coordinates_give_cdist_zeros(self):
        dm = distance_matrix(np.zeros((4, 0)), np.zeros((3, 0)))
        assert np.array_equal(dm.entries, cdist(np.zeros((4, 0)), np.zeros((3, 0))))
        assert np.array_equal(dm.entries, np.zeros((4, 3)))
        assert np.array_equal(dm.entries.min(axis=1), cdist(np.zeros((4, 0)), np.zeros((3, 0))).min(axis=1))

    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(0, 64),
        gridded=st.booleans(),
        duplicated=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_bitwise_equal_to_cdist_block(self, seed, dim, gridded, duplicated, data):
        rng = np.random.default_rng(seed)
        n, ell = int(rng.integers(1, 80)), int(rng.integers(1, 12))
        # each coordinate at its own magnitude, 1e-3..1e3; half the landmarks on the cloud
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
        W = rng.standard_normal((n, dim)) * scale
        if gridded:
            W = np.round(W, int(rng.integers(0, 3)))
        if duplicated:
            W[rng.integers(0, n, size=n // 2)] = W[0]
        L = np.vstack([W[rng.integers(0, n, size=ell // 2)], rng.standard_normal((ell - ell // 2, dim)) * scale])
        s = data.draw(st.integers(0, n - 1), label="s")
        e = data.draw(st.integers(s + 1, n), label="e")
        dm, want = distance_matrix(W, L), cdist(W, L)[s:e].T
        assert np.array_equal(dm.rows(s, e), want)
        # into the prefixes of two larger flat buffers holding stale values, as edge_births passes them
        buffers = np.full(ell * n, np.nan), np.full(ell * n, -1.0)
        assert np.array_equal(dm.rows(s, e, *(b[: ell * (e - s)].reshape(ell, e - s) for b in buffers)), want)

    @pytest.mark.parametrize("dim", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1300])
    def test_blocks_with_reused_buffers_tile_cdist(self, n, dim):
        # every block of DEFAULT_BLOCK witnesses, the last partial one included, written into the same two
        # buffers in turn: the blocks side by side are cdist's transpose, with nothing left from a block before
        rng = np.random.default_rng(n + dim)
        W, L = rng.standard_normal((n, dim)), rng.standard_normal((7, dim))
        dm, size = distance_matrix(W, L), 7 * min(DEFAULT_BLOCK, n)
        buffers = rng.standard_normal(size), rng.standard_normal(size)
        blocks = []
        for s in range(0, n, DEFAULT_BLOCK):
            e = min(s + DEFAULT_BLOCK, n)
            blocks.append(dm.rows(s, e, *(b[: 7 * (e - s)].reshape(7, e - s) for b in buffers)).copy())
        assert np.array_equal(np.hstack(blocks), cdist(W, L).T)

    def test_keeps_coordinate_major_witnesses_not_distances(self):
        W = np.arange(12.0).reshape(4, 3)
        dm = distance_matrix(W, W[:2])
        assert dm.shape == (4, 2)
        assert np.array_equal(dm.coords, W.T) and dm.coords.flags.c_contiguous
        assert np.array_equal(dm.landmarks, W[:2])

    def test_entries_view_landmark_rows(self):
        # entries is the transpose of the landmark-major rows
        rng = np.random.default_rng(3)
        dm = distance_matrix(rng.standard_normal((50, 3)), rng.standard_normal((6, 3)))
        assert dm.entries.T.flags.c_contiguous


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
        full = edge_births_rows(W, L)
        finite = full.births[np.isfinite(full.births)]
        attained = float(np.sort(finite)[finite.size // 2])
        cap = {None: None, "zero": 0.0, "attained": attained, "inf": np.inf}[cap_kind]
        got = edge_births(distance_matrix(W, L), block=block, cap=cap)
        want = edge_births_rows(W, L, cap=cap)
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

    @given(
        seed=st.integers(0, 10_000),
        block_kind=st.sampled_from(["1", "7", "n-1", "n", "n+1"]),
        cap_kind=st.sampled_from([None, "zero", "attained", "inf"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_blocks_match_cdist_row_kernel(self, seed, block_kind, cap_kind):
        # referee: the landmark-row kernel over cdist's distances, never the kernel under test
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 60)), int(rng.integers(1, 4))
        W = np.round(rng.uniform(-1.0, 1.0, size=(n, dim)), int(rng.integers(1, 3)))  # ties on a grid
        W[rng.integers(0, n, size=n // 4)] = W[-1]  # repeated witnesses
        L = np.vstack([W[:: int(rng.integers(2, 6))], rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, 3)), dim))])
        block = {"1": 1, "7": 7, "n-1": n - 1, "n": n, "n+1": n + 1}[block_kind]
        full = edge_births_rows(W, L)
        finite = full.births[np.isfinite(full.births)]
        attained = float(rng.choice(finite)) if finite.size else 0.0
        cap = {None: None, "zero": 0.0, "attained": attained, "inf": np.inf}[cap_kind]
        got = edge_births(distance_matrix(W, L), block=block, cap=cap)
        want = edge_births_rows(W, L, cap=cap)
        assert got.max_value == want.max_value
        assert np.array_equal(got.vertex_birth, want.vertex_birth)
        assert np.array_equal(got.births, want.births)
        assert np.array_equal(got.witness, want.witness)

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
        assert ef.vertex_birth.size == 1
        assert edge_list(ef) == []

    def test_edge_list_filter_and_order(self):
        vb = np.zeros(3)
        births = np.array([[np.inf, 0.5, 2.0], [0.5, np.inf, np.inf], [2.0, np.inf, np.inf]])
        ef = EdgeFiltration(vb, births)
        assert edge_list(ef) == [(0, 1, 0.5), (0, 2, 2.0)]
        assert edge_list(ef, max_value=1.0) == [(0, 1, 0.5)]

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_births_dominate_vertex_births(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.uniform(-1.0, 1.0, size=(20, 2))
        L = W[:: int(rng.integers(2, 5))]
        ef = edge_births(distance_matrix(W, L))
        for i, j, b in edge_list(ef):
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
    """Forwards to numpy, counting the rows of every 2-d maximum (the (pair, run) terms the uncapped fold
    takes) and keeping the pair keys of every ``lexsort`` (the pairs a capped fold merges)."""

    def __init__(self):
        self.rows = 0
        self.keys = []

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args, **kwargs):
        out = np.maximum(*args, **kwargs)
        self.rows += out.shape[0] if out.ndim == 2 else 0
        return out

    def lexsort(self, keys, *args, **kwargs):
        self.keys += keys[-1].tolist()
        return np.lexsort(keys, *args, **kwargs)


class TestBoundedRowFold:
    """The fold skips the pairs a run of 64 witnesses cannot improve; referee: the landmark-row kernel."""

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
        full = edge_births_rows(W, L)
        finite = full.births[np.isfinite(full.births)]
        # the largest birth as the cap: a run whose witnesses come within it of every landmark takes every pair,
        # and any other run lists the pairs its witnesses hold within the cap
        cap = None if cap_kind is None else float(finite.max(initial=0.0))
        got = edge_births(distance_matrix(W, L), cap=cap)
        want = edge_births_rows(W, L, cap=cap)
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
        # of the next.  Cap 4 leaves every landmark within it in every run, so each run takes every pair
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
        L = rng.uniform(-1.0, 1.0, size=(5, 2))
        dm = distance_matrix(W, L)
        counter = _FoldCounter()
        monkeypatch.setattr(witness_module, "np", counter)
        got = edge_births(dm)
        monkeypatch.undo()
        assert counter.rows == 10  # the 10 landmark pairs, once
        want = edge_births_rows(W, L)
        assert np.array_equal(got.births, want.births)
        assert np.array_equal(got.witness, want.witness)

    def test_capped_run_folds_only_the_pairs_its_witnesses_hold(self, monkeypatch):
        # 64 witnesses alternating between two clusters of three landmarks, and a far landmark: every
        # clustered landmark is held within the cap in every sub-run, but no witness holds a cross-cluster
        # pair, so the merge sees only the 6 within-cluster pairs, whichever fold the chunk takes (the
        # switch as it is, and forced to either fold); the listing lists each witness's 3 pairs.
        # Uncapped, the run fold takes all 21 pairs
        W = np.tile([[0.1], [10.1]], (32, 1))
        L = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2], [100.0]])
        dm = distance_matrix(W, L)
        within = {i * 7 + j for c in (0, 3) for i, j in itertools.combinations(range(c, c + 3), 2)}
        for switch in ["default", "listing", "runs"]:
            if switch != "default":
                monkeypatch.setattr(witness_module, "_RUN_PAIRS", 1e300 if switch == "listing" else 0)
            counter = _FoldCounter()
            monkeypatch.setattr(witness_module, "np", counter)
            got = edge_births(dm, cap=1.0)
            monkeypatch.undo()
            assert set(counter.keys) == within
            if switch == "listing":
                assert (got.listed, got.run_chunks) == (64 * 3, 0)
            if switch == "runs":
                assert got.listed == 0 and got.run_chunks > 0
            assert_births_equal(got, edge_births_rows(W, L, cap=1.0))
        counter = _FoldCounter()
        monkeypatch.setattr(witness_module, "np", counter)
        got = edge_births(dm)
        monkeypatch.undo()
        assert counter.rows == 21 and not counter.keys
        assert_births_equal(got, edge_births_rows(W, L))

    @pytest.mark.parametrize("n", [20_000, 80_000])
    def test_uncapped_peak_memory_is_independent_of_witness_count(self, n):
        # a noisy helix in time order, 200 landmarks; births hold about five
        # ell x block buffers (a block's distances and their scratch, the pair
        # indices with the running births, one chunk's temporaries), an n x ell
        # temporary 39 or more
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

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("n", [20_000, 80_000])
    def test_capped_peak_memory_is_independent_of_witness_count(self, n, shuffled):
        # the same helix under a small cap: in time order the chunks fold by sub-runs, in random order
        # they list each witness's pairs; the entries and pairs are bounded per chunk, so the peak is
        # the uncapped one's bound at either count
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 20.0 * np.pi, n)
        W = np.column_stack([np.cos(t), np.sin(t), 0.05 * t]) + 0.01 * rng.standard_normal((n, 3))
        L = W[:: n // 200]
        if shuffled:
            W = W[rng.permutation(n)]
        dm = distance_matrix(W, L)
        tracemalloc.start()
        try:
            ef = edge_births(dm, cap=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(ef.births).any() and (ef.listed > 0) == shuffled
        assert peak < 6 * len(L) * DEFAULT_BLOCK * 8

    @pytest.mark.parametrize("cap", [None, 5.0])
    def test_million_witnesses_peak_is_set_by_landmarks_and_block(self, cap):
        # a 3-d random walk of 10^6 witnesses and 32 landmarks: an N x ell array would be 256 MB
        rng = np.random.default_rng(0)
        W = np.cumsum(rng.standard_normal((1_000_000, 3)), axis=0)
        ell = 32
        dm = distance_matrix(W, W[:: W.shape[0] // ell][:ell])
        tracemalloc.start()
        try:
            ef = edge_births(dm, cap=cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(ef.births).any()
        # two distance buffers (ell x block); the running births and witnesses, the pair keys,
        # a run's pair counts and one chunk's temporaries (ell^2)
        assert peak < 8 * (4 * ell * DEFAULT_BLOCK + 3 * 64 * ell * ell)


SUB = witness_module._SUB  # witnesses per sub-run of the capped births' bound


def pruned_cloud(kind, seed):
    """Witnesses and landmarks on which the sub-run bound of capped births is tested.

    Walks in time order keep each sub-run in a small ball, so a cap prunes most
    landmarks; "shuffled" puts the same walk in random order, where every
    sub-run reaches every landmark and each block takes the dense rows.
    """
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0.0, 0.05, size=(1_500, 3)), axis=0)
    W = {
        "gridded": np.round(walk, 1)[np.repeat(np.arange(0, 1_500, 2), 2)],  # ties, and each point twice in a row
        "identical_runs": np.repeat(walk[::SUB], SUB, axis=0),  # every sub-run one point: radius 0
        "m1": np.cumsum(rng.normal(0.02, 0.05, size=(1_500, 1)), axis=0),  # drifts, so it seldom comes back
        "shuffled": walk[rng.permutation(1_500)],
        "short": walk[: SUB // 2 + 1],
    }.get(kind, walk)
    if kind == "short":  # far landmarks keep the one sub-run pruned
        return W, np.vstack([W[::2], walk[100::100]])
    return W, W[700:701] if kind == "single_landmark" else W[::40]


def attained_caps(ef, count, rng):
    """Zero, then ``count`` of the lowest tenth of ``ef``'s births and vertex births, each with the floats beside it."""
    values = np.unique(np.concatenate([ef.births[np.isfinite(ef.births)], ef.vertex_birth]))
    low = values[: max(count, values.size // 10)]
    caps = [0.0]
    for v in rng.choice(low, size=min(count, low.size), replace=False).tolist():
        caps += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return [c for c in caps if c >= 0]


def assert_births_equal(got, want):
    assert got.max_value == want.max_value
    assert np.array_equal(got.vertex_birth, want.vertex_birth)
    assert np.array_equal(got.births, want.births)
    assert np.array_equal(got.witness, want.witness)


class TestPrunedBirths:
    """Capped births compute only the distances a sub-run's bound keeps; referee: the landmark-row kernel."""

    @pytest.mark.parametrize("block", [7, 100, DEFAULT_BLOCK])
    @pytest.mark.parametrize(
        "kind", ["walk", "gridded", "identical_runs", "m1", "shuffled", "short", "single_landmark"]
    )
    def test_bitwise_equal_to_row_kernel_at_attained_caps(self, kind, block):
        # caps at exact birth values and one float either side of them, where a one-ulp error in the bound
        # or in a pruned distance would add or drop an edge
        rng = np.random.default_rng(sum(map(ord, kind)) + block)
        W, L = pruned_cloud(kind, seed=block)
        dm = distance_matrix(W, L)
        for cap in attained_caps(edge_births_rows(W, L), 4, rng):
            assert_births_equal(edge_births(dm, block=block, cap=cap), edge_births_rows(W, L, cap=cap))

    @pytest.mark.parametrize("kind, pruned", [("walk", True), ("m1", True), ("shuffled", False)])
    def test_distances_computed_show_the_path_taken(self, kind, pruned):
        # on the walk a small cap leaves each sub-run a few landmarks; in random order every block takes the
        # dense rows, and the count adds the sub-run centres' rows to the witnesses x landmarks
        W, L = pruned_cloud(kind, seed=0)
        ef = edge_births(distance_matrix(W, L), cap=0.05)
        n, ell = len(W), len(L)
        if pruned:
            assert ef.distances < n * ell / 2
        else:
            assert ef.distances == ell * (n + sum(-(-min(DEFAULT_BLOCK, n - s) // SUB)
                                               for s in range(0, n, DEFAULT_BLOCK)))
        assert edge_births(distance_matrix(W, L)).distances == n * ell
        assert_births_equal(ef, edge_births_rows(W, L, cap=0.05))

    @pytest.mark.parametrize("spread", [0.25, 0.0])
    def test_landmark_exactly_on_the_bound_is_kept(self, spread):
        # each sub-run's centre sits on landmark 0 at 0.0 and its farthest witness at spread, so landmark 1 at
        # 1 + 2 * spread has bound 1 + 2 * spread - 0 - 2 * spread = 1.0, exactly the cap; the witness at spread
        # attains it (excess (1 + spread) - spread).  Thirty far landmarks keep the block on the pruned path
        W = np.zeros((4 * SUB, 1))
        W[::SUB] = spread
        L = np.concatenate([[[0.0], [1.0 + 2.0 * spread]], 100.0 + np.arange(30.0)[:, None]])
        dm = distance_matrix(W, L)
        for cap, birth in [(1.0, 1.0), (math.nextafter(1.0, 0.0), np.inf), (math.nextafter(1.0, 2.0), 1.0)]:
            ef = edge_births(dm, cap=cap)
            assert ef.distances < len(W) * len(L) / 2
            assert ef.vertex_birth[1] == ef.births[0, 1] == birth
            assert ef.witness[0, 1] == (0 if birth == 1.0 else -1)
            assert_births_equal(ef, edge_births_rows(W, L, cap=cap))


SWITCHES = {"default": None, "listing": 1e300, "runs": 0}  # the switch as it is, and forced to either fold


def held_cloud(kind, seed):
    """A 3-d walk of 2,000 witnesses with every 50th a landmark, in time order or shuffled, and caps either
    side of the listing/run-fold switch: in time order a sub-run's witnesses hold the same few landmarks
    (runs pay), in random order each witness holds its own (the listing pays)."""
    rng = np.random.default_rng(seed)
    W = np.cumsum(rng.normal(0.0, 0.05, size=(2_000, 3)), axis=0)
    L = W[::50]
    if kind == "shuffled":
        W = W[rng.permutation(len(W))]
    elif kind == "gridded":  # ties, and each point twice in a row
        W = np.round(W, 1)[np.repeat(np.arange(0, 2_000, 2), 2)]
    return W, L


class TestHeldPairs:
    """Capped births list each witness's held pairs, or fold a chunk's by sub-runs; referee: the landmark-row kernel."""

    @pytest.mark.parametrize("switch", list(SWITCHES))
    @pytest.mark.parametrize("kind", ["walk", "shuffled", "gridded"])
    @pytest.mark.parametrize("block", [1, 3, 7, 100, "n-1", "n", "n+1", DEFAULT_BLOCK])
    def test_bitwise_equal_to_row_kernel(self, monkeypatch, block, kind, switch):
        W, L = held_cloud(kind, seed=7)
        block = {"n-1": len(W) - 1, "n": len(W), "n+1": len(W) + 1}.get(block, block)
        if SWITCHES[switch] is not None:
            monkeypatch.setattr(witness_module, "_RUN_PAIRS", SWITCHES[switch])
        dm = distance_matrix(W, L)
        for cap in [0.0, 0.05, 0.3, 1.0]:
            got = edge_births(dm, block=block, cap=cap)
            assert_births_equal(got, edge_births_rows(W, L, cap=cap))
            if switch == "listing":
                assert got.run_chunks == 0
            if switch == "runs":
                assert got.listed == 0

    def test_the_switch_takes_each_fold(self):
        # on the walk in time order the chunks fold by sub-runs; shuffled, every chunk lists its witnesses'
        # pairs, and the pairs listed are the pairs the witnesses hold, whatever their order
        W, L = held_cloud("walk", seed=7)
        ordered = edge_births(distance_matrix(W, L), cap=0.3)
        assert ordered.run_chunks > 0 and ordered.listed == 0
        perm = np.random.default_rng(1).permutation(len(W))
        shuffled = edge_births(distance_matrix(W[perm], L), cap=0.3)
        assert shuffled.run_chunks == 0
        dist = cdist(W, L)
        held = np.count_nonzero(dist - dist.min(axis=1)[:, None] <= 0.3, axis=1)
        assert shuffled.listed == int((held * (held - 1) // 2).sum()) > 0
        assert np.array_equal(shuffled.births, ordered.births)
        assert np.array_equal(shuffled.vertex_birth, ordered.vertex_birth)

    @pytest.mark.parametrize("switch", list(SWITCHES))
    @pytest.mark.parametrize("block, pos", [(DEFAULT_BLOCK, 512), (DEFAULT_BLOCK, 4_096), (DEFAULT_BLOCK, 4_608),
                                            (16, 16), (16, 256), (7, 240)])
    def test_tie_across_chunks_and_spans_keeps_lowest_witness(self, monkeypatch, block, pos, switch):
        # witnesses at 0.9 except pos - 1 and pos at 0.5, where edge {0, 1} is born at 0; pos is the first
        # witness of a chunk (512 witnesses of two landmarks fill a default buffer) or of a span (4,096
        # witnesses; 256 at block 16), so the earlier chunk or span must keep the tie
        if SWITCHES[switch] is not None:
            monkeypatch.setattr(witness_module, "_RUN_PAIRS", SWITCHES[switch])
        W = np.full((pos + 2 * DEFAULT_BLOCK + 5, 1), 0.9)
        W[pos - 1] = W[pos] = 0.5
        L = np.array([[0.0], [1.0]])
        for cap in [0.0, 0.5]:
            ef = edge_births(distance_matrix(W, L), block=block, cap=cap)
            assert ef.births[0, 1] == 0.0 and ef.witness[0, 1] == ef.witness[1, 0] == pos - 1
            assert_births_equal(ef, edge_births_rows(W, L, cap=cap))

    @pytest.mark.parametrize("switch", list(SWITCHES))
    @pytest.mark.parametrize("n", [SUB * 3 + 1, SUB * 3 + 5, SUB * 3 + 15, SUB * 300 + 7])
    def test_padded_witness_never_wins_a_tie(self, monkeypatch, n, switch):
        # the last witness alone gives edge {0, 1} its birth, and the last sub-run is padded with copies of it;
        # it is the one witness holding a pair, and the listing lists no padding
        if SWITCHES[switch] is not None:
            monkeypatch.setattr(witness_module, "_RUN_PAIRS", SWITCHES[switch])
        W = np.full((n, 1), 0.9)
        W[-1] = 0.375
        L = np.array([[0.0], [1.0], [5.0]])
        for block in [7, DEFAULT_BLOCK]:
            ef = edge_births(distance_matrix(W, L), block=block, cap=0.5)
            assert ef.births[0, 1] == 0.25 and ef.witness[0, 1] == n - 1
            assert ef.listed <= 1 and (switch == "default" or ef.listed == (switch == "listing"))
            assert_births_equal(ef, edge_births_rows(W, L, cap=0.5))

    @pytest.mark.parametrize("switch", list(SWITCHES))
    def test_chunk_where_no_witness_holds_two_landmarks(self, monkeypatch, switch):
        # the first 600 witnesses sit on the landmarks, each holding only its own within the cap; the
        # next chunk's midpoints between landmarks 0 and 1 hold both
        if SWITCHES[switch] is not None:
            monkeypatch.setattr(witness_module, "_RUN_PAIRS", SWITCHES[switch])
        L = np.arange(10.0)[:, None]
        W = np.vstack([L[np.arange(600) % 10], np.full((100, 1), 0.5)])
        alone = edge_births(distance_matrix(W[:600], L), cap=0.1)
        assert alone.listed == 0 and np.isinf(alone.births).all() and (alone.vertex_birth == 0.0).all()
        ef = edge_births(distance_matrix(W, L), cap=0.1)
        assert ef.births[0, 1] == 0.0 and ef.witness[0, 1] == 600
        assert_births_equal(ef, edge_births_rows(W, L, cap=0.1))


@pytest.fixture(scope="module")
def pinned_x():
    """4,001 samples of x from the pinned (5, 5, 5) trajectory, the acceptance battery's start."""
    return observe(integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=4_001, transient_steps=10_000), "x")


def pinned_births_inputs(x: ScalarSeries, cap_kind):
    """The 2-d delay cloud (tau 170) with landmarks every 100 samples, and a cap.

    A run takes every pair once its cap reaches max_j low[j], the run's threshold.  The
    "mixed" cap, the median threshold, splits the runs of some block between listed and
    full pairs; the "listed" cap, below every threshold, lists pairs in every run.
    """
    cloud = delay_embed(x, 2, 170)
    W, L = cloud.points, select_evenly_spaced(cloud, every=100).coords
    dist = cdist(W, L)
    excess = dist - dist.min(axis=1)[:, None]
    blocks = [excess[s : s + DEFAULT_BLOCK] for s in range(0, len(W), DEFAULT_BLOCK)]
    thresholds = [[b[r : r + 64].min(axis=0).max() for r in range(0, len(b), 64)] for b in blocks]
    flat = np.concatenate(thresholds)
    cap = {None: None, "listed": float(flat.min()) / 2, "mixed": float(np.median(flat))}[cap_kind]
    if cap_kind == "mixed":
        assert any(min(t) <= cap < max(t) for t in thresholds)
    return W, L, cap


class TestBirthsMetamorphic:
    """Transformations with a known effect on births, so the fold's tie rules need no referee."""

    @pytest.mark.parametrize("cap_kind", [None, "listed", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_permuting_landmarks_permutes_births(self, pinned_x, cap_kind, seed):
        W, L, cap = pinned_births_inputs(pinned_x, cap_kind)
        perm = np.random.default_rng(seed).permutation(len(L))
        base, moved = edge_births(distance_matrix(W, L), cap=cap), edge_births(distance_matrix(W, L[perm]), cap=cap)
        assert np.array_equal(moved.vertex_birth, base.vertex_birth[perm])
        assert np.array_equal(moved.births, base.births[np.ix_(perm, perm)])
        assert np.array_equal(moved.witness, base.witness[np.ix_(perm, perm)])

    @pytest.mark.parametrize("cap_kind", [None, "listed", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_appending_a_witness_copy_changes_nothing(self, pinned_x, cap_kind, seed):
        # copies of witnesses that record births: each copy is the highest witness, so it
        # ties its original on those pairs and must lose every tie
        W, L, cap = pinned_births_inputs(pinned_x, cap_kind)
        base = edge_births(distance_matrix(W, L), cap=cap)
        recorded = np.unique(base.witness[base.witness >= 0])
        copies = np.random.default_rng(seed).choice(recorded, size=3, replace=False)
        for k in copies:
            grown = edge_births(distance_matrix(np.vstack([W, W[k : k + 1]]), L), cap=cap)
            assert np.array_equal(grown.vertex_birth, base.vertex_birth)
            assert np.array_equal(grown.births, base.births)
            assert np.array_equal(grown.witness, base.witness)

    @pytest.mark.parametrize("cap_kind", [None, "listed", "mixed"])
    @pytest.mark.parametrize("k", [-3, 5])
    def test_scaling_by_a_power_of_two_scales_births_exactly(self, pinned_x, cap_kind, k):
        # every difference, square, sum and square root scales exactly by a power of two
        W, L, cap = pinned_births_inputs(pinned_x, cap_kind)
        scaled = ScalarSeries(pinned_x.values * 2.0**k, pinned_x.sample_interval)
        W2, L2, _ = pinned_births_inputs(scaled, None)
        assert np.array_equal(W2, W * 2.0**k) and np.array_equal(L2, L * 2.0**k)
        base = edge_births(distance_matrix(W, L), cap=cap)
        big = edge_births(distance_matrix(W2, L2), cap=None if cap is None else cap * 2.0**k)
        assert np.array_equal(big.vertex_birth, base.vertex_birth * 2.0**k)
        assert np.array_equal(big.births, base.births * 2.0**k)
        assert np.array_equal(big.witness, base.witness)


@pytest.fixture(scope="module")
def sweep8_series():
    """The m = 1..8 sweep benchmark's series: x of the pinned trajectory, every 4th of 100,001 steps, and its delay."""
    traj = integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=100_001, transient_steps=10_000)
    series = observe(Trajectory(np.ascontiguousarray(traj.points[::4]), traj.dt * 4), "x")
    return series, first_minimum(ami_curve(series, tau_max=400))


class TestNoiseStability:
    """Uniform noise of width nu moves every birth by at most 2 nu sqrt(m): an exact bound, no referee needed."""

    @pytest.mark.parametrize("nu", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("m", [2, 5])
    def test_births_move_at_most_twice_the_noise(self, sweep8_series, m, nu):
        # each sample moves by at most nu / 2, so each witness and landmark by at most nu sqrt(m) / 2, each
        # distance and each n(w) by at most nu sqrt(m), and each excess, hence each vertex and edge birth,
        # by at most 2 nu sqrt(m).  Both runs are capped at eps + bound, so a birth <= eps on either side is
        # finite on both.  Slack: 64 ulps of the largest distance, for the rounding of the four distances
        # behind the two births
        series, tau = sweep8_series
        runs = []
        for s in (series, add_uniform_noise(series, nu, seed=m)):
            cloud = delay_embed(s, m, tau, m_anchor=8)
            runs.append((cloud, select_evenly_spaced(cloud, every=125)))
        (clean, lms), (noisy, noisy_lms) = runs
        assert np.array_equal(lms.indices, noisy_lms.indices)
        eps, bound = 0.0054 * bbox_diameter(clean), 2.0 * nu * math.sqrt(m)
        slack = 64 * np.spacing(2.0 * max(bbox_diameter(clean), bbox_diameter(noisy)))
        a, b = (edge_births(distance_matrix(c.points, l.coords), cap=eps + bound + slack) for c, l in runs)
        for x, y in [(a.vertex_birth, b.vertex_birth), (a.births, b.births)]:
            near = np.minimum(x, y) <= eps
            assert near.any() and np.isfinite(x[near]).all() and np.isfinite(y[near]).all()
            assert np.abs(x[near] - y[near]).max() <= bound + slack
        if nu < 1.0:  # the cap leaves each sub-run a few landmarks
            assert max(a.distances, b.distances) < len(clean.points) * lms.ell / 2


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

    @pytest.mark.parametrize("cap", [0.5, None])
    def test_nan_max_value_rejected(self, cap):
        # NaN fails every comparison, so a guard must refuse it, not test max_value > cap: it would drop every edge
        W = np.random.default_rng(15).uniform(-1.0, 1.0, size=(60, 2))
        ef = edge_births(distance_matrix(W, W[::2]), cap=cap)
        with pytest.raises(ValueError, match="would drop edges" if cap else "max_value must be a number, got nan"):
            flag_expand(ef, dim_cap=2, max_value=math.nan)

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
        with pytest.raises(ResourceLimitError) as err:
            flag_expand(ef, dim_cap=3, max_simplices=20)
        # 8 vertices and 28 edges already exceed 20; each simplex takes dim_cap + 1 ids, a dim and a value
        assert str(err.value) == (
            "simplex count 36 through dimension 1 exceeds budget 20: its arrays would take 1728 bytes"
        )

    def test_budget_message_mentions_limit(self):
        n = 6
        births = np.full((n, n), 1.0)
        np.fill_diagonal(births, np.inf)
        with pytest.raises(ResourceLimitError, match="budget") as err:
            flag_expand(EdgeFiltration(np.zeros(n), births), dim_cap=2, max_simplices=25)
        total = 6 + 15 + 20
        assert f"simplex count {total} through dimension 2 exceeds budget 25" in str(err.value)
        assert f"its arrays would take {total * 5 * 8} bytes" in str(err.value)

    def test_default_budget_is_ten_million(self):
        assert inspect.signature(flag_expand).parameters["max_simplices"].default == 10**7

    @pytest.mark.parametrize("n, dim_cap", [(200, 2), (100, 3)])
    def test_budget_fires_before_the_top_dimension_is_allocated(self, n, dim_cap):
        # a complete graph: the top dimension alone holds C(n, dim_cap + 1) simplices
        births = np.full((n, n), 1.0)
        np.fill_diagonal(births, np.inf)
        ef = EdgeFiltration(np.zeros(n), births)
        below = sum(math.comb(n, d + 1) for d in range(dim_cap))
        top_bytes = math.comb(n, dim_cap + 1) * (dim_cap + 2) * 8  # its vertex rows and values
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"through dimension {dim_cap}") as err:
                flag_expand(ef, dim_cap=dim_cap, max_simplices=below + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < top_bytes / 8
        total = below + math.comb(n, dim_cap + 1)
        assert str(err.value).endswith(f"{total} through dimension {dim_cap} exceeds budget {below + 1}:"
                                       f" its arrays would take {total * (dim_cap + 3) * 8} bytes")

    def test_peak_is_near_the_filtration_arrays(self):
        # 90 random points in the plane, complete through triangles: 121,575 simplices.  The arrays
        # are made once at the total and sorted a column at a time, so the peak is the result plus
        # the sort order and a chunk's temporaries, not a second and third copy of the filtration
        rng = np.random.default_rng(0)
        P = rng.uniform(size=(90, 2))
        D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(axis=-1))
        np.fill_diagonal(D, np.inf)
        ef = EdgeFiltration(np.zeros(len(P)), D)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ff = flag_expand(ef, dim_cap=2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(ff) == 90 + math.comb(90, 2) + math.comb(90, 3)
        assert peak <= 2.5 * (ff.vertices.nbytes + ff.dims.nbytes + ff.values.nbytes)

    @given(data=st.data(), n=st.integers(1, 8), dim_cap=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_tuple_referee_bitwise(self, tmp_path_factory, data, n, dim_cap):
        # few distinct births, so ties are common; caps 0.0 and 0.25 lie below every edge.  The top
        # dimension is not listed, and every view of the whole list matches the listed referee
        ef, cap = tied_edge_filtration(data, n)
        ff = flag_expand(ef, dim_cap=dim_cap, max_value=cap)
        want = flag_expand_tuples(ef, dim_cap, cap)
        assert ff.simplices == want and len(ff) == len(want) and (ff.listed_dims < dim_cap).all()
        assert ff.values.tobytes() == np.array([v for _, v in want], dtype=np.float64).tobytes()
        assert ff.counts_by_dim() == {d: c for d, c in Counter(len(s) - 1 for s, _ in want).items()}
        ref, d = flag_filtration(want, dim_cap=dim_cap, max_value=cap), tmp_path_factory.mktemp("flag")
        for name, f in (("ff", ff), ("ref", ref)):
            save_filtration(f, d / f"{name}.json")
            skeleton_export(f, max((v for _, v in want), default=0.0), d / f"{name}.csv")
        assert (d / "ff.json").read_bytes() == (d / "ref.json").read_bytes()
        assert (d / "ff.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @pytest.mark.parametrize("dim_cap", [1, 2, 3])
    def test_no_array_has_a_row_per_top_simplex(self, dim_cap):
        # a complete graph on 40 vertices: 780 edges, 9,880 triangles and 91,390 tetrahedra
        n = 40
        births = np.add.outer(np.arange(n), np.arange(n)) / n
        np.fill_diagonal(births, np.inf)
        ff = flag_expand(EdgeFiltration(np.zeros(n), births), dim_cap=dim_cap)
        assert ff.top_count == math.comb(n, dim_cap + 1)
        arrays = [a for a in vars(ff).values() if isinstance(a, np.ndarray)]
        assert len(arrays) == 4 and all(len(a) < ff.top_count for a in arrays)

    @pytest.mark.parametrize("dim_cap", [1, 2])
    def test_edge_born_before_its_vertex_rejected(self, dim_cap):
        # such an edge would precede its own vertex in the list, which no barcode accepts
        ef = EdgeFiltration(np.array([0.0, 0.5]), np.array([[np.inf, 0.25], [0.25, np.inf]]))
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is born at 0.25, before its vertices \(0.0, 0.5\)"):
            flag_expand(ef, dim_cap=dim_cap)

    def test_single_vertex_and_edge_free(self):
        single = flag_expand(EdgeFiltration(np.zeros(1), np.full((1, 1), np.inf)), dim_cap=3)
        assert single.simplices == [((0,), 0.0)]
        bare = flag_expand(EdgeFiltration(np.array([0.5, 0.0, 0.5]), np.full((3, 3), np.inf)), dim_cap=2)
        assert bare.simplices == [((1,), 0.0), ((0,), 0.5), ((2,), 0.5)]
        assert bare.counts_by_dim() == {0: 3}


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

    @pytest.mark.parametrize("cap", [2.0, None])
    def test_nan_scale_rejected(self, tmp_path, cap):
        ff = flag_expand(triangle_filtration(), dim_cap=2, max_value=cap)
        with pytest.raises(ValueError, match="epsilon nan is NaN or exceeds the filtration cap"):
            skeleton_export(ff, math.nan, tmp_path / "edges.csv")
        assert not (tmp_path / "edges.csv").exists()


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

    def test_loaded_filtration_is_the_expansion_of_its_edges(self, tmp_path):
        # the loader returns flag_expand's filtration, its top dimension implicit; dim_cap may be one more
        ff = flag_expand(random_edge_filtration(np.random.default_rng(3)), dim_cap=2)
        save_filtration(ff, tmp_path / "f.json")
        back = load_filtration(tmp_path / "f.json")
        assert back.top_births is not None and back.top_count == ff.top_count and back.simplices == ff.simplices
        assert load_filtration(tmp_path / "f.json", dim_cap=3).simplices == flag_expand(
            random_edge_filtration(np.random.default_rng(3)), dim_cap=3).simplices
        with pytest.raises(ValueError, match=r"f\.json: dim_cap must be in 1\.\.3 for this filtration, got 4$"):
            load_filtration(tmp_path / "f.json", dim_cap=4)

    @staticmethod
    def _complete(n: int):
        """n random points in the plane by distance, complete through triangles."""
        P = np.random.default_rng(0).uniform(size=(n, 2))
        D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(axis=-1))
        np.fill_diagonal(D, np.inf)
        return flag_expand(EdgeFiltration(np.zeros(n), D), dim_cap=2)

    def test_writer_peak_is_bounded_by_the_lists_arrays(self, tmp_path):
        ff = self._complete(90)
        assert len(ff) == 121_575
        _, peak = traced_peak(lambda: save_filtration(ff, tmp_path / "f.json"))
        # the whole list's arrays are built, and as much again; its entries as Python objects would be ~6 times
        assert peak <= 2 * sum(a.nbytes for a in ff.arrays())

    @pytest.mark.parametrize("n", [0, 1, 30])
    def test_chunks_write_the_bytes_of_the_whole_list(self, tmp_path, n):
        ff = self._complete(n)  # 30 points: 4,525 entries, across a chunk boundary
        save_filtration(ff, tmp_path / "f.json")
        entries = [json.dumps({"vertices": list(verts), "value": value}) for verts, value in ff.simplices]
        want = "[\n" + ",\n".join(entries) + ("\n]\n" if entries else "]\n")
        assert (tmp_path / "f.json").read_bytes() == want.encode()

def refusal(path, entries):
    """The loader's error on a file of ``entries``, (vertex list, value) pairs, without the path prefix."""
    path.write_text(json.dumps([{"vertices": verts, "value": value} for verts, value in entries]))
    with pytest.raises(ValueError) as exc:
        load_filtration(path)
    assert str(exc.value).startswith(f"{path}: ")
    return str(exc.value)[len(f"{path}: "):]


TRIANGLE = [([0], 0.0), ([1], 0.0), ([2], 0.0), ([0, 1], 1.0), ([1, 2], 2.0), ([0, 2], 3.0), ([0, 1, 2], 3.0)]


class TestLoaderContract:
    """A file must be exactly the flag expansion of its vertex and edge entries; a defect names its entry."""

    def test_the_triangle_is_accepted(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([{"vertices": verts, "value": value} for verts, value in TRIANGLE]))
        assert load_filtration(path).simplices == [(tuple(verts), value) for verts, value in TRIANGLE]

    @pytest.mark.parametrize("vertex", [-1, 2**62, 3])  # 3: a gap, since the file has 3 vertex entries
    def test_vertex_ids_outside_the_vertex_entries_refused(self, tmp_path, vertex):
        entries = [*TRIANGLE[:2], ([vertex], 0.0), ([0, 1], 1.0)]
        assert refusal(tmp_path / "f.json", entries) == (
            f"entry 2 ([{vertex}] at 0.0) is not a nonempty increasing list of vertex ids in 0..2 with a non-NaN value")

    @pytest.mark.parametrize("verts", [[], [1, 0], [1, 1]])
    def test_empty_or_unsorted_vertex_list_refused(self, tmp_path, verts):
        entries = [*TRIANGLE[:3], (verts, 1.0), *TRIANGLE[4:]]
        assert refusal(tmp_path / "f.json", entries).startswith(f"entry 3 ({verts} at 1.0) is not a nonempty ")

    def test_duplicate_entry_refused(self, tmp_path):
        entries = [*TRIANGLE[:5], ([1, 2], 2.0), *TRIANGLE[5:]]
        assert refusal(tmp_path / "f.json", entries) == (
            "entry 5 ([1, 2] at 2.0) differs from the flag expansion of the file's vertex and edge entries,"
            " which has [0, 2] at 3.0 there")

    def test_edge_below_its_vertex_refused(self, tmp_path):
        entries = [([0], 0.0), ([1], 0.0), ([0, 1], 0.25), ([0, 2], 0.25), ([2], 0.5)]
        assert refusal(tmp_path / "f.json", entries) == (
            "entry 3 ([0, 2] at 0.25) is an edge valued below its vertices (0.0, 0.5)")

    @pytest.mark.parametrize("value, at", [(2.0, 5), (4.0, 6)])
    def test_simplex_not_valued_at_its_last_edge_refused(self, tmp_path, value, at):
        # the triangle's value is below or above its last edge's 3.0; the list is sorted by it
        entries = sorted([*TRIANGLE[:6], ([0, 1, 2], value)], key=lambda entry: (entry[1], len(entry[0])))
        assert refusal(tmp_path / "f.json", entries).startswith(f"entry {at} ([0, 1, 2] at {value}) differs from ")

    def test_expansion_past_the_entry_count_refused_unlisted(self, tmp_path):
        # a 300-vertex clique listed with one triangle: its edges expand to 4,455,100 triangles, which
        # would take ~0.2 GB to list; the budget of the file's own entry count refuses it first
        n = 300
        entries = [([v], 0.0) for v in range(n)] + [(list(e), 1.0) for e in itertools.combinations(range(n), 2)]
        path = tmp_path / "clique.json"
        entries.append(([0, 1, 2], 1.0))
        path.write_text(json.dumps([{"vertices": verts, "value": value} for verts, value in entries]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                load_filtration(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (f"{path}: the flag expansion of its vertex and edge entries has more than its"
                                  f" {len(entries)} entries")
        assert peak < 48 * 2**20  # the parsed JSON itself takes ~22 MiB


class TestFlagFiltrationDataclass:
    def test_len_and_values_cache(self):
        # no cached value array: complex_at reads the simplex values themselves
        ff = flag_filtration([((0,), 0.0), ((1,), 0.5)], dim_cap=1)
        assert len(ff) == 2
        assert [complex_at(ff, eps) for eps in (-1.0, 0.0, 0.4, 0.5)] == [
            [], [((0,), 0.0)], [((0,), 0.0)], ff.simplices
        ]

"""Dimension sweep: edge existence, lifespans, and the lifespan filtration."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from oracles import existence_set, lifespan, truncate_births
from topo_recon import mscan, witness
from topo_recon.embed import ami_curve, bbox_diameter, delay_embed, first_minimum
from topo_recon.landmarks import LandmarkSet
from topo_recon.mscan import (
    DimensionSweep,
    dimension_barcode,
    dm_filtration,
    lifespan_matrix,
    load_lifespan_csv,
    save_dimension_barcode_csv,
    save_existence_csv,
    save_lifespan_csv,
    sweep,
)
from topo_recon.signal import ScalarSeries, integrate_lorenz, observe
from topo_recon.witness import distance_matrix, edge_births


class TestLifespan:
    @pytest.mark.parametrize(
        "ms,expected",
        [
            ([], 0),
            ([2], 1),
            ([2, 5, 6, 7], 3),
            ([1, 2, 3, 4], 4),
            ([1, 3, 5], 1),
            ([6, 7, 2, 3, 4], 3),  # order does not matter
            ([4, 4, 5], 2),  # duplicates collapse
        ],
    )
    def test_longest_run(self, ms, expected):
        assert lifespan(ms) == expected

    def test_m_max_bound(self):
        assert lifespan([4, 5], m_max=8) == 2
        with pytest.raises(ValueError):
            lifespan([9], m_max=8)


def tiny_sweep():
    """Hand-built existence data: three landmarks, m_max=4.

    edge (0,1) alive on {2}; edge (0,2) alive on {1,2,3,4};
    edge (1,2) alive on {1} and {4}.
    """
    masks = np.zeros((3, 3), dtype=np.uint32)
    masks[0, 1] = masks[1, 0] = 0b0010
    masks[0, 2] = masks[2, 0] = 0b1111
    masks[1, 2] = masks[2, 1] = 0b1001
    lms = LandmarkSet(np.arange(3), np.zeros((3, 2)), np.arange(3))
    return DimensionSweep(
        m_max=4,
        xi=0.1,
        tau_steps=1,
        every=1,
        landmarks=lms,
        diameters=[1.0, 1.0, 1.0, 1.0],
        epsilons=[0.1, 0.1, 0.1, 0.1],
        per_m=[],
        existence=masks,
    )


class TestExistenceDerivatives:
    def test_existence_set(self):
        sw = tiny_sweep()
        assert existence_set(sw, 0, 1) == [2]
        assert existence_set(sw, 0, 2) == [1, 2, 3, 4]
        assert existence_set(sw, 1, 2) == [1, 4]

    def test_lifespan_matrix_matches_per_edge_rule(self):
        sw = tiny_sweep()
        ls = lifespan_matrix(sw)
        assert ls[0, 1] == 1
        assert ls[0, 2] == 4
        assert ls[1, 2] == 1
        assert (ls == ls.T).all()
        assert (np.diag(ls) == 0).all()
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert ls[i, j] == lifespan(existence_set(sw, i, j), sw.m_max)

    def test_dimension_barcode_runs(self):
        sw = tiny_sweep()
        assert dimension_barcode(sw, 0) == [(2, 1, 5, True), (1, 2, 3, False)]
        assert dimension_barcode(sw, 1) == [(2, 1, 2, False), (0, 2, 3, False), (2, 4, 5, True)]

    def test_dimension_barcode_index_validation(self):
        with pytest.raises(ValueError):
            dimension_barcode(tiny_sweep(), 3)

    def test_dm_filtration_values_and_levels(self):
        sw = tiny_sweep()
        dmf = dm_filtration(sw)
        assert dmf.levels[1] == [(0, 1), (0, 2), (1, 2)]
        assert dmf.levels[2] == [(0, 2)]
        assert dmf.levels[4] == [(0, 2)]
        assert dmf.levels[5] == []
        values = {s: v for s, v in dmf.filtration.simplices}
        assert values[(0, 2)] == 0.0  # lifespan 4 enters first
        assert values[(0, 1)] == 3.0
        assert values[(1, 2)] == 3.0
        assert values[(0, 1, 2)] == 3.0
        ls = lifespan_matrix(sw)
        for (s, v) in dmf.filtration.simplices:
            if len(s) == 2:
                assert v == sw.m_max - ls[s[0], s[1]]

    def test_dm_barcode_components(self):
        # everything is connected by m-death 3, so exactly one infinite bar
        dmf = dm_filtration(tiny_sweep())
        k0 = dmf.barcode.by_dim(0)
        assert sum(1 for iv in k0 if not np.isfinite(iv.death)) == 1


@pytest.fixture(scope="module")
def short_lorenz():
    traj = integrate_lorenz(ic=(2.0, 3.0, 4.0), n_steps=5_001, transient_steps=1_000)
    return observe(traj, "x")


@pytest.fixture(scope="module")
def sw(short_lorenz):
    return sweep(short_lorenz, tau_steps=50, xi=0.02, every=250, m_max=4)


class TestSweep:
    def test_shared_landmarks_are_anchored_prefixes(self, short_lorenz, sw):
        cloud = delay_embed(short_lorenz, 4, 50, m_anchor=4)
        assert sw.ell == -(-len(cloud) // 250)
        assert np.array_equal(sw.landmarks.coords, cloud.points[sw.landmarks.indices])
        for m in range(1, 5):
            sub = delay_embed(short_lorenz, m, 50, m_anchor=4)
            assert np.array_equal(sw.landmarks.coords[:, :m], sub.points[sw.landmarks.indices])

    def test_scales_follow_diameters(self, short_lorenz, sw):
        for m in range(1, 5):
            diam = bbox_diameter(delay_embed(short_lorenz, m, 50, m_anchor=4))
            assert sw.diameters[m - 1] == diam
            assert sw.epsilons[m - 1] == 0.02 * diam
        assert sw.diameters == sorted(sw.diameters)

    def test_existence_bits_match_edge_births(self, sw):
        iu, ju = np.triu_indices(sw.ell, k=1)
        for m in range(1, 5):
            ef = sw.per_m[m - 1]
            expected = ef.births[iu, ju] <= sw.epsilons[m - 1]
            got = (sw.existence[iu, ju] >> (m - 1) & 1).astype(bool)
            assert np.array_equal(got, expected)

    def test_per_m_filtration_matches_direct_computation(self, short_lorenz, sw):
        # each per_m[m-1] is the uncapped filtration truncated at epsilons[m-1], bitwise
        for m in range(1, 5):
            w_m = delay_embed(short_lorenz, m, 50, m_anchor=4)
            full = edge_births(distance_matrix(w_m.points, sw.landmarks.coords[:, :m]))
            direct = truncate_births(full, sw.epsilons[m - 1])
            got = sw.per_m[m - 1]
            assert got.max_value == sw.epsilons[m - 1]
            assert np.array_equal(direct.births, got.births)
            assert np.array_equal(direct.witness, got.witness)
            assert np.array_equal(direct.vertex_birth, got.vertex_birth)

    def test_vertex_births_are_zero(self, sw):
        for ef in sw.per_m:
            assert (ef.vertex_birth == 0.0).all()

    def test_m_clouds_are_views_of_one_cloud(self, short_lorenz, monkeypatch):
        made = []

        def recording(witnesses, landmarks):
            made.append(witness.distance_matrix(witnesses, landmarks))
            return made[-1]

        monkeypatch.setattr(mscan, "distance_matrix", recording)
        sweep(short_lorenz, tau_steps=50, xi=0.02, every=250, m_max=4)
        assert [dm.coords.shape[0] for dm in made] == [1, 2, 3, 4]
        for dm in made:
            assert np.shares_memory(dm.coords, made[-1].coords)

    def test_m_max_is_bounded_by_the_existence_bits(self, short_lorenz):
        # existence is a uint32 bitmask: bit 32 would shift out, and every edge at m = 33 would read absent
        with pytest.raises(ValueError, match="1..32"):
            sweep(short_lorenz, tau_steps=50, xi=0.02, every=250, m_max=33)
        top = sweep(short_lorenz, tau_steps=50, xi=0.02, every=250, m_max=32)
        alive = top.per_m[31].births <= top.epsilons[31]
        assert alive.any() and np.array_equal((top.existence >> 31).astype(bool), alive)

    def test_validation(self, short_lorenz):
        with pytest.raises(ValueError):
            sweep(short_lorenz, tau_steps=50, xi=0.02, every=250, m_max=0)
        with pytest.raises(ValueError):
            sweep(short_lorenz, tau_steps=50, xi=-0.1, every=250, m_max=2)
        with pytest.raises(ValueError):
            sweep(short_lorenz, tau_steps=50, xi=float("nan"), every=250, m_max=2)


class TestSweepMetamorphic:
    """Scaling the series by a power of two scales every distance and birth exactly: no referee is needed."""

    @pytest.mark.parametrize("k", [-3, 5])
    def test_scaling_by_a_power_of_two(self, short_lorenz, k):
        scale = 2.0**k
        scaled = ScalarSeries(short_lorenz.values * scale, short_lorenz.sample_interval)
        base_curve, scaled_curve = ami_curve(short_lorenz, tau_max=200), ami_curve(scaled, tau_max=200)
        assert scaled_curve.bins == base_curve.bins
        assert scaled_curve.values.tobytes() == base_curve.values.tobytes()
        tau = first_minimum(base_curve)
        assert tau is not None and first_minimum(scaled_curve) == tau
        base, moved = sweep(short_lorenz, tau, 0.02, 250, 4), sweep(scaled, tau, 0.02, 250, 4)
        assert moved.diameters == [scale * d for d in base.diameters]
        assert moved.epsilons == [scale * e for e in base.epsilons]
        for m, (a, b) in enumerate(zip(base.per_m, moved.per_m), start=1):
            assert b.max_value == scale * a.max_value
            assert b.vertex_birth.tobytes() == (scale * a.vertex_birth).tobytes()
            assert b.births.tobytes() == (scale * a.births).tobytes(), m
            assert b.witness.tobytes() == a.witness.tobytes(), m
        assert np.isfinite(base.per_m[0].births).any()
        assert moved.existence.tobytes() == base.existence.tobytes()
        assert lifespan_matrix(moved).tobytes() == lifespan_matrix(base).tobytes()
        bars = [
            [(iv.k, iv.birth, iv.death, iv.creator, iv.destroyer) for iv in dm_filtration(sw).barcode.intervals]
            for sw in (base, moved)
        ]
        assert bars[0] and bars[1] == bars[0]

    def test_permuted_landmarks(self, short_lorenz, sw):
        """A test-side sweep over the sweep's own landmarks, in a seeded random order, permutes everything bitwise."""
        perm = np.random.default_rng(7).permutation(sw.ell)
        ix = np.ix_(perm, perm)
        existence = np.zeros_like(sw.existence)
        for m in range(1, sw.m_max + 1):
            cloud, eps, want = delay_embed(short_lorenz, m, 50, m_anchor=4), sw.epsilons[m - 1], sw.per_m[m - 1]
            got = edge_births(distance_matrix(cloud.points, sw.landmarks.coords[perm, :m]), cap=eps)
            assert got.vertex_birth.tobytes() == want.vertex_birth[perm].tobytes(), m
            assert got.births.tobytes() == want.births[ix].tobytes(), m
            assert got.witness.tobytes() == want.witness[ix].tobytes(), m
            existence |= (got.births <= eps).astype(np.uint32) << (m - 1)
        assert sw.existence.any() and existence.tobytes() == sw.existence[ix].tobytes()
        moved = dataclasses.replace(sw, existence=existence)  # what follows reads only ell, m_max and existence
        assert lifespan_matrix(moved).tobytes() == lifespan_matrix(sw)[ix].tobytes()
        bars = [Counter((iv.k, iv.birth, iv.death) for iv in dm_filtration(x).barcode.intervals) for x in (sw, moved)]
        assert bars[0] and bars[1] == bars[0]


class TestSweepFiles:
    def test_lifespan_round_trip(self, tmp_path):
        sw = tiny_sweep()
        matrix = lifespan_matrix(sw)
        path = tmp_path / "lifespan.csv"
        save_lifespan_csv(matrix, path)
        assert np.array_equal(load_lifespan_csv(path), matrix)
        assert path.read_text().splitlines()[0] == "0,1,4"

    def test_existence_csv_layout(self, tmp_path):
        path = tmp_path / "existence.csv"
        save_existence_csv(tiny_sweep(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,mask"
        assert lines[1:] == ["0,1,2", "0,2,15", "1,2,9"]

    def test_dimension_barcode_csv_layout(self, tmp_path):
        path = tmp_path / "dimbar.csv"
        save_dimension_barcode_csv(tiny_sweep(), 0, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "partner,m_birth,m_death,alive_at_max"
        assert lines[1:] == ["2,1,5,1", "1,2,3,0"]

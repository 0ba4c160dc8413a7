"""Landmark selection: equal-time stride and greedy max-min picks."""

import numpy as np
import pytest

from topo_recon.embed import PointCloud
from topo_recon.landmarks import (
    LandmarkSet,
    load_landmarks,
    save_landmarks,
    select_evenly_spaced,
    select_maxmin,
)
from topo_recon.signal import SeriesFormatError


def grid_cloud(n, m=2, scale=1.0):
    rng = np.random.default_rng(0)
    return PointCloud(rng.standard_normal((n, m)) * scale, np.arange(n))


class TestEvenlySpaced:
    def test_indices_and_coords(self):
        cloud = PointCloud(np.arange(20.0).reshape(10, 2), np.arange(5, 15))
        lms = select_evenly_spaced(cloud, every=3)
        assert np.array_equal(lms.indices, [0, 3, 6, 9])
        assert np.array_equal(lms.coords, cloud.points[[0, 3, 6, 9]])
        assert np.array_equal(lms.time_index, [5, 8, 11, 14])
        assert lms.spacing == 3
        assert lms.ell == 4

    def test_every_one_takes_all(self):
        cloud = grid_cloud(7)
        lms = select_evenly_spaced(cloud, every=1)
        assert lms.ell == 7
        assert np.array_equal(lms.coords, cloud.points)

    def test_stride_larger_than_cloud(self):
        lms = select_evenly_spaced(grid_cloud(5), every=100)
        assert np.array_equal(lms.indices, [0])

    def test_count_formula(self):
        # ceil(n / every) landmarks for any stride
        for n, every in [(100_001, 500), (99_843, 500), (99_843, 499)]:
            cloud = PointCloud(np.zeros((n, 1)), np.arange(n))
            assert select_evenly_spaced(cloud, every).ell == -(-n // every)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            select_evenly_spaced(grid_cloud(5), every=0)

    def test_coords_are_copies(self):
        cloud = grid_cloud(6)
        lms = select_evenly_spaced(cloud, every=2)
        lms.coords[0, 0] = 1e9
        assert cloud.points[0, 0] != 1e9


class TestMaxMin:
    def test_deterministic_for_seed(self):
        cloud = grid_cloud(200)
        a = select_maxmin(cloud, 12, seed=5)
        b = select_maxmin(cloud, 12, seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert a.order == b.order

    def test_first_pick_is_seeded_draw(self):
        cloud = grid_cloud(50)
        lms = select_maxmin(cloud, 3, seed=9)
        assert lms.order[0] == int(np.random.default_rng(9).integers(50))

    def test_circle_cover_quality(self):
        # Greedy max-min is a 2-approximation of the k-center optimum: for
        # 4 picks on a dense unit circle the chosen points are pairwise at
        # least sqrt(2)/2 apart (half the optimal spread).
        theta = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
        cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]), np.arange(100))
        lms = select_maxmin(cloud, 4, seed=0)
        d = np.linalg.norm(lms.coords[:, None, :] - lms.coords[None, :, :], axis=-1)
        off_diag = d[~np.eye(4, dtype=bool)]
        assert off_diag.min() >= np.sqrt(2.0) / 2.0

    def test_collinear_picks_extremes(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [9.0, 0.0], [10.0, 0.0]])
        cloud = PointCloud(pts, np.arange(5))
        lms = select_maxmin(cloud, 2, seed=3)
        first = lms.order[0]
        expected_second = int(np.argmax(np.abs(pts[:, 0] - pts[first, 0])))
        assert set(lms.order) == {first, expected_second}

    def test_tie_breaks_to_lowest_index(self):
        # Two coincident pairs: whichever point starts, the two farthest
        # candidates tie exactly, and the greedy step must take the lower index.
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        cloud = PointCloud(pts, np.arange(4))
        lms = select_maxmin(cloud, 2, seed=1)
        first = lms.order[0]
        assert lms.order[1] == (2 if first in (0, 1) else 0)

    def test_duplicate_points_rejected_when_exhausted(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        cloud = PointCloud(pts, np.arange(3))
        with pytest.raises(ValueError, match="duplicate"):
            select_maxmin(cloud, 3, seed=0)

    def test_indices_sorted_spacing_zero(self):
        lms = select_maxmin(grid_cloud(60), 10, seed=2)
        assert (np.diff(lms.indices) > 0).all()
        assert lms.spacing == 0
        assert sorted(lms.order) == lms.indices.tolist()

    def test_ell_bounds(self):
        cloud = grid_cloud(5)
        with pytest.raises(ValueError):
            select_maxmin(cloud, 0, seed=0)
        with pytest.raises(ValueError):
            select_maxmin(cloud, 6, seed=0)


class TestLandmarkFiles:
    def test_round_trip(self, tmp_path):
        cloud = grid_cloud(30, m=3, scale=100.0)
        lms = select_evenly_spaced(cloud, every=7)
        path = tmp_path / "landmarks.csv"
        save_landmarks(lms, path)
        back = load_landmarks(path)
        assert np.array_equal(back.indices, lms.indices)
        assert np.array_equal(back.coords, lms.coords)
        assert np.array_equal(back.time_index, lms.time_index)
        assert back.spacing == lms.spacing

    def test_layout(self, tmp_path):
        lms = LandmarkSet(np.array([2]), np.array([[1.5, -2.0]]), np.array([4]), spacing=5)
        path = tmp_path / "l.csv"
        save_landmarks(lms, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# spacing=5"
        assert lines[1] == "idx,t,c0,c1"
        assert lines[2] == "2,4,1.5,-2.0"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("# spacing=1\nfoo,bar,c0\n1,2,3.0\n")
        with pytest.raises(SeriesFormatError):
            load_landmarks(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("# spacing=1\nidx,t,c0\n")
        with pytest.raises(SeriesFormatError):
            load_landmarks(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected(self, tmp_path, bad):
        path = tmp_path / "l.csv"
        path.write_text(f"# spacing=1\nidx,t,c0,c1\n0,0,0.5,1.0\n\n3,3,{bad},1.0\n")
        with pytest.raises(SeriesFormatError, match="non-finite") as info:
            load_landmarks(path)
        assert info.value.line_no == 5
        assert info.value.path == str(path)


    @pytest.mark.parametrize("second", [0, 7])
    def test_index_that_does_not_increase_is_located(self, tmp_path, second):
        # the third data row repeats (0 -> 7, 7) or falls (0 -> 7, 0) on line 6, after a blank line
        path = tmp_path / "l.csv"
        path.write_text(f"# spacing=1\nidx,t,c0\n0,0,1.0\n7,7,2.0\n\n{second},9,3.0\n")
        with pytest.raises(SeriesFormatError, match=f"idx must be strictly increasing, got 7 then {second}") as info:
            load_landmarks(path)
        assert info.value.line_no == 6
        assert info.value.path == str(path)


class TestLandmarkSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LandmarkSet(np.array([3, 1]), np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            LandmarkSet(np.array([0, 1]), np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            LandmarkSet(np.array([], dtype=int), np.zeros((0, 2)), np.array([], dtype=int))

    def test_properties(self):
        lms = LandmarkSet(np.array([0, 4]), np.zeros((2, 3)), np.array([10, 14]))
        assert lms.ell == 2
        assert lms.m == 3
        assert len(lms) == 2

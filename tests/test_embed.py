"""Delay embedding, mutual-information delay selection, and scale helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ami_histogram2d
from topo_recon.embed import (
    AmiCurve,
    DegenerateSeriesError,
    PointCloud,
    ami_curve,
    bbox_diameter,
    default_bins,
    delay_embed,
    first_minimum,
    load_cloud,
    save_cloud,
)
from topo_recon.signal import ScalarSeries, SeriesFormatError


def series_of(values, dt=1.0):
    return ScalarSeries(np.asarray(values, dtype=np.float64), dt)


class TestDelayEmbed:
    def test_small_example_backward_delays(self):
        cloud = delay_embed(series_of([1.0, 2.0, 3.0, 4.0]), m=2, tau_steps=1)
        assert np.array_equal(cloud.points, [[2.0, 1.0], [3.0, 2.0], [4.0, 3.0]])
        assert np.array_equal(cloud.time_index, [1, 2, 3])

    def test_m1_is_the_series_itself(self):
        s = series_of([5.0, 6.0, 7.0])
        cloud = delay_embed(s, m=1, tau_steps=3)
        assert np.array_equal(cloud.points[:, 0], s.values)
        assert np.array_equal(cloud.time_index, [0, 1, 2])

    def test_first_column_is_current_value(self):
        s = series_of(np.sin(np.arange(100.0)))
        cloud = delay_embed(s, m=3, tau_steps=4)
        t0 = 2 * 4
        assert np.array_equal(cloud.points[:, 0], s.values[t0:])
        assert np.array_equal(cloud.points[:, 1], s.values[t0 - 4 : -4])
        assert np.array_equal(cloud.points[:, 2], s.values[t0 - 8 : -8])

    def test_anchored_clouds_are_bitwise_prefixes(self):
        s = series_of(np.random.default_rng(1).standard_normal(120))
        top = delay_embed(s, m=5, tau_steps=3)
        for m in range(1, 6):
            sub = delay_embed(s, m=m, tau_steps=3, m_anchor=5)
            assert np.array_equal(sub.points, top.points[:, :m])
            assert np.array_equal(sub.time_index, top.time_index)

    def test_project_matches_anchored_embed(self):
        s = series_of(np.random.default_rng(2).standard_normal(80))
        top = delay_embed(s, m=4, tau_steps=2)
        for m in range(1, 5):
            assert np.array_equal(top.points[:, :m], delay_embed(s, m, 2, m_anchor=4).points)

    def test_invalid_arguments(self):
        s = series_of(np.arange(10.0))
        with pytest.raises(ValueError):
            delay_embed(s, m=0, tau_steps=1)
        with pytest.raises(ValueError):
            delay_embed(s, m=2, tau_steps=0)
        with pytest.raises(ValueError):
            delay_embed(s, m=2, tau_steps=1, m_anchor=1)
        with pytest.raises(ValueError):
            delay_embed(s, m=2, tau_steps=10)  # window exceeds the series

    @given(
        n=st.integers(20, 80),
        tau=st.integers(1, 4),
        m_max=st.integers(2, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_prefix_property_random(self, n, tau, m_max, seed):
        if (m_max - 1) * tau >= n:
            return
        s = series_of(np.random.default_rng(seed).standard_normal(n))
        top = delay_embed(s, m_max, tau)
        for m in range(1, m_max + 1):
            sub = delay_embed(s, m, tau, m_anchor=m_max)
            assert np.array_equal(sub.points, top.points[:, :m])


class TestAmi:
    def test_iid_series_has_near_zero_information(self):
        s = series_of(np.random.default_rng(0).standard_normal(100_000))
        curve = ami_curve(s, tau_max=5)
        assert curve.values[1:].max() < 0.1

    def test_lag_zero_equals_histogram_entropy(self):
        s = series_of(np.random.default_rng(3).standard_normal(5_000))
        curve = ami_curve(s, tau_max=2, bins=16)
        counts, _ = np.histogram(s.values, bins=np.linspace(s.values.min(), s.values.max(), 17))
        p = counts / counts.sum()
        p = p[p > 0]
        entropy = float(-(p * np.log2(p)).sum())
        assert math.isclose(curve.values[0], entropy, rel_tol=1e-9)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        s = series_of(np.cumsum(rng.standard_normal(2_000)))
        curve = ami_curve(s, tau_max=50)
        assert (curve.values >= 0).all()

    def test_periodic_series_recurrence(self):
        s = series_of(np.sin(np.linspace(0.0, 40.0 * np.pi, 4_000)))
        curve = ami_curve(s, tau_max=250, bins=32)
        period = 200  # samples per cycle
        assert first_minimum(curve) is not None
        # at half/full period the lagged value is a deterministic map of the
        # current one (high information); at a quarter period it is maximally
        # ambiguous, so the curve dips there
        assert curve.values[period] > curve.values[period // 4] + 1.0
        assert curve.values[period // 2] > curve.values[period // 4] + 1.0

    @given(
        seed=st.integers(0, 10_000),
        bins=st.integers(2, 16),
        on_edges=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_histogram2d_reference(self, seed, bins, on_edges):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 400))
        lo = float(rng.uniform(-5.0, 5.0))
        hi = lo + float(rng.choice([rng.uniform(1e-3, 10.0), 1.0, bins]))
        # a share of the samples sits exactly on bin edges, including the maximum
        x = rng.uniform(lo, hi, size=n)
        edge_pick = rng.random(n) < on_edges
        x[edge_pick] = rng.choice(np.linspace(lo, hi, bins + 1), size=int(edge_pick.sum()))
        x[rng.integers(0, n, size=2)] = (lo, hi)
        tau_max = int(rng.integers(1, min(n - 1, 30) + 1))
        curve = ami_curve(series_of(x), tau_max=tau_max, bins=bins)
        assert np.array_equal(curve.values, ami_histogram2d(x, tau_max, bins))

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            ami_curve(series_of(np.ones(100)), tau_max=5)

    def test_argument_validation(self):
        s = series_of(np.arange(50.0))
        with pytest.raises(ValueError):
            ami_curve(s, tau_max=0)
        with pytest.raises(ValueError):
            ami_curve(s, tau_max=50)
        with pytest.raises(ValueError):
            ami_curve(s, tau_max=5, bins=1)

    def test_curve_length(self):
        s = series_of(np.random.default_rng(5).standard_normal(500))
        assert len(ami_curve(s, tau_max=7)) == 8


class TestFirstMinimum:
    def test_strict_then_flat(self):
        assert first_minimum(AmiCurve(np.array([5.0, 3.0, 1.0, 2.0, 3.0]), 8)) == 2

    def test_plateau_counts_as_minimum(self):
        assert first_minimum(AmiCurve(np.array([5.0, 3.0, 3.0, 4.0]), 8)) == 1

    def test_monotone_decreasing_has_none(self):
        assert first_minimum(AmiCurve(np.array([5.0, 4.0, 3.0, 2.0]), 8)) is None

    def test_needs_three_values(self):
        with pytest.raises(ValueError):
            first_minimum(AmiCurve(np.array([1.0, 2.0]), 8))

    def test_first_of_several(self):
        v = np.array([5.0, 2.0, 3.0, 1.0, 4.0])
        assert first_minimum(AmiCurve(v, 8)) == 1


class TestScales:
    def test_bbox_diameter_345(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]), np.arange(3))
        assert bbox_diameter(cloud) == 5.0

    def test_single_point_diameter_zero(self):
        assert bbox_diameter(PointCloud(np.array([[2.0, 7.0]]), np.array([0]))) == 0.0

    def test_default_bins_rule(self):
        assert default_bins(10_000) == 64
        assert default_bins(50_000) == 64
        assert default_bins(999) == 10
        assert default_bins(27) == 3
        assert default_bins(1) == 2


class TestCloudFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.standard_normal((17, 3)) * 1e5, np.arange(4, 21))
        path = tmp_path / "cloud.csv"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.time_index, cloud.time_index)

    def test_header_layout(self, tmp_path):
        cloud = PointCloud(np.array([[1.0, 2.0]]), np.array([3]))
        path = tmp_path / "cloud.csv"
        save_cloud(cloud, path)
        assert path.read_text().splitlines()[0] == "t,c0,c1"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SeriesFormatError):
            load_cloud(path)

    def test_field_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("t,c0,c1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(SeriesFormatError) as exc:
            load_cloud(path)
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_reports_its_line(self, tmp_path, bad):
        # the blank line 3 counts, so the bad row (the third data row) is on line 5
        path = tmp_path / "cloud.csv"
        path.write_text(f"t,c0,c1\n0,1.0,2.0\n\n1,3.0,4.0\n2,5.0,{bad}\n3,7.0,8.0\n")
        with pytest.raises(SeriesFormatError, match="line 5: non-finite coordinate") as exc:
            load_cloud(path)
        assert exc.value.line_no == 5

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("t,c0\n")
        with pytest.raises(SeriesFormatError):
            load_cloud(path)

    @pytest.mark.parametrize("third", [1, 0])
    def test_time_that_does_not_increase_is_located(self, tmp_path, third):
        # t repeats (0, 1, 1) or falls (0, 1, 0) at the third data row, line 4
        path = tmp_path / "cloud.csv"
        path.write_text(f"t,c0\n0,1.0\n1,2.0\n{third},3.0\n2,4.0\n")
        with pytest.raises(SeriesFormatError, match=f"line 4: t must be strictly increasing, got 1 then {third}"):
            load_cloud(path)

    def test_point_cloud_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)), np.array([0, 2, 1]))
        with pytest.raises(ValueError):
            PointCloud(np.zeros(3), np.arange(3))

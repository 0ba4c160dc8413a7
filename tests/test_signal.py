"""Integrator, measurement, noise, and series-file behavior."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topo_recon.landmarks import LandmarkSet, load_landmarks, save_landmarks
from topo_recon.mscan import load_lifespan_csv
from topo_recon.persistence import load_barcode
from topo_recon.render import render_skeleton
from topo_recon.signal import (
    DEFAULT_IC,
    IntegrationError,
    OdeParams,
    ScalarSeries,
    SeriesFormatError,
    Trajectory,
    add_uniform_noise,
    integrate_lorenz,
    load_series,
    observe,
    save_series,
)


def final_state(dt, n_steps):
    traj = integrate_lorenz(ic=(1.0, 1.0, 1.0), dt=dt, n_steps=n_steps, transient_steps=0)
    return traj.points[-1]


class TestIntegrator:
    def test_fourth_order_convergence(self):
        # Halving the step divides the global error by ~2^4 for an RK4 scheme.
        ref = final_state(1e-6, 10_000)  # state at t = 0.01
        err_coarse = np.linalg.norm(final_state(1e-3, 10) - ref)
        err_fine = np.linalg.norm(final_state(5e-4, 20) - ref)
        ratio = err_coarse / err_fine
        assert 12.0 <= ratio <= 20.0, f"error ratio {ratio} not ~16"

    def test_origin_is_a_fixed_point(self):
        traj = integrate_lorenz(ic=(0.0, 0.0, 0.0), n_steps=50, transient_steps=5)
        assert np.array_equal(traj.points, np.zeros((50, 3)))

    def test_transient_drop_is_bitwise(self):
        full = integrate_lorenz(ic=(2.0, 1.0, 1.0), n_steps=70, transient_steps=0)
        tail = integrate_lorenz(ic=(2.0, 1.0, 1.0), n_steps=50, transient_steps=20)
        assert np.array_equal(full.points[20:], tail.points)

    def test_determinism(self):
        a = integrate_lorenz(n_steps=100, transient_steps=10)
        b = integrate_lorenz(n_steps=100, transient_steps=10)
        assert np.array_equal(a.points, b.points)

    def test_default_parameters_stay_on_attractor(self):
        traj = integrate_lorenz(n_steps=2_000)
        assert np.isfinite(traj.points).all()
        assert traj.points[:, 2].max() < 60.0
        assert abs(traj.points[:, 0]).max() < 25.0

    def test_blowup_raises_with_step_index(self):
        with pytest.raises(IntegrationError) as exc:
            integrate_lorenz(ic=(1e160, 1e160, 1e160), n_steps=10, transient_steps=0)
        assert exc.value.step >= 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ic": (1.0, 2.0)},
            {"ic": (1.0, 2.0, 3.0, 4.0)},
            {"ic": (math.nan, 0.0, 0.0)},
            {"dt": 0.0},
            {"dt": -0.1},
            {"n_steps": 0},
            {"transient_steps": -1},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            integrate_lorenz(n_steps=kwargs.get("n_steps", 5), **{k: v for k, v in kwargs.items() if k != "n_steps"})

    def test_ode_params_must_be_finite(self):
        with pytest.raises(ValueError):
            OdeParams(r=math.inf)

    def test_default_ic_constant(self):
        assert DEFAULT_IC == (1.0, 1.0, 1.0)


class TestObserve:
    @pytest.fixture()
    def traj(self):
        return Trajectory(np.arange(12.0).reshape(4, 3), dt=0.5)

    def test_named_coordinates(self, traj):
        assert np.array_equal(observe(traj, "x").values, traj.points[:, 0])
        assert np.array_equal(observe(traj, "y").values, traj.points[:, 1])
        assert np.array_equal(observe(traj, "z").values, traj.points[:, 2])

    def test_integer_selector_and_interval(self, traj):
        s = observe(traj, 2)
        assert np.array_equal(s.values, traj.points[:, 2])
        assert s.sample_interval == 0.5

    def test_default_is_first_coordinate(self, traj):
        assert np.array_equal(observe(traj).values, traj.points[:, 0])

    def test_returns_a_copy(self, traj):
        s = observe(traj, "x")
        s.values[0] = 1e9
        assert traj.points[0, 0] == 0.0

    def test_bad_selector(self, traj):
        with pytest.raises(ValueError):
            observe(traj, "w")
        with pytest.raises(ValueError):
            observe(traj, 3)


class TestNoise:
    @pytest.fixture()
    def series(self):
        return ScalarSeries(np.linspace(-1.0, 1.0, 200), 0.001)

    def test_zero_width_is_exact_copy(self, series):
        out = add_uniform_noise(series, 0.0, seed=7)
        assert np.array_equal(out.values, series.values)
        assert out.values is not series.values

    def test_seed_reproducibility(self, series):
        a = add_uniform_noise(series, 2.0, seed=3)
        b = add_uniform_noise(series, 2.0, seed=3)
        c = add_uniform_noise(series, 2.0, seed=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_matches_default_rng_stream(self, series):
        out = add_uniform_noise(series, 2.0, seed=11)
        expected = series.values + np.random.default_rng(11).uniform(-1.0, 1.0, len(series))
        assert np.array_equal(out.values, expected)

    def test_negative_width_rejected(self, series):
        with pytest.raises(ValueError):
            add_uniform_noise(series, -0.1, seed=0)

    def test_moments(self):
        base = ScalarSeries(np.zeros(200_000), 1.0)
        out = add_uniform_noise(base, 4.0, seed=0)
        assert abs(out.values.mean()) < 0.02
        assert abs(out.values.std() - 4.0 / math.sqrt(12.0)) < 0.01

    @given(nu=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1))
    @example(nu=5.036868055860426e-16, seed=0)  # out - base exceeds nu/2 here: rounding near 5.0
    @settings(max_examples=40, deadline=None)
    def test_deviation_bounded_by_half_width(self, nu, seed):
        base = ScalarSeries(np.linspace(0.0, 5.0, 64), 1.0)
        out = add_uniform_noise(base, nu, seed=seed)
        draws = np.random.default_rng(seed).uniform(-nu / 2.0, nu / 2.0, 64)
        assert out.values.tobytes() == (base.values + draws).tobytes()
        assert (np.abs(draws) <= nu / 2.0).all()


class TestSeriesFiles:
    def test_native_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [rng.standard_normal(50) * 10.0 ** rng.integers(-200, 200, 50), [0.0, -0.0, 1e-300, 1e300]]
        )
        series = ScalarSeries(values, 0.0012345678901234567)
        path = tmp_path / "series.txt"
        save_series(series, path)
        back = load_series(path)
        assert np.array_equal(back.values, series.values)
        assert back.sample_interval == series.sample_interval

    def test_native_header_format(self, tmp_path):
        path = tmp_path / "s.txt"
        save_series(ScalarSeries(np.array([1.5]), 0.25), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# T=0.25"
        assert lines[1] == "1.5"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(SeriesFormatError) as exc:
            load_series(path)
        assert exc.value.line_no == 1

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(SeriesFormatError) as exc:
            load_series(path)
        assert exc.value.line_no == 1

    def test_bad_value_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# T=0.001\n1.0\noops\n")
        with pytest.raises(SeriesFormatError) as exc:
            load_series(path)
        assert exc.value.line_no == 3

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("# T=0.001\ninf\n")
        with pytest.raises(SeriesFormatError):
            load_series(path)

    def test_nonpositive_interval_rejected(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("# T=0.0\n1.0\n")
        with pytest.raises(SeriesFormatError):
            load_series(path)

    def test_csv_format(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x\n1.0\n2.5\n-3.0\n")
        s = load_series(path, format="csv", sample_interval=0.5)
        assert np.array_equal(s.values, [1.0, 2.5, -3.0])
        assert s.sample_interval == 0.5
        assert load_series(path, format="csv").sample_interval == 1.0

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.0\n")
        with pytest.raises(SeriesFormatError):
            load_series(path, format="csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_series(tmp_path / "s.txt", format="binary")


def _render_edges(path):
    lm_path = path.with_name("lm.csv")
    save_landmarks(LandmarkSet(np.arange(3), np.zeros((3, 2)), np.arange(3)), lm_path)
    return render_skeleton(path, lm_path)


# table -> (reader, a valid head, a ragged row, a row with a non-number)
COLD_TABLES = {
    "landmarks": (load_landmarks, "# spacing=1\nidx,t,c0\n0,0,1.0\n", "1,1", "1,1,abc"),
    "barcode": (load_barcode, "k,birth,death\n0,0.0,inf\n", "1,0.5", "1,0.5,abc"),
    "lifespan": (load_lifespan_csv, "0,1\n1,0\n", "1,0,2", "1,abc"),
    "edges": (_render_edges, "i,j,birth\n0,1,0.5\n", "1,2", "1,2.0,0.7"),
}


class TestTableRows:
    @pytest.mark.parametrize("table", sorted(COLD_TABLES))
    @pytest.mark.parametrize("bad", ["ragged", "non_number"])
    def test_bad_row_is_located(self, tmp_path, table, bad):
        reader, head, ragged, non_number = COLD_TABLES[table]
        path = tmp_path / f"{table}.csv"
        path.write_text(head + "\n" + (ragged if bad == "ragged" else non_number) + "\n")
        with pytest.raises(SeriesFormatError) as exc:
            reader(path)
        assert exc.value.path == str(path)
        assert exc.value.line_no == head.count("\n") + 2

    @pytest.mark.parametrize("table", ["barcode", "edges", "landmarks"])
    def test_missing_header_is_located(self, tmp_path, table):
        path = tmp_path / f"{table}.csv"
        path.write_text("")
        with pytest.raises(SeriesFormatError) as exc:
            COLD_TABLES[table][0](path)
        assert exc.value.line_no == 1


class TestDataclasses:
    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros(3), dt=0.1)
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 2)), dt=0.0)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            ScalarSeries(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            ScalarSeries(np.array([1.0, math.nan]), 1.0)
        with pytest.raises(ValueError):
            ScalarSeries(np.array([1.0]), 0.0)

    def test_series_len(self):
        assert len(ScalarSeries(np.zeros(7), 1.0)) == 7

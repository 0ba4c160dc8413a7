"""Integrator, measurement, noise, and series-file behavior."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import flag_filtration
from topo_recon.embed import PointCloud, load_cloud, save_cloud
from topo_recon.landmarks import LandmarkSet, load_landmarks, save_landmarks
from topo_recon.mscan import load_lifespan_csv, save_lifespan_csv
from topo_recon.persistence import Barcode, Interval, load_barcode, save_barcode
from topo_recon.render import render_skeleton
from topo_recon.signal import (
    DEFAULT_IC,
    IntegrationError,
    OdeParams,
    ScalarSeries,
    SeriesFormatError,
    Trajectory,
    _read_table,
    _write_table,
    add_uniform_noise,
    integrate_lorenz,
    load_series,
    observe,
    save_series,
)
from topo_recon.witness import skeleton_export


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
    "series": (load_series, "# T=0.5\n1.0\n# a comment\n-2.5\n", "1.0,2.0", "1.0x"),
    "cloud": (load_cloud, "t,c0,c1\n0,1.0,2.0\n", "1,3.0", "1,abc,2.0"),
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

    @pytest.mark.parametrize("table", ["barcode", "cloud", "edges", "landmarks", "series"])
    def test_missing_header_is_located(self, tmp_path, table):
        path = tmp_path / f"{table}.csv"
        path.write_text("")
        with pytest.raises(SeriesFormatError) as exc:
            COLD_TABLES[table][0](path)
        assert exc.value.line_no == 1


# ±0, the smallest subnormals, a subnormal in the middle of the range and ±1e308, besides any float
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308]
_TIMES = st.lists(st.integers(1, 10**12), min_size=1, max_size=6).map(lambda steps: np.cumsum(steps) - 10**12)


def _floats(n: int, inf: bool):
    """n floats, NaN excluded and infinities only when ``inf``."""
    edge = _EDGE_FLOATS + ([math.inf, -math.inf] if inf else [])
    value = st.one_of(st.sampled_from(edge), st.floats(allow_nan=False, allow_infinity=inf))
    return st.lists(value, min_size=n, max_size=n)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _round_trip(table: str, data, path) -> tuple:
    """Write drawn values with a table's writer, read them back with its reader: (ints, floats) both ways."""
    times = data.draw(_TIMES)
    n = times.size
    if table == "series":
        values = data.draw(_floats(n, inf=False))
        interval = data.draw(st.floats(min_value=5e-324, max_value=1e308))
        save_series(ScalarSeries(values, interval), path)
        back = load_series(path)
        return ([], values + [interval]), ([], back.values.tolist() + [back.sample_interval])
    if table in ("cloud", "landmarks"):
        m = data.draw(st.integers(1, 3))
        points = np.array(data.draw(_floats(n * m, inf=False))).reshape(n, m)
        if table == "cloud":
            save_cloud(PointCloud(points, times), path)
            back = load_cloud(path)
            return (times.tolist(), points), (back.time_index.tolist(), back.points)
        spacing = data.draw(st.integers(0, 10**6))
        save_landmarks(LandmarkSet(times, points, times[::-1], spacing), path)
        back = load_landmarks(path)
        written = (times.tolist() + times[::-1].tolist() + [spacing], points)
        return written, (back.indices.tolist() + back.time_index.tolist() + [back.spacing], back.coords)
    if table == "barcode":
        ks = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        births, deaths = data.draw(_floats(n, inf=True)), data.draw(_floats(n, inf=True))
        intervals = [Interval(k, b, d, creator=0) for k, b, d in zip(ks, births, deaths)]
        save_barcode(Barcode(intervals=intervals, dim_cap=4, filtration=None), path)
        back_ks, back_births, back_deaths = zip(*load_barcode(path))
        return (ks, births + deaths), (list(back_ks), back_births + back_deaths)
    if table == "lifespan":
        matrix = np.array(data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n * n, max_size=n * n)))
        save_lifespan_csv(matrix.reshape(n, n), path)
        return (matrix.tolist(), []), (load_lifespan_csv(path).ravel().tolist(), [])
    # skeleton edges: births in filtration order, read back as render_skeleton reads them
    births = sorted(data.draw(_floats(n, inf=True)))
    edges = [((i, t), b) for i, (t, b) in enumerate(zip(times.tolist(), births))]
    ff = flag_filtration(edges, dim_cap=1)
    assert skeleton_export(ff, math.inf, path) == n
    back = _read_table(path, "i,j,birth", ints=2)
    return ([v for verts, _ in edges for v in verts], births), (back.ints.ravel().tolist(), back.floats)


class TestTableRoundTrip:
    @pytest.mark.parametrize("table", sorted(COLD_TABLES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_values_come_back_bitwise(self, tmp_path_factory, table, data):
        path = tmp_path_factory.getbasetemp() / f"round_trip_{table}.csv"
        (ints, floats), (back_ints, back_floats) = _round_trip(table, data, path)
        assert back_ints == ints
        assert _bits(back_floats) == _bits(floats)


# loader -> (reads the file, index of its first data line, whether rows are one field wide)
FUZZED_LOADERS = {
    "series": (load_series, 1, True),
    "series_csv": (lambda path: load_series(path, format="csv"), 1, True),
    "cloud": (load_cloud, 1, False),
    "landmarks": (load_landmarks, 2, False),
    "barcode": (load_barcode, 1, False),
    "lifespan": (load_lifespan_csv, 0, False),
    "edges": (lambda path: render_skeleton(path, path.with_name("edges_landmarks.csv")), 1, False),
}
EDGE_LANDMARKS = 4  # the landmarks an edges file may name: 0..3


def _write_valid_table(loader: str, rng, n: int, path) -> None:
    """Write an n-row table that ``loader`` reads, through the package's own writer."""
    if loader.startswith("series"):  # negative values, some in exponent form: every row has a sign to cut after
        values = -rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-8, 8, n)
        if loader == "series":
            save_series(ScalarSeries(values, 0.25), path)
        else:
            _write_table(path, ["x"], values)
    elif loader in ("cloud", "landmarks"):
        times, points = np.cumsum(rng.integers(1, 4, n)), rng.standard_normal((n, int(rng.integers(1, 4))))
        if loader == "cloud":
            save_cloud(PointCloud(points, times), path)
        else:
            save_landmarks(LandmarkSet(times, points, times + 5, spacing=3), path)
    elif loader == "barcode":
        births = rng.uniform(0.0, 1.0, n)
        deaths = np.where(rng.random(n) < 0.3, math.inf, births + rng.exponential(1.0, n))
        bars = [Interval(int(k), b, d, creator=0) for k, b, d in zip(rng.integers(0, 3, n), births, deaths)]
        save_barcode(Barcode(intervals=bars, dim_cap=3, filtration=None), path)
    elif loader == "edges":  # a 1-skeleton on a fixed set of landmarks, in the file named next to it
        coords = rng.standard_normal((EDGE_LANDMARKS, 2))
        save_landmarks(LandmarkSet(np.arange(EDGE_LANDMARKS), coords, np.arange(EDGE_LANDMARKS)),
                       path.with_name("edges_landmarks.csv"))
        i, j = rng.integers(0, EDGE_LANDMARKS, (2, n))
        _write_table(path, ["i,j,birth"], i, j, rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 2, n))
    else:
        save_lifespan_csv(rng.integers(0, 9, (n, n)), path)


def fuzz_table_file(data, loader, path) -> int:
    """Write a valid table with one defect that its loader must refuse; return the line the error must name."""
    _, first, narrow = FUZZED_LOADERS[loader]
    indexed = loader in ("cloud", "landmarks")
    n = data.draw(st.integers(2, 6))
    _write_valid_table(loader, np.random.default_rng(data.draw(st.integers(0, 10_000))), n, path)
    lines = path.read_text().splitlines()
    defects = ["truncate", "non_finite", "ragged"]
    if indexed:
        defects += ["unsorted", "duplicate"]
    if loader == "lifespan":
        defects.append("extra_row")
    if loader == "edges":
        defects.append("out_of_range")
    how = data.draw(st.sampled_from(defects))
    row = first + data.draw(st.integers(1 if indexed else 0, n - 1))  # the 0-based line given the defect
    fields, want = lines[row].split(","), row + 1
    if how == "truncate":  # end the file mid-row, just after a separator, a sign or an exponent marker
        cut = data.draw(st.sampled_from([i for i in range(1, len(lines[row])) if lines[row][i - 1] in ",-e"]))
        path.write_text("\n".join(lines[:row] + [lines[row][:cut]]))
        return want
    if how == "non_finite":  # into a float field; barcodes and edge files take inf, so only NaN is out of place there
        first_float = {"cloud": 1, "landmarks": 2, "barcode": 1, "edges": 2}.get(loader, 0)
        col = data.draw(st.integers(first_float, len(fields) - 1))
        bad = ["nan", "NaN", "-nan"] + ([] if loader in ("barcode", "edges") else ["inf", "-inf"])
        fields[col] = data.draw(st.sampled_from(bad))
    elif how == "ragged":  # one field more, or one fewer on a row that has more than one
        fields = fields[:-1] if not narrow and data.draw(st.booleans()) else fields + ["1"]
        if loader in ("series", "lifespan") and row == first:  # no header: the first row sets the width
            want += 1
    elif how in ("unsorted", "duplicate"):  # the index repeats or falls
        step = 0 if how == "duplicate" else data.draw(st.integers(1, 3))
        fields[0] = str(int(lines[row - 1].split(",")[0]) - step)
    elif how == "out_of_range":  # an edge end that is no landmark
        fields[data.draw(st.integers(0, 1))] = str(data.draw(st.sampled_from([-2, -1, EDGE_LANDMARKS, 10**6])))
    lines[row] = ",".join(fields)
    if how == "extra_row":  # a repeated row leaves the matrix non-square, which fails at its last row
        lines.insert(row, lines[row])
        want = first + n + 1
    path.write_text("\n".join(lines) + "\n")
    return want


class TestTableFileFuzz:
    @pytest.mark.parametrize("loader", sorted(FUZZED_LOADERS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bad_table_fails_with_a_located_error(self, tmp_path_factory, loader, data):
        path = tmp_path_factory.mktemp("fuzz") / f"{loader}.csv"
        want = fuzz_table_file(data, loader, path)
        with pytest.raises(SeriesFormatError) as exc:
            FUZZED_LOADERS[loader][0](path)
        assert exc.value.path == str(path)
        assert exc.value.line_no == want, str(exc.value)


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

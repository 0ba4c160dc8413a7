"""End-to-end command-line behavior: pipelines, provenance, and error paths."""

import hashlib
import json
import math

import numpy as np
import pytest

from topo_recon import __version__
from topo_recon.cli import main
from topo_recon.embed import PointCloud, load_cloud, save_cloud
from topo_recon.landmarks import LandmarkSet, load_landmarks, save_landmarks
from topo_recon.mscan import dm_filtration, sweep
from topo_recon.persistence import load_barcode, persistent_homology
from topo_recon.signal import ScalarSeries, integrate_lorenz, load_series, observe, save_series
from topo_recon.witness import distance_matrix, edge_births, load_filtration


def run(*argv):
    return main([str(a) for a in argv])


def read_run(out_dir):
    with open(out_dir / "run.json") as fh:
        return json.load(fh)


def sine_series_file(path, n=2_001, period=100):
    t = np.arange(n)
    save_series(ScalarSeries(np.sin(2.0 * np.pi * t / period), 0.001), path)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """generate -> embed -> landmarks -> complex -> barcode -> render."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run(
        "generate", "lorenz", "--steps", 3000, "--transient", 1000,
        "--out", "series.txt", "--out-dir", out,
    ) == 0
    assert run(
        "embed", "--in", out / "series.txt", "--m", 2, "--tau", 120,
        "--out", "cloud.csv", "--out-dir", out,
    ) == 0
    assert run(
        "landmarks", "--in", out / "cloud.csv", "--every", 150,
        "--out", "landmarks.csv", "--out-dir", out,
    ) == 0
    assert run(
        "complex", "--witnesses", out / "cloud.csv", "--landmarks", out / "landmarks.csv",
        "--epsilon", 1.0, "--dim-cap", 2, "--out", "filtration.json",
        "--edges-out", "edges.csv", "--out-dir", out,
    ) == 0
    assert run(
        "barcode", "--filtration", out / "filtration.json", "--out", "barcode.csv",
        "--eps-grid", "0,1,5", "--grid-out", "grid.csv",
        "--cycles-out", "cycles.csv", "--out-dir", out,
    ) == 0
    assert run(
        "render", "barcode", "--in", out / "barcode.csv",
        "--out", "barcode.svg", "--out-dir", out,
    ) == 0
    return out


class TestPipeline:
    def test_series_is_loadable(self, out):
        series = load_series(out / "series.txt")
        assert len(series) == 3000
        assert series.sample_interval == 0.001

    def test_cloud_matches_series(self, out):
        series = load_series(out / "series.txt")
        cloud = load_cloud(out / "cloud.csv")
        assert cloud.m == 2
        assert len(cloud) == 3000 - 120
        assert np.array_equal(cloud.points[:, 0], series.values[120:])

    def test_landmark_count(self, out):
        assert load_landmarks(out / "landmarks.csv").ell == math.ceil((3000 - 120) / 150)

    def test_filtration_is_capped_and_sorted(self, out):
        ff = load_filtration(out / "filtration.json")
        values = [v for _, v in ff.simplices]
        assert values == sorted(values)
        assert values[-1] <= 1.0

    def test_barcode_has_one_infinite_component(self, out):
        rows = load_barcode(out / "barcode.csv")
        inf_k0 = [r for r in rows if r[0] == 0 and math.isinf(r[2])]
        assert len(inf_k0) == 1

    def test_grid_layout(self, out):
        ff = load_filtration(out / "filtration.json")
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[0] == "epsilon," + ",".join(f"beta{k}" for k in range(ff.dim_cap))
        assert len(lines) == 6

    def test_cycles_file_has_header(self, out):
        assert (out / "cycles.csv").read_text().splitlines()[0] == "cycle,k,birth,death,simplex"

    def test_svg_written(self, out):
        assert (out / "barcode.svg").read_text().startswith("<svg")

    def test_run_json_provenance(self, out):
        record = read_run(out)
        assert record["subcommand"] == "render"
        assert record["version"] == __version__
        assert {"seed", "params", "artifacts"} <= set(record)
        for artifact in record["artifacts"]:
            digest = hashlib.sha256(open(artifact["path"], "rb").read()).hexdigest()
            assert artifact["sha256"] == digest
            assert artifact["bytes"] > 0


class TestRunRecords:
    """Each step's record stays in run.json: the newest at the top level, the earlier ones under previous."""

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        """README steps 2-7 into one directory."""
        d, series = tmp_path_factory.mktemp("readme"), tmp_path_factory.mktemp("input") / "series.txt"
        save_series(observe(integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=6_001, transient_steps=1_000), "x"), series)
        steps = [
            ["ami", "--in", series, "--tau-max", 200, "--out", "ami.csv"],
            ["embed", "--in", series, "--m", 2, "--tau-max", 200, "--out", "cloud.csv"],
            ["landmarks", "--in", d / "cloud.csv", "--every", 100, "--out", "landmarks.csv"],
            ["complex", "--witnesses", d / "cloud.csv", "--landmarks", d / "landmarks.csv",
             "--epsilon", 0.5, "--dim-cap", 2, "--out", "filtration.json", "--edges-out", "edges.csv"],
            ["barcode", "--filtration", d / "filtration.json", "--out", "barcode.csv",
             "--eps-grid", "0,0.5,6", "--grid-out", "grid.csv", "--cycles-out", "cycles.csv"],
            ["render", "barcode", "--in", d / "barcode.csv", "--out", "barcode.svg"],
            ["render", "skeleton", "--edges", d / "edges.csv", "--landmarks", d / "landmarks.csv",
             "--out", "skeleton.svg"],
        ]
        for argv in steps:
            assert run(*argv, "--out-dir", d) == 0, argv
        return d

    def test_every_step_kept_in_order(self, pipeline):
        last = read_run(pipeline)
        records = [*last.pop("previous"), last]
        assert [r["subcommand"] for r in records] == [
            "ami", "embed", "landmarks", "complex", "barcode", "render", "render"
        ]
        assert [r["params"].get("kind") for r in records[-2:]] == ["barcode", "skeleton"]
        assert all("previous" not in r for r in records)
        for record in records:
            assert record["seconds"] >= 0 and record["peak_rss_mb"] > 0
            for artifact in record["artifacts"]:
                digest = hashlib.sha256(open(artifact["path"], "rb").read()).hexdigest()
                assert artifact["sha256"] == digest, artifact["path"]

    def test_complex_records_its_sizes(self, pipeline):
        last = read_run(pipeline)
        (record,) = [r for r in last["previous"] if r["subcommand"] == "complex"]
        filtration = load_filtration(pipeline / "filtration.json")
        counts = record["counts"]
        assert counts["witnesses"] == len(load_cloud(pipeline / "cloud.csv").points)
        assert counts["landmarks"] == load_landmarks(pipeline / "landmarks.csv").ell
        assert counts["simplices_by_dim"] == {str(d): n for d, n in filtration.counts_by_dim().items()}
        assert counts["edges_le_cap"] == filtration.counts_by_dim()[1]

    def test_complex_records_the_distances_its_births_computed(self, pipeline):
        (record,) = [r for r in read_run(pipeline)["previous"] if r["subcommand"] == "complex"]
        cloud, lms = load_cloud(pipeline / "cloud.csv"), load_landmarks(pipeline / "landmarks.csv")
        ef = edge_births(distance_matrix(cloud.points, lms.coords), cap=0.5)
        counts = record["counts"]
        assert counts["births_distances"] == ef.distances
        assert (counts["births_listed"], counts["births_run_chunks"]) == (ef.listed, ef.run_chunks)
        assert counts["births_listed"] + counts["births_run_chunks"] > 0
        # the cap prunes: the births computed fewer than the witnesses x landmarks distances
        assert 0 < counts["births_distances"] < counts["witnesses"] * counts["landmarks"]

    def test_complex_records_its_stage_seconds(self, pipeline):
        # and so do the other steps that read, compute and write: each stage is timed inside the step's seconds
        want = {
            "ami": ["ami", "reading", "writing"],
            "embed": ["ami", "embedding", "reading", "writing"],
            "landmarks": ["reading", "selection", "writing"],
            "complex": ["births", "expansion", "writing"],
            "barcode": ["cycles", "reading", "reduction", "writing"],
        }
        for step, names in want.items():
            (record,) = [r for r in read_run(pipeline)["previous"] if r["subcommand"] == step]
            stages = record["stage_seconds"]
            assert sorted(stages) == names, step
            assert all(s >= 0 for s in stages.values()) and sum(stages.values()) <= record["seconds"]
            # and the process's peak RSS after each stage, none above the step's
            peaks = record["stage_peak_rss_mb"]
            assert sorted(peaks) == names, step
            assert all(0 < p <= record["peak_rss_mb"] for p in peaks.values())

    def test_barcode_records_its_reduction(self, pipeline):
        last = read_run(pipeline)
        (record,) = [r for r in last["previous"] if r["subcommand"] == "barcode"]
        filtration = load_filtration(pipeline / "filtration.json")
        counts = persistent_homology(filtration).counts
        assert record["counts"] == json.loads(json.dumps(counts))
        columns = record["counts"]["reduced_columns"]["1"] + record["counts"]["cleared_columns"]["1"]
        assert columns == filtration.counts_by_dim()[1]

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"params": {}}'])
    def test_unreadable_record_starts_a_new_one(self, tmp_path, text):
        (tmp_path / "run.json").write_text(text)
        sine_series_file(tmp_path / "s.txt")
        assert run("noise", "--in", tmp_path / "s.txt", "--nu", 0.1, "--out", "n.txt", "--out-dir", tmp_path) == 0
        record = read_run(tmp_path)
        assert record["subcommand"] == "noise" and record["previous"] == []


class TestGenerate:
    def test_deterministic_output_bytes(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            assert run(
                "generate", "lorenz", "--steps", 200, "--transient", 50,
                "--out", name, "--out-dir", tmp_path,
            ) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_traj_out_full_state(self, tmp_path):
        assert run(
            "generate", "lorenz", "--steps", 100, "--transient", 10,
            "--out", "s.txt", "--traj-out", "traj.csv", "--out-dir", tmp_path,
        ) == 0
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,c0,c1,c2"
        assert len(lines) == 101
        traj = integrate_lorenz(n_steps=100, transient_steps=10)
        for t in (0, 99):
            assert lines[t + 1] == f"{t}," + ",".join(repr(float(v)) for v in traj.points[t])

    def test_observe_selector(self, tmp_path):
        assert run(
            "generate", "lorenz", "--steps", 100, "--transient", 10, "--observe", "z",
            "--out", "z.txt", "--out-dir", tmp_path,
        ) == 0
        z = load_series(tmp_path / "z.txt")
        assert z.values.min() > 0.0  # the third coordinate stays positive on the attractor

    def test_observe_by_index(self, tmp_path):
        for flag in ("1", "y"):
            assert run(
                "generate", "lorenz", "--steps", 100, "--transient", 10, "--observe", flag,
                "--out", f"{flag}.txt", "--out-dir", tmp_path,
            ) == 0
        assert (tmp_path / "1.txt").read_bytes() == (tmp_path / "y.txt").read_bytes()

    def test_observe_index_out_of_range(self, tmp_path, capsys):
        rc = run(
            "generate", "lorenz", "--steps", 100, "--transient", 10, "--observe", 3,
            "--out", "s.txt", "--out-dir", tmp_path,
        )
        assert rc == 1
        assert "error: coordinate index 3 out of range for dimension 3" in capsys.readouterr().err
        assert not (tmp_path / "s.txt").exists()

    def test_custom_ic(self, tmp_path):
        assert run(
            "generate", "lorenz", "--steps", 50, "--transient", 0, "--ic", "5,5,5",
            "--out", "s.txt", "--out-dir", tmp_path,
        ) == 0
        record = read_run(tmp_path)
        assert record["params"]["ic"] == [5.0, 5.0, 5.0]

    def test_bad_ic_reports_error(self, tmp_path, capsys):
        rc = run("generate", "lorenz", "--ic", "1,2", "--out", "s.txt", "--out-dir", tmp_path)
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestNoise:
    def test_zero_width_preserves_bytes(self, tmp_path):
        sine_series_file(tmp_path / "s.txt")
        assert run(
            "noise", "--in", tmp_path / "s.txt", "--nu", 0.0,
            "--out", "noisy.txt", "--out-dir", tmp_path,
        ) == 0
        assert (tmp_path / "noisy.txt").read_bytes() == (tmp_path / "s.txt").read_bytes()

    def test_seeded_noise_reproducible(self, tmp_path):
        sine_series_file(tmp_path / "s.txt")
        for name, seed in [("n1.txt", 3), ("n2.txt", 3), ("n3.txt", 4)]:
            assert run(
                "noise", "--in", tmp_path / "s.txt", "--nu", 0.5, "--seed", seed,
                "--out", name, "--out-dir", tmp_path,
            ) == 0
        assert (tmp_path / "n1.txt").read_bytes() == (tmp_path / "n2.txt").read_bytes()
        assert (tmp_path / "n1.txt").read_bytes() != (tmp_path / "n3.txt").read_bytes()

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc = run("noise", "--in", tmp_path / "nope.txt", "--nu", 1.0,
                 "--out", "x.txt", "--out-dir", tmp_path)
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("nu", ["inf", "nan"])
    def test_non_finite_width_rejected(self, tmp_path, capsys, nu):
        sine_series_file(tmp_path / "s.txt")
        rc = run("noise", "--in", tmp_path / "s.txt", "--nu", nu,
                 "--out", "x.txt", "--out-dir", tmp_path)
        assert rc == 1
        assert f"error: nu must be a finite nonnegative number, got {nu}" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()


class TestAmiAndEmbed:
    def test_ami_curve_csv_and_minimum(self, tmp_path):
        sine_series_file(tmp_path / "s.txt", period=100)
        assert run(
            "ami", "--in", tmp_path / "s.txt", "--tau-max", 80,
            "--out", "ami.csv", "--out-dir", tmp_path,
        ) == 0
        lines = (tmp_path / "ami.csv").read_text().splitlines()
        assert lines[0] == "tau,ami_bits"
        assert len(lines) == 82
        record = read_run(tmp_path)
        assert record["params"]["first_minimum"] is not None

    def test_embed_auto_tau_recorded(self, tmp_path):
        sine_series_file(tmp_path / "s.txt", period=100)
        assert run(
            "embed", "--in", tmp_path / "s.txt", "--m", 2, "--tau", "auto",
            "--tau-max", 80, "--out", "cloud.csv", "--out-dir", tmp_path,
        ) == 0
        record = read_run(tmp_path)
        assert record["params"]["tau_source"] == "ami_first_minimum"
        tau = record["params"]["tau_steps"]
        assert 1 <= tau <= 79
        assert load_cloud(tmp_path / "cloud.csv").time_index[0] == tau

    def test_embed_rejects_bad_tau(self, tmp_path, capsys):
        sine_series_file(tmp_path / "s.txt")
        rc = run("embed", "--in", tmp_path / "s.txt", "--m", 2, "--tau", 0,
                 "--out", "c.csv", "--out-dir", tmp_path)
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "mscan"])
    @pytest.mark.parametrize("value", ["abc", "2.5", "-3"])
    def test_non_integer_tau_names_the_flag(self, tmp_path, capsys, command, value):
        sine_series_file(tmp_path / "s.txt")
        flags = ["--m", 2, "--out", "c.csv"] if command == "embed" else ["--xi", 0.05, "--every", 100, "--m-max", 2]
        rc = run(command, "--in", tmp_path / "s.txt", "--tau", value, *flags, "--out-dir", tmp_path / "out")
        assert rc == 1
        assert capsys.readouterr().err == f"error: --tau must be a positive integer or 'auto', got '{value}'\n"
        assert not (tmp_path / "out").exists()

    def test_constant_series_fails_cleanly(self, tmp_path, capsys):
        save_series(ScalarSeries(np.ones(500), 1.0), tmp_path / "flat.txt")
        rc = run("ami", "--in", tmp_path / "flat.txt", "--tau-max", 10,
                 "--out", "a.csv", "--out-dir", tmp_path)
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cloud_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scales")
    sine_series_file(out / "s.txt")
    run("embed", "--in", out / "s.txt", "--m", 2, "--tau", 25,
        "--out", "cloud.csv", "--out-dir", out)
    run("landmarks", "--in", out / "cloud.csv", "--every", 100,
        "--out", "lm.csv", "--out-dir", out)
    return out


class TestComplexScales:
    def test_xi_and_epsilon_give_identical_filtrations(self, cloud_dir):
        from topo_recon.embed import bbox_diameter

        diam = bbox_diameter(load_cloud(cloud_dir / "cloud.csv"))
        xi = 0.12
        assert run(
            "complex", "--witnesses", cloud_dir / "cloud.csv", "--landmarks", cloud_dir / "lm.csv",
            "--xi", xi, "--out", "by_xi.json", "--out-dir", cloud_dir,
        ) == 0
        assert run(
            "complex", "--witnesses", cloud_dir / "cloud.csv", "--landmarks", cloud_dir / "lm.csv",
            "--epsilon", xi * diam, "--out", "by_eps.json", "--out-dir", cloud_dir,
        ) == 0
        assert (cloud_dir / "by_xi.json").read_bytes() == (cloud_dir / "by_eps.json").read_bytes()

    def test_maxmin_landmarks(self, cloud_dir):
        assert run(
            "landmarks", "--in", cloud_dir / "cloud.csv", "--maxmin", 12, "--seed", 1,
            "--out", "mm.csv", "--out-dir", cloud_dir,
        ) == 0
        lms = load_landmarks(cloud_dir / "mm.csv")
        assert lms.ell == 12
        assert lms.spacing == 0

    def test_simplex_budget_reported(self, cloud_dir, capsys):
        rc = run(
            "complex", "--witnesses", cloud_dir / "cloud.csv", "--landmarks", cloud_dir / "lm.csv",
            "--epsilon", 3.0, "--max-simplices", 10, "--out", "f.json", "--out-dir", cloud_dir,
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flag,value", [("--epsilon", -1), ("--epsilon", "nan"), ("--epsilon", "inf"), ("--xi", "nan"), ("--xi", -0.1)]
    )
    def test_bad_scale_rejected(self, cloud_dir, capsys, flag, value):
        rc = run(
            "complex", "--witnesses", cloud_dir / "cloud.csv", "--landmarks", cloud_dir / "lm.csv",
            flag, value, "--out", "bad_scale.json", "--out-dir", cloud_dir,
        )
        assert rc == 1
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert not (cloud_dir / "bad_scale.json").exists()

    def test_non_finite_landmark_rejected(self, cloud_dir, capsys):
        (cloud_dir / "nan_lm.csv").write_text("idx,t,c0,c1\n0,0,0.0,0.0\n1,1,nan,1.0\n")
        rc = run(
            "complex", "--witnesses", cloud_dir / "cloud.csv", "--landmarks", cloud_dir / "nan_lm.csv",
            "--epsilon", 0.5, "--out", "nan.json", "--out-dir", cloud_dir,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {cloud_dir / 'nan_lm.csv'}: line 3: non-finite landmark coordinate" in err
        assert not (cloud_dir / "nan.json").exists()


@pytest.fixture(scope="module")
def octahedron(tmp_path_factory):
    """A filtration written by ``complex --dim-cap 2``: landmarks at the six unit axis points among 2,000
    witnesses on the unit sphere, read to epsilon 0.5.  Antipodal landmarks are born at 0.64 or later,
    so the complex is the octahedron: its flag complex at dim_cap 3 has one H2 class."""
    d = tmp_path_factory.mktemp("octahedron")
    sphere = np.random.default_rng(0).normal(size=(2_000, 3))
    axes = np.vstack((np.eye(3), -np.eye(3)))
    points = np.vstack((axes, sphere / np.linalg.norm(sphere, axis=1, keepdims=True)))
    save_cloud(PointCloud(points, np.arange(len(points))), d / "sphere.csv")
    save_landmarks(LandmarkSet(np.arange(6), axes, np.arange(6)), d / "axes.csv")
    assert run("complex", "--witnesses", d / "sphere.csv", "--landmarks", d / "axes.csv", "--epsilon", 0.5,
               "--dim-cap", 2, "--out", "octahedron.json", "--out-dir", d) == 0
    return d / "octahedron.json"


class TestBarcode:
    def test_dim_cap_reports_top_dimension(self, tmp_path, octahedron):
        assert run("barcode", "--filtration", octahedron, "--out", "default.csv", "--out-dir", tmp_path) == 0
        assert {k for k, _, _ in load_barcode(tmp_path / "default.csv")} == {0, 1}
        assert "dim_cap" not in read_run(tmp_path)["params"]
        assert run("barcode", "--filtration", octahedron, "--out", "b.csv", "--dim-cap", 3,
                   "--out-dir", tmp_path) == 0
        last = max(entry["value"] for entry in json.loads(octahedron.read_text()))  # the last triangle's
        assert [row for row in load_barcode(tmp_path / "b.csv") if row[0] == 2] == [(2, last, math.inf)]
        assert read_run(tmp_path)["params"]["dim_cap"] == 3

    @pytest.mark.parametrize("value", [0, 4, -1])
    def test_dim_cap_out_of_range_rejected(self, tmp_path, capsys, value, octahedron):
        rc = run("barcode", "--filtration", octahedron, "--out", "b.csv", "--dim-cap", value, "--out-dir", tmp_path)
        assert rc == 1
        if value < 1:  # refused before the file is read
            assert capsys.readouterr().err == f"error: --dim-cap must be at least 1, got {value}\n"
        else:
            assert f"error: {octahedron}: dim_cap must be in 1..3 for this filtration, got {value}" in (
                capsys.readouterr().err)
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("dim_cap", [1, 2, 3])
    def test_dim_cap_reads_as_complex_writes(self, tmp_path, out, dim_cap):
        # a file of complex --dim-cap 2 read at D gives the barcode of complex --dim-cap D, byte for byte;
        # at D = 3 that is H2 of the clique complex, its tetrahedra read from the edges
        assert run("complex", "--witnesses", out / "cloud.csv", "--landmarks", out / "landmarks.csv",
                   "--epsilon", 1.0, "--dim-cap", dim_cap, "--out", "f.json", "--out-dir", tmp_path) == 0
        assert run("barcode", "--filtration", tmp_path / "f.json", "--out", "want.csv", "--out-dir", tmp_path) == 0
        assert run("barcode", "--filtration", out / "filtration.json", "--dim-cap", dim_cap, "--out", "got.csv",
                   "--out-dir", tmp_path) == 0
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert {k for k, _, _ in load_barcode(tmp_path / "got.csv")} <= set(range(dim_cap))

    @pytest.mark.parametrize("entries", ['[{"x": 1}]', "[1, 2]"])
    def test_malformed_entry_rejected(self, tmp_path, capsys, entries):
        (tmp_path / "f.json").write_text(entries)
        rc = run("barcode", "--filtration", tmp_path / "f.json", "--out", "b.csv", "--out-dir", tmp_path)
        assert rc == 1
        assert f"error: {tmp_path / 'f.json'}: entry 0 is not an object" in capsys.readouterr().err

    def test_nan_value_rejected(self, tmp_path, capsys):
        entries = [{"vertices": [v], "value": value} for v, value in enumerate([0.0, math.nan, 1.0])]
        (tmp_path / "f.json").write_text(json.dumps(entries))
        rc = run("barcode", "--filtration", tmp_path / "f.json", "--out", "b.csv", "--out-dir", tmp_path)
        assert rc == 1
        assert (f"error: {tmp_path / 'f.json'}: entry 1 ([1] at nan) is not a nonempty increasing list of vertex"
                " ids in 0..2 with a non-NaN value") in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_truncated_filtration_is_located(self, tmp_path, capsys):
        (tmp_path / "f.json").write_text('[\n{"vertices": [0], "value": 0.0},\n{"vertices": [1], "val')
        rc = run("barcode", "--filtration", tmp_path / "f.json", "--out", "b.csv", "--out-dir", tmp_path)
        assert rc == 1
        assert f"error: {tmp_path / 'f.json'}: line 3: Unterminated string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", ["0,nan,3", "nan,1,3", "0,inf,3", "0,0.25,2.5", "0,0.25,-1", "0,0.25,0", "0,1,inf", "0,abc,3", "0,1"]
    )
    def test_bad_eps_grid_rejected_before_reading(self, tmp_path, capsys, grid):
        # the filtration does not exist: the grid must be refused first
        rc = run("barcode", "--filtration", tmp_path / "missing.json", "--out", "b.csv",
                 "--eps-grid", grid, "--grid-out", "grid.csv", "--out-dir", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --eps-grid ") and grid in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message", [(("--cycles-top", -1), "--cycles-top must be nonnegative, got -1"),
                           (("--cycles-k", 0), "--cycles-k must be at least 1, got 0"),
                           (("--cycles-k", 2), "--cycles-k must be below the barcode's dim_cap 2, got 2"),
                           (("--dim-cap", 1, "--cycles-k", 1),
                            "--cycles-k must be below the barcode's dim_cap 1, got 1")]
    )
    def test_bad_cycle_flags_rejected_before_writing(self, tmp_path, capsys, flags, message, octahedron):
        rc = run("barcode", "--filtration", octahedron, "--out", "b.csv", "--cycles-out", "c.csv", *flags,
                 "--out-dir", tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and err.count("error:") == 1
        assert not (tmp_path / "out").exists()


class TestMscan:
    @pytest.mark.parametrize("value, message", [(-1, "must be nonnegative"), (999, "must be below the ")])
    def test_bad_barcode_landmark_rejected_before_writing(self, tmp_path, capsys, value, message):
        sine_series_file(tmp_path / "s.txt")
        rc = run("mscan", "--in", tmp_path / "s.txt", "--tau", 25, "--xi", 0.05, "--every", 100, "--m-max", 2,
                 "--barcode-landmark", value, "--out-dir", tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --barcode-landmark ") and message in err and f"got {value}" in err
        assert not (tmp_path / "out").exists()

    def test_m_max_above_the_existence_bits_rejected(self, tmp_path, capsys):
        sine_series_file(tmp_path / "s.txt")
        rc = run("mscan", "--in", tmp_path / "s.txt", "--tau", 25, "--xi", 0.05, "--every", 100, "--m-max", 33,
                 "--out-dir", tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --m-max must be in 1..32, got 33"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [0, -1])
    def test_bad_dim_cap_rejected_before_writing(self, tmp_path, capsys, value):
        sine_series_file(tmp_path / "s.txt")
        rc = run("mscan", "--in", tmp_path / "s.txt", "--tau", 25, "--xi", 0.05, "--every", 100, "--m-max", 2,
                 "--dim-cap", value, "--out-dir", tmp_path / "out")
        assert rc == 1
        assert capsys.readouterr().err == f"error: --dim-cap must be at least 1, got {value}\n"
        assert not (tmp_path / "out").exists()

    def test_records_the_lifespan_reduction(self, tmp_path):
        sine_series_file(tmp_path / "s.txt")
        rc = run("mscan", "--in", tmp_path / "s.txt", "--tau", 25, "--xi", 0.05, "--every", 100, "--m-max", 3,
                 "--out-dir", tmp_path)
        assert rc == 0
        sw = sweep(load_series(tmp_path / "s.txt"), 25, 0.05, 100, 3)
        counts = dm_filtration(sw, dim_cap=2).barcode.counts
        assert counts["reduced_columns"] and read_run(tmp_path)["counts"] == json.loads(json.dumps(counts))

    def test_records_its_stage_seconds(self, tmp_path):
        sine_series_file(tmp_path / "s.txt")
        assert run("mscan", "--in", tmp_path / "s.txt", "--tau", 25, "--xi", 0.05, "--every", 100, "--m-max", 3,
                   "--out-dir", tmp_path) == 0
        record = read_run(tmp_path)
        stages = record["stage_seconds"]
        assert sorted(stages) == ["births_per_m", "dm_filtration"]
        assert len(stages["births_per_m"]) == 3 and min(stages["births_per_m"]) >= 0 and stages["dm_filtration"] >= 0
        assert sum(stages["births_per_m"]) + stages["dm_filtration"] <= record["seconds"]
        peaks = record["stage_peak_rss_mb"]  # after the whole sweep, then after the lifespan filtration's barcode
        assert sorted(peaks) == sorted(stages)
        assert 0 < peaks["births_per_m"] <= peaks["dm_filtration"] <= record["peak_rss_mb"]
        assert record["counts"]["largest_column"] >= 0

    def test_records_the_distances_each_births_computed(self, tmp_path):
        sine_series_file(tmp_path / "s.txt")
        assert run("mscan", "--in", tmp_path / "s.txt", "--tau", 25, "--xi", 0.05, "--every", 100, "--m-max", 3,
                   "--out-dir", tmp_path) == 0
        params = read_run(tmp_path)["params"]
        sw = sweep(load_series(tmp_path / "s.txt"), 25, 0.05, 100, 3)
        assert params["witnesses"] == sw.witnesses == 2_001 - 2 * 25
        assert params["births_distances"] == [ef.distances for ef in sw.per_m]
        assert params["births_listed"] == [ef.listed for ef in sw.per_m]
        assert params["births_run_chunks"] == [ef.run_chunks for ef in sw.per_m]

    @pytest.mark.parametrize("value", ["nan", -0.05])
    def test_bad_xi_rejected(self, tmp_path, capsys, value):
        sine_series_file(tmp_path / "s.txt")
        rc = run("mscan", "--in", tmp_path / "s.txt", "--tau", 25, "--xi", value, "--out-dir", tmp_path)
        assert rc == 1
        assert "error: --xi must be" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

    def test_outputs_and_provenance(self, tmp_path):
        sine_series_file(tmp_path / "s.txt")
        assert run(
            "mscan", "--in", tmp_path / "s.txt", "--tau", 25, "--xi", 0.05,
            "--every", 100, "--m-max", 3, "--out-dir", tmp_path,
        ) == 0
        for name in ("lifespan.csv", "existence.csv", "dimension_barcode_0.csv", "dm_barcode.csv"):
            assert (tmp_path / name).exists(), name
        record = read_run(tmp_path)
        assert record["params"]["m_max"] == 3
        assert len(record["params"]["epsilons"]) == 3
        assert len(record["artifacts"]) == 4
        ell = record["params"]["ell"]
        matrix = np.loadtxt(tmp_path / "lifespan.csv", delimiter=",", dtype=int)
        assert matrix.shape == (ell, ell)
        assert run(
            "render", "heatmap", "--in", tmp_path / "lifespan.csv",
            "--out", "heat.svg", "--out-dir", tmp_path,
        ) == 0
        assert (tmp_path / "heat.svg").exists()


class TestErrorPaths:
    @staticmethod
    def missing_input_argv(tmp_path, command):
        """Flags that name input files which do not exist; embed and mscan also ask for --tau auto."""
        return {
            "complex": ["--witnesses", tmp_path / "w.csv", "--landmarks", tmp_path / "lm.csv", "--epsilon", 0.5,
                        "--out", "f.json"],
            "mscan": ["--in", tmp_path / "s.txt", "--tau", "auto", "--xi", 0.05],
            "embed": ["--in", tmp_path / "s.txt", "--tau", "auto", "--out", "c.csv"],
            "landmarks": ["--in", tmp_path / "cloud.csv", "--out", "l.csv"],
            "ami": ["--in", tmp_path / "s.txt", "--out", "ami.csv"],
            "barcode": ["--filtration", tmp_path / "f.json", "--out", "b.csv"],
        }[command]

    @pytest.mark.parametrize(
        "command, flag, value",
        [("complex", "--dim-cap", 0), ("complex", "--max-simplices", 0), ("complex", "--max-simplices", -3),
         ("mscan", "--every", 0), ("embed", "--m", 0), ("embed", "--m", -2), ("landmarks", "--every", 0),
         ("landmarks", "--maxmin", 0), ("landmarks", "--maxmin", -1), ("barcode", "--dim-cap", 0)],
    )
    def test_bad_count_flags_rejected_before_any_input(self, tmp_path, capsys, command, flag, value):
        # no input file exists, and --tau auto would run the AMI first: the flag must be refused before both
        rc = run(command, *self.missing_input_argv(tmp_path, command), flag, value, "--out-dir", tmp_path / "out")
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flags, message",
        [("ami", ["--tau-max", 1], "--tau-max must be at least 2, got 1"),
         ("ami", ["--tau-max", 50, "--bins", 0], "--bins must be at least 2, got 0"),
         ("ami", ["--tau-max", 50, "--bins", 1], "--bins must be at least 2, got 1"),
         ("embed", ["--m", 2, "--tau-max", 1], "--tau-max must be at least 2, got 1"),
         ("embed", ["--m", 2, "--bins", -4], "--bins must be at least 2, got -4"),
         ("embed", ["--m", 3, "--m-anchor", 2], "--m-anchor must be at least --m 3, got 2"),
         ("mscan", ["--tau-max", 0], "--tau-max must be at least 2, got 0"),
         ("mscan", ["--bins", 0], "--bins must be at least 2, got 0")],
    )
    def test_bad_ami_and_anchor_flags_rejected_before_any_input(self, tmp_path, capsys, command, flags, message):
        # the input file does not exist, and embed and mscan ask for --tau auto: the flag is refused before both
        rc = run(command, *self.missing_input_argv(tmp_path, command), *flags, "--out-dir", tmp_path / "out")
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [0, -1, 33])
    def test_m_max_out_of_range_rejected_before_any_input(self, tmp_path, capsys, value):
        rc = run("mscan", *self.missing_input_argv(tmp_path, "mscan"), "--m-max", value, "--out-dir", tmp_path / "out")
        assert rc == 1
        assert capsys.readouterr().err == f"error: --m-max must be in 1..32, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    def test_render_heatmap_non_square_matrix(self, tmp_path, capsys):
        (tmp_path / "lifespan.csv").write_text("0,1\n1,0\n2,2\n")
        rc = run("render", "heatmap", "--in", tmp_path / "lifespan.csv", "--out", "heat.svg", "--out-dir", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lifespan.csv" in err and "line 3" in err and "not square" in err
        assert not (tmp_path / "heat.svg").exists()

    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_flag_usage_error(self, capsys):
        rc = run("generate", "lorenz", "--nope", "--out", "s.txt")
        assert rc == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_subcommand(self, capsys):
        assert run() == 2

    def test_render_requires_input(self, tmp_path, capsys):
        rc = run("render", "barcode", "--out", "x.svg", "--out-dir", tmp_path)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_render_skeleton_requires_both_files(self, tmp_path, capsys):
        rc = run("render", "skeleton", "--out", "x.svg", "--out-dir", tmp_path)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_render_skeleton_smoke(self, tmp_path):
        sine_series_file(tmp_path / "s.txt")
        run("embed", "--in", tmp_path / "s.txt", "--m", 2, "--tau", 25,
            "--out", "cloud.csv", "--out-dir", tmp_path)
        run("landmarks", "--in", tmp_path / "cloud.csv", "--every", 200,
            "--out", "lm.csv", "--out-dir", tmp_path)
        run("complex", "--witnesses", tmp_path / "cloud.csv", "--landmarks", tmp_path / "lm.csv",
            "--epsilon", 0.5, "--out", "f.json", "--edges-out", "edges.csv", "--out-dir", tmp_path)
        assert run(
            "render", "skeleton", "--edges", tmp_path / "edges.csv",
            "--landmarks", tmp_path / "lm.csv", "--view", "30,45",
            "--out", "skel.svg", "--out-dir", tmp_path,
        ) == 0
        assert (tmp_path / "skel.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("index", [7, -1])
    def test_render_skeleton_rejects_unknown_landmark(self, tmp_path, capsys, index):
        lms = LandmarkSet(np.arange(2), np.array([[0.0, 0.0], [1.0, 1.0]]), np.arange(2))
        save_landmarks(lms, tmp_path / "lm.csv")
        (tmp_path / "edges.csv").write_text(f"i,j,birth\n0,1,0.5\n{index},1,0.7\n")
        rc = run("render", "skeleton", "--edges", tmp_path / "edges.csv", "--landmarks", tmp_path / "lm.csv",
                 "--out", "skel.svg", "--out-dir", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'edges.csv'}: line 3: edge ({index}, 1) names a landmark outside [0, 2)" in err
        assert not (tmp_path / "skel.svg").exists()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A native and a CSV series, and the cloud, landmarks, filtration, edges, barcode and lifespan made from them."""
    d = tmp_path_factory.mktemp("inputs")
    sine_series_file(d / "s.txt")
    (d / "s.csv").write_text("x\n" + "".join(f"{v!r}\n" for v in load_series(d / "s.txt").values.tolist()))
    steps = [
        ["embed", "--in", d / "s.txt", "--m", 2, "--tau", 25, "--out", "cloud.csv"],
        ["landmarks", "--in", d / "cloud.csv", "--every", 100, "--out", "lm.csv"],
        ["complex", "--witnesses", d / "cloud.csv", "--landmarks", d / "lm.csv", "--epsilon", 0.5,
         "--dim-cap", 2, "--out", "f.json", "--edges-out", "edges.csv"],
        ["barcode", "--filtration", d / "f.json", "--out", "barcode.csv"],
        ["mscan", "--in", d / "s.txt", "--tau", 25, "--xi", 0.05, "--every", 100, "--m-max", 3],
    ]
    for argv in steps:
        assert run(*argv, "--out-dir", d) == 0, argv
    return d


CSV_FLAGS = ["--in", "{d}/s.csv", "--format", "csv", "--sample-interval", 0.01]
CSV_PARAMS = {"input": "{d}/s.csv", "format": "csv", "sample_interval": 0.01}

# command line (with {d} for the inputs directory) -> the params it must record
PROVENANCE_CASES = {
    "generate": (
        ["generate", "lorenz", "--r", 30.0, "--dt", 0.005, "--steps", 600, "--transient", 100, "--ic", "1,2,3",
         "--observe", "y", "--out", "s.txt", "--traj-out", "traj.csv"],
        {"system": "lorenz", "r": 30.0, "dt": 0.005, "steps": 600, "transient": 100, "ic": [1.0, 2.0, 3.0],
         "observe": "y", "out": "s.txt", "traj_out": "traj.csv"},
    ),
    "noise": (["noise", *CSV_FLAGS, "--nu", 0.1, "--out", "n.txt"], {**CSV_PARAMS, "nu": 0.1, "out": "n.txt"}),
    "ami": (
        ["ami", *CSV_FLAGS, "--tau-max", 60, "--bins", 16, "--out", "ami.csv"],
        {**CSV_PARAMS, "tau_max": 60, "bins": 16, "out": "ami.csv"},
    ),
    "embed": (
        ["embed", *CSV_FLAGS, "--m", 2, "--tau", 25, "--m-anchor", 3, "--out", "c.csv"],
        {**CSV_PARAMS, "m": 2, "tau": "25", "m_anchor": 3, "tau_steps": 25, "out": "c.csv"},
    ),
    "landmarks_every": (
        ["landmarks", "--in", "{d}/cloud.csv", "--every", 150, "--out", "l.csv"],
        {"input": "{d}/cloud.csv", "every": 150, "method": "evenly_spaced", "out": "l.csv"},
    ),
    "landmarks_maxmin": (
        ["landmarks", "--in", "{d}/cloud.csv", "--maxmin", 9, "--seed", 3, "--out", "l.csv"],
        {"input": "{d}/cloud.csv", "maxmin": 9, "method": "maxmin", "ell_selected": 9, "out": "l.csv"},
    ),
    "complex_xi": (
        ["complex", "--witnesses", "{d}/cloud.csv", "--landmarks", "{d}/lm.csv", "--xi", 0.1, "--dim-cap", 2,
         "--max-simplices", 10**6, "--out", "f.json", "--edges-out", "e.csv"],
        {"witnesses": "{d}/cloud.csv", "landmarks": "{d}/lm.csv", "xi": 0.1, "dim_cap": 2,
         "max_simplices": 10**6, "out": "f.json", "edges_out": "e.csv"},
    ),
    "complex_epsilon": (
        ["complex", "--witnesses", "{d}/cloud.csv", "--landmarks", "{d}/lm.csv", "--epsilon", 0.4, "--out", "f.json"],
        {"witnesses": "{d}/cloud.csv", "landmarks": "{d}/lm.csv", "epsilon": 0.4, "out": "f.json"},
    ),
    "barcode": (
        ["barcode", "--filtration", "{d}/f.json", "--dim-cap", 2, "--eps-grid", "0,0.5,6", "--grid-out", "g.csv",
         "--cycles-out", "cy.csv", "--cycles-k", 1, "--cycles-top", 3, "--out", "b.csv"],
        {"filtration": "{d}/f.json", "dim_cap": 2, "eps_grid": [0.0, 0.5, 6], "grid_out": "g.csv",
         "cycles_out": "cy.csv", "cycles_k": 1, "cycles_top": 3, "out": "b.csv"},
    ),
    "mscan": (
        ["mscan", *CSV_FLAGS, "--tau", 25, "--tau-max", 100, "--bins", 16, "--xi", 0.05, "--every", 100,
         "--m-max", 3, "--dim-cap", 2, "--barcode-landmark", 1],
        {**CSV_PARAMS, "tau": "25", "tau_max": 100, "bins": 16, "xi": 0.05, "every": 100, "m_max": 3,
         "dim_cap": 2, "barcode_landmark": 1, "tau_steps": 25},
    ),
    "render_barcode": (
        ["render", "barcode", "--in", "{d}/barcode.csv", "--out", "b.svg"],
        {"kind": "barcode", "input": "{d}/barcode.csv", "out": "b.svg"},
    ),
    "render_heatmap": (
        ["render", "heatmap", "--in", "{d}/lifespan.csv", "--out", "h.svg"],
        {"kind": "heatmap", "input": "{d}/lifespan.csv", "out": "h.svg"},
    ),
    "render_skeleton": (
        ["render", "skeleton", "--edges", "{d}/edges.csv", "--landmarks", "{d}/lm.csv", "--view", "30,45",
         "--out", "s.svg"],
        {"kind": "skeleton", "edges": "{d}/edges.csv", "landmarks": "{d}/lm.csv", "view": [30.0, 45.0],
         "out": "s.svg"},
    ),
}


class TestProvenance:
    """A run.json names every flag given, with its parsed value, and every file the step wrote."""

    @pytest.mark.parametrize("case", sorted(PROVENANCE_CASES))
    def test_every_flag_recorded(self, inputs, tmp_path, case):
        argv, want = PROVENANCE_CASES[case]

        def fill(v):
            return v.format(d=inputs) if isinstance(v, str) else v

        assert run(*map(fill, argv), "--out-dir", tmp_path) == 0
        record = read_run(tmp_path)
        assert {k: record["params"].get(k) for k in want} == {k: fill(v) for k, v in want.items()}
        assert None not in record["params"].values()
        written = {p.name for p in tmp_path.iterdir()} - {"run.json"}
        assert {a["path"] for a in record["artifacts"]} == {str(tmp_path / name) for name in written}

    def test_out_dir_before_the_render_kind(self, inputs, tmp_path):
        d = tmp_path / "d"
        assert run("render", "--out-dir", d, "barcode", "--in", inputs / "barcode.csv", "--out", "b.svg") == 0
        assert (d / "b.svg").read_text().startswith("<svg")
        assert read_run(d)["params"]["kind"] == "barcode"


class TestForeignLandmarks:
    """complex refuses landmarks that are not points of its witness cloud, before it writes anything."""

    def landmark_lines(self, inputs, tmp_path, edit):
        lines = (inputs / "lm.csv").read_text().splitlines()
        edit(lines)
        (tmp_path / "lm.csv").write_text("\n".join(lines) + "\n")
        return tmp_path / "lm.csv"

    def refused(self, inputs, tmp_path, capsys, landmarks, k):
        rc = run("complex", "--witnesses", inputs / "cloud.csv", "--landmarks", landmarks, "--epsilon", 0.5,
                 "--out", "filtration.json", "--out-dir", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {landmarks}: landmark {k} ") and str(inputs / "cloud.csv") in err
        assert not (tmp_path / "filtration.json").exists()

    def test_index_out_of_range(self, inputs, tmp_path, capsys):
        def edit(lines):
            lines[-1] = ",".join(["999999", *lines[-1].split(",")[1:]])

        ell = load_landmarks(inputs / "lm.csv").ell
        self.refused(inputs, tmp_path, capsys, self.landmark_lines(inputs, tmp_path, edit), ell - 1)

    def test_shifted_time(self, inputs, tmp_path, capsys):
        def edit(lines):  # lines 0 and 1 are the spacing comment and the header
            idx, t, *coords = lines[4].split(",")
            lines[4] = ",".join([idx, str(int(t) + 1), *coords])

        self.refused(inputs, tmp_path, capsys, self.landmark_lines(inputs, tmp_path, edit), 2)

    def test_landmarks_of_another_delay(self, inputs, tmp_path, capsys):
        assert run("embed", "--in", inputs / "s.txt", "--m", 2, "--tau", 30, "--out", "c30.csv",
                   "--out-dir", tmp_path) == 0
        assert run("landmarks", "--in", tmp_path / "c30.csv", "--every", 100, "--out", "lm30.csv",
                   "--out-dir", tmp_path) == 0
        self.refused(inputs, tmp_path, capsys, tmp_path / "lm30.csv", 0)


class TestUndrawableBars:
    @pytest.mark.parametrize("bar", ["0,0.5,0.2", "1,inf,inf"])
    def test_refused_at_its_line(self, tmp_path, capsys, bar):
        (tmp_path / "barcode.csv").write_text(f"k,birth,death\n0,0.1,inf\n{bar}\n0,0.2,0.3\n")
        rc = run("render", "barcode", "--in", tmp_path / "barcode.csv", "--out", "b.svg", "--out-dir", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'barcode.csv'}: line 3: cannot draw a bar")
        assert not (tmp_path / "b.svg").exists()

    def test_refused_render_makes_no_directory(self, tmp_path, capsys):
        (tmp_path / "b.csv").write_text("k,birth,death\n0,0.5,0.2\n")
        rc = run("render", "barcode", "--in", tmp_path / "b.csv", "--out", "sub/b.svg",
                 "--out-dir", tmp_path / "newdir")
        assert rc == 1
        assert "cannot draw a bar" in capsys.readouterr().err
        assert not (tmp_path / "newdir").exists()

"""The benchmark's three pinned workloads: inputs made from a seed, the pipeline
each one runs, and the check of its result.

Every call into topo_recon goes through a module attribute (``witness.edge_births``,
not a name imported from it), so the traced run's wrappers see each call.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from topo_recon import cli, embed, landmarks, mscan, persistence, witness
from topo_recon import signal as lorenz

# Seeds n and n + REFERENCE_SEEDS give the same input; the reference file holds
# the digest that the unmodified pipeline produces for each of these inputs.
REFERENCE_SEEDS = 16
STEPS = 100_001
TRANSIENT = 10_000
# Each workload keeps every STRIDE-th step of the 100,001-step trajectory: the
# same 100 time units, and with landmarks every 500 // STRIDE kept samples the
# same landmark times as every 500 steps.  At full length a readme_cli
# repetition takes ~11 s and a sweep8 one ~48 s, too long to repeat inside one
# run.  lorenz3d_cap6 stays at full length: there the dense births (a fixed
# cost) dilute the input-dependent reduction time, which keeps runs on
# different seeds comparable.
STRIDE = {"readme_cli": 2, "lorenz3d_cap6": 1, "sweep8": 4}

# Loop counts the paper pins: one component and the two wings of the attractor.
# For the 2-d reading at 0.2 the pin holds for the (5, 5, 5) start only; the
# other 15 inputs give 2 to 11 loops there, so beta_1 is asserted on input 0 only.
EXPECTED_BETTI = {"readme_cli": (0.2, [1, 2]), "lorenz3d_cap6": (1.2, [1, 2])}


class CheckFailed(AssertionError):
    """A repetition's result differs from the reference or breaks an invariant."""


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def initial_condition(seed: int) -> tuple:
    """Seed 0 is the pinned (5, 5, 5); seed s moves z by (s mod 16) / 1000."""
    return (5.0, 5.0, 5.0 + 0.001 * input_seed(seed))


@dataclass
class Result:
    """What a repetition is checked on."""

    tau: int | None
    barcodes: dict  # name -> list of (k, birth, death)
    existence: np.ndarray | None = None
    betti: tuple | None = None  # (epsilon, [beta_0, beta_1])
    cycles_closed: bool = True
    artifact_bytes: int = 0


def setup(workload: str, seed: int, workdir: Path):
    """Make the workload's input: a Lorenz trajectory, its x series, or a series file."""
    traj = lorenz.integrate_lorenz(ic=initial_condition(seed), n_steps=STEPS, transient_steps=TRANSIENT)
    stride = STRIDE[workload]
    traj = lorenz.Trajectory(np.ascontiguousarray(traj.points[::stride]), traj.dt * stride)
    if workload == "lorenz3d_cap6":
        return traj
    series = lorenz.observe(traj, "x")
    if workload == "sweep8":
        return series
    path = workdir / "series.txt"
    lorenz.save_series(series, path)
    return path


def run(workload: str, inputs, workdir: Path, inject: str | None = None) -> Result:
    if inject == "raise":
        raise RuntimeError("injected failure")
    result = _PIPELINES[workload](inputs, workdir)
    if inject is not None:
        _corrupt(result, inject)
    return result


def _readme_cli(series_path: Path, out: Path) -> Result:
    """README steps 2-7, in-process through the command-line entry point."""
    d = str(out)
    steps = [
        ["ami", "--in", str(series_path), "--tau-max", "400", "--out", "ami.csv"],
        ["embed", "--in", str(series_path), "--m", "2", "--out", "cloud.csv"],
        ["landmarks", "--in", f"{d}/cloud.csv", "--every", str(500 // STRIDE["readme_cli"]),
         "--out", "landmarks.csv"],
        ["complex", "--witnesses", f"{d}/cloud.csv", "--landmarks", f"{d}/landmarks.csv",
         "--epsilon", "0.25", "--dim-cap", "2", "--out", "filtration.json", "--edges-out", "edges.csv"],
        ["barcode", "--filtration", f"{d}/filtration.json", "--out", "barcode.csv",
         "--eps-grid", "0,0.25,26", "--grid-out", "grid.csv", "--cycles-out", "cycles.csv"],
        ["render", "barcode", "--in", f"{d}/barcode.csv", "--out", "barcode.svg"],
        ["render", "skeleton", "--edges", f"{d}/edges.csv", "--landmarks", f"{d}/landmarks.csv",
         "--out", "skeleton.svg"],
    ]
    tau = None
    for argv in steps:
        code = cli.main(argv + ["--out-dir", d])
        if code != 0:
            raise RuntimeError(f"topo-recon {argv[0]} exited with {code}")
        if argv[0] == "embed":
            with open(out / "run.json", encoding="utf-8") as fh:
                tau = json.load(fh)["params"]["tau_steps"]
    bars = persistence.load_barcode(out / "barcode.csv")
    eps = EXPECTED_BETTI["readme_cli"][0]
    return Result(
        tau=tau,
        barcodes={"barcode": bars},
        betti=(eps, _betti(bars, eps, 2)),
        # run.json holds absolute paths, so its size depends on where the checkout is
        artifact_bytes=sum(p.stat().st_size for p in out.iterdir()
                           if p.is_file() and p != series_path and p.name != "run.json"),
    )


def _lorenz3d_cap6(traj, _out: Path) -> Result:
    """The 3-d trajectory as witnesses, read to cap 6 with triangles."""
    cloud = embed.PointCloud(traj.points, np.arange(len(traj)))
    lms = landmarks.select_evenly_spaced(cloud, 500 // STRIDE["lorenz3d_cap6"])
    ef = witness.edge_births(witness.distance_matrix(cloud.points, lms.coords))
    ff = witness.flag_expand(ef, dim_cap=2, max_value=6.0)
    bc = persistence.persistent_homology(ff)
    eps = EXPECTED_BETTI["lorenz3d_cap6"][0]
    betti = persistence.betti_at(bc, eps)
    cycles = persistence.representative_cycles(bc, k=1, top_n=2)
    closed = len(cycles) == 2 and all(_is_cycle(edges) for _, edges in cycles)
    return Result(
        tau=None,
        barcodes={"barcode": [(iv.k, iv.birth, iv.death) for iv in bc.intervals]},
        betti=(eps, betti),
        cycles_closed=closed,
    )


def _sweep8(series, _out: Path) -> Result:
    """AMI delay, then the m = 1..8 dimension sweep and its lifespan filtration."""
    tau = embed.first_minimum(embed.ami_curve(series, tau_max=400))
    if tau is None:
        raise RuntimeError("no AMI minimum")
    sw = mscan.sweep(series, tau, xi=0.0054, every=500 // STRIDE["sweep8"], m_max=8)
    mscan.lifespan_matrix(sw)
    dmf = mscan.dm_filtration(sw, dim_cap=2)
    return Result(
        tau=tau,
        barcodes={"dm": [(iv.k, iv.birth, iv.death) for iv in dmf.barcode.intervals]},
        existence=sw.existence,
    )


_PIPELINES = {"readme_cli": _readme_cli, "lorenz3d_cap6": _lorenz3d_cap6, "sweep8": _sweep8}


def _betti(bars, eps: float, dims: int) -> list:
    betti = [0] * dims
    for k, birth, death in bars:
        if k < dims and birth <= eps < death:
            betti[k] += 1
    return betti


def _is_cycle(edges) -> bool:
    """A Z/2 1-cycle: every vertex meets an even number of its edges."""
    degree = Counter(v for edge in edges for v in edge)
    return bool(edges) and all(n % 2 == 0 for n in degree.values())


def _corrupt(result: Result, how: str) -> None:
    """Damage a result the way the check must catch (used by the self-test)."""
    bars = result.barcodes[min(result.barcodes)]
    if how == "drop_bar":
        bars.pop()
    elif how == "ulp_birth":
        i = max(range(len(bars)), key=lambda i: bars[i][1])
        k, birth, death = bars[i]
        bars[i] = (k, math.nextafter(birth, math.inf), death)
    else:
        raise ValueError(f"unknown injection {how!r}")


def digest(result: Result) -> str:
    """SHA-256 over tau, every barcode's sorted (k, birth, death) bars and the existence matrix.

    Representative cycles (not canonical) and run.json (holds paths) are left out.
    """
    h = hashlib.sha256()
    h.update(f"tau {result.tau}\n".encode())
    for name in sorted(result.barcodes):
        h.update(f"barcode {name}\n".encode())
        for k, birth, death in sorted(result.barcodes[name]):
            h.update(f"{int(k)} {float(birth).hex()} {float(death).hex()}\n".encode())
    if result.existence is not None:
        h.update(b"existence\n")
        h.update(np.ascontiguousarray(result.existence, dtype="<u4").tobytes())
    return h.hexdigest()


def check(workload: str, seed: int, result: Result, reference: dict | None) -> str:
    """Raise CheckFailed unless the result matches; return its digest.

    With ``reference=None`` (when recording) only the invariants are checked.
    """
    got = digest(result)
    problems = []
    if reference is not None:
        entry = reference["workloads"][workload].get(str(input_seed(seed)))
        if entry is None:
            problems.append(f"no reference digest for input {input_seed(seed)}")
        elif entry["digest"] != got:
            problems.append(f"digest {got[:12]} differs from reference {entry['digest'][:12]}")
    if workload in EXPECTED_BETTI:
        eps, want = EXPECTED_BETTI[workload]
        got_eps, betti = result.betti
        if workload == "readme_cli" and input_seed(seed) != 0:
            want, betti = want[:1], betti[:1]
        if got_eps != eps or betti != want:
            problems.append(f"betti at {got_eps} is {result.betti[1]}, expected {want}")
    if not result.cycles_closed:
        problems.append("a representative cycle has a nonzero boundary")
    if problems:
        raise CheckFailed("; ".join(problems))
    return got

"""Command-line front end.

Every subcommand writes a ``run.json`` provenance record into the output
directory.  Its ``params`` hold every flag as parsed (flags left unset are
left out), plus the values the step derived, such as an auto-selected
delay.  It also holds a sha256 checksum of every artifact, the step's
seconds and the process's peak RSS; for ``complex`` it counts the sizes of
what it built and the distances its births computed (``mscan`` records those
per m), and for ``barcode`` and ``mscan`` the reduction's columns.
The records of earlier steps into the same directory are kept,
oldest first, under ``previous``.  Runs are deterministic: identical
arguments and seeds produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import __version__
from .embed import (
    PointCloud,
    ami_curve,
    bbox_diameter,
    delay_embed,
    first_minimum,
    load_cloud,
    save_cloud,
)
from .landmarks import load_landmarks, save_landmarks, select_evenly_spaced, select_maxmin
from .mscan import (
    dm_filtration,
    lifespan_matrix,
    save_dimension_barcode_csv,
    save_existence_csv,
    save_lifespan_csv,
    sweep,
)
from .persistence import betti_at, persistent_homology, representative_cycles, save_barcode
from .render import render_barcode, render_heatmap, render_skeleton
from .signal import (
    IntegrationError,
    OdeParams,
    add_uniform_noise,
    integrate_lorenz,
    load_series,
    observe,
    save_series,
    _write_table,
)
from .witness import (
    ResourceLimitError,
    distance_matrix,
    edge_births,
    flag_expand,
    load_filtration,
    save_filtration,
    skeleton_export,
)

# bad input or flags; SeriesFormatError, DegenerateSeriesError and ContractViolationError are ValueErrors
_USER_ERRORS = (ValueError, OSError, IntegrationError, ResourceLimitError)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _out_path(args, name) -> Path:
    """The path of artifact ``name`` (relative to --out-dir), its directory made; the step records it."""
    p = Path(name)
    if not p.is_absolute():
        p = Path(args.out_dir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    args.artifacts.append(p)
    return p


def _previous_records(run_path: Path) -> list:
    """The records already in ``run_path``, oldest first; none when it is missing or holds no record."""
    try:
        with open(run_path, encoding="utf-8") as fh:
            last = json.load(fh)
    except (OSError, ValueError):
        return []
    if not (isinstance(last, dict) and "subcommand" in last):
        return []
    previous = last.pop("previous", [])
    return [*previous, last] if isinstance(previous, list) else [last]


# parsed arguments that are not parameters: they are kept elsewhere in the record, or not at all
_NOT_PARAMS = ("command", "func", "seed", "out_dir", "started", "artifacts")


def _write_run(args, derived: dict | None = None, counts: dict | None = None) -> None:
    """Write the step's record: every flag that has a value, then the values the step ``derived``."""
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS and v is not None}
    record = {
        "subcommand": args.command,
        "version": __version__,
        "seed": args.seed,
        "params": {**params, **(derived or {})},
        "artifacts": [
            {"path": str(p), "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in sorted(args.artifacts)
        ],
        "seconds": time.perf_counter() - args.started,
        # ru_maxrss is in KiB on Linux, in bytes on macOS
        "peak_rss_mb": resource and resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / (2**20 if sys.platform == "darwin" else 2**10),
    }
    if counts is not None:
        record["counts"] = counts
    run_path = Path(args.out_dir) / "run.json"
    run_path.parent.mkdir(parents=True, exist_ok=True)
    record["previous"] = _previous_records(run_path)
    with open(run_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_floats(text: str, n: int, what: str) -> tuple:
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        values = ()
    if len(values) != n:
        raise ValueError(f"{what} must have {n} comma-separated values, got {text!r}")
    return values


def _scale_arg(value: float, flag: str) -> float:
    """A scale flag's value: a finite nonnegative number, or a ValueError naming the flag."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{flag} must be a finite nonnegative number, got {value}")
    return value


def _count_arg(value: int, flag: str, top: int | None = None) -> None:
    """Refuse a count flag below 1, or above ``top`` when one is given, with a ValueError naming the flag."""
    if top is not None and not 1 <= value <= top:
        raise ValueError(f"{flag} must be in 1..{top}, got {value}")
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


def _load_series_arg(args) -> "ScalarSeries":
    return load_series(args.input, format=args.format, sample_interval=args.sample_interval)


def _resolve_tau(args, series) -> tuple[int, dict]:
    """Parse --tau; 'auto' selects the first minimum of the AMI curve.  Returns tau and what was derived."""
    if args.tau != "auto":
        tau = int(args.tau) if args.tau.isdecimal() else 0
        if tau < 1:
            raise ValueError(f"--tau must be a positive integer or 'auto', got {args.tau!r}")
        return tau, {"tau_steps": tau, "tau_source": "explicit"}
    curve = ami_curve(series, tau_max=args.tau_max, bins=args.bins)
    tau = first_minimum(curve)
    if tau is None:
        raise ValueError(f"no mutual-information minimum found for tau in [1, {args.tau_max - 1}]")
    return tau, {"tau_steps": tau, "tau_source": "ami_first_minimum", "bins": curve.bins}


def _check_landmarks(args, cloud, lms) -> None:
    """Refuse landmarks that are not points of the witness cloud: the same idx, t and coordinates, bitwise."""
    at = np.clip(lms.indices, 0, len(cloud.points) - 1)
    same = (lms.indices == at) & (cloud.time_index[at] == lms.time_index)
    if lms.coords.shape[1] == cloud.m:  # the bits of each coordinate, as they round-trip through repr
        same &= (cloud.points[at].view(np.uint64) == lms.coords.view(np.uint64)).all(axis=1)
    if lms.coords.shape[1] != cloud.m or not same.all():
        k = int(np.argmin(same))
        raise ValueError(
            f"{args.landmarks}: landmark {k} (idx {lms.indices[k]}, t {lms.time_index[k]}) is not point"
            f" {lms.indices[k]} of the witness cloud {args.witnesses}, which has {len(cloud.points)} points"
        )


def cmd_generate(args) -> int:
    params = OdeParams(r=args.r, b=args.b, sigma=args.sigma)
    ic = _parse_floats(args.ic, 3, "--ic")
    traj = integrate_lorenz(params=params, ic=ic, dt=args.dt, n_steps=args.steps, transient_steps=args.transient)
    series = observe(traj, int(args.observe) if args.observe.isdigit() else args.observe)
    save_series(series, _out_path(args, args.out))
    if args.traj_out:
        save_cloud(PointCloud(traj.points, np.arange(len(traj))), _out_path(args, args.traj_out))
    _write_run(args, {"ic": list(ic)})
    return 0


def cmd_noise(args) -> int:
    noisy = add_uniform_noise(_load_series_arg(args), args.nu, args.seed)
    save_series(noisy, _out_path(args, args.out))
    _write_run(args)
    return 0


def cmd_ami(args) -> int:
    curve = ami_curve(_load_series_arg(args), tau_max=args.tau_max, bins=args.bins)
    out = _out_path(args, args.out)
    # values stay NumPy-scalar reprs, np.float64(...), until perfbench/reference.json recounts ami.csv
    _write_table(out, ["tau,ami_bits"], np.arange(len(curve.values)), [repr(v) for v in curve.values])
    _write_run(args, {"bins": curve.bins, "first_minimum": first_minimum(curve)})
    return 0


def cmd_embed(args) -> int:
    _count_arg(args.m, "--m")
    series = _load_series_arg(args)
    tau, derived = _resolve_tau(args, series)
    m_anchor = args.m_anchor if args.m_anchor is not None else args.m
    save_cloud(delay_embed(series, args.m, tau, m_anchor=m_anchor), _out_path(args, args.out))
    _write_run(args, {"m_anchor": m_anchor, **derived})
    return 0


def cmd_landmarks(args) -> int:
    count, flag = (args.every, "--every") if args.every is not None else (args.maxmin, "--maxmin")
    _count_arg(count, flag)
    cloud = load_cloud(args.input)
    if args.every is not None:
        lms, method = select_evenly_spaced(cloud, args.every), "evenly_spaced"
    else:
        lms, method = select_maxmin(cloud, args.maxmin, args.seed), "maxmin"
    save_landmarks(lms, _out_path(args, args.out))
    _write_run(args, {"method": method, "ell_selected": lms.ell})
    return 0


def cmd_complex(args) -> int:
    _count_arg(args.dim_cap, "--dim-cap")
    _count_arg(args.max_simplices, "--max-simplices")
    cloud = load_cloud(args.witnesses)
    lms = load_landmarks(args.landmarks)
    _check_landmarks(args, cloud, lms)
    diam = bbox_diameter(cloud)
    eps = _scale_arg(args.xi, "--xi") * diam if args.xi is not None else _scale_arg(args.epsilon, "--epsilon")
    ef = edge_births(distance_matrix(cloud.points, lms.coords), cap=eps)
    ff = flag_expand(ef, dim_cap=args.dim_cap, max_value=eps, max_simplices=args.max_simplices)
    save_filtration(ff, _out_path(args, args.out))
    if args.edges_out:
        skeleton_export(ff, eps, _out_path(args, args.edges_out))
    _write_run(
        args,
        {"epsilon": eps, "diameter": diam, "simplex_count": len(ff)},
        {
            "witnesses": len(cloud.points),
            "landmarks": lms.ell,
            "births_distances": ef.distances,  # of the witnesses x landmarks, those the cap-aware births computed
            "edges_le_cap": int(np.count_nonzero(np.triu(ef.births <= eps, k=1))),
            "simplices_by_dim": ff.counts_by_dim(),
        },
    )
    return 0


def cmd_barcode(args) -> int:
    if args.cycles_k < 1:
        raise ValueError(f"--cycles-k must be at least 1, got {args.cycles_k}")
    if args.cycles_top < 0:
        raise ValueError(f"--cycles-top must be nonnegative, got {args.cycles_top}")
    if args.eps_grid:
        lo, hi, count = _parse_floats(args.eps_grid, 3, "--eps-grid")
        if not (math.isfinite(lo) and math.isfinite(hi) and count >= 1 and count.is_integer()):
            raise ValueError(
                f"--eps-grid needs a finite lo, a finite hi and a positive integral count, got {args.eps_grid!r}"
            )
    ff = load_filtration(args.filtration)
    if args.dim_cap is not None:
        top = int(ff.dims.max()) + 1  # one above the top simplex dimension
        if not 1 <= args.dim_cap <= top:
            raise ValueError(f"--dim-cap must be in 1..{top} for this filtration, got {args.dim_cap}")
        ff.dim_cap = args.dim_cap
    if args.cycles_out and args.cycles_k >= ff.dim_cap:  # no bar of that degree is reported
        raise ValueError(f"--cycles-k must be below the barcode's dim_cap {ff.dim_cap}, got {args.cycles_k}")
    bc = persistent_homology(ff)
    save_barcode(bc, _out_path(args, args.out))
    derived = {"intervals": len(bc.intervals)}
    if args.eps_grid:
        grid_out = _out_path(args, args.grid_out or (Path(args.out).stem + "_grid.csv"))
        grid = np.linspace(lo, hi, int(count))
        betti = np.array([betti_at(bc, eps) for eps in grid.tolist()])
        _write_table(grid_out, ["epsilon," + ",".join(f"beta{k}" for k in range(bc.dim_cap))], grid, *betti.T)
        derived["eps_grid"] = [lo, hi, int(count)]
    if args.cycles_out:
        reps = representative_cycles(bc, args.cycles_k, args.cycles_top)
        rows = [
            (ci, iv.k, iv.birth, iv.death, "-".join(map(str, verts)))
            for ci, (iv, simplices) in enumerate(reps)
            for verts in simplices
        ]
        _write_table(_out_path(args, args.cycles_out), ["cycle,k,birth,death,simplex"], *zip(*rows))
    _write_run(args, derived, bc.counts)
    return 0


def cmd_mscan(args) -> int:
    _scale_arg(args.xi, "--xi")
    if args.barcode_landmark < 0:
        raise ValueError(f"--barcode-landmark must be nonnegative, got {args.barcode_landmark}")
    _count_arg(args.dim_cap, "--dim-cap")
    _count_arg(args.every, "--every")
    _count_arg(args.m_max, "--m-max", 32)  # the bits of the sweep's existence mask
    series = _load_series_arg(args)
    tau, derived = _resolve_tau(args, series)
    sw = sweep(series, tau, args.xi, args.every, args.m_max)
    if args.barcode_landmark >= sw.ell:
        raise ValueError(f"--barcode-landmark must be below the {sw.ell} landmarks, got {args.barcode_landmark}")
    matrix = lifespan_matrix(sw)
    save_lifespan_csv(matrix, _out_path(args, "lifespan.csv"))
    save_existence_csv(sw, _out_path(args, "existence.csv"))
    dimbar_out = _out_path(args, f"dimension_barcode_{args.barcode_landmark}.csv")
    save_dimension_barcode_csv(sw, args.barcode_landmark, dimbar_out)
    bc = dm_filtration(sw, dim_cap=args.dim_cap).barcode
    save_barcode(bc, _out_path(args, "dm_barcode.csv"))
    derived.update(ell=sw.ell, diameters=sw.diameters, epsilons=sw.epsilons, witnesses=sw.witnesses,
                   births_distances=[ef.distances for ef in sw.per_m])  # per m, of witnesses x ell
    _write_run(args, derived, bc.counts)
    return 0


def cmd_render(args) -> int:
    view = _parse_floats(args.view, 2, "--view") if args.view else None
    if args.kind == "barcode":
        svg = render_barcode(args.input)
    elif args.kind == "heatmap":
        svg = render_heatmap(args.input)
    else:
        svg = render_skeleton(args.edges, args.landmarks, view=view)
    with open(_out_path(args, args.out), "w", encoding="utf-8") as fh:
        fh.write(svg)
    _write_run(args, {"view": list(view)} if view else None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for any randomized step")
    common.add_argument("--out-dir", default=".", help="directory for outputs and run.json")

    series_input = argparse.ArgumentParser(add_help=False)
    series_input.add_argument("--in", dest="input", required=True, help="input series file")
    series_input.add_argument("--format", choices=["native", "csv"], default="native")
    series_input.add_argument(
        "--sample-interval", type=float, default=None, help="sampling interval for --format csv"
    )

    parser = argparse.ArgumentParser(
        prog="topo-recon",
        description="Topology of delay reconstructions: witness complexes and persistence.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="integrate a system and observe a scalar")
    p.add_argument("system", choices=["lorenz"])
    p.add_argument("--r", type=float, default=28.0)
    p.add_argument("--b", type=float, default=8.0 / 3.0)
    p.add_argument("--sigma", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.001)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--transient", type=int, default=10_000)
    p.add_argument("--ic", default="1,1,1", help="initial condition x,y,z")
    p.add_argument("--observe", default="x", help="coordinate to record (x, y, z, or an index)")
    p.add_argument("--out", required=True, help="series output path")
    p.add_argument("--traj-out", default=None, help="optional full-trajectory CSV output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("noise", parents=[common, series_input], help="add seeded uniform noise")
    p.add_argument("--nu", type=float, required=True, help="full width of the uniform noise")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("ami", parents=[common, series_input], help="average mutual information curve")
    p.add_argument("--tau-max", type=int, required=True)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ami)

    p = sub.add_parser("embed", parents=[common, series_input], help="delay-coordinate embedding")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tau", default="auto", help="delay in samples, or 'auto' for the AMI minimum")
    p.add_argument("--tau-max", type=int, default=400, help="AMI search bound for --tau auto")
    p.add_argument("--bins", type=int, default=None, help="AMI histogram bins for --tau auto")
    p.add_argument("--m-anchor", type=int, default=None, help="anchor dimension (defaults to m)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("landmarks", parents=[common], help="select landmarks from a cloud")
    p.add_argument("--in", dest="input", required=True, help="input cloud CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--every", type=int, default=None, help="equal-time stride")
    group.add_argument("--maxmin", type=int, default=None, help="greedy max-min count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_landmarks)

    p = sub.add_parser("complex", parents=[common], help="fuzzy witness flag filtration")
    p.add_argument("--witnesses", required=True, help="witness cloud CSV")
    p.add_argument("--landmarks", required=True, help="landmark CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--xi", type=float, default=None, help="scale as a fraction of cloud diameter")
    group.add_argument("--epsilon", type=float, default=None, help="absolute scale cap")
    p.add_argument("--dim-cap", type=int, default=3)
    p.add_argument("--max-simplices", type=int, default=10_000_000)
    p.add_argument("--out", required=True, help="filtration JSON output")
    p.add_argument("--edges-out", default=None, help="optional 1-skeleton CSV at the cap scale")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("barcode", parents=[common], help="persistent homology of a filtration")
    p.add_argument("--filtration", required=True, help="filtration JSON input")
    p.add_argument("--out", required=True, help="barcode CSV output")
    p.add_argument("--dim-cap", type=int, default=None, help="report H_k for k < this (default: top dim)")
    p.add_argument("--eps-grid", default=None, help="min,max,count for a sampled Betti table")
    p.add_argument("--grid-out", default=None, help="output CSV for --eps-grid")
    p.add_argument("--cycles-out", default=None, help="output CSV of representative cycles")
    p.add_argument("--cycles-k", type=int, default=1)
    p.add_argument("--cycles-top", type=int, default=2)
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("mscan", parents=[common, series_input], help="embedding-dimension sweep")
    p.add_argument("--tau", default="auto")
    p.add_argument("--tau-max", type=int, default=400)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--every", type=int, default=500)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--dim-cap", type=int, default=2, help="flag cap for the lifespan filtration")
    p.add_argument("--barcode-landmark", type=int, default=0)
    p.set_defaults(func=cmd_mscan)

    p = sub.add_parser("render", parents=[common], help="render CSV artifacts to SVG")
    p.add_argument("kind", choices=["barcode", "heatmap", "skeleton"])
    p.add_argument("--in", dest="input", default=None, help="input CSV (barcode, heatmap)")
    p.add_argument("--edges", default=None, help="edge CSV (skeleton)")
    p.add_argument("--landmarks", default=None, help="landmark CSV (skeleton)")
    p.add_argument("--view", default=None, help="az,el rotation in degrees (3-d skeletons)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "render":
        if args.kind in ("barcode", "heatmap") and not args.input:
            print("error: render requires --in for barcode and heatmap", file=sys.stderr)
            return 2
        if args.kind == "skeleton" and not (args.edges and args.landmarks):
            print("error: render skeleton requires --edges and --landmarks", file=sys.stderr)
            return 2
    args.started, args.artifacts = time.perf_counter(), []
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

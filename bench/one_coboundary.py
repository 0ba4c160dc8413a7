"""Record BENCH_one_coboundary.json: every degree of a flag filtration reduced from its adjacency.

    python3 bench/one_coboundary.py --parent <checkout> --change <checkout> [--pairs 10] [--out FILE]

Each checkout is a plain copy of one commit's files (``git archive``); give
the two checkouts paths of equal length, since run records hold paths.  The
script runs, in this order:

1. ``results``: one child process per checkout computes, for the
   ``lorenz3d_cap6`` pipeline at input seeds 0-15 and for ``sweep8``'s
   ``mscan.dm_filtration``, a SHA-256 of the intervals (creators and
   destroyers included), ``Barcode.destroyers`` and ``Barcode.positions``;
   the two checkouts' digests are compared.
2. ``inprocess``: three rounds, alternating the checkouts, of
   ``persistent_homology`` in process, best of five, on ``lorenz3d_cap6``
   inputs 0, 8 and 11, on the filtration that ``sweep8``'s ``dm_filtration``
   reduces, and on the ``readme_cli`` ``filtration.json`` (with
   ``load_filtration`` timed apart; at the parent a loaded file lists its
   top dimension, so ``Barcode.positions`` is compared on the others only).
3. ``pairs``: ``--pairs`` alternating pairs of ``python3 perfbench/run.py
   --workload all``, the first side switching every pair.
4. ``lines``: ``wc -l src/topo_recon/*.py`` on each side.

``--sections`` picks steps (comma-separated names above); their results are
merged into ``--out`` when it exists.  Raw outputs go to ``.bench_work/`` in
the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from implicit_top import WORKLOADS, child_json, lines, pairs, summarize_pairs


def _import(checkout: str) -> None:
    sys.path.insert(0, str(Path(checkout) / "src"))


def _lorenz3d(seed: int):
    """The ``lorenz3d_cap6`` filtration at ``seed``: uncapped births over 201 landmarks, expanded to cap 6."""
    from topo_recon import embed, landmarks, witness
    from topo_recon import signal as lorenz

    traj = lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0 + 0.001 * seed), n_steps=100_001, transient_steps=10_000)
    lms = landmarks.select_evenly_spaced(embed.PointCloud(traj.points, np.arange(len(traj))), 500)
    return witness.flag_expand(witness.edge_births(witness.distance_matrix(traj.points, lms.coords)),
                               dim_cap=2, max_value=6.0)


def _sweep8_filtration():
    """The lifespan filtration that ``sweep8``'s ``dm_filtration`` reduces, captured on its way into ``flag_expand``."""
    from topo_recon import embed, mscan
    from topo_recon import signal as lorenz

    traj = lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=100_001, transient_steps=10_000)
    series = lorenz.observe(lorenz.Trajectory(np.ascontiguousarray(traj.points[::4]), traj.dt * 4), "x")
    sw = mscan.sweep(series, embed.first_minimum(embed.ami_curve(series, tau_max=400)), 0.0054, 125, 8)
    captured, expand = [], mscan.flag_expand
    mscan.flag_expand = lambda ef, **kw: captured.append(expand(ef, **kw)) or captured[-1]
    try:
        mscan.dm_filtration(sw, dim_cap=2)
    finally:
        mscan.flag_expand = expand
    return captured[0]


def _readme_file(work: Path) -> Path:
    """The ``readme_cli`` pipeline's ``filtration.json`` at seed 0, written by ``complex``."""
    from topo_recon import cli
    from topo_recon import signal as lorenz

    traj = lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=100_001, transient_steps=10_000)
    lorenz.save_series(lorenz.observe(lorenz.Trajectory(np.ascontiguousarray(traj.points[::2]), traj.dt * 2), "x"),
                       work / "series.txt")
    d = str(work)
    for argv in (["embed", "--in", f"{d}/series.txt", "--m", "2", "--out", "cloud.csv"],
                 ["landmarks", "--in", f"{d}/cloud.csv", "--every", "250", "--out", "landmarks.csv"],
                 ["complex", "--witnesses", f"{d}/cloud.csv", "--landmarks", f"{d}/landmarks.csv",
                  "--epsilon", "0.25", "--dim-cap", "2", "--out", "filtration.json"]):
        if cli.main([*argv, "--out-dir", d]) != 0:
            raise RuntimeError(f"topo-recon {argv[0]} failed")
    return work / "filtration.json"


def _digest(bc, positions: bool = True) -> str:
    """A SHA-256 of the intervals and ``destroyers``, and of ``positions`` unless a loaded file lists its top."""
    h = hashlib.sha256()
    for iv in bc.intervals:
        h.update(f"{iv.k} {iv.birth.hex()} {iv.death.hex()} {iv.creator} {iv.destroyer}\n".encode())
    h.update(np.asarray(bc.destroyers, dtype="<i8").tobytes())
    if positions:
        h.update(np.asarray(bc.positions, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def results(checkout: str) -> dict:
    """Digests of the barcodes of ``lorenz3d_cap6`` at seeds 0-15 and of ``sweep8``'s lifespan filtration."""
    _import(checkout)
    from topo_recon import persistence

    out = {f"lorenz3d_cap6.{seed}": _digest(persistence.persistent_homology(_lorenz3d(seed))) for seed in range(16)}
    out["sweep8.dm_filtration"] = _digest(persistence.persistent_homology(_sweep8_filtration()))
    return out


def inprocess(checkout: str) -> dict:
    """Best of five ``persistent_homology`` per case, and ``load_filtration`` of the ``readme_cli`` file."""
    _import(checkout)
    from topo_recon import persistence, witness

    def best_of(f, n=5):
        times = []
        for _ in range(n):
            start = time.perf_counter()
            result = f()
            times.append(time.perf_counter() - start)
        return round(min(times), 5), result

    cases = {f"lorenz3d_cap6.{seed}": _lorenz3d(seed) for seed in (0, 8, 11)}
    cases["sweep8.dm_filtration"] = _sweep8_filtration()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = _readme_file(Path(tmp))
        load_s, cases["readme_cli.filtration_json"] = best_of(lambda: witness.load_filtration(path))
        out["readme_cli.load_filtration"] = {"seconds": load_s}
    for name, ff in cases.items():
        seconds, bc = best_of(lambda: persistence.persistent_homology(ff))
        out[name] = {"seconds": seconds, "simplices": len(ff), "column_sets": bc.counts["column_sets"],
                     "digest": _digest(bc, positions=not name.startswith("readme_cli"))}
    return out


def inprocess_rounds(sides: dict, work: Path) -> dict:
    """Three rounds of ``inprocess``, alternating which checkout runs first; the best time per case."""
    rounds = {s: [] for s in sides}
    for i in range(3):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result, text = child_json([sys.executable, __file__, "--inprocess", sides[side]])
            (work / f"inprocess.{side}.{i}.txt").write_text(text)
            rounds[side].append(result)
    record = {}
    for side, runs in rounds.items():
        record[side] = {name: {**case, "seconds_per_round": [r[name]["seconds"] for r in runs],
                               "seconds": min(r[name]["seconds"] for r in runs)} for name, case in runs[0].items()}
    record["identical_results"] = all(case.get("digest") == record["change"][name].get("digest")
                                      for name, case in record["parent"].items())
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", default="BENCH_one_coboundary.json")
    p.add_argument("--sections", default="results,inprocess,pairs,lines")
    p.add_argument("--results", help=argparse.SUPPRESS)  # child mode: CHECKOUT
    p.add_argument("--inprocess", help=argparse.SUPPRESS)  # child mode: CHECKOUT
    args = p.parse_args()
    if args.results:
        print(json.dumps(results(args.results)))
        return 0
    if args.inprocess:
        print(json.dumps(inprocess(args.inprocess)))
        return 0
    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    work = Path(".bench_work")
    work.mkdir(exist_ok=True)
    sections = set(args.sections.split(","))
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("commands", []).append(
        " ".join(["python3 bench/one_coboundary.py", *(Path(a).name if "/" in a else a for a in sys.argv[1:])]))
    uname = subprocess.run(["uname", "-srm"], stdout=subprocess.PIPE, text=True).stdout.strip()
    record.update(checkouts={side: Path(path).name for side, path in sides.items()},
                  machine=f"{uname}, {os.cpu_count()} CPUs, Python {platform.python_version()}, NumPy {np.__version__};"
                          " perfbench children single-threaded")
    if "results" in sections:
        digests = {}
        for side, checkout in sides.items():
            digests[side], text = child_json([sys.executable, __file__, "--results", checkout])
            (work / f"results.{side}.txt").write_text(text)
        same = digests["change"] is not None and digests["parent"] == digests["change"]
        record["results"] = {**digests, "identical": same}
    if "inprocess" in sections:
        record["inprocess"] = inprocess_rounds(sides, work)
    if "pairs" in sections:
        record["perfbench_pairs"] = summarize_pairs(pairs(sides, work, args.pairs, ["--workload", "all"]))
        record["perfbench_pairs"]["workloads_run"] = list(WORKLOADS)
    if "lines" in sections:
        record["lines"] = {side: lines(checkout) for side, checkout in sides.items()}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

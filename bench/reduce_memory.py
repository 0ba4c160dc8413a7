"""Record BENCH_reduce_memory.json: sorted-array columns in the reduction, and births that copy a block at a time.

    python3 bench/reduce_memory.py --parent <checkout> --change <checkout> [--pairs 10] [--out FILE]

Each checkout is a plain copy of one commit's files (``git archive``); give
the two checkouts paths of equal length, since run records hold paths.  The
script runs, in this order:

1. ``reduction``: for ``lorenz3d_cap6`` inputs 0-15 (uncapped births over 201
   landmarks, expanded to cap 6) and for ``sweep8``'s lifespan filtration,
   one child process per checkout and case, the first side alternating,
   traces the peak allocations of ``persistent_homology`` (``tracemalloc``),
   takes the best of five times, and hashes the intervals (creators and
   destroyers included), ``Barcode.destroyers``, ``Barcode.positions`` and
   ``representative_cycles(bc, 1, 2)``; the digests must match.
2. ``rss``: three rounds per workload, alternating sides, of one child that
   runs the workload's pipeline as ``perfbench/workloads.py`` does at seed
   0 and reads ``ru_maxrss`` after making the inputs and after each stage.
3. ``pairs``: ``--pairs`` alternating pairs of ``python3 perfbench/run.py
   --workload <w>`` for each workload, at its default ``--seconds``.
4. ``trace``: one ``--trace 1`` run per workload and side.
5. ``lines``: ``wc -l src/topo_recon/*.py`` on each side.

``--sections`` picks steps (comma-separated names above); their results are
merged into ``--out`` when it exists.  Raw outputs go to ``.bench_work/`` in
the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import one_coboundary
from implicit_top import WORKLOADS, _rss_mb, _spread, child_json, lines, pairs, summarize_pairs, traced

CASES = [*(f"lorenz3d_cap6.{seed}" for seed in range(16)), "sweep8.dm_filtration"]

# the functions each workload's stages end with, as perfbench/workloads.py calls them
STAGES = {
    "readme_cli": [("cli", "main")],  # one stage per CLI step, named by its subcommand
    "lorenz3d_cap6": [("witness", "edge_births"), ("witness", "flag_expand"),
                      ("persistence", "persistent_homology"), ("persistence", "representative_cycles")],
    "sweep8": [("embed", "ami_curve"), ("mscan", "sweep"), ("mscan", "lifespan_matrix"), ("mscan", "dm_filtration")],
}


def reduction(checkout: str, case: str) -> dict:
    """One case: the traced peak and best-of-five time of ``persistent_homology``, and a digest of its results."""
    one_coboundary._import(checkout)
    from topo_recon import persistence

    name, seed = case.split(".")
    ff = one_coboundary._lorenz3d(int(seed)) if name == "lorenz3d_cap6" else one_coboundary._sweep8_filtration()
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    bc = persistence.persistent_homology(ff)
    peak = tracemalloc.get_traced_memory()[1] - start
    tracemalloc.stop()
    times = []
    for _ in range(5):
        clock = time.perf_counter()
        persistence.persistent_homology(ff)
        times.append(time.perf_counter() - clock)
    cycles = persistence.representative_cycles(bc, 1, 2)
    digest = hashlib.sha256(one_coboundary._digest(bc).encode())
    digest.update(repr([(iv.creator, cycle) for iv, cycle in cycles]).encode())
    return {"peak_mib": round(peak / 2**20, 3), "seconds": round(min(times), 4), "simplices": len(ff),
            "column_additions": sum(bc.counts["column_additions"].values()), "digest": digest.hexdigest()[:16]}


def reduction_runs(sides: dict, work: Path) -> dict:
    """Every case on both sides, one child each, the first side alternating by case."""
    runs = {s: {} for s in sides}
    for i, case in enumerate(CASES):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result, text = child_json([sys.executable, __file__, "--reduction", sides[side], case])
            (work / f"reduction.{side}.{case}.txt").write_text(text)
            runs[side][case] = result
    return {"per_case": runs,
            "summary": {side: {m: _spread([r[m] for r in results.values()]) for m in ("peak_mib", "seconds")}
                        for side, results in runs.items()},
            "identical_results": all(runs["parent"][c]["digest"] == runs["change"][c]["digest"] for c in CASES)}


def rss(checkout: str, workload: str) -> dict:
    """``ru_maxrss`` in MiB after the workload's inputs are made and after each of its stages, at seed 0."""
    sys.path.insert(0, str(Path(checkout) / "perfbench"))
    one_coboundary._import(checkout)
    import workloads

    out = {}

    def after(label, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            name = label if label != "main" else " ".join(args[0][:2] if args[0][0] == "render" else args[0][:1])
            out[name] = round(_rss_mb(), 2)
            return result

        return call

    for module, attr in STAGES[workload]:
        mod = importlib.import_module(f"topo_recon.{module}")
        setattr(mod, attr, after(attr, getattr(mod, attr)))
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.setup(workload, 0, Path(tmp))
        out["inputs"] = round(_rss_mb(), 2)
        workloads.run(workload, inputs, Path(tmp))
    return out


def rss_rounds(sides: dict, work: Path) -> dict:
    """Three rounds per workload, alternating which checkout runs first."""
    record = {}
    for wl in WORKLOADS:
        rounds = {s: [] for s in sides}
        for i in range(3):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                result, text = child_json([sys.executable, __file__, "--rss", sides[side], wl])
                (work / f"rss.{wl}.{side}.{i}.txt").write_text(text)
                rounds[side].append(result)
        record[wl] = {side: {stage: [r[stage] for r in results] for stage in results[0]}
                      for side, results in rounds.items()}
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", default="BENCH_reduce_memory.json")
    p.add_argument("--sections", default="reduction,rss,pairs,trace,lines")
    p.add_argument("--reduction", nargs=2, help=argparse.SUPPRESS)  # child mode: CHECKOUT CASE
    p.add_argument("--rss", nargs=2, help=argparse.SUPPRESS)  # child mode: CHECKOUT WORKLOAD
    args = p.parse_args()
    if args.reduction:
        print(json.dumps(reduction(*args.reduction)))
        return 0
    if args.rss:
        print(json.dumps(rss(*args.rss)))
        return 0
    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    work = Path(".bench_work")
    work.mkdir(exist_ok=True)
    sections = set(args.sections.split(","))
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("commands", []).append(
        " ".join(["python3 bench/reduce_memory.py", *(Path(a).name if "/" in a else a for a in sys.argv[1:])]))
    uname = subprocess.run(["uname", "-srm"], stdout=subprocess.PIPE, text=True).stdout.strip()
    record.update(checkouts={side: Path(path).name for side, path in sides.items()},
                  machine=f"{uname}, {os.cpu_count()} CPUs, Python {platform.python_version()}, NumPy {np.__version__};"
                          " perfbench children single-threaded")
    if "reduction" in sections:
        record["reduction"] = reduction_runs(sides, work)
    if "rss" in sections:
        record["rss_by_stage"] = rss_rounds(sides, work)
    if "pairs" in sections:
        runs = {s: [] for s in sides}
        for wl in WORKLOADS:  # one workload per run; the runs of pair i are merged into one result
            per = pairs(sides, work, args.pairs, ["--workload", wl])
            for side, results in per.items():
                for i, result in enumerate(results):
                    if i == len(runs[side]):
                        runs[side].append({})
                    runs[side][i][wl] = result  # a one-workload run prints that workload's result alone
        record["perfbench_pairs"] = summarize_pairs(runs)
    if "trace" in sections:
        record["traced"] = traced(sides, work)
    if "lines" in sections:
        record["lines"] = {side: lines(checkout) for side, checkout in sides.items()}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

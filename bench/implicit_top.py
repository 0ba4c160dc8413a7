"""Record BENCH_implicit_top.json: a flag filtration's top dimension reduced without its list.

    python3 bench/implicit_top.py --parent <checkout> --change <checkout> [--pairs 10] [--out BENCH_implicit_top.json]

Each checkout is a plain copy of one commit's files (``git archive``); give
the two checkouts paths of equal length, since run records hold paths.  The
script runs, in this order:

1. ``stages``: the ``lorenz3d_cap6`` pipeline at every input seed 0-15, one
   child process per checkout and seed (its own ``src`` first on the path),
   the checkout that goes first alternating by seed: seconds of births,
   ``flag_expand``, ``persistent_homology`` and ``representative_cycles``,
   the child's ``ru_maxrss`` after each, and a SHA-256 of the intervals
   (creators and destroyers included), ``Barcode.destroyers`` and the cycles.
2. ``inprocess``: three rounds, alternating the checkouts, of
   ``mscan.dm_filtration`` on the ``sweep8`` input and of uncapped
   ``edge_births`` on the 3-d trajectory at seeds 0, 5 and 11, best of five,
   with digests of their results.
3. ``pairs``: ``--pairs`` alternating pairs of ``python3 perfbench/run.py
   --workload all``, the first side switching every pair.
4. ``trace``: one ``--trace 1`` run per workload and side.
5. ``seeds``: every workload on the change at input seeds 0-15
   (``--seconds 1``: two repetitions each), for the ``correct`` flags.
6. ``lines``: ``wc -l src/topo_recon/*.py`` on each side.

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
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BOUNDS = {"wall_s": 0.24, "setup_s": 0.25, "peak_rss_mb": 0.05}
WORKLOADS = ("readme_cli", "lorenz3d_cap6", "sweep8")
SEEDS = range(16)


def _import(checkout: str):
    sys.path.insert(0, str(Path(checkout) / "src"))
    import topo_recon

    return topo_recon


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stages(checkout: str, seed: int) -> dict:
    """One ``lorenz3d_cap6`` run at ``seed``: per-stage seconds, ru_maxrss after each stage, a result digest."""
    _import(checkout)
    from topo_recon import embed, landmarks, persistence, witness
    from topo_recon import signal as lorenz

    traj = lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0 + 0.001 * seed), n_steps=100_001, transient_steps=10_000)
    cloud = embed.PointCloud(traj.points, np.arange(len(traj)))
    lms = landmarks.select_evenly_spaced(cloud, 500)
    out, rss, clock = {}, {"inputs": round(_rss_mb(), 2)}, time.perf_counter()

    def lap(name):
        nonlocal clock
        now = time.perf_counter()
        out[f"{name}_s"], rss[name] = round(now - clock, 4), round(_rss_mb(), 2)
        clock = now

    ef = witness.edge_births(witness.distance_matrix(cloud.points, lms.coords))
    lap("births")
    ff = witness.flag_expand(ef, dim_cap=2, max_value=6.0)
    lap("flag_expand")
    bc = persistence.persistent_homology(ff)
    lap("persistent_homology")
    cycles = persistence.representative_cycles(bc, k=1, top_n=2)
    lap("representative_cycles")
    h = hashlib.sha256()
    for iv in bc.intervals:
        h.update(f"{iv.k} {iv.birth.hex()} {iv.death.hex()} {iv.creator} {iv.destroyer}\n".encode())
    h.update(np.asarray(bc.destroyers, dtype="<i8").tobytes())
    h.update(repr([(iv.creator, cycle) for iv, cycle in cycles]).encode())
    return {**out, "ru_maxrss_mb": rss, "simplices": len(ff), "column_sets": bc.counts["column_sets"],
            "column_additions": sum(bc.counts["column_additions"].values()), "digest": h.hexdigest()[:16]}


def inprocess(checkout: str) -> dict:
    """Best of five: ``dm_filtration`` on ``sweep8``'s input, and uncapped 3-d births at seeds 0, 5 and 11."""
    _import(checkout)
    from topo_recon import embed, landmarks, mscan, witness
    from topo_recon import signal as lorenz

    def best_of(f, n=5):
        times = []
        for _ in range(n):
            start = time.perf_counter()
            result = f()
            times.append(time.perf_counter() - start)
        return round(min(times), 4), result

    traj = lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=100_001, transient_steps=10_000)
    series = lorenz.observe(lorenz.Trajectory(np.ascontiguousarray(traj.points[::4]), traj.dt * 4), "x")
    sw = mscan.sweep(series, embed.first_minimum(embed.ami_curve(series, tau_max=400)), 0.0054, 125, 8)
    seconds, dmf = best_of(lambda: mscan.dm_filtration(sw, dim_cap=2))
    bars = repr([(iv.k, iv.birth, iv.death, iv.creator, iv.destroyer) for iv in dmf.barcode.intervals])
    out = {"dm_filtration": {"seconds": seconds, "simplices": len(dmf.filtration),
                             "digest": hashlib.sha256(bars.encode()).hexdigest()[:16]}, "uncapped_births": {}}
    for seed in (0, 5, 11):
        pts = lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0 + 0.001 * seed), n_steps=100_001,
                                      transient_steps=10_000).points
        lms = landmarks.select_evenly_spaced(embed.PointCloud(pts, np.arange(len(pts))), 500)
        dm = witness.distance_matrix(pts, lms.coords)
        seconds, ef = best_of(lambda: witness.edge_births(dm))
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (ef.births, ef.witness, ef.vertex_birth)))
        out["uncapped_births"][seed] = {"seconds": seconds, "digest": digest.hexdigest()[:16]}
    return out


def child_json(cmd, cwd=None) -> tuple[dict | None, str]:
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    return (json.loads(last) if last.startswith("{") else None), proc.stdout


def _spread(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": round(statistics.median(values), 4), "quartiles": [round(q[0], 4), round(q[2], 4)],
            "min": round(min(values), 4), "max": round(max(values), 4)}


def stage_runs(sides: dict, work: Path) -> dict:
    """Every input seed on both sides, one child each, the first side alternating by seed."""
    runs = {s: {} for s in sides}
    for seed in SEEDS:
        for side in (("parent", "change") if seed % 2 == 0 else ("change", "parent")):
            result, text = child_json([sys.executable, __file__, "--stages", sides[side], str(seed)])
            (work / f"stages.{side}.{seed}.txt").write_text(text)
            runs[side][seed] = result
    record = {"per_seed": runs, "summary": {}}
    for side, results in runs.items():
        record["summary"][side] = {
            name: _spread([r[name] for r in results.values()])
            for name in ("births_s", "flag_expand_s", "persistent_homology_s", "representative_cycles_s")
        }
        record["summary"][side]["ru_maxrss_mb"] = {
            stage: _spread([r["ru_maxrss_mb"][stage] for r in results.values()])
            for stage in ("inputs", "births", "flag_expand", "persistent_homology", "representative_cycles")
        }
    record["identical_results"] = all(runs["parent"][s]["digest"] == runs["change"][s]["digest"] for s in SEEDS)
    return record


def inprocess_rounds(sides: dict, work: Path) -> dict:
    """Three rounds of ``inprocess``, alternating which checkout runs first; the best time per case."""
    rounds = {s: [] for s in sides}
    for i in range(3):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result, text = child_json([sys.executable, __file__, "--inprocess", sides[side]])
            (work / f"inprocess.{side}.{i}.txt").write_text(text)
            rounds[side].append(result)
    record = {}
    for side, results in rounds.items():
        best = results[0]
        best["dm_filtration"]["seconds_per_round"] = [r["dm_filtration"]["seconds"] for r in results]
        best["dm_filtration"]["seconds"] = min(best["dm_filtration"]["seconds_per_round"])
        for seed, v in best["uncapped_births"].items():
            v["seconds_per_round"] = [r["uncapped_births"][seed]["seconds"] for r in results]
            v["seconds"] = min(v["seconds_per_round"])
        record[side] = best
    record["bitwise_equal"] = record["parent"]["dm_filtration"]["digest"] == record["change"]["dm_filtration"][
        "digest"] and all(record["parent"]["uncapped_births"][s]["digest"] == v["digest"]
                          for s, v in record["change"]["uncapped_births"].items())
    return record


def pairs(sides: dict, work: Path, n: int, argv: list) -> dict:
    """``n`` alternating pairs of ``perfbench/run.py`` with ``argv``; each side's JSON results."""
    runs = {s: [] for s in sides}
    tag = "-".join(a.strip("-") for a in argv)
    for i in range(n):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result, text = child_json(["python3", "perfbench/run.py", *argv], cwd=sides[side])
            (work / f"pairs.{tag}.{side}.{i}.txt").write_text(text)
            if result is not None:
                runs[side].append(result)
    return runs


def summarize_pairs(runs: dict) -> dict:
    """Per workload and metric: each side's values, medians, quartiles, and the change's median against the parent's."""
    n = min(len(runs["parent"]), len(runs["change"]))
    out = {"pairs": n, "workloads": {}}
    for wl in WORKLOADS:
        w = out["workloads"][wl] = {
            "correct_all": all(r[wl]["correct"] for side in runs.values() for r in side[:n]),
            "failed": {s: sum(r[wl]["failed"] for r in runs[s][:n]) for s in runs},
            "attempted": {s: sum(r[wl]["attempted"] for r in runs[s][:n]) for s in runs},
        }
        for metric, bound in BOUNDS.items():
            vals = {s: [r[wl]["metrics"][metric]["value"] for r in runs[s][:n]] for s in runs}
            spread = {s: _spread(v) for s, v in vals.items()}
            rel = spread["change"]["median"] / spread["parent"]["median"] - 1
            w[metric] = {
                "parent": [round(x, 4) for x in vals["parent"]], "change": [round(x, 4) for x in vals["change"]],
                "parent_median": spread["parent"]["median"], "change_median": spread["change"]["median"],
                "parent_quartiles": spread["parent"]["quartiles"], "change_quartiles": spread["change"]["quartiles"],
                "parent_iqr": round(spread["parent"]["quartiles"][1] - spread["parent"]["quartiles"][0], 4),
                "change_vs_parent": round(rel, 4), "bound": bound, "within_bound": rel <= bound,
                "change_lower_in_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
            }
    return out


def traced(sides: dict, work: Path) -> dict:
    """One ``--trace 1`` run per workload and side: its per-layer metrics."""
    record = {}
    for wl in WORKLOADS:
        for side in sides:
            result, text = child_json(["python3", "perfbench/run.py", "--workload", wl, "--trace", "1"],
                                      cwd=sides[side])
            (work / f"trace.{wl}.{side}.txt").write_text(text)
            record.setdefault(wl, {})[side] = result and {
                "correct": result["correct"], "failed": result["failed"],
                **{k: round(v["value"], 4) for k, v in result["metrics"].items()},
            }
    return record


def every_seed(change: str, work: Path) -> dict:
    """Every workload on the change at input seeds 0-15: is every repetition correct."""
    record = {}
    for wl in WORKLOADS:
        correct = {}
        for seed in SEEDS:
            result, text = child_json(["python3", "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                                       "--seconds", "1"], cwd=change)
            (work / f"seed.{wl}.{seed}.txt").write_text(text)
            correct[seed] = bool(result and result["correct"] and not result["failed"])
        record[wl] = {"all_correct": all(correct.values()), "correct": correct}
    return record


def lines(checkout: str) -> dict:
    """``wc -l src/topo_recon/*.py``, per file and the total."""
    files = sorted(str(f) for f in (Path(checkout) / "src" / "topo_recon").glob("*.py"))
    text = subprocess.run(["wc", "-l", *files], stdout=subprocess.PIPE, text=True).stdout
    return {Path(line.split()[1]).name: int(line.split()[0]) for line in text.splitlines()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", default="BENCH_implicit_top.json")
    p.add_argument("--sections", default="stages,inprocess,pairs,trace,seeds,lines")
    p.add_argument("--stages", nargs=2, help=argparse.SUPPRESS)  # child mode: CHECKOUT SEED
    p.add_argument("--inprocess", help=argparse.SUPPRESS)  # child mode: CHECKOUT
    args = p.parse_args()
    if args.stages:
        print(json.dumps(stages(args.stages[0], int(args.stages[1]))))
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
        " ".join(["python3 bench/implicit_top.py", *(Path(a).name if "/" in a else a for a in sys.argv[1:])]))
    uname = subprocess.run(["uname", "-srm"], stdout=subprocess.PIPE, text=True).stdout.strip()
    record.update(checkouts={side: Path(path).name for side, path in sides.items()},
                  machine=f"{uname}, {os.cpu_count()} CPUs, Python {platform.python_version()}, NumPy {np.__version__};"
                          " perfbench children single-threaded")
    if "stages" in sections:
        record["stages_lorenz3d_cap6"] = stage_runs(sides, work)
    if "inprocess" in sections:
        record["inprocess"] = inprocess_rounds(sides, work)
    if "pairs" in sections:
        record["perfbench_pairs"] = summarize_pairs(pairs(sides, work, args.pairs, ["--workload", "all"]))
    if "trace" in sections:
        record["traced"] = traced(sides, work)
    if "seeds" in sections:
        record["seeds_0_15_change"] = every_seed(sides["change"], work)
    if "lines" in sections:
        record["lines"] = {side: lines(checkout) for side, checkout in sides.items()}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record BENCH_births_prune.json: capped births with and without the sub-run bound.

    python3 bench/births_prune.py --parent <checkout> --change <checkout> [--pairs 10] [--out BENCH_births_prune.json]

Each checkout is a plain copy of one commit's files (``git archive``); give
the two checkouts paths of equal length, since run records hold paths.  The
script runs, in this order:

1. In a child process per checkout (its own ``src`` first on the path),
   alternating the checkouts over three rounds: the births of each m of the
   ``sweep8`` benchmark input, best of five, with the share of the N x ell
   distances computed; and capped births at caps 1, 3 and 6 on the 3-d
   trajectory of ``lorenz3d_cap6``, best of five.  A SHA-256 of each result's
   births, witnesses and vertex births shows whether both sides agree bitwise.
2. ``--pairs`` alternating pairs of ``python3 perfbench/run.py --workload
   all``, the first side switching every pair, then one ``--trace 1``
   ``sweep8`` run per side.
3. ``sweep8`` and ``readme_cli`` on the change at every input seed 0-15
   (``--seconds 1``: two repetitions each), for the ``correct`` flags.
4. ``wc -l src/topo_recon/*.py`` on each side.
5. For each ``WORKLOAD:SEED`` of ``--recheck``: ``--pairs`` alternating
   pairs of ``python3 perfbench/run.py --workload WORKLOAD --seed SEED``,
   for a seed the change was not tuned on or a metric to measure again.

``--sections`` picks steps 1-4 (inprocess, pairs, trace, seeds, lines);
their results, and those of ``--recheck``, are merged into ``--out`` when it
exists.  Raw outputs go to ``.bench_work/`` in the current directory.
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


def inprocess(checkout: str) -> dict:
    """Births timings on this checkout's ``topo_recon`` (run in a child with its ``src`` on the path)."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from topo_recon import embed, landmarks, witness
    from topo_recon import signal as lorenz

    def best_of(f, n=5):
        times = []
        for _ in range(n):
            start = time.perf_counter()
            ef = f()
            times.append(time.perf_counter() - start)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (ef.births, ef.witness, ef.vertex_birth)))
        return min(times), ef, digest.hexdigest()[:16]

    traj = lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=100_001, transient_steps=10_000)
    series = lorenz.observe(lorenz.Trajectory(np.ascontiguousarray(traj.points[::4]), traj.dt * 4), "x")
    tau = embed.first_minimum(embed.ami_curve(series, tau_max=400))
    cloud = embed.delay_embed(series, 8, tau, m_anchor=8)
    lms = landmarks.select_evenly_spaced(cloud, 125)
    coords = np.ascontiguousarray(cloud.points.T)
    out = {"sweep8": {}, "lorenz3d": {}}
    for m in range(1, 9):
        w = coords[:m].T
        eps = 0.0054 * embed.bbox_diameter(embed.PointCloud(w, cloud.time_index))
        dm = witness.distance_matrix(w, lms.coords[:, :m])
        seconds, ef, digest = best_of(lambda: witness.edge_births(dm, cap=eps))
        total = w.shape[0] * lms.ell
        out["sweep8"][m] = {"births_s": round(seconds, 4), "distances": getattr(ef, "distances", None) or total,
                            "distances_share": round((getattr(ef, "distances", None) or total) / total, 4),
                            "n_x_ell": total, "digest": digest}
    out["sweep8"]["total_births_s"] = round(sum(v["births_s"] for v in out["sweep8"].values()), 4)
    pts = traj.points
    lms3 = landmarks.select_evenly_spaced(embed.PointCloud(pts, np.arange(len(pts))), 500)
    dm = witness.distance_matrix(pts, lms3.coords)
    for cap in (1.0, 3.0, 6.0):
        seconds, ef, digest = best_of(lambda: witness.edge_births(dm, cap=cap))
        total = len(pts) * lms3.ell
        out["lorenz3d"][f"cap {cap:g}"] = {"births_s": round(seconds, 4),
                                           "distances_share": round((getattr(ef, "distances", None) or total) / total, 4),
                                           "digest": digest}
    return out


def child_json(cmd, cwd=None) -> tuple[dict | None, str]:
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    return (json.loads(last) if last.startswith("{") else None), proc.stdout


def summarize_pairs(runs: dict, workloads=WORKLOADS) -> dict:
    """Per workload and metric: each side's values, medians, quartiles, and the change's median against the parent's."""
    n = min(len(runs["parent"]), len(runs["change"]))
    out = {"pairs": n, "workloads": {}}
    for wl in workloads:
        w = out["workloads"][wl] = {
            "correct_all": all(r[wl]["correct"] for side in runs.values() for r in side[:n]),
            "failed": {s: sum(r[wl]["failed"] for r in runs[s][:n]) for s in runs},
            "attempted": {s: sum(r[wl]["attempted"] for r in runs[s][:n]) for s in runs},
        }
        for metric, bound in BOUNDS.items():
            vals = {s: [r[wl]["metrics"][metric]["value"] for r in runs[s][:n]] for s in runs}
            q = {s: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3 for s, v in vals.items()}
            rel = statistics.median(vals["change"]) / statistics.median(vals["parent"]) - 1
            w[metric] = {
                "parent": [round(x, 4) for x in vals["parent"]], "change": [round(x, 4) for x in vals["change"]],
                "parent_median": round(statistics.median(vals["parent"]), 4),
                "change_median": round(statistics.median(vals["change"]), 4),
                "parent_quartiles": [round(q["parent"][0], 4), round(q["parent"][2], 4)],
                "change_quartiles": [round(q["change"][0], 4), round(q["change"][2], 4)],
                "parent_iqr": round(q["parent"][2] - q["parent"][0], 4),
                "change_vs_parent": round(rel, 4), "bound": bound, "within_bound": rel <= bound,
                "change_lower_in_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
            }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", default="BENCH_births_prune.json")
    p.add_argument("--sections", default="inprocess,pairs,trace,seeds,lines")
    p.add_argument("--recheck", default="", help="comma-separated WORKLOAD:SEED")
    p.add_argument("--inprocess", help=argparse.SUPPRESS)  # child mode: print one checkout's timings
    args = p.parse_args()
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
        " ".join(["python3 bench/births_prune.py", *(Path(a).name if "/" in a else a for a in sys.argv[1:])]))
    uname = subprocess.run(["uname", "-srm"], stdout=subprocess.PIPE, text=True).stdout.strip()
    record.update(checkouts={side: Path(path).name for side, path in sides.items()},
                  machine=f"{uname}, {os.cpu_count()} CPUs, Python {platform.python_version()}, NumPy {np.__version__};"
                          " perfbench children single-threaded")

    if "inprocess" in sections:
        record["inprocess"] = inprocess_rounds(sides, work)
    if "pairs" in sections:
        record["perfbench_pairs"] = summarize_pairs(pairs(sides, work, args.pairs, ["--workload", "all"]))
    for item in filter(None, args.recheck.split(",")):
        wl, seed = item.split(":")
        runs = pairs(sides, work, args.pairs, ["--workload", wl, "--seed", seed])
        runs = {side: [{wl: r} for r in results] for side, results in runs.items()}
        record[f"recheck_{wl}_seed_{seed}"] = summarize_pairs(runs, (wl,))
    if "trace" in sections:
        record["traced_sweep8"] = traced(sides, work)
    if "seeds" in sections:
        record["seeds_0_15_change"] = every_seed(sides["change"], work)
    if "lines" in sections:
        record["lines"] = {side: lines(checkout) for side, checkout in sides.items()}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def inprocess_rounds(sides: dict, work: Path) -> dict:
    """Three rounds of the in-process timings, alternating which checkout runs first; the best time per case."""
    rounds = {s: [] for s in sides}
    for i in range(3):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result, text = child_json([sys.executable, __file__, "--inprocess", sides[side]])
            (work / f"inprocess.{side}.{i}.txt").write_text(text)
            rounds[side].append(result)
    record = {}
    for side, results in rounds.items():
        best = results[0]
        for r in results[1:]:
            for part in ("sweep8", "lorenz3d"):
                for key, v in r[part].items():
                    if isinstance(v, dict):
                        best[part][key]["births_s"] = min(best[part][key]["births_s"], v["births_s"])
        best["sweep8"]["total_births_s"] = round(sum(v["births_s"] for k, v in best["sweep8"].items()
                                                     if isinstance(v, dict)), 4)
        best["sweep8_total_births_s_per_round"] = [r["sweep8"]["total_births_s"] for r in results]
        record[side] = best
    record["bitwise_equal"] = all(
        record["parent"][part][key]["digest"] == v["digest"]
        for part in ("sweep8", "lorenz3d") for key, v in record["change"][part].items() if isinstance(v, dict))
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


def traced(sides: dict, work: Path) -> dict:
    """One ``--trace 1`` sweep8 run per side: the births layer and the sweep's spans."""
    record = {}
    for side in sides:
        result, text = child_json(["python3", "perfbench/run.py", "--workload", "sweep8", "--trace", "1"],
                                  cwd=sides[side])
        (work / f"trace.{side}.txt").write_text(text)
        keep = ("witness.births_s", "witness.births_calls", "witness.births_peak_mb", "mscan.sweep_s",
                "mscan.sweep_self_s", "trace.wall_s")
        record[side] = result and {"correct": result["correct"], **{k: result["metrics"][k]["value"] for k in keep}}
    return record


def every_seed(change: str, work: Path) -> dict:
    """sweep8 and readme_cli on the change at input seeds 0-15: is every repetition correct."""
    record = {}
    for wl in ("sweep8", "readme_cli"):
        correct = {}
        for seed in range(16):
            result, text = child_json(["python3", "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                                       "--seconds", "1"], cwd=change)
            (work / f"seed.{wl}.{seed}.txt").write_text(text)
            correct[seed] = bool(result and result["correct"])
        record[wl] = {"all_correct": all(correct.values()), "correct": correct}
    return record


def lines(checkout: str) -> dict:
    """``wc -l src/topo_recon/*.py``, per file and the total."""
    files = sorted(str(f) for f in (Path(checkout) / "src" / "topo_recon").glob("*.py"))
    text = subprocess.run(["wc", "-l", *files], stdout=subprocess.PIPE, text=True).stdout
    return {Path(line.split()[1]).name: int(line.split()[0]) for line in text.splitlines()}


if __name__ == "__main__":
    sys.exit(main())

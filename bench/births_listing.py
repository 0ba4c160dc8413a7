"""Record BENCH_births_listing.json: capped births that fold the pairs each witness holds.

    python3 bench/births_listing.py --parent <checkout> --change <checkout> [--out BENCH_births_listing.json]

Each checkout is a plain copy of one commit's files (``git archive``); give
the two checkouts paths of equal length, since run records hold paths.  The
script runs, in this order:

1. In a child process per checkout (its own ``src`` first on the path),
   alternating the checkouts over three rounds: the births of each m of the
   ``sweep8`` benchmark input at input seeds 0, 5 and 11, best of five; and
   capped births at caps 0.5, 1, 2, 3 and 6 on the 3-d trajectory of
   ``lorenz3d_cap6`` (seed 0), in time order (best of five) and with the
   witnesses shuffled (best of three).  A SHA-256 of each result's births,
   witnesses and vertex births shows whether both sides agree bitwise, and
   the change's ``distances``, ``listed`` and ``run_chunks`` are kept.
2. The landmarks and landmark pairs each witness holds within the cap, per
   m of the seed-0 sweep and per cap of the trajectory (plain NumPy, no
   package code).  Then, on the change alone, the switch between its two
   folds: each fold forced over whole calls (``_RUN_PAIRS`` set so that
   every chunk lists, or every chunk with pairs folds by sub-runs), its
   time (best of five) and the pairs it takes, on m = 1, 2, 4 and 8 of the
   seed-0 sweep and caps 0.25-6 of the trajectory.
3. Alternating pairs of ``python3 perfbench/run.py --workload W``, the
   first side switching every pair: ``--sweep8-pairs`` (10) for ``sweep8``
   and ``--other-pairs`` (3) each for ``readme_cli`` and ``lorenz3d_cap6``.
4. ``wc -l src/topo_recon/*.py`` on each side.

``--sections`` picks steps (inprocess, held, crossover, pairs, lines); their
results are merged into ``--out`` when it exists.  Raw outputs go to
``.bench_work/`` in the current directory.
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
SEEDS = (0, 5, 11)
CAPS = (0.5, 1.0, 2.0, 3.0, 6.0)


def inputs(src: str, seed: int):
    """The seed's sweep8 witnesses (W_8, landmarks) and, for seed 0, the 3-d trajectory and its landmarks."""
    sys.path.insert(0, src)
    from topo_recon import embed, landmarks
    from topo_recon import signal as lorenz

    traj = lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0 + 0.001 * seed), n_steps=100_001, transient_steps=10_000)
    series = lorenz.observe(lorenz.Trajectory(np.ascontiguousarray(traj.points[::4]), traj.dt * 4), "x")
    tau = embed.first_minimum(embed.ami_curve(series, tau_max=400))
    cloud = embed.delay_embed(series, 8, tau, m_anchor=8)
    lms = landmarks.select_evenly_spaced(cloud, 125)
    sweep = []
    for m in range(1, 9):
        w = np.ascontiguousarray(cloud.points[:, :m])
        sweep.append((w, lms.coords[:, :m], 0.0054 * embed.bbox_diameter(embed.PointCloud(w, cloud.time_index))))
    pts = traj.points
    return sweep, pts, landmarks.select_evenly_spaced(embed.PointCloud(pts, np.arange(len(pts))), 500).coords


def inprocess(checkout: str) -> dict:
    """Births timings on this checkout's ``topo_recon`` (run in a child with its ``src`` on the path)."""
    src = str(Path(checkout) / "src")
    sys.path.insert(0, src)
    from topo_recon import witness

    def best_of(dm, cap, n):
        times = []
        for _ in range(n):
            start = time.perf_counter()
            ef = witness.edge_births(dm, cap=cap)
            times.append(time.perf_counter() - start)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (ef.births, ef.witness, ef.vertex_birth)))
        counts = {k: getattr(ef, k, None) for k in ("distances", "listed", "run_chunks")}
        return {"births_s": round(min(times), 4), "digest": digest.hexdigest()[:16], **counts}

    out = {}
    for seed in SEEDS:
        sweep, pts, lms3 = inputs(src, seed)
        per_m = {m: best_of(witness.distance_matrix(w, l), eps, 5) for m, (w, l, eps) in enumerate(sweep, 1)}
        per_m["total_births_s"] = round(sum(v["births_s"] for v in per_m.values()), 4)
        out[f"sweep8_seed_{seed}"] = per_m
    shuffled = np.ascontiguousarray(pts[np.random.default_rng(0).permutation(len(pts))])
    for order, w, n in (("time_order", pts, 5), ("shuffled", shuffled, 3)):
        dm = witness.distance_matrix(w, lms3)
        out[f"lorenz3d_{order}"] = {f"cap {cap:g}": best_of(dm, cap, n) for cap in CAPS}
    return out


def held(checkout: str) -> dict:
    """Mean landmarks and landmark pairs each witness holds within the cap (excess <= cap), by plain NumPy."""
    sweep, pts, lms3 = inputs(str(Path(checkout) / "src"), 0)

    def per_witness(W, L, cap):
        counts = []
        for s in range(0, len(W), 4096):
            d = np.sqrt(((W[s : s + 4096, None, :] - L[None, :, :]) ** 2).sum(axis=-1))
            counts.append(np.count_nonzero(d - d.min(axis=1)[:, None] <= cap, axis=1))
        h = np.concatenate(counts)
        return {"landmarks": round(float(h.mean()), 2), "pairs": round(float((h * (h - 1) / 2).mean()), 2)}

    out = {f"sweep8 m={m}": per_witness(w, l, eps) for m, (w, l, eps) in enumerate(sweep, 1)}
    out.update({f"lorenz3d cap {cap:g}": per_witness(pts, lms3, cap) for cap in CAPS})
    return out


def crossover(checkout: str) -> dict:
    """The change's two folds forced over whole calls: each one's time and pairs (seed 0; run in a child)."""
    src = str(Path(checkout) / "src")
    sys.path.insert(0, src)
    from topo_recon import witness

    sweep, pts, lms3 = inputs(src, 0)
    cases = {f"sweep8 m={m}": (sweep[m - 1][0], sweep[m - 1][1], sweep[m - 1][2]) for m in (1, 2, 4, 8)}
    cases.update({f"lorenz3d cap {cap:g}": (pts, lms3, cap) for cap in (0.25, *CAPS)})
    fold_pairs, out = witness._fold_pairs, {}
    for name, (w, l, cap) in cases.items():
        dm, row = witness.distance_matrix(w, l), {}
        for fold, switch in (("listing", 1e300), ("runs", 0)):
            witness._RUN_PAIRS, pairs = switch, []
            witness._fold_pairs = lambda *a, **k: pairs.append(fold_pairs(*a, **k)) or pairs[-1]
            witness.edge_births(dm, cap=cap)
            witness._fold_pairs = fold_pairs
            times = []
            for _ in range(5):
                start = time.perf_counter()
                witness.edge_births(dm, cap=cap)
                times.append(time.perf_counter() - start)
            row[fold] = {"births_s": round(min(times), 4), "pairs": sum(pairs)}
        row["witness_pairs_over_row_pairs"] = round(row["listing"]["pairs"] / max(row["runs"]["pairs"], 1), 2)
        row["runs_over_listing_s"] = round(row["runs"]["births_s"] / row["listing"]["births_s"], 2)
        out[name] = row
    return out


def child_json(cmd, cwd=None) -> tuple[dict | None, str]:
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    return (json.loads(last) if last.startswith("{") else None), proc.stdout


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
            for part, cases in r.items():
                for key, v in cases.items():
                    if isinstance(v, dict):
                        best[part][key]["births_s"] = min(best[part][key]["births_s"], v["births_s"])
        for seed in SEEDS:
            part = best[f"sweep8_seed_{seed}"]
            part["total_births_s"] = round(sum(v["births_s"] for v in part.values() if isinstance(v, dict)), 4)
            part["total_births_s_per_round"] = [r[f"sweep8_seed_{seed}"]["total_births_s"] for r in results]
        record[side] = best
    record["bitwise_equal"] = all(
        record["parent"][part][key]["digest"] == v["digest"]
        for part, cases in record["change"].items() for key, v in cases.items() if isinstance(v, dict))
    record["change_over_parent"] = {
        part: {key: round(v["births_s"] / record["parent"][part][key]["births_s"], 3)
               for key, v in cases.items() if isinstance(v, dict)}
        for part, cases in record["change"].items()}
    return record


def pairs(sides: dict, work: Path, n: int, workload: str) -> dict:
    """``n`` alternating pairs of ``perfbench/run.py --workload``; each side's JSON results."""
    runs = {s: [] for s in sides}
    for i in range(n):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result, text = child_json(["python3", "perfbench/run.py", "--workload", workload], cwd=sides[side])
            (work / f"pairs.{workload}.{side}.{i}.txt").write_text(text)
            if result is not None:
                runs[side].append(result)
    return runs


def summarize(runs: dict) -> dict:
    """Per metric: each side's values, medians and quartiles, and the change's median against the parent's."""
    n = min(len(runs["parent"]), len(runs["change"]))
    out = {"pairs": n, "correct_all": all(r["correct"] for side in runs.values() for r in side[:n]),
           "failed": {s: sum(r["failed"] for r in runs[s][:n]) for s in runs},
           "attempted": {s: sum(r["attempted"] for r in runs[s][:n]) for s in runs}}
    for metric, bound in BOUNDS.items():
        vals = {s: [r["metrics"][metric]["value"] for r in runs[s][:n]] for s in runs}
        q = {s: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3 for s, v in vals.items()}
        rel = statistics.median(vals["change"]) / statistics.median(vals["parent"]) - 1
        out[metric] = {
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


def lines(checkout: str) -> dict:
    """``wc -l src/topo_recon/*.py``, per file and the total."""
    files = sorted(str(f) for f in (Path(checkout) / "src" / "topo_recon").glob("*.py"))
    text = subprocess.run(["wc", "-l", *files], stdout=subprocess.PIPE, text=True).stdout
    return {Path(line.split()[1]).name: int(line.split()[0]) for line in text.splitlines()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--sweep8-pairs", type=int, default=10)
    p.add_argument("--other-pairs", type=int, default=3)
    p.add_argument("--out", default="BENCH_births_listing.json")
    p.add_argument("--sections", default="inprocess,held,crossover,pairs,lines")
    p.add_argument("--inprocess", help=argparse.SUPPRESS)  # child mode: print one checkout's timings
    p.add_argument("--crossover", help=argparse.SUPPRESS)  # child mode: print the change's forced folds
    args = p.parse_args()
    if args.inprocess:
        print(json.dumps(inprocess(args.inprocess)))
        return 0
    if args.crossover:
        print(json.dumps(crossover(args.crossover)))
        return 0
    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    work = Path(".bench_work")
    work.mkdir(exist_ok=True)
    sections = set(args.sections.split(","))
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("commands", []).append(
        " ".join(["python3 bench/births_listing.py", *(Path(a).name if "/" in a else a for a in sys.argv[1:])]))
    uname = subprocess.run(["uname", "-srm"], stdout=subprocess.PIPE, text=True).stdout.strip()
    record.update(checkouts={side: Path(path).name for side, path in sides.items()},
                  machine=f"{uname}, {os.cpu_count()} CPUs, Python {platform.python_version()}, NumPy {np.__version__};"
                          " perfbench children single-threaded")
    if "inprocess" in sections:
        record["inprocess"] = inprocess_rounds(sides, work)
    if "crossover" in sections:
        result, text = child_json([sys.executable, __file__, "--crossover", sides["change"]])
        (work / "crossover.txt").write_text(text)
        record["crossover"] = result
    if "held" in sections:
        record["held_per_witness"] = held(sides["change"])
    if "pairs" in sections:
        counts = {"sweep8": args.sweep8_pairs, "readme_cli": args.other_pairs, "lorenz3d_cap6": args.other_pairs}
        record["perfbench_pairs"] = {wl: summarize(pairs(sides, work, n, wl)) for wl, n in counts.items()}
    if "lines" in sections:
        record["lines"] = {side: lines(checkout) for side, checkout in sides.items()}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

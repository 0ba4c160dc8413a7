"""Record BENCH_stream_io.json: CSV tables and the filtration file streamed, and heap pivots in the reduction.

    python3 bench/stream_io.py --parent <checkout> --change <checkout> [--pairs 10] [--out FILE]

Each checkout is a plain copy of one commit's files (``git archive``); give
the two checkouts paths of equal length, since run records hold paths.  The
script runs, in this order:

1. ``io``: one child process per checkout and round (three rounds, the first
   side alternating) traces the peak allocations (``tracemalloc``) and takes
   the best of five times of ``save_cloud``, ``load_cloud``, ``save_series``,
   ``load_series`` and ``save_filtration`` at 49,843 and 99,843 rows (the
   clouds of the x series at tau 158; for ``save_filtration``, random points
   in the plane complete through triangles, 55 and 69 points or 27,775 and
   54,809 simplices), plus a SHA-256 of every
   file written, which must match across the checkouts.
2. ``reduction``: ``bench/one_coboundary.py``'s digests of the barcodes of
   ``lorenz3d_cap6`` inputs 0-15 and ``sweep8``'s lifespan filtration, and
   its three in-process rounds of ``persistent_homology``.
3. ``pairs``: ``--pairs`` alternating pairs of ``python3 perfbench/run.py
   --workload <w>`` for each workload, the first side switching every pair.
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
import tracemalloc
from pathlib import Path

import numpy as np

import one_coboundary
from implicit_top import WORKLOADS, child_json, lines, pairs, summarize_pairs

ROWS = (49_843, 99_843)


def _measure(f) -> dict:
    tracemalloc.start()
    f()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return {"peak_mib": round(peak / 2**20, 3), "seconds": round(min(times), 5)}


def io(checkout: str) -> dict:
    """Traced peaks, best-of-five times and output digests of the table and filtration writers and readers."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from topo_recon import embed, witness
    from topo_recon import signal as lorenz

    x = lorenz.observe(lorenz.integrate_lorenz(ic=(5.0, 5.0, 5.0), n_steps=100_001, transient_steps=10_000), "x")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for rows in ROWS:
            cloud = embed.delay_embed(lorenz.ScalarSeries(x.values[: rows + 158], x.sample_interval), 2, 158)
            series = lorenz.ScalarSeries(x.values[:rows], x.sample_interval)
            n = int(round((3 * rows) ** (1 / 3))) + 2  # complete through triangles: about n^3 / 6 simplices
            P = np.random.default_rng(0).uniform(size=(n, 2))
            D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(axis=-1))
            np.fill_diagonal(D, np.inf)
            ff = witness.flag_expand(witness.EdgeFiltration(np.zeros(n), D), dim_cap=2)
            c, s, f = (Path(tmp) / name for name in ("cloud.csv", "series.txt", "filtration.json"))
            cases = {
                "save_cloud": lambda: embed.save_cloud(cloud, c),
                "load_cloud": lambda: embed.load_cloud(c),
                "save_series": lambda: lorenz.save_series(series, s),
                "load_series": lambda: lorenz.load_series(s),
                "save_filtration": lambda: witness.save_filtration(ff, f),
            }
            for name, case in cases.items():
                out[f"{name}.{rows}"] = _measure(case)
            out[f"save_filtration.{rows}"]["simplices"] = len(ff)
            out[f"digests.{rows}"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (c, s, f)}
    return out


def io_rounds(sides: dict, work: Path) -> dict:
    rounds = {s: [] for s in sides}
    for i in range(3):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result, text = child_json([sys.executable, __file__, "--io", sides[side]])
            (work / f"io.{side}.{i}.txt").write_text(text)
            rounds[side].append(result)
    record = {}
    for side, runs in rounds.items():
        record[side] = {name: ({**case, "seconds": min(r[name]["seconds"] for r in runs)} if "seconds" in case
                               else case) for name, case in runs[0].items()}
    record["identical_files"] = all(record["parent"][k] == record["change"][k] for k in record["parent"]
                                    if k.startswith("digests"))
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", default="BENCH_stream_io.json")
    p.add_argument("--sections", default="io,reduction,pairs,lines")
    p.add_argument("--io", help=argparse.SUPPRESS)  # child mode: CHECKOUT
    args = p.parse_args()
    if args.io:
        print(json.dumps(io(args.io)))
        return 0
    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    work = Path(".bench_work")
    work.mkdir(exist_ok=True)
    sections = set(args.sections.split(","))
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("commands", []).append(
        " ".join(["python3 bench/stream_io.py", *(Path(a).name if "/" in a else a for a in sys.argv[1:])]))
    uname = subprocess.run(["uname", "-srm"], stdout=subprocess.PIPE, text=True).stdout.strip()
    record.update(checkouts={side: Path(path).name for side, path in sides.items()},
                  machine=f"{uname}, {os.cpu_count()} CPUs, Python {platform.python_version()}, NumPy {np.__version__};"
                          " perfbench children single-threaded")
    if "io" in sections:
        record["io"] = io_rounds(sides, work)
    if "reduction" in sections:
        digests = {}
        for side, checkout in sides.items():
            digests[side], text = child_json([sys.executable, one_coboundary.__file__, "--results", checkout])
            (work / f"results.{side}.txt").write_text(text)
        record["reduction"] = {"results": {**digests, "identical": digests["parent"] == digests["change"]},
                               "inprocess": one_coboundary.inprocess_rounds(sides, work)}
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
    if "lines" in sections:
        record["lines"] = {side: lines(checkout) for side, checkout in sides.items()}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the topo-recon pipeline on three pinned workloads.

    python3 perfbench/run.py --workload <readme_cli|lorenz3d_cap6|sweep8|all> \\
        --seed <n> --seconds <s> --trace <0|1>

Each repetition runs in a fresh single-threaded child process (rep.py), one at
a time, until --seconds have passed (at least two of them).  Every
repetition's result is checked against the reference digest of its input.

--trace 0 reports the end-to-end metrics: median wall_s (inputs ready to
checked result), median setup_s (process start to inputs ready) and median
peak_rss_mb.  --trace 1 alternates untraced and traced repetitions, then
makes one memory-traced repetition last.  It reports the per-layer times and
counts of the traced repetition with the median wall time, the tracemalloc
peaks of the memory-traced one (tracemalloc slows Python-heavy layers
several-fold, so it stays out of the timed spans), and trace.overhead_frac.  Spans are written to .perfbench_work/.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A failed repetition counts in "failed"; a failure while
setting up (for example, no topo_recon source in the checkout) ends the run
with exit code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS, PEAK_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 165.0
# A memory-traced repetition takes up to this many times a traced one
# (about 4x on lorenz3d_cap6, where tracemalloc slows the bigint reduction
# about eight-fold).
MEMORY_TRACE_COST = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class RunFailed(RuntimeError):
    """Nothing can be measured: a child could not make its inputs, or no traced repetition passed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, trace: int, rep: int, timeout: float, inject=None, record=False) -> dict:
    """Run one repetition in a child process and return its report.

    trace: 0 untraced, 1 spans, 2 spans with tracemalloc peaks.
    """
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--rep", str(rep)]
    if inject:
        cmd += ["--inject", inject]
    if record:
        cmd.append("--record")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(start)], stdout=subprocess.PIPE, text=True,
                              timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "stage": "run", "error": f"timed out after {timeout:.0f} s",
                "trace": trace, "duration": time.monotonic() - start}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"ok": False, "stage": "run", "error": f"exit code {proc.returncode} and no report (see stderr)"}
    report["trace"] = trace
    report["duration"] = time.monotonic() - start
    if report["stage"] == "setup":
        raise RunFailed(f"set-up failed:\n{report['error']}")
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions until `seconds` have passed, at least two.

    A traced run alternates untraced and traced repetitions (at least two of
    each, or one of each when a slow machine leaves no time), then makes one
    memory-traced repetition last.
    """
    t0 = time.monotonic()

    def remaining() -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - t0))

    min_reps = 4 if trace else 2
    reps = []
    while True:
        reps.append(spawn(workload, seed, len(reps) % 2 if trace else 0, len(reps), timeout=remaining()))
        elapsed = time.monotonic() - t0
        longest = max(r["duration"] for r in reps)
        reserve = longest * (1 + MEMORY_TRACE_COST * trace)
        out_of_time = remaining() < reserve and len(reps) >= 1 + trace
        if out_of_time or (len(reps) >= min_reps and elapsed + elapsed / len(reps) > seconds):
            break
    if trace:
        reps.append(spawn(workload, seed, 2, len(reps), timeout=remaining()))
    return reps


def median_of(reps: list, key: str) -> float:
    """Median over passing repetitions; over every repetition that measured it when none passed."""
    values = [r[key] for r in reps if r["ok"] and key in r] or [r[key] for r in reps if key in r]
    if not values:
        raise RunFailed(f"no repetition measured {key}: " + "; ".join(str(r["error"]) for r in reps))
    return statistics.median(values)


def count_mismatches(traced: list, reference_counts: dict | None) -> list:
    """Counts that differ between traced repetitions, or from the reference for this input."""
    problems = []
    for name in EXACT_COUNTS:
        values = {r["layers"][name] for r in traced}
        if len(values) > 1:
            problems.append(f"{name} differs across repetitions: {sorted(values)}")
        elif reference_counts is not None and name in reference_counts and values != {reference_counts[name]}:
            problems.append(f"{name} = {values.pop()}, reference {reference_counts[name]}")
    return problems


def summarize(workload: str, seed: int, reps: list, trace: bool, spec: dict) -> dict:
    attempted = len(reps)
    failed = sum(not r["ok"] for r in reps)
    problems = [f"rep {i}: {r['error']}" for i, r in enumerate(reps) if not r["ok"]]
    plain = [r for r in reps if r["trace"] == 0]
    if not trace:
        values = {"wall_s": median_of(plain, "wall_s"), "setup_s": median_of(plain, "setup_s"),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        traced = sorted((r for r in reps if r["trace"] == 1 and r["ok"]), key=lambda r: r["wall_s"])
        memory = [r for r in reps if r["trace"] == 2 and r["ok"]]
        if not traced or not memory:
            raise RunFailed("no traced repetition passed: " + "; ".join(problems))
        layers = dict(traced[(len(traced) - 1) // 2]["layers"])
        layers.update({name: memory[0]["layers"][name] for name in PEAK_METRICS})
        layers["trace.overhead_frac"] = median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)
        entry = reference["workloads"][workload].get(str(traced[0]["input"]), {})
        mismatches = count_mismatches(traced + memory, entry.get("counts"))
        problems += mismatches
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def machine_facts(reps: list) -> str:
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    threads = " ".join(f"{name}=1" for name in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={versions.get('python')} numpy={versions.get('numpy')} "
            f"scipy={versions.get('scipy')} child env: {threads}")


def report(workload: str, seed: int, reps: list, summary: dict, trace: bool) -> None:
    """Human-readable lines; the JSON result follows them."""
    plain = [r for r in reps if r["trace"] == 0]
    print(f"== {workload} seed={seed} reps={len(reps)} ({len(plain)} untraced) "
          f"failed={summary['failed']} fail_frac={summary['failed'] / summary['attempted']:.3f}")
    print(f"   machine: {machine_facts(reps)}")
    for name, m in summary["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6f}"
        print(f"   {name:28s} {value:>16} {m['unit']}")
    if not trace:
        print(f"   {'fail_frac':28s} {summary['failed'] / summary['attempted']:>16.6f} ratio"
              f" ({summary['failed']} of {summary['attempted']} repetitions failed)")
        walls = ", ".join(f"{r['wall_s']:.3f}" for r in plain if "wall_s" in r)
        print(f"   wall_s per repetition: {walls}")
        setups = ", ".join(f"{r['setup_s']:.3f}" for r in plain if "setup_s" in r)
        print(f"   setup_s per repetition: {setups}")
    for problem in summary["problems"]:
        print(f"   FAILED: {problem}")


def write_spans(workload: str, seed: int, reps: list) -> Path:
    out = ROOT / ".perfbench_work" / f"spans-{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for r in reps:
            for span in r.get("spans", ()):
                fh.write(json.dumps({**span, "tracemalloc": r["trace"] == 2}) + "\n")
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    for workload in names:
        try:
            reps = measure(workload, args.seed, args.seconds, bool(args.trace))
            summary = summarize(workload, args.seed, reps, bool(args.trace), spec)
        except RunFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 2
        report(workload, args.seed, reps, summary, bool(args.trace))
        if args.trace:
            print(f"   spans: {write_spans(workload, args.seed, reps).relative_to(ROOT)}")
        results[workload] = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

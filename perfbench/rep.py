"""One repetition of a workload, in a fresh process started by run.py.

Prints one JSON line: set-up seconds (from process start to inputs ready), wall
seconds (inputs ready to checked result), peak RSS, the check's outcome and,
with --trace 1, the spans and counters of the repetition.  A failure during
set-up is reported with "stage": "setup"; run.py treats it as fatal.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                   help="0 untraced, 1 spans, 2 spans with tracemalloc peaks")
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before the spawn")
    p.add_argument("--inject", default=None)
    p.add_argument("--record", action="store_true", help="skip the reference digest comparison")
    args = p.parse_args()

    out = {"ok": False, "stage": "setup", "error": None}
    workdir = None
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        import scipy
        import topo_recon

        if Path(topo_recon.__file__).resolve().parent != ROOT / "src" / "topo_recon":
            raise ImportError(f"topo_recon imported from {topo_recon.__file__}, not from this checkout")
        import tracing
        import workloads

        tracer = None
        if args.trace:
            tracer = tracing.Tracer(args.rep)
            tracing.install(tracer)
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        inputs = workloads.setup(args.workload, args.seed, workdir)
        ready = time.monotonic()
        out["setup_s"] = ready - args.spawned_at
        out["input"] = workloads.input_seed(args.seed)
        out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    except Exception:
        out["error"] = traceback.format_exc()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(out))
        return

    out["stage"] = "run"
    if args.trace == 2:
        tracer.start_memory()
    result = None
    try:
        result = workloads.run(args.workload, inputs, workdir, args.inject)
        reference = None
        if not args.record:
            with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
                reference = json.load(fh)
        out["digest"] = workloads.check(args.workload, args.seed, result, reference)
        out["ok"] = True
    except Exception as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, workloads.CheckFailed):
            traceback.print_exc()
    done = time.monotonic()
    out["wall_s"] = done - ready
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if result is not None:
        out["tau"] = result.tau
        out["betti"] = result.betti
    if tracer is not None:
        if result is not None and result.artifact_bytes:
            tracer.counts["cli.artifact_bytes"] = result.artifact_bytes
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, ready, done)
        out["spans"] = [{**s, "start": s["start"] - ready, "end": s["end"] - ready} for s in tracer.spans]
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

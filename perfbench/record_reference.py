"""Regenerate reference.json: the result digest and exact counts of every shipped input.

    python3 perfbench/record_reference.py

Runs one traced repetition per workload and input seed (0 .. REFERENCE_SEEDS-1)
without comparing digests, and stores what it produced.  Every workload is
recorded in one go, so the whole file comes from one commit.  The stored
digests are the definition of a correct result, so record them only from a
commit whose results are trusted.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from tracing import EXACT_COUNTS

sys.path.insert(0, str(run.ROOT / "src"))
from workloads import REFERENCE_SEEDS  # noqa: E402  (imports topo_recon from src/)

PATH = run.HERE / "reference.json"


def computed_counts_agree(entries: dict) -> bool:
    """births_pair_evals and births_bytes depend only on N and ell, so on tau here."""
    by_tau = {}
    for entry in entries.values():
        counts = entry["counts"]
        by_tau.setdefault(entry["tau"], set()).add(
            (counts["witness.births_pair_evals"], counts["witness.births_bytes"]))
    return all(len(values) == 1 for values in by_tau.values())


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    reference = {"seeds": REFERENCE_SEEDS, "workloads": {}}
    for workload in (w["name"] for w in run.load_spec()["workloads"]):
        entries = {}
        for seed in range(REFERENCE_SEEDS):
            rep = run.spawn(workload, seed, trace=1, rep=0, timeout=run.HARD_LIMIT_S, record=True)
            if not rep["ok"]:
                print(f"{workload} seed {seed}: {rep['error']}", file=sys.stderr)
                return 1
            entries[str(seed)] = {
                "digest": rep["digest"],
                "tau": rep["tau"],
                "betti": rep["betti"],
                "counts": {name: rep["layers"][name] for name in EXACT_COUNTS},
            }
            print(f"{workload} seed {seed}: {rep['digest'][:16]} tau={rep['tau']} betti={rep['betti']}", flush=True)
        if not computed_counts_agree(entries):
            print(f"{workload}: computed counts differ between inputs of equal size", file=sys.stderr)
            return 1
        reference["workloads"][workload] = entries
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

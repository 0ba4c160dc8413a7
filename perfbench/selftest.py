"""Self-test of the result check.

    python3 perfbench/selftest.py

Runs four sweep8 repetitions on seed 0 through the benchmark's own spawn and
summary code: one clean, one with a bar dropped from the barcode, one with a
birth moved by one ulp, and one whose workload raises.  Passes when exactly
the three damaged repetitions count as failed and the run still finishes with
a summary.  Exit code 0 on success, 1 otherwise.
"""

from __future__ import annotations

import sys

import run

CASES = ((None, True), ("drop_bar", False), ("ulp_birth", False), ("raise", False))


def main() -> int:
    spec = run.load_spec()
    reps = [run.spawn("sweep8", 0, 0, i, timeout=run.HARD_LIMIT_S, inject=inject)
            for i, (inject, _) in enumerate(CASES)]
    summary = run.summarize("sweep8", 0, reps, False, spec)
    passed = True
    for (inject, want_ok), rep in zip(CASES, reps):
        verdict = "ok" if rep["ok"] == want_ok else "WRONG"
        passed &= rep["ok"] == want_ok
        print(f"{inject or 'clean':10s} counted as {'passed' if rep['ok'] else 'failed'}: {verdict}"
              f"  ({rep['error'] or rep['digest'][:16]})")
    passed &= summary["attempted"] == 4 and summary["failed"] == 3 and not summary["correct"]
    print(f"attempted={summary['attempted']} failed={summary['failed']} "
          f"fail_frac={summary['failed'] / summary['attempted']:.2f} correct={summary['correct']}")
    print("self-test", "PASSED" if passed else "FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

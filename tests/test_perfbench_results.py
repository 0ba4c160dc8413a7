"""The benchmark's result check, run on seed 0 of each workload inside the test suite.

``perfbench/run.py`` compares every repetition with ``perfbench/reference.json``,
but only when the benchmark runs.  These tests import ``perfbench/workloads.py``
(read only: no bytecode is written next to it) and run its set-up, pipeline and
check in-process, so a change that alters a benchmark result fails here too.
The artifact byte count, which ``run.py`` compares only on a traced run, is
compared here as well.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["readme_cli", "lorenz3d_cap6", "sweep8"])
def test_seed_0_matches_reference(workloads, workload, tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    inputs = workloads.setup(workload, 0, tmp_path)
    result = workloads.run(workload, inputs, tmp_path)
    workloads.check(workload, 0, result, reference)  # raises CheckFailed on any difference
    counts = reference["workloads"][workload]["0"]["counts"]
    assert result.artifact_bytes == counts["cli.artifact_bytes"]

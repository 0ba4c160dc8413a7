"""The package's import surface: every module imports with NumPy alone, no SciPy."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import topo_recon
names = [m.name for m in pkgutil.iter_modules(topo_recon.__path__, "topo_recon.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def fresh(code):
    """Run code in a fresh process, so nothing the test suite imported counts, and parse its last line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_module_imports_scipy():
    out = fresh(IMPORT_ALL)
    assert "topo_recon.witness" in out["modules"] and "topo_recon.cli" in out["modules"]
    assert out["scipy"] == []


def test_witness_layer_imports_only_signal():
    # the witness layer takes coordinate arrays, so it needs no point-cloud or landmark types
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'topo_recon')"
    got = fresh(f"import json, sys, topo_recon.witness; print(json.dumps({loaded}))")
    assert got == ["topo_recon", "topo_recon.signal", "topo_recon.witness"]

"""Every topo_recon name the benchmark reaches must still resolve.

``perfbench/tracing.py`` sums per-layer metrics over spans named
``<layer>.<function>``, and it opens a span only around a public function
defined in that module.  ``perfbench/workloads.py`` calls ``<module>.<name>``.
A deleted or renamed function would leave its metric silently at zero, so
these tests read both files as source, without importing them, and resolve
every name.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_assignments(path: Path) -> dict:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }


def traced_names() -> set:
    """Span names read by tracing.py's metric tables and its counter hooks."""
    tables = _module_assignments(PERFBENCH / "tracing.py")
    names = {ast.literal_eval(key) for key in tables["_COUNTERS"].keys}
    for spans in ast.literal_eval(tables["_SPAN_TIMES"]).values():
        names.update(spans)
    names.update(ast.literal_eval(tables["_SPAN_CALLS"]).values())
    names.update(ast.literal_eval(tables["_SPAN_PEAKS"]).values())
    return names


def workload_calls() -> set:
    """(module, attribute) for every ``<topo_recon module>.<name>(...)`` call in workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name: f"topo_recon.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "topo_recon"
        for alias in node.names
    }
    return {
        (aliases[node.func.value.id], node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in aliases
    }


def test_every_traced_span_is_a_public_function():
    names = traced_names()
    assert "witness.edge_births" in names and "signal.load_series" in names
    missing = []
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"topo_recon.{layer}")
        fn = vars(module).get(attr)
        if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            missing.append(name)
    assert missing == []


def test_every_workload_call_resolves():
    calls = workload_calls()
    assert ("topo_recon.witness", "edge_births") in calls
    assert ("topo_recon.signal", "integrate_lorenz") in calls
    missing = []
    for module_name, attr in sorted(calls):
        obj = getattr(importlib.import_module(module_name), attr, None)
        if attr.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []

"""The benchmark's tracer (perfbench/tracer.py) wraps shearvortex functions
by module and attribute path; each one it names must exist, or a traced
benchmark run fails. The list is read from the source, not imported, so
this check does not depend on the tracer's own imports."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_tracer_targets_resolve_to_callables():
    targets = _tracer_targets()
    assert targets
    broken = []
    for layer, module, path in targets:
        owner = importlib.import_module(f"shearvortex.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            broken.append(f"{layer}: shearvortex.{module}.{path}")
    assert not broken, broken

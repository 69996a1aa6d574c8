"""The benchmark's tracer wraps functions by name (``WRAPPED`` in
``perfbench/tracing.py``).  A name that is inlined or renamed stops being
traced, and its time moves silently into its caller's layer, so every listed
name must stay bound and callable where the tracer looks it up."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped() -> dict[str, tuple[str, ...]]:
    """WRAPPED read from the source, without importing the tracer."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED in {TRACING}")


WRAPPED = _wrapped()


@pytest.mark.parametrize("module, name", [(m, n) for m, names in WRAPPED.items() for n in names])
def test_traced_name_is_bound(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"

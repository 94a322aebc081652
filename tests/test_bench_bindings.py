"""The benchmark's traced run binds library functions by name; every name must resolve."""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names():
    """``TRACED`` read from the source of ``bench/spans.py`` without running it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_traced_names_resolve_to_callables():
    names = traced_names()
    assert names
    for module_name, func_name in names:
        module = importlib.import_module(f"fanweave.{module_name}")
        assert callable(getattr(module, func_name, None)), f"fanweave.{module_name}.{func_name}"

"""The benchmark's span names must name functions the tracer still wraps.

``perfbench/run.py`` reads its per-layer metrics from spans named
``module.function``, and the tracer records a span only for a public
function defined by its ``loracanvas`` module. Renaming or deleting such a
function would make a metric read 0 without an error, so this check reads
the span names out of ``run.py`` (parsed, not imported) and fails first.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
READERS = {"ms", "calls", "self_ms", "named"}
SPAN_TABLES = {"ATTENTION_SPANS", "TRACE_HOOKS"}


def _strings(node: ast.AST) -> set[str]:
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def span_names() -> set[str]:
    """Every literal span name run.py reads, lists or compares a span's name against."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(RUN.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in READERS and node.args
                and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in SPAN_TABLES):
            table = node.value
            parts = table.keys if isinstance(table, ast.Dict) else [table]
            names |= set().union(*map(_strings, parts))
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Subscript)
              and isinstance(node.left.slice, ast.Name) and node.left.slice.id == "NAME"):
            names |= set().union(*map(_strings, node.comparators))
    return names


def test_every_span_run_py_reads_names_a_traced_function():
    names = span_names()
    assert len(names) >= 22  # the count when this check was written
    missing = []
    for name in sorted(names):
        module_name, _, function = name.partition(".")
        module = importlib.import_module(f"loracanvas.{module_name}")
        obj = vars(module).get(function)
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not function.startswith("_")):
            missing.append(name)
    assert missing == []

"""No loracanvas module reads a private name of another.

A name with one leading underscore belongs to the module that defines it.
This check parses every module under ``src/loracanvas`` (parsed, not
imported) and fails on ``from .<module> import _<name>`` and on
``<alias>._<name>`` where the alias is bound to a loracanvas module. Dunder
names are exempt. A module that needs another's helper asks for a public one.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loracanvas"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """Every read of another loracanvas module's private name, by line."""
    tree = ast.parse(source)
    modules: set[str] = set()  # names bound to a loracanvas module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.partition(".")[0] for a in node.names
                        if a.name.partition(".")[0] == "loracanvas"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "loracanvas"
                                                   or (node.module or "").startswith("loracanvas.")):
            for a in node.names:
                if _private(a.name):
                    found.append((node.lineno, f"imports {a.name}"))
                elif node.module in (None, "loracanvas"):  # `from . import autodiff as ad`
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, f"reads {root.id}...{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_no_module_reads_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 12
    offences = {path.name: private_reads(path.read_text()) for path in modules}
    assert {name: found for name, found in offences.items() if found} == {}


def test_the_privacy_check_sees_both_forms():
    source = ("from . import autodiff as ad\n"
              "import loracanvas.errors\n"
              "from .autodiff import Tensor, _result, __version__\n"
              "ad._scatter(ad.__name__, Tensor._vjp)\n"
              "loracanvas.errors._x\n")
    assert private_reads(source) == ["line 3: imports _result", "line 4: reads ad..._scatter",
                                     "line 5: reads loracanvas..._x"]

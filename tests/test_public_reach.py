"""Every public loracanvas function and class has a caller in the program.

A public module-level function or class of ``src/loracanvas`` must be named
somewhere in ``src/loracanvas`` or ``perfbench/`` outside its own
definition; a name the tests alone call is dead weight the package ships.
Files are parsed, not imported, as in ``test_module_privacy.py``. A name
counts where it appears as an ``ast.Name``, as the attribute of an
``ast.Attribute`` or as an imported name, whatever it is bound to there.
The kernels only the tests name are listed, and a run of the program with
each of them patched to raise shows that none is called.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

from loracanvas import autodiff as ad
from loracanvas.cli import compose_main, run_gradcheck
from loracanvas.pipeline import RunConfig, sample

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loracanvas"
PERFBENCH = ROOT / "perfbench"

# autodiff kernels that only the tests call, as the reference chains the fused
# nodes are checked against; deleting them first moves the chains into the tests
TEST_ONLY = {
    "autodiff.axis_max_project", "autodiff.concat", "autodiff.div_scalar",
    "autodiff.masked_softmax_rows", "autodiff.mean_all", "autodiff.mul",
    "autodiff.slice_cols", "autodiff.softmax_rows", "autodiff.sub", "autodiff.take",
    "autodiff.take2d", "autodiff.topk_mean",
}

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node: ast.AST) -> set[str]:
    """Every name the node's source spells, by the rule above."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def unreached(modules: dict[str, str], others: list[str]) -> set[str]:
    """``module.name`` of each public top-level function or class of
    ``modules`` (name to source) that neither they nor ``others`` name
    outside its own definition."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named: set[str] = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for stmt in tree.body:
            own = {stmt.name} if isinstance(stmt, _DEFINITION) else set()
            named |= names_in(stmt) - own
    return {f"{module}.{stmt.name}" for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, _DEFINITION) and not stmt.name.startswith("_")
            and stmt.name not in named}


def test_every_public_function_and_class_is_named_by_the_program():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(modules) >= 12
    others = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert others
    # exact both ways: a kernel that gains a caller or goes leaves the list too
    assert unreached(modules, others) == TEST_ONLY


def test_no_program_run_calls_a_test_only_kernel(asset_dir, tmp_path, monkeypatch):
    # the name check above counts a local variable, such as perfbench's
    # ``column``, as reach; these runs show the kernels are not called: a
    # guided sample with re-init, a gradient check and compose with the
    # attention dump
    called = []

    def forbidden(name):
        def kernel(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"the program called autodiff.{name}")
        return kernel

    for name in {qualified.removeprefix("autodiff.") for qualified in TEST_ONLY} | {"column"}:
        monkeypatch.setattr(ad, name, forbidden(name))
    raw = json.loads((asset_dir / "gradcheck.json").read_text())
    raw.update(steps=2, dump_attention=True, output_dir=str(tmp_path / "compose"),
               global_prompt_embed=str(asset_dir / raw["global_prompt_embed"]))
    for region in raw["regions"]:
        region["bundle"] = str(asset_dir / region["bundle"])
    config = RunConfig.from_dict(raw)
    assert config.reinit and config.guidance.guidance_fraction > 0
    result = sample(dataclasses.replace(config, dump_attention=False,
                                        output_dir=tmp_path / "sample"))
    assert len(result.trace) > 2  # re-init's row and guided iterations
    run_gradcheck(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert compose_main(["--config", str(path)]) == 0
    assert (tmp_path / "compose" / "attention.lcb").exists()
    assert called == []


def test_the_reach_check_sees_each_form_and_skips_self_reference():
    module = ("import numpy as np\n"
              "def called(): return np.zeros(1)\n"
              "def recursive(n): return recursive(n - 1) if n else 0\n"
              "def attribute(): pass\n"
              "class Imported: pass\n"
              "def _private(): pass\n"
              "def caller(): return called()\n")
    other = ("from m import Imported as Alias\n"
             "import m\n"
             "m.attribute\n")
    assert unreached({"m": module}, [other]) == {"m.recursive", "m.caller"}

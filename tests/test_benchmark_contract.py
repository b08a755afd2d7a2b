"""The benchmark's per-op metrics must name kernels that still exist.

``BENCHMARK.json`` declares ``autodiff.op.<name>.*`` metrics; the traced
benchmark run reports them only for public functions of
``loracanvas.autodiff``. Deleting or renaming such a kernel would make the
benchmark report missing metrics, so this check fails first.
"""

from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

from loracanvas import autodiff

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
OP_METRIC = re.compile(r"^autodiff\.op\.(?P<op>[A-Za-z_][A-Za-z0-9_]*)\.[a-z]+$")


def public_kernels() -> set[str]:
    return {name for name, obj in vars(autodiff).items()
            if inspect.isfunction(obj) and obj.__module__ == autodiff.__name__
            and not name.startswith("_")}


def test_every_declared_op_metric_names_a_public_autodiff_function():
    declared = json.loads(BENCHMARK.read_text())
    ops = {m.group("op") for metric in declared["per_layer"]
           if (m := OP_METRIC.match(metric["name"]))}
    assert ops, "BENCHMARK.json declares no autodiff.op metric"
    assert sorted(ops - public_kernels()) == []

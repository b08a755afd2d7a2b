"""Checks of the benchmark itself: workload generator and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

import run

run.import_package()

import numpy as np  # noqa: E402
from loracanvas import cli, pipeline  # noqa: E402
from loracanvas.attention import rasterize_mask  # noqa: E402
from loracanvas.autodiff import (  # noqa: E402
    Tensor, finite_difference_gradient, max_relative_error)

import workloads  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402


def generated_bytes(name: str, seed: int, out_dir) -> tuple[str, dict[str, bytes]]:
    workload = workloads.generate(name, seed, out_dir)
    return workload.config.name, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    config, first = generated_bytes(name, 5, tmp_path / "a")
    assert generated_bytes(name, 5, tmp_path / "b") == (config, first)
    _, other = generated_bytes(name, 6, tmp_path / "c")
    assert other.keys() == first.keys()
    changed = {f for f in first if first[f] != other[f]}
    assert config in changed
    assert {f for f in first if f.endswith(".lcb")} <= changed


@pytest.mark.parametrize("seed", range(40))
def test_crowd_boxes_keep_pixels_and_one_overlap(seed):
    boxes = workloads.crowd_boxes(seed)
    assert len(boxes) == 4
    for extent in (16, 8):
        masks = [rasterize_mask(box, extent, extent) for box in boxes]
        assert all(m.any() and not m.all() for m in masks)
        overlapping = [(i, j) for i, j in itertools.combinations(range(4), 2)
                       if (masks[i] * masks[j]).any()]
        assert overlapping == [(0, 1)]


def test_crowd_config_prepares(tmp_path):
    workload = workloads.generate("crowd", 42, tmp_path)
    config = pipeline.RunConfig.from_json(workload.config)
    assert len(config.regions) == 4
    assert config.guidance.max_iters == 6
    ctx, _ = pipeline.prepare(config)
    assert len(ctx.layout.regions) == 4


def bindings() -> dict[tuple[str, str], int]:
    return {(m.__name__, attr): id(value)
            for m in package_modules() for attr, value in vars(m).items()}


def small_run(tmp_path):
    workload = workloads.generate("gradcheck", 42, tmp_path / "inputs")
    config = pipeline.RunConfig.from_json(workload.config)
    return dataclasses.replace(config, steps=2, output_dir=tmp_path / "out")


def test_tracer_restores_every_binding(tmp_path):
    config = small_run(tmp_path)
    before = bindings()
    with Tracer(run.TRACE_HOOKS) as tr:
        assert bindings() != before
        pipeline.sample(config)
    assert bindings() == before
    assert not [key for m in package_modules() for key, v in vars(m).items()
                if hasattr(v, "__perfbench_span__")]
    names = {span[0] for span in tr.spans}
    assert {"pipeline.sample", "denoiser.denoiser_forward", "autodiff.grad",
            "guidance.guided_update", "assets.apply_projection"} <= names


def test_tracer_restores_after_an_exception(tmp_path):
    before = bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert bindings() == before


def test_traced_run_matches_untraced(tmp_path):
    config = small_run(tmp_path)
    plain = pipeline.sample(config).final.z
    with Tracer(run.TRACE_HOOKS) as tr:
        traced = pipeline.sample(config).final.z
        err = cli.run_gradcheck(config)
    assert np.array_equal(plain, traced)
    assert err < run.GRAD_REL_ERR_LIMIT
    evals = [s[run.INFO] for s in tr.spans if s[0] == "autodiff.finite_difference_gradient"]
    assert evals == [2 * plain.size]


def test_one_sided_error_accepts_a_kink_and_rejects_a_wrong_gradient():
    z0 = np.array([0.3, -2e-7, 1.1])  # |z| kinks within eps of the middle entry

    def loss(z):
        return float(np.abs(z).sum() + (z ** 2).sum())

    exact = np.sign(z0) + 2 * z0
    central = finite_difference_gradient(lambda t: loss(t.data), Tensor(z0))
    assert max_relative_error(exact, central) > run.GRAD_REL_ERR_LIMIT
    assert run.one_sided_error(loss, z0, exact) < run.GRAD_REL_ERR_LIMIT
    assert run.one_sided_error(loss, z0, exact * 1.001) > run.GRAD_REL_ERR_LIMIT

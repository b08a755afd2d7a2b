"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from loracanvas import autodiff as ad
from loracanvas import tensorio
from loracanvas.assets import load_bundle, synth_bundle, write_bundle, gen_prompt_embedding
from loracanvas.attention import (
    AttnRecord, LayerRecord, LayoutCondition, RegionGeometry, RegionSpec)
from loracanvas.autodiff import Tensor
from loracanvas.cli import run_gradcheck
from loracanvas.denoiser import denoiser_forward, encode
from loracanvas.guidance import GuidanceConfig, composite_loss, guided_update, step_size
from loracanvas.pipeline import RunConfig, prepare, sample
from loracanvas.reinit import best_crop, reinitialize

from conftest import build_test_context, run_fresh


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_config(asset_dir) -> RunConfig:
    return RunConfig.from_json(asset_dir / "config.json")


@pytest.fixture(scope="module")
def reference_result(reference_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("reference_run")
    return sample(dataclasses.replace(reference_config, output_dir=out))


def test_criterion_1_gradient_fidelity(asset_dir):
    config = RunConfig.from_json(asset_dir / "gradcheck.json")
    start = time.perf_counter()
    error = run_gradcheck(config, eps=1e-6)
    elapsed = time.perf_counter() - start
    ok = error < 1e-5 and elapsed < 10.0
    _verdict(1, ok, f"grad vs finite differences: max relative error "
                    f"{error:.3e} < 1e-5 in {elapsed:.1f}s")


def test_criterion_2_hard_isolation():
    ctx = build_test_context()
    masks = {res: geo for res, geo in ctx.geometries.items()}
    worst = 0.0
    for seed in range(100):
        z = np.random.default_rng(seed).standard_normal(
            (ctx.dims.channels, ctx.dims.height, ctx.dims.width))
        _, record = denoiser_forward(Tensor(z), 5, ctx)
        for layer in record.layers:
            geo = masks[layer.resolution]
            a, b = geo.masks.reshape(2, -1) > 0
            self_map = ad.mean_heads(layer.self_probs).data
            block_ab = np.abs(self_map[np.ix_(a, b)]).max()
            block_ba = np.abs(self_map[np.ix_(b, a)]).max()
            worst = max(worst, block_ab, block_ba)
    _verdict(2, worst == 0.0,
             f"cross-region self-attention over 100 seeded forwards: "
             f"max |entry| = {worst!r} (must be exactly 0)")


def test_criterion_3_neutrality(tmp_path):
    tokens, d_text = 4, 16
    embed = gen_prompt_embedding(7, tokens, d_text)
    tensorio.write_container(tmp_path / "embed.lcb", {"prompt_embed": embed})
    neutral = dataclasses.replace(
        synth_bundle(1, tokens=tokens, d_text=d_text, d_model=8, rank=4,
                     scale=0.0, concept_id="solo"),
        prompt_embed=embed)
    write_bundle(tmp_path / "solo.lcb", neutral)

    base = {
        "seed": 9,
        "steps": 12,
        "latent": {"channels": 4, "height": 8, "width": 8},
        "model": {"d_model": 8, "heads": 2},
        "guidance": {"guidance_fraction": 0.0},
        "global_prompt_embed": "embed.lcb",
        "reinit": False,
    }
    plain = RunConfig.from_dict({**base, "regions": [],
                                 "output_dir": "plain"}, tmp_path)
    composed = RunConfig.from_dict(
        {**base, "regions": [{"box": [0.0, 0.0, 1.0, 1.0], "bundle": "solo.lcb"}],
         "output_dir": "composed"}, tmp_path)
    z_plain = sample(plain).final.z
    z_composed = sample(composed).final.z
    ok = np.array_equal(z_plain, z_composed)
    diff = np.max(np.abs(z_plain - z_composed))
    _verdict(3, ok, f"zero deltas + matching prompts + no guidance + no "
                    f"re-init vs plain sampler: max |difference| = {diff!r}")


def test_criterion_4_guidance_efficacy(reference_result):
    result = reference_result
    first, last = result.trace[0].total, result.trace[-1].total
    ratio = last / first
    mass_first = result.mass_history[0][1]
    mass_last = result.mass_history[-1][1]
    increases = {cid: mass_last[cid] - mass_first[cid] for cid in mass_first}
    ok = ratio <= 0.5 and all(v > 0 for v in increases.values())
    detail = (f"loss {first:.3f} -> {last:.3f} (ratio {ratio:.3f} <= 0.5), "
              + ", ".join(f"{cid} in-box mass {mass_first[cid]:.3f} -> "
                          f"{mass_last[cid]:.3f}" for cid in sorted(increases)))
    _verdict(4, ok, detail)


def test_criterion_5_crop_oracle():
    rng = np.random.default_rng(424242)
    mismatches = 0
    for _ in range(200):
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        a = rng.uniform(-1.0, 1.0, size=(h, w))
        bw = int(rng.integers(1, w + 1))
        bh = int(rng.integers(1, h + 1))
        crop = best_crop(a, (bw, bh))
        best = (-np.inf, None)
        for i in range(h - bh + 1):
            for j in range(w - bw + 1):
                s = a[i:i + bh, j:j + bw].sum()
                if s > best[0]:
                    best = (s, (i, j))
        if crop.origin != best[1] or crop.score != best[0]:
            mismatches += 1
    _verdict(5, mismatches == 0,
             f"summed-area-table crop vs brute force on 200 maps: "
             f"{mismatches} mismatches")


def test_criterion_6_standardization(reference_config):
    ctx, schedule = prepare(reference_config)
    z, _ = reinitialize(reference_config.seed, ctx, reference_config.guidance,
                        schedule.steps)
    flat = z.reshape(z.shape[0], -1)
    mean_err = float(np.abs(flat.mean(axis=1)).max())
    std_err = float(np.abs(flat.std(axis=1) - 1.0).max())
    ok = mean_err < 1e-9 and std_err < 1e-9
    _verdict(6, ok, f"post-reinit per-channel |mean| = {mean_err:.2e} < 1e-9, "
                    f"|std - 1| = {std_err:.2e} < 1e-9")


def test_criterion_7_loss_arithmetic():
    # one concept whose terms are exactly 1: an all-zero cross map (no in-box
    # response, no coverage) and an all-ones self map (full leakage)
    layout = LayoutCondition(regions=(RegionSpec((0.0, 0.0, 0.5, 0.5), "a"),),
                             global_prompt_embed=np.zeros((2, 4)))
    geometry = RegionGeometry.build(layout, 4, 4)
    layer = LayerRecord(resolution=(4, 4), cross_maps=Tensor(np.zeros((1, 4, 4))),
                        self_probs=Tensor(np.ones((1, 16, 16))))
    _, breakdown = composite_loss(AttnRecord(layers=[layer]), geometry,
                                  GuidanceConfig(alpha=0.25, beta=0.8))
    components = (breakdown.l_ce, breakdown.l_fill, breakdown.l_region)
    err = abs(breakdown.total - 2.05)
    _verdict(7, components == (1.0, 1.0, 1.0) and err <= 1e-12,
             f"components {components} with alpha=0.25, beta=0.8: total "
             f"{breakdown.total!r}, |total - 2.05| = {err:.2e} <= 1e-12")


def test_criterion_8_rank_bound(asset_dir):
    worst = 0.0
    for name in ("concept_a", "concept_b", "gradcheck_concept_a",
                 "gradcheck_concept_b"):
        bundle = load_bundle(asset_dir / f"{name}.lcb")
        for delta in bundle.deltas.values():
            sv = np.linalg.svd(delta.merged(), compute_uv=False)
            worst = max(worst, float(sv[4] / sv[0]))
    _verdict(8, worst < 1e-10,
             f"every shipped rank-4 delta: sigma_5/sigma_1 <= {worst:.2e} < 1e-10")


def test_criterion_9_schedule_and_stopping():
    exact = (step_size(0, 20, 10.0) == 0.0
             and step_size(10, 20, 10.0) == 5.0
             and step_size(20, 20, 10.0) == 10.0)
    # one record, fixed whatever the latent: every loss equals the first and
    # the gradient is zero, so the losses fed to the loop are flat
    ctx = build_test_context()
    shape = (ctx.dims.channels, ctx.dims.height, ctx.dims.width)
    _, record = encode(Tensor(np.ones(shape)), 10, ctx)
    _, rows = guided_update(np.zeros(shape), lambda zt: record, ctx.loss_geometry,
                            GuidanceConfig(max_iters=5, patience=2), 10, 10)
    stops_at = len(rows) - 1
    ok = exact and stops_at == 2  # two stale iterations after the first
    _verdict(9, ok, f"phi_t exact at t in {{0, T/2, T}}: {exact}; hand-fed "
                    f"flat losses stop after patience=2 stale iterations "
                    f"(stopped at index {stops_at})")


def test_criterion_10_compose_determinism(asset_dir, tmp_path):
    outputs = []
    for name in ("one", "two"):
        run_dir = tmp_path / name
        run_fresh("-m", "loracanvas", "compose", "--config", str(asset_dir / "config.json"),
                  "--out", str(run_dir), check=True)
        outputs.append({f.name: f.read_bytes()
                        for f in sorted(run_dir.iterdir())})
    same = (outputs[0].keys() == outputs[1].keys()
            and all(outputs[0][k] == outputs[1][k] for k in outputs[0]))
    names = ", ".join(sorted(outputs[0]))
    _verdict(10, same, f"two compose runs produced byte-identical {names}")

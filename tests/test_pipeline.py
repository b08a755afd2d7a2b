from __future__ import annotations

import dataclasses
import json
import platform
import re
import resource
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from loracanvas import autodiff as ad
from loracanvas.autodiff import Tensor
from loracanvas.cli import compose_main, run_gradcheck
from loracanvas.attention import AttnRecord
from loracanvas.denoiser import denoiser_forward, encode
from loracanvas.errors import ArgumentError, ConfigurationError
from loracanvas.guidance import inbox_mass_fractions
from loracanvas.pipeline import (
    RunConfig,
    SamplerSchedule,
    ddim_step,
    decode_preview,
    prepare,
    sample,
    write_pgm,
)
from loracanvas.reinit import reinitialize

from conftest import run_fresh


@pytest.fixture(scope="module")
def small_config(asset_dir):
    # the gradcheck stack is the cheapest full configuration
    return RunConfig.from_json(asset_dir / "gradcheck.json")


# ------------------------------------------------------------------ schedule


def test_schedule_linear_endpoints():
    sched = SamplerSchedule.linear(25)
    assert sched.alpha_bar[0] == pytest.approx(0.999)
    assert sched.alpha_bar[25] == pytest.approx(0.01)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert np.all((sched.alpha_bar > 0) & (sched.alpha_bar < 1))


def test_schedule_validation():
    with pytest.raises(ArgumentError):
        SamplerSchedule.linear(0)
    with pytest.raises(ArgumentError):
        SamplerSchedule(steps=2, alpha_bar=np.array([0.9, 0.5]))
    with pytest.raises(ArgumentError):
        SamplerSchedule(steps=1, alpha_bar=np.array([0.5, 0.9]))
    with pytest.raises(ArgumentError, match="must lie in"):
        SamplerSchedule(steps=1, alpha_bar=np.array([1.0, 0.5]))


# ------------------------------------------------------------------ ddim


def test_ddim_zero_noise_closed_form():
    sched = SamplerSchedule.linear(25)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, 4, 4))
    cur = z.copy()
    for t in range(25, 0, -1):
        cur = ddim_step(cur, np.zeros_like(cur), t, sched)
    expected = z * np.sqrt(sched.alpha_bar[0] / sched.alpha_bar[25])
    assert np.max(np.abs(cur - expected)) / np.max(np.abs(expected)) < 1e-12


def test_ddim_near_degenerate_schedule_step_is_identity():
    # alpha_bar must strictly decrease, so probe the t-1 == t limit
    sched = SamplerSchedule(steps=1, alpha_bar=np.array([0.5, 0.5 * (1 - 1e-13)]))
    rng = np.random.default_rng(1)
    z = rng.standard_normal((1, 2, 2))
    eps = rng.standard_normal((1, 2, 2))
    out = ddim_step(z, eps, 1, sched)
    assert np.max(np.abs(out - z)) < 1e-9


def test_ddim_matches_hand_formula():
    sched = SamplerSchedule.linear(10)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((3, 4, 4))
    eps = rng.standard_normal((3, 4, 4))
    t = 6
    a_t, a_prev = sched.alpha_bar[t], sched.alpha_bar[t - 1]
    x0 = (z - np.sqrt(1 - a_t) * eps) / np.sqrt(a_t)
    expected = np.sqrt(a_prev) * x0 + np.sqrt(1 - a_prev) * eps
    assert np.max(np.abs(ddim_step(z, eps, t, sched) - expected)) < 1e-12


def test_ddim_rejects_t_zero():
    with pytest.raises(ArgumentError):
        ddim_step(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), 0,
                  SamplerSchedule.linear(5))


# ------------------------------------------------------------------ preview


def test_preview_constant_latent_is_mid_gray():
    img = decode_preview(np.full((3, 4, 4), 2.0))
    assert img.dtype == np.uint8
    assert np.all(img == 128)


def test_preview_rescales_endpoints():
    z = np.zeros((1, 2, 2))
    z[0, 1, 1] = 4.0
    img = decode_preview(z)
    assert img[1, 1] == 255
    assert img[0, 0] == 0


def test_preview_shape():
    img = decode_preview(np.random.default_rng(0).standard_normal((8, 16, 16)))
    assert img.shape == (16, 16)
    with pytest.raises(ArgumentError, match="latent must be"):
        decode_preview(np.zeros((16, 16)))


def test_write_pgm_format(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    p = write_pgm(tmp_path / "x.pgm", img)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert raw[len(b"P5\n4 3\n255\n"):] == img.tobytes()
    with pytest.raises(ArgumentError, match="must be 2-D"):
        write_pgm(tmp_path / "row.pgm", np.zeros(4))


# ------------------------------------------------------------------ config


def test_config_round_trip(asset_dir):
    config = RunConfig.from_json(asset_dir / "config.json")
    assert config.seed == 42
    assert config.steps == 25
    assert config.channels == 8 and config.height == 16
    assert len(config.regions) == 2
    assert config.guidance.phi0 == 800.0
    assert config.guidance.alpha == 0.25 and config.guidance.beta == 0.8
    # paths resolved relative to the config file
    assert config.global_prompt_embed.exists()
    for _, bundle in config.regions:
        assert bundle.exists()


def test_config_missing_key(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"steps": 5}))
    with pytest.raises(ConfigurationError):
        RunConfig.from_json(p)


def test_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(ConfigurationError):
        RunConfig.from_json(p)


@pytest.mark.parametrize("box", [[0.1, 0.2, 0.5], [0.1, 0.2, 0.5, 0.9, 1.0]])
def test_config_box_needs_four_numbers(tmp_path, box):
    raw = {"seed": 1, "global_prompt_embed": "e.lcb",
           "regions": [{"box": [0, 0, 0.5, 1], "bundle": "a.lcb"},
                       {"box": box, "bundle": "b.lcb"}]}
    with pytest.raises(ConfigurationError, match="region 1"):
        RunConfig.from_dict(raw, tmp_path)


def test_config_duplicate_bundles(tmp_path):
    raw = {"seed": 1, "global_prompt_embed": "e.lcb",
           "regions": [{"box": [0, 0, 0.5, 1], "bundle": "b.lcb"},
                       {"box": [0.5, 0, 1, 1], "bundle": "b.lcb"}]}
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict(raw, tmp_path)


def test_config_rejects_bundles_sharing_a_concept_id(tmp_path):
    # a concept's id is its bundle's file stem, wherever the bundle lies
    raw = {"seed": 1, "global_prompt_embed": "e.lcb",
           "regions": [{"box": [0, 0, 0.5, 1], "bundle": "a/concept_a.lcb"},
                       {"box": [0.5, 0, 1, 1], "bundle": "b/concept_a.lcb"}]}
    with pytest.raises(ConfigurationError) as info:
        RunConfig.from_dict(raw, tmp_path)
    message = str(info.value)
    assert "concept id 'concept_a'" in message
    assert str(tmp_path / "a" / "concept_a.lcb") in message
    assert str(tmp_path / "b" / "concept_a.lcb") in message


@pytest.mark.parametrize("overrides, key", [
    ({"latent": {"height": 15}}, "latent.height"),
    ({"model": {"d_model": 16, "heads": 3}}, "model.heads"),
    ({"model": {"d_model": 0}}, "model.d_model"),
    ({"regions": [{"box": [0.5, 0.1, 0.5, 0.9], "bundle": "concept_a.lcb"}]}, "region 0 box"),
])
def test_compose_names_the_key_of_a_value_the_model_rejects(asset_dir, tmp_path, capsys,
                                                            overrides, key):
    raw = {**json.loads((asset_dir / "config.json").read_text()), **overrides,
           "output_dir": str(tmp_path / "out")}
    for entry in raw["regions"]:
        entry["bundle"] = str(asset_dir / entry["bundle"])
    raw["global_prompt_embed"] = str(asset_dir / raw["global_prompt_embed"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match=key):
        RunConfig.from_json(path)
    assert compose_main(["--config", str(path)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, key", [
    ({"guidance": {"max_iters": 2.5}}, "max_iters"),
    ({"guidance": {"patience": True}}, "patience"),
    ({"reinit": "false"}, "reinit"),
    ({"dump_attention": 1}, "dump_attention"),
    ({"seed": 3.7}, "seed"),
    ({"seed": True}, "seed"),
    ({"steps": 2.5}, "steps"),
    ({"latent": {"channels": 8.0}}, "channels"),
    ({"latent": {"height": "16"}}, "height"),
    ({"latent": {"width": False}}, "width"),
    ({"model": {"d_model": 16.5}}, "d_model"),
    ({"model": {"heads": 2.0}}, "heads"),
    ({"regions": [{"box": ["0", 0, 0.5, 1], "bundle": "a.lcb"}]}, "region 0 box"),
    ({"regions": [{"box": [0, 0, 0.5, 1], "bundle": "a.lcb"},
                  {"box": [0.5, False, 1, True], "bundle": "b.lcb"}]}, "region 1 box"),
    ({"guidance": {"phi0": True}}, "phi0"),
    ({"guidance": {"alpha": False}}, "alpha"),
    ({"guidance": {"s_ratio": "0.2"}}, "s_ratio"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"latent": [8, 16, 16]}, "latent must be of type dict"),
    ({"latent": None}, "latent must be of type dict"),
    ({"model": "x"}, "model must be of type dict"),
    ({"model": None}, "model must be of type dict"),
    ({"guidance": [0.25]}, "guidance must be of type dict"),
    ({"global_prompt_embed": 5}, "global_prompt_embed must be of type str"),
    ({"output_dir": 7}, "output_dir must be of type str"),
    ({"regions": [{"box": [0, 0, 0.5, 1], "bundle": 3}]}, "region 0 bundle must be of type str"),
    ({"regions": {"box": [0, 0, 0.5, 1], "bundle": "a.lcb"}}, "regions must be of type list"),
    ({"regions": [{"box": "0011", "bundle": "a.lcb"}]}, "region 0 box must be of type list"),
])
def test_config_rejects_value_of_wrong_type(tmp_path, overrides, key):
    raw = {"seed": 1, "global_prompt_embed": "e.lcb", **overrides}
    with pytest.raises(ConfigurationError, match=key):
        RunConfig.from_dict(raw, tmp_path)


@pytest.mark.parametrize("text", ["[]", "null", "3", '"config"'])
def test_config_top_level_must_be_an_object(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="run config must be of type dict"):
        RunConfig.from_json(path)


# Python's json module reads these literals as floats
@pytest.mark.parametrize("knob", ["alpha", "beta", "phi0"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_config_rejects_non_finite_guidance_knob(tmp_path, knob, literal):
    raw = json.loads(f'{{"seed": 1, "global_prompt_embed": "e.lcb", '
                     f'"guidance": {{"{knob}": {literal}}}}}')
    with pytest.raises(ConfigurationError, match=f"{knob} must be finite"):
        RunConfig.from_dict(raw, tmp_path)


@pytest.mark.parametrize("overrides, message", [
    ({"stpes": 5}, "run config has an unknown key 'stpes'"),
    ({"reinti": False}, "run config has an unknown key 'reinti'"),
    ({"latent": {"heigth": 32}, "modle": {"heads": 4}}, "run config has an unknown key 'modle'"),
    ({"latent": {"height": 16, "heigth": 32}}, "latent has an unknown key 'heigth'"),
    ({"model": {"head": 4}}, "model has an unknown key 'head'"),
    ({"regions": [{"box": [0, 0, 0.5, 1], "bundle": "a.lcb"},
                  {"box": [0.5, 0, 1, 1], "bundle": "b.lcb", "bundel": "c.lcb"}]},
     "region 1 has an unknown key 'bundel'"),
    ({"guidance": {"alpah": 0.3}}, "guidance has an unknown key 'alpah'"),
])
def test_config_rejects_an_unknown_key_naming_its_section(tmp_path, overrides, message):
    # a misspelled key would otherwise load as its default
    raw = {"seed": 1, "global_prompt_embed": "e.lcb", **overrides}
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        RunConfig.from_dict(raw, tmp_path)


def test_readme_configuration_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    config = RunConfig.from_dict(json.loads(example), tmp_path)
    assert config.seed == 42 and len(config.regions) == 2
    assert config.guidance.phi0 == 10.0 and config.reinit


# one box empty at the pooled 8x8 grid, one covering the whole latent
BAD_BOXES = [([0.5, 0.5, 0.55, 0.55], "covers no pixel at 8x8"),
             ([0.0, 0.0, 1.0, 1.0], "covers the whole 16x16 latent")]


def reference_with_box(asset_dir, box, **overrides):
    raw = json.loads((asset_dir / "config.json").read_text())
    raw["regions"][1]["box"] = box
    return RunConfig.from_dict({**raw, **overrides}, asset_dir)


@pytest.mark.parametrize("box, reason", BAD_BOXES)
def test_prepare_names_region_of_bad_box(asset_dir, box, reason):
    config = reference_with_box(asset_dir, box)
    with pytest.raises(ConfigurationError) as info:
        prepare(config)
    message = str(info.value)
    assert "region 1 (concept 'concept_b')" in message and reason in message


def test_prepare_accepts_whole_latent_box_without_guidance(asset_dir):
    config = reference_with_box(asset_dir, [0.0, 0.0, 1.0, 1.0], reinit=False,
                                guidance={"guidance_fraction": 0.0})
    ctx, _ = prepare(config)
    assert ctx.loss_geometry.masks[1].all()


# ------------------------------------------------------------------ sampling


def test_sample_empty_layout_has_no_guidance_rows(small_config, tmp_path):
    config = dataclasses.replace(small_config, regions=(),
                                 output_dir=tmp_path / "plain")
    result = sample(config)
    assert result.trace == []
    assert result.mass_history == []
    assert result.final.t == 0
    assert (tmp_path / "plain" / "trace.csv").read_text().count("\n") == 1


def test_sample_trace_rows_reconstruct_total(small_config, tmp_path):
    config = dataclasses.replace(small_config, output_dir=tmp_path / "run")
    result = sample(config)
    assert result.trace, "guided run must record rows"
    g = config.guidance
    for row in result.trace:
        recombined = row.l_ce + g.alpha * row.l_fill + g.beta * row.l_region
        assert abs(row.total - recombined) <= 1e-12
        assert row.l_ce >= 0 and row.l_fill >= 0 and row.l_region >= 0


def test_sample_guidance_fraction_zero_ignores_guidance_knobs(small_config, tmp_path):
    from loracanvas.guidance import GuidanceConfig

    results = []
    for name, phi0 in (("a", 10.0), ("b", 500.0)):
        config = dataclasses.replace(
            small_config,
            guidance=GuidanceConfig(phi0=phi0, guidance_fraction=0.0),
            reinit=False, output_dir=tmp_path / name)
        results.append(sample(config))
    assert results[0].trace == [] and results[1].trace == []
    assert np.array_equal(results[0].final.z, results[1].final.z)


def test_sample_writes_all_artifacts(small_config, tmp_path, monkeypatch):
    from loracanvas import pipeline as pipeline_module

    records = []

    def recording(z, t, ctx):
        eps, record = denoiser_forward(z, t, ctx)
        records.append(record)
        return eps, record

    monkeypatch.setattr(pipeline_module, "denoiser_forward", recording)
    config = dataclasses.replace(small_config, output_dir=tmp_path / "art",
                                 dump_attention=True)
    result = sample(config)
    for key in ("trace", "latent", "preview", "attention"):
        assert result.outputs[key].exists()
    from loracanvas import tensorio

    latent = tensorio.read_container(result.outputs["latent"])
    assert set(latent) == {"latent"}
    assert latent["latent"].shape == (4, 8, 8)
    dumped = tensorio.read_container(result.outputs["attention"])
    preview = result.outputs["preview"].read_bytes()
    assert preview.startswith(b"P5\n8 8\n255\n")
    # the dump holds the last denoising forward's maps: each concept's averaged
    # over the loss layers, in float32, and each loss layer's self map
    last = records[-1]
    ctx = prepare(config)[0]
    layers = last.loss_layers(ctx.loss_geometry)
    ids = [r.concept_id for r in ctx.layout.regions]
    assert set(dumped) == ({f"cross.{cid}" for cid in ids}
                           | {f"self.layer{i}" for i in range(len(layers))})
    for i, cid in enumerate(ids):
        expected = np.mean([layer.cross_maps.data[i] for layer in layers], axis=0)
        assert dumped[f"cross.{cid}"].tobytes() == expected.astype(np.float32).astype(
            np.float64).tobytes()
    for i, layer in enumerate(layers):
        assert np.array_equal(dumped[f"self.layer{i}"],
                              ad.mean_heads(layer.self_probs).data.astype(np.float32))


def test_sample_drops_each_denoising_record_before_the_next_timestep(small_config, tmp_path,
                                                                     monkeypatch):
    # a record holds every layer's per-head self-attention: the previous
    # step's must be gone before this step's guidance or denoising forward runs
    from loracanvas import pipeline as pipeline_module

    records: list[weakref.ref] = []

    def checked(forward):
        def wrapper(z, t, ctx):
            alive = [i for i, ref in enumerate(records) if ref() is not None]
            assert not alive, f"records of steps {alive} are alive at t={t}"
            return forward(z, t, ctx)
        return wrapper

    def recording(z, t, ctx):
        eps, record = checked(denoiser_forward)(z, t, ctx)
        records.append(weakref.ref(record))
        return eps, record

    monkeypatch.setattr(pipeline_module, "encode", checked(encode))
    monkeypatch.setattr(pipeline_module, "denoiser_forward", recording)
    sample(dataclasses.replace(small_config, output_dir=tmp_path / "drop"))
    assert len(records) == small_config.steps


def test_sample_averages_the_loss_maps_once_per_guided_timestep(small_config, tmp_path,
                                                                 monkeypatch):
    # every concept's in-box mass comes from one average of the loss layers;
    # without re-init, whose crop search averages them too, nothing else does
    calls = []
    real = AttnRecord.averaged_cross_maps

    def counted(record, geometry):
        calls.append(record)
        return real(record, geometry)

    monkeypatch.setattr(AttnRecord, "averaged_cross_maps", counted)
    result = sample(dataclasses.replace(small_config, output_dir=tmp_path / "mass",
                                        reinit=False))
    assert len(result.mass_history) > 1
    assert len(calls) == len(result.mass_history)


def test_sample_deterministic_artifacts(small_config, tmp_path):
    c1 = dataclasses.replace(small_config, output_dir=tmp_path / "one")
    c2 = dataclasses.replace(small_config, output_dir=tmp_path / "two")
    r1, r2 = sample(c1), sample(c2)
    assert np.array_equal(r1.final.z, r2.final.z)
    for key in ("trace", "latent", "preview"):
        assert r1.outputs[key].read_bytes() == r2.outputs[key].read_bytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap is kept through glibc's mallopt")
def test_repeated_guided_sample_reuses_the_heap(asset_dir, tmp_path):
    config = RunConfig.from_json(asset_dir / "config.json")
    config = dataclasses.replace(
        config, steps=6, guidance=dataclasses.replace(config.guidance, max_iters=3))
    faults = []
    for run in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sample(dataclasses.replace(config, output_dir=tmp_path / str(run)))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    # without the kept heap every guidance iteration faults its attention
    # arrays in afresh: well over 10,000 faults for the second run
    assert faults[1] < 2000


def test_a_guided_sample_peaks_under_its_heap_ratchet(asset_dir, tmp_path):
    # the backward through the self-attention loss layers sets the heap's
    # high-water mark; with grad adding into the cotangents it owns and the
    # softmax VJP writing into its own, one seed-42 reference sample peaks at
    # about 6.46 MB
    config = RunConfig.from_json(asset_dir / "config.json")
    sample(dataclasses.replace(config, output_dir=tmp_path / "warm-up"))
    tracemalloc.start()
    try:
        sample(dataclasses.replace(config, output_dir=tmp_path / "traced"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.6e6, f"heap peak {peak / 1e6:.2f} MB"


def test_sample_guidance_window_boundaries(small_config, tmp_path):
    config = dataclasses.replace(small_config, output_dir=tmp_path / "win")
    result = sample(config)
    guided_ts = sorted({row.timestep for row in result.trace})
    total = config.steps
    fraction = config.guidance.guidance_fraction
    expected = [t for t in range(1, total + 1)
                if t / total >= (1 - fraction) - 1e-9]
    assert guided_ts == expected


def test_sample_mass_history_starts_at_reinitialized_latent(small_config, tmp_path):
    config = dataclasses.replace(small_config, output_dir=tmp_path / "mass")
    result = sample(config)
    ctx, schedule = prepare(config)
    geometry = ctx.loss_geometry
    z, _ = reinitialize(config.seed, ctx, config.guidance, schedule.steps)
    _, record = denoiser_forward(Tensor(z), schedule.steps, ctx)
    assert result.mass_history[0] == (schedule.steps, inbox_mass_fractions(record, geometry))
    assert ([t for t, _ in result.mass_history]
            == sorted({row.timestep for row in result.trace}, reverse=True))


def test_sample_flushes_trace_on_numeric_error(small_config, tmp_path, monkeypatch):
    from loracanvas import pipeline as pipeline_module
    from loracanvas.errors import NumericError

    real = pipeline_module.encode
    calls = {"n": 0}

    def exploding(z, t, ctx):
        calls["n"] += 1
        if calls["n"] > 12:
            raise NumericError("synthetic blowup")
        return real(z, t, ctx)

    monkeypatch.setattr(pipeline_module, "encode", exploding)
    config = dataclasses.replace(small_config, output_dir=tmp_path / "crash")
    with pytest.raises(NumericError):
        sample(config)
    trace = (tmp_path / "crash" / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("timestep,")
    assert len(trace) > 1  # rows collected before the failure were kept


def test_sample_names_the_timestep_of_a_failed_denoising_step(small_config, tmp_path,
                                                              monkeypatch):
    from loracanvas import pipeline as pipeline_module
    from loracanvas.errors import NumericError

    def failing_at_one(z, t, ctx):
        if t == 1:
            raise NumericError("synthetic blowup")
        return denoiser_forward(z, t, ctx)

    monkeypatch.setattr(pipeline_module, "denoiser_forward", failing_at_one)
    config = dataclasses.replace(small_config, output_dir=tmp_path / "crash")
    with pytest.raises(NumericError, match="^denoising step diverged at t=1: synthetic blowup$"):
        sample(config)
    trace = (tmp_path / "crash" / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("timestep,")
    assert len(trace) > 1  # the guided rows before the failure were kept


def test_sample_reports_an_overflowing_denoising_step_with_warnings_as_errors(
        small_config, tmp_path, monkeypatch):
    from loracanvas import pipeline as pipeline_module
    from loracanvas.errors import NumericError

    def overflowing_at_one(z, t, ctx):
        if t == 1:
            ad.mul(Tensor([1e308]), Tensor([1e308]))
        return denoiser_forward(z, t, ctx)

    monkeypatch.setattr(pipeline_module, "denoiser_forward", overflowing_at_one)
    config = dataclasses.replace(small_config, output_dir=tmp_path / "crash")
    # the overflow warning, made an error, must not pre-empt the NumericError
    with warnings.catch_warnings(), pytest.raises(NumericError,
                                                  match="^denoising step diverged at t=1"):
        warnings.simplefilter("error")
        sample(config)
    trace = (tmp_path / "crash" / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("timestep,") and len(trace) > 1


# ------------------------------------------------------------ loss-only forwards


def pooling_forbidden(monkeypatch):
    """Make the pooled block's first kernel raise: only decode reaches it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a loss-only forward ran the pooled block")

    monkeypatch.setattr(ad, "avg_pool_2x2", forbidden)


def test_guidance_in_sample_never_pools(small_config, tmp_path, monkeypatch):
    from loracanvas import pipeline as pipeline_module

    real = pipeline_module.guided_update
    calls = []

    def guarded(*args, **kwargs):
        calls.append(args[4])
        with monkeypatch.context() as m:
            pooling_forbidden(m)
            return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "guided_update", guarded)
    result = sample(dataclasses.replace(small_config, output_dir=tmp_path / "nopool"))
    assert calls and calls == sorted({row.timestep for row in result.trace}, reverse=True)


def test_reinitialize_never_pools(small_config, monkeypatch):
    ctx, schedule = prepare(small_config)
    pooling_forbidden(monkeypatch)
    _, rows = reinitialize(small_config.seed, ctx, small_config.guidance, schedule.steps)
    assert len(rows) == 1


def test_gradcheck_never_pools(small_config, monkeypatch):
    pooling_forbidden(monkeypatch)
    assert run_gradcheck(small_config) < 1e-5


def test_denoiser_bit_identical_across_processes(asset_dir):
    snippet = (
        "import numpy as np, hashlib;"
        "from loracanvas.pipeline import RunConfig, prepare;"
        "from loracanvas.denoiser import denoiser_forward;"
        "from loracanvas.reinit import initial_latent;"
        "from loracanvas.autodiff import Tensor;"
        f"config = RunConfig.from_json(r'{asset_dir}/gradcheck.json');"
        "ctx, sched = prepare(config);"
        "z = initial_latent(config.seed, ctx.dims);"
        "eps, _ = denoiser_forward(Tensor(z), sched.steps, ctx);"
        "print(hashlib.sha256(eps.data.tobytes()).hexdigest())"
    )
    runs = [run_fresh("-c", snippet, check=True).stdout.strip() for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(runs[0]) == 64

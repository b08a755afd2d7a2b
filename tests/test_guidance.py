from __future__ import annotations

import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest

from conftest import add_chain, build_test_context, leading_slices
from loracanvas import autodiff as ad
from loracanvas.attention import (
    AttnRecord,
    LayerRecord,
    LayoutCondition,
    RegionGeometry,
    RegionSpec,
    rasterize_mask,
)
from loracanvas.autodiff import Tensor, finite_difference_gradient, grad, max_relative_error
from loracanvas.cli import make_toy_assets
from loracanvas.errors import ArgumentError, NumericError
from loracanvas import guidance as guidance_module
from loracanvas.denoiser import encode
from loracanvas.guidance import (
    GuidanceConfig,
    LossBreakdown,
    composite_loss,
    concept_enhancement_terms,
    fill_terms,
    guided_update,
    in_guidance_window,
    inbox_mass_fractions,
    region_terms,
    step_size,
)
from loracanvas.pipeline import RunConfig, sample

H = W = 4
N = H * W


def layout_two_concepts():
    return LayoutCondition(
        regions=(RegionSpec((0.0, 0.0, 0.5, 0.5), "a"),
                 RegionSpec((0.5, 0.5, 1.0, 1.0), "b")),
        global_prompt_embed=np.zeros((2, 4)))


def geometry_two_concepts():
    return RegionGeometry.build(layout_two_concepts(), H, W)


def record_from_maps(cross: dict[str, np.ndarray], self_map: np.ndarray) -> AttnRecord:
    """One layer whose cross maps are stacked in the dict's (layout) order."""
    layer = LayerRecord(resolution=(H, W),
                        cross_maps=Tensor(np.reshape(list(cross.values()), (-1, H, W))),
                        self_probs=Tensor(self_map[None]))
    return AttnRecord(layers=[layer])


def uniform_self_map() -> np.ndarray:
    return np.full((N, N), 1.0 / N)


def leak_free_self_map(geo: RegionGeometry) -> np.ndarray:
    """Self map whose concept rows attend only inside their own box."""
    self_map = np.zeros((N, N))
    for mask in geo.masks:
        inside = np.flatnonzero(mask)
        self_map[np.ix_(inside, inside)] = 1.0 / inside.size
    rest = np.flatnonzero(geo.masks.sum(axis=0) == 0)
    self_map[np.ix_(rest, rest)] = 1.0 / rest.size
    return self_map


def summed(terms: Tensor) -> float:
    """Sum over concepts, as composite_loss adds them."""
    return sum(float(t) for t in terms.data)


# ------------------------------------------------------------------ CE loss


def test_ce_loss_saturates_at_full_in_box_response():
    geo = geometry_two_concepts()
    cross = dict(zip(geo.concept_ids, geo.masks))
    record = record_from_maps(cross, uniform_self_map())
    # s_ratio small enough that S = 1 for the 2x2 boxes
    loss = summed(concept_enhancement_terms(record, geo, s_ratio=1e-9))
    assert loss == 0.0


def test_ce_loss_vanishing_attention_counts_concepts():
    geo = geometry_two_concepts()
    cross = {cid: np.zeros((H, W)) for cid in geo.concept_ids}
    record = record_from_maps(cross, uniform_self_map())
    assert summed(concept_enhancement_terms(record, geo, s_ratio=0.5)) == 2.0


def test_ce_loss_matches_manual_sort_mask_multiply():
    layout = LayoutCondition(
        regions=(RegionSpec((0.0, 0.0, 0.5, 0.5), "a"),),
        global_prompt_embed=np.zeros((2, 4)))
    geo = RegionGeometry.build(layout, H, W)
    rng = np.random.default_rng(3)
    amap = rng.uniform(0.0, 1.0, size=(H, W))
    record = record_from_maps({"a": amap}, uniform_self_map())
    # |M| = 4, s_ratio 0.5 -> S = 2
    loss = summed(concept_enhancement_terms(record, geo, s_ratio=0.5))
    weighted = amap * geo.masks[0] * geo.weight[0]
    top2 = np.sort(weighted.reshape(-1))[::-1][:2]
    assert abs(loss - (1.0 - top2.mean())) < 1e-12


# ------------------------------------------------------------------ fill loss


def test_fill_loss_zero_when_box_fully_covered():
    geo = geometry_two_concepts()
    cross = dict(zip(geo.concept_ids, geo.masks))
    record = record_from_maps(cross, uniform_self_map())
    assert summed(fill_terms(record, geo)) == 0.0


def test_fill_loss_one_per_concept_when_empty():
    geo = geometry_two_concepts()
    cross = {cid: np.zeros((H, W)) for cid in geo.concept_ids}
    record = record_from_maps(cross, uniform_self_map())
    assert summed(fill_terms(record, geo)) == 2.0


def test_fill_loss_single_lit_row_hand_value():
    # 2-row x 3-column box on 8x8; one full box row lit at 1
    layout = LayoutCondition(
        regions=(RegionSpec((0.0, 0.0, 3.0 / 8.0, 2.0 / 8.0), "a"),),
        global_prompt_embed=np.zeros((2, 4)))
    geo = RegionGeometry.build(layout, 8, 8)
    assert geo.masks[0].sum() == 6
    amap = np.zeros((8, 8))
    amap[0, 0:3] = 1.0
    record = AttnRecord(layers=[LayerRecord((8, 8), Tensor(amap[None]),
                                            Tensor(np.full((1, 64, 64), 1.0 / 64)))])
    # row projection covers all 3 box columns; column projection covers 1 of 2
    # box rows: sum(1 - entries) = 1 over K = 5
    assert abs(summed(fill_terms(record, geo)) - 0.2) < 1e-12


def test_fill_projects_onto_the_box_axes_alone():
    # concept a's box is the top-left 2x2; its columns and rows are lit at 1
    # only outside the box, so the box's own maxima (0.25) make the term
    geo = geometry_two_concepts()
    amap = np.full((H, W), 0.25)
    amap[3, :2] = amap[:2, 3] = 1.0
    maps = Tensor(np.stack([amap, geo.masks[1]]), requires_grad=True)
    record = AttnRecord([LayerRecord((H, W), maps, Tensor(uniform_self_map()[None]))])
    node = fill_terms(record, geo)
    assert node.data.tolist() == [0.75, 0.0]
    cotangent = grad(add_chain(leading_slices(node)), maps).data
    assert not cotangent[geo.masks == 0].any()
    # each box column's first argmax is in row 0, each box row's in column 0
    assert np.flatnonzero(cotangent[0]).tolist() == [0, 1, W]


def test_fill_cotangents_stay_in_their_boxes_over_the_reference_run(tmp_path, monkeypatch):
    # every loss the seed-42 reference run evaluates, re-init's included: no
    # concept's fill cotangent reaches a map entry outside its own box
    make_toy_assets(tmp_path, seed=42)
    config = RunConfig.from_json(tmp_path / "config.json")
    real, seen = guidance_module.fill_terms, []

    def spy(record, geometry):
        seen.append((geometry, [l.cross_maps.data for l in record.loss_layers(geometry)]))
        return real(record, geometry)

    monkeypatch.setattr(guidance_module, "fill_terms", spy)
    result = sample(dataclasses.replace(config, output_dir=tmp_path / "out"))
    assert len(seen) == len(result.trace)
    for geometry, maps in seen:
        h, w = geometry.height, geometry.width
        self_probs = Tensor(np.zeros((1, h * w, h * w)))
        leaves = [Tensor(m, requires_grad=True) for m in maps]
        record = AttnRecord([LayerRecord((h, w), leaf, self_probs) for leaf in leaves])
        total = add_chain(leading_slices(real(record, geometry)))
        for leaf in leaves:
            cotangent = grad(total, leaf).data
            assert cotangent.any() and not cotangent[geometry.masks == 0].any()


# ------------------------------------------------------------------ region loss


def test_region_loss_zero_without_leakage():
    geo = geometry_two_concepts()
    cross = dict(zip(geo.concept_ids, geo.masks))
    record = record_from_maps(cross, leak_free_self_map(geo))
    assert summed(region_terms(record, geo, p_ratio=0.2)) == 0.0


def test_region_loss_uniform_map_value():
    geo = geometry_two_concepts()
    cross = dict(zip(geo.concept_ids, geo.masks))
    record = record_from_maps(cross, uniform_self_map())
    # every sliced entry equals 1/N, so each concept contributes exactly 1/N
    assert abs(summed(region_terms(record, geo, p_ratio=0.3)) - 2.0 / N) < 1e-15


def test_region_loss_matches_slice_sort_oracle():
    geo = geometry_two_concepts()
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((N, N))
    self_map = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    cross = dict(zip(geo.concept_ids, geo.masks))
    record = record_from_maps(cross, self_map)
    p_ratio = 0.1
    expected = 0.0
    for mask in geo.masks:
        inside = np.flatnonzero(mask)
        outside = np.flatnonzero(mask == 0)
        sub = self_map[np.ix_(inside, outside)].reshape(-1)
        k = math.ceil(p_ratio * sub.size)
        expected += np.sort(sub)[::-1][:k].mean()
    assert abs(summed(region_terms(record, geo, p_ratio)) - expected) < 1e-12


def test_region_loss_rejects_a_concept_covering_the_whole_map():
    # such a concept has no outside pixels, so no leakage submatrix
    layout = LayoutCondition(regions=(RegionSpec((0.0, 0.0, 1.0, 1.0), "all"),),
                             global_prompt_embed=np.zeros((2, 4)))
    geo = RegionGeometry.build(layout, H, W)
    record = record_from_maps({"all": np.ones((H, W))}, uniform_self_map())
    with pytest.raises(ArgumentError, match="concept 'all' covers the whole map"):
        region_terms(record, geo, p_ratio=0.2)


# ------------------------------------------------------------------ total


def test_total_loss_zero_components():
    # saturated in-box maps (S = 1), full coverage and no leakage
    geo = geometry_two_concepts()
    cross = dict(zip(geo.concept_ids, geo.masks))
    record = record_from_maps(cross, leak_free_self_map(geo))
    _, bd = composite_loss(record, geo, GuidanceConfig(s_ratio=1e-9))
    assert (bd.l_ce, bd.l_fill, bd.l_region, bd.total) == (0.0, 0.0, 0.0, 0.0)


def test_total_loss_supplement_coefficients():
    # one concept whose three terms are exactly 1
    layout = LayoutCondition(regions=(RegionSpec((0.0, 0.0, 0.5, 0.5), "a"),),
                             global_prompt_embed=np.zeros((2, 4)))
    geo = RegionGeometry.build(layout, H, W)
    record = record_from_maps({"a": np.zeros((H, W))}, np.ones((N, N)))
    total, bd = composite_loss(record, geo, GuidanceConfig(alpha=0.25, beta=0.8))
    assert (bd.l_ce, bd.l_fill, bd.l_region) == (1.0, 1.0, 1.0)
    assert abs(bd.total - 2.05) < 1e-12
    assert float(total) == bd.total


def test_total_loss_linearity_random_components():
    geo = geometry_two_concepts()
    rng = np.random.default_rng(2)
    cfg = GuidanceConfig(alpha=0.4, beta=1.5)
    for _ in range(20):
        cross = {cid: rng.uniform(0, 3, (H, W)) for cid in geo.concept_ids}
        record = record_from_maps(cross, rng.uniform(0, 1, (N, N)))
        _, bd = composite_loss(record, geo, cfg)
        assert bd.total == bd.l_ce + 0.4 * bd.l_fill + 1.5 * bd.l_region


def test_breakdown_decomposition_invariant():
    geo = geometry_two_concepts()
    rng = np.random.default_rng(8)
    cross = {cid: rng.uniform(0, 1, (H, W)) for cid in geo.concept_ids}
    record = record_from_maps(cross, uniform_self_map())
    cfg = GuidanceConfig()
    total, bd = composite_loss(record, geo, cfg)
    assert abs(bd.total - (bd.l_ce + cfg.alpha * bd.l_fill + cfg.beta * bd.l_region)) <= 1e-12
    assert abs(float(total) - bd.total) <= 1e-12
    assert bd.l_ce >= 0 and bd.l_fill >= 0 and bd.l_region >= 0
    assert set(bd.per_concept) == {"a", "b"}


# ------------------------------------------------------------------ schedule


def test_step_size_endpoints_and_midpoint():
    assert step_size(20, 20, 10.0) == 10.0
    assert step_size(0, 20, 10.0) == 0.0
    assert step_size(10, 20, 10.0) == 5.0


def test_step_size_range_check():
    with pytest.raises(ArgumentError):
        step_size(21, 20, 10.0)


def test_guidance_window():
    assert in_guidance_window(25, 25, 0.7)
    assert in_guidance_window(8, 25, 0.7)
    assert not in_guidance_window(7, 25, 0.7)
    # fraction 0 admits only t = T
    assert in_guidance_window(25, 25, 0.0)
    assert not in_guidance_window(24, 25, 0.0)


def test_config_validation():
    with pytest.raises(ArgumentError):
        GuidanceConfig(s_ratio=0.0)
    with pytest.raises(ArgumentError):
        GuidanceConfig(guidance_fraction=1.5)
    with pytest.raises(ArgumentError):
        GuidanceConfig(phi0=0.0)
    with pytest.raises(ArgumentError):
        GuidanceConfig(patience=0)


@pytest.mark.parametrize("knob", ["alpha", "beta", "s_ratio", "p_ratio", "phi0",
                                  "guidance_fraction"])
@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_config_float_knobs_reject_non_numbers(knob, value):
    with pytest.raises(ArgumentError, match=knob):
        GuidanceConfig(**{knob: value})


# ------------------------------------------------------------------ guided update


class MiniModel:
    """Tiny differentiable record generator standing in for the denoiser."""

    def __init__(self, seed=0, channels=3, concepts=2):
        rng = np.random.default_rng(seed)
        self.w_cross = [rng.standard_normal((channels, 2)) for _ in range(2)][:concepts]
        self.channels = channels

    def __call__(self, zt: Tensor) -> AttnRecord:
        maps = []
        for w in self.w_cross:
            logits = ad.matmul(zt, Tensor(w))
            amap = ad.softmax_rows(logits)
            maps.append(ad.reshape(ad.column(amap, 0), (1, H, W)))
        cross = ad.concat(maps) if maps else Tensor(np.zeros((0, H, W)))
        self_map = ad.softmax_rows(ad.div_scalar(ad.matmul(zt, ad.transpose2d(zt)), self.channels))
        return AttnRecord(layers=[LayerRecord((H, W), cross, ad.reshape(self_map, (1, N, N)))])


def test_guided_update_zero_concepts_leaves_latent_unchanged():
    layout = LayoutCondition(regions=(), global_prompt_embed=np.zeros((2, 4)))
    geo = RegionGeometry.build(layout, H, W)
    model = MiniModel(concepts=0)
    z = np.random.default_rng(1).standard_normal((N, 3))
    out, rows = guided_update(z, model, geo, GuidanceConfig(max_iters=2), 10, 10)
    assert np.array_equal(out, z)
    assert all(r.total == 0.0 for r in rows)


def test_guided_update_gradient_matches_finite_differences():
    geo = geometry_two_concepts()
    model = MiniModel(seed=5)
    cfg = GuidanceConfig()
    z0 = np.random.default_rng(7).uniform(-2, 2, size=(N, 3))

    def loss_of(zt: Tensor) -> Tensor:
        total, _ = composite_loss(model(zt), geo, cfg)
        return total

    traced = Tensor(z0, requires_grad=True)
    analytic = grad(loss_of(traced), traced)
    numeric = finite_difference_gradient(loss_of, Tensor(z0), eps=1e-6)
    assert max_relative_error(analytic, numeric) < 1e-5


def test_guided_update_losses_non_increasing_at_accepted_steps():
    geo = geometry_two_concepts()
    model = MiniModel(seed=9)
    cfg = GuidanceConfig(phi0=1.0, max_iters=10, patience=10)
    z = np.random.default_rng(3).standard_normal((N, 3))
    _, rows = guided_update(z, model, geo, cfg, 10, 10)
    accepted = [r.total for r in rows if r.accepted]
    assert len(rows) == 10
    assert all(b < a for a, b in zip(accepted, accepted[1:]))


def test_guided_update_zero_step_returns_same_latent_object():
    geo = geometry_two_concepts()
    model = MiniModel()
    cfg = GuidanceConfig(guidance_fraction=1.0, max_iters=1)
    z = np.random.default_rng(0).standard_normal((N, 3))
    out, rows = guided_update(z, model, geo, cfg, 0, 10)
    assert rows[0].phi_t == 0.0
    assert np.array_equal(out, z)


def test_guided_update_single_evaluation_returns_its_input(monkeypatch):
    """max_iters counts evaluations: with 1 the loop takes no step and no gradient."""
    geo = geometry_two_concepts()
    model = MiniModel()
    calls = []

    def forward(zt):
        calls.append(zt)
        return model(zt)

    def no_gradient(*args):
        raise AssertionError("the last evaluation's gradient is never used")

    monkeypatch.setattr(guidance_module, "grad", no_gradient)
    z = np.random.default_rng(0).standard_normal((N, 3))
    out, rows = guided_update(z, forward, geo, GuidanceConfig(max_iters=1), 10, 10)
    assert len(calls) == 1 and len(rows) == 1
    assert rows[0].phi_t > 0 and rows[0].accepted == 1
    assert np.array_equal(out, z)


def test_guided_update_outside_window_rejected():
    geo = geometry_two_concepts()
    with pytest.raises(ArgumentError):
        guided_update(np.zeros((N, 3)), MiniModel(), geo,
                      GuidanceConfig(guidance_fraction=0.5), 2, 10)


def test_guided_update_numeric_error_carries_context():
    geo = geometry_two_concepts()

    def exploding(zt):
        ad.mul(Tensor([1e308]), Tensor([1e308]))

    # the overflow warning, made an error, must not pre-empt the NumericError
    with warnings.catch_warnings(), pytest.raises(NumericError, match="t=10"):
        warnings.simplefilter("error")
        guided_update(np.zeros((N, 3)), exploding, geo, GuidanceConfig(), 10, 10)


def test_guided_update_respects_patience():
    geo = geometry_two_concepts()
    model = MiniModel(seed=9)
    # a destructive step size makes the first update overshoot
    cfg = GuidanceConfig(phi0=1e4, max_iters=6, patience=1)
    z = np.random.default_rng(3).standard_normal((N, 3))
    _, rows = guided_update(z, model, geo, cfg, 10, 10)
    assert len(rows) < 6


def test_guided_update_releases_each_iteration_before_the_next():
    geo = geometry_two_concepts()
    model = MiniModel(seed=9)
    cfg = GuidanceConfig(phi0=1.0, max_iters=4, patience=4)
    previous: list[weakref.ref] = []

    def forward(zt: Tensor) -> AttnRecord:
        # the last iteration's record, loss and tape are gone by now
        assert all(ref() is None for ref in previous)
        record = model(zt)
        previous.append(weakref.ref(record.layers[0].self_probs.data))
        return record

    _, rows = guided_update(np.random.default_rng(3).standard_normal((N, 3)),
                            forward, geo, cfg, 10, 10)
    assert len(rows) == len(previous) == 4


def test_inbox_mass_fraction_bounds():
    geo = geometry_two_concepts()
    record = record_from_maps(dict(zip(geo.concept_ids, geo.masks + 0.01)), uniform_self_map())
    frac = inbox_mass_fractions(record, geo)["a"]
    assert 0.0 < frac < 1.0
    concentrated = record_from_maps(dict(zip(geo.concept_ids, geo.masks)), uniform_self_map())
    assert inbox_mass_fractions(concentrated, geo)["a"] == 1.0


def test_inbox_mass_fractions_give_every_concepts_fraction_bit_for_bit():
    ctx = build_test_context()
    record = encode(Tensor(np.random.default_rng(0).standard_normal((4, 8, 8))), 5, ctx)[1]
    geo = ctx.loss_geometry
    fractions = inbox_mass_fractions(record, geo)
    assert list(fractions) == list(geo.concept_ids)
    for fraction, region, amap in zip(fractions.values(), geo.regions,
                                      record.averaged_cross_maps(geo)):
        mask = rasterize_mask(region.box, geo.height, geo.width)
        assert fraction.hex() == float((amap * mask).sum() / amap.sum()).hex()


def test_inbox_mass_fraction_rejects_a_record_that_does_not_fit_the_geometry():
    # a geometry of concept_b alone must not read concept_a's map, the record's
    # first, against concept_b's mask
    ctx = build_test_context()
    z = Tensor(np.random.default_rng(0).standard_normal((4, 8, 8)))
    record = encode(z, 5, ctx)[1]
    full = ctx.loss_geometry
    only_b = RegionGeometry.build(
        LayoutCondition(full.regions[1:], ctx.layout.global_prompt_embed),
        full.height, full.width)
    assert only_b.concept_ids == ("concept_b",)
    with pytest.raises(ArgumentError, match="do not fit the geometry's 1 concepts"):
        inbox_mass_fractions(record, only_b)
    coarse = RegionGeometry.build(ctx.layout, full.height // 2, full.width // 2)
    with pytest.raises(ArgumentError, match="does not match loss resolution"):
        inbox_mass_fractions(record, coarse)


# ------------------------------------------------------------------ kept latent


def loss_at(z: np.ndarray, forward, geometry, config) -> float:
    _, breakdown = composite_loss(forward(Tensor(z, requires_grad=True)), geometry, config)
    return breakdown.total


@pytest.mark.parametrize("phi0", [1.0, 50.0])
def test_guided_update_returns_its_lowest_loss_evaluated_latent(phi0):
    geo = geometry_two_concepts()
    model = MiniModel(seed=9)
    cfg = GuidanceConfig(phi0=phi0, max_iters=6, patience=2)
    z = np.random.default_rng(3).standard_normal((N, 3))
    out, rows = guided_update(z, model, geo, cfg, 10, 10)
    best = min(r.total for r in rows)
    assert loss_at(out, model, geo, cfg) == best
    assert rows[[r.total for r in rows].index(best)].accepted == 1


def test_guided_update_on_reference_encode_returns_an_evaluated_latent():
    ctx = build_test_context()
    geo = ctx.loss_geometry
    cfg = GuidanceConfig(phi0=40.0, max_iters=5, patience=2)
    total_steps = 10
    z = np.random.default_rng(4).standard_normal(
        (ctx.dims.channels, ctx.dims.height, ctx.dims.width))
    for t in (10, 8):
        def forward(zt):
            return encode(zt, t, ctx)[1]

        out, rows = guided_update(z, forward, geo, cfg, t, total_steps)
        assert loss_at(out, forward, geo, cfg) == min(r.total for r in rows)
        z = out


DEFAULT_DELTA = guidance_module.MIN_DELTA
# beats 4.0 by less than MIN_DELTA * 4.0
WITHIN = 4.0 * (1.0 - DEFAULT_DELTA / 2)


@pytest.mark.parametrize("script, patience, min_delta, totals, accepted, kept", [
    # patience trips: on the second stale evaluation in a row, or the first with patience 1
    ([1.0, 1.0, 1.2, 0.5], 2, DEFAULT_DELTA, [1.0, 1.0, 1.2], [1, 0, 0], 0),
    ([2.0, 2.5, 1.0], 1, DEFAULT_DELTA, [2.0, 2.5], [1, 0], 0),
    # a new minimum beyond the tolerance resets the count
    ([2.0, 2.5, 1.0, 1.5, 1.6, 0.5], 2, DEFAULT_DELTA,
     [2.0, 2.5, 1.0, 1.5, 1.6], [1, 0, 1, 0, 0], 2),
    # a new minimum within the tolerance is kept but stale: -4.03 gains
    # 0.03 <= 1e-2 * 4.0 and -5.04 gains 0.04 <= 1e-2 * 5.0
    ([-4.0, -4.03, -5.0, -5.04, -5.0, -9.0], 2, 1e-2,
     [-4.0, -4.03, -5.0, -5.04, -5.0], [1, 1, 1, 1, 0], 3),
    # WITHIN is the second stale evaluation in a row
    ([5.0, 4.0, 4.5, WITHIN, 1.0], 2, DEFAULT_DELTA, [5.0, 4.0, 4.5, WITHIN], [1, 1, 0, 1], 3),
], ids=["patience_2", "patience_1", "new_minimum_resets", "gain_within_tolerance",
        "gain_within_default_tolerance"])
def test_guided_update_scripted_losses_stop_on_the_tolerance(
        monkeypatch, script, patience, min_delta, totals, accepted, kept):
    """Scripted losses: the loop stops after `patience` stale evaluations and
    returns the latent of the last new minimum."""
    losses = iter(script)
    seen: list[np.ndarray] = []

    def forward(zt: Tensor):
        seen.append(zt.data)
        return zt

    def scripted_loss(traced, geometry, config):
        total = next(losses)
        return ad.mean_all(traced), LossBreakdown(total, 0.0, 0.0, total, {})

    monkeypatch.setattr(guidance_module, "composite_loss", scripted_loss)
    monkeypatch.setattr(guidance_module, "MIN_DELTA", min_delta)
    cfg = GuidanceConfig(phi0=1.0, max_iters=8, patience=patience)
    z = np.zeros((N, 3))
    out, rows = guided_update(z, forward, geometry_two_concepts(), cfg, 10, 10)
    assert [r.total for r in rows] == totals
    assert [r.accepted for r in rows] == accepted
    assert len(seen) == len(totals) and out.tobytes() == seen[kept].tobytes()
    # each step subtracts mean_all's gradient, 1 / size in every entry
    assert np.array_equal(out, np.full_like(z, -float(kept) / z.size))

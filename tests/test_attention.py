from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from conftest import build_test_context
from loracanvas import attention as attention_module
from loracanvas.assets import (
    AttentionWeights,
    ConceptBundle,
    LoraDelta,
    ModelDims,
    generate_base_weights,
)
from loracanvas.attention import (
    AttnRecord,
    LayerRecord,
    LayoutCondition,
    RegionGeometry,
    RegionSpec,
    compose_hidden,
    cross_branches,
    gaussian_weight,
    masked_self_attention,
    rasterize_mask,
    region_cross_attention,
)
from loracanvas.autodiff import Tensor
from loracanvas.denoiser import denoiser_forward
from loracanvas.errors import ArgumentError, ConfigurationError, EmptyMaskError

# every oracle check runs at each head count: one head, two, and d_h = 1
HEAD_COUNTS = (1, 2, 4)


# ------------------------------------------------------------------ oracles


def rasterize_oracle(box, height, width):
    x0, y0, x1, y1 = box
    out = np.zeros((height, width))
    for i in range(height):
        for j in range(width):
            px, py = (j + 0.5) / width, (i + 0.5) / height
            if x0 <= px < x1 and y0 <= py < y1:
                out[i, j] = 1.0
    return out


def attention_oracle(q, k, v, wo, n_heads, allowed=None):
    """Plain numpy multi-head attention; returns hidden and averaged map."""
    d = q.shape[1]
    dh = d // n_heads
    outs, maps = [], []
    for h in range(n_heads):
        s = slice(h * dh, (h + 1) * dh)
        logits = q[:, s] @ k[:, s].T / np.sqrt(dh)
        if allowed is not None:
            logits = np.where(allowed, logits, -np.inf)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        a = e / e.sum(axis=1, keepdims=True)
        maps.append(a)
        outs.append(a @ v[:, s])
    return np.concatenate(outs, axis=1) @ wo.T, np.mean(maps, axis=0)


def region_cross_oracle(z, layout, bundles, weights, n_heads, height, width):
    """Step-by-step script of the region-aware cross-attention update."""
    q_full = z @ weights.wq.T
    p0 = layout.global_prompt_embed
    h0, _ = attention_oracle(q_full, p0 @ weights.wk.T, p0 @ weights.wv.T,
                             weights.wo, n_heads)
    masks, hiddens, cross = [], [], {}
    for region in layout.regions:
        b = bundles[region.concept_id]
        m = rasterize_oracle(region.box, height, width).reshape(-1)
        qn = m[:, None] * q_full
        wk = weights.wk + b.deltas["cross.W_K"].merged()
        wv = weights.wv + b.deltas["cross.W_V"].merged()
        hn, amap = attention_oracle(qn, b.prompt_embed @ wk.T,
                                    b.prompt_embed @ wv.T, weights.wo, n_heads)
        cross[region.concept_id] = amap[:, b.token_index].reshape(height, width)
        masks.append(m)
        hiddens.append(hn)
    out = h0.copy()
    count = np.sum(masks, axis=0) if masks else np.zeros(height * width)
    for p in range(height * width):
        if count[p] > 0:
            out[p] = np.mean([h[p] for h, m in zip(hiddens, masks) if m[p]], axis=0)
    return out, cross


def make_bundle(concept_id, rng, tokens, d_text, d_model, rank=2, scale=1.0):
    deltas = {
        name: LoraDelta(down=rng.standard_normal((rank, d_text)) / rank,
                        up=rng.standard_normal((d_model, rank)) / rank,
                        scale=scale)
        for name in ("cross.W_K", "cross.W_V")
    }
    return ConceptBundle(concept_id=concept_id,
                         prompt_embed=rng.standard_normal((tokens, d_text)),
                         token_index=1, deltas=deltas)


# ------------------------------------------------------------------ masks


def test_rasterize_full_cover():
    assert np.array_equal(rasterize_mask((0, 0, 1, 1), 4, 4), np.ones((4, 4)))


def test_rasterize_left_half():
    m = rasterize_mask((0, 0, 0.5, 1), 4, 4)
    expected = np.zeros((4, 4))
    expected[:, :2] = 1.0
    assert np.array_equal(m, expected)


def test_rasterize_popcount_matches_loop_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        x0, y0 = rng.uniform(0, 0.9, 2)
        x1 = rng.uniform(x0 + 0.08, 1.0)
        y1 = rng.uniform(y0 + 0.08, 1.0)
        box = (x0, y0, x1, y1)
        try:
            mask = rasterize_mask(box, 16, 16)
        except EmptyMaskError:
            assert rasterize_oracle(box, 16, 16).sum() == 0
            continue
        assert np.array_equal(mask, rasterize_oracle(box, 16, 16))


def test_rasterize_empty_box_raises():
    # box squeezed between pixel centers at 4x4
    with pytest.raises(EmptyMaskError):
        rasterize_mask((0.3, 0.3, 0.35, 0.35), 4, 4)


def test_gaussian_center_is_one():
    g = gaussian_weight((0.25, 0.25, 0.75, 0.75), 9, 9)
    assert g.max() == 1.0
    assert g[4, 4] == 1.0  # odd grid: box center falls on a pixel center


def test_gaussian_symmetric_for_centered_box():
    g = gaussian_weight((0.25, 0.25, 0.75, 0.75), 8, 8)
    assert np.allclose(g, g[::-1, :], atol=0)
    assert np.allclose(g, g[:, ::-1], atol=0)


def test_gaussian_corner_matches_closed_form():
    h = w = 8
    box = (0.0, 0.0, 1.0, 1.0)
    g = gaussian_weight(box, h, w)
    sigma = 4.0  # half of 8-pixel box extent
    centers = np.arange(8) + 0.5
    raw = np.exp(-((centers[:, None] - 4.0) ** 2 / (2 * sigma ** 2)
                   + (centers[None, :] - 4.0) ** 2 / (2 * sigma ** 2)))
    expected_corner = raw[0, 0] / raw.max()
    assert abs(g[0, 0] - expected_corner) < 1e-12


def test_gaussian_zero_outside_box():
    g = gaussian_weight((0.5, 0.5, 1.0, 1.0), 8, 8)
    assert np.all(g[:4, :] == 0.0)
    assert np.all(g[:, :4] == 0.0)


# ------------------------------------------------------------------ layout types


def test_region_spec_validation():
    with pytest.raises(ArgumentError):
        RegionSpec(box=(0.5, 0.0, 0.5, 1.0), concept_id="x")
    with pytest.raises(ArgumentError):
        RegionSpec(box=(0.0, 0.0, 1.2, 1.0), concept_id="x")


def test_layout_rejects_duplicate_ids():
    with pytest.raises(ArgumentError):
        LayoutCondition(
            regions=(RegionSpec((0, 0, 0.5, 1), "a"), RegionSpec((0.5, 0, 1, 1), "a")),
            global_prompt_embed=np.zeros((2, 4)))


def test_attn_record_loss_layers_pick_highest_resolution():
    rec = AttnRecord(layers=[
        LayerRecord((4, 4), Tensor(np.zeros((0, 4, 4))), Tensor(np.eye(16))),
        LayerRecord((2, 2), Tensor(np.zeros((0, 2, 2))), Tensor(np.eye(4))),
        LayerRecord((4, 4), Tensor(np.zeros((0, 4, 4))), Tensor(np.eye(16))),
    ])
    assert rec.loss_resolution == (4, 4)
    assert len(rec.loss_layers()) == 2


# ------------------------------------------------------------------ compose


def _geometry(boxes, height, width):
    regions = tuple(RegionSpec(box, f"c{i}") for i, box in enumerate(boxes))
    layout = LayoutCondition(regions=regions, global_prompt_embed=np.zeros((2, 4)))
    return RegionGeometry.build(layout, height, width)


def test_compose_empty_regional_is_identity():
    h0 = Tensor(np.arange(8.0).reshape(4, 2))
    out = compose_hidden(h0, Tensor(np.zeros((0, 4, 2))), _geometry((), 2, 2))
    assert out.data.tobytes() == h0.data.tobytes()


def test_compose_disjoint_masks_select_piecewise():
    # pixels 0 and 1 are the top row, pixel 2 the bottom-left corner
    geometry = _geometry(((0.0, 0.0, 1.0, 0.5), (0.0, 0.5, 0.5, 1.0)), 2, 2)
    h0 = Tensor(np.zeros((4, 2)))
    ha = Tensor(np.full((4, 2), 1.0))
    hb = Tensor(np.full((4, 2), 2.0))
    out = compose_hidden(h0, Tensor(np.stack([ha.data, hb.data])), geometry)
    assert np.array_equal(out.data,
                          np.array([[1, 1], [1, 1], [2, 2], [0, 0]], dtype=float))


def test_compose_overlap_takes_mean():
    geometry = _geometry(((0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0)), 1, 2)
    h0 = Tensor(np.zeros((2, 1)))
    ha = Tensor(np.array([[1.0], [3.0]]))
    hb = Tensor(np.array([[2.0], [5.0]]))
    out = compose_hidden(h0, Tensor(np.stack([ha.data, hb.data])), geometry)
    assert np.array_equal(out.data, np.array([[1.5], [4.0]]))


def test_compose_background_keeps_h0_exactly():
    # the left column of a 2x3 grid: pixels 0 and 3
    geometry = _geometry(((0.0, 0.0, 1 / 3, 1.0),), 2, 3)
    rng = np.random.default_rng(4)
    h0 = Tensor(rng.standard_normal((6, 3)))
    ha = Tensor(rng.standard_normal((6, 3)))
    out = compose_hidden(h0, Tensor(ha.data[None]), geometry)
    background = geometry.flat_mask("c0") == 0
    assert np.array_equal(background, [False, True, True, False, True, True])
    assert np.array_equal(out.data[background], h0.data[background])


# ------------------------------------------------------------------ cross attention


def _small_setup(n_regions, scale=1.0, seed=31, n_heads=2):
    rng = np.random.default_rng(seed)
    tokens, d_text, d_model = 3, 6, 4
    dims = ModelDims(channels=2, height=4, width=4, d_model=d_model,
                     n_heads=n_heads, d_text=d_text)
    weights = generate_base_weights(7, dims).blocks[0].cross_attn
    boxes = [(0.0, 0.0, 0.5, 1.0), (0.5, 0.0, 1.0, 1.0)][:n_regions]
    regions = tuple(RegionSpec(box, f"c{i}") for i, box in enumerate(boxes))
    layout = LayoutCondition(regions=regions,
                             global_prompt_embed=rng.standard_normal((tokens, d_text)))
    bundles = {r.concept_id: make_bundle(r.concept_id, rng, tokens, d_text,
                                         d_model, scale=scale)
               for r in regions}
    z = rng.standard_normal((16, d_model))
    geometry = RegionGeometry.build(layout, 4, 4)
    return z, layout, bundles, weights, n_heads, geometry


def _cross(z, layout, bundles, weights, n_heads, geometry):
    branches = cross_branches(layout, bundles, weights)
    return region_cross_attention(Tensor(z), weights, n_heads, geometry, branches)


def test_region_cross_attention_matches_scripted_oracle():
    for heads in HEAD_COUNTS:
        z, layout, bundles, weights, n_heads, geometry = _small_setup(2, n_heads=heads)
        hidden, cross = _cross(z, layout, bundles, weights, n_heads, geometry)
        expected_hidden, expected_cross = region_cross_oracle(
            z, layout, bundles, weights, n_heads, 4, 4)
        assert np.max(np.abs(hidden.data - expected_hidden)) < 1e-12
        assert cross.shape == (2, 4, 4)
        for region, amap in zip(layout.regions, cross.data):
            assert np.max(np.abs(amap - expected_cross[region.concept_id])) < 1e-12
            assert amap.min() >= 0.0 and amap.max() <= 1.0


def test_region_cross_attention_neutral_single_full_region():
    z, layout, bundles, weights, n_heads, _ = _small_setup(0)
    vanilla, _ = _cross(z, layout, {}, weights, n_heads,
                        RegionGeometry.build(layout, 4, 4))
    rng = np.random.default_rng(2)
    full = RegionSpec((0.0, 0.0, 1.0, 1.0), "solo")
    neutral_layout = LayoutCondition(regions=(full,),
                                     global_prompt_embed=layout.global_prompt_embed)
    bundle = make_bundle("solo", rng, *layout.global_prompt_embed.shape[:1],
                         layout.global_prompt_embed.shape[1], 4, scale=0.0)
    bundle = ConceptBundle(concept_id="solo",
                           prompt_embed=layout.global_prompt_embed,
                           token_index=1, deltas=bundle.deltas)
    composed, _ = _cross(z, neutral_layout, {"solo": bundle}, weights, n_heads,
                         RegionGeometry.build(neutral_layout, 4, 4))
    assert np.array_equal(composed.data, vanilla.data)


def test_region_cross_attention_uniform_rows_outside_mask():
    z, layout, bundles, weights, n_heads, geometry = _small_setup(1)
    _, cross = _cross(z, layout, bundles, weights, n_heads, geometry)
    # zeroed query rows give uniform token attention in the branch map
    outside = geometry.masks["c0"] == 0
    tokens = bundles["c0"].prompt_embed.shape[0]
    assert outside.any()
    assert np.max(np.abs(cross.data[0][outside] - 1.0 / tokens)) <= 1e-12


def test_region_cross_attention_missing_bundle():
    _, layout, bundles, weights, _, _ = _small_setup(2)
    with pytest.raises(ConfigurationError, match="no bundle for concept 'c1'"):
        cross_branches(layout, {"c0": bundles["c0"]}, weights)


def test_cross_branches_follow_the_layout():
    _, layout, bundles, weights, _, _ = _small_setup(2)
    bundles["c1"] = dataclasses.replace(bundles["c1"], token_index=2)
    branches = cross_branches(layout, bundles, weights)
    assert branches.concept_ids == ("c0", "c1")
    assert branches.tokens.tolist() == [1, 2]
    reversed_layout = dataclasses.replace(layout, regions=layout.regions[::-1])
    flipped = cross_branches(reversed_layout, bundles, weights)
    assert flipped.concept_ids == ("c1", "c0")
    assert flipped.tokens.tolist() == [2, 1]
    assert _concept_bytes(flipped, [1, 0]) == _concept_bytes(branches, [0, 1])


def _concept_bytes(table, order):
    return [(table.concept_k.data[i].tobytes(), table.concept_v.data[i].tobytes())
            for i in order]


def _table_bytes(table):
    # global branch first
    return ([table.k.data.tobytes(), table.v.data.tobytes(), table.tokens.tobytes()]
            + _concept_bytes(table, range(len(table.concept_ids))))


def test_context_kv_cache_belongs_to_the_instance():
    ctx = build_test_context()
    assert ctx.cross_branches is ctx.cross_branches
    for block, table in zip(ctx.weights.blocks, ctx.cross_branches):
        assert _table_bytes(table) == _table_bytes(
            cross_branches(ctx.layout, ctx.bundles, block.cross_attn))
    other = generate_base_weights(7, ctx.dims)
    replaced = dataclasses.replace(ctx, weights=other)
    assert len(replaced.cross_branches) == len(other.blocks)
    for block, table, old in zip(other.blocks, replaced.cross_branches,
                                 ctx.cross_branches):
        assert _table_bytes(table) == _table_bytes(
            cross_branches(ctx.layout, ctx.bundles, block.cross_attn))
        assert _table_bytes(table) != _table_bytes(old)


def test_build_context_computes_no_kv(monkeypatch):
    calls = []
    real = attention_module.apply_projection

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(attention_module, "apply_projection", counting)
    ctx = build_test_context()
    assert calls == []
    assert len(ctx.cross_branches) == len(ctx.weights.blocks)
    # blocks x (K, V) x (global branch + 2 concepts), all on first use
    assert len(calls) == len(ctx.weights.blocks) * 2 * 3


def test_build_context_computes_no_pixel_table():
    ctx = build_test_context()
    lazy = ("pixels", "blocked_self")
    assert all(n not in g.__dict__ for g in ctx.geometries.values() for n in lazy)
    z = np.random.default_rng(0).standard_normal(
        (ctx.dims.channels, ctx.dims.height, ctx.dims.width))
    denoiser_forward(Tensor(z), 5, ctx)
    assert all(n in g.__dict__ for g in ctx.geometries.values() for n in lazy)


def test_gaussian_weights_are_computed_with_the_pixel_table(monkeypatch):
    calls = []
    real = attention_module.gaussian_weight

    def counting(box, height, width):
        calls.append((box, height, width))
        return real(box, height, width)

    monkeypatch.setattr(attention_module, "gaussian_weight", counting)
    ctx = build_test_context()
    assert calls == []
    z = np.random.default_rng(0).standard_normal(
        (ctx.dims.channels, ctx.dims.height, ctx.dims.width))
    for _ in range(2):
        denoiser_forward(Tensor(z), 5, ctx)
    # once per concept per geometry, however many forwards read the table
    assert sorted(calls) == sorted((r.box, h, w) for h, w in ctx.geometries
                                   for r in ctx.layout.regions)
    for (h, w), geometry in ctx.geometries.items():
        for r in ctx.layout.regions:
            assert np.array_equal(geometry.masks[r.concept_id], rasterize_mask(r.box, h, w))
            weight = geometry.pixels.weight.data[geometry.concept_ids.index(r.concept_id)]
            assert np.array_equal(weight, real(r.box, h, w))


def test_region_cross_attention_rejects_a_geometry_of_another_layout():
    z, layout, bundles, weights, n_heads, geometry = _small_setup(2)
    one = dataclasses.replace(layout, regions=layout.regions[:1])
    one_geometry = RegionGeometry.build(one, 4, 4)
    with pytest.raises(ArgumentError, match=re.escape(
            "branches list concepts ['c0', 'c1'], the geometry ['c0']")):
        _cross(z, layout, bundles, weights, n_heads, one_geometry)
    with pytest.raises(ArgumentError, match=re.escape(
            "branches list concepts ['c0'], the geometry ['c0', 'c1']")):
        _cross(z, one, bundles, weights, n_heads, geometry)
    flipped = dataclasses.replace(layout, regions=layout.regions[::-1])
    with pytest.raises(ArgumentError, match=re.escape(
            "branches list concepts ['c1', 'c0'], the geometry ['c0', 'c1']")):
        _cross(z, flipped, bundles, weights, n_heads, geometry)
    h0 = Tensor(z)
    with pytest.raises(ArgumentError, match=re.escape(
            "hidden states of shape (1, 16, 4) do not hold the geometry's 2 concepts")):
        compose_hidden(h0, Tensor(z[None]), geometry)


# ------------------------------------------------------------------ self attention


def test_masked_self_attention_no_regions_is_vanilla():
    z, layout, _, _, _, _ = _small_setup(0)
    geometry = RegionGeometry.build(layout, 4, 4)
    for n_heads in HEAD_COUNTS:
        dims = ModelDims(channels=2, height=4, width=4, d_model=4, n_heads=n_heads,
                         d_text=6)
        weights = generate_base_weights(7, dims).blocks[0].self_attn
        hidden, self_map = masked_self_attention(Tensor(z), weights, n_heads, geometry)
        q, k, v = z @ weights.wq.T, z @ weights.wk.T, z @ weights.wv.T
        expected, expected_map = attention_oracle(q, k, v, weights.wo, n_heads)
        assert np.array_equal(hidden.data, expected)
        assert np.array_equal(self_map.data, expected_map)


def test_masked_self_attention_blocks_cross_region_pairs():
    z, layout, _, _, n_heads, geometry = _small_setup(2)
    dims = ModelDims(channels=2, height=4, width=4, d_model=4, n_heads=2, d_text=6)
    weights = generate_base_weights(7, dims).blocks[0].self_attn
    _, self_map = masked_self_attention(Tensor(z), weights, n_heads, geometry)
    m0 = geometry.flat_mask("c0") > 0
    m1 = geometry.flat_mask("c1") > 0
    assert np.all(self_map.data[np.ix_(m0, m1)] == 0.0)
    assert np.all(self_map.data[np.ix_(m1, m0)] == 0.0)


def test_blocked_self_forbids_only_foreground_pairs_sharing_no_box():
    # two overlapping boxes and an uncovered background
    layout = LayoutCondition(
        regions=(RegionSpec((0, 0, 0.5, 0.75), "a"), RegionSpec((0.25, 0, 0.75, 0.75), "b")),
        global_prompt_embed=np.zeros((2, 6)))
    geometry = RegionGeometry.build(layout, 4, 4)
    boxes = [set(np.flatnonzero(geometry.flat_mask(cid))) for cid in ("a", "b")]
    expected = np.array([[any(p in box for box in boxes) and any(q in box for box in boxes)
                          and not any(p in box and q in box for box in boxes)
                          for q in range(16)] for p in range(16)])
    assert expected.any() and not expected.all(axis=1).any()
    assert np.array_equal(geometry.blocked_self, expected)
    assert not geometry.blocked_self.flags.writeable


def test_masked_self_attention_rows_stochastic_over_seeds():
    dims = ModelDims(channels=2, height=4, width=4, d_model=4, n_heads=2, d_text=6)
    weights = generate_base_weights(7, dims).blocks[0].self_attn
    layout = LayoutCondition(
        regions=(RegionSpec((0, 0, 0.5, 1), "a"), RegionSpec((0.5, 0, 1, 1), "b")),
        global_prompt_embed=np.zeros((2, 6)))
    geometry = RegionGeometry.build(layout, 4, 4)
    for seed in range(100):
        z = np.random.default_rng(seed).standard_normal((16, 4))
        _, self_map = masked_self_attention(Tensor(z), weights, 2, geometry)
        assert np.all(np.abs(self_map.data.sum(axis=1) - 1.0) <= 1e-12)


def test_masked_self_attention_matches_neginf_oracle():
    z, layout, _, _, _, geometry = _small_setup(2, seed=55)
    for n_heads in HEAD_COUNTS:
        dims = ModelDims(channels=2, height=4, width=4, d_model=4, n_heads=n_heads,
                         d_text=6)
        weights = generate_base_weights(9, dims).blocks[1].self_attn
        hidden, self_map = masked_self_attention(Tensor(z), weights, n_heads, geometry)
        q, k, v = z @ weights.wq.T, z @ weights.wk.T, z @ weights.wv.T
        expected, expected_map = attention_oracle(q, k, v, weights.wo, n_heads,
                                                  allowed=~geometry.blocked_self)
        assert np.max(np.abs(hidden.data - expected)) < 1e-12
        assert np.max(np.abs(self_map.data - expected_map)) < 1e-12

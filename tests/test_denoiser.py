from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from conftest import (
    FOUR_BOXES,
    SMALL_DIMS,
    TWO_BOXES,
    build_test_context,
    empty_layout_context,
)
from loracanvas import autodiff as ad
from loracanvas.assets import ModelDims, synth_bundle
from loracanvas.attention import LayoutCondition, RegionSpec
from loracanvas.autodiff import Tensor, finite_difference_gradient, grad, max_relative_error
from loracanvas.denoiser import (
    build_context,
    denoiser_forward,
    encode,
    sinusoidal_embedding,
)
from loracanvas.errors import ConfigurationError
from loracanvas.guidance import GuidanceConfig, composite_loss, inbox_mass_fractions

# traced nodes of one forward plus composite_loss on the conftest stack,
# counted from the loss root as perfbench counts them (latent leaf included);
# splitting attention back into per-head kernels (204 nodes), the constraint
# terms back into chains of small kernels (127 nodes), the concept branches
# and terms back into one kernel chain per concept (73 nodes) or the head
# outputs, concept maps, compose and loss tail back into their kernel chains
# (57 nodes), averaging the loss layers' self-attention heads before the
# region term (40 nodes) or masking each concept branch's queries with its
# box (38 nodes) fails this
FORWARD_PLUS_LOSS_NODES = 36


def test_sinusoidal_embedding_shape_and_determinism():
    e1 = sinusoidal_embedding(7, 16)
    e2 = sinusoidal_embedding(7, 16)
    assert e1.shape == (16,)
    assert np.array_equal(e1, e2)
    assert not np.array_equal(e1, sinusoidal_embedding(8, 16))
    assert np.max(np.abs(e1)) <= 1.0


def test_denoiser_records_three_layers_two_resolutions():
    ctx = build_test_context()
    z = np.random.default_rng(0).standard_normal((4, 8, 8))
    eps, record = denoiser_forward(Tensor(z), 5, ctx)
    assert eps.shape == (4, 8, 8)
    assert [l.resolution for l in record.layers] == [(8, 8), (8, 8), (4, 4)]
    loss_layers = record.loss_layers(ctx.loss_geometry)
    assert [id(l) for l in loss_layers] == [id(l) for l in record.layers[:2]]
    for layer in record.layers:
        assert layer.cross_maps.shape == (2, *layer.resolution)
        n = layer.resolution[0] * layer.resolution[1]
        assert ad.mean_heads(layer.self_probs).shape == (n, n)


def test_encode_records_the_first_two_layers_of_the_full_forward_bit_for_bit():
    ctx = build_test_context()
    z = np.random.default_rng(2).standard_normal((4, 8, 8))
    _, full = denoiser_forward(Tensor(z), 5, ctx)
    state, record = encode(Tensor(z), 5, ctx)
    assert state.residual.shape == (64, ctx.dims.d_model)
    assert state.query.shape == (64, ctx.dims.d_model)
    assert state.probs.shape == (2, ctx.dims.n_heads, 64, 4)
    assert len(record.layers) == 2
    for mine, theirs in zip(record.layers, full.layers[:2]):
        assert mine.resolution == theirs.resolution
        assert mine.self_probs.data.tobytes() == theirs.self_probs.data.tobytes()
        assert mine.cross_maps.shape == theirs.cross_maps.shape
        assert mine.cross_maps.data.tobytes() == theirs.cross_maps.data.tobytes()


def test_encode_stops_block_one_at_its_maps(monkeypatch):
    # per block, three projected head outputs: self-attention's, the global
    # branch's and the concept branches', which run as one stacked call. Encode
    # stops block 1 after self-attention and its concept maps, before either
    # cross-attention head output
    ctx = build_test_context()
    z = Tensor(np.random.default_rng(4).standard_normal((4, 8, 8)))
    calls = []

    def counted(*args, _real=ad.apply_heads):
        calls.append(args[0].shape)
        return _real(*args)

    monkeypatch.setattr(ad, "apply_heads", counted)
    _, record = encode(z, 5, ctx)
    assert len(record.layers) == 2
    self_probs, global_probs, concept_probs = (2, 64, 64), (2, 64, 4), (2, 2, 64, 4)
    assert calls == [self_probs, global_probs, concept_probs, self_probs]
    calls.clear()
    denoiser_forward(z, 5, ctx)
    assert len(calls) == 9
    assert calls[4:6] == [global_probs, concept_probs]


def test_denoiser_zero_output_head_gives_zero_noise():
    ctx = build_test_context()
    weights = dataclasses.replace(ctx.weights, w_out=np.zeros_like(ctx.weights.w_out))
    ctx_zero = dataclasses.replace(ctx, weights=weights)
    z = np.random.default_rng(1).standard_normal((4, 8, 8))
    eps, _ = denoiser_forward(Tensor(z), 3, ctx_zero)
    assert np.array_equal(eps.data, np.zeros((4, 8, 8)))


def test_denoiser_neutrality_chain_matches_empty_layout():
    # zero-scale deltas + local prompt equal to the global prompt + one
    # full-image region collapses to the unconditioned network
    plain = empty_layout_context()
    embed = plain.layout.global_prompt_embed
    template = synth_bundle(99, tokens=embed.shape[0], d_text=SMALL_DIMS.d_text,
                            d_model=SMALL_DIMS.d_model, rank=4, scale=0.0,
                            concept_id="solo")
    bundle = dataclasses.replace(template, prompt_embed=embed)
    layout = LayoutCondition(regions=(RegionSpec((0.0, 0.0, 1.0, 1.0), "solo"),),
                             global_prompt_embed=embed)
    neutral = build_context(plain.weights, layout, {"solo": bundle})
    z = np.random.default_rng(2).standard_normal((4, 8, 8))
    for t in (10, 4):
        eps_plain, _ = denoiser_forward(Tensor(z), t, plain)
        eps_neutral, _ = denoiser_forward(Tensor(z), t, neutral)
        assert np.array_equal(eps_plain.data, eps_neutral.data)


def test_denoiser_deterministic_within_process():
    ctx = build_test_context()
    z = np.random.default_rng(3).standard_normal((4, 8, 8))
    eps1, _ = denoiser_forward(Tensor(z), 6, ctx)
    eps2, _ = denoiser_forward(Tensor(z), 6, ctx)
    assert np.array_equal(eps1.data, eps2.data)


def test_denoiser_shape_validation():
    ctx = build_test_context()
    with pytest.raises(ConfigurationError):
        denoiser_forward(Tensor(np.zeros((4, 8, 4))), 1, ctx)


def test_build_context_validates_bundle_dims():
    ctx = build_test_context()
    bad_bundle = synth_bundle(1, tokens=3, d_text=12, d_model=SMALL_DIMS.d_model,
                              rank=4, concept_id="concept_a")
    with pytest.raises(ConfigurationError):
        build_context(ctx.weights, ctx.layout,
                      {**ctx.bundles, "concept_a": bad_bundle})
    wide = dataclasses.replace(ctx.layout,
                               global_prompt_embed=np.zeros((3, SMALL_DIMS.d_text + 1)))
    with pytest.raises(ConfigurationError, match=re.escape(
            f"global prompt d_text {SMALL_DIMS.d_text + 1} does not match model d_text "
            f"{SMALL_DIMS.d_text}")):
        build_context(ctx.weights, wide, ctx.bundles)


def test_loss_reads_pixel_lists_without_revalidating(monkeypatch):
    ctx = build_test_context()
    z = Tensor(np.random.default_rng(0).standard_normal((4, 8, 8)))
    expected = composite_loss(encode(z, 5, ctx)[1], ctx.loss_geometry, GuidanceConfig())[1]

    def revalidated(*args):
        raise AssertionError("validated again")

    monkeypatch.setattr(ad, "_distinct_indices", revalidated)
    _, breakdown = composite_loss(encode(z, 5, ctx)[1], ctx.loss_geometry, GuidanceConfig())
    assert breakdown == expected


def test_build_context_builds_no_weight_operands():
    ctx = build_test_context()
    owners = [ctx.weights] + [attn for block in ctx.weights.blocks
                              for attn in (block.self_attn, block.cross_attn)]
    assert not [name for owner in owners for name in vars(owner) if name.endswith("_t")]


def test_build_context_requires_all_bundles():
    ctx = build_test_context()
    missing = {k: v for k, v in ctx.bundles.items() if k != "concept_b"}
    with pytest.raises(ConfigurationError):
        build_context(ctx.weights, ctx.layout, missing)


def taped_loss_ops(forward, boxes=TWO_BOXES) -> list[str | None]:
    """The op of each traced node reachable from the loss of one forward on the
    conftest stack (None for the latent leaf)."""
    ctx = build_test_context(boxes=boxes)
    z = Tensor(np.random.default_rng(0).standard_normal((4, 8, 8)), requires_grad=True)
    _, record = forward(z, 5, ctx)
    total, _ = composite_loss(record, ctx.loss_geometry, GuidanceConfig())
    seen, stack = {}, [total]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node.op
            stack.extend(p for p in node.parents if p.requires_grad)
    return list(seen.values())


def taped_loss_nodes(forward, boxes=TWO_BOXES) -> int:
    """Traced nodes reachable from the loss of one forward on the conftest stack."""
    return len(taped_loss_ops(forward, boxes))


def test_encode_plus_loss_tapes_the_same_graph():
    assert taped_loss_nodes(encode) == FORWARD_PLUS_LOSS_NODES


def test_tape_size_of_forward_plus_loss():
    assert taped_loss_nodes(denoiser_forward) == FORWARD_PLUS_LOSS_NODES


@pytest.mark.parametrize("forward", [encode, denoiser_forward])
def test_tape_size_does_not_grow_with_the_concept_count(forward):
    assert taped_loss_nodes(forward, FOUR_BOXES) == taped_loss_nodes(forward)
    assert taped_loss_nodes(forward, FOUR_BOXES) <= FORWARD_PLUS_LOSS_NODES


@pytest.mark.parametrize("forward", [encode, denoiser_forward])
def test_forward_plus_loss_builds_no_head_mean(forward, monkeypatch):
    # the region term reads each box's entries of every head, and no other
    # loss reads self-attention: no forward, loss or backward averages heads
    ops = taped_loss_ops(forward)
    assert "region_terms" in ops and "mean_heads" not in ops

    def refuse(p):
        raise AssertionError("a head mean was built")

    monkeypatch.setattr(ad, "mean_heads", refuse)
    ctx = build_test_context()
    z = Tensor(np.random.default_rng(0).standard_normal((4, 8, 8)), requires_grad=True)
    total, _ = composite_loss(forward(z, 5, ctx)[1], ctx.loss_geometry, GuidanceConfig())
    grad(total, z)


@pytest.mark.parametrize("t", [10, 6, 3])
def test_gradient_on_overlapping_layout_matches_finite_differences(t):
    # the boxes share 4 of the 16 pixels, so the backward pass runs through
    # compose_hidden's half shares as well as its single-box and background weights
    dims = ModelDims(channels=2, height=4, width=4, d_model=4, n_heads=2, d_text=6)
    ctx = build_test_context(dims=dims, boxes=((0.0, 0.0, 0.75, 0.75), (0.25, 0.25, 1.0, 1.0)),
                             tokens=3)
    a, b = ctx.loss_geometry.masks
    assert (a * b).sum() == 4

    def loss_of(z: Tensor) -> Tensor:
        _, record = denoiser_forward(z, t, ctx)
        return composite_loss(record, ctx.loss_geometry, GuidanceConfig())[0]

    z0 = np.random.default_rng(t).standard_normal((2, 4, 4))
    traced = Tensor(z0, requires_grad=True)
    analytic = grad(loss_of(traced), traced)
    numeric = finite_difference_gradient(loss_of, Tensor(z0), eps=1e-6)
    assert max_relative_error(analytic, numeric) < 1e-5


def test_swapping_the_regions_keeps_every_concept_bit_for_bit():
    # the conftest boxes do not overlap, so no sum over concepts depends on
    # their order: each concept's values are the same, wherever its slice is
    ctx = build_test_context()
    swapped = build_context(ctx.weights, dataclasses.replace(
        ctx.layout, regions=ctx.layout.regions[::-1]), ctx.bundles)
    z0 = np.random.default_rng(6).standard_normal((4, 8, 8))
    seen = []
    for context in (ctx, swapped):
        z = Tensor(z0, requires_grad=True)
        _, record = denoiser_forward(z, 5, context)
        total, breakdown = composite_loss(record, context.loss_geometry, GuidanceConfig())
        geometry = context.loss_geometry
        maps = {cid: [layer.cross_maps.data[i].tobytes() for layer in record.layers]
                for i, cid in enumerate(geometry.concept_ids)}
        masses = inbox_mass_fractions(record, geometry)
        seen.append((maps, breakdown.per_concept, masses, grad(total, z).data.tobytes()))
    assert ctx.loss_geometry.concept_ids == swapped.loss_geometry.concept_ids[::-1]
    assert seen[0] == seen[1]


def test_build_context_rejects_concept_prompts_of_different_token_counts():
    ctx = build_test_context()
    longer = synth_bundle(1, tokens=5, d_text=SMALL_DIMS.d_text, d_model=SMALL_DIMS.d_model,
                          rank=4, concept_id="concept_b")
    with pytest.raises(ConfigurationError, match=re.escape(
            "concept prompts must share a token count, got [4, 5]")):
        build_context(ctx.weights, ctx.layout, {**ctx.bundles, "concept_b": longer})

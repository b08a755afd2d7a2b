"""The fused forward nodes against the chains of public kernels they replace.

``compose_hidden``, the concept maps of ``region_cross_maps``, the projected
head outputs of ``apply_heads`` and the weighted sum at the end of
``composite_loss`` each build one node where a chain of small kernels was.
Each oracle here runs that chain on the same inputs: values and gradients
must agree bit for bit, with 0, 1, 2, 4 and 9 concepts and on a layout whose
two boxes overlap.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import FOUR_BOXES, TWO_BOXES, add_chain, build_test_context, leading_slices
from loracanvas import autodiff as ad
from loracanvas.attention import compose_hidden, region_cross_maps
from loracanvas.autodiff import Tensor, grad
from loracanvas.denoiser import encode
from loracanvas.guidance import (
    GuidanceConfig,
    composite_loss,
    concept_enhancement_terms,
    fill_terms,
    region_terms,
)

LAYOUTS = {
    "no concepts": (),
    "one concept": TWO_BOXES[:1],
    "two concepts": TWO_BOXES,
    "four concepts": FOUR_BOXES,
    # the boxes share a 2 x 2 pixel block at 8 x 8
    "overlapping boxes": ((0.0, 0.0, 0.625, 0.625), (0.375, 0.375, 1.0, 1.0)),
    # a 3 x 3 grid: numpy sums a 1-D array of 8 or more entries pairwise, not in order
    "nine concepts": tuple((x / 3, y / 3, (x + 1) / 3, (y + 1) / 3)
                           for y in range(3) for x in range(3)),
}


@pytest.fixture(params=sorted(LAYOUTS))
def ctx(request):
    return build_test_context(boxes=LAYOUTS[request.param])


def rng_for(ctx) -> np.random.Generator:
    return np.random.default_rng(len(ctx.layout.regions))


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """x's dot product with weights as one (1, 1) node; an empty x gives 0."""
    return ad.matmul(ad.reshape(x, (1, x.size)), Tensor(weights.reshape(-1, 1)))


def assert_same_bits(mine: Tensor, theirs: Tensor) -> None:
    assert mine.shape == theirs.shape
    assert mine.data.tobytes() == theirs.data.tobytes()


def test_the_overlapping_layout_shares_pixels():
    a, b = build_test_context(boxes=LAYOUTS["overlapping boxes"]).loss_geometry.masks
    assert (a * b).sum() == 4


# ------------------------------------------------------------------ compose


def chain_compose(h0: Tensor, hiddens: Tensor, geometry) -> Tensor:
    background = ad.mul(h0, Tensor(geometry.background))
    weighted = leading_slices(ad.mul(hiddens, Tensor(geometry.share)))
    return ad.add(background, add_chain(weighted)) if weighted else background


def test_compose_hidden_equals_its_chain_bit_for_bit(ctx):
    geometry = ctx.loss_geometry
    rng = rng_for(ctx)
    n, d, concepts = 64, ctx.dims.d_model, len(geometry.regions)
    h0_data, hidden_data = rng.standard_normal((n, d)), rng.standard_normal((concepts, n, d))
    cotangent = rng.standard_normal((n, d))
    results = []
    for compose in (compose_hidden, chain_compose):
        h0, hiddens = Tensor(h0_data, requires_grad=True), Tensor(hidden_data, requires_grad=True)
        out = compose(h0, hiddens, geometry)
        loss = weighted_sum(out, cotangent)
        results.append((out, grad(loss, h0), grad(loss, hiddens)))
    for mine, theirs in zip(*results):
        assert_same_bits(mine, theirs)


# ------------------------------------------------------------------ concept maps


def chain_maps(probs: Tensor, tokens: np.ndarray, h: int, w: int) -> Tensor:
    return ad.reshape(ad.column(ad.mean_heads(probs), tokens), (len(tokens), h, w))


def test_region_cross_maps_equal_their_chain_bit_for_bit(ctx):
    geometry, branches = ctx.loss_geometry, ctx.cross_branches[0]
    rng = rng_for(ctx)
    z = Tensor(rng.standard_normal((64, ctx.dims.d_model)), requires_grad=True)
    _, probs, maps = region_cross_maps(z, ctx.weights.blocks[0].cross_attn, ctx.dims.n_heads,
                                       geometry, branches)
    chained = chain_maps(probs, branches.tokens, 8, 8)
    assert_same_bits(maps, chained)
    cotangent = rng.standard_normal(maps.shape)
    for wrt in (probs, z):
        assert_same_bits(grad(weighted_sum(maps, cotangent), wrt),
                         grad(weighted_sum(chained, cotangent), wrt))


# ------------------------------------------------------------------ head outputs


def chain_head_outputs(p: list[Tensor], v: Tensor, wo: Tensor) -> Tensor:
    """One concept branch: each head's p_h @ v_h on its columns of v, joined and projected."""
    dh = v.shape[1] // len(p)
    heads = [ad.matmul(p_h, ad.slice_cols(v, h * dh, (h + 1) * dh)) for h, p_h in enumerate(p)]
    return ad.matmul(ad.concat(heads, axis=1), wo)


def test_apply_heads_equals_its_chain_per_concept_bit_for_bit(ctx):
    # the concept branches' attention and values, as region cross-attention stacks them
    geometry, branches = ctx.loss_geometry, ctx.cross_branches[0]
    weights = ctx.weights.blocks[0].cross_attn
    rng = rng_for(ctx)
    z = Tensor(rng.standard_normal((64, ctx.dims.d_model)))
    _, probs, _ = region_cross_maps(z, weights, ctx.dims.n_heads, geometry, branches)
    p, v = Tensor(probs.data, requires_grad=True), Tensor(branches.concept_v.data,
                                                          requires_grad=True)
    out = ad.apply_heads(p, v, weights.wo_t)
    cotangent = rng.standard_normal(out.shape)
    loss = weighted_sum(out, cotangent)
    grad_p, grad_v = grad(loss, p).data, grad(loss, v).data
    assert out.shape == (len(geometry.regions), 64, ctx.dims.d_model)
    for c in range(len(geometry.regions)):
        p_c = [Tensor(p_h, requires_grad=True) for p_h in probs.data[c]]
        v_c = Tensor(v.data[c], requires_grad=True)
        out_c = chain_head_outputs(p_c, v_c, weights.wo_t)
        assert out.data[c].tobytes() == out_c.data.tobytes()
        loss_c = weighted_sum(out_c, cotangent[c])
        for h, p_h in enumerate(p_c):
            assert grad_p[c, h].tobytes() == grad(loss_c, p_h).data.tobytes()
        assert grad_v[c].tobytes() == grad(loss_c, v_c).data.tobytes()


# ------------------------------------------------------------------ loss


def chain_loss(record, geometry, config) -> Tensor:
    ce = concept_enhancement_terms(record, geometry, config.s_ratio)
    fill = fill_terms(record, geometry)
    region = region_terms(record, geometry, config.p_ratio)
    ce, fill, region = (add_chain(leading_slices(term)) for term in (ce, fill, region))
    return ad.add(ad.add(ce, ad.mul(fill, Tensor(config.alpha))),
                  ad.mul(region, Tensor(config.beta)))


def test_composite_loss_equals_its_chain_bit_for_bit(ctx):
    # gradients reach the latent through every fused node of the forward, and
    # the maps through the enhancement and fill terms in the chain's order
    config = GuidanceConfig(alpha=0.3, beta=0.7)
    geometry = ctx.loss_geometry
    z = Tensor(rng_for(ctx).standard_normal((4, 8, 8)), requires_grad=True)
    _, record = encode(z, 5, ctx)
    fused, breakdown = composite_loss(record, geometry, config)
    chained = chain_loss(record, geometry, config)
    assert_same_bits(fused, chained)
    assert breakdown.total == float(chained)
    maps = [m for layer in record.layers for m in (layer.cross_maps, layer.self_probs)]
    for wrt in (z, *maps):
        assert_same_bits(grad(fused, wrt), grad(chained, wrt))

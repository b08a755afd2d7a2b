"""Toy two-resolution denoiser built from composer attention blocks.

The stack is intentionally small but keeps the structure that matters:
a per-pixel linear lift, a sinusoidal timestep bias, two attention blocks
at full resolution, a 2x2 pooled block at half resolution (so concept
features really do bleed across region borders on the coarse grid), a
nearest-neighbour upsample with skip connection and a per-pixel linear
head predicting the noise.

The forward comes in two halves. ``encode`` runs the lift, block 0 and
block 1 as far as its attention maps, which are all the constraint losses
and the re-init crop search read; ``decode`` finishes block 1's
cross-attention, then runs the pooled block, the upsample and the head.
The guidance loop, re-init and the gradient check call ``encode`` alone,
since they drop the noise prediction. Only the DDIM step, which needs the
noise, runs the full ``denoiser_forward``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .assets import BaseWeights, ConceptBundle, ModelDims
from .attention import (
    AttnRecord,
    CrossBranches,
    LayerRecord,
    LayoutCondition,
    RegionGeometry,
    cross_branches,
    masked_self_attention,
    region_cross_attention,
    region_cross_maps,
    region_cross_output,
)
from .autodiff import Tensor
from .errors import ConfigurationError, EmptyMaskError


@dataclass(frozen=True)
class DenoiserContext:
    """Everything a forward pass needs besides the latent and timestep."""

    weights: BaseWeights
    layout: LayoutCondition
    bundles: dict[str, ConceptBundle]
    geometries: dict[tuple[int, int], RegionGeometry]

    @property
    def dims(self) -> ModelDims:
        return self.weights.dims

    @property
    def loss_geometry(self) -> RegionGeometry:
        d = self.dims
        return self.geometries[(d.height, d.width)]

    @cached_property
    def cross_branches(self) -> tuple[CrossBranches, ...]:
        """Per block, its cross-attention branches: built on first use, so
        ``build_context`` stays cheap, and kept by this instance (a context
        made with ``dataclasses.replace`` builds its own)."""
        return tuple(cross_branches(self.layout, self.bundles, block.cross_attn)
                     for block in self.weights.blocks)


def build_context(weights: BaseWeights, layout: LayoutCondition,
                  bundles: dict[str, ConceptBundle]) -> DenoiserContext:
    """Validate assets against each other and rasterize every resolution."""
    dims = weights.dims
    for region in layout.regions:
        bundle = bundles.get(region.concept_id)
        if bundle is None:
            raise ConfigurationError(f"no bundle for concept {region.concept_id!r}")
        if bundle.prompt_embed.shape[1] != dims.d_text:
            raise ConfigurationError(
                f"bundle {region.concept_id!r} has d_text "
                f"{bundle.prompt_embed.shape[1]}, model expects {dims.d_text}")
        for name, delta in bundle.deltas.items():
            if delta.up.shape[0] != dims.d_model:
                raise ConfigurationError(
                    f"bundle {region.concept_id!r} delta {name} targets width "
                    f"{delta.up.shape[0]}, model expects {dims.d_model}")
    # the concept branches run stacked along one axis
    tokens = sorted({bundles[r.concept_id].prompt_embed.shape[0] for r in layout.regions})
    if len(tokens) > 1:
        raise ConfigurationError(f"concept prompts must share a token count, got {tokens}")
    if layout.global_prompt_embed.shape[1] != dims.d_text:
        raise ConfigurationError(
            f"global prompt d_text {layout.global_prompt_embed.shape[1]} "
            f"does not match model d_text {dims.d_text}")
    resolutions = ((dims.height, dims.width), (dims.height // 2, dims.width // 2))
    try:
        geometries = {res: RegionGeometry.build(layout, *res) for res in resolutions}
    except EmptyMaskError as exc:
        raise ConfigurationError(str(exc)) from exc
    return DenoiserContext(weights=weights, layout=layout, bundles=bundles,
                           geometries=geometries)


def sinusoidal_embedding(t: int, width: int) -> np.ndarray:
    """Fixed sin/cos timestep features used as a channel bias."""
    half = (width + 1) // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = t * freqs
    emb = np.zeros(width)
    emb[0::2] = np.sin(angles[: (width + 1) // 2])
    emb[1::2] = np.cos(angles[: width // 2])
    return emb


@dataclass(frozen=True)
class Encoded:
    """``encode``'s output: block 1 stopped once its attention maps exist."""

    residual: Tensor   # (h*w, d_model) stream after block 1's self-attention
    query: Tensor      # (h*w, d_model) block 1's cross-attention queries, shared by every branch
    probs: Tensor      # (concepts, heads, h*w, tokens) block 1's concept-branch attention


def _self_attention(x: Tensor, ctx: DenoiserContext, block_index: int,
                    geometry: RegionGeometry) -> tuple[Tensor, Tensor]:
    """A block's residual masked self-attention; returns the stream and its
    per-head probabilities."""
    block = ctx.weights.blocks[block_index]
    sa_out, self_probs = masked_self_attention(
        ad.layernorm_rows(x), block.self_attn, ctx.dims.n_heads, geometry)
    return x + sa_out, self_probs


def _composer_block(x: Tensor, ctx: DenoiserContext, block_index: int,
                    geometry: RegionGeometry) -> tuple[Tensor, LayerRecord]:
    """Pre-norm residual block: masked self-attention then region cross."""
    x, self_probs = _self_attention(x, ctx, block_index, geometry)
    ca_out, cross_maps = region_cross_attention(
        ad.layernorm_rows(x), ctx.weights.blocks[block_index].cross_attn,
        ctx.dims.n_heads, geometry, ctx.cross_branches[block_index])
    record = LayerRecord(resolution=(geometry.height, geometry.width),
                         cross_maps=cross_maps, self_probs=self_probs)
    return x + ca_out, record


def encode(z: Tensor, t: int, ctx: DenoiserContext) -> tuple[Encoded, AttnRecord]:
    """Lift latent z at timestep t and run the full-resolution blocks' maps.

    Block 0 runs whole; block 1 stops once its maps are recorded, since the
    losses read nothing after them. Returns that pending state and the
    record of both blocks.
    """
    dims = ctx.dims
    if z.shape != (dims.channels, dims.height, dims.width):
        raise ConfigurationError(
            f"latent shape {z.shape} does not match "
            f"({dims.channels}, {dims.height}, {dims.width})")
    h, w = dims.height, dims.width
    full = ctx.geometries[(h, w)]

    z_flat = ad.transpose2d(ad.reshape(z, (dims.channels, h * w)))
    x = ad.matmul(z_flat, ctx.weights.w_in_t)
    x = x + Tensor(sinusoidal_embedding(t, dims.d_model))

    x, layer0 = _composer_block(x, ctx, 0, full)
    x, self_probs = _self_attention(x, ctx, 1, full)
    query, probs, cross_maps = region_cross_maps(
        ad.layernorm_rows(x), ctx.weights.blocks[1].cross_attn, dims.n_heads, full,
        ctx.cross_branches[1])
    layer1 = LayerRecord(resolution=(h, w), cross_maps=cross_maps, self_probs=self_probs)
    return Encoded(residual=x, query=query, probs=probs), AttnRecord(layers=[layer0, layer1])


def decode(state: Encoded, record: AttnRecord,
           ctx: DenoiserContext) -> tuple[Tensor, AttnRecord]:
    """Finish block 1, then the pooled block, upsample with skip and head.

    Appends the pooled block's layer to the record and returns the noise.
    """
    dims = ctx.dims
    h, w = dims.height, dims.width
    x = state.residual + region_cross_output(
        state.query, state.probs, ctx.weights.blocks[1].cross_attn, dims.n_heads,
        ctx.geometries[(h, w)], ctx.cross_branches[1])

    down = ad.avg_pool_2x2(x, h, w)
    down, layer2 = _composer_block(down, ctx, 2, ctx.geometries[(h // 2, w // 2)])
    record.layers.append(layer2)
    x = ad.upsample_nearest_2x(down, h // 2, w // 2) + x

    eps_flat = ad.matmul(x, ctx.weights.w_out_t)
    eps = ad.reshape(ad.transpose2d(eps_flat), (dims.channels, h, w))
    return eps, record


def denoiser_forward(z: Tensor, t: int, ctx: DenoiserContext) -> tuple[Tensor, AttnRecord]:
    """Predict the noise for latent z at timestep t, recording attention."""
    return decode(*encode(z, t, ctx), ctx)

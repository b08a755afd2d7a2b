"""Region-aware cross-attention and concept-isolating self-attention.

This is the heart of the composition block: each foreground concept gets
its own cross-attention branch whose queries are restricted to the
concept's layout region and whose key/value projections carry that
concept's low-rank deltas; branch outputs are merged back over the
background branch. Self-attention is hard-masked so queries of one
concept region can never attend to keys of another, while
foreground/background interaction stays soft (handled by the region
loss, not a hard mask).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .assets import AttentionWeights, ConceptBundle, apply_projection
from .autodiff import Tensor
from .errors import ArgumentError, ConfigurationError, EmptyMaskError, ShapeError

Box = tuple[float, float, float, float]
KV = tuple[Tensor, Tensor]  # one attention branch's keys and values


@dataclass(frozen=True)
class RegionSpec:
    """One concept's normalized layout box (x0, y0, x1, y1)."""

    box: Box
    concept_id: str

    def __post_init__(self):
        x0, y0, x1, y1 = self.box
        if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
            raise ArgumentError(f"degenerate or out-of-range box {self.box}")


@dataclass(frozen=True)
class LayoutCondition:
    """Ordered concept regions plus the global prompt embedding."""

    regions: tuple[RegionSpec, ...]
    global_prompt_embed: np.ndarray  # (tokens, d_text)

    def __post_init__(self):
        ids = [r.concept_id for r in self.regions]
        if len(set(ids)) != len(ids):
            raise ArgumentError(f"duplicate concept ids in layout: {ids}")
        if self.global_prompt_embed.ndim != 2:
            raise ArgumentError("global prompt embedding must be (tokens, d_text)")

    @property
    def concept_ids(self) -> tuple[str, ...]:
        return tuple(r.concept_id for r in self.regions)


@dataclass
class LayerRecord:
    """Attention maps captured by one composer block."""

    resolution: tuple[int, int]          # (height, width)
    cross_maps: dict[str, Tensor]        # concept id -> (h, w), heads averaged
    self_map: Tensor                     # (h*w, h*w), heads averaged


@dataclass
class AttnRecord:
    layers: list[LayerRecord] = field(default_factory=list)

    @property
    def loss_resolution(self) -> tuple[int, int]:
        if not self.layers:
            raise ArgumentError("empty attention record")
        return max((l.resolution for l in self.layers), key=lambda r: r[0] * r[1])

    def loss_layers(self) -> list[LayerRecord]:
        """Layers at the highest recorded resolution; these feed the losses."""
        res = self.loss_resolution
        return [l for l in self.layers if l.resolution == res]

    def averaged_cross_map(self, concept_id: str) -> np.ndarray:
        """Concept-token map averaged over the loss-resolution layers."""
        maps = [l.cross_maps[concept_id].data for l in self.loss_layers()]
        if not maps:
            raise ArgumentError(f"no cross map recorded for {concept_id!r}")
        return np.mean(maps, axis=0)


def rasterize_mask(box: Box, height: int, width: int) -> np.ndarray:
    """Binary (h, w) mask: pixel centers falling in [x0,x1) x [y0,y1)."""
    if height < 1 or width < 1:
        raise ArgumentError("mask extents must be positive")
    x0, y0, x1, y1 = box
    cx = (np.arange(width) + 0.5) / width
    cy = (np.arange(height) + 0.5) / height
    mask = ((cy[:, None] >= y0) & (cy[:, None] < y1)
            & (cx[None, :] >= x0) & (cx[None, :] < x1)).astype(np.float64)
    if not mask.any():
        raise EmptyMaskError(f"box {box} covers no pixel at {height}x{width}")
    return mask


def gaussian_weight(box: Box, height: int, width: int) -> np.ndarray:
    """Separable Gaussian over the box, zero outside, in-box maximum 1.

    Sigmas are half the box extents in pixel units, so the weight decays
    toward the box edges and pulls high responses toward the center.
    """
    mask = rasterize_mask(box, height, width)
    x0, y0, x1, y1 = box
    sigma_x = (x1 - x0) * width / 2.0
    sigma_y = (y1 - y0) * height / 2.0
    cx = (x0 + x1) / 2.0 * width
    cy = (y0 + y1) / 2.0 * height
    dx = (np.arange(width) + 0.5) - cx
    dy = (np.arange(height) + 0.5) - cy
    g = np.exp(-(dy[:, None] ** 2 / (2.0 * sigma_y ** 2)
                 + dx[None, :] ** 2 / (2.0 * sigma_x ** 2)))
    g = g * mask
    return g / g.max()


@dataclass(frozen=True)
class RegionGeometry:
    """Layout rasterized at one resolution, shared across timesteps."""

    height: int
    width: int
    concept_ids: tuple[str, ...]
    masks: dict[str, np.ndarray]       # (h, w) binary
    gaussians: dict[str, np.ndarray]   # (h, w), in-box max 1
    allowed_self: np.ndarray | None    # (h*w, h*w) bool; None without regions

    @classmethod
    def build(cls, layout: LayoutCondition, height: int, width: int) -> "RegionGeometry":
        gaussians = {}
        for i, r in enumerate(layout.regions):
            try:
                gaussians[r.concept_id] = gaussian_weight(r.box, height, width)
            except EmptyMaskError as exc:
                raise EmptyMaskError(f"region {i} (concept {r.concept_id!r}): {exc}") from exc
        # every in-box weight is at least exp(-1), so the support is the mask
        masks = {cid: (g > 0).astype(np.float64) for cid, g in gaussians.items()}
        allowed = None
        if masks:
            stack = np.stack([m.reshape(-1) for m in masks.values()]) > 0
            foreground = stack.any(axis=0)
            shared = (stack.T.astype(np.float64) @ stack.astype(np.float64)) > 0
            blocked = foreground[:, None] & foreground[None, :] & ~shared
            allowed = ~blocked
        return cls(height=height, width=width, concept_ids=layout.concept_ids,
                   masks=masks, gaussians=gaussians, allowed_self=allowed)

    def flat_mask(self, concept_id: str) -> np.ndarray:
        return self.masks[concept_id].reshape(-1)

    @cached_property
    def pixels(self) -> PixelTable:
        """Every concept's pixel constants, computed on first use: building them
        in ``build`` would double the cost of ``prepare``'s two geometries.
        The index lists are validated here, once, for every gather that reads them."""
        h, w = self.height, self.width
        count = sum(map(self.flat_mask, self.concept_ids), np.zeros(h * w))
        safe = np.maximum(count, 1.0)
        concepts = {}
        for cid, mask in self.masks.items():
            flat = mask.reshape(-1)
            concepts[cid] = ConceptPixels(
                inside=ad.distinct_indices(np.flatnonzero(flat), h * w),
                outside=ad.distinct_indices(np.flatnonzero(flat == 0), h * w),
                rows=ad.distinct_indices(np.flatnonzero(mask.any(axis=1)), h),
                cols=ad.distinct_indices(np.flatnonzero(mask.any(axis=0)), w),
                query=Tensor(flat[:, None]), share=Tensor((flat / safe)[:, None]),
                weight=Tensor(self.gaussians[cid]))
        return PixelTable(concepts, background=Tensor((count == 0)[:, None]))


@dataclass(frozen=True)
class ConceptPixels:
    """One concept's box at one resolution, in the form each reader needs."""

    inside: ad.DistinctIndices    # flat indices of the box's pixels
    outside: ad.DistinctIndices   # flat indices of every other pixel
    rows: ad.DistinctIndices      # rows the box covers
    cols: ad.DistinctIndices      # columns the box covers
    query: Tensor                 # (h*w, 1) mask on the concept branch's queries
    share: Tensor                 # (h*w, 1) compose weight: mask / boxes covering the pixel
    weight: Tensor                # (h, w) Gaussian weight, in-box maximum 1


@dataclass(frozen=True)
class PixelTable:
    """A geometry's pixel constants: one entry per concept, plus h0's weight."""

    concepts: dict[str, ConceptPixels]
    background: Tensor    # (h*w, 1) compose weight of h0: 1 where no box covers the pixel


def _multihead(q: Tensor, k: Tensor, v: Tensor, n_heads: int, wo_t: Tensor,
               allowed: np.ndarray | None) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention; returns hidden and heads-averaged map."""
    probs = ad.attention_probs(q, k, n_heads, allowed)
    hidden = ad.matmul(ad.apply_heads(probs, v), wo_t)
    return hidden, ad.mean_heads(probs)


def compose_hidden(h0: Tensor, hiddens_by_concept: dict[str, Tensor],
                   geometry: RegionGeometry) -> Tensor:
    """Merge per-concept hidden states over the background hidden state.

    Pixels covered by no box keep h0; pixels covered by k boxes take the
    arithmetic mean of the k covering states.
    """
    if not hiddens_by_concept:
        return h0
    table = geometry.pixels
    out = ad.mul(h0, table.background)
    for cid in geometry.concept_ids:
        out = out + ad.mul(hiddens_by_concept[cid], table.concepts[cid].share)
    return out


def cross_branch_kv(layout: LayoutCondition, bundles: dict[str, ConceptBundle],
                    weights: AttentionWeights) -> tuple[KV, ...]:
    """Keys and values of every cross-attention branch, global branch first.

    Entry 0 projects the global prompt through the base weights; entry n
    projects region n-1's prompt through the base weights merged with the
    concept's deltas. They depend on no latent, so a run computes them once.
    """
    prompt = Tensor(layout.global_prompt_embed)
    kv = [(apply_projection(prompt, weights.wk), apply_projection(prompt, weights.wv))]
    for region in layout.regions:
        bundle = _bundle_for(region, bundles)
        prompt = Tensor(bundle.prompt_embed)
        kv.append((apply_projection(prompt, weights.wk, bundle.deltas.get("cross.W_K")),
                   apply_projection(prompt, weights.wv, bundle.deltas.get("cross.W_V"))))
    return tuple(kv)


def _bundle_for(region: RegionSpec, bundles: dict[str, ConceptBundle]) -> ConceptBundle:
    bundle = bundles.get(region.concept_id)
    if bundle is None:
        raise ConfigurationError(f"no bundle for concept {region.concept_id!r}")
    return bundle


def region_cross_attention(
    z_flat: Tensor,
    layout: LayoutCondition,
    bundles: dict[str, ConceptBundle],
    weights: AttentionWeights,
    n_heads: int,
    geometry: RegionGeometry,
    kv: tuple[KV, ...],
) -> tuple[Tensor, dict[str, Tensor]]:
    """Cross-attention with one LoRA-injected branch per concept region.

    The n=0 branch attends the global prompt with base weights and an
    all-ones mask; branch n masks its queries with the concept's region
    and attends keys/values projected through the concept's deltas.
    ``kv`` holds every branch's keys and values (``cross_branch_kv``).
    Returns the composed hidden state and the recorded concept-token maps.
    """
    h, w = geometry.height, geometry.width
    if z_flat.shape[0] != h * w:
        raise ShapeError(f"hidden rows {z_flat.shape[0]} != {h}x{w}")
    if len(kv) != len(layout.regions) + 1:
        raise ArgumentError(
            f"{len(layout.regions)} regions need {len(layout.regions) + 1} K/V pairs, "
            f"got {len(kv)}")
    q_full = ad.matmul(z_flat, weights.wq_t)
    k0, v0 = kv[0]
    h0, _ = _multihead(q_full, k0, v0, n_heads, weights.wo_t, allowed=None)

    hiddens: dict[str, Tensor] = {}
    cross_maps: dict[str, Tensor] = {}
    for region, (kn, vn) in zip(layout.regions, kv[1:]):
        cid = region.concept_id
        bundle = _bundle_for(region, bundles)
        qn = ad.mul(q_full, geometry.pixels.concepts[cid].query)
        hiddens[cid], attn = _multihead(qn, kn, vn, n_heads, weights.wo_t, allowed=None)
        concept_col = ad.column(attn, bundle.token_index)
        cross_maps[cid] = ad.reshape(concept_col, (h, w))

    return compose_hidden(h0, hiddens, geometry), cross_maps


def masked_self_attention(
    z_flat: Tensor,
    weights: AttentionWeights,
    n_heads: int,
    geometry: RegionGeometry,
) -> tuple[Tensor, Tensor]:
    """Self-attention whose cross-concept interactions are hard-masked.

    Attention between pixels of distinct foreground regions is exactly
    zero in both directions; every other pair, including foreground to
    background, interacts normally. Rows renormalize over permitted keys.
    """
    h, w = geometry.height, geometry.width
    if z_flat.shape[0] != h * w:
        raise ShapeError(f"hidden rows {z_flat.shape[0]} != {h}x{w}")
    q = ad.matmul(z_flat, weights.wq_t)
    k = ad.matmul(z_flat, weights.wk_t)
    v = ad.matmul(z_flat, weights.wv_t)
    return _multihead(q, k, v, n_heads, weights.wo_t, geometry.allowed_self)

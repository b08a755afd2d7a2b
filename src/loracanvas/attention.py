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
        return cls(height=height, width=width, concept_ids=layout.concept_ids,
                   masks=masks, gaussians=gaussians)

    def flat_mask(self, concept_id: str) -> np.ndarray:
        return self.masks[concept_id].reshape(-1)

    @cached_property
    def blocked_self(self) -> np.ndarray | None:
        """(h*w, h*w) read-only bool: the self-attention pairs concept isolation
        forbids, a foreground query to a foreground key sharing no box with it.
        Built and row-checked on first use; None without regions."""
        if not self.masks:
            return None
        stack = np.stack([m.reshape(-1) for m in self.masks.values()]) > 0
        foreground = stack.any(axis=0)
        shared = (stack.T.astype(np.float64) @ stack.astype(np.float64)) > 0
        return ad.checked_block(foreground[:, None] & foreground[None, :] & ~shared)

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


def _heads_out(probs: Tensor, v: Tensor, wo_t: Tensor) -> Tensor:
    """Attention output: each head's probs @ v, joined and projected by W_O."""
    return ad.matmul(ad.apply_heads(probs, v), wo_t)


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


@dataclass(frozen=True)
class ConceptBranch:
    """One concept's cross-attention branch, as ``cross_branches`` builds it."""

    concept_id: str
    token_index: int    # the concept token, whose map the branch records
    k: Tensor           # (tokens, d) prompt keys through the concept-merged W_K
    v: Tensor           # (tokens, d) prompt values through the concept-merged W_V


@dataclass(frozen=True)
class CrossBranches:
    """Every cross-attention branch of one block, as ``cross_branches`` builds it."""

    k: Tensor                             # global prompt keys, base weights
    v: Tensor                             # global prompt values, base weights
    concepts: tuple[ConceptBranch, ...]   # one per region, in layout order


def cross_branches(layout: LayoutCondition, bundles: dict[str, ConceptBundle],
                   weights: AttentionWeights) -> CrossBranches:
    """One block's cross-attention branches, built from the layout and bundles.

    The global branch projects the global prompt through the base weights,
    each region's branch its concept's prompt through the base weights merged
    with the concept's deltas. They depend on no latent: a run builds them once.
    """
    prompt = Tensor(layout.global_prompt_embed)
    k0, v0 = apply_projection(prompt, weights.wk), apply_projection(prompt, weights.wv)
    concepts = []
    for region in layout.regions:
        bundle = bundles.get(region.concept_id)
        if bundle is None:
            raise ConfigurationError(f"no bundle for concept {region.concept_id!r}")
        prompt = Tensor(bundle.prompt_embed)
        concepts.append(ConceptBranch(
            concept_id=region.concept_id, token_index=bundle.token_index,
            k=apply_projection(prompt, weights.wk, bundle.deltas.get("cross.W_K")),
            v=apply_projection(prompt, weights.wv, bundle.deltas.get("cross.W_V"))))
    return CrossBranches(k=k0, v=v0, concepts=tuple(concepts))


@dataclass(frozen=True)
class CrossQueries:
    """Region cross-attention run as far as its concept maps.

    ``region_cross_output`` finishes it from here.
    """

    query: Tensor                 # (h*w, d) unmasked queries, for the global branch
    probs: dict[str, Tensor]      # concept id -> (heads, h*w, tokens) branch attention


def region_cross_attention(
    z_flat: Tensor,
    weights: AttentionWeights,
    n_heads: int,
    geometry: RegionGeometry,
    branches: CrossBranches,
) -> tuple[Tensor, dict[str, Tensor]]:
    """Cross-attention with one LoRA-injected branch per concept region.

    Each concept branch masks its queries with its region and attends its own
    keys and values; returns the composed hidden state and the concept maps.
    """
    queries, cross_maps = region_cross_maps(z_flat, weights, n_heads, geometry, branches)
    return region_cross_output(queries, weights, n_heads, geometry, branches), cross_maps


def region_cross_maps(
    z_flat: Tensor,
    weights: AttentionWeights,
    n_heads: int,
    geometry: RegionGeometry,
    branches: CrossBranches,
) -> tuple[CrossQueries, dict[str, Tensor]]:
    """The first half of ``region_cross_attention``: everything its maps read.

    Projects the queries, runs each concept branch's attention and records
    its concept-token map (heads averaged). No hidden state is computed.
    """
    h, w = geometry.height, geometry.width
    if z_flat.shape[0] != h * w:
        raise ShapeError(f"hidden rows {z_flat.shape[0]} != {h}x{w}")
    q_full = ad.matmul(z_flat, weights.wq_t)
    probs: dict[str, Tensor] = {}
    cross_maps: dict[str, Tensor] = {}
    for branch in branches.concepts:
        cid = branch.concept_id
        qn = ad.mul(q_full, geometry.pixels.concepts[cid].query)
        probs[cid] = ad.attention_probs(qn, branch.k, n_heads)
        concept_col = ad.column(ad.mean_heads(probs[cid]), branch.token_index)
        cross_maps[cid] = ad.reshape(concept_col, (h, w))
    return CrossQueries(query=q_full, probs=probs), cross_maps


def region_cross_output(
    queries: CrossQueries,
    weights: AttentionWeights,
    n_heads: int,
    geometry: RegionGeometry,
    branches: CrossBranches,
) -> Tensor:
    """The second half of ``region_cross_attention``: its composed hidden state.

    Runs the global branch, applies each concept branch's attention to its
    values and merges the branches with ``compose_hidden``.
    """
    h0 = _heads_out(ad.attention_probs(queries.query, branches.k, n_heads), branches.v,
                    weights.wo_t)
    hiddens = {b.concept_id: _heads_out(queries.probs[b.concept_id], b.v, weights.wo_t)
               for b in branches.concepts}
    return compose_hidden(h0, hiddens, geometry)


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
    probs = ad.attention_probs(q, k, n_heads, geometry.blocked_self)
    return _heads_out(probs, v, weights.wo_t), ad.mean_heads(probs)

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


@dataclass
class LayerRecord:
    """Attention maps captured by one composer block."""

    resolution: tuple[int, int]   # (height, width)
    cross_maps: Tensor            # (concepts, h, w) in layout order, heads averaged
    self_map: Tensor              # (h*w, h*w), heads averaged


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

    def averaged_cross_maps(self) -> np.ndarray:
        """(concepts, h, w) concept-token maps averaged over the loss-resolution layers."""
        return np.mean([l.cross_maps.data for l in self.loss_layers()], axis=0)


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
    regions: tuple[RegionSpec, ...]    # the layout's regions, in layout order
    masks: dict[str, np.ndarray]       # (h, w) binary

    @classmethod
    def build(cls, layout: LayoutCondition, height: int, width: int) -> "RegionGeometry":
        masks = {}
        for i, r in enumerate(layout.regions):
            try:
                masks[r.concept_id] = rasterize_mask(r.box, height, width)
            except EmptyMaskError as exc:
                raise EmptyMaskError(f"region {i} (concept {r.concept_id!r}): {exc}") from exc
        return cls(height=height, width=width, regions=layout.regions, masks=masks)

    @property
    def concept_ids(self) -> tuple[str, ...]:
        return tuple(r.concept_id for r in self.regions)

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
        """Every concept's pixel constants, its Gaussian weight included, computed
        on first use: building them in ``build`` would add to the cost of
        ``prepare``'s two geometries."""
        h, w = self.height, self.width
        flat = np.reshape(list(self.masks.values()), (-1, h * w))
        count = flat.sum(axis=0)
        safe = np.maximum(count, 1.0)
        grid = flat.reshape(-1, h, w)
        return PixelTable(
            inside=tuple(np.flatnonzero(f) for f in flat),
            outside=tuple(np.flatnonzero(f == 0) for f in flat),
            rows=tuple(np.flatnonzero(r) for r in grid.any(axis=2)),
            cols=tuple(np.flatnonzero(c) for c in grid.any(axis=1)),
            area=flat.sum(axis=1).astype(np.intp),
            query=Tensor(flat[:, :, None]), share=Tensor((flat / safe)[:, :, None]),
            weight=Tensor(np.reshape([gaussian_weight(r.box, h, w) for r in self.regions],
                                     (-1, h, w))),
            background=Tensor((count == 0)[:, None]))


@dataclass(frozen=True)
class PixelTable:
    """A geometry's pixel constants, per concept in layout order, plus h0's weight."""

    inside: tuple[np.ndarray, ...]    # flat indices of each box's pixels
    outside: tuple[np.ndarray, ...]   # flat indices of every other pixel
    rows: tuple[np.ndarray, ...]      # rows each box covers
    cols: tuple[np.ndarray, ...]      # columns each box covers
    area: np.ndarray      # (concepts,) pixels each box covers
    query: Tensor         # (concepts, h*w, 1) mask on each concept branch's queries
    share: Tensor         # (concepts, h*w, 1) compose weight: mask / boxes covering the pixel
    weight: Tensor        # (concepts, h, w) Gaussian weight, in-box maximum 1
    background: Tensor    # (h*w, 1) compose weight of h0: 1 where no box covers the pixel


def compose_hidden(h0: Tensor, hiddens: Tensor, geometry: RegionGeometry) -> Tensor:
    """Merge the concepts' (concepts, h*w, d) hidden states over the background one.

    Pixels covered by no box keep h0; pixels covered by k boxes take the
    arithmetic mean of the k covering states. One node for the chain
    ``mul(h0, background) + sum_leading(mul(hiddens, share))``, rounding as it
    does: the shares are summed in layout order, then added to h0's part. The
    masks are 0/1 and the shares at most 1, so only the sums can overflow, and
    the output's finite check sees it.
    """
    if hiddens.data.ndim != 3 or len(hiddens.data) != len(geometry.regions):
        raise ArgumentError(f"hidden states of shape {hiddens.shape} do not hold the "
                            f"geometry's {len(geometry.regions)} concepts")
    background, share = geometry.pixels.background.data, geometry.pixels.share.data
    parts = hiddens.data * share
    data = parts[0].copy() if len(parts) else np.zeros(parts.shape[1:])
    for part in parts[1:]:
        data += part
    data += h0.data * background
    return Tensor.node(data, "compose_hidden", (h0, hiddens),
                       lambda g: (g * background, g * share))


@dataclass(frozen=True)
class CrossBranches:
    """Every cross-attention branch of one block, as ``cross_branches`` builds it."""

    k: Tensor                     # global prompt keys, base weights
    v: Tensor                     # global prompt values, base weights
    concept_ids: tuple[str, ...]  # one per region, in layout order
    tokens: np.ndarray            # (concepts,) the concept token, whose map a branch records
    concept_k: Tensor             # (concepts, tokens, d) prompt keys, concept-merged W_K
    concept_v: Tensor             # (concepts, tokens, d) prompt values, concept-merged W_V


def cross_branches(layout: LayoutCondition, bundles: dict[str, ConceptBundle],
                   weights: AttentionWeights) -> CrossBranches:
    """One block's cross-attention branches, built from the layout and bundles.

    The global branch projects the global prompt through the base weights,
    each region's branch its concept's prompt through the base weights merged
    with the concept's deltas. They depend on no latent: a run builds them once.
    The concept prompts must share a token count (``build_context`` checks it).
    """
    prompt = Tensor(layout.global_prompt_embed)
    k0, v0 = apply_projection(prompt, weights.wk), apply_projection(prompt, weights.wv)
    tokens, keys, values = [], [], []
    for region in layout.regions:
        bundle = bundles.get(region.concept_id)
        if bundle is None:
            raise ConfigurationError(f"no bundle for concept {region.concept_id!r}")
        prompt = Tensor(bundle.prompt_embed)
        tokens.append(bundle.token_index)
        keys.append(apply_projection(prompt, weights.wk, bundle.deltas.get("cross.W_K")).data)
        values.append(apply_projection(prompt, weights.wv, bundle.deltas.get("cross.W_V")).data)
    # with no concepts, one token leaves the empty branches' softmax an axis to normalize
    shape = (len(keys), keys[0].shape[0] if keys else 1, k0.shape[1])
    return CrossBranches(k=k0, v=v0, concept_ids=tuple(r.concept_id for r in layout.regions),
                         tokens=np.array(tokens, dtype=np.intp),
                         concept_k=Tensor(np.reshape(keys, shape)),
                         concept_v=Tensor(np.reshape(values, shape)))


def region_cross_attention(
    z_flat: Tensor,
    weights: AttentionWeights,
    n_heads: int,
    geometry: RegionGeometry,
    branches: CrossBranches,
) -> tuple[Tensor, Tensor]:
    """Cross-attention with one LoRA-injected branch per concept region.

    Each concept branch masks its queries with its region and attends its own
    keys and values; returns the composed hidden state and the (concepts, h, w)
    concept maps.
    """
    query, probs, maps = region_cross_maps(z_flat, weights, n_heads, geometry, branches)
    return region_cross_output(query, probs, weights, n_heads, geometry, branches), maps


def region_cross_maps(
    z_flat: Tensor,
    weights: AttentionWeights,
    n_heads: int,
    geometry: RegionGeometry,
    branches: CrossBranches,
) -> tuple[Tensor, Tensor, Tensor]:
    """The first half of ``region_cross_attention``: everything its maps read.

    Projects the queries and runs every concept branch's attention at once.
    Returns the unmasked (h*w, d) queries, the (concepts, heads, h*w, tokens)
    branch attention and each branch's concept-token map, heads averaged, as
    (concepts, h, w). No hidden state is computed.
    """
    h, w = geometry.height, geometry.width
    if z_flat.shape[0] != h * w:
        raise ShapeError(f"hidden rows {z_flat.shape[0]} != {h}x{w}")
    if branches.concept_ids != geometry.concept_ids:
        raise ArgumentError(f"branches list concepts {list(branches.concept_ids)}, the "
                            f"geometry {list(geometry.concept_ids)}")
    query = ad.matmul(z_flat, weights.wq_t)
    probs = ad.attention_probs(ad.mul(query, geometry.pixels.query), branches.concept_k,
                               n_heads)
    # one node for reshape(column(mean_heads(probs), tokens)): each branch's token
    # column is taken first and its heads summed in order, so it rounds the same
    at = (np.arange(len(branches.tokens)), slice(None), slice(None), branches.tokens)
    columns = probs.data[at]
    data = columns[:, 0].copy()
    for head in columns.swapaxes(0, 1)[1:]:
        data += head
    data /= float(n_heads)

    def vjp(g):
        out = np.zeros(probs.shape)
        out[at] = g.reshape(len(g), 1, h * w) / float(n_heads)
        return (out,)

    return query, probs, Tensor.node(data.reshape(len(data), h, w), "region_cross_maps",
                                     (probs,), vjp)


def region_cross_output(
    query: Tensor,
    probs: Tensor,
    weights: AttentionWeights,
    n_heads: int,
    geometry: RegionGeometry,
    branches: CrossBranches,
) -> Tensor:
    """The second half of ``region_cross_attention``: its composed hidden state.

    Runs the global branch on ``region_cross_maps``' queries, applies the
    concept branches' attention to their values and merges the branches with
    ``compose_hidden``.
    """
    h0 = ad.apply_heads(ad.attention_probs(query, branches.k, n_heads), branches.v,
                        weights.wo_t)
    hiddens = ad.apply_heads(probs, branches.concept_v, weights.wo_t)
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
    return ad.apply_heads(probs, v, weights.wo_t), ad.mean_heads(probs)

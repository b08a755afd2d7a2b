"""Constraint losses and the gradient update that steers the latent.

Three losses act on recorded attention maps: a concept enhancement term
that saturates when the top in-box responses reach the Gaussian-weighted
maximum, a fill term pushing axis max-projections to cover the whole
box, and a region term penalizing self-attention leakage from a concept
region into its complement. Their weighted sum is differentiated with
respect to the latent and applied with a linearly decaying step size,
stopping early once the loss stops improving by a relative tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .attention import AttnRecord, RegionGeometry
from .autodiff import Tensor, grad
from .errors import ArgumentError, NumericError

# a new minimum that beats the best loss by no more than this share of it is stale
MIN_DELTA = 2e-4


@dataclass(frozen=True)
class GuidanceConfig:
    """Knobs of the constraint losses and of the latent update."""

    alpha: float = 0.25            # fill-loss weight
    beta: float = 0.8              # region-loss weight
    s_ratio: float = 0.2           # top-S as a fraction of the mask size
    p_ratio: float = 0.2           # top-P as a fraction of the sliced submatrix
    phi0: float = 10.0             # step size at t = T
    guidance_fraction: float = 0.7  # early fraction of timesteps updated
    max_iters: int = 5             # loss evaluations per timestep, at most max_iters-1 steps
    patience: int = 1              # non-improving iterations before stopping

    def __post_init__(self):
        for name in ("alpha", "beta", "s_ratio", "p_ratio", "phi0", "guidance_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ArgumentError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ArgumentError(f"{name} must be finite, got {value!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ArgumentError("loss weights must be non-negative")
        if not (0.0 < self.s_ratio <= 1.0 and 0.0 < self.p_ratio <= 1.0):
            raise ArgumentError("s_ratio and p_ratio must lie in (0, 1]")
        if self.phi0 <= 0:
            raise ArgumentError("phi0 must be positive")
        # 0 disables guidance entirely, used by the neutrality checks
        if not (0.0 <= self.guidance_fraction <= 1.0):
            raise ArgumentError("guidance_fraction must lie in [0, 1]")
        if any(isinstance(n, bool) or not isinstance(n, int) or n < 1
               for n in (self.max_iters, self.patience)):
            raise ArgumentError("max_iters and patience must be integers of at least 1")


@dataclass(frozen=True)
class LossBreakdown:
    l_ce: float
    l_fill: float
    l_region: float
    total: float
    per_concept: dict[str, dict[str, float]]


@dataclass(frozen=True)
class TraceRow:
    """One guidance iteration as written to trace.csv."""

    timestep: int
    iteration: int
    l_ce: float
    l_fill: float
    l_region: float
    total: float
    phi_t: float
    accepted: int

    @classmethod
    def of(cls, t: int, iteration: int, breakdown: LossBreakdown, phi_t: float,
           accepted: bool) -> "TraceRow":
        return cls(timestep=t, iteration=iteration, l_ce=breakdown.l_ce,
                   l_fill=breakdown.l_fill, l_region=breakdown.l_region,
                   total=breakdown.total, phi_t=phi_t, accepted=int(accepted))


# Each term is every concept's constraint term over the loss layers, one
# (concepts,) node whose entry c is the mean of concept c's per-layer terms.
# A term runs over one batch of (layer, concept) rows, row l * concepts + c,
# and averages the batch's layer axis. Each entry rounds exactly as the chain
# of autodiff kernels its docstring names, run on that concept alone and
# followed by add and div_scalar for the layer mean. The forward computes
# values only; each backward makes every row's picks, writes them with one
# flat-index scatter (per axis projection, in the fill term) and splits the
# result per layer; the region term scatters each layer's picks on their own.


def _flat_picks(picks: list, offsets) -> np.ndarray:
    """Row r's flat picks, offset by ``offsets[r]``, joined in row order."""
    return np.concatenate([np.zeros(0, np.intp)]
                          + [offset + idx for offset, idx in zip(offsets, picks)])


def _top_k(flats, ks: np.ndarray) -> tuple[list, np.ndarray]:
    """Row r's ``top_k`` of ``flats[r]`` with ``ks[r]``: the k-th values and the means."""
    tops = [ad.top_k(flat, k) for flat, k in zip(flats, ks.tolist())]
    return [kth for kth, _ in tops], np.array([top for _, top in tops])


def _top_k_picks(flats, kths: list, ks: np.ndarray) -> list:
    """Row r's ``top_k_picks`` of ``flats[r]``, from the k-th value ``_top_k`` gave."""
    return [ad.top_k_picks(flat, kth, k) for flat, kth, k in zip(flats, kths, ks.tolist())]


def concept_enhancement_terms(record: AttnRecord, geometry: RegionGeometry,
                              s_ratio: float) -> Tensor:
    """Every concept's enhancement term, averaged over contributing layers: (concepts,).

    Attend-and-Excite's top-k term: per concept c, ``1 - topk_mean(map[c] *
    weight[c], k[c])`` with ``k = ceil(s_ratio * area)`` (chain: mul,
    topk_mean, sub). The Gaussian weight is a constant in [0, 1]: no gradient
    flows to it, and a finite map times it stays finite.
    """
    maps = [layer.cross_maps for layer in record.loss_layers(geometry)]
    w = geometry.weight
    n, concepts, size = len(maps), len(geometry.regions), geometry.height * geometry.width
    flats = (np.array([m.data for m in maps]) * w).reshape(n * concepts, size)
    ks = np.concatenate([np.ceil(s_ratio * geometry.area).astype(np.intp)] * n)
    kths, tops = _top_k(flats, ks)

    def vjp(g):
        out = np.zeros(flats.size)
        at = _flat_picks(_top_k_picks(flats, kths, ks), range(0, out.size, size))
        out[at] = np.repeat(-(np.concatenate([g] * n) / n) / ks, ks)
        return tuple(o * w if m.requires_grad else None
                     for o, m in zip(out.reshape((n,) + w.shape), maps))

    return Tensor.node((1.0 - tops).reshape(n, concepts).sum(axis=0) / n,
                       "concept_enhancement_terms", maps, vjp)


def fill_terms(record: AttnRecord, geometry: RegionGeometry) -> Tensor:
    """Every concept's axis-projection fill term, averaged over layers: (concepts,).

    BoxDiff's box-axis max-projection term: per concept c, ``mean(1 -
    [its box submatrix's column maxima, its row maxima])`` (chain: take2d,
    axis_max_project, concat, sub, mean_all), so no entry outside the box is
    read. Each maximum's gradient routes to its first argmax in the box. Each
    map is listed twice in ``parents``: the VJP hands back its column-max and
    row-max scatters as separate cotangents, so ``grad`` adds them to the
    map's other cotangents in the chain's order. Summing the two here would
    reassociate that sum.
    """
    maps = [layer.cross_maps for layer in record.loss_layers(geometry)]
    height, width = geometry.height, geometry.width
    n, concepts = len(maps), len(geometry.regions)
    rows, cols = geometry.rows * n, geometry.cols * n
    sizes = np.array([ri.size + ci.size for ri, ci in zip(rows, cols)], dtype=np.intp)
    # row l * concepts + c's box, amap[np.ix_(ri, ci)] of layer l's map of concept c
    boxes = [amap[ri[:, None], ci] for m in maps
             for amap, ri, ci in zip(m.data, geometry.rows, geometry.cols)]
    # each mean as a sum over the count, as ndarray.mean computes it
    terms = np.array([(1.0 - np.concatenate([b.max(axis=0), b.max(axis=1)])).sum() / size
                      for b, size in zip(boxes, sizes)])

    def vjp(g):
        share = -(np.concatenate([g] * n) / n / sizes)
        starts = range(0, n * concepts * height * width, height * width)
        scatters = []
        for at in ([ri[b.argmax(axis=0)] * width + ci for b, ri, ci in zip(boxes, rows, cols)],
                   [ri * width + ci[b.argmax(axis=1)] for b, ri, ci in zip(boxes, rows, cols)]):
            out = np.zeros((n, concepts, height, width))
            out.reshape(-1)[_flat_picks(at, starts)] = np.repeat(share, [i.size for i in at])
            scatters.append(out)
        # each layer's column scatter, then its row scatter, as the parents list them
        return tuple(s if m.requires_grad else None
                     for m, pair in zip(maps, zip(*scatters)) for s in pair)

    return Tensor.node(terms.reshape(n, concepts).sum(axis=0) / n, "fill_terms",
                       tuple(m for m in maps for _ in range(2)), vjp)


def region_terms(record: AttnRecord, geometry: RegionGeometry, p_ratio: float) -> Tensor:
    """Every concept's foreground-to-complement leakage term: (concepts,).

    Per concept c, ``topk_mean(take2d(mean_heads(self_probs), in_box, out_of_box),
    k[c])``, where ``in_box`` and ``out_of_box`` are the flat pixels ``masks[c]``
    covers and leaves out, with ``k = ceil(p_ratio * area * (h*w - area))``. Only
    the submatrix entries of the head mean are computed: each head's are gathered
    at the geometry's ``cells[c]`` and the heads added in order from +0.0 and
    divided by their count, as ``mean_heads`` does. The self maps are shared by
    every concept, so two concepts may pick one entry: the VJP sums each map's
    picks into its shape, in concept order, and hands each head its share.
    """
    probs = [layer.self_probs for layer in record.loss_layers(geometry)]
    size = geometry.height * geometry.width
    outside = size - geometry.area
    if not outside.all():
        whole = geometry.concept_ids[int(np.argmin(outside))]
        raise ArgumentError(f"concept {whole!r} covers the whole map")
    n, concepts = len(probs), len(geometry.regions)
    ks = np.concatenate([np.ceil(p_ratio * (geometry.area * outside)).astype(np.intp)] * n)

    def submatrices():
        # each head gathered with 1-D indexing, faster than a gather over the head axis
        for p in probs:
            for cell in geometry.cells:
                mean = np.zeros(cell.size)
                for head in p.data:
                    mean += head.reshape(-1)[cell]
                yield mean / float(len(p.data))

    kths, tops = _top_k(submatrices(), ks)

    def vjp(g):
        picks = _top_k_picks(submatrices(), kths, ks)
        shares = np.concatenate([g] * n) / n / ks

        def cotangent(layer: int, heads: int) -> np.ndarray:
            # the layer's concepts share its map: a pick two concepts share
            # adds up in concept order
            rows = slice(layer * concepts, (layer + 1) * concepts)
            at = _flat_picks([cell[idx] for cell, idx in zip(geometry.cells, picks[rows])],
                             [0] * concepts)
            c = np.bincount(at, np.repeat(shares[rows], ks[rows]), minlength=size * size)
            c = c.astype(np.float64, copy=False)  # a bincount of no picks is int64
            c /= float(heads)
            return c.reshape(size, size)

        return tuple(np.broadcast_to(cotangent(layer, p.shape[0]), p.shape)
                     if p.requires_grad else None for layer, p in enumerate(probs))

    return Tensor.node(tops.reshape(n, concepts).sum(axis=0) / n, "region_terms", probs, vjp)


def _concept_sum(term: Tensor) -> np.float64:
    """A (concepts,) term summed in concept order, as a chain of ``add`` kernels adds it."""
    return np.cumsum(term.data)[-1] if term.size else np.float64(0.0)


def composite_loss(record: AttnRecord, geometry: RegionGeometry,
                   config: GuidanceConfig) -> tuple[Tensor, LossBreakdown]:
    """Traced L = L_ce + alpha * L_fill + beta * L_region plus its float breakdown.

    L is one node for the chain that sums each term over the concepts with
    ``add`` in concept order and weights and adds the sums with ``mul`` and
    ``add``, rounding as it does. A non-finite sum makes L non-finite, so L's
    finite check serves them all.
    """
    ce = concept_enhancement_terms(record, geometry, config.s_ratio)
    fill = fill_terms(record, geometry)
    region = region_terms(record, geometry, config.p_ratio)
    alpha, beta = config.alpha, config.beta
    l_ce, l_fill, l_region = _concept_sum(ce), _concept_sum(fill), _concept_sum(region)
    total = Tensor.node(np.asarray(l_ce + alpha * l_fill + beta * l_region), "composite_loss",
                        (ce, fill, region), lambda g: tuple(
                            np.broadcast_to(g * w, term.shape) if term.requires_grad else None
                            for w, term in ((1.0, ce), (alpha, fill), (beta, region))))
    per_concept = {
        cid: {"ce": float(c), "fill": float(f), "region": float(r)}
        for cid, c, f, r in zip(geometry.concept_ids, ce.data, fill.data, region.data)
    }
    breakdown = LossBreakdown(l_ce=float(l_ce), l_fill=float(l_fill),
                              l_region=float(l_region), total=float(total),
                              per_concept=per_concept)
    return total, breakdown


def step_size(t: int, total_steps: int, phi0: float) -> float:
    """Linearly decaying update step: phi0 at t=T down to 0 at t=0."""
    if not 0 <= t <= total_steps:
        raise ArgumentError(f"timestep {t} outside [0, {total_steps}]")
    return phi0 * t / total_steps


def in_guidance_window(t: int, total_steps: int, fraction: float) -> bool:
    """True for the early timesteps t/T >= 1 - fraction."""
    return t / total_steps >= (1.0 - fraction) - 1e-9


def taped_loss(z: np.ndarray, forward: Callable[[Tensor], AttnRecord],
               geometry: RegionGeometry,
               config: GuidanceConfig) -> tuple[LossBreakdown, Callable[[], np.ndarray]]:
    """The constraint loss at z, and a function returning its gradient there.

    The function holds the record, loss and tape: drop it before the next
    forward, so no two iterations' tapes are alive at once.
    """
    traced = Tensor(z, requires_grad=True)
    total, breakdown = composite_loss(forward(traced), geometry, config)
    return breakdown, lambda: grad(total, traced).data


def guided_update(
    z_t: np.ndarray,
    forward: Callable[[Tensor], AttnRecord],
    geometry: RegionGeometry,
    config: GuidanceConfig,
    t: int,
    total_steps: int,
) -> tuple[np.ndarray, list[TraceRow]]:
    """Iteratively push the latent down the constraint-loss gradient.

    Each iteration runs the forward closure under the tape, evaluates the
    total loss and steps ``z <- z - phi_t * grad``. The loop keeps the lowest
    loss it evaluated and returns that loss's latent. It counts stale
    evaluations: the first is never stale; a loss not below the best is stale;
    a new minimum is kept but is stale unless it beats the best by more than
    ``MIN_DELTA * |best|``, and one that is not stale resets the count. The
    loop stops once ``patience`` evaluations in a row were stale, or after
    ``max_iters`` evaluations (so at most ``max_iters - 1`` steps; with 1 the
    input comes back unchanged). A row is accepted when its loss is a new
    minimum.
    """
    if not in_guidance_window(t, total_steps, config.guidance_fraction):
        raise ArgumentError(f"timestep {t} is outside the guidance window")
    phi = step_size(t, total_steps, config.phi0)
    z = np.asarray(z_t, dtype=np.float64)
    best, best_z, stale = math.inf, z, 0
    rows: list[TraceRow] = []
    for iteration in range(config.max_iters):
        try:
            # an overflow must reach the finite checks as a NumericError with
            # this context, not stop earlier as a warning turned error
            with np.errstate(over="ignore", invalid="ignore"):
                breakdown, gradient = taped_loss(z, forward, geometry, config)
                loss = breakdown.total
                improved = loss < best
                if improved and (iteration == 0 or best - loss > MIN_DELTA * abs(best)):
                    stale = 0
                else:
                    stale += 1
                if improved:
                    best, best_z = loss, z
                rows.append(TraceRow.of(t, iteration, breakdown, phi, improved))
                if stale >= config.patience or iteration + 1 == config.max_iters:
                    break  # no later iteration would evaluate another step
                if phi != 0.0:
                    z = z - phi * gradient()
        except NumericError as exc:
            raise NumericError(
                f"guidance diverged at t={t} iteration={iteration}: {exc}") from exc
        del gradient
    return best_z, rows


def inbox_mass_fractions(record: AttnRecord, geometry: RegionGeometry) -> dict[str, float]:
    """Share of each concept's attention mass inside its box, by concept id in
    layout order. The record must fit the geometry as the constraint terms
    require; its loss layers' maps are averaged once."""
    return {cid: float((averaged * mask).sum() / averaged.sum())
            for cid, averaged, mask in zip(geometry.concept_ids,
                                           record.averaged_cross_maps(geometry), geometry.masks)}

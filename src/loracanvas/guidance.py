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
from .attention import AttnRecord, LayerRecord, RegionGeometry
from .autodiff import Tensor, grad
from .errors import ArgumentError, NumericError, ShapeError

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


def _loss_layers(record: AttnRecord, geometry: RegionGeometry) -> list[LayerRecord]:
    """The record's loss layers, checked to fit the geometry: its resolution,
    (concepts, h, w) cross maps of its concepts and (h*w, h*w) self maps."""
    h, w = geometry.height, geometry.width
    if record.loss_resolution != (h, w):
        raise ArgumentError(
            f"geometry {h}x{w} does not match loss resolution {record.loss_resolution}")
    layers = record.loss_layers()
    cross = (len(geometry.regions), h, w)
    for layer in layers:
        shape, self_shape = layer.cross_maps.shape, layer.self_map.shape
        if shape[1:] != (h, w) or self_shape != (h * w, h * w):
            raise ShapeError(
                f"cross maps {shape} and self map {self_shape} "
                f"do not fit the geometry's {cross} and {(h * w, h * w)}")
        if shape[0] != cross[0]:
            raise ArgumentError(
                f"cross maps {shape} do not fit the geometry's {cross[0]} concepts")
    return layers


# Each term is every concept's constraint term over the loss layers, one
# (concepts,) node whose entry c is the mean of concept c's per-layer terms.
# Each entry rounds exactly as the chain of autodiff kernels its docstring
# names, run on that concept alone and followed by add and div_scalar for the
# layer mean. The forward computes values only; each backward makes a layer's
# picks and writes them with one flat-index scatter.


def _layer_mean(terms: list) -> np.ndarray:
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return np.asarray(total / float(len(terms)))


def _flat_picks(picks: list, stride: int) -> np.ndarray:
    """Concept c's flat picks, offset by c * stride, joined in concept order."""
    return np.concatenate([np.zeros(0, np.intp)]
                          + [c * stride + idx for c, idx in enumerate(picks)])


def _assign_picks(shape: tuple[int, ...], picks: list, values: np.ndarray) -> np.ndarray:
    """Zeros of a (concepts, ...) shape with ``values`` assigned at concept c's
    flat picks into slice c. No two picks meet, so assignment is the adjoint."""
    out = np.zeros(math.prod(shape))
    out[_flat_picks(picks, math.prod(shape[1:]))] = values
    return out.reshape(shape)


def _top_k(flats, ks: np.ndarray) -> tuple[list, np.ndarray]:
    """Concept c's ``top_k`` of ``flats[c]`` with ``ks[c]``: the k-th values and the means."""
    tops = [ad.top_k(flat, k) for flat, k in zip(flats, ks.tolist())]
    return [kth for kth, _ in tops], np.array([top for _, top in tops])


def _top_k_picks(flats, kths: list, ks: np.ndarray) -> list:
    """Concept c's ``top_k_picks`` of ``flats[c]``, from the k-th value ``_top_k`` gave."""
    return [ad.top_k_picks(flat, kth, k) for flat, kth, k in zip(flats, kths, ks.tolist())]


def concept_enhancement_terms(record: AttnRecord, geometry: RegionGeometry,
                              s_ratio: float) -> Tensor:
    """Every concept's enhancement term, averaged over contributing layers: (concepts,).

    Attend-and-Excite's top-k term: per concept c, ``1 - topk_mean(map[c] *
    weight[c], k[c])`` with ``k = ceil(s_ratio * area)`` (chain: mul,
    topk_mean, sub). The Gaussian weight is a constant in [0, 1]: no gradient
    flows to it, and a finite map times it stays finite.
    """
    maps = [layer.cross_maps for layer in _loss_layers(record, geometry)]
    table = geometry.pixels
    w = table.weight.data
    ks = np.ceil(s_ratio * table.area).astype(np.intp)
    kths, terms = [], []
    for m in maps:
        kth, top = _top_k((p.reshape(-1) for p in m.data * w), ks)
        kths.append(kth)
        terms.append(1.0 - top)
    n = float(len(maps))

    def vjp(g):
        share = np.repeat(-(g / n) / ks, ks)
        return tuple(_assign_picks(w.shape, _top_k_picks((p.reshape(-1) for p in m.data * w),
                                                         kth, ks), share) * w
                     for m, kth in zip(maps, kths))

    return Tensor.node(_layer_mean(terms), "concept_enhancement_terms", maps, vjp)


def fill_terms(record: AttnRecord, geometry: RegionGeometry) -> Tensor:
    """Every concept's axis-projection fill term, averaged over layers: (concepts,).

    BoxDiff's box-axis max-projection term: per concept c, ``mean(1 -
    [map[c]'s column maxima at its box columns, row maxima at its box rows])``
    (chain: axis_max_project, take, concat, sub, mean_all). Each maximum's
    gradient routes to its first argmax. Each map is listed twice in
    ``parents``: the VJP hands back its column-max and row-max scatters as
    separate cotangents, so ``grad`` adds them to the map's other cotangents
    in the chain's order. Summing the two here would reassociate that sum.
    """
    maps = [layer.cross_maps for layer in _loss_layers(record, geometry)]
    table = geometry.pixels
    width = geometry.width
    sizes = np.array([ri.size + ci.size for ri, ci in zip(table.rows, table.cols)],
                     dtype=np.intp)
    terms = []
    for m in maps:
        col_max, row_max = m.data.max(axis=1), m.data.max(axis=2)
        # each mean as a sum over the count, as ndarray.mean computes it
        terms.append(np.array([(1.0 - np.concatenate([cm[ci], rm[ri]])).sum() / size
                               for cm, rm, ci, ri, size
                               in zip(col_max, row_max, table.cols, table.rows, sizes)]))
    n = float(len(maps))

    def vjp(g):
        share = -(g / n / sizes)
        scatters = []
        for m in maps:
            first_rows, first_cols = m.data.argmax(axis=1), m.data.argmax(axis=2)
            at_cols = [a[ci] * width + ci for a, ci in zip(first_rows, table.cols)]
            at_rows = [ri * width + a[ri] for a, ri in zip(first_cols, table.rows)]
            scatters += [_assign_picks(m.shape, at, np.repeat(share, [i.size for i in at]))
                         for at in (at_cols, at_rows)]
        return tuple(scatters)

    return Tensor.node(_layer_mean(terms), "fill_terms",
                       tuple(m for m in maps for _ in range(2)), vjp)


def region_terms(record: AttnRecord, geometry: RegionGeometry, p_ratio: float) -> Tensor:
    """Every concept's foreground-to-complement leakage term: (concepts,).

    Per concept c, ``topk_mean(self_map[inside[c]][:, outside[c]], k[c])`` with
    ``k = ceil(p_ratio * area * (h*w - area))`` (chain: take2d, topk_mean).
    The self maps are shared by every concept, so two concepts may pick one
    entry: the VJP sums each map's picks into its shape, in concept order.
    """
    maps = [layer.self_map for layer in _loss_layers(record, geometry)]
    table = geometry.pixels
    size = geometry.height * geometry.width
    outside = size - table.area
    if not outside.all():
        whole = geometry.concept_ids[int(np.argmin(outside))]
        raise ArgumentError(f"concept {whole!r} covers the whole map")
    ks = np.ceil(p_ratio * (table.area * outside)).astype(np.intp)
    # each submatrix as flat indices into a map, in the row-major order of map[np.ix_(r, c)]
    subs = [(ri[:, None] * size + ci).reshape(-1) for ri, ci in zip(table.inside, table.outside)]
    kths, terms = [], []
    for m in maps:
        kth, top = _top_k((m.data.reshape(-1)[sub] for sub in subs), ks)
        kths.append(kth)
        terms.append(top)
    n = float(len(maps))

    def vjp(g):
        share = np.repeat(g / n / ks, ks)
        cotangents = []
        for m, kth in zip(maps, kths):
            flat = m.data.reshape(-1)
            picks = _top_k_picks((flat[sub] for sub in subs), kth, ks)
            # the maps are shared: no concept offset, and a pick two concepts share adds up
            at = _flat_picks([sub[idx] for sub, idx in zip(subs, picks)], 0)
            cotangents.append(np.bincount(at, share, minlength=m.size).reshape(m.shape))
        return tuple(cotangents)

    return Tensor.node(_layer_mean(terms), "region_terms", maps, vjp)


def _concept_sum(term: Tensor) -> np.float64:
    """A (concepts,) term summed in concept order, as ``sum_leading`` adds it."""
    return np.cumsum(term.data)[-1] if term.size else np.float64(0.0)


def composite_loss(record: AttnRecord, geometry: RegionGeometry,
                   config: GuidanceConfig) -> tuple[Tensor, LossBreakdown]:
    """Traced L = L_ce + alpha * L_fill + beta * L_region plus its float breakdown.

    L is one node for the chain that sums each term over the concepts with
    ``sum_leading`` and weights and adds the sums with ``mul`` and ``add``,
    rounding as it does. A non-finite sum makes L non-finite, so L's finite
    check serves them all.
    """
    ce = concept_enhancement_terms(record, geometry, config.s_ratio)
    fill = fill_terms(record, geometry)
    region = region_terms(record, geometry, config.p_ratio)
    alpha, beta = config.alpha, config.beta
    l_ce, l_fill, l_region = _concept_sum(ce), _concept_sum(fill), _concept_sum(region)
    total = Tensor.node(np.asarray(l_ce + alpha * l_fill + beta * l_region), "composite_loss",
                        (ce, fill, region), lambda g: (np.broadcast_to(g, ce.shape),
                                                       np.broadcast_to(g * alpha, fill.shape),
                                                       np.broadcast_to(g * beta, region.shape)))
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


class AdaptiveStopper:
    """Tracks loss improvement; trips after `patience` stale iterations.

    An iteration is stale unless its loss beats the best so far by more
    than ``MIN_DELTA * |best|``; the first observation always improves.
    """

    def __init__(self, patience: int):
        if patience < 1:
            raise ArgumentError("patience must be at least 1")
        self.patience = patience
        self.best: float = math.inf
        self.stale = 0

    def observe(self, loss: float) -> bool:
        """Feed one loss value; returns True when it is a new minimum.

        A new minimum is always recorded as the best, but one that beats
        the previous best by no more than the tolerance counts as stale.
        """
        if loss >= self.best:
            self.stale += 1
            return False
        if self.best == math.inf or self.best - loss > MIN_DELTA * abs(self.best):
            self.stale = 0
        else:
            self.stale += 1
        self.best = loss
        return True

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


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
    total loss and steps ``z <- z - phi_t * grad``. Iterations stop after
    ``max_iters`` evaluations (so at most ``max_iters - 1`` steps; with 1 the
    input comes back unchanged) or once `patience` evaluations in a row gained
    no more than ``MIN_DELTA`` relative to the best loss. The lowest-loss
    latent the loop evaluated is returned, so its loss is the minimum
    ``total`` of the rows.
    """
    if not in_guidance_window(t, total_steps, config.guidance_fraction):
        raise ArgumentError(f"timestep {t} is outside the guidance window")
    phi = step_size(t, total_steps, config.phi0)
    stopper = AdaptiveStopper(config.patience)
    z = np.asarray(z_t, dtype=np.float64)
    best_z = z
    rows: list[TraceRow] = []
    for iteration in range(config.max_iters):
        try:
            # an overflow must reach the finite checks as a NumericError with
            # this context, not stop earlier as a warning turned error
            with np.errstate(over="ignore", invalid="ignore"):
                breakdown, gradient = taped_loss(z, forward, geometry, config)
                improved = stopper.observe(breakdown.total)
                rows.append(TraceRow.of(t, iteration, breakdown, phi, improved))
                if improved:
                    best_z = z
                if stopper.should_stop or iteration + 1 == config.max_iters:
                    break  # no later iteration would evaluate another step
                if phi != 0.0:
                    z = z - phi * gradient()
        except NumericError as exc:
            raise NumericError(
                f"guidance diverged at t={t} iteration={iteration}: {exc}") from exc
        del gradient
    return best_z, rows


def inbox_mass_fraction(record: AttnRecord, geometry: RegionGeometry,
                        concept_id: str) -> float:
    """Share of a concept's attention mass falling inside its box."""
    averaged = record.averaged_cross_maps()[geometry.concept_ids.index(concept_id)]
    return float((averaged * geometry.masks[concept_id]).sum() / averaged.sum())

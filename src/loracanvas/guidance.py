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


def _check_resolution(record: AttnRecord, geometry: RegionGeometry) -> None:
    if record.loss_resolution != (geometry.height, geometry.width):
        raise ArgumentError(
            f"geometry {geometry.height}x{geometry.width} does not match "
            f"loss resolution {record.loss_resolution}")


def concept_enhancement_terms(record: AttnRecord, geometry: RegionGeometry,
                              s_ratio: float) -> Tensor:
    """Every concept's enhancement term, averaged over contributing layers: (concepts,)."""
    _check_resolution(record, geometry)
    table = geometry.pixels
    return ad.topk_shortfall([layer.cross_maps for layer in record.loss_layers()],
                             table.weight, np.ceil(s_ratio * table.area))


def fill_terms(record: AttnRecord, geometry: RegionGeometry) -> Tensor:
    """Every concept's axis-projection fill term, averaged over layers: (concepts,)."""
    _check_resolution(record, geometry)
    table = geometry.pixels
    return ad.box_fill([layer.cross_maps for layer in record.loss_layers()],
                       table.rows, table.cols)


def region_terms(record: AttnRecord, geometry: RegionGeometry, p_ratio: float) -> Tensor:
    """Every concept's foreground-to-complement leakage term: (concepts,)."""
    _check_resolution(record, geometry)
    table = geometry.pixels
    outside = geometry.height * geometry.width - table.area
    if not outside.all():
        whole = geometry.concept_ids[int(np.argmin(outside))]
        raise ArgumentError(f"concept {whole!r} covers the whole map")
    return ad.submatrix_topk_mean([layer.self_map for layer in record.loss_layers()],
                                  table.inside, table.outside,
                                  np.ceil(p_ratio * (table.area * outside)))


def composite_loss(record: AttnRecord, geometry: RegionGeometry,
                   config: GuidanceConfig) -> tuple[Tensor, LossBreakdown]:
    """Traced L = L_ce + alpha * L_fill + beta * L_region plus its float breakdown."""
    ce = concept_enhancement_terms(record, geometry, config.s_ratio)
    fill = fill_terms(record, geometry)
    region = region_terms(record, geometry, config.p_ratio)
    l_ce, l_fill, l_region = ad.sum_leading(ce), ad.sum_leading(fill), ad.sum_leading(region)
    total = l_ce + config.alpha * l_fill + config.beta * l_region
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
    than ``min_delta * |best|``; the first observation always improves.
    """

    def __init__(self, patience: int, min_delta: float = MIN_DELTA):
        if patience < 1:
            raise ArgumentError("patience must be at least 1")
        self.patience = patience
        self.min_delta = min_delta
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
        if self.best == math.inf or self.best - loss > self.min_delta * abs(self.best):
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

"""Latent re-initialization: move concept-favorable noise into the boxes.

Before sampling starts, one constraint-guided gradient step is applied to
the freshly drawn noise, a forward pass records where each concept's
attention actually landed, and the best-scoring crop of that map (found
with a summed-area table) is transplanted into the user's box. The
result is re-standardized so the sampler still sees unit-Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assets import GENERATOR_VERSION, ModelDims
from .attention import RegionGeometry
from .autodiff import Tensor
from .denoiser import DenoiserContext, encode
from .errors import ArgumentError, DegenerateLatentError, NumericError
from .guidance import GuidanceConfig, TraceRow, step_size, taped_loss

_INIT_STREAM = 21


@dataclass(frozen=True)
class CropResult:
    """Best-scoring window of one concept's attention map."""

    origin: tuple[int, int]   # (row, column)
    score: float


def best_crop(a: np.ndarray, box_extent: tuple[int, int]) -> CropResult:
    """Window of the given (width, height) maximizing the map sum.

    The scan uses a summed-area table, O(h*w) over all origins; ties go to
    the lexicographically smallest (row, column).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ArgumentError("crop search expects a 2-D map")
    box_w, box_h = int(box_extent[0]), int(box_extent[1])
    h, w = a.shape
    if not (1 <= box_w <= w and 1 <= box_h <= h):
        raise ArgumentError(f"extent {box_w}x{box_h} does not fit a {h}x{w} map")
    sat = np.zeros((h + 1, w + 1))
    sat[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    sums = (sat[box_h:, box_w:] - sat[:-box_h, box_w:]
            - sat[box_h:, :-box_w] + sat[:-box_h, :-box_w])
    flat_index = int(np.argmax(sums))  # first maximum in row-major order
    i, j = divmod(flat_index, sums.shape[1])
    # re-sum the winning window directly so the score carries no
    # accumulated rounding from the table
    score = float(a[i:i + box_h, j:j + box_w].sum())
    return CropResult(origin=(i, j), score=score)


def transplant(z: np.ndarray, crops: list[CropResult], geometry: RegionGeometry) -> np.ndarray:
    """Copy crop c's patch into the geometry's box c, all channels at once.

    Every patch is read from the input, which is never written, so crops
    may overlap previously written boxes without aliasing; later boxes
    overwrite earlier ones. Pixels outside every box stay bit-identical.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ArgumentError("latent must be (channels, height, width)")
    if len(crops) != len(geometry.rows):
        raise ArgumentError(f"crops and boxes must align: {len(crops)} for {len(geometry.rows)}")
    _, h, w = z.shape
    out = z.copy()
    for crop, rows, cols in zip(crops, geometry.rows, geometry.cols):
        ci, cj = crop.origin
        if ci < 0 or cj < 0:
            raise ArgumentError(f"crop origin {crop.origin} is negative")
        if max(ci + rows.size, rows[-1] + 1) > h or max(cj + cols.size, cols[-1] + 1) > w:
            raise ArgumentError("crop or box exceeds the latent extent")
        out[:, rows[:, None], cols] = z[:, ci:ci + rows.size, cj:cj + cols.size]
    return out


def standardize(z: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance per channel over spatial positions."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ArgumentError("latent must be (channels, height, width)")
    flat = z.reshape(z.shape[0], -1)
    std = flat.std(axis=1)
    if np.any(std <= 1e-12):
        bad = int(np.argmin(std))
        raise DegenerateLatentError(f"channel {bad} has no variance")
    mean = flat.mean(axis=1)
    return (z - mean[:, None, None]) / std[:, None, None]


def initial_latent(seed: int, dims: ModelDims) -> np.ndarray:
    """Seeded standard-normal starting noise, shared by every entry path."""
    rng = np.random.default_rng([GENERATOR_VERSION, _INIT_STREAM, seed])
    return rng.standard_normal((dims.channels, dims.height, dims.width))


def reinitialize(seed: int, ctx: DenoiserContext, config: GuidanceConfig,
                 total_steps: int) -> tuple[np.ndarray, list[TraceRow]]:
    """Draw noise, apply one guided step, relocate concept crops, renorm.

    Returns the latent for t = T plus the trace rows of the single update.
    With no concept regions the standardized initial sample is returned
    unchanged in structure (no update terms apply, nothing is cropped).
    """
    z0 = initial_latent(seed, ctx.dims)
    geometry = ctx.loss_geometry
    if not geometry.concept_ids:
        return standardize(z0), []

    def forward(zt: Tensor):
        return encode(zt, total_steps, ctx)[1]

    phi = step_size(total_steps, total_steps, config.phi0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the finite checks report it
            breakdown, gradient = taped_loss(z0, forward, geometry, config)
            z1 = z0 - phi * gradient()
    except NumericError as exc:
        raise NumericError(f"re-init step diverged at t={total_steps}: {exc}") from exc
    del gradient
    trace = [TraceRow.of(total_steps, 0, breakdown, phi, accepted=True)]
    _, record = encode(Tensor(z1), total_steps, ctx)

    crops = [best_crop(amap, (cols.size, rows.size)) for rows, cols, amap
             in zip(geometry.rows, geometry.cols, record.averaged_cross_maps(geometry))]
    return standardize(transplant(z1, crops, geometry)), trace

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
from .autodiff import Tensor
from .denoiser import DenoiserContext, encode
from .errors import ArgumentError, DegenerateLatentError, NumericError
from .guidance import GuidanceConfig, TraceRow, step_size, taped_loss

_INIT_STREAM = 21


@dataclass(frozen=True)
class CropResult:
    """Best-scoring window of one concept's attention map."""

    concept_id: str
    origin: tuple[int, int]   # (row, column)
    extent: tuple[int, int]   # (width, height)
    score: float


def best_crop(a: np.ndarray, box_extent: tuple[int, int],
              concept_id: str = "") -> CropResult:
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
    return CropResult(concept_id=concept_id, origin=(i, j),
                      extent=(box_w, box_h), score=score)


def transplant(z: np.ndarray, crops: list[CropResult],
               boxes: list[tuple[int, int, int, int]]) -> np.ndarray:
    """Copy each crop patch into its target box, all channels at once.

    Every patch is read from the input, which is never written, so crops
    may overlap previously written boxes without aliasing; later boxes
    overwrite earlier ones. Pixels outside every box stay bit-identical.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ArgumentError("latent must be (channels, height, width)")
    if len(crops) != len(boxes):
        raise ArgumentError("crops and boxes must align")
    _, h, w = z.shape
    out = z.copy()
    for crop, (bi, bj, box_h, box_w) in zip(crops, boxes):
        crop_w, crop_h = crop.extent
        if (crop_h, crop_w) != (box_h, box_w):
            raise ArgumentError(
                f"crop extent {crop_w}x{crop_h} does not match box "
                f"{box_w}x{box_h} for {crop.concept_id!r}")
        ci, cj = crop.origin
        if ci + crop_h > h or cj + crop_w > w or bi + box_h > h or bj + box_w > w:
            raise ArgumentError("crop or box exceeds the latent extent")
        out[:, bi:bi + box_h, bj:bj + box_w] = z[:, ci:ci + crop_h, cj:cj + crop_w]
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
        breakdown, gradient = taped_loss(z0, forward, geometry, config)
        z1 = z0 - phi * gradient()
    except NumericError as exc:
        raise NumericError(f"re-init step diverged at t={total_steps}: {exc}") from exc
    del gradient
    trace = [TraceRow.of(total_steps, 0, breakdown, phi, accepted=True)]
    _, record = encode(Tensor(z1), total_steps, ctx)

    crops: list[CropResult] = []
    boxes: list[tuple[int, int, int, int]] = []
    table = geometry.pixels
    for cid, rows, cols, amap in zip(geometry.concept_ids, table.rows, table.cols,
                                     record.averaged_cross_maps()):
        crops.append(best_crop(amap, (cols.size, rows.size), concept_id=cid))
        boxes.append((int(rows[0]), int(cols[0]), rows.size, cols.size))
    return standardize(transplant(z1, crops, boxes)), trace

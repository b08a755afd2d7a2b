from __future__ import annotations

import numpy as np
import pytest

from conftest import build_test_context, empty_layout_context
from loracanvas import reinit as reinit_module
from loracanvas.autodiff import Tensor, grad
from loracanvas.denoiser import denoiser_forward, encode
from loracanvas.errors import ArgumentError, DegenerateLatentError, NumericError
from loracanvas.guidance import GuidanceConfig, composite_loss, inbox_mass_fraction, step_size
from loracanvas.reinit import (
    best_crop,
    initial_latent,
    reinitialize,
    standardize,
    transplant,
)


# ------------------------------------------------------------------ oracle


def brute_force_crop(a: np.ndarray, box_w: int, box_h: int):
    h, w = a.shape
    best = (-np.inf, None)
    for i in range(h - box_h + 1):
        for j in range(w - box_w + 1):
            s = a[i:i + box_h, j:j + box_w].sum()
            if s > best[0]:
                best = (s, (i, j))
    return best[1], best[0]


# ------------------------------------------------------------------ best_crop


def test_best_crop_finds_single_spike():
    a = np.zeros((5, 6))
    a[2, 3] = 1.0
    crop = best_crop(a, (1, 1))
    assert crop.origin == (2, 3)
    assert crop.score == 1.0


def test_best_crop_constant_map_tie_breaks_to_origin():
    crop = best_crop(np.ones((6, 6)), (3, 2))
    assert crop.origin == (0, 0)


def test_best_crop_matches_brute_force_on_200_random_maps():
    rng = np.random.default_rng(101)
    for _ in range(200):
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        a = rng.uniform(-1.0, 1.0, size=(h, w))
        box_w = int(rng.integers(1, w + 1))
        box_h = int(rng.integers(1, h + 1))
        crop = best_crop(a, (box_w, box_h))
        origin, score = brute_force_crop(a, box_w, box_h)
        assert crop.origin == origin
        assert crop.score == score


def test_best_crop_extent_validation():
    with pytest.raises(ArgumentError):
        best_crop(np.ones((4, 4)), (5, 1))
    with pytest.raises(ArgumentError):
        best_crop(np.ones((4, 4)), (0, 2))


# ------------------------------------------------------------------ transplant


def test_transplant_self_copy_is_identity():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 6, 6))
    crop = best_crop(np.ones((6, 6)), (2, 2))
    out = transplant(z, [crop], [(0, 0, 2, 2)])
    assert np.array_equal(out, z)


def test_transplant_copies_patch_into_box():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((2, 5, 5))
    from loracanvas.reinit import CropResult

    crop = CropResult(concept_id="a", origin=(3, 3), extent=(2, 2), score=0.0)
    out = transplant(z, [crop], [(0, 0, 2, 2)])
    assert np.array_equal(out[:, 0:2, 0:2], z[:, 3:5, 3:5])
    untouched = np.ones((5, 5), dtype=bool)
    untouched[0:2, 0:2] = False
    assert np.array_equal(out[:, untouched], z[:, untouched])


def test_transplant_overlapping_reads_come_from_snapshot():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((1, 4, 4))
    from loracanvas.reinit import CropResult

    # concept 1 reads from the area concept 0 writes into, and vice versa
    crops = [CropResult("a", origin=(2, 2), extent=(2, 2), score=0.0),
             CropResult("b", origin=(0, 0), extent=(2, 2), score=0.0)]
    boxes = [(0, 0, 2, 2), (2, 2, 2, 2)]
    out = transplant(z, crops, boxes)
    # two-pass oracle: all reads against the original
    expected = z.copy()
    expected[:, 0:2, 0:2] = z[:, 2:4, 2:4]
    expected[:, 2:4, 2:4] = z[:, 0:2, 0:2]
    assert np.array_equal(out, expected)


def test_transplant_extent_mismatch():
    from loracanvas.reinit import CropResult

    crop = CropResult("a", origin=(0, 0), extent=(2, 2), score=0.0)
    with pytest.raises(ArgumentError):
        transplant(np.zeros((1, 4, 4)), [crop], [(0, 0, 3, 2)])


# ------------------------------------------------------------------ standardize


def test_standardize_moments():
    rng = np.random.default_rng(3)
    z = 3.0 * rng.standard_normal((4, 8, 8)) + 1.5
    out = standardize(z)
    flat = out.reshape(4, -1)
    assert np.all(np.abs(flat.mean(axis=1)) < 1e-9)
    assert np.all(np.abs(flat.std(axis=1) - 1.0) < 1e-9)


def test_standardize_near_idempotent():
    rng = np.random.default_rng(4)
    z = standardize(rng.standard_normal((2, 6, 6)))
    again = standardize(z)
    assert np.max(np.abs(again - z)) < 1e-12


def test_standardize_rejects_constant_channel():
    z = np.random.default_rng(5).standard_normal((2, 4, 4))
    z[1] = 7.0
    with pytest.raises(DegenerateLatentError):
        standardize(z)


# ------------------------------------------------------------------ reinitialize


def test_reinitialize_empty_layout_returns_standardized_draw():
    ctx = empty_layout_context()
    z, rows = reinitialize(7, ctx, GuidanceConfig(), total_steps=10)
    assert rows == []
    assert np.array_equal(z, standardize(initial_latent(7, ctx.dims)))


def test_reinitialize_deterministic():
    ctx = build_test_context()
    cfg = GuidanceConfig(phi0=2.0)
    z1, rows1 = reinitialize(3, ctx, cfg, total_steps=10)
    z2, rows2 = reinitialize(3, ctx, cfg, total_steps=10)
    assert np.array_equal(z1, z2)
    assert rows1 == rows2
    assert len(rows1) == 1  # single-step update regardless of max_iters
    z3, _ = reinitialize(4, ctx, cfg, total_steps=10)
    assert not np.array_equal(z1, z3)


def test_reinitialize_standardizes_output():
    ctx = build_test_context()
    z, _ = reinitialize(11, ctx, GuidanceConfig(phi0=2.0), total_steps=10)
    flat = z.reshape(z.shape[0], -1)
    assert np.all(np.abs(flat.mean(axis=1)) < 1e-9)
    assert np.all(np.abs(flat.std(axis=1) - 1.0) < 1e-9)


def test_reinitialize_does_not_reduce_inbox_mass():
    ctx = build_test_context()
    cfg = GuidanceConfig(phi0=2.0)
    geometry = ctx.loss_geometry
    total_steps = 10

    before = initial_latent(13, ctx.dims)
    _, record_before = denoiser_forward(Tensor(before), total_steps, ctx)
    after, _ = reinitialize(13, ctx, cfg, total_steps)
    _, record_after = denoiser_forward(Tensor(after), total_steps, ctx)

    for cid in geometry.concept_ids:
        pre = inbox_mass_fraction(record_before, geometry, cid)
        post = inbox_mass_fraction(record_after, geometry, cid)
        assert post >= pre


def test_reinitialize_crops_one_guided_step_from_the_draw(monkeypatch):
    """The latent re-init crops from is z0 - phi_T * grad L(z0), never z0 itself."""
    ctx = build_test_context()
    cfg = GuidanceConfig(phi0=2.0, max_iters=4)
    total_steps = 10
    seen: list[np.ndarray] = []

    def recording_transplant(z, crops, boxes):
        seen.append(np.array(z, copy=True))
        return transplant(z, crops, boxes)

    monkeypatch.setattr(reinit_module, "transplant", recording_transplant)
    reinitialize(3, ctx, cfg, total_steps)

    z0 = initial_latent(3, ctx.dims)
    traced = Tensor(z0, requires_grad=True)
    total, _ = composite_loss(encode(traced, total_steps, ctx)[1], ctx.loss_geometry, cfg)
    expected = z0 - step_size(total_steps, total_steps, cfg.phi0) * grad(total, traced).data
    assert not np.array_equal(expected, z0)
    assert len(seen) == 1
    assert seen[0].tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_reinitialize_numeric_error_carries_context(monkeypatch):
    def exploding(zt, t, ctx):
        return None, Tensor([1e308]) * Tensor([1e308])

    monkeypatch.setattr(reinit_module, "encode", exploding)
    with pytest.raises(NumericError, match="re-init step diverged at t=10"):
        reinitialize(3, build_test_context(), GuidanceConfig(), total_steps=10)

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import build_test_context, empty_layout_context, geometry_of
from loracanvas import autodiff as ad
from loracanvas import reinit as reinit_module
from loracanvas.autodiff import Tensor, grad
from loracanvas.denoiser import denoiser_forward, encode
from loracanvas.errors import ArgumentError, DegenerateLatentError, NumericError
from loracanvas.guidance import GuidanceConfig, composite_loss, inbox_mass_fractions, step_size
from loracanvas.reinit import (
    CropResult,
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


def crop_at(i: int, j: int) -> CropResult:
    return CropResult(origin=(i, j), score=0.0)


def test_transplant_self_copy_is_identity():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 6, 6))
    crop = best_crop(np.ones((6, 6)), (2, 2))
    out = transplant(z, [crop], geometry_of([(0, 0, 2, 2)], 6, 6))
    assert np.array_equal(out, z)


def test_transplant_copies_patch_into_box():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((2, 5, 5))
    # a 2-row, 3-column box at rows 1-2, columns 2-4
    out = transplant(z, [crop_at(3, 0)], geometry_of([(1, 2, 3, 5)], 5, 5))
    assert np.array_equal(out[:, 1:3, 2:5], z[:, 3:5, 0:3])
    untouched = np.ones((5, 5), dtype=bool)
    untouched[1:3, 2:5] = False
    assert np.array_equal(out[:, untouched], z[:, untouched])


def test_transplant_overlapping_reads_come_from_snapshot():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((1, 4, 4))
    # concept 1 reads from the area concept 0 writes into, and vice versa
    geometry = geometry_of([(0, 0, 2, 2), (2, 2, 4, 4)], 4, 4)
    out = transplant(z, [crop_at(2, 2), crop_at(0, 0)], geometry)
    # two-pass oracle: all reads against the original
    expected = z.copy()
    expected[:, 0:2, 0:2] = z[:, 2:4, 2:4]
    expected[:, 2:4, 2:4] = z[:, 0:2, 0:2]
    assert np.array_equal(out, expected)


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


# one 2x2 box in the corner of a 4x4 latent
CORNER = geometry_of([(0, 0, 2, 2)], 4, 4)


@pytest.mark.parametrize("call, match", [
    (lambda: best_crop(np.ones(4), (1, 1)), "expects a 2-D map"),
    (lambda: transplant(np.zeros((4, 4)), [], CORNER), "latent must be"),
    (lambda: transplant(np.zeros((1, 4, 4)), [crop_at(0, 0)] * 2, CORNER), "must align"),
    (lambda: transplant(np.zeros((1, 4, 4)), [], CORNER), "must align"),
    # the patch at (3, 3) would run past the 4x4 latent
    (lambda: transplant(np.zeros((1, 4, 4)), [crop_at(3, 3)], CORNER),
     "exceeds the latent extent"),
    # an 8x8 geometry's box at rows and columns 4-5 lies past the 4x4 latent
    (lambda: transplant(np.zeros((1, 4, 4)), [crop_at(0, 0)],
                        geometry_of([(4, 4, 6, 6)], 8, 8)), "exceeds the latent extent"),
    # numpy would read rows and columns 1-2, counting from the end
    (lambda: transplant(np.zeros((1, 4, 4)), [crop_at(-3, -3)], CORNER), "negative"),
    (lambda: transplant(np.zeros((1, 4, 4)), [crop_at(-1, 0)], CORNER), "negative"),
    (lambda: standardize(np.arange(16.0).reshape(4, 4)), "latent must be"),
], ids=["best_crop_of_a_vector", "transplant_into_a_2d_latent", "transplant_misaligned",
        "transplant_one_crop_too_few", "transplant_past_the_edge", "transplant_box_past_the_edge",
        "transplant_negative_origin", "transplant_negative_row", "standardize_a_2d_latent"])
def test_reinit_steps_reject_misshaped_inputs(call, match):
    with pytest.raises(ArgumentError, match=match):
        call()


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

    pre = inbox_mass_fractions(record_before, geometry)
    post = inbox_mass_fractions(record_after, geometry)
    for cid in geometry.concept_ids:
        assert post[cid] >= pre[cid]


def test_reinitialize_crops_one_guided_step_from_the_draw(monkeypatch):
    """The latent re-init crops from is z0 - phi_T * grad L(z0), never z0 itself."""
    ctx = build_test_context()
    cfg = GuidanceConfig(phi0=2.0, max_iters=4)
    total_steps = 10
    seen: list[np.ndarray] = []

    def recording_transplant(z, crops, geometry):
        seen.append(np.array(z, copy=True))
        return transplant(z, crops, geometry)

    monkeypatch.setattr(reinit_module, "transplant", recording_transplant)
    reinitialize(3, ctx, cfg, total_steps)

    z0 = initial_latent(3, ctx.dims)
    traced = Tensor(z0, requires_grad=True)
    total, _ = composite_loss(encode(traced, total_steps, ctx)[1], ctx.loss_geometry, cfg)
    expected = z0 - step_size(total_steps, total_steps, cfg.phi0) * grad(total, traced).data
    assert not np.array_equal(expected, z0)
    assert len(seen) == 1
    assert seen[0].tobytes() == expected.tobytes()


def test_reinitialize_numeric_error_carries_context(monkeypatch):
    def exploding(zt, t, ctx):
        return None, ad.mul(Tensor([1e308]), Tensor([1e308]))

    monkeypatch.setattr(reinit_module, "encode", exploding)
    with warnings.catch_warnings(), pytest.raises(NumericError,
                                                  match="re-init step diverged at t=10"):
        warnings.simplefilter("error")
        reinitialize(3, build_test_context(), GuidanceConfig(), total_steps=10)

"""Taped directional derivatives against central differences, each kink named.

On the gradcheck stack of ``make-toy-assets`` seeds 0-19, the taped
derivative ``grad . v`` at the initial latent must agree with the central
difference along seeded random unit directions v. The constraint loss is
only piecewise smooth: where the two disagree beyond ``TOLERANCE``, the test
must find a selection that changes within ±eps along v (a ``top_k`` pick set,
or a fill term's argmax at a box column or row) and a side on which none
changes, whose one-sided difference agrees with the tape.

Seed 13's unit direction at channel 0, row 0, column 6 straddles such a kink:
the region term's top-k picks change at z - eps (ROADMAP item 9).
"""

from __future__ import annotations

import numpy as np
import pytest

from loracanvas import autodiff as ad
from loracanvas.autodiff import Tensor, grad, max_relative_error, top_k, top_k_picks
from loracanvas.cli import make_toy_assets
from loracanvas.denoiser import encode
from loracanvas.guidance import composite_loss
from loracanvas.pipeline import RunConfig, prepare
from loracanvas.reinit import initial_latent

EPS = 1e-6
TOLERANCE = 1e-5
SEEDS = range(20)
DIRECTIONS = 4
KINK_SEED, KINK_AT = 13, (0, 0, 6)


class LossProbe:
    """One seed's gradcheck loss, its gradient at the initial latent, and the
    selections each evaluation of the loss makes."""

    def __init__(self, seed: int, tmp_path, monkeypatch):
        paths = make_toy_assets(tmp_path / f"seed{seed}", seed=seed)
        self.config = RunConfig.from_json(paths["gradcheck.json"])
        self.ctx, schedule = prepare(self.config)
        self.t = schedule.steps
        self.z0 = initial_latent(self.config.seed, self.ctx.dims)
        self.picks: list[np.ndarray] = []
        monkeypatch.setattr(ad, "top_k", self._recording_top_k)
        traced = Tensor(self.z0, requires_grad=True)
        total, self.selections = self.loss(traced)
        self.value = float(total)
        self.gradient = grad(total, traced).data

    def _recording_top_k(self, flat: np.ndarray, k: int):
        kth, top = top_k(flat, k)
        self.picks.append(np.sort(top_k_picks(flat, kth, k)))
        return kth, top

    def loss(self, z: Tensor) -> tuple[Tensor, dict[str, list[np.ndarray]]]:
        """The loss at z, with every top_k pick set it made and each loss layer's
        first argmaxes at the box columns and rows, which the fill term reads."""
        self.picks = []
        geometry = self.ctx.loss_geometry
        _, record = encode(z, self.t, self.ctx)
        total, _ = composite_loss(record, geometry, self.config.guidance)
        fill = []
        for layer in record.loss_layers(geometry):
            m = layer.cross_maps.data
            fill += [a[ci] for a, ci in zip(m.argmax(axis=1), geometry.cols)]
            fill += [a[ri] for a, ri in zip(m.argmax(axis=2), geometry.rows)]
        return total, {"top_k": self.picks, "fill": fill}

    def along(self, v: np.ndarray, step: float) -> tuple[float, dict[str, list[np.ndarray]]]:
        total, selections = self.loss(Tensor(self.z0 + step * v))
        return float(total), selections


def changed_kinds(before: dict, after: dict) -> set[str]:
    return {kind for kind in before
            if len(before[kind]) != len(after[kind])
            or not all(np.array_equal(a, b) for a, b in zip(before[kind], after[kind]))}


def check_direction(probe: LossProbe, v: np.ndarray) -> tuple[float, set[tuple[str, str]]]:
    """The relative error of the central difference along v against the tape,
    and the (side, kind) selections that change within ±eps. Beyond
    TOLERANCE, a selection must change, and the one-sided difference of each
    side without a change must agree with the tape."""
    taped = float(np.vdot(probe.gradient, v))
    (f_plus, at_plus), (f_minus, at_minus) = probe.along(v, EPS), probe.along(v, -EPS)
    error = max_relative_error(taped, (f_plus - f_minus) / (2.0 * EPS))
    changed = {(side, kind) for side, after in (("+", at_plus), ("-", at_minus))
               for kind in changed_kinds(probe.selections, after)}
    if error <= TOLERANCE:
        return error, changed
    assert changed, f"derivatives differ by {error:.3e} with no selection changing within ±eps"
    one_sided = {"+": (f_plus - probe.value) / EPS, "-": (probe.value - f_minus) / EPS}
    smooth = [side for side in one_sided if side not in {s for s, _ in changed}]
    assert smooth, f"derivatives differ by {error:.3e}; selections change on both sides"
    for side in smooth:
        side_error = max_relative_error(taped, one_sided[side])
        assert side_error < TOLERANCE, (
            f"the {side}eps one-sided difference, where no selection changes, differs "
            f"from the tape by {side_error:.3e}")
    return error, changed


@pytest.mark.parametrize("seed", SEEDS)
def test_taped_directional_derivatives_match_central_differences(seed, tmp_path, monkeypatch):
    probe = LossProbe(seed, tmp_path, monkeypatch)
    rng = np.random.default_rng(seed)
    for _ in range(DIRECTIONS):
        v = rng.standard_normal(probe.z0.shape)
        check_direction(probe, v / np.linalg.norm(v))


def test_seed_13_straddles_a_region_top_k_kink(tmp_path, monkeypatch):
    probe = LossProbe(KINK_SEED, tmp_path, monkeypatch)
    v = np.zeros(probe.z0.shape)
    v[KINK_AT] = 1.0
    error, changed = check_direction(probe, v)
    # the kink is what makes gradcheck print FAIL on this seed
    assert error > TOLERANCE
    assert changed == {("-", "top_k")}

"""Property tests for facts the kernels, geometry and losses rely on.

Hypothesis runs derandomized, so every run checks the same examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loracanvas import autodiff as ad
from loracanvas.attention import (
    AttnRecord,
    LayerRecord,
    LayoutCondition,
    RegionGeometry,
    RegionSpec,
    rasterize_mask,
)
from loracanvas.autodiff import Tensor, grad
from loracanvas.errors import EmptyMaskError
from loracanvas.guidance import GuidanceConfig, composite_loss

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

finite = st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)


# ------------------------------------------------------------------ softmax


@st.composite
def logits_and_cotangent(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    return (draw(arrays(np.float64, shape, elements=finite)),
            draw(arrays(np.float64, shape, elements=finite)))


@PROPERTY
@given(logits_and_cotangent())
def test_masked_softmax_all_true_is_softmax_bit_for_bit(case):
    x, cotangent = case
    outputs, grads = [], []
    for kernel in (ad.softmax_rows,
                   lambda t: ad.masked_softmax_rows(t, np.ones(x.shape, dtype=bool))):
        xt = Tensor(x, requires_grad=True)
        y = kernel(xt)
        outputs.append(y.data.tobytes())
        grads.append(grad(ad.mean_all(y * Tensor(cotangent)), xt).data.tobytes())
    assert outputs[0] == outputs[1]
    assert grads[0] == grads[1]


# ------------------------------------------------------------------ geometry


@st.composite
def box_on(draw, width: int, height: int):
    """Random box; edges may sit on pixel boundaries or centers, or span one pixel."""

    def edges(n: int):
        kind = draw(st.sampled_from(("free", "grid", "center", "one_pixel")))
        if kind == "free":
            a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                                        unique=True)))
            return a, b
        if kind == "grid":
            i0 = draw(st.integers(0, n - 1))
            return i0 / n, draw(st.integers(i0 + 1, n)) / n
        if kind == "center":
            i0 = draw(st.integers(0, n - 2))
            return (i0 + 0.5) / n, (draw(st.integers(i0 + 1, n - 1)) + 0.5) / n
        i0 = draw(st.integers(0, n - 1))
        return i0 / n, (i0 + 1) / n

    # boundaries of either resolution: full extent or the pooled half
    x0, x1 = edges(draw(st.sampled_from((width, width // 2))))
    y0, y1 = edges(draw(st.sampled_from((height, height // 2))))
    return x0, y0, x1, y1


@st.composite
def layouts(draw):
    height, width = draw(st.sampled_from(((4, 4), (8, 8), (6, 10), (16, 16))))
    boxes = draw(st.lists(box_on(width, height), min_size=1, max_size=4))
    regions = tuple(RegionSpec(box, f"c{i}") for i, box in enumerate(boxes))
    layout = LayoutCondition(regions=regions, global_prompt_embed=np.zeros((2, 4)))
    return layout, height, width


# pixel 0 sits on the left and top edges: its weight is exp(-1), the in-box minimum
CORNER_AT_EDGE = LayoutCondition(
    regions=(RegionSpec((0.5 / 16, 0.5 / 16, 8.5 / 16, 8.5 / 16), "c0"),),
    global_prompt_embed=np.zeros((2, 4)))


@PROPERTY
@given(layouts())
@example((CORNER_AT_EDGE, 16, 16))
def test_geometry_masks_equal_rasterized_boxes(case):
    layout, height, width = case
    for h, w in ((height, width), (height // 2, width // 2)):
        try:
            expected = {r.concept_id: rasterize_mask(r.box, h, w) for r in layout.regions}
        except EmptyMaskError:
            with pytest.raises(EmptyMaskError):
                RegionGeometry.build(layout, h, w)
            continue
        geometry = RegionGeometry.build(layout, h, w)
        assert geometry.masks.keys() == expected.keys()
        for cid, mask in expected.items():
            assert geometry.masks[cid].dtype == mask.dtype
            assert np.array_equal(geometry.masks[cid], mask)
            assert np.array_equal(geometry.gaussians[cid] > 0, mask > 0)


# ------------------------------------------------------------------ losses

H = W = 4
N = H * W
TWO_CONCEPTS = LayoutCondition(
    regions=(RegionSpec((0.0, 0.0, 0.5, 0.5), "a"),
             RegionSpec((0.25, 0.5, 1.0, 1.0), "b")),
    global_prompt_embed=np.zeros((2, 4)))
unit = st.floats(0.0, 1.0)
weight = st.floats(0.0, 5.0)
ratio = st.floats(0.01, 1.0)


@PROPERTY
@given(cross_a=arrays(np.float64, (H, W), elements=unit),
       cross_b=arrays(np.float64, (H, W), elements=unit),
       self_map=arrays(np.float64, (N, N), elements=unit),
       alpha=weight, beta=weight, s_ratio=ratio, p_ratio=ratio)
def test_breakdown_total_is_weighted_sum_bit_for_bit(cross_a, cross_b, self_map,
                                                     alpha, beta, s_ratio, p_ratio):
    geometry = RegionGeometry.build(TWO_CONCEPTS, H, W)
    layer = LayerRecord(resolution=(H, W),
                        cross_maps={"a": Tensor(cross_a), "b": Tensor(cross_b)},
                        self_map=Tensor(self_map))
    config = GuidanceConfig(alpha=alpha, beta=beta, s_ratio=s_ratio, p_ratio=p_ratio)
    total, bd = composite_loss(AttnRecord(layers=[layer]), geometry, config)
    assert bd.total == bd.l_ce + alpha * bd.l_fill + beta * bd.l_region
    assert float(total) == bd.total

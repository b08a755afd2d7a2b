"""Property tests for facts the kernels, geometry and losses rely on.

Hypothesis runs derandomized, so every run checks the same examples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loracanvas import autodiff as ad
from loracanvas import tensorio
from loracanvas.attention import (
    AttnRecord,
    LayerRecord,
    LayoutCondition,
    RegionGeometry,
    RegionSpec,
    gaussian_weight,
    rasterize_mask,
)
from loracanvas.autodiff import Tensor, finite_difference_gradient, grad
from loracanvas.errors import DataError, EmptyMaskError, FormatError
from loracanvas.guidance import GuidanceConfig, composite_loss

PROPERTY = settings(max_examples=60)

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
        grads.append(grad(ad.mean_all(ad.mul(y, Tensor(cotangent))), xt).data.tobytes())
    assert outputs[0] == outputs[1]
    assert grads[0] == grads[1]


# ------------------------------------------------------------------ attention

small = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def attention_cases(draw):
    """q, k, v, the output projection wo, heads, an optional key mask (every row
    keeps a key) and cotangents."""
    n_heads = draw(st.sampled_from((1, 2, 4)))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    d, d_out = n_heads * draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q, k, v, wo = (draw(arrays(np.float64, shape, elements=small))
                   for shape in ((n, d), (m, d), (m, d), (d, d_out)))
    allowed = None
    if draw(st.booleans()):
        allowed = draw(arrays(np.bool_, (n, m)))
        allowed[np.arange(n), draw(arrays(np.int64, n, elements=st.integers(0, m - 1)))] = True
    cot_hidden = draw(arrays(np.float64, (n, d_out), elements=small))
    cot_map = draw(arrays(np.float64, (n, m), elements=small))
    return q, k, v, wo, n_heads, allowed, cot_hidden, cot_map


def per_head_chain(q, k, v, wo, n_heads, allowed):
    """Attention as one 2-D kernel chain per head, joined, projected and averaged."""
    dh = q.shape[1] // n_heads
    scale = math.sqrt(dh)
    outs, maps = [], []
    for h in range(n_heads):
        qh = ad.slice_cols(q, h * dh, (h + 1) * dh)
        kh = ad.slice_cols(k, h * dh, (h + 1) * dh)
        vh = ad.slice_cols(v, h * dh, (h + 1) * dh)
        logits = ad.div_scalar(ad.matmul(qh, ad.transpose2d(kh)), scale)
        if allowed is None:
            attn = ad.softmax_rows(logits)
        else:
            attn = ad.masked_softmax_rows(logits, allowed)
        maps.append(attn)
        outs.append(ad.matmul(attn, vh))
    avg = maps[0]
    for amap in maps[1:]:
        avg = avg + amap
    if n_heads > 1:
        avg = ad.div_scalar(avg, float(n_heads))
    return maps, ad.matmul(ad.concat(outs, axis=1), wo), avg


def blocked(allowed):
    return None if allowed is None else ad.checked_block(~allowed)


def batched_kernels(q, k, v, wo, n_heads, allowed):
    probs = ad.attention_probs(q, k, n_heads, blocked(allowed))
    return probs, ad.apply_heads(probs, v, wo), ad.mean_heads(probs)


def attention_loss(impl, q, k, v, wo, n_heads, allowed, cot_hidden, cot_map):
    _, hidden, avg = impl(q, k, v, wo, n_heads, allowed)
    return (ad.mean_all(ad.mul(hidden, Tensor(cot_hidden)))
            + ad.mean_all(ad.mul(avg, Tensor(cot_map))))


@PROPERTY
@given(attention_cases())
def test_batched_attention_kernels_equal_per_head_chain_bit_for_bit(case):
    q, k, v, wo, n_heads, allowed, cot_hidden, cot_map = case
    operands = (q, k, v, wo)
    maps, hidden, avg = per_head_chain(*map(Tensor, operands), n_heads, allowed)
    probs, hidden_b, avg_b = batched_kernels(*map(Tensor, operands), n_heads, allowed)
    assert probs.shape == (n_heads,) + maps[0].shape
    for h, amap in enumerate(maps):
        assert probs.data[h].tobytes() == amap.data.tobytes()
    assert hidden_b.data.tobytes() == hidden.data.tobytes()
    assert avg_b.data.tobytes() == avg.data.tobytes()

    for wrt in range(4):
        grads = []
        for impl in (per_head_chain, batched_kernels):
            inputs = [Tensor(x, requires_grad=(i == wrt)) for i, x in enumerate(operands)]
            loss = attention_loss(impl, *inputs, n_heads, allowed, cot_hidden, cot_map)
            grads.append(grad(loss, inputs[wrt]).data)
        assert grads[1].tobytes() == grads[0].tobytes()

        def loss_of(x, wrt=wrt):
            inputs = [Tensor(a) for a in operands]
            inputs[wrt] = x
            return attention_loss(batched_kernels, *inputs, n_heads, allowed,
                                  cot_hidden, cot_map)

        # relative to the gradient's size, absolute where it is below 1
        numeric = finite_difference_gradient(loss_of, Tensor(operands[wrt])).data
        assert np.abs(grads[1] - numeric).max() < 1e-6 * max(1.0, np.abs(numeric).max())

    # one (n, d) query shared by every leading slice of the keys attends as its
    # broadcast copy does, and its cotangent is the copies' summed in order
    keys = Tensor(np.stack([k, v, -k]))
    results = []
    for query in (q, np.broadcast_to(q, (3,) + q.shape)):
        traced = Tensor(query, requires_grad=True)
        probs = ad.attention_probs(traced, keys, n_heads, blocked(allowed))
        loss = ad.mean_all(ad.mul(probs, Tensor(np.broadcast_to(cot_map, probs.shape))))
        results.append((probs.data, grad(loss, traced).data))
    (shared, cotangent), (copied, copies) = results
    assert shared.tobytes() == copied.tobytes()
    assert cotangent.shape == q.shape
    assert cotangent.tobytes() == copies.sum(axis=0).tobytes()


def vjp_leaves_cotangent_alone(node: Tensor, cotangent: np.ndarray) -> tuple:
    """Handed a read-only g, the node's VJP leaves it alone and does not depend
    on an earlier call; handed a writable C-order copy, it returns the same bits.
    Returns the first call's cotangents and the copy, as its call left it."""
    g = np.array(cotangent)
    g.flags.writeable = False
    first = node._vjp(g)
    second = node._vjp(g)
    assert g.tobytes() == cotangent.tobytes()
    writable = np.array(cotangent, order="C")
    third = node._vjp(writable)
    for a, b, c in zip(first, second, third):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    return first, writable


@PROPERTY
@given(attention_cases(), st.booleans())
def test_softmax_kernel_vjps_leave_their_cotangent_alone(case, masked):
    q, k, _, _, n_heads, allowed, _, cot_map = case
    probs = ad.attention_probs(Tensor(q, requires_grad=True),
                               Tensor(k, requires_grad=True), n_heads, blocked(allowed))
    g = np.broadcast_to(cot_map, probs.shape)
    _, written = vjp_leaves_cotangent_alone(probs, g)
    # the writable cotangent is overwritten with the logits' cotangent
    y = probs.data
    logits_cotangent = (g - (g * y).sum(axis=-1, keepdims=True)) * y / math.sqrt(
        q.shape[-1] // n_heads)
    assert written.tobytes() == logits_cotangent.tobytes()
    logits = Tensor(probs.data[0], requires_grad=True)
    if masked and allowed is not None:
        y = ad.masked_softmax_rows(logits, allowed)
    else:
        y = ad.softmax_rows(logits)
    # ... and with the logits' cotangent, which the softmax returns
    (returned,), written = vjp_leaves_cotangent_alone(y, cot_map)
    assert written.tobytes() == returned.tobytes()


# ------------------------------------------------------------------ sums
#
# The fused nodes (mean_heads, compose_hidden, the concept maps of
# region_cross_maps, the guidance terms' layer mean) sum with one numpy
# reduction where their chains add slice after slice. These tests pin the
# platform rule that makes the two equal (autodiff's module docstring), so a
# numpy that reorders these reductions fails here by name.


def summed_terms(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Terms over 16 decades of magnitude, a tenth of them +0.0 and a tenth -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


def negative_zero_positions(rng: np.random.Generator, x: np.ndarray, axis: int) -> np.ndarray:
    """x with about a tenth of its positions along the axis -0.0 in every term."""
    np.moveaxis(x, axis, 0)[:, rng.random(np.delete(x.shape, axis)) < 0.1] = -0.0
    return x


def assert_sum_is_the_ordered_chain(x: np.ndarray, axis: int) -> None:
    """x.sum(axis) equals ``x[0] + x[1] + ...`` along the axis bit for bit,
    except at a position whose every term is -0.0: the sum gives +0.0 there."""
    slices = np.moveaxis(x, axis, 0)
    chain = slices[0].copy()
    for part in slices[1:]:
        chain += part
    negative_zeros = ((slices == 0) & np.signbit(slices)).all(axis=0)
    assert np.signbit(chain[negative_zeros]).all()
    chain[negative_zeros] = 0.0
    assert x.sum(axis=axis).tobytes() == chain.tobytes()


@st.composite
def summed_stacks(draw):
    """A stack and the axis summed, laid out as a fused node sums it."""
    count, n, d = draw(st.integers(1, 12)), draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("concepts", "branch heads", "head mean", "layers")))
    if kind == "concepts":  # compose_hidden: each concept's (h*w, d) part
        x, axis = summed_terms(rng, (count, n, d)), 0
    elif kind == "branch heads":  # region_cross_maps: each branch's token column, per head
        tokens = rng.integers(0, 3, n)
        x, axis = summed_terms(rng, (n, count, d, 3))[np.arange(n), :, :, tokens], 1
    elif kind == "head mean":  # mean_heads over (..., heads, n, m)
        x, axis = summed_terms(rng, (2,) * draw(st.integers(0, 2)) + (count, n, d)), -3
    else:  # the terms' layer mean: fewer than 8 layers, one entry per concept or more
        x, axis = summed_terms(rng, (draw(st.integers(1, 7)), draw(st.integers(1, 4)))), 0
    return negative_zero_positions(rng, x, axis), axis


@settings(max_examples=200)
@given(summed_stacks())
def test_numpy_sums_slices_in_order_bit_for_bit(case):
    assert_sum_is_the_ordered_chain(*case)


@pytest.mark.parametrize("shape, axis", [
    ((2, 256, 256), -3),   # the reference run's self-attention head mean
    ((2, 1024, 1024), -3),  # unguided32's
    ((4, 256, 16), 0),     # crowd's compose_hidden
    ((4, 2, 256), 1),      # crowd's concept maps
])
def test_numpy_sums_pipeline_sized_stacks_in_order(shape, axis):
    rng = np.random.default_rng(shape[-1])
    x = negative_zero_positions(rng, summed_terms(rng, shape), axis)
    assert ((x == 0) & np.signbit(x)).all(axis=axis).any()
    assert_sum_is_the_ordered_chain(x, axis)


# ------------------------------------------------------------------ top-k

tie_heavy = st.one_of(st.integers(-3, 3).map(float), st.sampled_from((0.0, -0.0)), finite)


@st.composite
def topk_cases(draw):
    shape = draw(st.sampled_from(((1,), (7,), (40,), (3, 4), (6, 9))))
    x = draw(arrays(np.float64, shape, elements=tie_heavy))
    size = int(np.prod(shape))
    k = draw(st.one_of(st.just(1), st.just(size), st.integers(1, size)))
    return x, k


@settings(max_examples=300)
@given(topk_cases())
@example((np.array([0.0, -0.0, 0.0, -0.0, -0.0]), 3))
@example((np.array([[-0.0, -0.0], [-0.0, -0.0]]), 4))
@example((np.array([2.0, 1.0, 2.0, 1.0, 2.0, 1.0]), 4))
def test_topk_mean_equals_stable_argsort_bit_for_bit(case):
    x, k = case
    flat = x.reshape(-1)
    idx = np.argsort(-flat, kind="stable")[:k]
    expected_grad = np.zeros(flat.size)
    expected_grad[idx] = 1.0 / k
    xt = Tensor(x, requires_grad=True)
    value = ad.topk_mean(xt, k)
    assert value.data.tobytes() == np.asarray(flat[idx].mean()).tobytes()
    assert grad(value, xt).data.tobytes() == expected_grad.reshape(x.shape).tobytes()


def pre_split_top_k(flat: np.ndarray, k: int) -> tuple[np.ndarray, np.float64]:
    """``top_k`` as it was before picks moved into the VJP: the picks made in
    the forward from the partition's k-th value, then their mean."""
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    above = np.flatnonzero(flat > kth)
    idx = np.concatenate([above, np.flatnonzero(flat == kth)[:k - above.size]])
    return idx, np.ascontiguousarray(np.sort(flat[idx])[::-1]).mean()


@settings(max_examples=300)
@given(topk_cases())
@example((np.array([0.0, -0.0, 0.0, -0.0, -0.0]), 3))
@example((np.array([-0.0, -1.0, 0.0, -0.0] * 5), 7))
@example((np.array([2.0, 1.0, 2.0, 1.0, 2.0, 1.0]), 4))
def test_top_k_picks_from_its_kth_value_equal_the_pre_split_rule(case):
    # the value needs no picks: where the tie rule and the partition keep
    # different zeros, the mean still has the same bits
    x, k = case
    flat = x.reshape(-1)
    idx, mean = pre_split_top_k(flat, k)
    kth, top = ad.top_k(flat, k)
    assert ad.top_k_picks(flat, kth, k).tolist() == idx.tolist()
    assert np.asarray(top).tobytes() == np.asarray(mean).tobytes()


# ------------------------------------------------------------------ selection

SELECTIONS = ("take", "take2d", "column", "slice_cols", "axis_max_project")
tied_grid = st.integers(-3, 3).map(float)
# one apart, so no argmax changes within a finite-difference step
spaced = st.integers(-50, 50).map(float)


@st.composite
def selection_cases(draw, kind: str, unique: bool):
    """An input, the selection kernel applied to it and the numpy index it gathers."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shape = (rows * cols,) if kind == "take" else (rows, cols)
    x = draw(arrays(np.float64, shape, elements=spaced if unique else tied_grid,
                    unique=unique))

    def distinct(n: int) -> list[int]:
        return draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))

    if kind == "take":
        idx = distinct(x.size)
        return x, lambda t: ad.take(t, idx), np.asarray(idx)
    if kind == "take2d":
        r, c = distinct(rows), distinct(cols)
        return x, lambda t: ad.take2d(t, r, c), np.ix_(r, c)
    if kind == "column":
        j = draw(st.integers(0, cols - 1))
        return x, lambda t: ad.column(t, j), (slice(None), j)
    if kind == "slice_cols":
        start = draw(st.integers(0, cols - 1))
        stop = draw(st.integers(start + 1, cols))
        return x, lambda t: ad.slice_cols(t, start, stop), (slice(None), slice(start, stop))
    if draw(st.booleans()):
        return (x, lambda t: ad.axis_max_project(t, "rows"),
                (x.argmax(axis=0), np.arange(cols)))
    return (x, lambda t: ad.axis_max_project(t, "cols"),
            (np.arange(rows), x.argmax(axis=1)))


@pytest.mark.parametrize("kind", SELECTIONS)
@PROPERTY
@given(data=st.data())
def test_selection_kernels_gather_and_scatter_like_numpy(kind, data):
    x, kernel, index = data.draw(selection_cases(kind, unique=False))
    xt = Tensor(x, requires_grad=True)
    y = kernel(xt)
    assert y.op == kind
    assert y.data.tobytes() == np.ascontiguousarray(x[index]).tobytes()
    loss = ad.mean_all(ad.mul(y, Tensor(data.draw(arrays(np.float64, y.shape, elements=small)))))
    expected = np.zeros(x.shape)
    np.add.at(expected, index, grad(loss, y).data)
    # add.at lands a -0.0 cotangent as 0.0 + -0.0 = 0.0, assignment keeps
    # its sign; adding 0.0 clears that sign and changes no other bit
    assert (grad(loss, xt).data + 0.0).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", SELECTIONS)
@PROPERTY
@given(data=st.data())
def test_selection_kernel_vjps_match_finite_differences(kind, data):
    x, kernel, _ = data.draw(selection_cases(kind, unique=True))
    cotangent = Tensor(data.draw(arrays(np.float64, kernel(Tensor(x)).shape, elements=small)))

    def loss_of(t):
        return ad.mean_all(ad.mul(kernel(t), cotangent))

    xt = Tensor(x, requires_grad=True)
    analytic = grad(loss_of(xt), xt).data
    numeric = finite_difference_gradient(loss_of, Tensor(x)).data
    assert np.abs(analytic - numeric).max() < 1e-6 * max(1.0, np.abs(numeric).max())


# ------------------------------------------------------------------ data movement

# every finite float64, the extremes included
any_finite = st.floats(allow_nan=False, allow_infinity=False)
MOVEMENTS = ("transpose2d", "reshape", "take", "take2d", "column", "slice_cols",
             "axis_max_project", "concat", "upsample_nearest_2x")


@st.composite
def movement_cases(draw):
    """A finite input and one data-movement kernel applied to it."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    x = Tensor(draw(arrays(np.float64, (2 * rows, 2 * cols), elements=any_finite)))

    def distinct(n: int) -> list[int]:
        return draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))

    kind = draw(st.sampled_from(MOVEMENTS))
    if kind == "transpose2d":
        return x, ad.transpose2d
    if kind == "reshape":
        return x, lambda t: ad.reshape(t, (t.size,))
    if kind == "take":
        idx = distinct(x.size)
        return x, lambda t: ad.take(ad.reshape(t, (t.size,)), idx)
    if kind == "take2d":
        r, c = distinct(2 * rows), distinct(2 * cols)
        return x, lambda t: ad.take2d(t, r, c)
    if kind == "column":
        return x, lambda t: ad.column(t, cols)
    if kind == "slice_cols":
        return x, lambda t: ad.slice_cols(t, 1, 2 * cols)
    if kind == "axis_max_project":
        axis = draw(st.sampled_from(("rows", "cols")))
        return x, lambda t: ad.axis_max_project(t, axis)
    if kind == "concat":
        flipped, axis = list(range(2 * rows))[::-1], draw(st.integers(0, 1))
        return x, lambda t: ad.concat([t, ad.take2d(t, flipped, range(2 * cols))], axis=axis)
    return x, lambda t: ad.upsample_nearest_2x(t, rows, 2)


@PROPERTY
@given(movement_cases())
def test_data_movement_kernels_keep_finite_tensors_finite(case):
    # these kernels skip the finite scan; this is the invariant that allows it
    x, kernel = case
    assert np.isfinite(kernel(x).data).all()


# ------------------------------------------------------------------ kernel VJPs


def assert_vjp_matches_finite_differences(kernel, inputs, cotangent):
    """Each input's taped gradient of <kernel(inputs), cotangent> against central
    differences; every other input is held constant."""
    for i, x in enumerate(inputs):
        def loss_of(t, i=i):
            args = [Tensor(a) for a in inputs]
            args[i] = t
            return ad.mean_all(ad.mul(kernel(*args), Tensor(cotangent)))

        xt = Tensor(x, requires_grad=True)
        analytic = grad(loss_of(xt), xt).data
        numeric = finite_difference_gradient(loss_of, Tensor(x)).data
        assert np.abs(analytic - numeric).max() < 1e-6 * max(1.0, np.abs(numeric).max())


@st.composite
def layernorm_cases(draw):
    shape = (draw(st.integers(1, 5)), draw(st.integers(2, 6)))
    return (draw(arrays(np.float64, shape, elements=small)),
            draw(arrays(np.float64, shape, elements=small)))


@PROPERTY
@given(layernorm_cases())
def test_layernorm_rows_vjp_matches_finite_differences(case):
    x, cotangent = case
    assert_vjp_matches_finite_differences(ad.layernorm_rows, [x], cotangent)


@PROPERTY
@given(data=st.data())
def test_topk_mean_vjp_matches_finite_differences(data):
    shape = data.draw(st.sampled_from(((1,), (7,), (3, 4), (5, 5))))
    # distinct entries one apart, so no winner changes within a step
    x = data.draw(arrays(np.float64, shape, elements=spaced, unique=True))
    k = data.draw(st.integers(1, x.size))
    assert_vjp_matches_finite_differences(lambda t: ad.topk_mean(t, k), [x],
                                          np.asarray(data.draw(small)))


@PROPERTY
@given(data=st.data())
def test_spatial_kernel_vjps_match_finite_differences(data):
    h, w = 2 * data.draw(st.integers(1, 3)), 2 * data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        kernel, x_shape, out_shape = (lambda t: ad.avg_pool_2x2(t, h, w),
                                      (h * w, d), (h * w // 4, d))
    else:
        kernel, x_shape, out_shape = (lambda t: ad.upsample_nearest_2x(t, h // 2, w // 2),
                                      (h * w // 4, d), (h * w, d))
    x = data.draw(arrays(np.float64, x_shape, elements=small))
    cotangent = data.draw(arrays(np.float64, out_shape, elements=small))
    assert_vjp_matches_finite_differences(kernel, [x], cotangent)


@PROPERTY
@given(data=st.data())
def test_concat_vjp_matches_finite_differences(data):
    axis = data.draw(st.integers(0, 1))
    other = data.draw(st.integers(1, 4))
    parts = []
    for _ in range(data.draw(st.integers(1, 3))):
        shape = [other, other]
        shape[axis] = data.draw(st.integers(1, 4))
        parts.append(data.draw(arrays(np.float64, tuple(shape), elements=small)))
    joined = np.concatenate(parts, axis=axis)
    cotangent = data.draw(arrays(np.float64, joined.shape, elements=small))
    assert_vjp_matches_finite_differences(lambda *ts: ad.concat(ts, axis=axis), parts,
                                          cotangent)


# operand shapes as the pipeline broadcasts them: a row mask, a column
# weight, a channel bias, a scalar, and equal shapes
BROADCASTS = (((4, 3), (4, 1)), ((4, 3), (3,)), ((4, 3), ()), ((1, 3), (4, 1)),
              ((4, 3), (4, 3)))


@pytest.mark.parametrize("op", ["mul", "add"])
@PROPERTY
@given(data=st.data())
def test_broadcasting_vjps_match_finite_differences(op, data):
    a_shape, b_shape = data.draw(st.sampled_from(BROADCASTS))
    if data.draw(st.booleans()):
        a_shape, b_shape = b_shape, a_shape
    a = data.draw(arrays(np.float64, a_shape, elements=small))
    b = data.draw(arrays(np.float64, b_shape, elements=small))
    cotangent = data.draw(arrays(np.float64, np.broadcast_shapes(a_shape, b_shape),
                                 elements=small))
    assert_vjp_matches_finite_differences(getattr(ad, op), [a, b], cotangent)


# ------------------------------------------------------------------ container


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A scratch directory and the bytes of a valid three-tensor container."""
    directory = tmp_path_factory.mktemp("container")
    path = directory / "valid.lcb"
    tensorio.write_container(path, {"prompt_embed": np.arange(6.0).reshape(2, 3),
                                    "scale": np.array(0.5), "grüße": np.ones(2)})
    return directory, path.read_bytes()


def read_raw(directory, raw: bytes) -> dict[str, np.ndarray]:
    path = directory / "probe.lcb"
    path.write_bytes(raw)
    return tensorio.read_container(path)


def test_truncated_container_raises_only_named_errors(container):
    directory, raw = container
    for cut in range(len(raw)):
        with pytest.raises((FormatError, DataError)):
            read_raw(directory, raw[:cut])


@settings(max_examples=500)
@given(edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_corrupted_container_reads_or_raises_only_named_errors(container, edits):
    directory, raw = container
    corrupted = bytearray(raw)
    for offset, value in edits:
        corrupted[offset % len(raw)] = value
    try:
        read_raw(directory, bytes(corrupted))
    except (FormatError, DataError):
        pass


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
NO_REGIONS = LayoutCondition(regions=(), global_prompt_embed=np.zeros((2, 4)))


@PROPERTY
@given(layouts())
@example((CORNER_AT_EDGE, 16, 16))
@example((NO_REGIONS, 8, 6))
def test_geometry_masks_equal_rasterized_boxes(case):
    layout, height, width = case
    for h, w in ((height, width), (height // 2, width // 2)):
        try:
            expected = [rasterize_mask(r.box, h, w) for r in layout.regions]
        except EmptyMaskError:
            with pytest.raises(EmptyMaskError):
                RegionGeometry.build(layout, h, w)
            continue
        geometry = RegionGeometry.build(layout, h, w)
        masks = geometry.masks
        assert masks.dtype == np.float64 and masks.shape == (len(layout.regions), h, w)
        assert not masks.flags.writeable
        for i, mask in enumerate(expected):
            assert np.array_equal(masks[i], mask)
        if not layout.regions:
            assert geometry.blocked_self is None
        # every per-concept constant holds one entry per region, none without regions
        for constant in (geometry.rows, geometry.cols, geometry.area, geometry.cells,
                         geometry.share, geometry.weight):
            assert len(constant) == len(layout.regions)
        shares = np.zeros(h * w)
        for i, (region, mask) in enumerate(zip(layout.regions, expected)):
            flat = mask.reshape(-1)
            # in-box rows by out-of-box columns of an (h*w, h*w) map, row-major
            assert np.array_equal(geometry.cells[i], np.flatnonzero(np.outer(flat, flat == 0)))
            assert np.array_equal(geometry.rows[i], np.flatnonzero(mask.any(axis=1)))
            assert np.array_equal(geometry.cols[i], np.flatnonzero(mask.any(axis=0)))
            assert geometry.area[i] == flat.sum()
            assert np.array_equal(geometry.weight[i], gaussian_weight(region.box, h, w))
            assert np.array_equal(geometry.weight[i] > 0, mask > 0)
            shares += geometry.share[i, :, 0]
        for constant in (geometry.share, geometry.weight, geometry.background):
            # no kernel takes one as a parent, so none is a Tensor
            assert type(constant) is np.ndarray and constant.dtype == np.float64
            assert not constant.flags.writeable
        assert geometry.share.shape == (len(layout.regions), h * w, 1)
        assert geometry.weight.shape == (len(layout.regions), h, w)
        background = geometry.background[:, 0]
        assert np.max(np.abs(background + shares - 1.0)) <= 1e-15
        uncovered = sum((m.reshape(-1) for m in expected), np.zeros(h * w)) == 0
        assert np.array_equal(background == 1.0, uncovered)
        assert np.all(background[~uncovered] == 0.0)


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
                        cross_maps=Tensor(np.stack([cross_a, cross_b])),
                        self_probs=Tensor(self_map[None]))
    config = GuidanceConfig(alpha=alpha, beta=beta, s_ratio=s_ratio, p_ratio=p_ratio)
    total, bd = composite_loss(AttnRecord(layers=[layer]), geometry, config)
    assert bd.total == bd.l_ce + alpha * bd.l_fill + beta * bd.l_region
    assert float(total) == bd.total

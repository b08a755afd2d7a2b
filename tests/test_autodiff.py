from __future__ import annotations

import ctypes
import functools
import inspect
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from loracanvas import autodiff as ad
from loracanvas.autodiff import (
    Tensor,
    axis_max_project,
    finite_difference_gradient,
    grad,
    matmul,
    max_relative_error,
    softmax_rows,
    topk_mean,
)
from loracanvas.attention import (
    AttnRecord,
    LayerRecord,
    LayoutCondition,
    RegionGeometry,
    RegionSpec,
    compose_hidden,
    region_cross_maps,
)
from loracanvas.errors import ArgumentError, LineageError, NumericError, ShapeError
from loracanvas.guidance import (
    GuidanceConfig,
    composite_loss,
    concept_enhancement_terms,
    fill_terms,
    region_terms,
)

from conftest import build_test_context


# ---------------------------------------------------------------- oracles


def sum_of(x: Tensor) -> Tensor:
    """Traced sum of all entries; its gradient is exactly one everywhere."""
    return ad.mul(ad.mean_all(x), Tensor(float(x.size)))


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def topk_mean_oracle(x: np.ndarray, k: int) -> float:
    pairs = sorted(((-v, i) for i, v in enumerate(x.reshape(-1))))
    chosen = [-v for v, _ in pairs[:k]]
    return float(np.mean(chosen))


def axis_max_oracle(x: np.ndarray, axis: str) -> np.ndarray:
    h, w = x.shape
    if axis == "rows":
        return np.array([max(x[i, j] for i in range(h)) for j in range(w)])
    return np.array([max(x[i, j] for j in range(w)) for i in range(h)])


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_hand_value():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal((5, 3))
    out = matmul(Tensor(a), Tensor(b))
    assert np.max(np.abs(out.data - matmul_oracle(a, b))) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 2))))


def ones(*shape: int) -> Tensor:
    return Tensor(np.ones(shape))


@pytest.mark.parametrize("call, match", [
    (lambda: float(ones(2)), "cannot convert shape"),
    (lambda: ad.add(ones(2, 3), ones(3, 2)), "add: "),
    (lambda: ad.mul(ones(2, 3), ones(3, 2)), "mul: "),
    (lambda: ad.transpose2d(ones(2, 2, 2)), "transpose2d expects a 2-D tensor"),
    (lambda: ad.reshape(ones(2, 3), (4, 2)), "cannot reshape"),
    (lambda: ad.attention_probs(ones(3, 4), ones(5, 4), 3), "width 4 not divisible by 3 heads"),
    (lambda: ad.attention_probs(ones(3, 4), ones(5, 6), 2), "cannot attend"),
    # a query with leading axes must match the keys'; only an (n, d) one is shared
    (lambda: ad.attention_probs(ones(2, 3, 4), ones(3, 5, 4), 2), "cannot attend"),
    (lambda: ad.attention_probs(ones(2, 3, 4), ones(5, 4), 2), "cannot attend"),
    (lambda: ad.attention_probs(ones(3, 4), ones(4), 2), "cannot attend"),
    (lambda: ad.apply_heads(ones(2, 3, 5), ones(4, 4), ones(4, 4)), "cannot apply"),
    (lambda: ad.mean_heads(ones(3, 3)), "mean_heads expects"),
    (lambda: ad.layernorm_rows(ones(2, 2, 2)), "layernorm_rows expects a 2-D tensor"),
    (lambda: ad.avg_pool_2x2(ones(15, 2), 4, 4), r"expected \(16, d\)"),
    (lambda: ad.avg_pool_2x2(ones(12, 2), 3, 4), "even extents"),
    (lambda: ad.upsample_nearest_2x(ones(5, 2), 2, 2), r"expected \(4, d\)"),
    (lambda: max_relative_error(np.ones(3), np.ones(4)), "cannot compare"),
], ids=["float_of_a_vector", "add", "mul", "transpose2d", "reshape", "heads_not_dividing",
        "attention_probs", "attention_probs_leading_axes", "attention_probs_unstacked_keys",
        "attention_probs_vector_keys", "apply_heads", "mean_heads", "layernorm_rows",
        "avg_pool_rows", "avg_pool_odd_extent", "upsample_rows", "max_relative_error"])
def test_kernels_reject_misshaped_operands(call, match):
    with pytest.raises(ShapeError, match=match):
        call()


def test_max_relative_error_of_two_zero_arrays_is_zero():
    assert max_relative_error(np.zeros(3), Tensor(np.zeros(3))) == 0.0


# ---------------------------------------------------------------- softmax


def test_softmax_uniform_on_zeros():
    out = softmax_rows(Tensor(np.zeros((2, 2))))
    assert np.array_equal(out.data, np.full((2, 2), 0.5))


def test_softmax_analytic_row():
    out = softmax_rows(Tensor([[np.log(2.0), 0.0]]))
    assert abs(out.data[0, 0] - 2.0 / 3.0) < 1e-15
    assert abs(out.data[0, 1] - 1.0 / 3.0) < 1e-15


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    out = softmax_rows(Tensor(rng.standard_normal((16, 8)) * 3.0))
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-12)


def test_softmax_row_stochastic_property_over_seeds():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-40.0, 40.0, size=(5, 7))
        out = softmax_rows(Tensor(x))
        assert np.all(out.data >= 0.0)
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-12)


def test_masked_softmax_zeroes_forbidden_and_renormalizes():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    allowed = rng.uniform(size=(4, 6)) > 0.4
    allowed[:, 0] = True
    out = ad.masked_softmax_rows(Tensor(x), allowed)
    assert np.all(out.data[~allowed] == 0.0)
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-12)


def test_masked_softmax_rejects_empty_row():
    with pytest.raises(ArgumentError):
        ad.masked_softmax_rows(Tensor(np.zeros((2, 2))), np.zeros((2, 2), dtype=bool))


def test_checked_block_makes_the_mask_read_only_and_rejects_a_closed_row():
    mask = np.array([[False, True, False], [True, False, True]])
    blocked = ad.checked_block(mask)
    assert blocked is mask and not blocked.flags.writeable
    with pytest.raises(ArgumentError, match="no permitted keys"):
        ad.checked_block(np.array([[False, True], [True, True]]))
    for bad in (np.zeros((2, 2, 2), dtype=bool), np.zeros((2, 2))):
        with pytest.raises(ShapeError):
            ad.checked_block(bad)


def test_attention_probs_zeroes_blocked_keys_and_rejects_other_masks():
    rng = np.random.default_rng(5)
    q, k = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((5, 4)))
    allowed = rng.uniform(size=(3, 5)) > 0.5
    allowed[:, 2] = True
    probs = ad.attention_probs(q, k, 2, ad.checked_block(~allowed))
    assert np.all(probs.data[:, ~allowed] == 0.0)
    assert np.all(np.abs(probs.data.sum(axis=-1) - 1.0) <= 1e-12)
    # a float mask, or one of the wrong shape, is no blocked-key mask
    for bad in (allowed.astype(np.float64), ad.checked_block(~allowed[:, :4])):
        with pytest.raises(ShapeError):
            ad.attention_probs(q, k, 2, bad)


BIG = 1e200  # a product of two overflows a float64


@pytest.mark.parametrize("key, blocked", [
    ([[BIG, BIG], [0.0, 0.0]], None),
    ([[-BIG, -BIG], [1.0, 1.0]], [[False, True]]),
    ([[BIG, -BIG], [0.0, 0.0]], None),
], ids=["inf_logit", "every_permitted_logit_minus_inf", "nan_logit"])
def test_attention_probs_rejects_a_row_whose_maximum_is_not_finite(key, blocked):
    # the second row of queries stays finite: the check reads each row's maximum
    q = Tensor([[BIG, BIG], [1.0, 1.0]])
    mask = None if blocked is None else ad.checked_block(np.array(blocked * 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="attention_probs"):
            ad.attention_probs(q, Tensor(key), 1, mask)


# ---------------------------------------------------------------- topk_mean


# ---------------------------------------------------------------- leading axes


def stacked_attention(q, k, v, wo):
    """Probabilities, their head mean, the token-1 column, and the projected output."""
    probs = ad.attention_probs(q, k, 2)
    columns = ad.column(ad.mean_heads(probs), np.ones(q.shape[:-2], dtype=np.intp))
    return probs, columns, ad.apply_heads(probs, v, wo)


def test_leading_axes_give_each_slice_the_bits_of_its_2d_call():
    # three concept branches against one 2-D call per branch: values and the
    # gradients of a loss that reads every output agree bit for bit
    rng = np.random.default_rng(8)
    q, k, v = (rng.standard_normal((3, rows, 4)) for rows in (6, 5, 5))
    wo, cot = Tensor(rng.standard_normal((4, 4))), rng.standard_normal((3, 6, 4))

    def loss(outputs, c=slice(None)):
        probs, columns, hidden = outputs
        return (sum_of(probs) + sum_of(ad.mul(columns, Tensor(cot[c, :, 0])))
                + sum_of(ad.mul(hidden, Tensor(cot[c]))))

    leaves = [Tensor(x, requires_grad=True) for x in (q, k, v)]
    stacked = stacked_attention(*leaves, wo)
    grads = [grad(loss(stacked), leaf).data for leaf in leaves]
    for c in range(3):
        mine = [Tensor(x[c], requires_grad=True) for x in (q, k, v)]
        alone = stacked_attention(*mine, wo)
        for s, a in zip(stacked, alone):
            assert s.data[c].tobytes() == a.data.tobytes()
        for g, leaf in zip(grads, mine):
            assert g[c].tobytes() == grad(loss(alone, c), leaf).data.tobytes()


def test_column_takes_one_index_per_leading_slice():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    picked = ad.column(x, [1, 3])
    assert picked.data.tolist() == [[1.0, 5.0, 9.0], [15.0, 19.0, 23.0]]
    expected = np.zeros((2, 3, 4))
    expected[0, :, 1] = expected[1, :, 3] = 1.0
    assert np.array_equal(grad(sum_of(picked), x).data, expected)
    for bad in ([1], [1, 4], [-1, 0], [0.0, 1.0]):
        with pytest.raises(ArgumentError):
            ad.column(x, bad)


def test_topk_mean_hand_value():
    out = topk_mean(Tensor([0.9, 0.5, 0.1]), 2)
    assert abs(float(out) - 0.7) < 1e-15


def test_topk_mean_full_k_is_mean():
    x = np.array([3.0, -1.0, 2.5, 0.0])
    assert float(topk_mean(Tensor(x), 4)) == pytest.approx(x.mean(), abs=1e-15)


def test_topk_mean_matches_sort_oracle():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(64)
    assert abs(float(topk_mean(Tensor(x), 13)) - topk_mean_oracle(x, 13)) < 1e-12


def test_topk_mean_k_out_of_range():
    with pytest.raises(ArgumentError):
        topk_mean(Tensor([1.0, 2.0]), 3)
    with pytest.raises(ArgumentError):
        topk_mean(Tensor([1.0, 2.0]), 0)


def test_topk_tie_selection_is_deterministic():
    x = Tensor([1.0, 2.0, 2.0, 2.0, 0.0])
    picks = []
    for _ in range(5):
        xt = Tensor(x.data, requires_grad=True)
        g = grad(topk_mean(xt, 2), xt)
        picks.append(g.data.copy())
    for p in picks[1:]:
        assert np.array_equal(p, picks[0])
    # ties broken by ascending index: elements 1 and 2 selected
    assert np.array_equal(picks[0], np.array([0.0, 0.5, 0.5, 0.0, 0.0]))


# ---------------------------------------------------------------- axis max


def test_axis_max_hand_value():
    out = axis_max_project(Tensor([[1.0, 2.0], [3.0, 4.0]]), "rows")
    assert out.data.tolist() == [3.0, 4.0]


def test_axis_max_constant_matrix():
    out = axis_max_project(Tensor(np.full((3, 5), 2.5)), "cols")
    assert np.array_equal(out.data, np.full(3, 2.5))


def test_axis_max_matches_loop_oracle():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((12, 10))
    for axis in ("rows", "cols"):
        out = axis_max_project(Tensor(x), axis)
        assert np.array_equal(out.data, axis_max_oracle(x, axis))


def test_axis_max_rejects_non_2d():
    with pytest.raises(ShapeError):
        axis_max_project(Tensor(np.zeros(4)), "rows")


def test_axis_max_tie_routing_deterministic():
    x = np.array([[1.0, 5.0], [1.0, 5.0]])
    for _ in range(3):
        xt = Tensor(x, requires_grad=True)
        g = grad(sum_of(axis_max_project(xt, "rows")), xt)
        # first argmax (row 0) receives the gradient
        assert np.array_equal(g.data, np.array([[1.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------- gathers


@pytest.mark.parametrize("indices, reason", [
    ([5], "out of range"), ([3], "out of range"), ([-1], "out of range"),
    ([0, 2, 0], "repeat"), ([1.7], "integers"),
    (np.array([2, 2]), "repeat"), (np.array([2, 0]) + 1, "out of range"),
], ids=["past_end", "at_end", "negative", "repeated", "fractional",
        "repeated_array", "shifted_array_past_end"])
def test_take_rejects_bad_indices(indices, reason):
    with pytest.raises(ArgumentError, match=reason):
        ad.take(Tensor([1.0, 2.0, 3.0]), indices)


@pytest.mark.parametrize("rows, cols, reason", [
    ([0], [7], "column index out of range"), ([2], [0], "row index out of range"),
    ([-1], [0], "row index out of range"), ([0], [-2], "column index out of range"),
    ([1, 1], [0], "row indices repeat"), ([0], [2, 0, 2], "column indices repeat"),
    ([0.5], [0], "row indices must be integers"),
], ids=["column_past_end", "row_at_end", "negative_row", "negative_column",
        "repeated_row", "repeated_column", "fractional_row"])
def test_take2d_rejects_bad_indices(rows, cols, reason):
    with pytest.raises(ArgumentError, match=reason):
        ad.take2d(Tensor(np.zeros((2, 3))), rows, cols)


# ---------------------------------------------------------------- grad basics


def test_grad_of_sum_of_squares():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    y = sum_of(ad.mul(x, x))
    g = grad(y, x)
    assert np.array_equal(g.data, 2.0 * x.data)


def test_grad_disconnected_gives_zeros():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = sum_of(Tensor([5.0, 5.0]))
    g = grad(y, x)
    assert np.array_equal(g.data, np.zeros(2))


def test_grad_untraced_wrt_is_lineage_error():
    x = Tensor([1.0, 2.0])
    y = sum_of(Tensor([1.0], requires_grad=True))
    with pytest.raises(LineageError):
        grad(y, x)


def test_grad_non_scalar_root_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ArgumentError):
        grad(ad.mul(x, x), x)


def test_grad_diamond_graph_accumulates_once():
    # y = (x + x) * (x + x) -> dy/dx = 8x
    x = Tensor([1.5, -0.5], requires_grad=True)
    a = x + x
    g = grad(sum_of(ad.mul(a, a)), x)
    assert np.allclose(g.data, 8.0 * x.data, atol=1e-15)


def test_backward_invokes_each_node_exactly_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x)
    calls = {"n": 0}
    real_vjp = y._vjp

    def counting(g):
        calls["n"] += 1
        return real_vjp(g)

    y._vjp = counting
    # y is consumed along three paths; its backward must still run once,
    # on the fully accumulated gradient
    z = y + y
    root = sum_of(z) + ad.mean_all(y)
    g = grad(root, x)
    assert calls["n"] == 1
    assert np.allclose(g.data, 4.0 * x.data + 2.0 * x.data / x.size, atol=1e-15)


def test_grad_wrt_non_leaf_with_two_consumers_keeps_its_cotangent():
    x = Tensor(np.linspace(-1.0, 2.0, 6).reshape(2, 3), requires_grad=True)
    w = Tensor(np.arange(12.0).reshape(3, 4) / 7.0)

    def consumers(h: Tensor) -> Tensor:
        # h feeds a softmax and a matmul, so its cotangent sums two parts
        return ad.mean_all(ad.mul(softmax_rows(h), h)) + sum_of(matmul(h, w))

    h = softmax_rows(ad.mul(x, x))
    via_non_leaf = grad(consumers(h), h)
    leaf = Tensor(h.data, requires_grad=True)
    via_leaf = grad(consumers(leaf), leaf)
    assert np.abs(via_non_leaf.data).max() > 0.0
    assert via_non_leaf.data.tobytes() == via_leaf.data.tobytes()


def test_grad_holds_no_consumed_cotangent_through_the_next_vjp():
    # two consumers of one node hand it fresh cotangents; grad adds the second
    # into the first in place, so the node's VJP receives the first, carrying
    # the sum, and the second is dead by then
    x = Tensor([1.0, 2.0], requires_grad=True)
    handed: list[weakref.ref] = []
    alive: list[bool] = []
    received: list[np.ndarray] = []

    def fresh(g):
        cotangent = g * 2.0
        handed.append(weakref.ref(cotangent))
        return (cotangent,)

    def shared_vjp(g):
        alive.extend(ref() is not None for ref in handed)
        received.append(g)
        return (g.copy(),)

    shared = Tensor.node(x.data * 1.0, "shared", (x,), shared_vjp)
    left = Tensor.node(shared.data * 2.0, "left", (shared,), fresh)
    right = Tensor.node(shared.data * 2.0, "right", (shared,), fresh)
    root = Tensor.node(np.asarray(left.data.sum() + right.data.sum()), "root", (left, right),
                       lambda g: (np.full(2, float(g)), np.full(2, float(g))))
    assert grad(root, x).data.tolist() == [4.0, 4.0]
    assert len(handed) == 2 and alive == [True, False]
    assert received[0] is handed[0]() and received[0].tolist() == [4.0, 4.0]


# ---------------------------------------------------------------- untraced parents

# rows [0, 2) x columns [0, 2) and rows [1, 3) x columns [1, 4) of a 4x4 map
GEOMETRY = RegionGeometry.build(LayoutCondition(
    (RegionSpec((0.0, 0.0, 0.5, 0.5), "a"), RegionSpec((0.25, 0.25, 1.0, 0.75), "b")),
    np.zeros((1, 1))), 4, 4)
CROSS, SELF = (2, 4, 4), (2, 16, 16)  # a loss layer's concept maps and its two heads


def record(c0, c1, s0, s1) -> AttnRecord:
    return AttnRecord([LayerRecord((4, 4), c, s) for c, s in ((c0, s0), (c1, s1))])


def constant(shape, seed: int = 9) -> Tensor:
    return Tensor(np.random.default_rng(seed).random(shape))


# every kernel with two or more parents: a builder taking its inputs, and their shapes
MULTI_PARENT = {
    "add": (ad.add, [(3, 4), (4,)]),
    "sub": (ad.sub, [(3, 4), (3, 1)]),
    "mul": (ad.mul, [(3, 4), (3, 4)]),
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "attention_probs": (lambda q, k: ad.attention_probs(q, k, 2), [(2, 3, 4), (2, 5, 4)]),
    "apply_heads": (ad.apply_heads, [(2, 2, 3, 5), (2, 5, 4), (4, 3)]),
    "concat": (lambda *parts: ad.concat(parts), [(2, 3), (1, 3), (4, 3)]),
    "compose_hidden": (lambda h0, hiddens: compose_hidden(h0, hiddens, GEOMETRY),
                       [(16, 3), (2, 16, 3)]),
    "concept_enhancement_terms": (lambda c0, c1: concept_enhancement_terms(
        record(c0, c1, constant(SELF), constant(SELF)), GEOMETRY, 0.4), [CROSS, CROSS]),
    "fill_terms": (lambda c0, c1: fill_terms(
        record(c0, c1, constant(SELF), constant(SELF)), GEOMETRY), [CROSS, CROSS]),
    "region_terms": (lambda s0, s1: region_terms(
        record(constant(CROSS), constant(CROSS), s0, s1), GEOMETRY, 0.2), [SELF, SELF]),
    # the cross maps feed the enhancement and fill terms, the self maps the region term
    "composite_loss": (lambda cross, selfs: composite_loss(
        record(cross, cross, selfs, selfs), GEOMETRY, GuidanceConfig())[0], [CROSS, SELF]),
}


@pytest.mark.parametrize("kernel", MULTI_PARENT)
def test_a_vjp_hands_back_none_for_an_untraced_parent(kernel):
    # with each input untraced in turn, the VJP returns None for every parent
    # built from that input alone, and each traced input's gradient keeps its bits
    build, shapes = MULTI_PARENT[kernel]
    rng = np.random.default_rng(4)
    values = [rng.random(shape) for shape in shapes]
    everything = [Tensor(v, requires_grad=True) for v in values]
    reference = build(*everything)
    g = rng.standard_normal(reference.shape)
    g.flags.writeable = False  # a VJP may write into a writable cotangent
    expected = [grad(ad.mean_all(ad.mul(reference, Tensor(g))), x).data.tobytes()
                for x in everything]
    for untraced in range(len(values)):
        inputs = [Tensor(v, requires_grad=i != untraced) for i, v in enumerate(values)]
        out = build(*inputs)
        cotangents = out._vjp(g)
        assert [c is None for c in cotangents] == [not p.requires_grad for p in out.parents]
        assert any(c is None for c in cotangents)
        # handed a writable copy, which it may overwrite, the VJP returns the same bits
        assert ([None if c is None else c.tobytes() for c in out._vjp(g.copy())]
                == [None if c is None else c.tobytes() for c in cotangents])
        for x, want in zip(inputs, expected):
            if x.requires_grad:
                assert grad(ad.mean_all(ad.mul(out, Tensor(g))), x).data.tobytes() == want


# ---------------------------------------------------------------- cotangent ownership


@functools.cache
def small_context():
    return build_test_context()


def cross_maps(z: Tensor) -> Tensor:
    ctx = small_context()
    return region_cross_maps(z, ctx.weights.blocks[0].cross_attn, ctx.dims.n_heads,
                             ctx.loss_geometry, ctx.cross_branches[0])[2]


# every one-parent kernel, as MULTI_PARENT lists the others
SINGLE_PARENT = {
    "div_scalar": (lambda x: ad.div_scalar(x, 3.0), [(3, 4)]),
    "transpose2d": (ad.transpose2d, [(3, 4)]),
    "reshape": (lambda x: ad.reshape(x, (4, 3)), [(3, 4)]),
    "softmax_rows": (softmax_rows, [(3, 4)]),
    "masked_softmax_rows": (lambda x: ad.masked_softmax_rows(
        x, np.arange(12).reshape(3, 4) % 3 > 0), [(3, 4)]),
    "mean_heads": (ad.mean_heads, [(2, 3, 4)]),
    "layernorm_rows": (ad.layernorm_rows, [(3, 4)]),
    "topk_mean": (lambda x: topk_mean(x, 3), [(3, 4)]),
    "axis_max_project": (lambda x: axis_max_project(x, "rows"), [(3, 4)]),
    "take": (lambda x: ad.take(x, [4, 0, 2]), [(6,)]),
    "take2d": (lambda x: ad.take2d(x, [2, 0], [1, 3]), [(3, 4)]),
    "slice_cols": (lambda x: ad.slice_cols(x, 1, 3), [(3, 4)]),
    "column": (lambda x: ad.column(x, np.array([2, 0])), [(2, 3, 4)]),
    "mean_all": (ad.mean_all, [(3, 4)]),
    "avg_pool_2x2": (lambda x: ad.avg_pool_2x2(x, 2, 4), [(8, 3)]),
    "upsample_nearest_2x": (lambda x: ad.upsample_nearest_2x(x, 2, 2), [(4, 3)]),
    "region_cross_maps": (cross_maps, [(64, 8)]),
}
KERNELS = {**SINGLE_PARENT, **MULTI_PARENT}
NOT_KERNELS = {"checked_block", "top_k", "top_k_picks", "grad", "finite_difference_gradient",
               "max_relative_error"}


def test_every_public_autodiff_kernel_has_a_vjp_case():
    public = {name for name, f in vars(ad).items() if inspect.isfunction(f)
              and f.__module__ == ad.__name__ and not name.startswith("_")}
    assert public - NOT_KERNELS <= set(KERNELS)


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_vjp_returns_no_array_it_keeps(kernel):
    # grad may write into a writable cotangent with no base that a VJP hands it,
    # so such an array must be new to every call: writing into one leaves a
    # second call's cotangents, and a third call's, as they were
    build, shapes = KERNELS[kernel]
    rng = np.random.default_rng(5)
    out = build(*[Tensor(rng.random(shape), requires_grad=True) for shape in shapes])
    g = np.array(rng.standard_normal(out.shape))
    g.flags.writeable = False
    first, second = out._vjp(g), out._vjp(g)
    kept = [c.tobytes() for c in second]
    for c in first:
        if c.base is None and c.flags.writeable:
            c.fill(np.nan)
    assert [c.tobytes() for c in second] == kept
    assert [c.tobytes() for c in out._vjp(g)] == kept


@pytest.mark.parametrize("shape", [(3, 5), (3, 300, 257), (70, 20000), (0, 4)])
def test_softmax_vjp_sums_each_row_as_one_whole_sum_would(shape):
    # the row dot products go through a buffer a block of rows at a time
    # (more than one block, a short last block, rows longer than the buffer)
    rng = np.random.default_rng(11)
    logits = rng.standard_normal(shape) * 4.0
    y, vjp, _ = ad._softmax_rows(logits.copy())
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    whole = y * (g - (g * y).sum(axis=-1, keepdims=True))
    readonly = g.copy()
    readonly.flags.writeable = False
    assert vjp(readonly).tobytes() == whole.tobytes()
    writable = g.copy()
    assert vjp(writable) is writable and writable.tobytes() == whole.tobytes()


def copying_grad(root: Tensor, wrt: Tensor) -> np.ndarray:
    """``grad`` without ownership: each VJP gets a read-only copy of its
    cotangent and each sum is a new array, in ``grad``'s order."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents
                         if p.requires_grad and id(p) not in seen)
    grads = {id(root): np.ones(root.shape)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node._vjp is None:
            continue
        g = np.array(g)
        g.flags.writeable = False
        for parent, pg in zip(node.parents, node._vjp(g)):
            if pg is not None:
                acc = grads.get(id(parent))
                grads[id(parent)] = np.array(pg) if acc is None else acc + pg
    return grads[id(wrt)]


# each term first once, the others following in either direction
@pytest.mark.parametrize("order", [[(first + step * i) % 5 for i in range(5)]
                                   for first in range(5) for step in (1, -1)])
def test_grad_adds_into_the_cotangents_it_owns_as_a_copying_grad_would(order):
    # node a gets the one g add hands both its parents, the same g twice from
    # add(a, a), a broadcast from mean_heads and fresh ones from mul, and the
    # softmax overwrites the owned sum of its two consumers' cotangents; the
    # terms' order sets which cotangent reaches a first
    rng = np.random.default_rng(3)

    def scaled(shape):
        return Tensor(rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape))

    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    a = ad.mul(x, scaled((2, 3, 4)))
    sm = softmax_rows(ad.reshape(a, (6, 4)))
    terms = [a + ad.div_scalar(x, 3.0), ad.mean_heads(a), ad.mul(a, scaled((2, 3, 4))), a + a,
             ad.reshape(ad.mul(sm, scaled((6, 4))) + ad.mul(sm, scaled((6, 4))), (2, 3, 4))]
    total = None
    for i in order:
        term = ad.mean_all(ad.mul(terms[i], scaled(terms[i].shape)))
        total = term if total is None else total + term
    for wrt in (x, a, sm):
        assert grad(total, wrt).data.tobytes() == copying_grad(total, wrt).tobytes()


# ---------------------------------------------------------------- allocator


class FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_keep_freed_heap_sets_mmap_and_trim_thresholds(monkeypatch):
    mallopt = FakeMallopt()
    opened = []

    def fake_cdll(name):
        opened.append(name)
        return SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    ad._keep_freed_heap()
    assert opened == [None]
    # M_MMAP_THRESHOLD = 32 MiB, M_TRIM_THRESHOLD = 256 MiB
    assert mallopt.calls == [(-3, 32 * 2**20), (-1, 256 * 2**20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def test_keep_freed_heap_is_quiet_without_glibc(monkeypatch):
    def unloadable(name):
        raise OSError("no such library")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert ad._keep_freed_heap() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    assert ad._keep_freed_heap() is None


# ---------------------------------------------------------------- FD oracle


def test_fd_sum_of_squares():
    g = finite_difference_gradient(lambda t: sum_of(ad.mul(t, t)), Tensor([1.0, 2.0]))
    assert np.max(np.abs(g.data - np.array([2.0, 4.0]))) < 1e-8


def test_fd_linear_is_near_exact():
    c = np.array([2.0, -3.0, 0.5])
    g = finite_difference_gradient(
        lambda t: sum_of(ad.mul(t, Tensor(c))), Tensor([0.3, 0.1, -0.7]))
    assert np.max(np.abs(g.data - c)) < 1e-9


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
def test_fd_rejects_a_non_finite_eps_by_name(eps):
    with pytest.raises(ArgumentError, match="eps"):
        finite_difference_gradient(lambda t: sum_of(t), Tensor([1.0]), eps=eps)


def test_fd_rejects_nonpositive_eps():
    with pytest.raises(ArgumentError):
        finite_difference_gradient(lambda t: sum_of(t), Tensor([1.0]), eps=0.0)


def test_grad_matches_fd_on_attention_style_loss():
    rng = np.random.default_rng(23)
    w = Tensor(rng.standard_normal((4, 4)))
    x0 = rng.uniform(-2.0, 2.0, size=(6, 4))

    def loss(t: Tensor) -> Tensor:
        return topk_mean(softmax_rows(matmul(t, ad.transpose2d(w))), 5)

    xt = Tensor(x0, requires_grad=True)
    analytic = grad(loss(xt), xt)
    numeric = finite_difference_gradient(loss, Tensor(x0), eps=1e-6)
    assert max_relative_error(analytic, numeric) < 1e-5


@pytest.mark.parametrize("seed", range(6))
def test_grad_matches_fd_on_random_kernel_compositions(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, size=(4, 6))
    w = Tensor(rng.standard_normal((6, 6)))
    mask = rng.uniform(size=(4, 6)) > 0.3
    mask[:, 0] = True

    def loss(t: Tensor) -> Tensor:
        h = ad.layernorm_rows(t)
        h = ad.layernorm_rows(matmul(h, w))
        a = ad.masked_softmax_rows(h, mask)
        concatenated = ad.concat(
            [axis_max_project(a, "rows"), axis_max_project(a, "cols")])
        picked = ad.take(concatenated, [0, 2, 3])
        return (topk_mean(a, 5) + ad.mul(ad.mean_all(concatenated), Tensor(0.5))
                + ad.mul(sum_of(picked), Tensor(0.25))
                + topk_mean(ad.take2d(a, [0, 2], [1, 3, 4]), 2))

    xt = Tensor(x0, requires_grad=True)
    analytic = grad(loss(xt), xt)
    numeric = finite_difference_gradient(loss, Tensor(x0), eps=1e-6)
    assert max_relative_error(analytic, numeric) < 1e-5


def test_grad_matches_fd_through_spatial_kernels():
    rng = np.random.default_rng(41)
    x0 = rng.uniform(-2.0, 2.0, size=(16, 3))  # 4x4 grid, 3 channels

    def loss(t: Tensor) -> Tensor:
        pooled = ad.avg_pool_2x2(t, 4, 4)
        up = ad.upsample_nearest_2x(pooled, 2, 2)
        return sum_of(ad.mul(ad.layernorm_rows(up + t), t)) + ad.mean_all(ad.mul(pooled, pooled))

    xt = Tensor(x0, requires_grad=True)
    analytic = grad(loss(xt), xt)
    numeric = finite_difference_gradient(loss, Tensor(x0), eps=1e-6)
    assert max_relative_error(analytic, numeric) < 1e-5


# ---------------------------------------------------------------- invariants


def test_results_are_bit_identical_across_runs():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((8, 8))
    w = rng.standard_normal((8, 8))

    def run():
        xt = Tensor(x0, requires_grad=True)
        y = topk_mean(softmax_rows(matmul(xt, Tensor(w))), 7)
        return y.data.copy(), grad(y, xt).data.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2)
    assert np.array_equal(g1, g2)


def test_tensors_are_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 9.0


def test_non_finite_input_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        Tensor([np.nan])


def test_scalar_division():
    t = ad.div_scalar(Tensor([2.0, 4.0]), 2.0)
    assert np.array_equal(t.data, np.array([1.0, 2.0]))
    with pytest.raises(ArgumentError):
        ad.div_scalar(Tensor([1.0]), 0.0)


@pytest.mark.parametrize("apply", [lambda t: t * 2.0, lambda t: t / 2.0, lambda t: t * t],
                         ids=["times_a_float", "over_a_float", "times_a_tensor"])
def test_a_tensor_has_no_product_or_quotient_operator(apply):
    # Python's own TypeError, not an AttributeError from inside a kernel
    with pytest.raises(TypeError, match="unsupported operand"):
        apply(Tensor([1.0]))

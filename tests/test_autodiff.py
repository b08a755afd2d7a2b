from __future__ import annotations

import ctypes
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
from loracanvas.errors import ArgumentError, LineageError, NumericError, ShapeError


# ---------------------------------------------------------------- oracles


def sum_of(x: Tensor) -> Tensor:
    """Traced sum of all entries; its gradient is exactly one everywhere."""
    return ad.mean_all(x) * x.size


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
        return (sum_of(probs) + sum_of(columns * Tensor(cot[c, :, 0]))
                + sum_of(hidden * Tensor(cot[c])))

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


def test_sum_leading_adds_slices_in_order_like_add():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3, 2)) * 10.0 ** rng.integers(-8, 8, (4, 3, 2)),
               requires_grad=True)
    chain = ad.add(ad.add(ad.add(x.data[0], x.data[1]), x.data[2]), x.data[3])
    total = ad.sum_leading(x)
    assert total.data.tobytes() == chain.data.tobytes()
    assert np.array_equal(grad(sum_of(total), x).data, np.ones((4, 3, 2)))
    empty = ad.sum_leading(Tensor(np.zeros((0, 3))))
    assert empty.shape == (3,) and not empty.data.any()
    with pytest.raises(ShapeError):
        ad.sum_leading(Tensor(1.0))


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
    y = sum_of(x * x)
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
        grad(x * x, x)


def test_grad_diamond_graph_accumulates_once():
    # y = (x + x) * (x + x) -> dy/dx = 8x
    x = Tensor([1.5, -0.5], requires_grad=True)
    a = x + x
    g = grad(sum_of(a * a), x)
    assert np.allclose(g.data, 8.0 * x.data, atol=1e-15)


def test_backward_invokes_each_node_exactly_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * x
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
        return ad.mean_all(softmax_rows(h) * h) + sum_of(matmul(h, w))

    h = softmax_rows(x * x)
    via_non_leaf = grad(consumers(h), h)
    leaf = Tensor(h.data, requires_grad=True)
    via_leaf = grad(consumers(leaf), leaf)
    assert np.abs(via_non_leaf.data).max() > 0.0
    assert via_non_leaf.data.tobytes() == via_leaf.data.tobytes()


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
    g = finite_difference_gradient(lambda t: sum_of(t * t), Tensor([1.0, 2.0]))
    assert np.max(np.abs(g.data - np.array([2.0, 4.0]))) < 1e-8


def test_fd_linear_is_near_exact():
    c = np.array([2.0, -3.0, 0.5])
    g = finite_difference_gradient(
        lambda t: sum_of(t * Tensor(c)), Tensor([0.3, 0.1, -0.7]))
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
        return (topk_mean(a, 5) + ad.mean_all(concatenated) * 0.5
                + sum_of(picked) * 0.25
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
        return sum_of(ad.layernorm_rows(up + t) * t) + ad.mean_all(pooled * pooled)

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
    t = Tensor([2.0, 4.0]) / 2.0
    assert np.array_equal(t.data, np.array([1.0, 2.0]))
    with pytest.raises(ArgumentError):
        Tensor([1.0]) / 0.0

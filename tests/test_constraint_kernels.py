"""The fused constraint kernels against the chains of small kernels they replace.

Each of ``topk_shortfall``, ``box_fill`` and ``submatrix_topk_mean`` is one
concept's constraint term over its loss layers. The oracle builds the same
term from the public kernels (mul, topk_mean, sub, axis_max_project, take,
concat, mean_all, take2d) and averages the layers with add and div_scalar,
as the losses did before the fusion. Values and gradients must agree bit for
bit, and bad arguments must raise the same named errors. Hypothesis runs
derandomized, so every run checks the same examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loracanvas import autodiff as ad
from loracanvas.autodiff import Tensor, grad
from loracanvas.errors import ArgumentError, NumericError, ShapeError

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)

# a coarse grid makes ties (the top-k tie rule, first argmax) common
tied = st.integers(0, 8).map(lambda n: n / 8.0)
fine = st.floats(0.0, 1.0)
entries = st.one_of(tied, fine)


# ------------------------------------------------------------------ oracles


def layer_mean(terms: list[Tensor]) -> Tensor:
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return ad.div_scalar(total, float(len(terms)))


def chain_shortfall(maps, weight, k) -> Tensor:
    return layer_mean([ad.sub(1.0, ad.topk_mean(ad.mul(m, weight), k)) for m in maps])


def chain_fill(maps, rows, cols) -> Tensor:
    terms = []
    for m in maps:
        over_rows = ad.take(ad.axis_max_project(m, "rows"), cols)
        over_cols = ad.take(ad.axis_max_project(m, "cols"), rows)
        terms.append(ad.mean_all(ad.sub(1.0, ad.concat([over_rows, over_cols]))))
    return layer_mean(terms)


def chain_submatrix(maps, rows, cols, k) -> Tensor:
    return layer_mean([ad.topk_mean(ad.take2d(m, rows, cols), k) for m in maps])


FUSED = {"shortfall": ad.topk_shortfall, "fill": ad.box_fill,
         "submatrix": ad.submatrix_topk_mean}
CHAIN = {"shortfall": chain_shortfall, "fill": chain_fill, "submatrix": chain_submatrix}


# ------------------------------------------------------------------ cases


def distinct(draw, n: int) -> list[int]:
    return draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))


@st.composite
def loss_cases(draw):
    """1-3 layers of cross maps and self maps, one concept's box and the loss knobs."""
    layers = draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = draw(st.integers(2, 9))
    cross = [draw(arrays(np.float64, (h, w), elements=entries)) for _ in range(layers)]
    selfs = [draw(arrays(np.float64, (n, n), elements=entries)) for _ in range(layers)]
    weight = draw(arrays(np.float64, (h, w), elements=st.one_of(tied, st.floats(0.0, 3.0))))
    rows, cols = distinct(draw, h), distinct(draw, w)
    inside, outside = distinct(draw, n), distinct(draw, n)
    top_s = draw(st.integers(1, h * w))
    top_p = draw(st.integers(1, len(inside) * len(outside)))
    alpha, beta = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    return dict(cross=cross, selfs=selfs, weight=weight, rows=rows, cols=cols,
                inside=inside, outside=outside, top_s=top_s, top_p=top_p,
                alpha=alpha, beta=beta)


def terms(kernels, case, cross, selfs):
    weight = Tensor(case["weight"])
    return (kernels["shortfall"](cross, weight, case["top_s"]),
            kernels["fill"](cross, case["rows"], case["cols"]),
            kernels["submatrix"](selfs, case["inside"], case["outside"], case["top_p"]))


# ------------------------------------------------------------------ values


@PROPERTY
@given(loss_cases())
def test_fused_terms_equal_their_chains_bit_for_bit(case):
    cross = [Tensor(m) for m in case["cross"]]
    selfs = [Tensor(m) for m in case["selfs"]]
    for fused, chained in zip(terms(FUSED, case, cross, selfs),
                              terms(CHAIN, case, cross, selfs)):
        assert fused.shape == ()
        assert fused.data.tobytes() == chained.data.tobytes()


# ------------------------------------------------------------------ gradients


def loss_and_maps(kernels, case):
    """ce + alpha * fill + beta * region, with the cross maps read by two terms."""
    cross = [Tensor(m, requires_grad=True) for m in case["cross"]]
    selfs = [Tensor(m, requires_grad=True) for m in case["selfs"]]
    ce, fill, region = terms(kernels, case, cross, selfs)
    return ce + case["alpha"] * fill + case["beta"] * region, cross + selfs


@PROPERTY
@given(loss_cases())
def test_fused_terms_give_the_chains_gradients_bit_for_bit(case):
    fused_loss, fused_maps = loss_and_maps(FUSED, case)
    chain_loss, chain_maps = loss_and_maps(CHAIN, case)
    assert fused_loss.data.tobytes() == chain_loss.data.tobytes()
    for mine, theirs in zip(fused_maps, chain_maps):
        assert grad(fused_loss, mine).data.tobytes() == grad(chain_loss, theirs).data.tobytes()


def test_fill_hands_back_its_two_scatters_separately():
    # the map's maximum is both a column and a row maximum and one of the
    # three enhancement picks: three cotangents land on one entry, and only
    # the chain's order, (ce + column) + row, reproduces the chain's bits
    amap = np.array([[0.2, 0.9], [0.1, 0.3]])
    case = dict(cross=[amap], selfs=[np.eye(2)], weight=np.ones((2, 2)), rows=[0, 1],
                cols=[0, 1], inside=[0], outside=[1], top_s=3, top_p=1,
                alpha=0.3, beta=0.8)
    fused_loss, fused_maps = loss_and_maps(FUSED, case)
    chain_loss, chain_maps = loss_and_maps(CHAIN, case)
    node = ad.box_fill(fused_maps[:1], [0, 1], [0, 1])
    assert len(node.parents) == 2 and node.parents[0] is node.parents[1]
    assert (grad(fused_loss, fused_maps[0]).data.tobytes()
            == grad(chain_loss, chain_maps[0]).data.tobytes())


# ------------------------------------------------------------------ errors

MAP = np.arange(12.0).reshape(3, 4) / 12.0
WEIGHT = np.ones((3, 4))
HUGE = np.full((3, 4), 1e300)

ERROR_CASES = {
    # k outside [1, size]
    "shortfall k=0": ("shortfall", ([MAP], WEIGHT, 0), ArgumentError),
    "shortfall k>size": ("shortfall", ([MAP], WEIGHT, 13), ArgumentError),
    "submatrix k=0": ("submatrix", ([MAP], [0, 1], [2], 0), ArgumentError),
    "submatrix k>size": ("submatrix", ([MAP], [0, 1], [2], 3), ArgumentError),
    # bad or repeated indices
    "fill row out of range": ("fill", ([MAP], [3], [0]), ArgumentError),
    "fill negative column": ("fill", ([MAP], [0], [-1]), ArgumentError),
    "fill repeated row": ("fill", ([MAP], [1, 1], [0]), ArgumentError),
    "fill float column": ("fill", ([MAP], [0], [0.5]), ArgumentError),
    "submatrix repeated column": ("submatrix", ([MAP], [0], [2, 2], 1), ArgumentError),
    "submatrix row out of range": ("submatrix", ([MAP], [5], [0], 1), ArgumentError),
    "submatrix empty rows": ("submatrix", ([MAP], [], [0], 1), ArgumentError),
    # shapes
    "shortfall weight shape": ("shortfall", ([MAP], np.ones((2, 4)), 1), ShapeError),
    "fill 1-D map": ("fill", ([MAP.reshape(-1)], [0], [0]), ShapeError),
    "submatrix 1-D map": ("submatrix", ([MAP.reshape(-1)], [0], [0], 1), ShapeError),
    # non-finite arithmetic
    "shortfall product overflows": ("shortfall", ([HUGE], HUGE, 1), NumericError),
    "shortfall top-k sum overflows": ("shortfall", ([HUGE * 1e8], WEIGHT, 2), NumericError),
    "fill mean overflows": ("fill", ([-HUGE * 1e8], [0, 1], [0]), NumericError),
    "submatrix top-k sum overflows": ("submatrix", ([HUGE * 1e8], [0], [0, 1], 2),
                                      NumericError),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_fused_terms_raise_what_their_chains_raise(name):
    term, args, error = ERROR_CASES[name]
    maps, *rest = args
    with pytest.raises(error):
        CHAIN[term]([Tensor(m) for m in maps], *rest)
    with pytest.raises(error):
        FUSED[term]([Tensor(m) for m in maps], *rest)


@pytest.mark.parametrize("term", sorted(FUSED))
def test_fused_terms_need_a_map(term):
    args = {"shortfall": (WEIGHT, 1), "fill": ([0], [0]), "submatrix": ([0], [1], 1)}[term]
    with pytest.raises(ArgumentError):
        FUSED[term]([], *args)


def test_fill_needs_both_index_lists():
    with pytest.raises(ArgumentError):
        ad.box_fill([Tensor(MAP)], [0], [])


def test_shortfall_takes_no_gradient_for_its_weight():
    with pytest.raises(ArgumentError):
        ad.topk_shortfall([Tensor(MAP)], Tensor(WEIGHT, requires_grad=True), 1)

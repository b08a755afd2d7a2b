"""The fused constraint kernels against the chains of small kernels they replace.

Each of ``topk_shortfall``, ``box_fill`` and ``submatrix_topk_mean`` is every
concept's constraint term over its loss layers, one entry per concept. The
oracle builds each concept's term from the public kernels (mul, topk_mean,
sub, axis_max_project, take, concat, mean_all, take2d) on that concept's own
maps, averages the layers with add and div_scalar and sums the concepts with
add, as the losses did before the concept axis. Values and gradients must
agree bit for bit, slice by slice, and bad arguments must raise the same named
errors. Hypothesis runs derandomized, so every run checks the same examples.
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
    """1-3 concepts over 1-3 layers: stacked cross maps, shared self maps, each
    concept's boxes and top-k counts, and the loss knobs."""
    concepts, layers = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = draw(st.integers(2, 9))
    cross = [draw(arrays(np.float64, (concepts, h, w), elements=entries))
             for _ in range(layers)]
    selfs = [draw(arrays(np.float64, (n, n), elements=entries)) for _ in range(layers)]
    weight = draw(arrays(np.float64, (concepts, h, w),
                         elements=st.one_of(tied, st.floats(0.0, 3.0))))
    rows = [distinct(draw, h) for _ in range(concepts)]
    cols = [distinct(draw, w) for _ in range(concepts)]
    inside = [distinct(draw, n) for _ in range(concepts)]
    outside = [distinct(draw, n) for _ in range(concepts)]
    top_s = [draw(st.integers(1, h * w)) for _ in range(concepts)]
    top_p = [draw(st.integers(1, len(i) * len(o))) for i, o in zip(inside, outside)]
    alpha, beta = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    return dict(cross=cross, selfs=selfs, weight=weight, rows=rows, cols=cols,
                inside=inside, outside=outside, top_s=top_s, top_p=top_p,
                alpha=alpha, beta=beta)


def fused_terms(case, cross, selfs):
    """The three fused nodes, each (concepts,)."""
    return (ad.topk_shortfall(cross, Tensor(case["weight"]), case["top_s"]),
            ad.box_fill(cross, case["rows"], case["cols"]),
            ad.submatrix_topk_mean(selfs, case["inside"], case["outside"], case["top_p"]))


def chain_terms(case, concept_maps, selfs):
    """Per concept, its three chained terms on its own list of layer maps."""
    return [(chain_shortfall(maps, Tensor(case["weight"][c]), case["top_s"][c]),
             chain_fill(maps, case["rows"][c], case["cols"][c]),
             chain_submatrix(selfs, case["inside"][c], case["outside"][c], case["top_p"][c]))
            for c, maps in enumerate(concept_maps)]


# ------------------------------------------------------------------ values


@PROPERTY
@given(loss_cases())
def test_fused_terms_equal_their_chains_bit_for_bit(case):
    cross = [Tensor(m) for m in case["cross"]]
    selfs = [Tensor(m) for m in case["selfs"]]
    concept_maps = [[Tensor(m[c]) for m in case["cross"]] for c in range(len(case["rows"]))]
    fused = fused_terms(case, cross, selfs)
    for node in fused:
        assert node.shape == (len(concept_maps),)
    for c, chained in enumerate(chain_terms(case, concept_maps, selfs)):
        for node, term in zip(fused, chained):
            assert term.shape == ()
            assert node.data[c].tobytes() == term.data.tobytes()


# ------------------------------------------------------------------ gradients


def summed(terms: list[Tensor]) -> Tensor:
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def fused_loss(case):
    """sum(ce) + alpha * sum(fill) + beta * sum(region), with the cross maps read
    by two terms, and the traced stacked cross maps and self maps."""
    cross = [Tensor(m, requires_grad=True) for m in case["cross"]]
    selfs = [Tensor(m, requires_grad=True) for m in case["selfs"]]
    ce, fill, region = map(ad.sum_leading, fused_terms(case, cross, selfs))
    return ce + case["alpha"] * fill + case["beta"] * region, cross, selfs


def chain_loss(case):
    """The same loss summed concept by concept with add, and its traced leaves:
    one list of layer maps per concept, then the shared self maps."""
    concept_maps = [[Tensor(m[c], requires_grad=True) for m in case["cross"]]
                    for c in range(len(case["rows"]))]
    selfs = [Tensor(m, requires_grad=True) for m in case["selfs"]]
    ce, fill, region = (summed(list(t)) for t in zip(*chain_terms(case, concept_maps, selfs)))
    return ce + case["alpha"] * fill + case["beta"] * region, concept_maps, selfs


@PROPERTY
@given(loss_cases())
def test_fused_terms_give_the_chains_gradients_bit_for_bit(case):
    fused, cross, fused_selfs = fused_loss(case)
    chained, concept_maps, chain_selfs = chain_loss(case)
    assert fused.data.tobytes() == chained.data.tobytes()
    for layer, stacked in enumerate(cross):
        slices = grad(fused, stacked).data
        for c, maps in enumerate(concept_maps):
            assert slices[c].tobytes() == grad(chained, maps[layer]).data.tobytes()
    for mine, theirs in zip(fused_selfs, chain_selfs):
        assert grad(fused, mine).data.tobytes() == grad(chained, theirs).data.tobytes()


def test_fill_hands_back_its_two_scatters_separately():
    # the map's maximum is both a column and a row maximum and one of the
    # three enhancement picks: three cotangents land on one entry, and only
    # the chain's order, (ce + column) + row, reproduces the chain's bits
    amap = np.array([[0.2, 0.9], [0.1, 0.3]])
    case = dict(cross=[amap[None]], selfs=[np.eye(2)], weight=np.ones((1, 2, 2)),
                rows=[[0, 1]], cols=[[0, 1]], inside=[[0]], outside=[[1]], top_s=[3],
                top_p=[1], alpha=0.3, beta=0.8)
    fused, cross, _ = fused_loss(case)
    chained, concept_maps, _ = chain_loss(case)
    node = ad.box_fill(cross, [[0, 1]], [[0, 1]])
    assert len(node.parents) == 2 and node.parents[0] is node.parents[1]
    assert (grad(fused, cross[0]).data[0].tobytes()
            == grad(chained, concept_maps[0][0]).data.tobytes())


def test_region_picks_shared_by_two_concepts_add_up():
    # both concepts' top entry is (0, 2): its cotangent is the sum of their shares
    self_map = np.array([[0.1, 0.2, 0.9], [0.3, 0.1, 0.4], [0.2, 0.2, 0.2]])
    traced = Tensor(self_map, requires_grad=True)
    node = ad.submatrix_topk_mean([traced], [[0], [0, 1]], [[1, 2], [2]], [1, 2])
    assert node.data.tolist() == [0.9, (0.9 + 0.4) / 2]
    expected = np.zeros((3, 3))
    expected[0, 2], expected[1, 2] = 1.0 + 0.5, 0.5
    assert np.array_equal(grad(ad.sum_leading(node), traced).data, expected)


def test_no_concepts_give_empty_terms_and_zero_gradients():
    cross = Tensor(np.zeros((0, 3, 4)), requires_grad=True)
    self_map = Tensor(np.eye(12), requires_grad=True)
    nodes = (ad.topk_shortfall([cross], np.zeros((0, 3, 4)), []),
             ad.box_fill([cross], [], []),
             ad.submatrix_topk_mean([self_map], [], [], []))
    assert [node.shape for node in nodes] == [(0,)] * 3
    total = summed([ad.sum_leading(node) for node in nodes])
    assert float(total) == 0.0
    assert grad(total, cross).shape == (0, 3, 4)
    assert not grad(total, self_map).data.any()


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


def fused_single(term, maps, *args):
    """The fused kernel on one concept: each map gets a concept axis (the region
    term's self maps are shared and keep theirs), each argument becomes a list."""
    if term == "shortfall":
        weight, k = args
        return ad.topk_shortfall([Tensor(m[None]) for m in maps], np.asarray(weight)[None], [k])
    if term == "fill":
        return ad.box_fill([Tensor(m[None]) for m in maps], *([a] for a in args))
    return ad.submatrix_topk_mean([Tensor(m) for m in maps], *([a] for a in args))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_fused_terms_raise_what_their_chains_raise(name):
    term, args, error = ERROR_CASES[name]
    maps, *rest = args
    with pytest.raises(error):
        CHAIN[term]([Tensor(m) for m in maps], *rest)
    with pytest.raises(error):
        fused_single(term, maps, *rest)


@pytest.mark.parametrize("term", sorted(FUSED))
def test_fused_terms_need_a_map(term):
    args = {"shortfall": (WEIGHT[None], [1]), "fill": ([[0]], [[0]]),
            "submatrix": ([[0]], [[1]], [1])}[term]
    with pytest.raises(ArgumentError):
        FUSED[term]([], *args)


@pytest.mark.parametrize("term", sorted(FUSED))
def test_fused_terms_need_one_entry_per_concept(term):
    stacked = [Tensor(np.stack([MAP, MAP]))]
    call = {"shortfall": lambda: ad.topk_shortfall(stacked, np.stack([WEIGHT, WEIGHT]), [1]),
            "fill": lambda: ad.box_fill(stacked, [[0], [1]], [[0]]),
            "submatrix": lambda: ad.submatrix_topk_mean([Tensor(MAP)], [[0], [1]], [[2]],
                                                        [1, 1])}[term]
    with pytest.raises(ArgumentError):
        call()


def test_fused_terms_need_layer_maps_of_one_shape():
    with pytest.raises(ShapeError):
        ad.box_fill([Tensor(MAP[None]), Tensor(np.stack([MAP, MAP]))], [[0]], [[0]])


def test_fill_needs_both_index_lists():
    with pytest.raises(ArgumentError):
        ad.box_fill([Tensor(MAP[None])], [[0]], [[]])


def test_shortfall_takes_no_gradient_for_its_weight():
    with pytest.raises(ArgumentError):
        ad.topk_shortfall([Tensor(MAP[None])], Tensor(WEIGHT[None], requires_grad=True), [1])

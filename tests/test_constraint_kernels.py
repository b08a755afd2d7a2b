"""The three constraint terms against the chains of small kernels they fuse.

Each of ``concept_enhancement_terms``, ``fill_terms`` and ``region_terms``
is every concept's constraint term over a record's loss layers, one entry
per concept. The oracle builds each concept's term from the public kernels
(mul, topk_mean, sub, take2d, axis_max_project, concat, mean_all) on
that concept's own maps, with the geometry's rows, columns, index lists,
Gaussian weight and top-k count, averages the layers with add and div_scalar
and sums the concepts with add, as the losses did before the concept axis.
Values and gradients must agree bit for bit, slice by slice, and a failing
term must raise what its chain raises. Hypothesis runs derandomized, so
every run checks the same examples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import add_chain, build_test_context, geometry_of, leading_slices
from loracanvas import autodiff as ad
from loracanvas.attention import AttnRecord, LayerRecord, RegionGeometry
from loracanvas.autodiff import Tensor, grad
from loracanvas.denoiser import encode
from loracanvas.errors import ArgumentError, NumericError, ShapeError
from loracanvas.guidance import (
    GuidanceConfig,
    composite_loss,
    concept_enhancement_terms,
    fill_terms,
    region_terms,
)

PROPERTY = settings(max_examples=80)

# a coarse grid makes ties (the top-k tie rule, first argmax) common
tied = st.integers(0, 8).map(lambda n: n / 8.0)
fine = st.floats(0.0, 1.0)
entries = st.one_of(tied, fine)
ratios = st.floats(0.0, 1.0, exclude_min=True)
weights = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


# ------------------------------------------------------------------ oracles


def layer_mean(terms: list[Tensor]) -> Tensor:
    return ad.div_scalar(add_chain(terms), float(len(terms)))


def chain_shortfall(maps, weight, k) -> Tensor:
    return layer_mean([ad.sub(Tensor(1.0), ad.topk_mean(ad.mul(m, weight), k)) for m in maps])


def chain_fill(maps, rows, cols) -> Tensor:
    terms = []
    for m in maps:
        # one box gather per projection, so the map takes the two cotangents apart
        over_rows = ad.axis_max_project(ad.take2d(m, rows, cols), "rows")
        over_cols = ad.axis_max_project(ad.take2d(m, rows, cols), "cols")
        terms.append(ad.mean_all(ad.sub(Tensor(1.0), ad.concat([over_rows, over_cols]))))
    return layer_mean(terms)


def chain_submatrix(maps, mask, k) -> Tensor:
    """The leakage chain over a 0/1 mask's in-box rows and out-of-box columns."""
    flat = mask.reshape(-1)
    rows, cols = np.flatnonzero(flat), np.flatnonzero(flat == 0)
    return layer_mean([ad.topk_mean(ad.take2d(m, rows, cols), k) for m in maps])


def top_s(geometry: RegionGeometry, c: int, s_ratio: float) -> int:
    return math.ceil(s_ratio * int(geometry.area[c]))


def top_p(geometry: RegionGeometry, c: int, p_ratio: float) -> int:
    area = int(geometry.area[c])
    return math.ceil(p_ratio * (area * (geometry.height * geometry.width - area)))


def chain_terms(geometry, concept_maps, selfs, s_ratio, p_ratio):
    """Per concept, its three chained terms on its own list of layer maps."""
    return [(chain_shortfall(maps, Tensor(geometry.weight[c]), top_s(geometry, c, s_ratio)),
             chain_fill(maps, geometry.rows[c], geometry.cols[c]),
             chain_submatrix(selfs, geometry.masks[c], top_p(geometry, c, p_ratio)))
            for c, maps in enumerate(concept_maps)]


# ------------------------------------------------------------------ cases


def record_of(cross, selfs, h: int, w: int) -> AttnRecord:
    """One layer per cross map and self map; each self map is one head's probabilities."""
    return AttnRecord([LayerRecord((h, w), c, ad.reshape(s, (1,) + s.shape))
                       for c, s in zip(cross, selfs)])


@st.composite
def rectangles(draw, h: int, w: int):
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    return r0, c0, draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))


@st.composite
def loss_cases(draw):
    """1-3 concepts, each a pixel rectangle (they may overlap, none covers the
    map), over 1-3 loss layers of stacked cross maps and self maps, and the
    loss knobs."""
    concepts, layers = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rects = [draw(rectangles(h, w).filter(lambda r: r != (0, 0, h, w)))
             for _ in range(concepts)]
    cross = [draw(arrays(np.float64, (concepts, h, w), elements=entries))
             for _ in range(layers)]
    # (h*w)^2 entries per self map are too many to draw one by one
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    selfs = [np.where(rng.random((h * w, h * w)) < 0.5,
                      rng.integers(0, 9, (h * w, h * w)) / 8.0, rng.random((h * w, h * w)))
             for _ in range(layers)]
    config = GuidanceConfig(alpha=draw(weights), beta=draw(weights),
                            s_ratio=draw(ratios), p_ratio=draw(ratios))
    return dict(h=h, w=w, rects=rects, cross=cross, selfs=selfs, config=config)


def terms_of(record, geometry, config):
    """The three terms' nodes, each (concepts,)."""
    return (concept_enhancement_terms(record, geometry, config.s_ratio),
            fill_terms(record, geometry),
            region_terms(record, geometry, config.p_ratio))


# ------------------------------------------------------------------ values


@PROPERTY
@given(loss_cases())
def test_fused_terms_equal_their_chains_bit_for_bit(case):
    h, w, config = case["h"], case["w"], case["config"]
    geometry = geometry_of(case["rects"], h, w)
    for c, (r0, c0, r1, c1) in enumerate(case["rects"]):
        assert geometry.rows[c].tolist() == list(range(r0, r1))
        assert geometry.cols[c].tolist() == list(range(c0, c1))
    cross = [Tensor(m) for m in case["cross"]]
    selfs = [Tensor(m) for m in case["selfs"]]
    nodes = terms_of(record_of(cross, selfs, h, w), geometry, config)
    for node in nodes:
        assert node.shape == (len(case["rects"]),)
    concept_maps = [[Tensor(m[c]) for m in case["cross"]] for c in range(len(case["rects"]))]
    chained = chain_terms(geometry, concept_maps, selfs, config.s_ratio, config.p_ratio)
    for c, terms in enumerate(chained):
        for node, term in zip(nodes, terms):
            assert term.shape == ()
            assert node.data[c].tobytes() == term.data.tobytes()


# ------------------------------------------------------------------ gradients


def fused_loss(case, geometry):
    """``composite_loss`` with the cross maps read by two terms, and its traced
    stacked cross maps and self maps."""
    cross = [Tensor(m, requires_grad=True) for m in case["cross"]]
    selfs = [Tensor(m, requires_grad=True) for m in case["selfs"]]
    record = record_of(cross, selfs, case["h"], case["w"])
    return composite_loss(record, geometry, case["config"])[0], cross, selfs


def chain_loss(case, geometry):
    """The same loss summed concept by concept with add, and its traced leaves:
    one list of layer maps per concept, then the shared self maps."""
    config = case["config"]
    concept_maps = [[Tensor(m[c], requires_grad=True) for m in case["cross"]]
                    for c in range(len(geometry.regions))]
    selfs = [Tensor(m, requires_grad=True) for m in case["selfs"]]
    ce, fill, region = (add_chain(list(t)) for t in zip(*chain_terms(
        geometry, concept_maps, selfs, config.s_ratio, config.p_ratio)))
    total = ce + ad.mul(fill, Tensor(config.alpha)) + ad.mul(region, Tensor(config.beta))
    return total, concept_maps, selfs


@PROPERTY
@given(loss_cases())
def test_fused_terms_give_the_chains_gradients_bit_for_bit(case):
    geometry = geometry_of(case["rects"], case["h"], case["w"])
    fused, cross, fused_selfs = fused_loss(case, geometry)
    chained, concept_maps, chain_selfs = chain_loss(case, geometry)
    assert fused.data.tobytes() == chained.data.tobytes()
    for layer, stacked in enumerate(cross):
        slices = grad(fused, stacked).data
        for c, maps in enumerate(concept_maps):
            assert slices[c].tobytes() == grad(chained, maps[layer]).data.tobytes()
    for mine, theirs in zip(fused_selfs, chain_selfs):
        assert grad(fused, mine).data.tobytes() == grad(chained, theirs).data.tobytes()


@PROPERTY
@given(loss_cases(), st.integers(0, 2**32 - 1))
def test_region_term_on_two_heads_equals_its_head_mean_chain_bit_for_bit(case, seed):
    # the term gathers each head's submatrix entries and averages them there;
    # it must round as the chain that averages the whole map's heads first
    h, w, p_ratio = case["h"], case["w"], case["config"].p_ratio
    geometry = geometry_of(case["rects"], h, w)
    rng = np.random.default_rng(seed)
    heads = [np.stack([m, rng.random(m.shape)]) for m in case["selfs"]]
    probs = [Tensor(p, requires_grad=True) for p in heads]
    record = AttnRecord([LayerRecord((h, w), Tensor(c), p)
                         for c, p in zip(case["cross"], probs)])
    node = region_terms(record, geometry, p_ratio)
    fused = add_chain(leading_slices(node))
    chain_probs = [Tensor(p, requires_grad=True) for p in heads]
    means = [ad.mean_heads(p) for p in chain_probs]
    terms = [chain_submatrix(means, geometry.masks[c], top_p(geometry, c, p_ratio))
             for c in range(len(case["rects"]))]
    for c, term in enumerate(terms):
        assert node.data[c].tobytes() == term.data.tobytes()
    chained = add_chain(terms)
    assert fused.data.tobytes() == chained.data.tobytes()
    for mine, theirs in zip(probs, chain_probs):
        assert grad(fused, mine).data.tobytes() == grad(chained, theirs).data.tobytes()


def test_fill_hands_back_its_two_scatters_separately():
    # the map's in-box maximum is both a column and a row maximum and one of
    # the three enhancement picks (the box's Gaussian weight is 1 on all four
    # pixels): three cotangents land on one entry, and only the chain's
    # order, (ce + column) + row, reproduces the chain's bits
    amap = np.array([[0.2, 0.9, 0.0], [0.1, 0.3, 0.0]])
    case = dict(h=2, w=3, rects=[(0, 0, 2, 2)], cross=[amap[None]], selfs=[np.eye(6)],
                config=GuidanceConfig(alpha=0.3, beta=0.8, s_ratio=0.75, p_ratio=0.2))
    geometry = geometry_of(case["rects"], 2, 3)
    fused, cross, selfs = fused_loss(case, geometry)
    chained, concept_maps, _ = chain_loss(case, geometry)
    node = fill_terms(record_of(cross, selfs, 2, 3), geometry)
    assert len(node.parents) == 2 and node.parents[0] is node.parents[1]
    assert (grad(fused, cross[0]).data[0].tobytes()
            == grad(chained, concept_maps[0][0]).data.tobytes())


def test_region_picks_shared_by_two_concepts_add_up():
    # concept 0 is pixel 0, concept 1 pixels 0 and 1 (the top row); both
    # concepts' top entry is (0, 2): its cotangent is the sum of their shares
    self_map = np.full((4, 4), 0.1)
    self_map[0, 2], self_map[1, 2], self_map[0, 3], self_map[1, 3] = 0.9, 0.4, 0.2, 0.2
    geometry = geometry_of([(0, 0, 1, 1), (0, 0, 1, 2)], 2, 2)
    traced = Tensor(self_map, requires_grad=True)
    record = record_of([Tensor(np.zeros((2, 2, 2)))], [traced], 2, 2)
    node = region_terms(record, geometry, 0.3)  # top 1 of 1x3 and top 2 of 2x2
    assert node.data.tolist() == [0.9, (0.9 + 0.4) / 2]
    expected = np.zeros((4, 4))
    expected[0, 2], expected[1, 2] = 1.0 + 0.5, 0.5
    assert np.array_equal(grad(add_chain(leading_slices(node)), traced).data, expected)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_no_concepts_give_empty_terms_and_zero_gradients(layers):
    # a batch of zero (layer, concept) rows still has its layers' shapes
    cross = [Tensor(np.zeros((0, 3, 4)), requires_grad=True) for _ in range(layers)]
    selfs = [Tensor(np.eye(12), requires_grad=True) for _ in range(layers)]
    geometry = geometry_of([], 3, 4)
    record = record_of(cross, selfs, 3, 4)
    nodes = terms_of(record, geometry, GuidanceConfig())
    assert [node.shape for node in nodes] == [(0,)] * 3
    total, _ = composite_loss(record, geometry, GuidanceConfig())
    assert float(total) == 0.0
    for maps, self_map in zip(cross, selfs):
        assert grad(total, maps).shape == (0, 3, 4)
        assert not grad(total, self_map).data.any()


def test_only_the_backward_makes_top_k_picks(monkeypatch):
    # the forward computes values only: with the pick function refusing, a
    # traced and an untraced loss both evaluate, to the same bits, and only the
    # traced loss's backward asks for picks, one per layer, concept and top-k term
    ctx = build_test_context()
    z0 = np.random.default_rng(5).standard_normal((4, 8, 8))
    real = ad.top_k_picks

    def refuse(*args):
        raise AssertionError("picked")

    monkeypatch.setattr(ad, "top_k_picks", refuse)
    z = Tensor(z0, requires_grad=True)
    losses = [composite_loss(encode(latent, 5, ctx)[1], ctx.loss_geometry, GuidanceConfig())[0]
              for latent in (z, Tensor(z0))]
    assert [loss.requires_grad for loss in losses] == [True, False]
    assert losses[0].data.tobytes() == losses[1].data.tobytes()
    with pytest.raises(AssertionError, match="picked"):
        grad(losses[0], z)
    calls = []

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(ad, "top_k_picks", counted)
    grad(losses[0], z)
    assert len(calls) == 2 * 2 * 2


# ------------------------------------------------------------------ errors

# one concept on rows 0-1 and columns 0-1 of a 3 x 4 map: 4 box pixels, each
# of Gaussian weight 1, and a 4 x 8 leakage submatrix
BOX = geometry_of([(0, 0, 2, 2)], 3, 4)
MAP = np.arange(12.0).reshape(1, 3, 4) / 12.0
SELF = np.arange(144.0).reshape(12, 12) / 144.0
HUGE = 1e308


def term_and_chain(term, ratio):
    """The term on BOX's one concept and its chain, both as functions of the
    (cross maps, self map) of one layer."""
    if term == "shortfall":
        k = top_s(BOX, 0, ratio)
        return (lambda m, s: concept_enhancement_terms(record_of([m], [s], 3, 4), BOX, ratio),
                lambda m, s: chain_shortfall([Tensor(m.data[0])], Tensor(BOX.weight[0]), k))
    if term == "fill":
        return (lambda m, s: fill_terms(record_of([m], [s], 3, 4), BOX),
                lambda m, s: chain_fill([Tensor(m.data[0])], BOX.rows[0], BOX.cols[0]))
    k = top_p(BOX, 0, ratio)
    return (lambda m, s: region_terms(record_of([m], [s], 3, 4), BOX, ratio),
            lambda m, s: chain_submatrix([s], BOX.masks[0], k))


ERROR_CASES = {
    # a ratio that gives a top-k count outside [1, size]
    "shortfall k=0": ("shortfall", 0.0, MAP, SELF, ArgumentError),
    "shortfall k>size": ("shortfall", 3.5, MAP, SELF, ArgumentError),  # k = 14 > 12
    "submatrix k=0": ("submatrix", 0.0, MAP, SELF, ArgumentError),
    "submatrix k>size": ("submatrix", 1.1, MAP, SELF, ArgumentError),  # k = 36 > 32
    # a 1-D map: the chain's axis projection and top-k fail on it, the terms
    # reject a record holding it
    "fill 1-D map": ("fill", None, MAP.reshape(1, -1), SELF, ShapeError),
    "submatrix 1-D map": ("submatrix", 0.1, MAP, SELF.reshape(-1), ShapeError),
    # huge maps: a sum overflows
    "shortfall top-k sum overflows": ("shortfall", 0.5, np.full((1, 3, 4), HUGE), SELF,
                                      NumericError),
    "fill mean overflows": ("fill", None, np.full((1, 3, 4), -HUGE), SELF, NumericError),
    "submatrix top-k sum overflows": ("submatrix", 0.1, MAP, np.full((12, 12), HUGE),
                                      NumericError),
}


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_fused_terms_raise_what_their_chains_raise(name):
    term, ratio, cross, self_map, error = ERROR_CASES[name]
    fused, chain = term_and_chain(term, ratio)
    maps = (Tensor(cross), Tensor(self_map))
    # as the sampler does: an overflow reaches the finite checks, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error):
            chain(*maps)
        with pytest.raises(error):
            fused(*maps)


TERMS = {"shortfall": lambda r: concept_enhancement_terms(r, BOX, 0.2),
         "fill": lambda r: fill_terms(r, BOX),
         "submatrix": lambda r: region_terms(r, BOX, 0.2)}


@pytest.mark.parametrize("term", sorted(TERMS))
def test_fused_terms_need_a_map(term):
    with pytest.raises(ArgumentError, match="empty attention record"):
        TERMS[term](AttnRecord())


@pytest.mark.parametrize("term", sorted(TERMS))
def test_fused_terms_need_one_entry_per_concept(term):
    record = record_of([Tensor(np.concatenate([MAP, MAP]))], [Tensor(SELF)], 3, 4)
    with pytest.raises(ArgumentError, match="do not fit the geometry"):
        TERMS[term](record)


def test_fused_terms_need_layer_maps_of_one_shape():
    record = record_of([Tensor(MAP), Tensor(np.concatenate([MAP, MAP]))],
                       [Tensor(SELF), Tensor(SELF)], 3, 4)
    with pytest.raises(ArgumentError, match="do not fit the geometry"):
        fill_terms(record, BOX)


MISFITS = {
    # a record of another resolution
    "resolution": (lambda: record_of([Tensor(MAP)], [Tensor(SELF)], 4, 3),
                   ArgumentError, "does not match loss resolution"),
    "self map size": (lambda: record_of([Tensor(MAP)], [Tensor(SELF[:6, :6])], 3, 4),
                      ShapeError, "do not fit the geometry"),
    "cross maps 1-D": (lambda: record_of([Tensor(MAP.reshape(-1))], [Tensor(SELF)], 3, 4),
                       ShapeError, "do not fit the geometry"),
    "self map 1-D": (lambda: record_of([Tensor(MAP)], [Tensor(SELF.reshape(-1))], 3, 4),
                     ShapeError, "do not fit the geometry"),
    # a head mean where the per-head probabilities belong
    "self map without heads": (
        lambda: AttnRecord([LayerRecord((3, 4), Tensor(MAP), Tensor(SELF))]),
        ShapeError, r"self-attention \(12, 12\) do not fit the geometry's .* \(heads, 12, 12\)"),
}


# every reader of the loss layers: the terms, and the layer mean that re-init's
# crop search, the in-box mass and the attention dump read
READERS = {**TERMS, "averaged maps": lambda r: r.averaged_cross_maps(BOX)}


@pytest.mark.parametrize("term", sorted(READERS))
@pytest.mark.parametrize("misfit", sorted(MISFITS))
def test_terms_reject_a_record_that_does_not_fit_the_geometry(misfit, term):
    record, error, message = MISFITS[misfit]
    with pytest.raises(error, match=message):
        READERS[term](record())

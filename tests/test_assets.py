from __future__ import annotations

import dataclasses
import struct
import warnings

import numpy as np
import pytest

from loracanvas import tensorio
from loracanvas.assets import (
    ConceptBundle,
    LoraDelta,
    ModelDims,
    apply_projection,
    gen_prompt_embedding,
    gen_synthetic_bundle,
    generate_base_weights,
    load_bundle,
    synth_bundle,
    write_bundle,
)
from loracanvas.autodiff import Tensor, transpose2d
from loracanvas.errors import (
    ArgumentError,
    DataError,
    FormatError,
    ShapeError,
    ValidationError,
)


# ------------------------------------------------------------ container


def test_container_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "c": np.array(2.5),
    }
    p1 = tmp_path / "one.lcb"
    p2 = tmp_path / "two.lcb"
    tensorio.write_container(p1, tensors)
    loaded = tensorio.read_container(p1)
    tensorio.write_container(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert list(loaded) == ["a", "b", "c"]
    assert loaded["c"].shape == ()


def test_container_bad_magic(tmp_path):
    p = tmp_path / "bad.lcb"
    p.write_bytes(b"XXXX" + bytes(8))
    with pytest.raises(FormatError):
        tensorio.read_container(p)


def test_container_bad_version(tmp_path):
    p = tmp_path / "bad.lcb"
    p.write_bytes(b"LCB1" + struct.pack("<II", 9, 0))
    with pytest.raises(FormatError):
        tensorio.read_container(p)


def test_container_truncated_payload_names_tensor(tmp_path):
    p = tmp_path / "full.lcb"
    tensorio.write_container(p, {"first": np.zeros(2), "victim": np.ones((4, 4))})
    raw = p.read_bytes()
    cut = tmp_path / "cut.lcb"
    cut.write_bytes(raw[:-8])
    with pytest.raises(DataError, match="victim"):
        tensorio.read_container(cut)


def test_container_rejects_non_finite(tmp_path):
    p = tmp_path / "nan.lcb"
    name = b"bad"
    payload = np.array([np.nan], dtype="<f4").tobytes()
    raw = (b"LCB1" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name)) + name
           + struct.pack("<B", 1) + struct.pack("<I", 1) + payload)
    p.write_bytes(raw)
    with pytest.raises(DataError, match="bad"):
        tensorio.read_container(p)


@pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
def test_container_write_rejects_values_not_finite_as_float32(tmp_path, value):
    p = tmp_path / "x.lcb"
    tensorio.write_container(p, {"x": np.zeros(2)})
    before = p.read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a float32 overflow warning fails the test
        with pytest.raises(DataError, match="'big'"):
            tensorio.write_container(p, {"x": np.ones(2), "big": np.array([1.0, value])})
    assert p.read_bytes() == before


def test_container_write_rejects_a_name_longer_than_its_length_field(tmp_path):
    p = tmp_path / "x.lcb"
    with pytest.raises(ArgumentError, match="tensor name too long"):
        tensorio.write_container(p, {"x" * 0x10000: np.zeros(1)})
    assert not p.exists()


def test_container_float32_max_round_trips(tmp_path):
    p = tmp_path / "max.lcb"
    top = np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max])
    tensorio.write_container(p, {"top": top})
    assert np.array_equal(tensorio.read_container(p)["top"], top)


def test_container_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        tensorio.read_container(tmp_path / "nowhere.lcb")


def test_container_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "pad.lcb"
    tensorio.write_container(p, {"x": np.zeros(1)})
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(DataError):
        tensorio.read_container(p)


def _one_tensor_container(name: bytes, dims: tuple[int, ...], payload: bytes) -> bytes:
    return (b"LCB1" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims) + payload)


def test_container_rejects_a_signalling_nan_without_a_warning(tmp_path):
    p = tmp_path / "snan.lcb"
    p.write_bytes(_one_tensor_container(b"quiet", (2,), struct.pack("<2I", 0, 0x7F800001)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the float64 cast warns on a signalling NaN
        with pytest.raises(DataError, match="non-finite values in tensor 'quiet'"):
            tensorio.read_container(p)


def test_container_rejects_name_that_is_not_utf8(tmp_path):
    p = tmp_path / "name.lcb"
    p.write_bytes(_one_tensor_container(b"\xffx", (1,), bytes(4)))
    with pytest.raises(DataError, match="UTF-8"):
        tensorio.read_container(p)


def test_container_rejects_dims_whose_product_wraps_int64(tmp_path):
    # 65536**4 == 2**64 is 0 in int64 arithmetic
    p = tmp_path / "dims.lcb"
    p.write_bytes(_one_tensor_container(b"huge", (65536,) * 4, b""))
    with pytest.raises(DataError, match="huge"):
        tensorio.read_container(p)


def test_container_rejects_more_dims_than_numpy_supports(tmp_path):
    p = tmp_path / "deep.lcb"
    p.write_bytes(_one_tensor_container(b"deep", (1,) * 65, bytes(4)))
    with pytest.raises(DataError, match="deep"):
        tensorio.read_container(p)


def test_container_rejects_repeated_name(tmp_path):
    p = tmp_path / "twice.lcb"
    one = _one_tensor_container(b"x", (1,), bytes(4))
    p.write_bytes(b"LCB1" + struct.pack("<II", 1, 2) + one[12:] + one[12:])
    with pytest.raises(DataError, match="twice"):
        tensorio.read_container(p)


# ------------------------------------------------------------ deltas


def test_lora_delta_rank_and_merge():
    delta = LoraDelta(down=np.ones((2, 5)), up=np.ones((4, 2)), scale=0.5)
    assert delta.rank == 2
    assert np.allclose(delta.merged(), np.full((4, 5), 1.0))


def test_lora_delta_rejects_rank_above_dims():
    with pytest.raises(ValidationError):
        LoraDelta(down=np.ones((5, 3)), up=np.ones((4, 5)), scale=1.0)


def test_apply_projection_no_delta_is_exact_base():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((6, 4))
    x = rng.standard_normal((3, 4))
    out = apply_projection(Tensor(x), base)
    assert np.array_equal(out.data, x @ base.T)


def test_apply_projection_scale_zero_is_bit_exact_base():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((6, 4))
    delta = LoraDelta(down=rng.standard_normal((2, 4)),
                      up=rng.standard_normal((6, 2)), scale=0.0)
    x = rng.standard_normal((3, 4))
    with_delta = apply_projection(Tensor(x), base, delta)
    without = apply_projection(Tensor(x), base)
    assert np.array_equal(with_delta.data, without.data)


def test_apply_projection_one_dimensional_hand_case():
    out = apply_projection(Tensor([[1.0]]), np.array([[1.0]]),
                           LoraDelta(down=np.array([[3.0]]),
                                     up=np.array([[2.0]]), scale=1.0))
    assert out.data.tolist() == [[7.0]]


def test_apply_projection_matches_dense_merge_oracle():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((8, 8))
    delta = LoraDelta(down=rng.standard_normal((4, 8)),
                      up=rng.standard_normal((8, 4)), scale=0.7)
    x = rng.standard_normal((5, 8))
    expected = x @ (base + 0.7 * (delta.up @ delta.down)).T
    out = apply_projection(Tensor(x), base, delta)
    assert np.max(np.abs(out.data - expected)) < 1e-12


# ------------------------------------------------------------ bundles


def test_synthetic_bundle_round_trip(tmp_path):
    path = gen_synthetic_bundle(5, tmp_path / "cat.lcb", tokens=6, d_text=8,
                                d_model=12, rank=4)
    bundle = load_bundle(path)
    assert bundle.concept_id == "cat"
    assert bundle.token_index == 1
    assert bundle.prompt_embed.shape == (6, 8)
    rewritten = write_bundle(tmp_path / "copy.lcb", bundle)
    assert path.read_bytes() == rewritten.read_bytes()


def test_synthetic_bundle_same_seed_bit_identical(tmp_path):
    a = gen_synthetic_bundle(9, tmp_path / "a.lcb", tokens=4, d_text=8, d_model=8)
    b = gen_synthetic_bundle(9, tmp_path / "b.lcb", tokens=4, d_text=8, d_model=8)
    assert a.read_bytes() == b.read_bytes()


def test_synthetic_bundle_seed_sensitivity(tmp_path):
    a = gen_synthetic_bundle(0, tmp_path / "a.lcb", tokens=4, d_text=8, d_model=8)
    b = gen_synthetic_bundle(1, tmp_path / "b.lcb", tokens=4, d_text=8, d_model=8)
    assert a.read_bytes() != b.read_bytes()


def test_synthetic_bundle_rank_bound_svd_oracle(tmp_path):
    path = gen_synthetic_bundle(21, tmp_path / "c.lcb", tokens=4, d_text=8,
                                d_model=8, rank=4)
    bundle = load_bundle(path)
    for delta in bundle.deltas.values():
        sv = np.linalg.svd(delta.merged(), compute_uv=False)
        assert sv[4] / sv[0] < 1e-10


def test_synthetic_bundle_invalid_dims():
    with pytest.raises(ArgumentError):
        gen_synthetic_bundle(0, "/tmp/x.lcb", tokens=4, d_text=2, d_model=8, rank=4)
    with pytest.raises(ArgumentError):
        gen_synthetic_bundle(0, "/tmp/x.lcb", tokens=1, d_text=8, d_model=8)
    with pytest.raises(ArgumentError, match="must be positive"):
        synth_bundle(0, tokens=4, d_text=8, d_model=0)


BUNDLE = synth_bundle(3, tokens=2, d_text=4, d_model=4)


@pytest.mark.parametrize("call, error, match", [
    (lambda out: apply_projection(Tensor(np.ones((2, 4))), np.ones(4)), ShapeError,
     "must be a matrix"),
    (lambda out: apply_projection(Tensor(np.ones((2, 3))), np.ones((4, 5))), ShapeError,
     "cannot project"),
    (lambda out: apply_projection(Tensor(np.ones((2, 5))), np.ones((3, 5)),
                                  BUNDLE.deltas["cross.W_K"]), ShapeError,
     "does not match base"),
    (lambda out: write_bundle(out / "b.lcb", dataclasses.replace(BUNDLE, deltas={
        **BUNDLE.deltas, "cross.W_V": dataclasses.replace(BUNDLE.deltas["cross.W_V"], scale=2.0)})),
     ValidationError, "single shared delta scale"),
    (lambda out: write_bundle(out / "b.lcb", dataclasses.replace(
        BUNDLE, deltas={"cross.W_K": BUNDLE.deltas["cross.W_K"]})), ValidationError,
     "missing the cross.W_V delta"),
    (lambda out: gen_prompt_embedding(0, 0, 4), ArgumentError, "must be positive"),
], ids=["projection_by_a_vector", "projection_width", "delta_shape", "two_delta_scales",
        "missing_delta", "empty_prompt_embedding"])
def test_asset_functions_reject_malformed_inputs(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)
    assert not (tmp_path / "b.lcb").exists()


def test_load_bundle_missing_tensor(tmp_path):
    p = tmp_path / "broken.lcb"
    tensorio.write_container(p, {"prompt_embed": np.zeros((2, 2))})
    with pytest.raises(ValidationError, match="token_index"):
        load_bundle(p)


@pytest.mark.parametrize("scale", [np.zeros(0), np.array([0.5, 2.0])])
def test_load_bundle_scale_must_hold_one_element(tmp_path, scale):
    p = gen_synthetic_bundle(3, tmp_path / "b.lcb", tokens=2, d_text=4, d_model=4)
    tensors = tensorio.read_container(p)
    tensors["scale"] = scale
    tensorio.write_container(p, tensors)
    with pytest.raises(ValidationError, match="scale must hold one element"):
        load_bundle(p)


def test_load_bundle_bad_magic(tmp_path):
    p = tmp_path / "junk.lcb"
    p.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(FormatError):
        load_bundle(p)


def test_bundle_token_index_validated():
    with pytest.raises(ValidationError):
        ConceptBundle(concept_id="x", prompt_embed=np.zeros((2, 3)), token_index=2)


def test_bundle_delta_dtext_validated():
    delta = LoraDelta(down=np.zeros((1, 5)), up=np.zeros((4, 1)), scale=1.0)
    with pytest.raises(ValidationError):
        ConceptBundle(concept_id="x", prompt_embed=np.zeros((2, 3)),
                      token_index=0, deltas={"cross.W_K": delta})


# ------------------------------------------------------------ base weights


def test_base_weights_deterministic_and_shaped():
    dims = ModelDims()
    w1 = generate_base_weights(42, dims)
    w2 = generate_base_weights(42, dims)
    assert np.array_equal(w1.w_in, w2.w_in)
    assert len(w1.blocks) == 3
    assert w1.w_in.shape == (dims.d_model, dims.channels)
    assert w1.w_out.shape == (dims.channels, dims.d_model)
    blk = w1.blocks[0]
    assert blk.self_attn.wq.shape == (dims.d_model, dims.d_model)
    assert blk.cross_attn.wk.shape == (dims.d_model, dims.d_text)
    assert np.array_equal(w1.blocks[2].cross_attn.wv, w2.blocks[2].cross_attn.wv)
    assert not np.array_equal(w1.blocks[0].self_attn.wq,
                              generate_base_weights(43, dims).blocks[0].self_attn.wq)


OPERANDS = ("wq_t", "wk_t", "wv_t", "wo_t")


def test_weight_operands_are_the_transposed_weights_built_once():
    weights = generate_base_weights(42, ModelDims())
    pairs = [(weights, "w_in_t", weights.w_in), (weights, "w_out_t", weights.w_out)]
    for block in weights.blocks:
        for attn in (block.self_attn, block.cross_attn):
            pairs += [(attn, name, getattr(attn, name[:-2])) for name in OPERANDS]
    for owner, name, w in pairs:
        assert name not in vars(owner)  # nothing is built with the weights
        operand = getattr(owner, name)
        # the bytes and layout a traced transpose of the weight gives
        assert operand.data.flags.c_contiguous
        assert operand.data.tobytes() == transpose2d(Tensor(w)).data.tobytes()
        assert not operand.requires_grad
        assert getattr(owner, name) is operand


def test_replaced_weights_build_their_own_operands():
    attn = generate_base_weights(42, ModelDims()).blocks[0].self_attn
    before = attn.wq_t
    swapped = dataclasses.replace(attn, wq=np.eye(attn.wq.shape[0]))
    assert np.array_equal(swapped.wq_t.data, np.eye(attn.wq.shape[0]))
    assert attn.wq_t is before
    weights = generate_base_weights(42, ModelDims())
    _ = weights.w_out_t
    zeroed = dataclasses.replace(weights, w_out=np.zeros_like(weights.w_out))
    assert not zeroed.w_out_t.data.any()


def test_model_dims_validation():
    with pytest.raises(ArgumentError):
        ModelDims(height=15)
    with pytest.raises(ArgumentError):
        ModelDims(d_model=10, n_heads=4)
    with pytest.raises(ArgumentError, match="must be positive"):
        ModelDims(channels=0)

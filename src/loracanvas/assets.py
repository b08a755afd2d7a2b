"""Concept bundles, low-rank projection deltas and seeded base weights.

A concept bundle packs everything one concept contributes at composition
time: a precomputed local prompt embedding, the index of the concept
token inside it, and rank-r updates for the cross-attention key and value
projections. Bundles are immutable after load and safe to share between
concurrent sampling jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import tensorio
from .autodiff import Tensor, matmul
from .errors import ArgumentError, ShapeError, ValidationError

# bump when the draw order or scaling of any seeded generator changes
GENERATOR_VERSION = 1

_WEIGHTS_STREAM = 11
_BUNDLE_STREAM = 12
_EMBED_STREAM = 13

# cross-attention logits get extra gain so token attention can actually
# saturate under guidance; the output head starts small, as diffusion
# U-Nets conventionally do, which keeps the sampler feedback loop tame
_CROSS_QK_GAIN = 2.0
_OUT_HEAD_SCALE = 0.05

_DELTA_NAMES = ("cross.W_K", "cross.W_V")


@dataclass(frozen=True)
class LoraDelta:
    """Rank-r weight update ``scale * up @ down`` for one projection."""

    down: np.ndarray  # (r, d_in)
    up: np.ndarray    # (d_out, r)
    scale: float

    def __post_init__(self):
        if self.down.ndim != 2 or self.up.ndim != 2:
            raise ValidationError("delta factors must be matrices")
        if self.up.shape[1] != self.down.shape[0]:
            raise ValidationError(
                f"rank mismatch: up {self.up.shape} vs down {self.down.shape}")
        if self.rank > min(self.down.shape[1], self.up.shape[0]):
            raise ValidationError(
                f"rank {self.rank} exceeds min({self.down.shape[1]}, {self.up.shape[0]})")

    @property
    def rank(self) -> int:
        return self.down.shape[0]

    def merged(self) -> np.ndarray:
        """Dense (d_out, d_in) update."""
        return self.scale * (self.up @ self.down)


@dataclass(frozen=True)
class ConceptBundle:
    """Per-concept asset pack consumed by region-aware cross-attention."""

    concept_id: str
    prompt_embed: np.ndarray  # (tokens, d_text)
    token_index: int
    deltas: dict[str, LoraDelta] = field(default_factory=dict)

    def __post_init__(self):
        if self.prompt_embed.ndim != 2:
            raise ValidationError("prompt_embed must be (tokens, d_text)")
        tokens, d_text = self.prompt_embed.shape
        if not 0 <= self.token_index < tokens:
            raise ValidationError(
                f"token_index {self.token_index} outside [0, {tokens})")
        for name, delta in self.deltas.items():
            if delta.down.shape[1] != d_text:
                raise ValidationError(
                    f"{name}: delta input dim {delta.down.shape[1]} != d_text {d_text}")
        d_outs = {d.up.shape[0] for d in self.deltas.values()}
        if len(d_outs) > 1:
            raise ValidationError(f"deltas disagree on output dim: {sorted(d_outs)}")


def _operand(w: np.ndarray) -> Tensor:
    """``w.T`` as a constant right-hand matmul operand.

    A C-contiguous copy, the layout ``transpose2d`` gives, so products with it
    round exactly as products with a transposed tensor do.
    """
    return Tensor(np.ascontiguousarray(w.T, dtype=np.float64))


def apply_projection(x: Tensor, base: np.ndarray, delta: LoraDelta | None = None) -> Tensor:
    """Project rows of x through ``base`` merged with an optional delta.

    Computes ``x @ (base + scale * up @ down).T``; with no delta this is
    exactly the base projection.
    """
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2:
        raise ShapeError("base projection must be a matrix")
    if x.data.ndim != 2 or x.shape[1] != base.shape[1]:
        raise ShapeError(f"cannot project {x.shape} through {base.shape}")
    weight = base
    if delta is not None:
        update = delta.merged()
        if update.shape != base.shape:
            raise ShapeError(
                f"delta shape {update.shape} does not match base {base.shape}")
        weight = base + update
    return matmul(x, _operand(weight))


# -- bundle container ------------------------------------------------------


def write_bundle(path: str | Path, bundle: ConceptBundle) -> Path:
    """Serialize a bundle into the tensor container format."""
    tensors: dict[str, np.ndarray] = {
        "prompt_embed": bundle.prompt_embed,
        "token_index": np.array([float(bundle.token_index)]),
    }
    scales = {d.scale for d in bundle.deltas.values()}
    if len(scales) > 1:
        raise ValidationError("the container stores a single shared delta scale")
    for name in _DELTA_NAMES:
        delta = bundle.deltas.get(name)
        if delta is None:
            raise ValidationError(f"bundle is missing the {name} delta")
        tensors[f"{name}.down"] = delta.down
        tensors[f"{name}.up"] = delta.up
    tensors["scale"] = np.array(next(iter(scales)))
    path = Path(path)
    tensorio.write_container(path, tensors)
    return path


def load_bundle(path: str | Path) -> ConceptBundle:
    """Load and validate a bundle; the concept id is the file stem."""
    path = Path(path)
    tensors = tensorio.read_container(path)
    for required in ("prompt_embed", "token_index", "scale",
                     *(f"{n}.{p}" for n in _DELTA_NAMES for p in ("down", "up"))):
        if required not in tensors:
            raise ValidationError(f"{path}: missing tensor {required!r}")
    raw_index = tensors["token_index"].reshape(-1)
    if raw_index.size != 1:
        raise ValidationError(f"{path}: token_index must hold one element")
    token_index = float(raw_index[0])
    if token_index != int(token_index):
        raise ValidationError(f"{path}: token_index {token_index} is not integral")
    raw_scale = tensors["scale"].reshape(-1)
    if raw_scale.size != 1:
        raise ValidationError(f"{path}: scale must hold one element")
    scale = float(raw_scale[0])
    deltas = {
        name: LoraDelta(down=tensors[f"{name}.down"], up=tensors[f"{name}.up"],
                        scale=scale)
        for name in _DELTA_NAMES
    }
    return ConceptBundle(
        concept_id=path.stem,
        prompt_embed=tensors["prompt_embed"],
        token_index=int(token_index),
        deltas=deltas,
    )


def synth_bundle(seed: int, *, tokens: int, d_text: int, d_model: int,
                 rank: int = 4, scale: float = 1.0,
                 concept_id: str = "concept") -> ConceptBundle:
    """Deterministic in-memory bundle (stands in for trained assets).

    The prompt embedding is a seeded standard normal; delta factors are
    seeded normals scaled by 1/sqrt(rank); the concept token sits at
    index 1.
    """
    if min(tokens, d_text, d_model, rank) < 1:
        raise ArgumentError("all bundle dimensions must be positive")
    if tokens < 2:
        raise ArgumentError("need at least 2 tokens to place the concept token")
    if rank > min(d_text, d_model):
        raise ArgumentError(f"rank {rank} exceeds min({d_text}, {d_model})")
    rng = np.random.default_rng([GENERATOR_VERSION, _BUNDLE_STREAM, seed])
    prompt_embed = rng.standard_normal((tokens, d_text))
    deltas = {}
    for name in _DELTA_NAMES:
        down = rng.standard_normal((rank, d_text)) / np.sqrt(rank)
        up = rng.standard_normal((d_model, rank)) / np.sqrt(rank)
        deltas[name] = LoraDelta(down=down, up=up, scale=scale)
    return ConceptBundle(concept_id=concept_id, prompt_embed=prompt_embed,
                         token_index=1, deltas=deltas)


def gen_synthetic_bundle(seed: int, path: str | Path, *, tokens: int, d_text: int,
                         d_model: int, rank: int = 4, scale: float = 1.0) -> Path:
    """Write a synthetic bundle; same seed always yields identical bytes."""
    bundle = synth_bundle(seed, tokens=tokens, d_text=d_text, d_model=d_model,
                          rank=rank, scale=scale)
    return write_bundle(path, bundle)


def gen_prompt_embedding(seed: int, tokens: int, d_text: int) -> np.ndarray:
    """Seeded standard-normal prompt embedding (the n=0 global prompt)."""
    if tokens < 1 or d_text < 1:
        raise ArgumentError("embedding dimensions must be positive")
    rng = np.random.default_rng([GENERATOR_VERSION, _EMBED_STREAM, seed])
    return rng.standard_normal((tokens, d_text))


# -- base weights -----------------------------------------------------------


@dataclass(frozen=True)
class ModelDims:
    """Toy stack dimensions: two full-resolution blocks plus one pooled."""

    channels: int = 8
    height: int = 16
    width: int = 16
    d_model: int = 16
    n_heads: int = 2
    d_text: int = 32

    def __post_init__(self):
        if min(self.channels, self.height, self.width, self.d_model,
               self.n_heads, self.d_text) < 1:
            raise ArgumentError("model dimensions must be positive")
        if self.height % 2 or self.width % 2:
            raise ArgumentError("latent extents must be even for 2x2 pooling")
        if self.d_model % self.n_heads:
            raise ArgumentError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads")


# The transposed operands below are built on first use and kept by the
# instance, so weight generation stays cheap and a ``dataclasses.replace``d
# copy builds its own.


@dataclass(frozen=True)
class AttentionWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    @cached_property
    def wq_t(self) -> Tensor:
        return _operand(self.wq)

    @cached_property
    def wk_t(self) -> Tensor:
        return _operand(self.wk)

    @cached_property
    def wv_t(self) -> Tensor:
        return _operand(self.wv)

    @cached_property
    def wo_t(self) -> Tensor:
        return _operand(self.wo)


@dataclass(frozen=True)
class BlockWeights:
    self_attn: AttentionWeights
    cross_attn: AttentionWeights


@dataclass(frozen=True)
class BaseWeights:
    """Frozen 'pre-trained' weights; ``generate_base_weights`` draws them from a seed."""

    dims: ModelDims
    w_in: np.ndarray   # (d_model, channels)
    w_out: np.ndarray  # (channels, d_model)
    blocks: tuple[BlockWeights, ...]

    @cached_property
    def w_in_t(self) -> Tensor:
        return _operand(self.w_in)

    @cached_property
    def w_out_t(self) -> Tensor:
        return _operand(self.w_out)


def generate_base_weights(seed: int, dims: ModelDims) -> BaseWeights:
    """Named, versioned weight generator; draw order is part of the contract."""
    rng = np.random.default_rng([GENERATOR_VERSION, _WEIGHTS_STREAM, seed])
    d = dims.d_model

    def draw(rows: int, cols: int, gain: float = 1.0) -> np.ndarray:
        w = rng.standard_normal((rows, cols)) / np.sqrt(cols)
        if gain != 1.0:
            w = w * gain
        w.flags.writeable = False
        return w

    w_in = draw(d, dims.channels)
    blocks = []
    for _ in range(3):  # the denoiser's two full-resolution blocks and one pooled
        self_attn = AttentionWeights(
            wq=draw(d, d), wk=draw(d, d), wv=draw(d, d), wo=draw(d, d))
        cross_attn = AttentionWeights(
            wq=draw(d, d, _CROSS_QK_GAIN), wk=draw(d, dims.d_text, _CROSS_QK_GAIN),
            wv=draw(d, dims.d_text), wo=draw(d, d))
        blocks.append(BlockWeights(self_attn=self_attn, cross_attn=cross_attn))
    w_out = draw(dims.channels, d, _OUT_HEAD_SCALE)
    return BaseWeights(dims=dims, w_in=w_in, w_out=w_out, blocks=tuple(blocks))

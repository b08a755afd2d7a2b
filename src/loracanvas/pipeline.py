"""Deterministic sampling pipeline: schedule, DDIM steps, orchestration.

A run is fully determined by its configuration: the same seed reproduces
base weights, initial noise, re-initialization, every guidance update and
therefore byte-identical artifacts (trace.csv, latent dump, preview).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensorio
from .assets import ModelDims, generate_base_weights, load_bundle
from .attention import LayoutCondition, RegionSpec
from .autodiff import Tensor, mean_heads
from .denoiser import DenoiserContext, build_context, denoiser_forward, encode
from .errors import ArgumentError, ConfigurationError, NumericError
from .guidance import (
    GuidanceConfig,
    TraceRow,
    guided_update,
    in_guidance_window,
    inbox_mass_fractions,
)
from .reinit import initial_latent, reinitialize

# alpha_bar at t = 0 and t = T
ALPHA_BAR_CLEAN = 0.999
ALPHA_BAR_NOISY = 0.01


@dataclass(frozen=True)
class LatentState:
    z: np.ndarray  # (channels, height, width)
    t: int


@dataclass(frozen=True)
class SamplerSchedule:
    """Cumulative signal coefficients, linear in t, indexed by timestep."""

    steps: int
    alpha_bar: np.ndarray  # length steps + 1

    @classmethod
    def linear(cls, steps: int = 25) -> "SamplerSchedule":
        if steps < 1:
            raise ArgumentError("schedule needs at least one step")
        t = np.arange(steps + 1) / steps
        return cls(steps=steps,
                   alpha_bar=ALPHA_BAR_CLEAN + (ALPHA_BAR_NOISY - ALPHA_BAR_CLEAN) * t)

    def __post_init__(self):
        if len(self.alpha_bar) != self.steps + 1:
            raise ArgumentError("alpha_bar must have steps + 1 entries")
        if not np.all((self.alpha_bar > 0) & (self.alpha_bar < 1)):
            raise ArgumentError("alpha_bar values must lie in (0, 1)")
        if not np.all(np.diff(self.alpha_bar) < 0):
            raise ArgumentError("alpha_bar must increase as t decreases")


def ddim_step(z_t: np.ndarray, epsilon_hat: np.ndarray, t: int,
              schedule: SamplerSchedule) -> np.ndarray:
    """One deterministic denoising step (eta = 0)."""
    if t < 1 or t > schedule.steps:
        raise ArgumentError(f"cannot step from timestep {t}")
    a_t = schedule.alpha_bar[t]
    a_prev = schedule.alpha_bar[t - 1]
    x0 = (z_t - np.sqrt(1.0 - a_t) * epsilon_hat) / np.sqrt(a_t)
    return np.sqrt(a_prev) * x0 + np.sqrt(1.0 - a_prev) * epsilon_hat


def decode_preview(z: np.ndarray) -> np.ndarray:
    """Channel mean rescaled to an 8-bit grayscale image."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ArgumentError("latent must be (channels, height, width)")
    mean = z.mean(axis=0)
    lo, hi = mean.min(), mean.max()
    if hi == lo:
        return np.full(mean.shape, 128, dtype=np.uint8)
    return np.rint((mean - lo) / (hi - lo) * 255.0).astype(np.uint8)


def write_pgm(path: str | Path, image: np.ndarray) -> Path:
    """Binary PGM (P5), maxval 255."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ArgumentError("preview image must be 2-D")
    h, w = image.shape
    path = Path(path)
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes())
    return path


def write_trace(path: str | Path, rows: list[TraceRow]) -> Path:
    path = Path(path)
    names = [f.name for f in fields(TraceRow)]
    lines = [",".join(names)]
    # every field is an int or a Python float, whose repr is its shortest round-trip text
    lines += [",".join(repr(getattr(r, name)) for name in names) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


# ------------------------------------------------------------------ config


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one sampling run."""

    seed: int
    steps: int
    channels: int
    height: int
    width: int
    d_model: int
    n_heads: int
    guidance: GuidanceConfig
    global_prompt_embed: Path
    regions: tuple[tuple[tuple[float, float, float, float], Path], ...]
    output_dir: Path
    dump_attention: bool = False
    reinit: bool = True

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str | Path = ".") -> "RunConfig":
        base = Path(base_dir)

        def resolve(key: str, value) -> Path:
            candidate = Path(_json_typed(key, value, str))
            return candidate if candidate.is_absolute() else base / candidate

        raw = _json_object("run config", raw, ("seed", "steps", "latent", "model", "guidance",
                                               "global_prompt_embed", "regions", "output_dir",
                                               "dump_attention", "reinit"))
        try:
            latent = _json_object("latent", raw.get("latent", {}), ("channels", "height", "width"))
            model = _json_object("model", raw.get("model", {}), ("d_model", "heads"))
            regions = []
            for i, entry in enumerate(_json_typed("regions", raw.get("regions", []), list)):
                entry = _json_object(f"region {i}", entry, ("box", "bundle"))
                box = _json_typed(f"region {i} box", entry["box"], list)
                regions.append((tuple(_json_number(f"region {i} box", v) for v in box),
                                resolve(f"region {i} bundle", entry["bundle"])))
            config = cls(
                seed=_json_typed("seed", raw["seed"], int),
                steps=_json_typed("steps", raw.get("steps", 25), int),
                channels=_json_typed("latent.channels", latent.get("channels", 8), int),
                height=_json_typed("latent.height", latent.get("height", 16), int),
                width=_json_typed("latent.width", latent.get("width", 16), int),
                d_model=_json_typed("model.d_model", model.get("d_model", 16), int),
                n_heads=_json_typed("model.heads", model.get("heads", 2), int),
                guidance=GuidanceConfig(**_json_object("guidance", raw.get("guidance", {}), tuple(
                    f.name for f in fields(GuidanceConfig)))),
                global_prompt_embed=resolve("global_prompt_embed", raw["global_prompt_embed"]),
                regions=tuple(regions),
                output_dir=resolve("output_dir", raw.get("output_dir", "out")),
                dump_attention=_json_typed("dump_attention",
                                           raw.get("dump_attention", False), bool),
                reinit=_json_typed("reinit", raw.get("reinit", True), bool),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid run config: {exc}") from exc
        if config.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {config.seed}")
        if config.steps < 1:
            raise ConfigurationError("steps must be positive")
        for key, value in (("latent.channels", config.channels), ("latent.height", config.height),
                           ("latent.width", config.width), ("model.d_model", config.d_model),
                           ("model.heads", config.n_heads)):
            if value < 1:
                raise ConfigurationError(f"{key} must be positive, got {value}")
        for key, value in (("latent.height", config.height), ("latent.width", config.width)):
            if value % 2:
                raise ConfigurationError(f"{key} must be even for 2x2 pooling, got {value}")
        if config.d_model % config.n_heads:
            raise ConfigurationError(f"model.d_model {config.d_model} is not divisible by "
                                     f"model.heads {config.n_heads}")
        # a concept's id is its bundle's file stem
        first: dict[str, int] = {}
        for i, (box, path) in enumerate(config.regions):
            if len(box) != 4:
                raise ConfigurationError(
                    f"region {i}: box needs 4 numbers [x0, y0, x1, y1], got {len(box)}")
            x0, y0, x1, y1 = box
            if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
                raise ConfigurationError(f"region {i} box {list(box)} must satisfy "
                                         f"0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1")
            j = first.setdefault(path.stem, i)
            if j != i:
                raise ConfigurationError(
                    f"regions {j} and {i} share concept id {path.stem!r}: bundles "
                    f"{config.regions[j][1]} and {path}")
        return config


def _json_typed(key: str, value, kind: type):
    """A config value that must have the JSON type ``kind`` (true is no integer)."""
    if type(value) is not kind:
        raise ConfigurationError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


def _json_object(key: str, value, names) -> dict:
    """A config section that must be a JSON object holding only the keys ``names``."""
    for name in _json_typed(key, value, dict):
        if name not in names:
            raise ConfigurationError(f"{key} has an unknown key {name!r}, not one of {names}")
    return value


def _json_number(key: str, value) -> float:
    """A config value that must be a JSON number (true and "0.5" are none)."""
    if type(value) not in (int, float):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    return float(value)


def prepare(config: RunConfig) -> tuple[DenoiserContext, SamplerSchedule]:
    """Load assets, generate weights and rasterize the layout."""
    embed_tensors = tensorio.read_container(config.global_prompt_embed)
    if "prompt_embed" not in embed_tensors:
        raise ConfigurationError(
            f"{config.global_prompt_embed} holds no 'prompt_embed' tensor")
    global_embed = embed_tensors["prompt_embed"]
    if global_embed.ndim != 2 or not global_embed.size:
        raise ConfigurationError(
            f"global prompt embedding must be 2-D with at least one token and one column; "
            f"{config.global_prompt_embed} holds 'prompt_embed' of shape {global_embed.shape}")
    dims = ModelDims(channels=config.channels, height=config.height,
                     width=config.width, d_model=config.d_model,
                     n_heads=config.n_heads, d_text=global_embed.shape[1])
    weights = generate_base_weights(config.seed, dims)
    bundles = {}
    regions = []
    for box, bundle_path in config.regions:
        bundle = load_bundle(bundle_path)
        bundles[bundle.concept_id] = bundle
        regions.append(RegionSpec(box=box, concept_id=bundle.concept_id))
    layout = LayoutCondition(regions=tuple(regions), global_prompt_embed=global_embed)
    ctx = build_context(weights, layout, bundles)
    if config.reinit or config.guidance.guidance_fraction > 0.0:
        # the region loss measures leakage out of each box
        for i, (region, mask) in enumerate(zip(layout.regions, ctx.loss_geometry.masks)):
            if mask.all():
                raise ConfigurationError(
                    f"region {i} (concept {region.concept_id!r}): box {region.box} covers "
                    f"the whole {config.height}x{config.width} latent, which leaves the "
                    f"region loss nothing outside it; guidance and re-init need a smaller box")
    return ctx, SamplerSchedule.linear(steps=config.steps)


# ------------------------------------------------------------------ sampling


@dataclass
class SampleResult:
    final: LatentState
    trace: list[TraceRow]
    mass_history: list[tuple[int, dict[str, float]]] = field(default_factory=list)
    outputs: dict[str, Path] = field(default_factory=dict)


def sample(config: RunConfig) -> SampleResult:
    """Run the full guided sampler and write all artifacts.

    On a numeric failure the trace collected so far is flushed before the
    error propagates.
    """
    ctx, schedule = prepare(config)
    guidance_cfg = config.guidance
    geometry = ctx.loss_geometry
    total = schedule.steps
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {out_dir}: {exc.strerror}") from exc

    trace: list[TraceRow] = []
    mass_history: list[tuple[int, dict[str, float]]] = []
    has_regions = bool(ctx.layout.regions)
    guiding = has_regions and guidance_cfg.guidance_fraction > 0.0

    try:
        if config.reinit:
            z, rows = reinitialize(config.seed, ctx, guidance_cfg, total)
            trace.extend(rows)
        else:
            z = initial_latent(config.seed, ctx.dims)

        for t in range(total, 0, -1):
            # only the last step's record feeds the dump: drop each one before
            # the next step's forwards build theirs
            record = None
            if guiding and in_guidance_window(t, total, guidance_cfg.guidance_fraction):
                # mass is measured on the state entering the timestep, which
                # guidance's first iteration forwards, so the history shows
                # what the accumulated guidance achieved
                masses: dict[str, float] = {}
                mass_history.append((t, masses))

                def forward(zt: Tensor):
                    attn = encode(zt, t, ctx)[1]
                    if not masses:
                        masses.update(inbox_mass_fractions(attn, geometry))
                    return attn

                z, rows = guided_update(z, forward, geometry, guidance_cfg, t, total)
                trace.extend(rows)
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # the finite checks report it
                    eps, record = denoiser_forward(Tensor(z), t, ctx)
                    z = ddim_step(z, eps.data, t, schedule)
            except NumericError as exc:
                raise NumericError(f"denoising step diverged at t={t}: {exc}") from exc
    except NumericError:
        write_trace(out_dir / "trace.csv", trace)
        raise

    outputs = {
        "trace": write_trace(out_dir / "trace.csv", trace),
        "latent": out_dir / "latent.lcb",
        "preview": write_pgm(out_dir / "preview.pgm", decode_preview(z)),
    }
    tensorio.write_container(outputs["latent"], {"latent": z})
    if config.dump_attention:
        dump = {f"cross.{cid}": amap
                for cid, amap in zip(geometry.concept_ids, record.averaged_cross_maps(geometry))}
        for i, layer in enumerate(record.loss_layers(geometry)):
            dump[f"self.layer{i}"] = mean_heads(layer.self_probs).data
        outputs["attention"] = out_dir / "attention.lcb"
        tensorio.write_container(outputs["attention"], dump)

    return SampleResult(final=LatentState(z=z, t=0), trace=trace,
                        mass_history=mass_history, outputs=outputs)

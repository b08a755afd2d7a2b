"""Command-line entry points: compose, make-toy-assets, gradcheck."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import tensorio
from .assets import gen_prompt_embedding, gen_synthetic_bundle
from .autodiff import Tensor, finite_difference_gradient, grad, max_relative_error
from .denoiser import encode
from .errors import ArgumentError, LoracanvasError
from .guidance import composite_loss
from .pipeline import RunConfig, prepare, sample
from .reinit import initial_latent

REFERENCE_BOXES = ((0.08, 0.15, 0.46, 0.85), (0.54, 0.15, 0.92, 0.85))

# calibrated so the reference run demonstrably halves its constraint loss;
# see the guidance knobs for what each value does
REFERENCE_GUIDANCE = {"phi0": 800.0, "max_iters": 12, "patience": 3}


def make_toy_assets(out_dir: str | Path, seed: int = 42) -> dict[str, Path]:
    """Emit two concept bundles, prompt embeddings and ready-to-run configs.

    ``config.json`` is the 2-concept reference configuration; a smaller
    ``gradcheck.json`` (4x8x8 latent) keeps the finite-difference suite
    fast. Local concept prompts carry two tokens (context + concept), the
    global prompt six.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ArgumentError(f"cannot create output directory {out}: {exc.strerror}") from exc
    paths: dict[str, Path] = {}

    def emit(tag: str, *, global_tokens, local_tokens, d_text, d_model, heads,
             channels, extent, steps, bundle_seed_base, guidance, config_name):
        embed = out / f"{tag}global_embed.lcb"
        tensorio.write_container(
            embed,
            {"prompt_embed": gen_prompt_embedding(seed, global_tokens, d_text)})
        bundles = []
        for i, name in enumerate(("concept_a", "concept_b")):
            bundle_path = gen_synthetic_bundle(
                bundle_seed_base + i, out / f"{tag}{name}.lcb",
                tokens=local_tokens, d_text=d_text, d_model=d_model, rank=4)
            bundles.append(bundle_path)
        config = {
            "seed": seed,
            "steps": steps,
            "latent": {"channels": channels, "height": extent, "width": extent},
            "model": {"d_model": d_model, "heads": heads},
            "guidance": guidance,
            "global_prompt_embed": embed.name,
            "regions": [{"box": list(box), "bundle": p.name}
                        for box, p in zip(REFERENCE_BOXES, bundles)],
            "output_dir": f"{tag}out",
            "dump_attention": False,
        }
        config_path = out / config_name
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        paths[config_name] = config_path

    emit("", global_tokens=6, local_tokens=2, d_text=32, d_model=16, heads=2,
         channels=8, extent=16, steps=25, bundle_seed_base=seed + 118,
         guidance=dict(REFERENCE_GUIDANCE), config_name="config.json")
    emit("gradcheck_", global_tokens=4, local_tokens=2, d_text=16, d_model=8,
         heads=2, channels=4, extent=8, steps=10, bundle_seed_base=seed + 201,
         guidance={}, config_name="gradcheck.json")
    return paths


def _seed(text: str) -> int:
    """An argparse type: a non-negative integer seed."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    return seed


def run_gradcheck(config: RunConfig, eps: float = 1e-6) -> float:
    """Max relative error between taped and finite-difference gradients."""
    _, _, analytic, numeric = _gradcheck(config, eps)
    return max_relative_error(analytic, numeric)


def _gradcheck(config: RunConfig, eps: float):
    """The checked loss, its latent, and there the taped gradient and the
    central differences."""
    ctx, schedule = prepare(config)
    geometry = ctx.loss_geometry
    t = schedule.steps
    z0 = initial_latent(config.seed, ctx.dims)

    def loss_of(zt: Tensor) -> Tensor:
        _, record = encode(zt, t, ctx)
        total, _ = composite_loss(record, geometry, config.guidance)
        return total

    with np.errstate(over="ignore", invalid="ignore"):  # the finite checks report it
        traced = Tensor(z0, requires_grad=True)
        analytic = grad(loss_of(traced), traced)
        numeric = finite_difference_gradient(loss_of, Tensor(z0), eps=eps)
    return loss_of, z0, analytic.data, numeric.data


def compose_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="compose", description="Run the guided multi-concept sampler.")
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--seed", type=_seed, default=None, help="override the seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_json(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=Path(args.out))
        result = sample(config)
    except LoracanvasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, path in sorted(result.outputs.items()):
        print(f"{name}: {path}")
    guided = result.trace
    if config.reinit and config.regions:
        # re-init logs its one step as the first row; it is no guided iteration
        print(f"re-init loss: {guided[0].total:.6f}")
        guided = guided[1:]
    if guided:
        print(f"guidance loss: {guided[0].total:.6f} -> {guided[-1].total:.6f} "
              f"({len(guided)} iterations)")
    else:
        print("guidance loss: no guided iterations")
    return 0


def make_toy_assets_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="make-toy-assets",
        description="Generate deterministic bundles and run configs.")
    parser.add_argument("--seed", type=_seed, default=42)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        paths = make_toy_assets(args.out, seed=args.seed)
    except LoracanvasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def gradcheck_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradcheck",
        description="Cross-check taped gradients against finite differences.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--eps", type=float, default=1e-6)
    parser.add_argument("--threshold", type=float, default=1e-5)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        parser.error(f"--threshold must be finite and positive, got {args.threshold}")
    try:
        config = RunConfig.from_json(args.config)
        loss_of, z0, analytic, numeric = _gradcheck(config, args.eps)
        error = max_relative_error(analytic, numeric)
        status = "ok" if error < args.threshold else "FAIL"
        print(f"gradcheck {status}: max relative error {error:.3e} "
              f"(threshold {args.threshold:.1e})")
        if error >= args.threshold:
            # one-sided differences tell a kink within eps from a wrong gradient
            at = np.unravel_index(np.argmax(np.abs(analytic - numeric)), z0.shape)
            sides = []
            with np.errstate(over="ignore", invalid="ignore"):
                f0 = float(loss_of(Tensor(z0)))
                for step in (args.eps, -args.eps):
                    probe = z0.copy()
                    probe[at] += step
                    sides.append((float(loss_of(Tensor(probe))) - f0) / step)
            print(f"worst at (channel, row, column) {tuple(map(int, at))}: taped "
                  f"{analytic[at]:.9e}, central {numeric[at]:.9e}, one-sided "
                  f"+eps {sides[0]:.9e}, -eps {sides[1]:.9e}")
    except LoracanvasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if error < args.threshold else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {
        "compose": compose_main,
        "make-toy-assets": make_toy_assets_main,
        "gradcheck": gradcheck_main,
    }
    if not argv or argv[0] not in commands:
        print(f"usage: loracanvas {{{','.join(commands)}}} ...", file=sys.stderr)
        return 2
    return commands[argv[0]](argv[1:])

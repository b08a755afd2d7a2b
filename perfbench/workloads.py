"""Benchmark workloads: each turns a workload seed into run inputs on disk.

The package only ever sees the generated files. Every workload starts from
the assets ``make-toy-assets`` writes for the seed and changes the
configuration, so one seed fixes weights, bundles, noise and layout.

- ``reference``: the 2-concept reference run (8x16x16, 25 steps, re-init,
  ``max_iters=12``). Most of its time goes into the tape, the three losses
  and the guidance loop.
- ``crowd``: 4 concepts on the same stack with ``max_iters=6``, one pair of
  boxes overlapping. Per-concept work (region cross-attention, K/V
  projections, crop searches, overlap averaging) dominates, so it shows
  whether a change scales with the concept count.
- ``unguided32``: the 2 reference concepts on a 32x32 latent, 50 steps, no
  guidance and no re-init. Untraced forwards over 1024 pixels, where
  self-attention is most of the time; the bypass workload for any change to
  the tape, the losses or the guidance loop.
- ``gradcheck``: ``gradcheck.json`` through ``cli.run_gradcheck``: one taped
  forward and backward, then central finite differences, i.e. hundreds of
  untraced forward-plus-loss evaluations.

``BENCHMARK.json`` declares only ``reference`` and ``gradcheck``: between
them they measure every layer, and on a shared 2-vCPU host two workloads
leave room for runs long enough to average out the host's swings in speed.
``crowd`` (concept count) and ``unguided32`` (large arrays, no tape) still
run by name, for a change that targets them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from loracanvas.assets import gen_synthetic_bundle, load_bundle
from loracanvas.cli import make_toy_assets

WORKLOADS = ("reference", "crowd", "unguided32", "gradcheck")

# keys the crowd layout generator apart from every generator in the package
_CROWD_STREAM = 0x63726F77
_CROWD_BUNDLE_OFFSET = 5000


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    kind: str  # "sample" runs pipeline.sample, "gradcheck" runs cli.run_gradcheck


def crowd_boxes(seed: int) -> list[tuple[float, float, float, float]]:
    """Four normalized boxes, one per quadrant; only the top pair overlaps.

    Boxes sit on the 16x16 pixel grid with fixed extents (8x6 on top, 6x6
    below) and seeded offsets, so every seed covers the same number of
    pixels, at 16x16 and at the pooled 8x8, and costs the same work. The
    top pair shares a 4-pixel band (2 pooled columns) around a seeded split;
    the bottom pair and the top/bottom rows stay apart by construction.
    """
    rng = np.random.default_rng([_CROWD_STREAM, seed])

    def pick(*choices: int) -> int:
        return int(rng.choice(choices))

    split = pick(7, 8, 9)
    top_a, top_b = pick(1, 2), pick(1, 2)
    low_c, low_d = pick(9, 10), pick(9, 10)
    left_c, left_d = pick(1, 2), pick(9, 10)
    pixels = [
        (split - 6, top_a, split + 2, top_a + 6),
        (split - 2, top_b, split + 6, top_b + 6),
        (left_c, low_c, left_c + 6, low_c + 6),
        (left_d, low_d, left_d + 6, low_d + 6),
    ]
    return [tuple(v / 16 for v in box) for box in pixels]


def generate(name: str, seed: int, out_dir: Path) -> Workload:
    """Write the inputs of one workload into out_dir."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    out_dir = Path(out_dir)
    paths = make_toy_assets(out_dir, seed=seed)
    if name == "reference":
        return Workload(name, paths["config.json"], "sample")
    if name == "gradcheck":
        return Workload(name, paths["gradcheck.json"], "gradcheck")

    raw = json.loads(paths["config.json"].read_text())
    if name == "unguided32":
        raw["latent"].update(height=32, width=32)
        raw["steps"] = 50
        raw["guidance"]["guidance_fraction"] = 0.0
        raw["reinit"] = False
    else:  # crowd
        raw["guidance"]["max_iters"] = 6
        template = load_bundle(out_dir / raw["regions"][0]["bundle"])
        tokens, d_text = template.prompt_embed.shape
        bundles = [entry["bundle"] for entry in raw["regions"]]
        for i, stem in enumerate(("concept_c", "concept_d")):
            path = gen_synthetic_bundle(
                seed + _CROWD_BUNDLE_OFFSET + i, out_dir / f"{stem}.lcb",
                tokens=tokens, d_text=d_text, d_model=raw["model"]["d_model"],
                rank=template.deltas["cross.W_K"].rank)
            bundles.append(path.name)
        raw["regions"] = [{"box": list(box), "bundle": bundle}
                          for box, bundle in zip(crowd_boxes(seed), bundles)]
    config = out_dir / f"{name}.json"
    config.write_text(json.dumps(raw, indent=2) + "\n")
    return Workload(name, config, "sample")

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings

from loracanvas import autodiff as ad
from loracanvas.assets import (
    ModelDims,
    generate_base_weights,
    gen_prompt_embedding,
    synth_bundle,
)
from loracanvas.attention import LayoutCondition, RegionGeometry, RegionSpec
from loracanvas.autodiff import Tensor
from loracanvas.cli import make_toy_assets
from loracanvas.denoiser import DenoiserContext, build_context

# When a @given test fails, hypothesis' pytest plugin imports its patch writer,
# whose libcst dependency warns on import. Under filterwarnings = ["error"] that
# warning ended the pytest run with an INTERNALERROR, losing the failure's report
# and every later test. Importing it here once, with that one warning ignored,
# leaves the plugin a module that is already loaded.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass

# Every property test runs derandomized, so each run checks the same examples, and
# without the shrink phase: a failing example is reported as drawn, in seconds, where
# shrinking one over the tests' arrays took minutes.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("tier1")

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*args: str, check: bool = False) -> subprocess.CompletedProcess:
    """A new interpreter that imports loracanvas from this checkout's src/.

    pyproject's ``pythonpath`` reaches only the pytest process, so a child
    is handed src/ on its PYTHONPATH.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=check)


@pytest.fixture(scope="session")
def asset_dir(tmp_path_factory) -> Path:
    """``make-toy-assets --seed 42``'s files, made once for the session: a test
    reads them and writes its runs elsewhere."""
    out = tmp_path_factory.mktemp("assets")
    make_toy_assets(out, seed=42)
    return out


SMALL_DIMS = ModelDims(channels=4, height=8, width=8, d_model=8, n_heads=2,
                       d_text=16)
TWO_BOXES = ((0.05, 0.1, 0.45, 0.9), (0.55, 0.1, 0.95, 0.9))
# the two boxes' top halves, then two more in the band they leave free
FOUR_BOXES = ((0.05, 0.1, 0.45, 0.5), (0.55, 0.1, 0.95, 0.5),
              (0.05, 0.55, 0.45, 0.9), (0.55, 0.55, 0.95, 0.9))


def build_test_context(seed: int = 42, dims: ModelDims = SMALL_DIMS,
                       boxes=TWO_BOXES, tokens: int = 4,
                       scale: float = 1.0) -> DenoiserContext:
    """Small 2-concept stack shared by the integration-level tests."""
    weights = generate_base_weights(seed, dims)
    regions = tuple(RegionSpec(box, f"concept_{chr(97 + i)}")
                    for i, box in enumerate(boxes))
    layout = LayoutCondition(
        regions=regions,
        global_prompt_embed=gen_prompt_embedding(seed, tokens, dims.d_text))
    bundles = {
        r.concept_id: synth_bundle(seed + 10 + i, tokens=tokens,
                                   d_text=dims.d_text, d_model=dims.d_model,
                                   rank=4, scale=scale, concept_id=r.concept_id)
        for i, r in enumerate(regions)
    }
    return build_context(weights, layout, bundles)


def empty_layout_context(seed: int = 42, dims: ModelDims = SMALL_DIMS,
                         tokens: int = 4) -> DenoiserContext:
    weights = generate_base_weights(seed, dims)
    layout = LayoutCondition(
        regions=(),
        global_prompt_embed=gen_prompt_embedding(seed, tokens, dims.d_text))
    return build_context(weights, layout, {})


def map_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def geometry_of(rects, h: int, w: int) -> RegionGeometry:
    """Concept c covers pixel rows [r0, r1) and columns [c0, c1) of an h x w map."""
    regions = tuple(RegionSpec((c0 / w, r0 / h, c1 / w, r1 / h), f"c{i}")
                    for i, (r0, c0, r1, c1) in enumerate(rects))
    return RegionGeometry.build(LayoutCondition(regions, np.zeros((1, 1))), h, w)


def leading_slices(x: Tensor) -> list[Tensor]:
    """x[0], x[1], ... along the leading axis, each a node on x's tape."""
    if not len(x.data):
        return []
    rows = ad.reshape(x, (x.shape[0], x.size // x.shape[0]))
    every = np.arange(rows.shape[1])
    return [ad.reshape(ad.take2d(rows, [i], every), x.shape[1:]) for i in range(len(x.data))]


def add_chain(parts: list[Tensor]) -> Tensor:
    """parts[0] + parts[1] + ... with add kernels, in order; no parts sum to 0.0."""
    if not parts:
        return Tensor(0.0)
    total = parts[0]
    for part in parts[1:]:
        total = ad.add(total, part)
    return total

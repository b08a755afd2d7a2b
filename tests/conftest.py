from __future__ import annotations

import warnings

import numpy as np

from loracanvas.assets import (
    ModelDims,
    generate_base_weights,
    gen_prompt_embedding,
    synth_bundle,
)
from loracanvas.attention import LayoutCondition, RegionSpec
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

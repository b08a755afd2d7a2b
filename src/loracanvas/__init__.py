"""Desk-scale multi-concept composition on a deterministic toy diffusion stack.

The package wires four mechanisms together: region-aware cross-attention
with per-concept low-rank weight injection, hard concept isolation in
self-attention, gradient guidance from attention-map constraint losses,
and latent re-initialization that relocates concept-favorable noise into
the user's layout boxes. Everything runs on a miniature seeded latent
stack so each mechanism is exact, fast and property-testable.
"""

from .assets import (
    BaseWeights,
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
from .attention import (
    AttnRecord,
    LayerRecord,
    LayoutCondition,
    RegionGeometry,
    RegionSpec,
    compose_hidden,
    cross_branch_kv,
    gaussian_weight,
    masked_self_attention,
    rasterize_mask,
    region_cross_attention,
)
from .autodiff import (
    Tensor,
    axis_max_project,
    finite_difference_gradient,
    grad,
    matmul,
    max_relative_error,
    softmax_rows,
    topk_mean,
)
from .denoiser import DenoiserContext, build_context, denoiser_forward
from .guidance import (
    AdaptiveStopper,
    GuidanceConfig,
    LossBreakdown,
    TraceRow,
    guided_update,
    inbox_mass_fraction,
    step_size,
)
from .pipeline import (
    LatentState,
    RunConfig,
    SampleResult,
    SamplerSchedule,
    ddim_step,
    decode_preview,
    prepare,
    sample,
)
from .reinit import CropResult, best_crop, reinitialize, standardize, transplant

__version__ = "0.1.0"

__all__ = [
    "AdaptiveStopper",
    "AttnRecord",
    "BaseWeights",
    "ConceptBundle",
    "CropResult",
    "DenoiserContext",
    "GuidanceConfig",
    "LatentState",
    "LayerRecord",
    "LayoutCondition",
    "LoraDelta",
    "LossBreakdown",
    "ModelDims",
    "RegionGeometry",
    "RegionSpec",
    "RunConfig",
    "SampleResult",
    "SamplerSchedule",
    "Tensor",
    "TraceRow",
    "apply_projection",
    "axis_max_project",
    "best_crop",
    "build_context",
    "compose_hidden",
    "cross_branch_kv",
    "ddim_step",
    "decode_preview",
    "denoiser_forward",
    "finite_difference_gradient",
    "gaussian_weight",
    "gen_prompt_embedding",
    "gen_synthetic_bundle",
    "generate_base_weights",
    "grad",
    "guided_update",
    "inbox_mass_fraction",
    "load_bundle",
    "masked_self_attention",
    "matmul",
    "max_relative_error",
    "prepare",
    "rasterize_mask",
    "region_cross_attention",
    "reinitialize",
    "sample",
    "softmax_rows",
    "standardize",
    "step_size",
    "synth_bundle",
    "topk_mean",
    "transplant",
    "write_bundle",
    "__version__",
]

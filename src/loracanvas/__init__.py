"""Desk-scale multi-concept composition on a deterministic toy diffusion stack.

The package wires four mechanisms together: region-aware cross-attention
with per-concept low-rank weight injection, hard concept isolation in
self-attention, gradient guidance from attention-map constraint losses,
and latent re-initialization that relocates concept-favorable noise into
the user's layout boxes. Everything runs on a miniature seeded latent
stack so each mechanism is exact, fast and property-testable.
"""

__version__ = "0.1.0"

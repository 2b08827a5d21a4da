"""Seedable random-number streams with deterministic per-subsystem splitting.

Every stochastic component draws from its own PCG64 stream, derived from the
run seed via ``numpy.random.SeedSequence.spawn``. Streams are assigned by
label in a fixed order, so two runs with the same seed produce identical
draws in every subsystem regardless of how the other subsystems consume
their streams. Sharded work spawns its per-shard generators from its own
label's stream, so no shard replays another subsystem's draws.
"""

from __future__ import annotations

import numpy as np

# Fixed label order; appending new labels keeps existing streams stable.
STREAM_LABELS = ("mobility", "traffic", "drops", "placement", "zones", "crossings")


def spawn_streams(seed: int) -> dict[str, np.random.Generator]:
    """Return one independent Generator per label of ``STREAM_LABELS``."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_LABELS))
    return {label: np.random.Generator(np.random.PCG64(child)) for label, child in zip(STREAM_LABELS, children)}

"""Seedable random-number streams with deterministic per-subsystem splitting.

Every stochastic component draws from its own PCG64 stream, derived from the
run seed via ``numpy.random.SeedSequence.spawn``. Streams are assigned by
label in a fixed order, so two runs with the same seed produce identical
draws in every subsystem regardless of how the other subsystems consume
their streams. Sharded work spawns its per-shard generators from its own
label's stream, so no shard replays another subsystem's draws.
"""

from __future__ import annotations

import math

import numpy as np

# Fixed label order; appending new labels keeps existing streams stable.
STREAM_LABELS = ("mobility", "traffic", "drops", "placement", "zones", "crossings")


def spawn_streams(seed: int) -> dict[str, np.random.Generator]:
    """Return one independent Generator per label of ``STREAM_LABELS``."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_LABELS))
    return {label: np.random.Generator(np.random.PCG64(child)) for label, child in zip(STREAM_LABELS, children)}


def draw_exponential(gen: np.random.Generator, mean: float) -> float:
    """An exponential draw of ``mean`` by inversion, ``-mean * log1p(-u)``, from one raw 64-bit value of ``gen``.

    ``u = (raw >> 11) * 2**-53`` is the uniform double that ``Generator.random`` makes of the same value, so the
    draw depends on numpy's stable bit stream and on ``math.log1p``, not on numpy's exponential algorithm.
    """
    return -mean * math.log1p(-(int(gen.bit_generator.random_raw()) >> 11) * 2.0**-53)

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


def draw_uniforms(gen: np.random.Generator, bounds) -> list[float]:
    """One draw on ``[lo, hi)`` per ``(lo, hi)`` of ``bounds``, in order, ``lo + (hi - lo) * ((raw >> 11) * 2**-53)`` of
    one raw 64-bit value each: ``Generator.uniform``'s draws of the same values, and its stream state after them."""
    raw = gen.bit_generator.random_raw(len(bounds)).tolist()
    return [lo + (hi - lo) * ((r >> 11) * 2.0**-53) for (lo, hi), r in zip(bounds, raw)]


def draw_exponential(gen: np.random.Generator, mean: float) -> float:
    """An exponential draw of ``mean`` by inversion, ``-mean * log1p(-u)``, ``u`` a ``draw_uniforms`` draw on [0, 1),
    so it rests on numpy's stable bit stream and ``math.log1p``, not on numpy's exponential algorithm."""
    return -mean * math.log1p(-(int(gen.bit_generator.random_raw()) >> 11) * 2.0**-53)

"""AHP ranking of the LiFi and femtocell alternatives on four fixed criteria.

``CRITERIA`` are in the row order of the pairwise-comparison matrix; the
load is the one cost (smaller is better), the rest are benefits. Criterion
weights are the principal eigenvector of that matrix (power iteration).
Alternative scores are normalized per criterion and combined as
``scores @ weights``; ties resolve to the femtocell because it is the safer
choice for mobile users.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .policy import FAP, LIFI

CRITERIA = ("capacity", "sinr", "mobility", "load")

# Saaty's random index for a 4x4 matrix, and the largest consistency ratio accepted.
RANDOM_INDEX = 0.90
CONSISTENCY_LIMIT = 0.1

# Fixed mobility scores, indexed by network code; the load floor keeps an empty network's cost inversion finite.
MOBILITY = (0.3, 0.7)
LOAD_FLOOR = 1e-6


def derive_weights(pairwise_matrix) -> tuple[tuple[float, ...], float]:
    """Principal-eigenvector weights and consistency ratio of a comparison matrix.

    The matrix must be 4x4, positive and reciprocal with a unit diagonal, and
    its consistency ratio ``((lambda_max - 4) / 3) / RANDOM_INDEX`` at most
    ``CONSISTENCY_LIMIT``, or ValueError naming ``pairwise_matrix``. Power
    iteration runs to a relative tolerance of 1e-10.
    """
    n = len(CRITERIA)
    if len(pairwise_matrix) != n or any(len(row) != n for row in pairwise_matrix):
        raise ValueError(f"pairwise_matrix: expected {n}x{n}, one row and column per criterion ({', '.join(CRITERIA)})")
    matrix = np.asarray(pairwise_matrix, dtype=float)
    if np.any(matrix <= 0):
        raise ValueError("pairwise_matrix: entries must be positive")
    if not np.allclose(np.diag(matrix), 1.0, rtol=1e-9, atol=0):
        raise ValueError("pairwise_matrix: diagonal must be 1")
    if not np.allclose(matrix * matrix.T, 1.0, rtol=1e-6, atol=0):
        raise ValueError("pairwise_matrix: must be reciprocal: m[i][j]*m[j][i] == 1")
    w = np.full(n, 1.0 / n)
    for _ in range(10_000):
        w, prev = matrix @ w, w
        w /= w.sum()
        if np.max(np.abs(w - prev)) <= 1e-10 * np.max(np.abs(w)):
            break
    lambda_max = float((matrix @ w / w).mean())
    cr = max(0.0, (lambda_max - n) / (n - 1)) / RANDOM_INDEX
    if cr > CONSISTENCY_LIMIT:
        raise ValueError(f"pairwise_matrix: consistency ratio {cr!r} exceeds {CONSISTENCY_LIMIT}")
    return tuple(float(x) for x in w), cr


DEFAULT_MATRIX = (
    (1.0, 2.0, 2.0, 4.0),
    (0.5, 1.0, 1.0, 2.0),
    (0.5, 1.0, 1.0, 2.0),
    (0.25, 0.5, 0.5, 1.0),
)


@dataclass(frozen=True)
class SelectionConfig:
    """The pairwise-comparison matrix of the ``CRITERIA``, whose rules are :func:`derive_weights`, and its weights."""

    pairwise_matrix: tuple[tuple[float, ...], ...] = DEFAULT_MATRIX

    def __post_init__(self):
        self.weights  # noqa: B018  derived here, once per instance, so a bad matrix fails to build

    @functools.cached_property
    def weights(self) -> tuple[float, ...]:
        """The criterion weights of ``pairwise_matrix``."""
        return derive_weights(self.pairwise_matrix)[0]


def rank_networks(values, weights) -> tuple[float, float, str]:
    """Global ranking (R_lifi, R_femto, chosen network name).

    ``values`` holds the raw finite, non-negative scores of the
    ``CRITERIA``, one row per network code: row ``LIFI`` (0), then row
    ``FAP`` (1). The load is floored at ``LOAD_FLOOR`` and inverted, then
    each column is normalized to sum to 1 (a column of zeros stays zero).
    ``chosen`` is "lifi" or "femtocell"; an exact tie picks the femtocell.
    """
    cols = np.array(values, dtype=float)
    if cols.shape != (2, len(CRITERIA)):
        raise ValueError(f"expected 2x{len(CRITERIA)} scores, one row per network, got shape {cols.shape}")
    if not np.all(np.isfinite(cols) & (cols >= 0)):
        raise ValueError(f"scores must be finite and non-negative, got {values!r}")
    cols[:, -1] = 1.0 / np.maximum(cols[:, -1], LOAD_FLOOR)  # the load, the last criterion
    totals = cols.sum(axis=0)
    cols /= np.where(totals > 0, totals, 1.0)
    r = cols @ np.asarray(weights, dtype=float)
    chosen = "lifi" if r[LIFI] > r[FAP] else "femtocell"
    return float(r[LIFI]), float(r[FAP]), chosen

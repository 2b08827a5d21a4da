"""AHP ranking of the LiFi and femtocell alternatives.

Criterion weights come from the principal eigenvector of a positive
reciprocal pairwise-comparison matrix (power iteration), with Saaty's
consistency ratio as the sanity check. Alternative scores are normalized
per criterion and combined as ``scores @ weights``; ties resolve to the
femtocell because it is the safer choice for mobile users.
"""

from __future__ import annotations

import numpy as np

from .policy import FAP, LIFI

# Saaty random-index table, N = 1..9.
RANDOM_INDEX = (0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45)

CONSISTENCY_LIMIT = 0.1


def _validate_reciprocal(matrix: np.ndarray) -> None:
    n = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[1] != n:
        raise ValueError("pairwise matrix must be square")
    if not 2 <= n <= 9:
        raise ValueError("pairwise matrix must be 2x2 .. 9x9")
    if np.any(matrix <= 0):
        raise ValueError("pairwise matrix entries must be positive")
    if not np.allclose(np.diag(matrix), 1.0, rtol=1e-9, atol=0):
        raise ValueError("pairwise matrix diagonal must be 1")
    if not np.allclose(matrix * matrix.T, 1.0, rtol=1e-6, atol=0):
        raise ValueError("pairwise matrix must be reciprocal: m[i][j]*m[j][i] == 1")


def derive_weights(pairwise_matrix) -> tuple[tuple[float, ...], float]:
    """Principal-eigenvector weights and consistency ratio of a comparison matrix.

    Power iteration runs to a relative tolerance of 1e-10. The consistency
    ratio is ``((lambda_max - N) / (N - 1)) / RI(N)``; it is not checked
    here: resolving a config rejects a matrix above ``CONSISTENCY_LIMIT``.
    """
    matrix = np.asarray(pairwise_matrix, dtype=float)
    _validate_reciprocal(matrix)
    n = matrix.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(10_000):
        nxt = matrix @ w
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - w)) <= 1e-10 * np.max(np.abs(nxt)):
            w = nxt
            break
        w = nxt
    lambda_max = float((matrix @ w / w).mean())
    ci = max(0.0, (lambda_max - n) / (n - 1))
    ri = RANDOM_INDEX[n - 1]
    cr = 0.0 if ri == 0.0 else ci / ri
    return tuple(float(x) for x in w), cr


def rank_networks(values, modes, weights) -> tuple[float, float, str]:
    """Global ranking (R_lifi, R_femto, chosen network name).

    ``values`` holds the raw per-criterion scores, one row per network
    code: row ``LIFI`` (0), then row ``FAP`` (1). ``modes[i]`` is
    "benefit" (bigger is better) or "cost" (smaller is better; scores are
    inverted before normalization). Each column is normalized to sum to 1. ``chosen`` is "lifi" or "femtocell";
    an exact tie picks the femtocell.
    """
    cols = np.array(values, dtype=float)
    if cols.shape[0] != 2:
        raise ValueError("exactly two alternatives are supported")
    if np.any(cols < 0):
        raise ValueError("scores must be non-negative")
    if len(modes) != cols.shape[1]:
        raise ValueError("one normalization mode per criterion")
    for i, mode in enumerate(modes):
        if mode == "cost":
            with np.errstate(divide="ignore"):
                cols[:, i] = np.where(cols[:, i] > 0, 1.0 / cols[:, i], 0.0)
        elif mode != "benefit":
            raise ValueError(f"unknown normalization mode {mode!r}")
        total = cols[:, i].sum()
        if total > 0:
            cols[:, i] /= total
    w = np.asarray(weights, dtype=float)
    if cols.shape[1] != w.shape[0]:
        raise ValueError("score columns and weights disagree in length")
    r = cols @ w
    chosen = "lifi" if r[LIFI] > r[FAP] else "femtocell"
    return float(r[LIFI]), float(r[FAP]), chosen
